#!/usr/bin/env python3
"""Builds and runs the ipl benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <table1-cold|table1-warm|serve-mixed|all> \
        --seed N --seconds S --trace 0|1

Builds the benchmark harness (the package in this directory) and the
`ipl` binary in release mode, into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the harness.  Build output goes to standard
error; the harness prints every metric by name and, as its last line, one
JSON object.  The exit code is the harness's: non-zero on any verdict that
differs from its known answer.  Timed runs (`--trace 0`) keep the harness
and the daemon it starts on one CPU.  `--workload all` runs the three workloads
one after another and ends with one JSON object whose metric names are
prefixed with the workload name.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["table1-cold", "table1-warm", "serve-mixed"]


def pin_to_one_cpu():
    """Keeps the calling process, and every process it starts, on one CPU.

    Timed runs verify one module at a time, so one CPU is all they use.  On
    a shared 2-vCPU host, a reply that wakes the other, idle vCPU waits
    until the host runs that vCPU again: unpinned, `serve-mixed` lost a
    third of its throughput in some runs while its CPU time per module
    stayed within 10%.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_all(command, workload_at, root, pin):
    """Runs every workload in turn; merges their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        command[workload_at] = workload
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
        print(run.stdout, end="", flush=True)
        code = code or run.returncode
        lines = run.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            code = code or 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(merged))
    return code


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("run.py: no Cargo.toml at %s; the benchmark needs the whole repository" % root,
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "ipl"],
    ]
    for command in builds:
        built = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("run.py: build failed: %s" % " ".join(command), file=sys.stderr)
            return built.returncode
    harness = os.path.join(target, "release", "ipl-perfbench")
    ipl = os.path.join(target, "release", "ipl")
    work = os.path.join(root, ".bench_work")
    command = [harness] + sys.argv[1:] + ["--ipl-bin", ipl, "--work-dir", os.path.relpath(work, root)]
    traced = "--trace" in command and command[command.index("--trace") + 1:][:1] != ["0"]
    pin = None if traced else pin_to_one_cpu
    if "--workload" in command[:-4]:
        workload_at = command.index("--workload") + 1
        if workload_at < len(command) and command[workload_at] == "all":
            return run_all(command, workload_at, root, pin)
    return subprocess.run(command, cwd=root, preexec_fn=pin).returncode


if __name__ == "__main__":
    sys.exit(main())
