//! The repository's benchmark: end-to-end figures of three workloads over
//! the paper's Table 1 modules, and a traced run that breaks each workload
//! down by layer.  See `README.md` in this directory.
//!
//! ```text
//! ipl-perfbench --workload <table1-cold|table1-warm|serve-mixed> --seed N
//!               --seconds S --trace 0|1 --ipl-bin PATH --work-dir DIR
//! ```
//!
//! Prints every metric by name with its unit, then one JSON line with the
//! keys `correct`, `attempted`, `failed` and `metrics`.  Exits 1 when any
//! verdict differs from its known answer or a self-check fails.

mod gen;
mod measure;
mod oracle;
mod timed;
mod trace;

use gen::{fnv1a, verify_frame, MixedStream, FNV_OFFSET};
use measure::Metrics;
use oracle::Case;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use timed::Checker;

/// Settings of one run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub ipl_bin: PathBuf,
    pub work: PathBuf,
}

const WORKLOADS: [&str; 3] = ["table1-cold", "table1-warm", "serve-mixed"];

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
        ipl_bin: PathBuf::from("ipl"),
        work: PathBuf::from(".bench_work"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = number()?,
            "--seconds" => ctx.seconds = Duration::from_secs(number()?),
            "--trace" => ctx.trace = number()? != 0,
            "--ipl-bin" => ctx.ipl_bin = PathBuf::from(&value),
            "--work-dir" => ctx.work = PathBuf::from(&value),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    ctx.work = ctx
        .work
        .join(format!("{}-{}", ctx.workload, std::process::id()));
    Ok(ctx)
}

/// Generator self-test: the same seed yields a byte-identical stream.
/// Returns the stream digest.
fn stream_digest(seed: u64, table1: &[Case], wrong: &[Case]) -> Result<u64, String> {
    let digest = || {
        let mut stream = MixedStream::new(seed, table1, wrong);
        (0..64).fold(FNV_OFFSET, |hash, id| {
            fnv1a(hash, verify_frame(id, &stream.next_case(), None).as_bytes())
        })
    };
    let (first, second) = (digest(), digest());
    if first == second {
        Ok(first)
    } else {
        Err("the same seed produced two different request streams".to_string())
    }
}

fn run(ctx: &Ctx, checker: &mut Checker) -> Result<Metrics, String> {
    let table1 = oracle::table1();
    let wrong = oracle::wrong_variants();
    let digest = stream_digest(ctx.seed, &table1, &wrong)?;
    println!(
        "workload {} seed {} seconds {} trace {}; stream digest {digest:016x}",
        ctx.workload,
        ctx.seed,
        ctx.seconds.as_secs(),
        u8::from(ctx.trace)
    );
    let timed = match (ctx.workload.as_str(), ctx.trace) {
        ("table1-cold", false) => timed::table1_cold(ctx, &table1, checker),
        ("table1-warm", false) => timed::table1_warm(ctx, &table1, checker),
        ("serve-mixed", false) => timed::serve_mixed(ctx, &table1, &wrong, checker)?,
        ("table1-cold", true) => return trace::table1_cold(ctx, &table1, checker),
        ("table1-warm", true) => return trace::table1_warm(ctx, &table1, checker),
        ("serve-mixed", true) => return trace::serve_mixed(ctx, &table1, &wrong, checker),
        _ => unreachable!("workload names are checked when parsing"),
    };
    Ok(timed.metrics(checker.attempted, checker.failed))
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("ipl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("ipl-perfbench: {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let mut checker = Checker::default();
    let result = run(&ctx, &mut checker);
    if checker.attempted == 0 {
        checker.fail_check("no request completed".to_string());
    }
    // Traces are kept beside the work directory; stores and sockets go.
    if let Ok(entries) = std::fs::read_dir(&ctx.work) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tsv") {
                if let Some(parent) = ctx.work.parent() {
                    let _ = std::fs::rename(&path, parent.join(entry.file_name()));
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("ipl-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for metric in &metrics.0 {
        println!("metric {} = {} {}", metric.name, metric.value, metric.unit);
    }
    if let Some(why) = &checker.unsound {
        println!("SOUNDNESS FAILURE: {why}");
    }
    if let Some(why) = &checker.wrong {
        println!("CHECK FAILED: {why}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                gen::json_string(&m.name),
                m.value,
                gen::json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.correct(),
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
    if checker.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
