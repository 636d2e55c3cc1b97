//! The untraced runs that give the end-to-end metrics.

use crate::gen::{permutation, verify_frame, MixedStream};
use crate::measure::{cpu_time, peak_rss_mb, quantile, EndToEnd};
use crate::oracle::{check_counts, check_report, Case, Class, Verdict};
use crate::Ctx;
use ipl::core::{ModuleReport, Request, Session, VerifyOptions};
use ipl::provers::cache::ProofCache;
use ipl::provers::ProverConfig;
use ipl::suite::baseline::{parse_json, Json};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Worker threads per request on every timed workload.  Each request with
/// more workers spawns its threads anew, and on a loaded 2-vCPU host those
/// wake-ups made latencies up to two to three times slower and far noisier
/// than one worker.  `serve-mixed` has one connection for the same reason:
/// with two, the daemon verified two modules at once on both vCPUs, and
/// whenever the host held one back throughput fell by up to a third while
/// CPU time per module stayed within 10%.  The traced run still measures
/// the default worker count, as `core.parallel_efficiency`.
pub const JOBS: usize = 1;

/// Verdict bookkeeping shared by every run.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: usize,
    pub failed: usize,
    /// First verdict mismatch or failed self-check, if any.
    pub wrong: Option<String>,
    /// A method known to be wrong was proved.
    pub unsound: Option<String>,
}

impl Checker {
    /// Records one answer; returns `false` when the request failed.
    pub fn record(&mut self, verdict: Verdict) -> bool {
        match verdict {
            Verdict::Match => true,
            Verdict::Mismatch(why) => {
                self.wrong.get_or_insert(why);
                false
            }
            Verdict::Unsound(why) => {
                self.unsound.get_or_insert(why);
                false
            }
        }
    }

    pub fn fail_check(&mut self, why: String) {
        self.wrong.get_or_insert(why);
    }

    /// Forgets the requests counted so far (the untimed warm-ups) but keeps
    /// any failed check.
    pub fn start_timing(&mut self) {
        self.attempted = 0;
        self.failed = 0;
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_none() && self.unsound.is_none()
    }
}

/// The cache-off configuration of `table1-cold`, at [`JOBS`] workers.
pub fn cold_options() -> VerifyOptions {
    VerifyOptions::default()
        .with_config(ProverConfig {
            use_cache: false,
            ..ProverConfig::default()
        })
        .with_jobs(JOBS)
}

/// Non-trivial sequents of a report.
pub fn nontrivial(report: &ModuleReport) -> usize {
    report
        .methods
        .iter()
        .map(|m| m.total_sequents - m.trivial_sequents)
        .sum()
}

/// Verifies `case` through `session`, checking the verdict and (when
/// `all_cached`) that every non-trivial sequent was answered from the
/// cache.  Returns the latency in ms.
fn verify_checked(session: &Session, case: &Case, all_cached: bool, checker: &mut Checker) -> f64 {
    let request = Request::new(case.source.clone());
    let start = Instant::now();
    let result = session.verify(&request);
    let latency = crate::measure::ms(start.elapsed());
    checker.attempted += 1;
    let ok = match result {
        Ok(response) => {
            let mut ok = checker.record(check_report(case, &response.report));
            if all_cached && response.report.cache_hits() != nontrivial(&response.report) {
                checker.fail_check(format!(
                    "{}: {} of {} non-trivial sequents answered from the store",
                    case.row,
                    response.report.cache_hits(),
                    nontrivial(&response.report)
                ));
                ok = false;
            }
            ok
        }
        Err(e) => {
            checker.fail_check(format!("{}: {e}", case.row));
            false
        }
    };
    if !ok {
        checker.failed += 1;
    }
    latency
}

/// Runs `cases` in the seeded round-robin order until the deadline.
fn timed_loop(
    session: &Session,
    cases: &[Case],
    ctx: &Ctx,
    all_cached: bool,
    run: &mut EndToEnd,
    checker: &mut Checker,
) {
    let order = permutation(ctx.seed, cases.len());
    checker.start_timing();
    let start = Instant::now();
    let deadline = start + ctx.seconds;
    run.mark(Duration::ZERO, ctx.seconds, || cpu_time("self"));
    let mut next = 0;
    let mut per_row = BTreeMap::new();
    while Instant::now() < deadline {
        let case = &cases[order[next % order.len()]];
        next += 1;
        let latency = verify_checked(session, case, all_cached, checker);
        per_row
            .entry(case.row)
            .or_insert_with(Vec::new)
            .push(latency);
        let now = start.elapsed();
        run.samples.push((now, latency));
        run.mark(now, ctx.seconds, || cpu_time("self"));
        if checker.unsound.is_some() {
            break;
        }
    }
    print_rows(&per_row);
}

/// Prints the latency spread of each kind of request.  The p50 of a Table 1
/// round-robin lies between the fourth and fifth fastest row, and a tail
/// in the slowest row.
fn print_rows<K: std::fmt::Display>(per_row: &BTreeMap<K, Vec<f64>>) {
    for (row, latencies) in per_row {
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        println!(
            "row {row}: {} requests, p10 {:.2} p50 {:.2} p90 {:.2} ms",
            sorted.len(),
            quantile(&sorted, 0.1),
            quantile(&sorted, 0.5),
            quantile(&sorted, 0.9),
        );
    }
}

/// One pass over `cases` outside the timed phase; verdicts still checked.
pub fn warm_up(session: &Session, cases: &[Case], all_cached: bool, checker: &mut Checker) {
    for case in cases {
        verify_checked(session, case, all_cached, checker);
    }
}

/// `table1-cold`: one long-lived session, cache and store off.
pub fn table1_cold(ctx: &Ctx, table1: &[Case], checker: &mut Checker) -> EndToEnd {
    let mut run = EndToEnd::default();
    let mut session = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fresh = Session::new(cold_options());
        warm_up(&fresh, table1, false, checker);
        run.setup.push(start.elapsed());
        session = Some(fresh);
    }
    let session = session.expect("at least one set-up");
    timed_loop(&session, table1, ctx, false, &mut run, checker);
    run.peak_rss_mb = peak_rss_mb("self");
    run
}

/// Opens a warm session on `dir` the way a new process would: one cold
/// pass fills the store, then the process-global proof cache and intern
/// table are emptied and a new session preloads the store.
pub fn warm_session(dir: &Path, table1: &[Case], checker: &mut Checker) -> Session {
    let _ = std::fs::remove_dir_all(dir);
    ProofCache::global().reset();
    ipl::logic::intern::clear();
    let options = VerifyOptions::default().with_cache_dir(dir).with_jobs(JOBS);
    {
        let cold = Session::new(options.clone());
        warm_up(&cold, table1, false, checker);
    }
    ProofCache::global().reset();
    ipl::logic::intern::clear();
    let warm = Session::new(options);
    warm_up(&warm, table1, true, checker);
    warm
}

/// `table1-warm`: every request answered from the preloaded store.
pub fn table1_warm(ctx: &Ctx, table1: &[Case], checker: &mut Checker) -> EndToEnd {
    let mut run = EndToEnd::default();
    let mut session = None;
    for k in 0..SETUPS {
        drop(session.take());
        let start = Instant::now();
        let dir = ctx.work.join(format!("warm-store-{k}"));
        session = Some(warm_session(&dir, table1, checker));
        run.setup.push(start.elapsed());
    }
    let session = session.expect("at least one set-up");
    timed_loop(&session, table1, ctx, true, &mut run, checker);
    run.peak_rss_mb = peak_rss_mb("self");
    run
}

/// A spawned `ipl serve` process; killed and reaped when dropped.
pub struct DaemonProcess {
    child: Child,
    socket: PathBuf,
}

impl DaemonProcess {
    /// Spawns the daemon and waits until its socket accepts.
    pub fn spawn(ipl_bin: &Path, dir: &Path) -> Result<DaemonProcess, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("ipl.sock");
        let child = Command::new(ipl_bin)
            .arg("serve")
            .arg("--listen")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(dir.join("store"))
            .arg("--jobs")
            .arg(JOBS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ipl_bin.display()))?;
        let daemon = DaemonProcess { child, socket };
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if Instant::now() > give_up {
                return Err("ipl serve did not accept within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn connect(&self) -> Result<Connection, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { stream, reader })
    }

    /// Asks the daemon to stop and waits for it to exit.
    pub fn shutdown(mut self) {
        if let Ok(mut connection) = self.connect() {
            let _ = connection.call("{\"op\": \"shutdown\"}");
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        while Instant::now() < give_up {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One closed-loop client connection.
pub struct Connection {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Connection {
    /// Sends one frame and waits for its reply.
    pub fn call(&mut self, frame: &str) -> Result<String, String> {
        self.stream
            .write_all(frame.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// What one daemon reply says.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrameFacts {
    pub overloaded: bool,
    pub error: bool,
    pub wall_ms: f64,
}

fn count(frame: &Json, key: &str) -> usize {
    frame.get(key).and_then(Json::as_u128).unwrap_or(0) as usize
}

/// Checks one daemon reply against the case's known answer.
pub fn check_frame(case: &Case, reply: &str, checker: &mut Checker) -> FrameFacts {
    let mut facts = FrameFacts::default();
    checker.attempted += 1;
    let ok = match parse_json(reply) {
        Err(e) => {
            facts.error = true;
            checker.fail_check(format!("unreadable frame: {e}"));
            false
        }
        Ok(frame) if frame.get("ok") != Some(&Json::Bool(true)) => {
            facts.overloaded = frame.get("overloaded") == Some(&Json::Bool(true));
            facts.error = !facts.overloaded;
            false
        }
        Ok(frame) => {
            let cache_hits = count(&frame, "cache_hits");
            facts.wall_ms = frame.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
            let mut ok = checker.record(check_counts(
                case,
                count(&frame, "methods"),
                count(&frame, "methods_verified"),
                count(&frame, "crashed"),
                count(&frame, "skipped"),
            ));
            if case.class == Class::Renamed && cache_hits > 0 {
                checker.fail_check(format!(
                    "{}: a renamed module hit the store {} times on first send",
                    case.row, cache_hits
                ));
                ok = false;
            }
            ok
        }
    };
    if !ok {
        checker.failed += 1;
    }
    facts
}

/// Timed `serve-mixed` requests after which the daemon's peak RSS is read.
/// Every renamed module grows the process-global tables, so a reading at
/// the end of the run would grow with throughput; this one compares the
/// same stream on every run.
pub const RSS_AFTER: usize = 1500;

/// `serve-mixed`: the release `ipl serve` binary on a Unix socket, driven
/// by one closed-loop connection.
pub fn serve_mixed(
    ctx: &Ctx,
    table1: &[Case],
    wrong: &[Case],
    checker: &mut Checker,
) -> Result<EndToEnd, String> {
    let mut run = EndToEnd::default();
    let mut daemon: Option<DaemonProcess> = None;
    for k in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        let spawned = DaemonProcess::spawn(&ctx.ipl_bin, &ctx.work.join(format!("serve-{k}")))?;
        let mut connection = spawned.connect()?;
        for (id, case) in table1.iter().enumerate() {
            let reply = connection.call(&verify_frame(id, case, None))?;
            check_frame(case, &reply, checker);
        }
        run.setup.push(start.elapsed());
        daemon = Some(spawned);
    }
    let daemon = daemon.expect("at least one set-up");
    let pid = daemon.pid();
    let mut connection = daemon.connect()?;
    let mut stream = MixedStream::new(ctx.seed, table1, wrong);
    let mut per_row = BTreeMap::new();
    let mut classes = [0usize; 3];
    let mut peak_rss = None;
    checker.start_timing();
    let start = Instant::now();
    let deadline = start + ctx.seconds;
    run.mark(Duration::ZERO, ctx.seconds, || cpu_time(&pid));
    let mut sent_count = 0;
    while Instant::now() < deadline && checker.unsound.is_none() {
        let case = stream.next_case();
        let frame = verify_frame(1000 + sent_count, &case, None);
        sent_count += 1;
        let sent = Instant::now();
        let reply = connection.call(&frame)?;
        let latency = crate::measure::ms(sent.elapsed());
        if sent_count == RSS_AFTER {
            peak_rss = Some(peak_rss_mb(&pid));
        }
        let now = start.elapsed();
        run.samples.push((now, latency));
        run.mark(now, ctx.seconds, || cpu_time(&pid));
        per_row
            .entry(format!("{:?} {}", case.class, case.row))
            .or_insert_with(Vec::new)
            .push(latency);
        check_frame(&case, &reply, checker);
        classes[case.class as usize] += 1;
    }
    run.peak_rss_mb = peak_rss.unwrap_or_else(|| {
        println!("peak RSS read at the end: fewer than {RSS_AFTER} timed requests");
        peak_rss_mb(&pid)
    });
    daemon.shutdown();
    print_rows(&per_row);
    print_shares(&classes);
    Ok(run)
}

/// Prints the measured share of each request class.
pub fn print_shares(classes: &[usize; 3]) {
    let total = classes.iter().sum::<usize>().max(1) as f64;
    println!(
        "class shares: read={:.3} renamed={:.3} wrong={:.3} of {} requests (target 0.60/0.25/0.15)",
        classes[Class::Table1 as usize] as f64 / total,
        classes[Class::Renamed as usize] as f64 / total,
        classes[Class::Wrong as usize] as f64 / total,
        total
    );
}
