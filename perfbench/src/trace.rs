//! The traced run: a replica of the verification pipeline built from the
//! layers' public functions, with a span around every call into a layer,
//! checked against the real entry points on the same module.
//!
//! Every traced request runs the replica first, at jobs = 1 and following
//! the steps of `ipl_core::drive`, and then the reference (`Session::verify`
//! or `Daemon::handle`, also at jobs = 1).  The replica reads the proof
//! cache but never writes it; proofs found earlier in the same request are
//! replayed from a request-local overlay, which is what `drive` gets from
//! its own cache records.  Both runs therefore start from the same cache
//! state, so their per-sequent outcomes and ground counters must agree.

use crate::gen::{permutation, verify_frame, MixedStream};
use crate::measure::{median, ms, Metrics};
use crate::oracle::{check_report, Case, Class, Verdict};
use crate::timed::{
    check_frame, cold_options, print_shares, warm_session, warm_up, Checker, DaemonProcess, JOBS,
};
use crate::Ctx;
use ipl::core::{ModuleReport, Request, Session, VerifyOptions};
use ipl::gcl::split::split_all;
use ipl::gcl::translate::{translate_ext, TranslateCtx};
use ipl::gcl::wlp::vc_of;
use ipl::lang::{lower_module, parse_module};
use ipl::logic::intern;
use ipl::logic::Labeled;
use ipl::provers::cache::{Fingerprint, ProofCache};
use ipl::provers::cache_store::StoreHandle;
use ipl::provers::ground::{stats_snapshot, GroundStats};
use ipl::provers::{Cascade, Outcome, ProverConfig, Query};
use ipl::serve::{Daemon, ServeConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cascade stages, in dispatch order.
const STAGES: [&str; 5] = ["syntactic", "smt-ground", "bapa", "shape", "smt-inst"];

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: usize,
}

/// In-memory span recorder; written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) -> Duration {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in nesting order");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Runs `f` inside a span called `name`.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let result = f();
        self.close(id);
        result
    }

    /// Summed self time (duration minus the time its children cover) per
    /// span name.
    fn self_times(&self) -> HashMap<&'static str, Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end - span.start;
            }
        }
        let mut totals = HashMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            *totals.entry(span.name).or_insert(Duration::ZERO) +=
                (span.end - span.start).saturating_sub(covered);
        }
        totals
    }

    /// Summed duration of the direct children of span `id`.
    fn children_of(&self, id: usize) -> Duration {
        self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes every span as one tab-separated line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                span.request,
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Per-stage cascade tallies.
#[derive(Debug, Default, Clone, PartialEq)]
struct StageTally {
    time: Duration,
    attempts: u64,
    proved: u64,
}

/// The exactly repeatable work of one request.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    ground: [u64; 5],
    attempts: [u64; 5],
    proved: [u64; 5],
    unknown: u64,
}

fn ground_array(g: &GroundStats) -> [u64; 5] {
    [
        g.decisions,
        g.conflicts,
        g.bool_propagations,
        g.theory_propagations,
        g.learned_clauses,
    ]
}

/// What one replica run produced.
struct ReplicaRun {
    root: usize,
    /// `  sequent ...` lines in the format of `ModuleReport::normalized`.
    sequent_lines: Vec<String>,
    /// Per method: (name, total, proved, trivial).
    methods: Vec<(String, usize, usize, usize)>,
    sequents: usize,
    trivial: usize,
    hits: usize,
    appended: usize,
    stages: BTreeMap<String, StageTally>,
    dispatches_on_unknown: u64,
    counts: Counts,
}

/// The pipeline rebuilt from public functions.
struct Replica {
    /// The configuration the reference session runs with (fingerprints
    /// hash it).
    config: ProverConfig,
    prover_names: Vec<&'static str>,
    /// The same stages with the cascade's own cache turned off; the replica
    /// does the fingerprint and lookup steps itself, inside their spans.
    cascade: Cascade,
    store: Option<StoreHandle>,
}

impl Replica {
    fn new(config: ProverConfig) -> Replica {
        let prover_names = Cascade::standard(config).prover_names();
        let cascade = Cascade::standard(ProverConfig {
            use_cache: false,
            ..config
        });
        Replica {
            config,
            prover_names,
            cascade,
            store: None,
        }
    }

    /// Opens the replica's own handle on `dir` and preloads it.
    fn open_store(&mut self, dir: &Path, tracer: &mut Tracer) -> Result<(), String> {
        self.store = None;
        let (config, names) = (self.config, &self.prover_names);
        let handle = tracer.time("provers.store.open", || {
            StoreHandle::open(dir, &config, names).map(|mut handle| {
                handle.ensure_preloaded(ProofCache::global());
                handle
            })
        });
        self.store = Some(handle.map_err(|e| format!("store {}: {e}", dir.display()))?);
        Ok(())
    }

    fn run(&mut self, source: &str, tracer: &mut Tracer) -> Result<ReplicaRun, String> {
        let root = tracer.open("request");
        let ground_before = stats_snapshot();
        let module = tracer
            .time("lang.parse", || parse_module(source))
            .map_err(|e| e.to_string())?;
        let lowered = tracer
            .time("lang.lower", || lower_module(&module))
            .map_err(|e| e.to_string())?;

        // Wave 1: the front-end of every method.
        let mut prepared = Vec::with_capacity(lowered.methods.len());
        for method in &lowered.methods {
            let simple = tracer.time("gcl.translate", || {
                translate_ext(&method.command, &mut TranslateCtx::new())
            });
            let vc = tracer.time("gcl.wlp", || vc_of(&simple));
            let mut sequents = tracer.time("gcl.split", || split_all(&vc));
            tracer.time("logic.intern", || {
                for sequent in &mut sequents {
                    sequent.goal = intern::share(&sequent.goal);
                    for assumption in &mut sequent.assumptions {
                        assumption.form = intern::share(&assumption.form);
                    }
                }
            });
            prepared.push((method, sequents));
        }

        // Wave 2: every non-trivial sequent, in method order.
        let mut run = ReplicaRun {
            root,
            sequent_lines: Vec::new(),
            methods: Vec::new(),
            sequents: 0,
            trivial: 0,
            hits: 0,
            appended: 0,
            stages: BTreeMap::new(),
            dispatches_on_unknown: 0,
            counts: Counts::default(),
        };
        let mut overlay: HashMap<Fingerprint, String> = HashMap::new();
        let mut proved: Vec<(Fingerprint, String)> = Vec::new();
        for (method, sequents) in &prepared {
            let (mut total, mut proved_here, mut trivial) = (0, 0, 0);
            for sequent in sequents {
                total += 1;
                if sequent.is_trivially_valid() {
                    trivial += 1;
                    proved_here += 1;
                    continue;
                }
                let assumptions: Vec<Labeled> = sequent
                    .selected_assumptions()
                    .into_iter()
                    .cloned()
                    .collect();
                let query = Query::new(assumptions, sequent.goal.clone(), method.env.clone());
                let mut fingerprint = None;
                let mut cached = None;
                if self.config.use_cache {
                    let (config, names) = (&self.config, &self.prover_names);
                    let fp = tracer.time("provers.cache.fingerprint", || {
                        ProofCache::fingerprint(&query, config, names)
                    });
                    cached = tracer.time("provers.cache.lookup", || {
                        ProofCache::global()
                            .lookup(fp)
                            .or_else(|| overlay.get(&fp).cloned())
                    });
                    fingerprint = Some(fp);
                }
                let (outcome, prover) = match cached {
                    Some(prover) => {
                        run.hits += 1;
                        // `drive` hands cached proofs to the store too;
                        // `append_new` skips what is already on disk.
                        if let Some(fp) = fingerprint {
                            proved.push((fp, prover.clone()));
                        }
                        (Outcome::Proved, Some(prover))
                    }
                    None => {
                        let cascade = &self.cascade;
                        let answer =
                            tracer.time("provers.cascade", || cascade.prove_under(&query, None));
                        for (stage, time) in &answer.stage_durations {
                            let tally = run.stages.entry(stage.clone()).or_default();
                            tally.time += *time;
                            tally.attempts += 1;
                        }
                        if let (Outcome::Proved, Some(name)) = (&answer.outcome, &answer.prover) {
                            run.stages.entry(name.clone()).or_default().proved += 1;
                            if let Some(fp) = fingerprint {
                                overlay.insert(fp, name.clone());
                                proved.push((fp, name.clone()));
                            }
                        }
                        if answer.outcome == Outcome::Unknown {
                            run.counts.unknown += 1;
                            run.dispatches_on_unknown += answer.stage_durations.len() as u64;
                        }
                        (answer.outcome, answer.prover)
                    }
                };
                if outcome.is_proved() {
                    proved_here += 1;
                }
                run.sequent_lines.push(format!(
                    "  sequent {} [{}] proved={} by={} outcome={}",
                    sequent.name,
                    sequent.goal_label,
                    outcome.is_proved(),
                    prover.as_deref().unwrap_or("-"),
                    outcome.tag()
                ));
            }
            run.sequents += total;
            run.trivial += trivial;
            run.methods
                .push((method.name.clone(), total, proved_here, trivial));
        }
        if let Some(store) = self.store.as_mut().filter(|_| !proved.is_empty()) {
            run.appended = tracer
                .time("provers.store.append", || store.append_new(&proved))
                .map_err(|e| format!("store append: {e}"))?;
        }
        tracer.close(root);
        run.counts.ground = ground_array(&stats_snapshot().since(&ground_before));
        for (i, stage) in STAGES.iter().enumerate() {
            if let Some(tally) = run.stages.get(*stage) {
                run.counts.attempts[i] = tally.attempts;
                run.counts.proved[i] = tally.proved;
            }
        }
        Ok(run)
    }
}

/// Compares the replica with a reference report of the same module.
fn parity(replica: &ReplicaRun, report: &ModuleReport, ground: [u64; 5]) -> Result<(), String> {
    let normalized = report.normalized();
    let reference: Vec<&str> = normalized
        .lines()
        .filter(|line| line.starts_with("  sequent "))
        .collect();
    if reference != replica.sequent_lines {
        let diff = reference
            .iter()
            .zip(&replica.sequent_lines)
            .find(|(a, b)| *a != b)
            .map_or("(different sequent counts)".to_string(), |(a, b)| {
                format!("reference `{}` vs replica `{}`", a.trim(), b.trim())
            });
        return Err(format!("{}: outcomes differ: {diff}", report.module_name));
    }
    let methods: Vec<(String, usize, usize, usize)> = report
        .methods
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                m.total_sequents,
                m.proved_sequents,
                m.trivial_sequents,
            )
        })
        .collect();
    if methods != replica.methods {
        return Err(format!("{}: method totals differ", report.module_name));
    }
    if ground != replica.counts.ground {
        return Err(format!(
            "{}: ground counters differ: reference {ground:?} vs replica {:?}",
            report.module_name, replica.counts.ground
        ));
    }
    Ok(())
}

/// Everything the traced run accumulates.
#[derive(Default)]
struct Layers {
    requests: usize,
    sequents: usize,
    trivial: usize,
    hits: usize,
    appended: usize,
    intern_hits: u64,
    intern_misses: u64,
    stages: BTreeMap<String, StageTally>,
    unknown: u64,
    dispatches_on_unknown: u64,
    ground: [u64; 5],
    reference: Duration,
    overhead: Duration,
    trace_overhead: f64,
    efficiency: Vec<f64>,
    frame_overhead: Vec<f64>,
    overloaded: usize,
    error_frames: usize,
    /// Counts of the first traced request of each Table 1 module.
    first_counts: HashMap<usize, Counts>,
}

impl Layers {
    /// Runs the replica on `case` and folds its figures in.
    fn replica(
        &mut self,
        replica: &mut Replica,
        case: &Case,
        tracer: &mut Tracer,
        checker: &mut Checker,
    ) -> Result<ReplicaRun, String> {
        tracer.request += 1;
        let before = intern::stats();
        let run = replica.run(&case.source, tracer)?;
        let after = intern::stats();
        self.intern_hits += after.hits - before.hits;
        self.intern_misses += after.misses - before.misses;
        self.requests += 1;
        self.sequents += run.sequents;
        self.trivial += run.trivial;
        self.hits += run.hits;
        self.appended += run.appended;
        for (stage, tally) in &run.stages {
            let total = self.stages.entry(stage.clone()).or_default();
            total.time += tally.time;
            total.attempts += tally.attempts;
            total.proved += tally.proved;
        }
        self.unknown += run.counts.unknown;
        self.dispatches_on_unknown += run.dispatches_on_unknown;
        for (total, n) in self.ground.iter_mut().zip(run.counts.ground) {
            *total += n;
        }
        // The replica's own verdicts answer to the oracle too.
        let verified: Vec<(String, bool)> = run
            .methods
            .iter()
            .map(|(name, total, proved, _)| (name.clone(), total == proved))
            .collect();
        for ((name, ok), (got_name, got)) in case.expected.iter().zip(&verified) {
            if name != got_name {
                checker.fail_check(format!(
                    "{}: replica method {got_name} is not {name}",
                    case.row
                ));
            } else if *got && !ok {
                checker.record(Verdict::Unsound(format!(
                    "{} ({}): replica proved method {got_name} known to be wrong: it {}",
                    case.row,
                    case.class.name(),
                    case.reason
                )));
            }
        }
        if case.class == Class::Renamed && run.hits > 0 {
            checker.fail_check(format!(
                "{}: a renamed module hit the store {} times on first send",
                case.row, run.hits
            ));
        }
        Ok(run)
    }

    /// Folds in the reference run of the same request.
    fn reference(
        &mut self,
        run: &ReplicaRun,
        tracer: &Tracer,
        reference: Duration,
        report: &ModuleReport,
        ground: [u64; 5],
        checker: &mut Checker,
    ) {
        let root = &tracer.spans[run.root];
        let traced = root.end - root.start;
        let layers = tracer.children_of(run.root);
        self.reference += reference;
        self.overhead += reference.saturating_sub(layers);
        self.trace_overhead += ms(traced) - ms(reference);
        if let Err(why) = parity(run, report, ground) {
            checker.fail_check(format!("replica parity: {why}"));
        }
    }

    /// Checks that a Table 1 module repeats its first traced counts.
    fn repeat(&mut self, module: usize, counts: &Counts, checker: &mut Checker) {
        let first = self
            .first_counts
            .entry(module)
            .or_insert_with(|| counts.clone());
        if first != counts {
            checker.fail_check(format!(
                "exact counts: module {module} changed between passes: {first:?} vs {counts:?}"
            ));
        }
    }

    /// Prints a digest of every module's exact counts, so two traced runs
    /// can be compared by one line.
    fn print_count_digest(&self) {
        let mut modules: Vec<_> = self.first_counts.iter().collect();
        modules.sort_by_key(|(module, _)| **module);
        let text = format!("{modules:?}");
        println!(
            "exact counts: {} modules, digest {:016x}",
            modules.len(),
            crate::gen::fnv1a(crate::gen::FNV_OFFSET, text.as_bytes())
        );
    }

    /// Every per-layer metric, in the order of `BENCHMARK.json`.
    fn metrics(&self, tracer: &Tracer, store_entries: usize) -> Metrics {
        let per = |x: f64| x / self.requests.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let self_times = tracer.self_times();
        let span_ms = |name: &str| per(self_times.get(name).map_or(0.0, |d| ms(*d)));
        let nontrivial = (self.sequents - self.trivial) as f64;
        let mut m = Metrics::default();
        m.push("lang.parse.ms", span_ms("lang.parse"), "ms");
        m.push("lang.lower.ms", span_ms("lang.lower"), "ms");
        m.push("gcl.translate.ms", span_ms("gcl.translate"), "ms");
        m.push("gcl.wlp.ms", span_ms("gcl.wlp"), "ms");
        m.push("gcl.split.ms", span_ms("gcl.split"), "ms");
        m.push(
            "gcl.split.sequents",
            per(self.sequents as f64),
            "count/request",
        );
        m.push(
            "gcl.split.trivial",
            per(self.trivial as f64),
            "count/request",
        );
        m.push("logic.intern.ms", span_ms("logic.intern"), "ms");
        m.push(
            "logic.intern.entries",
            intern::stats().entries as f64,
            "count",
        );
        m.push(
            "logic.intern.hit_ratio",
            ratio(
                self.intern_hits as f64,
                (self.intern_hits + self.intern_misses) as f64,
            ),
            "ratio",
        );
        m.push(
            "provers.cache.fingerprint.ms",
            span_ms("provers.cache.fingerprint"),
            "ms",
        );
        m.push(
            "provers.cache.lookup.ms",
            span_ms("provers.cache.lookup"),
            "ms",
        );
        m.push("provers.cache.hits", per(self.hits as f64), "count/request");
        m.push(
            "provers.cache.hit_ratio",
            ratio(self.hits as f64, nontrivial),
            "ratio",
        );
        for stage in STAGES {
            let tally = self.stages.get(stage).cloned().unwrap_or_default();
            m.push(
                format!("provers.cascade.{stage}.ms"),
                per(ms(tally.time)),
                "ms",
            );
            m.push(
                format!("provers.cascade.{stage}.attempts"),
                per(tally.attempts as f64),
                "count/request",
            );
            m.push(
                format!("provers.cascade.{stage}.proved"),
                per(tally.proved as f64),
                "count/request",
            );
            m.push(
                format!("provers.cascade.{stage}.yield"),
                ratio(tally.proved as f64, tally.attempts as f64),
                "ratio",
            );
        }
        m.push(
            "provers.cascade.unknown",
            per(self.unknown as f64),
            "count/request",
        );
        m.push(
            "provers.cascade.dispatches_per_unknown",
            ratio(self.dispatches_on_unknown as f64, self.unknown as f64),
            "count",
        );
        let ground_names = [
            "decisions",
            "conflicts",
            "bool_propagations",
            "theory_propagations",
            "learned_clauses",
        ];
        for (name, total) in ground_names.iter().zip(self.ground) {
            m.push(
                format!("provers.ground.{name}"),
                per(total as f64),
                "count/request",
            );
        }
        let opens = tracer
            .spans
            .iter()
            .filter(|s| s.name == "provers.store.open")
            .count();
        let open_ms = self_times.get("provers.store.open").map_or(0.0, |d| ms(*d));
        m.push("provers.store.open.ms", open_ms / opens.max(1) as f64, "ms");
        m.push(
            "provers.store.append.ms",
            span_ms("provers.store.append"),
            "ms",
        );
        m.push(
            "provers.store.appended",
            per(self.appended as f64),
            "count/request",
        );
        m.push("provers.store.entries", store_entries as f64, "count");
        m.push("core.session.verify.ms", per(ms(self.reference)), "ms");
        m.push("core.overhead.ms", per(ms(self.overhead)), "ms");
        m.push(
            "core.parallel_efficiency",
            if self.efficiency.is_empty() {
                0.0
            } else {
                median(&self.efficiency)
            },
            "ratio",
        );
        m.push(
            "serve.frame_overhead.ms",
            if self.frame_overhead.is_empty() {
                0.0
            } else {
                median(&self.frame_overhead)
            },
            "ms",
        );
        m.push("serve.overloaded", self.overloaded as f64, "count");
        m.push("serve.error_frames", self.error_frames as f64, "count");
        m.push("trace.overhead.ms", per(self.trace_overhead), "ms");
        m
    }
}

/// Summed prover time over workers and wall: 1 when every worker proves
/// sequents for the whole request.
fn efficiency(report: &ModuleReport, wall: Duration) -> f64 {
    let busy: Duration = report
        .methods
        .iter()
        .flat_map(|m| &m.sequents)
        .map(|s| s.duration)
        .sum();
    busy.as_secs_f64() / (report.jobs.max(1) as f64 * wall.as_secs_f64().max(1e-9))
}

/// Traces a Table 1 workload against `session` in whole passes.
fn trace_table1(
    ctx: &Ctx,
    table1: &[Case],
    session: &Session,
    replica: &mut Replica,
    store_dir: Option<&Path>,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let default_jobs = VerifyOptions::default().jobs;
    let order = permutation(ctx.seed, table1.len());
    checker.start_timing();
    let deadline = Instant::now() + ctx.seconds;
    while Instant::now() < deadline || layers.requests == 0 {
        if let Some(dir) = store_dir {
            replica.open_store(dir, tracer)?;
        }
        for &index in &order {
            let case = &table1[index];
            let run = layers.replica(replica, case, tracer, checker)?;
            let ground_before = stats_snapshot();
            let request = Request::new(case.source.clone()).with_jobs(1);
            let start = Instant::now();
            let response = session.verify(&request).map_err(|e| e.to_string())?;
            let reference = start.elapsed();
            let ground = ground_array(&stats_snapshot().since(&ground_before));
            checker.attempted += 1;
            if !checker.record(check_report(case, &response.report)) {
                checker.failed += 1;
            }
            layers.reference(&run, tracer, reference, &response.report, ground, checker);
            layers.repeat(index, &run.counts, checker);

            // The same request at the default worker count, for the
            // parallel efficiency; its outcomes must not change.
            let start = Instant::now();
            let parallel = session
                .verify(&Request::new(case.source.clone()).with_jobs(default_jobs))
                .map_err(|e| e.to_string())?;
            layers
                .efficiency
                .push(efficiency(&parallel.report, start.elapsed()));
            if parallel.report.normalized() != response.report.normalized() {
                checker.fail_check(format!(
                    "{}: jobs = 1 and the default worker count differ",
                    case.row
                ));
            }
            if checker.unsound.is_some() {
                return Ok(layers);
            }
        }
    }
    layers.print_count_digest();
    Ok(layers)
}

fn trace_path(ctx: &Ctx) -> PathBuf {
    ctx.work.join(format!("trace-{}.tsv", ctx.workload))
}

/// The traced run of `table1-cold`.
pub fn table1_cold(ctx: &Ctx, table1: &[Case], checker: &mut Checker) -> Result<Metrics, String> {
    let mut tracer = Tracer::new();
    let options = cold_options();
    let session = Session::new(options.clone());
    warm_up(&session, table1, false, checker);
    let mut replica = Replica::new(options.config);
    let layers = trace_table1(
        ctx,
        table1,
        &session,
        &mut replica,
        None,
        &mut tracer,
        checker,
    )?;
    tracer.write(&trace_path(ctx)).map_err(|e| e.to_string())?;
    Ok(layers.metrics(&tracer, 0))
}

/// The traced run of `table1-warm`.
pub fn table1_warm(ctx: &Ctx, table1: &[Case], checker: &mut Checker) -> Result<Metrics, String> {
    let mut tracer = Tracer::new();
    let dir = ctx.work.join("warm-store");
    let session = warm_session(&dir, table1, checker);
    let mut replica = Replica::new(VerifyOptions::default().config);
    let layers = trace_table1(
        ctx,
        table1,
        &session,
        &mut replica,
        Some(&dir),
        &mut tracer,
        checker,
    )?;
    let entries = replica.store.as_ref().map_or(0, |s| s.store().len());
    tracer.write(&trace_path(ctx)).map_err(|e| e.to_string())?;
    Ok(layers.metrics(&tracer, entries))
}

/// The traced run of `serve-mixed`: the daemon in process, one request at
/// a time at jobs = 1, and each request once more over a socket to the
/// release daemon.
pub fn serve_mixed(
    ctx: &Ctx,
    table1: &[Case],
    wrong: &[Case],
    checker: &mut Checker,
) -> Result<Metrics, String> {
    let mut tracer = Tracer::new();
    let dir = ctx.work.join("serve-trace");
    let _ = std::fs::remove_dir_all(&dir);
    let options = VerifyOptions::default()
        .with_cache_dir(dir.join("store"))
        .with_jobs(JOBS);
    let daemon = Daemon::new(
        Arc::new(Session::new(options.clone())),
        ServeConfig::default(),
    );
    // The release daemon on a socket sees the same stream, for the frame
    // overhead a client pays on top of the verification itself.
    let process = DaemonProcess::spawn(&ctx.ipl_bin, &dir.join("socket"))?;
    let mut connection = process.connect()?;
    for (id, case) in table1.iter().enumerate() {
        let frame = verify_frame(id, case, None);
        check_frame(case, &daemon.handle(&frame).frame, checker);
        check_frame(case, &connection.call(&frame)?, checker);
    }
    checker.start_timing();

    let mut replica = Replica::new(options.config);
    replica.open_store(&dir.join("replica-store"), &mut tracer)?;
    let mut layers = Layers::default();
    let mut stream = MixedStream::new(ctx.seed, table1, wrong);
    let mut classes = [0usize; 3];
    let deadline = Instant::now() + ctx.seconds;
    let mut id = 1000;
    while Instant::now() < deadline && checker.unsound.is_none() {
        id += 1;
        let case = stream.next_case();
        classes[case.class as usize] += 1;
        let run = layers.replica(&mut replica, &case, &mut tracer, checker)?;
        let frame = verify_frame(id, &case, Some(1));
        let ground_before = stats_snapshot();
        let handle = tracer.open("serve.daemon.handle");
        let served = daemon.handle(&frame);
        let took = tracer.close(handle);
        let ground = ground_array(&stats_snapshot().since(&ground_before));
        let facts = check_frame(&case, &served.frame, checker);
        layers.overloaded += usize::from(facts.overloaded);
        layers.error_frames += usize::from(facts.error);
        let sent = Instant::now();
        let reply = connection.call(&verify_frame(id, &case, None))?;
        let round_trip = sent.elapsed();
        let facts = check_frame(&case, &reply, checker);
        layers.overloaded += usize::from(facts.overloaded);
        layers.error_frames += usize::from(facts.error);
        layers.frame_overhead.push(ms(round_trip) - facts.wall_ms);
        let module = parse_module(&case.source).map_err(|e| e.to_string())?.name;
        match daemon.session().recall(&module) {
            Some(report) => {
                layers.efficiency.push(efficiency(&report, took));
                layers.reference(&run, &tracer, took, &report, ground, checker);
            }
            None => checker.fail_check(format!("{}: the daemon kept no report", case.row)),
        }
    }
    process.shutdown();
    print_shares(&classes);
    let entries = replica.store.as_ref().map_or(0, |s| s.store().len());
    tracer.write(&trace_path(ctx)).map_err(|e| e.to_string())?;
    Ok(layers.metrics(&tracer, entries))
}
