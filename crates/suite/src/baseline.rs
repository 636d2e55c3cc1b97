//! The CI benchmark-regression gate.
//!
//! `BENCH_table1.json` used to be a passive artifact: CI regenerated it on
//! every push, but nothing compared the fresh run against the committed
//! numbers, so a capability or performance regression could land silently.
//! This module turns the artifact into a gate: [`check_baseline`] compares a
//! fresh set of [`Table1Row`]s against the committed baseline document and
//! reports every violation — a benchmark verifying *fewer methods* than the
//! baseline, a benchmark disappearing entirely, or total wall-clock
//! regressing beyond the allowed factor.
//!
//! The vendored `serde` is a no-op stub, so the document is read back with a
//! small recursive-descent JSON parser ([`parse_json`]) — enough of RFC 8259
//! for the documents we write ourselves (and strict about what it accepts).

use crate::table1::Table1Row;
use std::collections::BTreeMap;

/// Wall-clock regression tolerance: a run fails the gate when it is more
/// than 25% slower than the committed baseline.
pub const WALL_CLOCK_TOLERANCE: f64 = 1.25;

/// Absolute slack added on top of the relative tolerance.  The committed
/// baseline is measured on whatever machine last regenerated it, and for a
/// sub-second suite, cross-machine differences and runner contention dwarf
/// 25% — so the gate only trips once the regression also exceeds this many
/// milliseconds.  As the suite grows slower the relative bound takes over.
pub const WALL_CLOCK_SLACK_MS: u128 = 5_000;

/// A minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (held as f64; our documents only contain integers).
    Number(f64),
    /// A string (no escape sequences beyond `\"`, `\\`, `\/`, `\n`, `\t`).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, insertion order not preserved.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer value, if this is an integral number.
    pub fn as_u128(&self) -> Option<u128> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u128)
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or when
/// trailing non-whitespace follows the document.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|e| format!("invalid number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    other => return Err(format!("unsupported escape {other:?} at byte {}", *pos)),
                };
                out.push(escaped);
                *pos += 1;
            }
            Some(&byte) => {
                // Multi-byte UTF-8 sequences pass through unmodified.
                let len = match byte {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .ok_or_else(|| format!("truncated UTF-8 at byte {}", *pos))?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// The per-benchmark facts the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineBenchmark {
    /// Benchmark name.
    pub name: String,
    /// Methods fully verified in the committed run.
    pub methods_verified: usize,
}

/// The committed baseline document, reduced to what the gate needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Total wall-clock of the committed run, milliseconds.
    pub total_wall_ms: u128,
    /// Per-benchmark baselines.
    pub benchmarks: Vec<BaselineBenchmark>,
}

/// Parses a committed `BENCH_table1.json` document.
///
/// # Errors
///
/// Returns a description of the first structural problem (bad JSON, missing
/// field, wrong type).
pub fn parse_baseline(input: &str) -> Result<Baseline, String> {
    let doc = parse_json(input)?;
    let total_wall_ms = doc
        .get("total_wall_ms")
        .and_then(Json::as_u128)
        .ok_or("missing or non-integral total_wall_ms")?;
    let mut benchmarks = Vec::new();
    for entry in doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("missing benchmarks array")?
    {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("benchmark entry without name")?
            .to_string();
        let methods_verified = entry
            .get("methods_verified")
            .and_then(Json::as_u128)
            .ok_or_else(|| format!("benchmark {name} without methods_verified"))?
            as usize;
        benchmarks.push(BaselineBenchmark {
            name,
            methods_verified,
        });
    }
    Ok(Baseline {
        total_wall_ms,
        benchmarks,
    })
}

/// Compares a fresh run against the committed baseline.  Returns the list of
/// violations (empty when the gate passes): any benchmark verifying fewer
/// methods than the baseline, any baseline benchmark missing from the run,
/// and total wall-clock beyond [`WALL_CLOCK_TOLERANCE`] times the baseline.
pub fn check_baseline(rows: &[Table1Row], total_wall_ms: u128, baseline: &Baseline) -> Vec<String> {
    let mut violations = Vec::new();
    for expected in &baseline.benchmarks {
        match rows.iter().find(|r| r.name == expected.name) {
            None => violations.push(format!(
                "benchmark \"{}\" is in the baseline but missing from this run",
                expected.name
            )),
            Some(row) if row.methods_verified < expected.methods_verified => {
                violations.push(format!(
                    "benchmark \"{}\" verifies {} methods, baseline verifies {}",
                    row.name, row.methods_verified, expected.methods_verified
                ))
            }
            Some(_) => {}
        }
    }
    let relative = (baseline.total_wall_ms as f64 * WALL_CLOCK_TOLERANCE).ceil() as u128;
    let allowed = relative.max(baseline.total_wall_ms + WALL_CLOCK_SLACK_MS);
    if total_wall_ms > allowed {
        violations.push(format!(
            "total wall-clock {total_wall_ms} ms exceeds {allowed} ms \
             (max of {:.0}% of the {} ms baseline and baseline + {} ms slack)",
            WALL_CLOCK_TOLERANCE * 100.0,
            baseline.total_wall_ms,
            WALL_CLOCK_SLACK_MS
        ));
    }
    violations
}

/// The throughput phases the regression gate compares (the cold and warm
/// single-thread curves, plus the daemon's warm pass and its post-compaction
/// pass — all single-threaded; the jN and edit phases are reported but not
/// gated — their wall-clock depends on the runner's core count).
pub const GATED_THROUGHPUT_PHASES: [&str; 4] =
    ["cold-j1", "warm-j1", "serve-warm", "serve-compacted"];

/// The committed `BENCH_throughput.json` baseline, reduced to what the gate
/// needs: wall-clock per phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputBaseline {
    /// Total wall-clock of the committed run, milliseconds.
    pub total_wall_ms: u128,
    /// Per-phase wall-clock, milliseconds (phase name -> wall_ms).
    pub phase_wall_ms: BTreeMap<String, u128>,
}

/// Parses a committed `BENCH_throughput.json` document (the same layout as
/// `BENCH_table1.json`, with one entry per phase and a `wall_ms` field).
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn parse_throughput_baseline(input: &str) -> Result<ThroughputBaseline, String> {
    let doc = parse_json(input)?;
    let total_wall_ms = doc
        .get("total_wall_ms")
        .and_then(Json::as_u128)
        .ok_or("missing or non-integral total_wall_ms")?;
    let mut phase_wall_ms = BTreeMap::new();
    for entry in doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("missing benchmarks array")?
    {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("phase entry without name")?
            .to_string();
        let wall_ms = entry
            .get("wall_ms")
            .and_then(Json::as_u128)
            .ok_or_else(|| format!("phase {name} without wall_ms"))?;
        phase_wall_ms.insert(name, wall_ms);
    }
    Ok(ThroughputBaseline {
        total_wall_ms,
        phase_wall_ms,
    })
}

/// Gates a fresh throughput run against the committed baseline: each phase in
/// [`GATED_THROUGHPUT_PHASES`] fails when its wall-clock exceeds the same
/// tolerance the Table 1 gate uses ([`WALL_CLOCK_TOLERANCE`] relative,
/// [`WALL_CLOCK_SLACK_MS`] absolute — whichever allows more), or when the
/// phase is missing from the fresh run entirely.  Phases absent from the
/// baseline (a newly added curve) pass by construction.
pub fn check_throughput_baseline(
    phases: &[(String, u128)],
    baseline: &ThroughputBaseline,
) -> Vec<String> {
    let mut violations = Vec::new();
    for gated in GATED_THROUGHPUT_PHASES {
        let Some(expected) = baseline.phase_wall_ms.get(gated) else {
            continue;
        };
        let Some((_, fresh)) = phases.iter().find(|(name, _)| name == gated) else {
            violations.push(format!(
                "phase \"{gated}\" is in the baseline but missing from this run"
            ));
            continue;
        };
        let relative = (*expected as f64 * WALL_CLOCK_TOLERANCE).ceil() as u128;
        let allowed = relative.max(expected + WALL_CLOCK_SLACK_MS);
        if *fresh > allowed {
            violations.push(format!(
                "phase \"{gated}\" wall-clock {fresh} ms exceeds {allowed} ms \
                 (max of {:.0}% of the {expected} ms baseline and baseline + {} ms slack)",
                WALL_CLOCK_TOLERANCE * 100.0,
                WALL_CLOCK_SLACK_MS
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_gcl::cmd::ConstructCounts;
    use std::time::Duration;

    fn row(name: &str, methods_verified: usize) -> Table1Row {
        Table1Row {
            name: name.to_string(),
            methods: 6,
            statements: 10,
            time: Duration::from_millis(5),
            specvars: 1,
            invariants: 1,
            counts: ConstructCounts::default(),
            methods_verified,
            sequents_total: 20,
            sequents_proved: 20,
            sequents_crashed: 0,
            sequents_skipped: 0,
            prover_counts: Default::default(),
            stage_ms: Default::default(),
            cache_hits: 0,
            ground_stats: [
                ("decisions".to_string(), 12u64),
                ("bool_propagations".to_string(), 12u64),
                ("theory_propagations".to_string(), 3u64),
            ]
            .into_iter()
            .collect(),
        }
    }

    fn baseline() -> Baseline {
        Baseline {
            total_wall_ms: 1000,
            benchmarks: vec![
                BaselineBenchmark {
                    name: "Linked List".into(),
                    methods_verified: 6,
                },
                BaselineBenchmark {
                    name: "Hash Table".into(),
                    methods_verified: 5,
                },
            ],
        }
    }

    #[test]
    fn parser_round_trips_the_bench_document() {
        let json = crate::table1::to_bench_json(
            &[row("Linked List", 6), row("Hash Table", 5)],
            &crate::table1::BenchMeta {
                total_wall_ms: 900,
                baseline_total_wall_ms: Some(3506),
                jobs: 8,
                cache_hits: 123,
                sequential_wall_ms: Some(1800),
            },
        );
        // The gate only consumes total_wall_ms and the per-benchmark method
        // counts; the scheduler/cache telemetry fields added alongside them
        // must parse cleanly and be ignored.
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed.total_wall_ms, 900);
        assert_eq!(parsed.benchmarks.len(), 2);
        assert_eq!(parsed.benchmarks[0].name, "Linked List");
        assert_eq!(parsed.benchmarks[0].methods_verified, 6);
    }

    #[test]
    fn json_parser_handles_the_basics() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-3.5").unwrap(), Json::Number(-3.5));
        assert_eq!(
            parse_json("\"a\\nb\"").unwrap(),
            Json::String("a\nb".into())
        );
        let doc = parse_json("{\"xs\": [1, 2], \"s\": \"hi\"}").unwrap();
        assert_eq!(doc.get("xs").and_then(Json::as_array).unwrap().len(), 2);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert!(parse_json("{\"x\": }").is_err());
        assert!(parse_json("[1, 2] trailing").is_err());
    }

    #[test]
    fn gate_passes_when_nothing_regressed() {
        let rows = vec![row("Linked List", 6), row("Hash Table", 6)];
        assert!(check_baseline(&rows, 1100, &baseline()).is_empty());
    }

    #[test]
    fn gate_trips_on_fewer_methods_verified() {
        let rows = vec![row("Linked List", 5), row("Hash Table", 5)];
        let violations = check_baseline(&rows, 900, &baseline());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("Linked List"), "{violations:?}");
    }

    #[test]
    fn gate_trips_on_missing_benchmark() {
        let rows = vec![row("Linked List", 6)];
        let violations = check_baseline(&rows, 900, &baseline());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"), "{violations:?}");
    }

    #[test]
    fn gate_trips_on_wall_clock_regression() {
        let rows = vec![row("Linked List", 6), row("Hash Table", 5)];
        // Within the absolute slack: machine variance, not a regression.
        assert!(check_baseline(&rows, 1000 + WALL_CLOCK_SLACK_MS, &baseline()).is_empty());
        let violations = check_baseline(&rows, 1001 + WALL_CLOCK_SLACK_MS, &baseline());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("wall-clock"), "{violations:?}");
    }

    fn throughput_baseline() -> ThroughputBaseline {
        ThroughputBaseline {
            total_wall_ms: 400,
            phase_wall_ms: [
                ("cold-j1".to_string(), 150u128),
                ("warm-j1".to_string(), 30u128),
                ("edit-one-method".to_string(), 40u128),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn throughput_parser_round_trips_the_bench_document() {
        let phases = vec![
            crate::throughput::PhaseResult {
                name: "cold-j1".to_string(),
                jobs: 1,
                modules: 8,
                methods: 46,
                methods_verified: 46,
                sequents_total: 700,
                sequents_proved: 690,
                sequents_trivial: 80,
                cache_hits: 0,
                wall_ms: 150,
            },
            crate::throughput::PhaseResult {
                name: "warm-j1".to_string(),
                jobs: 1,
                modules: 8,
                methods: 46,
                methods_verified: 46,
                sequents_total: 700,
                sequents_proved: 690,
                sequents_trivial: 80,
                cache_hits: 610,
                wall_ms: 30,
            },
        ];
        let json = crate::throughput::to_bench_json(&phases, 400, 4);
        let parsed = parse_throughput_baseline(&json).unwrap();
        assert_eq!(parsed.total_wall_ms, 400);
        assert_eq!(parsed.phase_wall_ms.get("cold-j1"), Some(&150));
        assert_eq!(parsed.phase_wall_ms.get("warm-j1"), Some(&30));
        // And the generic table1 parser reads the same document (shared CI
        // machinery).
        let generic = parse_baseline(&json).unwrap();
        assert_eq!(generic.total_wall_ms, 400);
        assert_eq!(generic.benchmarks[1].name, "warm-j1");
    }

    #[test]
    fn throughput_gate_passes_within_tolerance() {
        let fresh = vec![
            ("cold-j1".to_string(), 150 + WALL_CLOCK_SLACK_MS),
            ("warm-j1".to_string(), 30u128),
            ("cold-j4".to_string(), 999_999u128),
        ];
        assert!(check_throughput_baseline(&fresh, &throughput_baseline()).is_empty());
    }

    #[test]
    fn throughput_gate_trips_on_cold_or_warm_regression() {
        let cold_slow = vec![
            ("cold-j1".to_string(), 151 + WALL_CLOCK_SLACK_MS),
            ("warm-j1".to_string(), 30u128),
        ];
        let violations = check_throughput_baseline(&cold_slow, &throughput_baseline());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("cold-j1"), "{violations:?}");

        let warm_slow = vec![
            ("cold-j1".to_string(), 150u128),
            ("warm-j1".to_string(), 31 + WALL_CLOCK_SLACK_MS),
        ];
        let violations = check_throughput_baseline(&warm_slow, &throughput_baseline());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("warm-j1"), "{violations:?}");
    }

    #[test]
    fn throughput_gate_trips_on_missing_phase() {
        let fresh = vec![("cold-j1".to_string(), 150u128)];
        let violations = check_throughput_baseline(&fresh, &throughput_baseline());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"), "{violations:?}");
        // A baseline without the gated phases (first run ever) gates nothing.
        let empty = ThroughputBaseline {
            total_wall_ms: 0,
            phase_wall_ms: BTreeMap::new(),
        };
        assert!(check_throughput_baseline(&fresh, &empty).is_empty());
    }

    #[test]
    fn relative_tolerance_governs_slow_baselines() {
        // Once the baseline dwarfs the slack, the 25% bound is the binding
        // constraint.
        let slow = Baseline {
            total_wall_ms: 60_000,
            benchmarks: Vec::new(),
        };
        assert!(check_baseline(&[], 75_000, &slow).is_empty());
        let violations = check_baseline(&[], 75_001, &slow);
        assert_eq!(violations.len(), 1);
    }
}
