//! # `ipl-bench` — benchmark harness
//!
//! Criterion benchmarks that regenerate the paper's evaluation artefacts:
//!
//! * `benches/table1.rs` — Table 1 (construct counts and verification time);
//! * `benches/table2.rs` — Table 2 (verification without vs with the proof
//!   language constructs);
//! * `benches/ablations.rs` — ablations over the design choices called out in
//!   DESIGN.md: assumption-base control (`from` clauses) and instantiation
//!   budgets;
//! * `benches/provers.rs` — micro-benchmarks of the cascade on one query per
//!   reasoner (ground SMT-lite, quantifier instantiation, and the BAPA and
//!   shape theories, which run inside the ground stage).
//!
//! Each table bench prints the full regenerated table once, then measures a
//! representative verification run so Criterion has a stable quantity to
//! report.

use ipl_core::VerifyOptions;

/// The verification options used by the benchmark harnesses.  The proof
/// cache is disabled: criterion repeats each verification many times, and a
/// cache hit on iteration two would measure replay instead of prover work.
pub fn bench_options() -> VerifyOptions {
    VerifyOptions::default()
        .with_config(ipl_provers::ProverConfig {
            use_cache: false,
            ..ipl_suite::suite_config()
        })
        .with_record_sequents(false)
}

/// Verifies one named benchmark and returns (proved, total) sequent counts.
pub fn verify_counts(name: &str, options: &VerifyOptions) -> (usize, usize) {
    let benchmark = ipl_suite::by_name(name).expect("benchmark exists");
    let report = ipl_core::Session::new(options.clone())
        .verify(&ipl_core::Request::new(benchmark.source))
        .expect("verifies")
        .report;
    (report.proved_sequents(), report.total_sequents())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_disable_sequent_recording() {
        assert!(!bench_options().record_sequents);
    }
}
