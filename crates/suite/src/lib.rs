//! # `ipl-suite` — the benchmark suite and the paper's tables
//!
//! This crate contains the eight linked data structures of the paper's
//! evaluation ([`benchmarks`]) written in the annotated surface language, and
//! the harnesses that regenerate the two tables of Section 6:
//!
//! * [`table1`] — Table 1: per-structure method/statement/specification and
//!   proof-construct counts together with verification time;
//! * [`table2`] — Table 2: methods and sequents verified *without* the
//!   integrated proof language constructs versus *with* them;
//! * [`throughput`] — cold/warm re-verification curves for the persistent
//!   proof store, and the `BENCH_throughput.json` document CI gates;
//! * [`baseline`] — the CI benchmark-regression gates for both documents.

pub mod baseline;
pub mod benchmarks;
pub mod table1;
pub mod table2;
pub mod throughput;

pub use benchmarks::{all, by_name, Benchmark};
use ipl_provers::ProverConfig;

/// The prover configuration used by the table harnesses: identical to the
/// default cascade but with a tighter per-prover timeout so that the full
/// suite completes quickly even when sequents fail (which is the expected
/// outcome for the "without proof constructs" configuration).
pub fn suite_config() -> ProverConfig {
    ProverConfig {
        per_prover_timeout_ms: 800,
        ..ProverConfig::default()
    }
}

/// Verifies one benchmark and returns its report.
pub fn verify_benchmark(
    benchmark: &Benchmark,
    options: &ipl_core::VerifyOptions,
) -> Result<ipl_core::ModuleReport, String> {
    ipl_core::Session::new(options.clone())
        .verify(&ipl_core::Request::new(benchmark.source))
        .map(|response| response.report)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linked_list_verifies_almost_completely() {
        let benchmark = by_name("Linked List").unwrap();
        let options = ipl_core::VerifyOptions::default().with_config(suite_config());
        let report = verify_benchmark(&benchmark, &options).unwrap();
        // The bounded provers discharge the vast majority of the obligations;
        // the residual unproved sequents are listed in EXPERIMENTS.md.
        assert!(
            report.proved_sequents() * 100 >= report.total_sequents() * 85,
            "linked list should verify at least 85% of its sequents:\n{}",
            report.render()
        );
        let add_first = report
            .methods
            .iter()
            .find(|m| m.name == "addFirst")
            .unwrap();
        assert!(
            add_first.fully_proved(),
            "addFirst verifies completely:\n{}",
            report.render()
        );
        let is_empty = report.methods.iter().find(|m| m.name == "isEmpty").unwrap();
        assert!(
            is_empty.fully_proved(),
            "isEmpty verifies completely:\n{}",
            report.render()
        );
    }

    #[test]
    fn every_cascade_stage_proves_a_table1_sequent() {
        // A stage that proves nothing on Table 1 only adds a dispatch to
        // every Unknown.  The timeout is raised so the count does not depend
        // on the machine, and the cache is off so every sequent is proved by
        // a stage rather than replayed.
        let options = ipl_core::VerifyOptions::default()
            .with_config(ProverConfig {
                use_cache: false,
                per_prover_timeout_ms: 600_000,
                ..suite_config()
            })
            .with_record_sequents(false)
            .with_jobs(1);
        let mut proved_by = std::collections::BTreeMap::new();
        for benchmark in all() {
            let report = verify_benchmark(&benchmark, &options).unwrap();
            for (prover, count) in report.prover_counts() {
                *proved_by.entry(prover).or_insert(0) += count;
            }
        }
        for stage in ipl_provers::Cascade::standard(suite_config()).prover_names() {
            assert!(
                proved_by.get(stage).copied().unwrap_or(0) > 0,
                "stage {stage} proves no Table 1 sequent: {proved_by:?}"
            );
        }
    }

    #[test]
    fn association_list_fully_verifies_with_ematching() {
        // Regression pin for the trigger-driven E-matching engine: before it
        // landed the suite verified only 2 of 5 Association List methods
        // (`put` among the failures, defeated by the blind sort-pool
        // cross-product).  All five must now prove with the default config.
        let benchmark = by_name("Association List").unwrap();
        let options = ipl_core::VerifyOptions::default().with_config(suite_config());
        let report = verify_benchmark(&benchmark, &options).unwrap();
        assert!(
            report.fully_proved(),
            "association list should fully verify:\n{}",
            report.render()
        );
    }

    #[test]
    fn priority_queue_findmax_verifies_with_ematching() {
        // Regression pin: Priority Queue verified 0 of 6 methods before the
        // incremental congruence closure + E-matching rework.
        let benchmark = by_name("Priority Queue").unwrap();
        let options = ipl_core::VerifyOptions::default().with_config(suite_config());
        let report = verify_benchmark(&benchmark, &options).unwrap();
        for method in ["findMax", "sizeOf", "clear"] {
            let m = report.methods.iter().find(|m| m.name == method).unwrap();
            assert!(
                m.fully_proved(),
                "{method} should fully verify:\n{}",
                report.render()
            );
        }
    }

    #[test]
    fn priority_queue_induction_needs_the_induct_construct() {
        let benchmark = by_name("Priority Queue").unwrap();
        let options = ipl_core::VerifyOptions::default().with_config(suite_config());
        let module = ipl_lang::parse_module(benchmark.source).unwrap();
        let lowered = ipl_lang::lower_module(&module).unwrap();
        let check_level = lowered
            .methods
            .iter()
            .find(|m| m.name == "checkLevel")
            .unwrap();
        let cascade = ipl_provers::Cascade::standard(options.config);
        let proved_post = |report: &ipl_core::MethodReport| {
            report
                .sequents
                .iter()
                .filter(|s| s.goal_label == "Postcondition")
                .all(|s| s.proved)
        };
        let with = ipl_core::verify_method(check_level, &cascade, &options);
        assert!(
            proved_post(&with),
            "with induct the levelOk(k) postcondition is proved: {with:?}"
        );
        let without = ipl_core::verify_method(
            check_level,
            &cascade,
            &ipl_core::VerifyOptions::without_proof_constructs().with_config(suite_config()),
        );
        assert!(
            !proved_post(&without),
            "without induct the postcondition requires mathematical induction and must fail"
        );
    }
}
