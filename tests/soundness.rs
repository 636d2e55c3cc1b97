//! Discharges the Section 5 / Appendix A soundness obligations of the proof
//! language with the in-tree provers: for every construct `p`,
//! `wlp(⟦p⟧, H) → H` over an uninterpreted postcondition `H`.
//!
//! The `induct` construct is justified by mathematical induction (valid in
//! the standard model of the integers but not first-order derivable); for it
//! the test checks the structural properties of the translation instead,
//! exactly as the paper's Figure 11 argues.

use ipl::gcl::soundness::{catalog, POST_VAR};
use ipl::gcl::translate::{translate_proof, TranslateCtx};
use ipl::logic::{Sort, SortEnv};
use ipl::provers::{Cascade, Outcome, ProverConfig, Query};

fn obligation_env() -> SortEnv {
    let mut env = SortEnv::new();
    env.declare_var(POST_VAR, Sort::Bool);
    env.declare_var("p0", Sort::Bool);
    env.declare_var("q0", Sort::Bool);
    env.declare_var("r0", Sort::Bool);
    env.declare_var("t0", Sort::Obj);
    env.declare_var("n", Sort::Int);
    env.declare_fun("member", vec![Sort::Obj], Sort::Bool);
    env.declare_fun("holds", vec![Sort::Int], Sort::Bool);
    env
}

#[test]
fn every_proof_construct_is_stronger_than_skip() {
    let cascade = Cascade::standard(ProverConfig::default());
    for case in catalog() {
        if case.requires_induction {
            continue;
        }
        let query = Query::new(Vec::new(), case.obligation.clone(), obligation_env());
        let answer = cascade.prove(&query);
        assert_eq!(
            answer.outcome,
            Outcome::Proved,
            "soundness obligation for `{}` not discharged: {}",
            case.name,
            case.obligation
        );
    }
}

#[test]
fn induct_translation_emits_base_and_step_obligations() {
    let case = catalog().into_iter().find(|c| c.name == "induct").unwrap();
    let mut ctx = TranslateCtx::new();
    let simple = translate_proof(&case.construct, &mut ctx);
    assert_eq!(
        simple.assert_count(),
        2,
        "base case and inductive step obligations"
    );
    let text = format!("{simple:?}");
    assert!(
        text.contains("holds"),
        "the induction formula appears in the obligations"
    );
}

#[test]
fn pick_witness_side_condition_is_enforced() {
    // The catalog instance respects the side condition; verify that the
    // exported fact is the goal itself (not weakened to true).
    let case = catalog()
        .into_iter()
        .find(|c| c.name == "pickWitness")
        .unwrap();
    let text = format!("{:?}", case.obligation);
    assert!(text.contains("q0"), "the goal is exported: {text}");
}

#[test]
fn overflowing_arithmetic_does_not_prove_a_false_postcondition() {
    // Each precondition is satisfiable, so neither postcondition may be
    // proved.  In the first, eliminating x multiplies `x <= 3` by 2^62 and
    // 3 * 2^62 overflows i64; a wrapped constant used to make the arithmetic
    // look contradictory.  In the second, linearising 2^62 * (4 * x) gives
    // x the coefficient 2^64, which used to wrap to 0.  In the third,
    // constant folding used to wrap 2^62 * 4 to 0.
    for (name, requires, ensures) in [
        (
            "Elimination",
            "x <= 3 & 0 <= y & y <= 4611686018427387904 * x",
            "false",
        ),
        (
            "Linearisation",
            "1 <= x & y = 4611686018427387904 * (4 * x)",
            "y = 0",
        ),
        ("Folding", "true", "4611686018427387904 * 4 = 0"),
    ] {
        let source = format!(
            r#"
module {name} {{
  method wrong(x: int, y: int)
    requires "{requires}"
    ensures "{ensures}"
  {{
    skip;
  }}
}}
"#
        );
        let options = ipl::core::VerifyOptions::default()
            .with_config(ProverConfig {
                use_cache: false,
                ..ProverConfig::default()
            })
            .with_jobs(1);
        let report = ipl::core::Session::new(options)
            .verify(&ipl::core::Request::new(source))
            .unwrap()
            .report;
        assert_eq!(
            report.methods_verified(),
            0,
            "a satisfiable precondition cannot imply `{ensures}`:\n{}",
            report.render()
        );
        assert_eq!(
            report.crashed_sequents(),
            0,
            "an overflow gives up; it does not panic:\n{}",
            report.render()
        );
    }
}
