//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction:
//!
//! * printing followed by parsing is the identity on formulas,
//! * `simplify` and `nnf` preserve the meaning of ground formulas (checked
//!   against a reference evaluator under random assignments),
//! * substitution of a variable that does not occur free is the identity,
//! * splitting produces exactly one sequent per non-trivial goal leaf,
//! * stripping proof constructs really removes every proof construct,
//! * the two Presburger engines (Fourier–Motzkin refutation and Cooper's
//!   algorithm) never contradict each other.

use ipl::gcl::cmd::{Ext, Proof, Simple};
use ipl::gcl::split::split_all;
use ipl::gcl::wlp::vc_of;
use ipl::logic::normal::nnf;
use ipl::logic::parser::parse_form;
use ipl::logic::simplify::simplify;
use ipl::logic::subst::{free_vars, substitute_one};
use ipl::logic::Form;
use ipl_bapa::extract::Extractor;
use ipl_bapa::incremental::{BapaCheck, IncrementalBapa};
use ipl_bapa::presburger::{cooper_decide, fm_unsatisfiable, IdLinExpr, PForm};
use ipl_bapa::venn;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// Strategy for ground integer terms over a small variable pool.
fn int_term() -> impl Strategy<Value = Form> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Form::Int),
        (0usize..VARS.len()).prop_map(|i| Form::var(VARS[i])),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Form::Add(Arc::new(x), Arc::new(y))),
            (inner.clone(), inner).prop_map(|(x, y)| Form::Sub(Arc::new(x), Arc::new(y))),
        ]
    })
}

/// Strategy for ground formulas over those terms.
fn formula() -> impl Strategy<Value = Form> {
    let atom = prop_oneof![
        Just(Form::TRUE),
        Just(Form::FALSE),
        (int_term(), int_term()).prop_map(|(x, y)| Form::Lt(Arc::new(x), Arc::new(y))),
        (int_term(), int_term()).prop_map(|(x, y)| Form::Le(Arc::new(x), Arc::new(y))),
        (int_term(), int_term()).prop_map(|(x, y)| Form::Eq(Arc::new(x), Arc::new(y))),
    ];
    atom.prop_recursive(3, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Form::Not(Arc::new(f))),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Form::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Form::Or),
            (inner.clone(), inner).prop_map(|(x, y)| Form::Implies(Arc::new(x), Arc::new(y))),
        ]
    })
}

const SET_VARS: [&str; 3] = ["s", "t", "u"];
const ELEM_VARS: [&str; 2] = ["x", "y"];

/// Strategy for set terms of the BAPA fragment.
fn set_term() -> impl Strategy<Value = Form> {
    let leaf = prop_oneof![
        (0usize..SET_VARS.len()).prop_map(|i| Form::var(SET_VARS[i])),
        Just(Form::EmptySet),
        (0usize..ELEM_VARS.len()).prop_map(|i| Form::FiniteSet(vec![Form::var(ELEM_VARS[i])])),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::Union(Arc::new(a), Arc::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Form::Inter(Arc::new(a), Arc::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Form::Diff(Arc::new(a), Arc::new(b))),
        ]
    })
}

/// Strategy for (possibly negated) atoms of the BAPA fragment.
fn bapa_atom() -> impl Strategy<Value = Form> {
    let positive = prop_oneof![
        (set_term(), -3i64..4).prop_map(|(s, k)| Form::eq(Form::Card(Arc::new(s)), Form::int(k))),
        (set_term(), set_term())
            .prop_map(|(a, b)| Form::le(Form::Card(Arc::new(a)), Form::Card(Arc::new(b)))),
        (set_term(), set_term()).prop_map(|(a, b)| Form::eq(a, b)),
        (set_term(), set_term()).prop_map(|(a, b)| Form::Subseteq(Arc::new(a), Arc::new(b))),
        (0usize..ELEM_VARS.len(), set_term())
            .prop_map(|(i, s)| Form::elem(Form::var(ELEM_VARS[i]), s)),
    ];
    (positive, 0usize..2)
        .prop_map(|(atom, negate)| if negate == 1 { Form::not(atom) } else { atom })
}

/// Reference evaluator for the ground fragment used by the strategies.
fn eval_int(form: &Form, env: &HashMap<String, i64>) -> i64 {
    match form {
        Form::Int(v) => *v,
        Form::Var(name) => *env.get(name).unwrap_or(&0),
        Form::Add(a, b) => eval_int(a, env) + eval_int(b, env),
        Form::Sub(a, b) => eval_int(a, env) - eval_int(b, env),
        Form::Mul(a, b) => eval_int(a, env) * eval_int(b, env),
        Form::Neg(a) => -eval_int(a, env),
        other => panic!("not an integer term: {other}"),
    }
}

fn eval_bool(form: &Form, env: &HashMap<String, i64>) -> bool {
    match form {
        Form::Bool(b) => *b,
        Form::Not(f) => !eval_bool(f, env),
        Form::And(fs) => fs.iter().all(|f| eval_bool(f, env)),
        Form::Or(fs) => fs.iter().any(|f| eval_bool(f, env)),
        Form::Implies(a, b) => !eval_bool(a, env) || eval_bool(b, env),
        Form::Iff(a, b) => eval_bool(a, env) == eval_bool(b, env),
        Form::Lt(a, b) => eval_int(a, env) < eval_int(b, env),
        Form::Le(a, b) => eval_int(a, env) <= eval_int(b, env),
        Form::Eq(a, b) => eval_int(a, env) == eval_int(b, env),
        other => panic!("not a ground boolean formula: {other}"),
    }
}

fn assignment() -> impl Strategy<Value = HashMap<String, i64>> {
    prop::collection::vec(-10i64..10, VARS.len())
        .prop_map(|values| VARS.iter().map(|v| v.to_string()).zip(values).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn printing_then_parsing_preserves_the_formula(form in formula(), env in assignment()) {
        let printed = form.to_string();
        let reparsed = parse_form(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        // The parser applies the smart constructors (constant folding, unit
        // laws), so compare modulo simplification and check the meaning is
        // untouched under a random assignment.
        prop_assert_eq!(simplify(&reparsed), simplify(&form));
        prop_assert_eq!(eval_bool(&reparsed, &env), eval_bool(&form, &env));
    }

    #[test]
    fn simplify_preserves_meaning(form in formula(), env in assignment()) {
        let simplified = simplify(&form);
        prop_assert_eq!(eval_bool(&form, &env), eval_bool(&simplified, &env));
    }

    #[test]
    fn nnf_preserves_meaning(form in formula(), env in assignment()) {
        let converted = nnf(&form);
        prop_assert_eq!(eval_bool(&form, &env), eval_bool(&converted, &env));
    }

    #[test]
    fn interning_preserves_equality_and_meaning(form in formula(), env in assignment()) {
        let shared = ipl::logic::share(&form);
        prop_assert_eq!(&shared, &form);
        prop_assert_eq!(eval_bool(&shared, &env), eval_bool(&form, &env));
        // Interning twice is stable (canonical allocations are reused).
        prop_assert_eq!(ipl::logic::share(&shared), shared);
    }

    #[test]
    fn interning_commutes_with_substitution(form in formula(), env in assignment()) {
        // Substituting into the hash-consed formula (exercising the
        // pointer-keyed memo over shared subtrees) must agree with
        // substituting into the plain tree.
        let shared = ipl::logic::share(&form);
        let plain = substitute_one(&form, "a", &Form::int(7));
        let memoised = substitute_one(&shared, "a", &Form::int(7));
        prop_assert_eq!(&memoised, &plain);
        let mut env = env.clone();
        env.insert("a".to_string(), 7);
        prop_assert_eq!(eval_bool(&memoised, &env), eval_bool(&plain, &env));
    }

    #[test]
    fn interning_commutes_with_normalisation(form in formula()) {
        let shared = ipl::logic::share(&form);
        prop_assert_eq!(nnf(&shared), nnf(&form));
        prop_assert_eq!(simplify(&shared), simplify(&form));
    }

    #[test]
    fn subst_nnf_round_trip_on_shared_terms(form in formula(), env in assignment()) {
        // share -> substitute -> nnf -> share: every pass preserves both
        // structure-level equality with the unshared pipeline and meaning.
        let substituted = substitute_one(&ipl::logic::share(&form), "b", &Form::var("c"));
        let normalised = nnf(&substituted);
        let reshared = ipl::logic::share(&normalised);
        prop_assert_eq!(&reshared, &normalised);
        let mut env2 = env.clone();
        let c = *env2.get("c").unwrap_or(&0);
        env2.insert("b".to_string(), c);
        prop_assert_eq!(eval_bool(&reshared, &env2), eval_bool(&form, &env2));
    }

    #[test]
    fn substituting_an_absent_variable_is_identity(form in formula()) {
        prop_assert!(!free_vars(&form).contains("zz_missing"));
        let substituted = substitute_one(&form, "zz_missing", &Form::int(42));
        prop_assert_eq!(substituted, form);
    }

    #[test]
    fn splitting_covers_every_goal(goals in prop::collection::vec(formula(), 1..5)) {
        // Build assert G1; ...; assert Gn and check every non-conjunction goal
        // produces at least one sequent (conjunction goals split further).
        let cmd = Simple::seq(
            goals
                .iter()
                .enumerate()
                .map(|(i, g)| Simple::assert(format!("G{i}"), g.clone()))
                .collect::<Vec<_>>(),
        );
        let vc = vc_of(&cmd);
        prop_assert_eq!(vc.goal_count(), goals.len());
        let sequents = split_all(&vc);
        // Splitting never invents obligations out of thin air (it is bounded
        // by the total size of the goals) and every sequent traces back to
        // one of the asserted goals.
        let size_bound: usize = goals.iter().map(Form::size).sum();
        prop_assert!(sequents.len() <= size_bound);
        for sequent in &sequents {
            prop_assert!(sequent.goal_label.starts_with('G'));
        }
    }

    #[test]
    fn stripping_removes_every_proof_construct(form in formula(), label in "[A-Z][a-z]{1,6}") {
        let cmd = Ext::seq(vec![
            Ext::Assign("x".into(), Form::int(1)),
            Ext::Proof(Proof::note(label.clone(), form.clone())),
            Ext::Proof(Proof::Assert { label, form, from: None }),
            Ext::assert("Post", Form::eq(Form::var("x"), Form::int(1))),
        ]);
        let stripped = cmd.strip_proofs();
        prop_assert_eq!(stripped.count_constructs().total_proof_statements(), 0);
        // The executable part is untouched.
        prop_assert_eq!(stripped.modified_vars(), cmd.modified_vars());
    }

    #[test]
    fn incremental_extraction_matches_the_one_shot_path(
        atoms in prop::collection::vec(bapa_atom(), 1..5)
    ) {
        // One-shot: scan the whole conjunction, then extract every atom.
        let refs: Vec<&Form> = atoms.iter().collect();
        let extractor = Extractor::scan(&refs);
        let mut one_shot = Vec::new();
        for atom in &atoms {
            if let Some(extracted) = extractor.extract(atom) {
                one_shot.extend(venn::conjuncts(&extracted));
            }
        }
        // Incremental: assert atom by atom, read back the extracted set.
        let mut engine = IncrementalBapa::default();
        for atom in &atoms {
            engine.assert_form(atom);
        }
        prop_assert_eq!(engine.atoms(), &one_shot[..]);
    }

    #[test]
    fn incremental_pop_restores_the_one_shot_view(
        prefix in prop::collection::vec(bapa_atom(), 1..4),
        scoped in prop::collection::vec(bapa_atom(), 1..4)
    ) {
        // Asserting and popping a scope must leave the engine observably
        // identical (atoms and satisfiability verdict) to one that only ever
        // saw the prefix.
        let mut reference = IncrementalBapa::default();
        for atom in &prefix {
            reference.assert_form(atom);
        }
        let mut engine = IncrementalBapa::default();
        for atom in &prefix {
            engine.assert_form(atom);
        }
        engine.push();
        for atom in &scoped {
            engine.assert_form(atom);
        }
        let _ = engine.check();
        engine.pop();
        prop_assert_eq!(engine.atoms(), reference.atoms());
        prop_assert_eq!(engine.check(), reference.check());
    }

    #[test]
    fn incremental_check_agrees_with_prove_valid(
        atoms in prop::collection::vec(bapa_atom(), 1..4)
    ) {
        // `assumptions |- false` is valid exactly when the conjunction of
        // assumptions is unsatisfiable, which is what `check` decides.
        let mut engine = IncrementalBapa::default();
        let mut accepted = Vec::new();
        for atom in &atoms {
            if engine.assert_form(atom) {
                accepted.push(atom.clone());
            }
        }
        let one_shot =
            ipl::bapa::prove_valid(&accepted, &Form::FALSE, None);
        let incremental = engine.check();
        prop_assert_eq!(
            incremental == BapaCheck::Unsat,
            one_shot == ipl::bapa::BapaOutcome::Valid
        );
    }

    #[test]
    fn fm_refutation_agrees_with_cooper(
        coeffs in prop::collection::vec((-3i64..4, -3i64..4, -6i64..7), 1..5)
    ) {
        // Random conjunctions  c1*x + c2*y + k <= 0  over x = 0, y = 1.
        let body = PForm::and(
            coeffs
                .iter()
                .map(|(cx, cy, k)| {
                    let expr = IdLinExpr::variable(0, *cx)
                        .plus(&IdLinExpr::variable(1, *cy), 1)
                        .plus(&IdLinExpr::constant(*k), 1);
                    PForm::le(expr)
                })
                .collect(),
        );
        let sentence = PForm::Exists(0, Box::new(PForm::Exists(1, Box::new(body.clone()))));
        let fm_says_unsat = fm_unsatisfiable(&body);
        if let Some(satisfiable) = cooper_decide(&sentence, None) {
            if fm_says_unsat {
                // FM refutation is sound, so Cooper must agree.
                prop_assert!(!satisfiable, "FM claims unsat but Cooper found a model: {body:?}");
            }
        }
    }
}
