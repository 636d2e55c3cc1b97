//! Nelson–Oppen-style theory combination for the ground tableau.
//!
//! The ground solver's leaves used to be the end of the line: if neither the
//! congruence closure nor the linear-arithmetic pass closed a saturated
//! branch, the sequent fell through to the next prover in the cascade — which
//! never saw the equalities the branch had accumulated.  This module turns
//! satellite decision procedures into *theories plugged into the tableau*:
//!
//! * every branch literal is offered to each theory as it is asserted
//!   ([`TheoryExchange::assert_literal`]), with [`TheoryExchange::push`] /
//!   [`TheoryExchange::pop`] scoped in lockstep with the branch exploration;
//! * at a saturated, consistent leaf the tableau runs an **equality-exchange
//!   loop** ([`TheoryExchange::check`]): the ground core hands the theory the
//!   congruence-class groupings of its shared variables (plus implied
//!   disequalities), the theory reports either a conflict or a batch of
//!   entailed facts (equalities between shared set/int/element terms,
//!   emptiness and singleton facts), the facts are asserted back into the
//!   branch, and the loop iterates to a fixpoint or until the budget runs
//!   out.
//!
//! Two theories sit behind the interface: [`BapaExchange`], the
//! cardinality procedure the paper's BAPA obligations need, and
//! [`ShapeExchange`], the reachability procedure that stands in for MONA.

use crate::cc::Congruence;
use ipl_bapa::incremental::{BapaCheck, IncrementalBapa};
use ipl_logic::Form;
use ipl_shape::ShapeOutcome;
use std::sync::Arc;
use std::time::Instant;

/// Per-search budgets for the exchange loop, decremented as they are spent.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeBudget {
    /// Saturated leaves still allowed to run the exchange loop.
    pub leaf_checks: usize,
    /// Entailment queries (each one Presburger refutation) still allowed.
    pub entailment_queries: usize,
}

/// What a theory learned at a leaf.
#[derive(Debug)]
pub enum TheoryResult {
    /// The branch literals are unsatisfiable in the theory: close the branch.
    Conflict,
    /// Facts entailed by the theory over shared terms, to be asserted back
    /// into the ground core (empty means nothing new).
    Facts(Vec<Form>),
}

/// A decision procedure cooperating with the ground tableau.
pub trait TheoryExchange: std::fmt::Debug {
    /// Short name used in diagnostics.
    fn name(&self) -> &'static str;

    /// Opens a scope, mirroring `Congruence::push`.
    fn push(&mut self);

    /// Closes the innermost scope, mirroring `Congruence::pop`.
    fn pop(&mut self);

    /// Pops scopes until the depth is `depth` (the CDCL core backjumps over
    /// several decision levels at once).  Implementations with cheaper bulk
    /// unwinding should override the default pop loop.
    fn pop_to(&mut self, depth: usize) {
        while self.depth() > depth {
            self.pop();
        }
    }

    /// Current scope depth.
    fn depth(&self) -> usize;

    /// Offers one branch literal.  Returns `true` if the theory knows it
    /// (newly recorded or already present); `false` when the literal lies
    /// outside the theory's fragment — callers may cache that verdict and
    /// skip re-offering the literal on later branches.
    ///
    /// The ground core offers decisions, input-clause propagations, and
    /// congruence-propagated literals (all facts of the branch a recursive
    /// tableau would also have asserted), but withholds literals propagated
    /// from *learned* clauses: those are implied, the leaf checks stay sound
    /// without them, and offering them would grow the theory's atom set —
    /// for BAPA, the worst-case-exponential Venn translation — beyond the
    /// branch itself.
    fn assert_literal(&mut self, literal: &Form) -> bool;

    /// Cheap activation probe: would [`TheoryExchange::check`] do any work
    /// on the current atom set?  The tableau consults this before spending
    /// leaf-check budget, so saturated leaves the theory has nothing to say
    /// about cannot starve the one that needs it.
    fn is_active(&self) -> bool;

    /// Runs the theory at a saturated leaf: imports the congruence-implied
    /// (dis)equalities over its shared variables, decides its atom set, and
    /// exports entailed facts.
    fn check(&mut self, cc: &mut Congruence, budget: &mut ExchangeBudget) -> TheoryResult;
}

/// The BAPA cardinality procedure as a tableau theory.
#[derive(Debug)]
pub struct BapaExchange {
    bapa: IncrementalBapa,
}

impl BapaExchange {
    /// Creates the theory; its Venn and Presburger decisions give up at
    /// `deadline`.
    pub fn new(deadline: Option<Instant>) -> Self {
        BapaExchange {
            bapa: IncrementalBapa::new(deadline),
        }
    }

    /// Asserts a formula into the underlying engine unless it is already
    /// present (keeps re-imported facts from growing the assertion stack).
    /// Returns `false` only for out-of-fragment formulas.
    fn assert_once(&mut self, form: &Form) -> bool {
        if self.bapa.contains(form) {
            return true;
        }
        self.bapa.assert_form(form)
    }
}

/// Is this element identifier a plain variable name (one we can faithfully
/// turn back into a `Form::Var`)?  Extraction identifies elements by their
/// printed form, which for compound terms (`(k, v)`, `x.next`, literals)
/// cannot be reconstructed as a variable.
fn is_var_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '#' | '$'))
        && name != "null"
        && name != "emptyset"
}

impl TheoryExchange for BapaExchange {
    fn name(&self) -> &'static str {
        "bapa"
    }

    fn push(&mut self) {
        self.bapa.push();
    }

    fn pop(&mut self) {
        self.bapa.pop();
    }

    fn pop_to(&mut self, depth: usize) {
        self.bapa.pop_to(depth);
    }

    fn depth(&self) -> usize {
        self.bapa.depth()
    }

    fn assert_literal(&mut self, literal: &Form) -> bool {
        self.assert_once(literal)
    }

    fn is_active(&self) -> bool {
        // BAPA is the *cardinality* procedure.  Branches whose atoms never
        // mention a cardinality are fully covered by the membership-level
        // expansion the other provers work on, and paying the Venn
        // translation at every such leaf would dominate the search.
        self.bapa.has_cardinality()
    }

    fn check(&mut self, cc: &mut Congruence, budget: &mut ExchangeBudget) -> TheoryResult {
        if !self.is_active() {
            return TheoryResult::Facts(Vec::new());
        }
        let (sets, elems, ints) = self.bapa.variables();
        let var_elems: Vec<String> = elems.into_iter().filter(|e| is_var_name(e)).collect();

        // Ground -> BAPA: congruence-implied equalities between the shared
        // variables of each kind, found by grouping per congruence class.
        for kind in [
            sets.iter().cloned().collect::<Vec<_>>(),
            ints.iter().cloned().collect::<Vec<_>>(),
            var_elems.clone(),
        ] {
            let mut by_class: std::collections::HashMap<usize, Vec<String>> =
                std::collections::HashMap::new();
            for name in kind {
                let class = cc.class_of(&Form::var(name.clone()));
                by_class.entry(class).or_default().push(name);
            }
            for group in by_class.into_values() {
                let Some((first, rest)) = group.split_first() else {
                    continue;
                };
                for other in rest {
                    let eq = Form::eq(Form::var(first.clone()), Form::var(other.clone()));
                    self.assert_once(&eq);
                }
            }
        }
        // Ground -> BAPA: implied disequalities between element variables
        // (these give BAPA its cardinality lower bounds).
        if var_elems.len() <= 12 {
            for (i, a) in var_elems.iter().enumerate() {
                for b in var_elems.iter().skip(i + 1) {
                    let (va, vb) = (Form::var(a.clone()), Form::var(b.clone()));
                    if cc.are_disequal(&va, &vb) {
                        self.assert_once(&Form::not(Form::eq(va, vb)));
                    }
                }
            }
        }

        if self.bapa.check() == BapaCheck::Unsat {
            return TheoryResult::Conflict;
        }

        // BAPA -> ground: entailed facts over shared terms, most valuable
        // first.  Every candidate costs one budgeted Presburger refutation;
        // facts the congruence already knows are skipped for free.
        let mut facts = Vec::new();
        let set_list: Vec<String> = sets.into_iter().collect();
        let mut candidates: Vec<Form> = Vec::new();
        for s in &set_list {
            candidates.push(Form::eq(Form::var(s.clone()), Form::EmptySet));
        }
        for (i, s) in set_list.iter().enumerate() {
            for t in set_list.iter().skip(i + 1) {
                candidates.push(Form::eq(Form::var(s.clone()), Form::var(t.clone())));
            }
        }
        for (i, x) in var_elems.iter().enumerate() {
            for y in var_elems.iter().skip(i + 1) {
                candidates.push(Form::eq(Form::var(x.clone()), Form::var(y.clone())));
            }
        }
        for s in &set_list {
            // Singleton facts feed the arithmetic side through the card term.
            candidates.push(Form::eq(
                Form::Card(Arc::new(Form::var(s.clone()))),
                Form::int(1),
            ));
        }
        for candidate in candidates {
            if budget.entailment_queries == 0 {
                break;
            }
            let Form::Eq(lhs, rhs) = &candidate else {
                unreachable!("candidates are equalities");
            };
            if cc.are_equal(lhs, rhs) {
                continue; // the ground core already knows it
            }
            budget.entailment_queries -= 1;
            if self.bapa.entails(&candidate) {
                facts.push(candidate);
            }
        }
        TheoryResult::Facts(facts)
    }
}

/// The reachability procedure as a tableau theory.
///
/// It keeps the branch's `reach` atoms and heap equalities (field reads,
/// field writes, variable = variable) on a scoped stack and, at a saturated
/// leaf with a `reach` literal in scope, asks the shape saturation prover
/// whether the stack alone is contradictory.  It exports no facts.
#[derive(Debug)]
pub struct ShapeExchange {
    /// The saturation gives up once this passes.
    deadline: Option<Instant>,
    /// The branch literals in the fragment, in assertion order.
    literals: Vec<Form>,
    /// Length of `literals` at each open scope.
    marks: Vec<usize>,
}

impl ShapeExchange {
    /// Creates the theory; its saturation gives up at `deadline`.
    pub fn new(deadline: Option<Instant>) -> Self {
        ShapeExchange {
            deadline,
            literals: Vec::new(),
            marks: Vec::new(),
        }
    }
}

/// Is this atom (sign stripped) a `reach(f, x, y)` application?
fn is_reach(atom: &Form) -> bool {
    matches!(atom, Form::App(name, args) if name == "reach" && args.len() == 3)
}

/// Is this atom one the shape prover reads: a `reach` application or a heap
/// equality?
fn in_shape_fragment(atom: &Form) -> bool {
    let heap = |t: &Form| matches!(t, Form::FieldRead(..) | Form::FieldWrite(..));
    match atom {
        Form::Eq(lhs, rhs) => {
            heap(lhs) || heap(rhs) || matches!((&**lhs, &**rhs), (Form::Var(_), Form::Var(_)))
        }
        other => is_reach(other),
    }
}

/// The atom of a literal.
fn atom_of(literal: &Form) -> &Form {
    match literal {
        Form::Not(inner) => inner,
        other => other,
    }
}

impl TheoryExchange for ShapeExchange {
    fn name(&self) -> &'static str {
        "shape"
    }

    fn push(&mut self) {
        self.marks.push(self.literals.len());
    }

    fn pop(&mut self) {
        if let Some(mark) = self.marks.pop() {
            self.literals.truncate(mark);
        }
    }

    fn depth(&self) -> usize {
        self.marks.len()
    }

    fn assert_literal(&mut self, literal: &Form) -> bool {
        if !in_shape_fragment(atom_of(literal)) {
            return false;
        }
        self.literals.push(literal.clone());
        true
    }

    fn is_active(&self) -> bool {
        // Heap equalities alone are the congruence closure's job; the
        // saturation adds only `reach` reasoning, so it waits for a `reach`
        // literal rather than run at every leaf.
        self.literals.iter().any(|l| is_reach(atom_of(l)))
    }

    fn check(&mut self, _cc: &mut Congruence, _budget: &mut ExchangeBudget) -> TheoryResult {
        if self.is_active()
            && ipl_shape::prove_valid(&self.literals, &Form::FALSE, self.deadline)
                == ShapeOutcome::Valid
        {
            return TheoryResult::Conflict;
        }
        TheoryResult::Facts(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    fn f(s: &str) -> Form {
        parse_form(s).unwrap()
    }

    fn budget() -> ExchangeBudget {
        ExchangeBudget {
            leaf_checks: 8,
            entailment_queries: 64,
        }
    }

    #[test]
    fn congruence_implied_set_equality_reaches_bapa() {
        // s and t are congruent only through g(a) = s, g(b) = t, a = b — no
        // literal equates them, so only the ground->BAPA import can.
        let mut cc = Congruence::new();
        cc.assert_eq(&f("a"), &f("b"));
        cc.assert_eq(&f("g(a)"), &f("s"));
        cc.assert_eq(&f("g(b)"), &f("t"));
        let mut theory = BapaExchange::new(None);
        theory.assert_literal(&f("card(s) = 0"));
        theory.assert_literal(&f("x in t"));
        let result = theory.check(&mut cc, &mut budget());
        assert!(matches!(result, TheoryResult::Conflict), "{result:?}");
    }

    #[test]
    fn entailed_emptiness_is_exported_to_the_ground_core() {
        let mut cc = Congruence::new();
        let mut theory = BapaExchange::new(None);
        theory.assert_literal(&f("card(s) = 0"));
        let TheoryResult::Facts(facts) = theory.check(&mut cc, &mut budget()) else {
            panic!("no conflict expected");
        };
        assert!(
            facts.contains(&f("s = emptyset")),
            "emptiness fact exported: {facts:?}"
        );
    }

    #[test]
    fn entailed_singleton_cardinality_is_exported() {
        let mut cc = Congruence::new();
        let mut theory = BapaExchange::new(None);
        theory.assert_literal(&f("s = {x}"));
        theory.assert_literal(&f("card(s) <= n"));
        let TheoryResult::Facts(facts) = theory.check(&mut cc, &mut budget()) else {
            panic!("no conflict expected");
        };
        assert!(
            facts.contains(&f("card(s) = 1")),
            "singleton fact exported: {facts:?}"
        );
    }

    #[test]
    fn element_disequalities_are_imported_for_lower_bounds() {
        // x != y comes only from the congruence; with both in s the set has
        // cardinality at least two.
        let mut cc = Congruence::new();
        cc.assert_neq(&f("x"), &f("y"));
        let mut theory = BapaExchange::new(None);
        theory.assert_literal(&f("x in s"));
        theory.assert_literal(&f("y in s"));
        theory.assert_literal(&f("card(s) <= 1"));
        let result = theory.check(&mut cc, &mut budget());
        assert!(matches!(result, TheoryResult::Conflict), "{result:?}");
    }

    #[test]
    fn budget_exhaustion_stops_entailment_queries() {
        let mut cc = Congruence::new();
        let mut theory = BapaExchange::new(None);
        theory.assert_literal(&f("card(s) = 0"));
        let mut budget = ExchangeBudget {
            leaf_checks: 1,
            entailment_queries: 0,
        };
        let TheoryResult::Facts(facts) = theory.check(&mut cc, &mut budget) else {
            panic!("no conflict expected");
        };
        assert!(facts.is_empty(), "no queries allowed: {facts:?}");
    }

    #[test]
    fn push_pop_restores_theory_state() {
        let mut cc = Congruence::new();
        let mut theory = BapaExchange::new(None);
        theory.assert_literal(&f("x in s"));
        theory.push();
        theory.assert_literal(&f("card(s) = 0"));
        assert!(matches!(
            theory.check(&mut cc, &mut budget()),
            TheoryResult::Conflict
        ));
        theory.pop();
        assert!(matches!(
            theory.check(&mut cc, &mut budget()),
            TheoryResult::Facts(_)
        ));
    }

    #[test]
    fn theories_give_up_once_the_deadline_has_passed() {
        let bapa_atoms = ["x in s", "card(s) = 0"];
        let shape_atoms = [
            "reach(next, first, a)",
            "a.next = b",
            "~reach(next, first, b)",
        ];
        let passed = Some(Instant::now());
        for (deadline, refuted) in [(None, true), (passed, false)] {
            let mut cc = Congruence::new();
            let mut theories: [(Box<dyn TheoryExchange>, &[&str]); 2] = [
                (Box::new(BapaExchange::new(deadline)), &bapa_atoms),
                (Box::new(ShapeExchange::new(deadline)), &shape_atoms),
            ];
            for (theory, atoms) in &mut theories {
                for atom in atoms.iter() {
                    assert!(theory.assert_literal(&f(atom)), "{atom}");
                }
                let result = theory.check(&mut cc, &mut budget());
                assert_eq!(
                    matches!(result, TheoryResult::Conflict),
                    refuted,
                    "{} with deadline {deadline:?}: {result:?}",
                    theory.name()
                );
            }
        }
    }

    #[test]
    fn shape_accepts_only_reach_atoms_and_heap_equalities() {
        let mut theory = ShapeExchange::new(None);
        for accepted in [
            "reach(next, first, a)",
            "~reach(next, a, first)",
            "a.next = b",
            "~(a.next = b)",
            "next2 = next[a := b]",
            "a = b",
        ] {
            assert!(theory.assert_literal(&f(accepted)), "{accepted}");
        }
        for rejected in ["x < y", "a in s", "card(s) = 0", "p"] {
            assert!(!theory.assert_literal(&f(rejected)), "{rejected}");
        }
    }

    #[test]
    fn shape_is_active_only_with_reach_in_scope() {
        let mut cc = Congruence::new();
        let mut theory = ShapeExchange::new(None);
        theory.assert_literal(&f("a.next = b"));
        assert!(!theory.is_active(), "heap equalities alone stay inactive");
        theory.push();
        theory.assert_literal(&f("reach(next, first, a)"));
        theory.assert_literal(&f("~reach(next, first, b)"));
        assert!(theory.is_active());
        assert!(matches!(
            theory.check(&mut cc, &mut budget()),
            TheoryResult::Conflict
        ));
        theory.pop_to(0);
        assert!(!theory.is_active(), "pop_to unwinds the reach literals");
        assert!(matches!(
            theory.check(&mut cc, &mut budget()),
            TheoryResult::Facts(ref facts) if facts.is_empty()
        ));
    }
}
