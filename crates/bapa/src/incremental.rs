//! Incremental BAPA: a persistent assertion stack with a `push`/`pop` trail.
//!
//! The one-shot pipeline ([`crate::prove_valid`]) re-scans and re-translates
//! the whole problem on every query.  The tableau of the ground solver wants
//! the opposite shape: literals arrive one at a time as branches are
//! explored, branch points open a backtracking scope, and the same engine is
//! consulted at every leaf.  [`IncrementalBapa`] mirrors the scope discipline
//! of the congruence engine (`ipl_provers::cc::Congruence`): [`IncrementalBapa::push`]
//! marks the assertion stack, [`IncrementalBapa::pop`] truncates back to the
//! mark, and results are memoised per revision so repeated checks at an
//! unchanged leaf are free.
//!
//! Extraction is deliberately *re-run over the full assertion set* when the
//! set changes: variable classification (set / element / integer position) is
//! a whole-problem property, so extracting atom-by-atom with a partial
//! classification could diverge from the one-shot path.  Re-scanning keeps
//! the two interfaces observably identical (a property the test-suite pins)
//! while the revision cache keeps the amortised cost incremental.

use crate::extract::{BapaForm, Extractor};
use crate::{expired, venn};
use ipl_logic::Form;
use std::collections::BTreeSet;
use std::time::Instant;

/// Result of a satisfiability check over the asserted atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BapaCheck {
    /// The asserted conjunction is definitely unsatisfiable.
    Unsat,
    /// No contradiction found (satisfiable, or beyond the configured limits).
    Unknown,
}

/// The incremental BAPA assertion engine.
#[derive(Debug, Default)]
pub struct IncrementalBapa {
    /// Checks give up (reporting no contradiction) once this passes.
    deadline: Option<Instant>,
    /// The assertion stack: accepted in-fragment formulas, in order.
    forms: Vec<Form>,
    /// Parallel to `forms`: does the formula mention a cardinality?  Kept as
    /// a raw syntactic flag so the activation gate never pays an extraction.
    card_flags: Vec<bool>,
    /// Open scopes: `forms.len()` at each [`IncrementalBapa::push`].
    scopes: Vec<usize>,
    /// Bumped on every mutation; keys the memoised results below.
    revision: u64,
    /// Memoised extraction of the current assertion set.
    extracted: Option<(u64, Vec<BapaForm>)>,
    /// Memoised result of [`IncrementalBapa::check`].
    checked: Option<(u64, BapaCheck)>,
    /// Content-addressed verdicts of shared-variable components.  Across the
    /// leaves of one tableau search most components are identical (only the
    /// branch-local atoms change), and a component's verdict depends on its
    /// content alone, so entries stay valid across `pop` — each Venn
    /// translation is paid once per *distinct* component, not once per leaf.
    /// Keyed on a 128-bit content fingerprint (two seeded hashes, like the
    /// proof cache), so probes neither clone nor format anything.
    component_cache: std::collections::HashMap<(u64, u64), bool>,
}

impl IncrementalBapa {
    /// Creates an empty engine whose checks give up at `deadline`.
    pub fn new(deadline: Option<Instant>) -> Self {
        IncrementalBapa {
            deadline,
            ..IncrementalBapa::default()
        }
    }

    /// [`venn::conjunction_unsatisfiable`] with the per-component verdicts
    /// served from (and recorded in) the content-addressed cache.
    fn conjunction_unsatisfiable_cached(&mut self, atoms: &[BapaForm]) -> bool {
        for component in venn::components(atoms) {
            if expired(self.deadline) {
                return false;
            }
            use std::hash::{DefaultHasher, Hash, Hasher};
            let mut h1 = DefaultHasher::new();
            let mut h2 = DefaultHasher::new();
            0x9e37_79b9_7f4a_7c15u64.hash(&mut h1);
            0x85eb_ca6b_27d4_eb4fu64.hash(&mut h2);
            for &i in &component {
                atoms[i].hash(&mut h1);
                atoms[i].hash(&mut h2);
            }
            let key = (h1.finish(), h2.finish());
            let unsat = match self.component_cache.get(&key) {
                Some(&cached) => cached,
                None => {
                    let fresh = venn::component_unsatisfiable(atoms, &component, self.deadline);
                    self.component_cache.insert(key, fresh);
                    fresh
                }
            };
            if unsat {
                return true;
            }
        }
        false
    }

    /// Opens a backtracking scope.
    pub fn push(&mut self) {
        self.scopes.push(self.forms.len());
    }

    /// Closes the innermost scope, discarding every assertion made since the
    /// matching [`IncrementalBapa::push`].
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without matching push");
        if self.forms.len() != mark {
            self.forms.truncate(mark);
            self.card_flags.truncate(mark);
            self.revision += 1;
        }
    }

    /// Pops scopes until the depth is `depth` (a no-op when already there).
    /// Unlike a pop loop this truncates the assertion stack once and bumps
    /// the revision once, so a deep backjump costs one memo invalidation.
    pub fn pop_to(&mut self, depth: usize) {
        if self.scopes.len() <= depth {
            return;
        }
        let mark = self.scopes[depth];
        self.scopes.truncate(depth);
        if self.forms.len() != mark {
            self.forms.truncate(mark);
            self.card_flags.truncate(mark);
            self.revision += 1;
        }
    }

    /// Current scope depth (diagnostics and tests).
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    /// Number of asserted atoms.
    pub fn atom_count(&self) -> usize {
        self.forms.len()
    }

    /// Returns `true` if the exact formula is already on the assertion stack.
    pub fn contains(&self, form: &Form) -> bool {
        self.forms.contains(form)
    }

    /// Asserts a formula if it lies in the BAPA fragment.  Returns `true`
    /// when the formula was accepted; out-of-fragment formulas are ignored
    /// (sound: dropping conjuncts weakens the refutation).
    pub fn assert_form(&mut self, form: &Form) -> bool {
        // Self-scan acceptance test: the final extraction at check time uses
        // the whole-problem classification instead, but a formula that cannot
        // be extracted even under its own scan never will be.
        if Extractor::scan(&[form]).extract(form).is_none() {
            return false;
        }
        self.card_flags.push(mentions_card(form));
        self.forms.push(form.clone());
        self.revision += 1;
        true
    }

    /// The extracted atoms of the current assertion set, classified against
    /// the whole set — exactly what the one-shot pipeline would produce for
    /// the same conjunction.
    pub fn atoms(&mut self) -> &[BapaForm] {
        if self.extracted.as_ref().map(|(rev, _)| *rev) != Some(self.revision) {
            let refs: Vec<&Form> = self.forms.iter().collect();
            let extractor = Extractor::scan(&refs);
            let mut atoms = Vec::new();
            for form in &self.forms {
                if let Some(atom) = extractor.extract(form) {
                    atoms.extend(venn::conjuncts(&atom));
                }
            }
            self.extracted = Some((self.revision, atoms));
        }
        &self.extracted.as_ref().expect("just filled").1
    }

    /// Does any asserted formula mention a set cardinality?  The exchange
    /// layer uses this as its activation gate: without a cardinality atom the
    /// membership-level expansion already covers the fragment, and running
    /// the Venn translation at every tableau leaf would be pure overhead.
    /// Answered from flags recorded at assertion time — no extraction.
    pub fn has_cardinality(&self) -> bool {
        self.card_flags.iter().any(|&flag| flag)
    }

    /// The set, element and integer variables of the asserted atoms.
    pub fn variables(&mut self) -> (BTreeSet<String>, BTreeSet<String>, BTreeSet<String>) {
        let mut sets = BTreeSet::new();
        let mut elems = BTreeSet::new();
        let mut ints = BTreeSet::new();
        for atom in self.atoms().to_vec() {
            atom.set_vars(&mut sets);
            atom.element_vars(&mut elems);
            atom.int_vars(&mut ints);
        }
        (sets, elems, ints)
    }

    /// Checks the asserted conjunction for unsatisfiability, component-wise.
    /// The result is memoised until the assertion set changes.
    pub fn check(&mut self) -> BapaCheck {
        if let Some((rev, result)) = self.checked {
            if rev == self.revision {
                return result;
            }
        }
        let atoms = self.atoms().to_vec();
        let result = if self.conjunction_unsatisfiable_cached(&atoms) {
            BapaCheck::Unsat
        } else {
            BapaCheck::Unknown
        };
        self.checked = Some((self.revision, result));
        result
    }

    /// Does the asserted conjunction entail the candidate fact?  Decided by
    /// refuting `atoms /\ ~fact`; returns `false` when the fact lies outside
    /// the fragment or the problem exceeds the limits.
    pub fn entails(&mut self, fact: &Form) -> bool {
        if self.check() == BapaCheck::Unsat {
            return true; // everything follows from a contradiction
        }
        // Classify against atoms and candidate together so the candidate's
        // variables pick up their roles from the assertion set.
        let mut refs: Vec<&Form> = self.forms.iter().collect();
        refs.push(fact);
        let extractor = Extractor::scan(&refs);
        let Some(extracted_fact) = extractor.extract(fact) else {
            return false;
        };
        let mut parts = Vec::new();
        for form in &self.forms {
            if let Some(atom) = extractor.extract(form) {
                parts.extend(venn::conjuncts(&atom));
            }
        }
        parts.push(BapaForm::Not(Box::new(extracted_fact)));
        self.conjunction_unsatisfiable_cached(&parts)
    }
}

/// Does the raw formula mention a `card(...)` term anywhere?
fn mentions_card(form: &Form) -> bool {
    fn rec(form: &Form, found: &mut bool) {
        if *found {
            return;
        }
        if matches!(form, Form::Card(_)) {
            *found = true;
            return;
        }
        form.for_each_child(|c| rec(c, found));
    }
    let mut found = false;
    rec(form, &mut found);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    fn f(s: &str) -> Form {
        parse_form(s).unwrap()
    }

    #[test]
    fn detects_conflicts_incrementally() {
        let mut bapa = IncrementalBapa::default();
        assert!(bapa.assert_form(&f("x in s")));
        assert_eq!(bapa.check(), BapaCheck::Unknown);
        assert!(bapa.assert_form(&f("card(s) = 0")));
        assert_eq!(bapa.check(), BapaCheck::Unsat);
    }

    #[test]
    fn rejects_out_of_fragment_forms() {
        let mut bapa = IncrementalBapa::default();
        assert!(!bapa.assert_form(&f("x.next = y")));
        assert_eq!(bapa.atom_count(), 0);
    }

    #[test]
    fn pop_restores_the_assertion_stack_exactly() {
        let mut bapa = IncrementalBapa::default();
        bapa.assert_form(&f("x in s"));
        bapa.push();
        bapa.assert_form(&f("card(s) = 0"));
        assert_eq!(bapa.check(), BapaCheck::Unsat);
        bapa.pop();
        assert_eq!(bapa.atom_count(), 1);
        assert_eq!(bapa.check(), BapaCheck::Unknown);
        // A different second scope works independently.
        bapa.push();
        bapa.assert_form(&f("card(s) = 1"));
        assert_eq!(bapa.check(), BapaCheck::Unknown);
        bapa.pop();
        assert_eq!(bapa.depth(), 0);
    }

    #[test]
    fn pop_to_unwinds_multiple_scopes_at_once() {
        let mut bapa = IncrementalBapa::default();
        bapa.assert_form(&f("x in s"));
        bapa.push();
        bapa.assert_form(&f("card(s) <= 3"));
        bapa.push();
        bapa.assert_form(&f("card(s) = 0"));
        assert_eq!(bapa.check(), BapaCheck::Unsat);
        bapa.pop_to(0);
        assert_eq!(bapa.depth(), 0);
        assert_eq!(bapa.atom_count(), 1);
        assert_eq!(bapa.check(), BapaCheck::Unknown);
        // A no-op pop_to leaves the revision memo intact.
        bapa.pop_to(0);
        assert_eq!(bapa.atom_count(), 1);
    }

    #[test]
    fn entailment_of_emptiness_and_equalities() {
        let mut bapa = IncrementalBapa::default();
        bapa.assert_form(&f("card(s) = 0"));
        assert!(bapa.entails(&f("s = emptyset")));
        assert!(!bapa.entails(&f("s = t")));
        bapa.assert_form(&f("card(t) = 0"));
        assert!(bapa.entails(&f("s = t")));
    }

    #[test]
    fn unrelated_components_do_not_blow_the_set_limit() {
        let mut bapa = IncrementalBapa::default();
        // Seven sets in total — beyond the monolithic limit of six — but the
        // conflicting component only involves three.
        bapa.assert_form(&f("a subseteq b"));
        bapa.assert_form(&f("c = d union e"));
        bapa.assert_form(&f("f subseteq g"));
        bapa.assert_form(&f("card(b) < card(a)"));
        assert_eq!(bapa.check(), BapaCheck::Unsat);
    }
}
