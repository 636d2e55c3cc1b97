//! Venn-region reduction from BAPA to Presburger arithmetic.
//!
//! Every set variable (including the implicit singleton sets of element
//! variables) partitions the universe; with `n` set variables there are `2^n`
//! Venn regions.  Introducing one non-negative integer variable per region
//! cardinality turns every set-algebra and cardinality atom into linear
//! arithmetic, after which the sentence is decided by [`crate::presburger`].
//!
//! Region `r` lies inside set variable `i` exactly when bit `i` of `r` is
//! set, and its cardinality is variable id `r` of the resulting
//! [`IdLinExpr`]s; the formula's integer variables take the ids after the
//! last region.  A set term denotes a union of regions, kept as a `u64` mask
//! with bit `r` for region `r`: the cap of six set variables gives at most
//! 64 regions.

use crate::expired;
use crate::extract::{BapaForm, IntTerm, SetTerm};
use crate::presburger::{IdLinExpr, PForm};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Maximum number of distinct set variables per component: the Venn
/// construction is exponential in this number, and the region masks are
/// `u64`s.
const MAX_SET_VARS: usize = 6;

/// Name of the implicit singleton set for an element variable.
fn singleton_set(elem: &str) -> String {
    format!("single${elem}")
}

/// Context for the translation: the ordered set variables and the ids of
/// the integer variables.
struct VennCtx {
    sets: Vec<String>,
    ints: BTreeMap<String, usize>,
}

impl VennCtx {
    fn region_count(&self) -> usize {
        1usize << self.sets.len()
    }

    /// The mask of the regions inside a set variable.
    fn set_mask(&self, name: &str) -> u64 {
        let idx = self
            .sets
            .iter()
            .position(|s| s == name)
            .expect("set variable registered during collection");
        (0..self.region_count())
            .filter(|region| region & (1 << idx) != 0)
            .fold(0, |mask, region| mask | 1 << region)
    }

    /// The mask of the regions inside the denotation of a set term.
    fn mask(&self, term: &SetTerm) -> u64 {
        match term {
            SetTerm::Var(name) => self.set_mask(name),
            SetTerm::Empty => 0,
            SetTerm::Singleton(elem) => self.set_mask(&singleton_set(elem)),
            SetTerm::Union(a, b) => self.mask(a) | self.mask(b),
            SetTerm::Inter(a, b) => self.mask(a) & self.mask(b),
            SetTerm::Diff(a, b) => self.mask(a) & !self.mask(b),
        }
    }

    /// The cardinality of a set term as a linear expression over region vars.
    fn card(&self, term: &SetTerm) -> IdLinExpr {
        let mask = self.mask(term);
        let mut expr = IdLinExpr::default();
        for region in 0..self.region_count() {
            if mask & (1 << region) != 0 {
                expr.push_term(region, 1);
            }
        }
        expr
    }

    fn int_term(&self, term: &IntTerm) -> IdLinExpr {
        match term {
            IntTerm::Const(value) => IdLinExpr::constant(*value),
            IntTerm::Var(name) => IdLinExpr::variable(self.ints[name], 1),
            IntTerm::Card(set) => self.card(set),
            IntTerm::Add(a, b) => self.int_term(a).plus(&self.int_term(b), 1),
            IntTerm::Sub(a, b) => self.int_term(a).plus(&self.int_term(b), -1),
            IntTerm::MulConst(k, a) => IdLinExpr::default().plus(&self.int_term(a), *k),
        }
    }

    /// `a - b` as a linear expression.
    fn diff(&self, a: &IntTerm, b: &IntTerm) -> IdLinExpr {
        self.int_term(a).plus(&self.int_term(b), -1)
    }

    fn form(&self, form: &BapaForm) -> PForm {
        match form {
            BapaForm::True => PForm::True,
            BapaForm::False => PForm::False,
            BapaForm::Not(inner) => PForm::not(self.form(inner)),
            BapaForm::And(parts) => PForm::and(parts.iter().map(|p| self.form(p)).collect()),
            BapaForm::Or(parts) => PForm::or(parts.iter().map(|p| self.form(p)).collect()),
            // a <= b  <=>  a - b <= 0
            BapaForm::IntLe(a, b) => PForm::le(self.diff(a, b)),
            // a < b  <=>  a - b + 1 <= 0 (integers)
            BapaForm::IntLt(a, b) => {
                let mut diff = self.diff(a, b);
                diff.shift(1);
                PForm::le(diff)
            }
            BapaForm::IntEq(a, b) => equals_zero(self.diff(a, b)),
            // A = B  <=>  |A \ B| + |B \ A| = 0
            BapaForm::SetEq(a, b) => {
                let sym_diff = SetTerm::Union(
                    Box::new(SetTerm::Diff(Box::new(a.clone()), Box::new(b.clone()))),
                    Box::new(SetTerm::Diff(Box::new(b.clone()), Box::new(a.clone()))),
                );
                equals_zero(self.card(&sym_diff))
            }
            // A subseteq B  <=>  |A \ B| = 0
            BapaForm::Subset(a, b) => {
                let diff = SetTerm::Diff(Box::new(a.clone()), Box::new(b.clone()));
                equals_zero(self.card(&diff))
            }
            // x in S  <=>  |single$x \ S| = 0 (with the global |single$x| = 1)
            BapaForm::Member(elem, set) => {
                let diff = SetTerm::Diff(
                    Box::new(SetTerm::Singleton(elem.clone())),
                    Box::new(set.clone()),
                );
                equals_zero(self.card(&diff))
            }
            // x = y  <=>  single$x = single$y
            BapaForm::ElemEq(a, b) => self.form(&BapaForm::SetEq(
                SetTerm::Singleton(a.clone()),
                SetTerm::Singleton(b.clone()),
            )),
        }
    }
}

/// `expr = 0` as `expr <= 0 /\ -expr <= 0`.
fn equals_zero(expr: IdLinExpr) -> PForm {
    let negated = IdLinExpr::default().plus(&expr, -1);
    PForm::and(vec![PForm::le(expr), PForm::le(negated)])
}

/// Splits the conjuncts of a BAPA conjunction into connected components of
/// the variable-sharing graph: two conjuncts land in the same component when
/// they share a set variable, an element variable or an integer variable.
///
/// The Venn construction is exponential in the number of set variables of the
/// formula it is given, so solving each component separately is the
/// difference between `2^(m+n)` regions and `2^m + 2^n` — and because the
/// fragment has no universe complement, a conjunction is satisfiable exactly
/// when every component is satisfiable on its own universe.  Returned indices
/// partition `parts`.
pub fn components(parts: &[BapaForm]) -> Vec<Vec<usize>> {
    // Union-find over conjunct indices.
    let mut parent: Vec<usize> = (0..parts.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    // First conjunct seen for every variable, namespaced by kind (set /
    // element / integer — extraction classifies every name into one kind, and
    // the translation never links same-named variables of different kinds).
    let mut owner: BTreeMap<(u8, String), usize> = BTreeMap::new();
    for (i, part) in parts.iter().enumerate() {
        let mut sets = BTreeSet::new();
        let mut elems = BTreeSet::new();
        let mut ints = BTreeSet::new();
        part.set_vars(&mut sets);
        part.element_vars(&mut elems);
        part.int_vars(&mut ints);
        let tagged = sets
            .into_iter()
            .map(|v| (0u8, v))
            .chain(elems.into_iter().map(|v| (1u8, v)))
            .chain(ints.into_iter().map(|v| (2u8, v)));
        for key in tagged {
            match owner.get(&key) {
                Some(&j) => {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
                None => {
                    owner.insert(key, i);
                }
            }
        }
    }
    let mut grouped: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..parts.len() {
        let root = find(&mut parent, i);
        grouped.entry(root).or_default().push(i);
    }
    grouped.into_values().collect()
}

/// Flattens a BAPA formula into its top-level conjuncts.
pub fn conjuncts(form: &BapaForm) -> Vec<BapaForm> {
    match form {
        BapaForm::And(parts) => parts.clone(),
        BapaForm::True => Vec::new(),
        other => vec![other.clone()],
    }
}

/// Checks unsatisfiability of a conjunction of BAPA formulas by solving each
/// shared-variable connected component independently.
///
/// A component with more than six set variables is skipped (it can neither
/// prove nor disprove unsatisfiability on its own), so the check degrades
/// gracefully instead of giving up on the whole conjunction.  So is every
/// component left when the deadline passes.
pub fn conjunction_unsatisfiable(parts: &[BapaForm], deadline: Option<Instant>) -> bool {
    for component in components(parts) {
        if expired(deadline) {
            return false;
        }
        if component_unsatisfiable(parts, &component, deadline) {
            return true;
        }
    }
    false
}

/// Decides one shared-variable component (given as indices into `parts`).
/// Shared by the uncached path above and the verdict-caching wrapper in
/// `crate::incremental`, so the component solving logic cannot drift.
pub fn component_unsatisfiable(
    parts: &[BapaForm],
    component: &[usize],
    deadline: Option<Instant>,
) -> bool {
    let formula = BapaForm::and(component.iter().map(|&i| parts[i].clone()).collect());
    match to_presburger(&formula) {
        Some(sentence) => crate::presburger::unsatisfiable(&sentence, deadline),
        None => false,
    }
}

/// Translates a BAPA formula into an existentially closed Presburger sentence
/// whose satisfiability coincides with the satisfiability of the input.
///
/// Returns `None` when the formula has more than six set variables (the Venn
/// construction is exponential in that number).
pub fn to_presburger(form: &BapaForm) -> Option<PForm> {
    let mut set_names: BTreeSet<String> = BTreeSet::new();
    form.set_vars(&mut set_names);
    let mut elem_names: BTreeSet<String> = BTreeSet::new();
    form.element_vars(&mut elem_names);
    for elem in &elem_names {
        set_names.insert(singleton_set(elem));
    }
    if set_names.len() > MAX_SET_VARS {
        return None;
    }
    let region_count = 1usize << set_names.len();
    let mut int_names: BTreeSet<String> = BTreeSet::new();
    form.int_vars(&mut int_names);
    let ctx = VennCtx {
        sets: set_names.into_iter().collect(),
        ints: int_names.into_iter().zip(region_count..).collect(),
    };

    let mut conjuncts = Vec::new();
    // Region cardinalities are non-negative.  Region 0 lies outside every
    // set, so no cardinality mentions it.
    for region in 1..region_count {
        conjuncts.push(PForm::le(IdLinExpr::variable(region, -1)));
    }
    // Every element variable denotes exactly one element: |single$x| = 1.
    for elem in &elem_names {
        let mut card = ctx.card(&SetTerm::Singleton(elem.clone()));
        card.shift(-1);
        conjuncts.push(equals_zero(card));
    }
    conjuncts.push(ctx.form(form));
    let body = PForm::and(conjuncts);

    // Existentially close over every variable (region vars and free int vars).
    let mut vars: BTreeSet<usize> = BTreeSet::new();
    body.collect_vars(&mut vars);
    let mut sentence = body;
    for var in vars {
        sentence = PForm::Exists(var, Box::new(sentence));
    }
    Some(sentence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::presburger::unsatisfiable;
    use ipl_logic::parser::parse_form;

    fn unsat(input: &str) -> bool {
        let form = parse_form(input).unwrap();
        let bapa = extract(&form).expect("formula in fragment");
        let sentence = to_presburger(&bapa).expect("within limits");
        unsatisfiable(&sentence, None)
    }

    #[test]
    fn union_cardinality_upper_bound_is_valid() {
        // Negation of a valid fact must be unsatisfiable.
        assert!(unsat("~(card(a union b) <= card(a) + card(b))"));
    }

    #[test]
    fn intersection_bound() {
        assert!(unsat("~(card(a inter b) <= card(a))"));
    }

    #[test]
    fn singleton_membership_forces_cardinality() {
        assert!(unsat("x in s & card(s) = 0"));
        assert!(!unsat("x in s & card(s) = 1"));
    }

    #[test]
    fn too_many_set_variables_bails_out() {
        let form =
            parse_form("card(a union b union c union d union e union f union g union h) = 0")
                .unwrap();
        let bapa = extract(&form).unwrap();
        assert!(to_presburger(&bapa).is_none());
    }

    #[test]
    fn six_set_variables_fill_the_region_mask() {
        // 64 regions: every bit of the mask.  The intersection of all six
        // sets is region 63, the top bit.
        let six = "a union b union c union d union e union f";
        assert!(unsat(&format!(
            "~(card({six}) <= card(a) + card(b) + card(c) + card(d) + card(e) + card(f))"
        )));
        assert!(unsat(&format!("card({six}) = 0 & card(f) = 1")));
        assert!(!unsat(&format!("card({six}) = 1 & card(f) = 1")));
        assert!(!unsat(
            "card(a inter b inter c inter d inter e inter f) = 1"
        ));
    }

    #[test]
    fn satisfiable_formulas_stay_satisfiable() {
        assert!(!unsat(
            "card(a) = 3 & card(b) = 2 & a subseteq b | card(a) = 0"
        ));
        assert!(!unsat("card(a) = 2 & x in a"));
    }
}
