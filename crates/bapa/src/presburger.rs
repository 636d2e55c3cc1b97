//! Quantifier-free and quantified Presburger arithmetic.
//!
//! Every linear expression is an [`IdLinExpr`]: variables are small integer
//! ids, whether they stand for Venn regions, integer variables of a BAPA
//! formula, or congruence classes of the ground solver.  Two deciders work
//! over it:
//!
//! * **Fourier–Motzkin elimination** over the rationals (with integer
//!   tightening of strict inequalities), which is sound for proving
//!   unsatisfiability and fast.  When it eliminates every variable of a DNF
//!   disjunct without a contradiction, back-substitution in reverse
//!   elimination order gives each variable the least integer its bounds
//!   allow; a point that satisfies the whole quantifier-free body is a
//!   witness of satisfiability ([`fourier_motzkin`]); and
//! * **Cooper's quantifier elimination**, a complete decision procedure for
//!   Presburger sentences, applied to sentences with at most six variables.
//!
//! [`unsatisfiable`] runs Fourier–Motzkin first and Cooper only when it
//! neither refutes the sentence nor finds a witness: it returns `true` only
//! when the sentence is definitely unsatisfiable.  All arithmetic is checked;
//! an `i64` overflow makes a decider give up rather than wrap.

use crate::expired;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Constraint-count give-up cap of Fourier–Motzkin elimination, shared by
/// the Venn decisions (per DNF disjunct) and the ground solver.
pub const FM_MAX_CONSTRAINTS: usize = 20_000;

/// Bodies whose disjunctive normal form has more disjuncts than this are
/// left to Cooper.
const MAX_DNF_DISJUNCTS: usize = 4_096;

/// Sentences with more quantified variables than this are left to
/// Fourier–Motzkin alone.
const MAX_COOPER_VARS: usize = 6;

/// Hard cap on formula nodes produced during quantifier elimination.
const MAX_QE_NODES: usize = 20_000;

/// Presburger formulas.  `Le(e)` means `e <= 0`; `Divides(d, e)` means
/// `d | e`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PForm {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// `expr <= 0`.
    Le(IdLinExpr),
    /// `d` divides `expr` (`d > 0`).
    Divides(i64, IdLinExpr),
    /// Negation.
    Not(Box<PForm>),
    /// Conjunction.
    And(Vec<PForm>),
    /// Disjunction.
    Or(Vec<PForm>),
    /// Existential quantification over the integer variable with this id.
    Exists(usize, Box<PForm>),
}

impl PForm {
    /// `expr <= 0`, with constant folding.
    pub fn le(expr: IdLinExpr) -> PForm {
        if expr.is_constant() {
            if expr.constant <= 0 {
                PForm::True
            } else {
                PForm::False
            }
        } else {
            PForm::Le(expr)
        }
    }

    /// Negation with simplification.
    // Associated smart constructor named after the connective, not an
    // operator on self; `std::ops::Not` would change every call site.
    #[allow(clippy::should_implement_trait)]
    pub fn not(inner: PForm) -> PForm {
        match inner {
            PForm::True => PForm::False,
            PForm::False => PForm::True,
            PForm::Not(inner) => *inner,
            other => PForm::Not(Box::new(other)),
        }
    }

    /// Flattening conjunction.
    pub fn and(parts: Vec<PForm>) -> PForm {
        let mut out = Vec::new();
        for p in parts {
            match p {
                PForm::True => {}
                PForm::False => return PForm::False,
                PForm::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => PForm::True,
            1 => out.pop().expect("len checked"),
            _ => PForm::And(out),
        }
    }

    /// Flattening disjunction.
    pub fn or(parts: Vec<PForm>) -> PForm {
        let mut out = Vec::new();
        for p in parts {
            match p {
                PForm::False => {}
                PForm::True => return PForm::True,
                PForm::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => PForm::False,
            1 => out.pop().expect("len checked"),
            _ => PForm::Or(out),
        }
    }

    /// Collects free variables (quantified variables are excluded).
    pub fn collect_vars(&self, out: &mut BTreeSet<usize>) {
        match self {
            PForm::True | PForm::False => {}
            PForm::Le(e) | PForm::Divides(_, e) => out.extend(e.terms().iter().map(|&(id, _)| id)),
            PForm::Not(inner) => inner.collect_vars(out),
            PForm::And(parts) | PForm::Or(parts) => parts.iter().for_each(|p| p.collect_vars(out)),
            PForm::Exists(var, body) => {
                let mut inner = BTreeSet::new();
                body.collect_vars(&mut inner);
                inner.remove(var);
                out.extend(inner);
            }
        }
    }

    /// Number of nodes (used for quantifier-elimination budgets).
    pub fn size(&self) -> usize {
        match self {
            PForm::True | PForm::False | PForm::Le(_) | PForm::Divides(..) => 1,
            PForm::Not(inner) => 1 + inner.size(),
            PForm::And(parts) | PForm::Or(parts) => {
                1 + parts.iter().map(PForm::size).sum::<usize>()
            }
            PForm::Exists(_, body) => 1 + body.size(),
        }
    }

    /// Negation normal form over the literal set `{Le, Divides}`; `None`
    /// when negating a literal overflows.
    pub fn nnf(&self) -> Option<PForm> {
        self.nnf_signed(true)
    }

    fn nnf_signed(&self, positive: bool) -> Option<PForm> {
        let convert = |parts: &[PForm]| -> Option<Vec<PForm>> {
            parts.iter().map(|p| p.nnf_signed(positive)).collect()
        };
        Some(match self {
            PForm::True | PForm::False if positive => self.clone(),
            PForm::True => PForm::False,
            PForm::False => PForm::True,
            PForm::Le(e) => {
                if positive {
                    PForm::le(e.clone())
                } else {
                    // not (e <= 0)  <=>  e >= 1  <=>  -e + 1 <= 0 (integers)
                    PForm::le(IdLinExpr::constant(1).plus(e, -1)?)
                }
            }
            PForm::Divides(d, e) => {
                if positive {
                    PForm::Divides(*d, e.clone())
                } else {
                    PForm::Not(Box::new(PForm::Divides(*d, e.clone())))
                }
            }
            PForm::Not(inner) => return inner.nnf_signed(!positive),
            PForm::And(parts) => {
                if positive {
                    PForm::and(convert(parts)?)
                } else {
                    PForm::or(convert(parts)?)
                }
            }
            PForm::Or(parts) => {
                if positive {
                    PForm::or(convert(parts)?)
                } else {
                    PForm::and(convert(parts)?)
                }
            }
            PForm::Exists(var, body) => {
                // Quantifiers are only produced at the top level by the Venn
                // translation; a negated existential cannot be put in NNF over
                // this literal language, so keep it (Cooper handles prenex
                // sentences only and the callers guarantee that shape).
                let body = Box::new(body.nnf_signed(true)?);
                if positive {
                    PForm::Exists(*var, body)
                } else {
                    PForm::Not(Box::new(PForm::Exists(*var, body)))
                }
            }
        })
    }

    /// Substitutes a variable by a linear expression in every literal;
    /// `None` on overflow.
    pub fn substitute(&self, var: usize, replacement: &IdLinExpr) -> Option<PForm> {
        let substitute_all = |parts: &[PForm]| -> Option<Vec<PForm>> {
            parts
                .iter()
                .map(|p| p.substitute(var, replacement))
                .collect()
        };
        Some(match self {
            PForm::True | PForm::False => self.clone(),
            PForm::Le(e) => PForm::le(e.substitute(var, replacement)?),
            PForm::Divides(d, e) => PForm::Divides(*d, e.substitute(var, replacement)?),
            PForm::Not(inner) => PForm::not(inner.substitute(var, replacement)?),
            PForm::And(parts) => PForm::and(substitute_all(parts)?),
            PForm::Or(parts) => PForm::or(substitute_all(parts)?),
            PForm::Exists(bound, body) => {
                if *bound == var {
                    self.clone()
                } else {
                    PForm::Exists(*bound, Box::new(body.substitute(var, replacement)?))
                }
            }
        })
    }

    /// Evaluates a quantifier-free formula at an integer point (a closed
    /// formula at the empty point).  `None` when a variable has no value,
    /// the formula has a quantifier, or the arithmetic overflows.
    pub fn eval(&self, point: &Point) -> Option<bool> {
        Some(match self {
            PForm::True => true,
            PForm::False => false,
            PForm::Le(e) => e.eval(point)? <= 0,
            PForm::Divides(d, e) => e.eval(point)?.rem_euclid(*d) == 0,
            PForm::Not(inner) => !inner.eval(point)?,
            PForm::And(parts) => {
                for part in parts {
                    if !part.eval(point)? {
                        return Some(false);
                    }
                }
                true
            }
            PForm::Or(parts) => {
                for part in parts {
                    if part.eval(point)? {
                        return Some(true);
                    }
                }
                false
            }
            PForm::Exists(..) => return None,
        })
    }
}

/// An integer assignment to variable ids.
pub type Point = BTreeMap<usize, i64>;

/// The greatest common divisor, at least 1; `None` when it is `2^63`.
fn gcd(a: i64, b: i64) -> Option<i64> {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    i64::try_from(a.max(1)).ok()
}

/// The least common multiple of two positive numbers; `None` on overflow.
fn lcm(a: i64, b: i64) -> Option<i64> {
    (a / gcd(a, b)?).checked_mul(b)
}

/// Ceiling division for a positive divisor.
fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

// --------------------------------------------------------------------------
// Fourier–Motzkin decision
// --------------------------------------------------------------------------

/// Converts an NNF, quantifier-free formula into disjunctive normal form as a
/// list of conjunctions of `<= 0` constraints.  Divisibility literals are
/// dropped (weakening, hence sound for refutation).  Returns `None` if the
/// DNF exceeds the cap.
fn dnf(form: &PForm, cap: usize) -> Option<Vec<Vec<IdLinExpr>>> {
    match form {
        PForm::True => Some(vec![Vec::new()]),
        PForm::False => Some(vec![]),
        PForm::Le(e) => Some(vec![vec![e.clone()]]),
        PForm::Divides(..) | PForm::Not(_) => Some(vec![Vec::new()]), // dropped
        PForm::And(parts) => {
            let mut acc = vec![Vec::new()];
            for part in parts {
                let branches = dnf(part, cap)?;
                let mut next = Vec::new();
                for a in &acc {
                    for b in &branches {
                        let mut merged = a.clone();
                        merged.extend(b.iter().cloned());
                        next.push(merged);
                        if next.len() > cap {
                            return None;
                        }
                    }
                }
                acc = next;
            }
            Some(acc)
        }
        PForm::Or(parts) => {
            let mut out = Vec::new();
            for part in parts {
                out.extend(dnf(part, cap)?);
                if out.len() > cap {
                    return None;
                }
            }
            Some(out)
        }
        PForm::Exists(_, body) => dnf(body, cap),
    }
}

/// What Fourier–Motzkin elimination decides about a sentence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FmVerdict {
    /// Every DNF disjunct is infeasible: the sentence is unsatisfiable.
    Refuted,
    /// A point at which the whole quantifier-free body is true: the sentence
    /// is satisfiable.
    Witness(Point),
    /// Neither; only Cooper can decide the sentence.
    Open,
}

/// Decides an existential sentence by Fourier–Motzkin elimination on each
/// disjunct of its body's DNF (divisibility literals dropped, which weakens
/// the disjunct).  A disjunct that survives elimination yields a candidate
/// point by back-substitution; it becomes a [`FmVerdict::Witness`] only
/// after the full body, divisibility literals included, evaluates to true at
/// it.  Variables no constraint mentions take the value 0.
pub fn fourier_motzkin(sentence: &PForm) -> FmVerdict {
    let mut body = sentence;
    while let PForm::Exists(_, inner) = body {
        body = inner;
    }
    let Some(disjuncts) = body.nnf().and_then(|nnf| dnf(&nnf, MAX_DNF_DISJUNCTS)) else {
        return FmVerdict::Open;
    };
    let mut vars = BTreeSet::new();
    body.collect_vars(&mut vars);
    let mut refuted = true;
    for disjunct in disjuncts {
        match eliminate(&disjunct, FM_MAX_CONSTRAINTS) {
            Elimination::Refuted => {}
            Elimination::GaveUp => refuted = false,
            Elimination::Feasible(eliminated) => {
                refuted = false;
                let mut point: Point = vars.iter().map(|&var| (var, 0)).collect();
                if back_substitute(&eliminated, &mut point).is_some()
                    && body.eval(&point) == Some(true)
                {
                    return FmVerdict::Witness(point);
                }
            }
        }
    }
    if refuted {
        FmVerdict::Refuted
    } else {
        FmVerdict::Open
    }
}

// --------------------------------------------------------------------------
// Linear expressions and Fourier–Motzkin
// --------------------------------------------------------------------------

/// A linear expression keyed by small integer variable ids:
/// `sum(coeff_i * id_i) + constant`.
///
/// The Venn translator numbers its region and integer variables, and the
/// ground CDCL(T) solver re-keys each constraint onto the current
/// congruence-class representatives, so both reach Fourier–Motzkin and
/// Cooper through this one type.  Terms are a `(id, coefficient)` list
/// sorted by id with no zero coefficients, so combining two expressions is a
/// linear merge and the buffers can be pooled (see [`IdLinExpr::clear`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct IdLinExpr {
    /// `(variable id, coefficient)` pairs, strictly sorted by id once
    /// canonical; zero coefficients are removed by [`IdLinExpr::canonicalize`].
    terms: Vec<(usize, i64)>,
    /// The constant term.
    pub constant: i64,
}

impl IdLinExpr {
    /// The constant expression.
    pub fn constant(value: i64) -> IdLinExpr {
        IdLinExpr {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// The expression `coeff * id`.
    pub fn variable(id: usize, coeff: i64) -> IdLinExpr {
        let mut out = IdLinExpr::default();
        out.push_term(id, coeff);
        out
    }

    /// Returns `self + k * other`; `None` on overflow.
    pub fn plus(&self, other: &IdLinExpr, k: i64) -> Option<IdLinExpr> {
        let mut out = IdLinExpr::default();
        IdLinExpr::combine_into(&mut out, self, 1, other, k)?;
        Some(out)
    }

    /// Removes the variable and returns its former coefficient.  Requires
    /// canonical form.
    pub fn remove(&mut self, id: usize) -> i64 {
        match self.terms.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(i) => self.terms.remove(i).1,
            Err(_) => 0,
        }
    }

    /// Substitutes `id := replacement` (the replacement is itself linear);
    /// `None` on overflow.
    pub fn substitute(&self, id: usize, replacement: &IdLinExpr) -> Option<IdLinExpr> {
        let mut out = self.clone();
        match out.remove(id) {
            0 => Some(out),
            coeff => out.plus(replacement, coeff),
        }
    }

    /// The value at a point; `None` when a variable has no value or the
    /// arithmetic overflows.
    pub fn eval(&self, point: &Point) -> Option<i64> {
        self.terms.iter().try_fold(self.constant, |acc, &(id, c)| {
            acc.checked_add(c.checked_mul(*point.get(&id)?)?)
        })
    }

    /// Clears the expression in place, retaining the term buffer's capacity —
    /// the solver pools these slots across backjumps instead of freeing them.
    pub fn clear(&mut self) {
        self.terms.clear();
        self.constant = 0;
    }

    /// Appends `coeff * id` without normalising.  Call
    /// [`IdLinExpr::canonicalize`] once the expression is fully accumulated.
    pub fn push_term(&mut self, id: usize, coeff: i64) {
        if coeff != 0 {
            self.terms.push((id, coeff));
        }
    }

    /// Sorts the terms by id, merges duplicate ids and drops zero
    /// coefficients.  Returns `None`, leaving the expression unspecified,
    /// when a merged coefficient overflows.
    pub fn canonicalize(&mut self) -> Option<()> {
        self.terms.sort_unstable_by_key(|&(id, _)| id);
        let mut w = 0usize;
        for r in 0..self.terms.len() {
            let (id, k) = self.terms[r];
            if w > 0 && self.terms[w - 1].0 == id {
                self.terms[w - 1].1 = self.terms[w - 1].1.checked_add(k)?;
                if self.terms[w - 1].1 == 0 {
                    w -= 1;
                }
            } else if k != 0 {
                self.terms[w] = (id, k);
                w += 1;
            }
        }
        self.terms.truncate(w);
        Some(())
    }

    /// The `(id, coefficient)` terms (sorted by id once canonical).
    pub fn terms(&self) -> &[(usize, i64)] {
        &self.terms
    }

    /// The coefficient of a variable (zero if absent).  Requires canonical
    /// form.
    pub fn coeff(&self, id: usize) -> i64 {
        self.terms
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|i| self.terms[i].1)
            .unwrap_or(0)
    }

    /// Returns `true` if the expression has no variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Scales the expression in place by a non-zero factor.  Returns
    /// `None`, leaving the expression unspecified, on overflow.
    pub fn scale(&mut self, k: i64) -> Option<()> {
        debug_assert_ne!(k, 0);
        for t in &mut self.terms {
            t.1 = t.1.checked_mul(k)?;
        }
        self.constant = self.constant.checked_mul(k)?;
        Some(())
    }

    /// Adds `k` to the constant term in place; `None`, leaving the
    /// expression unchanged, on overflow.
    pub fn shift(&mut self, k: i64) -> Option<()> {
        self.constant = self.constant.checked_add(k)?;
        Some(())
    }

    /// Writes `ka * a + kb * b` into `out` (cleared first, capacity
    /// retained) by a linear merge of the two sorted term lists.  Returns
    /// `None`, leaving `out` unspecified, on overflow.
    pub fn combine_into(
        out: &mut IdLinExpr,
        a: &IdLinExpr,
        ka: i64,
        b: &IdLinExpr,
        kb: i64,
    ) -> Option<()> {
        let sum = |x: i64, y: i64| ka.checked_mul(x)?.checked_add(kb.checked_mul(y)?);
        out.terms.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.terms.len() || j < b.terms.len() {
            let next = match (a.terms.get(i), b.terms.get(j)) {
                (Some(&(ia, ca)), Some(&(ib, cb))) => {
                    if ia == ib {
                        i += 1;
                        j += 1;
                        (ia, sum(ca, cb)?)
                    } else if ia < ib {
                        i += 1;
                        (ia, sum(ca, 0)?)
                    } else {
                        j += 1;
                        (ib, sum(0, cb)?)
                    }
                }
                (Some(&(ia, ca)), None) => {
                    i += 1;
                    (ia, sum(ca, 0)?)
                }
                (None, Some(&(ib, cb))) => {
                    j += 1;
                    (ib, sum(0, cb)?)
                }
                (None, None) => unreachable!("loop condition"),
            };
            if next.1 != 0 {
                out.terms.push(next);
            }
        }
        out.constant = sum(a.constant, b.constant)?;
        Some(())
    }

    /// Normalises one constraint `self <= 0`: divides by the gcd of the
    /// coefficients and rounds the constant towards the tighter integer
    /// bound.  `None` when the gcd overflows.
    fn normalise_le(&mut self) -> Option<()> {
        let mut g = 0i64;
        for &(_, c) in &self.terms {
            g = gcd(g, c)?;
        }
        if g > 1 {
            for t in &mut self.terms {
                t.1 /= g;
            }
            self.constant = div_ceil(self.constant, g);
        }
        Some(())
    }
}

/// How Fourier–Motzkin elimination of a conjunction ended.
enum Elimination {
    /// The conjunction has no integer solution.
    Refuted,
    /// Too many constraints or an overflow: nothing is known.
    GaveUp,
    /// Every variable was eliminated without a contradiction.  Each entry is
    /// a variable with the constraints that bounded it when it was
    /// eliminated, in elimination order.
    Feasible(Vec<(usize, Vec<IdLinExpr>)>),
}

/// Fourier–Motzkin elimination over a conjunction of `expr <= 0`
/// constraints, with gcd normalisation and integer tightening (so
/// [`Elimination::Refuted`] means no integer solution).  Eliminates the
/// variable that produces the fewest new constraints, the lowest id on ties,
/// and gives up once more than `max_constraints` are live.
fn eliminate(constraints: &[IdLinExpr], max_constraints: usize) -> Elimination {
    let mut les: Vec<IdLinExpr> = constraints.to_vec();
    let mut eliminated = Vec::new();
    // (variable, lower-bound count, upper-bound count) aggregation scratch.
    let mut counts: Vec<(usize, usize, usize)> = Vec::new();
    loop {
        for le in &mut les {
            if le.normalise_le().is_none() {
                return Elimination::GaveUp;
            }
        }
        les.sort_unstable();
        les.dedup();
        // Constant contradictions?
        if les.iter().any(|le| le.is_constant() && le.constant > 0) {
            return Elimination::Refuted;
        }
        // Pick the variable whose elimination produces the fewest new
        // constraints (classic Fourier–Motzkin heuristic).
        counts.clear();
        for le in &les {
            for &(id, c) in le.terms() {
                counts.push((id, usize::from(c < 0), usize::from(c > 0)));
            }
        }
        counts.sort_unstable_by_key(|&(id, _, _)| id);
        counts.dedup_by(|next, prev| {
            if prev.0 == next.0 {
                prev.1 += next.1;
                prev.2 += next.2;
                true
            } else {
                false
            }
        });
        let var = match counts.iter().min_by_key(|&&(_, lo, up)| lo * up) {
            Some(&(id, _, _)) => id,
            None => return Elimination::Feasible(eliminated),
        };
        let (bounds, mut rest): (Vec<IdLinExpr>, Vec<IdLinExpr>) =
            les.drain(..).partition(|le| le.coeff(var) != 0);
        // Combine every upper bound  c_u*x + r_u <= 0  (c_u > 0) with every
        // lower bound  c_l*x + r_l <= 0  (c_l < 0) by the positive
        // combination |c_l| * upper + c_u * lower, which cancels x.
        for upper in bounds.iter().filter(|b| b.coeff(var) > 0) {
            for lower in bounds.iter().filter(|b| b.coeff(var) < 0) {
                let cu = upper.coeff(var);
                let cl = lower.coeff(var).abs();
                let mut combined = IdLinExpr::default();
                if IdLinExpr::combine_into(&mut combined, upper, cl, lower, cu).is_none() {
                    return Elimination::GaveUp;
                }
                debug_assert_eq!(combined.coeff(var), 0);
                rest.push(combined);
            }
        }
        if rest.len() > max_constraints {
            return Elimination::GaveUp; // give up rather than blow up
        }
        eliminated.push((var, bounds));
        les = rest;
    }
}

/// Returns `true` if the conjunction of `expr <= 0` constraints has no
/// integer solution by Fourier–Motzkin elimination, and `false` when it has
/// one or elimination gives up (more than `max_constraints` live
/// constraints, or an overflow).  The ground solver hands its constraints
/// straight in, skipping the NNF/DNF detour of [`fourier_motzkin`].
pub fn id_conjunction_infeasible(constraints: &[IdLinExpr], max_constraints: usize) -> bool {
    matches!(
        eliminate(constraints, max_constraints),
        Elimination::Refuted
    )
}

/// Back-substitutes through a feasible elimination in reverse order, giving
/// each variable the least integer its recorded bounds allow at the values
/// already chosen (0 when it has no lower bound, or its upper bound if that
/// is below 0).  Writes the values into `point`; `None` when some bounds
/// admit no integer or the arithmetic overflows.
fn back_substitute(eliminated: &[(usize, Vec<IdLinExpr>)], point: &mut Point) -> Option<()> {
    for (var, bounds) in eliminated.iter().rev() {
        // With `var` at 0, a bound evaluates to everything but its own term.
        point.insert(*var, 0);
        let (mut lo, mut hi) = (None::<i64>, None::<i64>);
        for bound in bounds {
            let c = bound.coeff(*var);
            let rest = bound.eval(point)?;
            if c > 0 {
                // c*var + rest <= 0  <=>  var <= floor(-rest / c)
                let upper = rest.checked_neg()?.div_euclid(c);
                hi = Some(hi.map_or(upper, |hi| hi.min(upper)));
            } else {
                // c*var + rest <= 0  <=>  var >= ceil(rest / -c)
                let lower = div_ceil(rest, c.checked_neg()?);
                lo = Some(lo.map_or(lower, |lo| lo.max(lower)));
            }
        }
        let value = lo.unwrap_or_else(|| hi.map_or(0, |hi| hi.min(0)));
        if hi.is_some_and(|hi| value > hi) {
            return None;
        }
        point.insert(*var, value);
    }
    Some(())
}

// --------------------------------------------------------------------------
// Cooper's algorithm
// --------------------------------------------------------------------------

/// Eliminates one existential quantifier `exists x. body` where `body` is
/// quantifier-free and in NNF.  Returns `None` if the result would exceed the
/// node budget or the arithmetic overflows.
fn cooper_eliminate(var: usize, body: &PForm) -> Option<PForm> {
    // 1. Compute the lcm of the coefficients of `var`.
    let coeff_lcm = collect_coeff_lcm(body, var, 1)?;
    // 2. Scale every literal so the coefficient of var is +-coeff_lcm, then
    //    conceptually substitute y = coeff_lcm * var and add coeff_lcm | y.
    let scaled = PForm::and(vec![
        scale_var(body, var, coeff_lcm)?,
        PForm::Divides(coeff_lcm, IdLinExpr::variable(var, 1)),
    ]);
    // 3. delta = lcm of the divisors of all divisibility literals.
    let delta = collect_divisor_lcm(&scaled, var, 1)?;
    // 4. Lower bounds: literals of the form  -y + b <= 0  (i.e. y >= b).
    let mut lower_bounds: Vec<IdLinExpr> = Vec::new();
    collect_lower_bounds(&scaled, var, &mut lower_bounds)?;

    let minus_inf = minus_infinity(&scaled, var);
    let mut disjuncts = Vec::new();
    for j in 1..=delta {
        // F_{-infinity}[y := j]
        disjuncts.push(minus_inf.substitute(var, &IdLinExpr::constant(j))?);
        // F[y := b + j] for every lower bound b.
        for bound in &lower_bounds {
            let mut shifted = bound.clone();
            shifted.shift(j)?;
            disjuncts.push(scaled.substitute(var, &shifted)?);
        }
        let total: usize = disjuncts.iter().map(PForm::size).sum();
        if total > MAX_QE_NODES {
            return None;
        }
    }
    Some(PForm::or(disjuncts))
}

/// Folds the lcm of the coefficients of `var` into `acc`; `None` on
/// overflow.
fn collect_coeff_lcm(form: &PForm, var: usize, acc: i64) -> Option<i64> {
    match form {
        PForm::Le(e) | PForm::Divides(_, e) => match e.coeff(var) {
            0 => Some(acc),
            c => lcm(acc, c.checked_abs()?),
        },
        PForm::Not(inner) => collect_coeff_lcm(inner, var, acc),
        PForm::And(parts) | PForm::Or(parts) => parts
            .iter()
            .try_fold(acc, |acc, p| collect_coeff_lcm(p, var, acc)),
        _ => Some(acc),
    }
}

/// Scales literals so the coefficient of `var` becomes `+-target` and then
/// renames `target*var` to just `var` (the standard Cooper step); `None` on
/// overflow.
fn scale_var(form: &PForm, var: usize, target: i64) -> Option<PForm> {
    // `target` is a multiple of every coefficient of `var`.
    let rescale = |e: &IdLinExpr, c: i64| {
        let mut scaled = IdLinExpr::default().plus(e, target / c.abs())?;
        scaled.remove(var);
        scaled.plus(&IdLinExpr::variable(var, c.signum()), 1)
    };
    let scale_all = |parts: &[PForm]| -> Option<Vec<PForm>> {
        parts.iter().map(|p| scale_var(p, var, target)).collect()
    };
    Some(match form {
        PForm::Le(e) => match e.coeff(var) {
            0 => PForm::le(e.clone()),
            c => PForm::Le(rescale(e, c)?),
        },
        PForm::Divides(d, e) => match e.coeff(var) {
            0 => PForm::Divides(*d, e.clone()),
            c => PForm::Divides(d.checked_mul(target / c.abs())?, rescale(e, c)?),
        },
        PForm::Not(inner) => PForm::Not(Box::new(scale_var(inner, var, target)?)),
        PForm::And(parts) => PForm::and(scale_all(parts)?),
        PForm::Or(parts) => PForm::or(scale_all(parts)?),
        other => other.clone(),
    })
}

/// Folds the lcm of the divisors of the divisibility literals that mention
/// `var` into `acc`; `None` on overflow.
fn collect_divisor_lcm(form: &PForm, var: usize, acc: i64) -> Option<i64> {
    match form {
        PForm::Divides(d, e) if e.coeff(var) != 0 => lcm(acc, *d),
        PForm::Not(inner) => collect_divisor_lcm(inner, var, acc),
        PForm::And(parts) | PForm::Or(parts) => parts
            .iter()
            .try_fold(acc, |acc, p| collect_divisor_lcm(p, var, acc)),
        _ => Some(acc),
    }
}

/// Collects Cooper's B-set for `var`; `None` on overflow.
fn collect_lower_bounds(form: &PForm, var: usize, out: &mut Vec<IdLinExpr>) -> Option<()> {
    match form {
        // -var + rest <= 0  means  var >= rest, i.e. the *strict* lower
        // bound used by Cooper's B-set is rest - 1.
        PForm::Le(e) if e.coeff(var) == -1 => {
            let mut rest = e.clone();
            rest.remove(var);
            rest.shift(-1)?;
            out.push(rest);
        }
        PForm::Not(inner) => collect_lower_bounds(inner, var, out)?,
        PForm::And(parts) | PForm::Or(parts) => {
            for part in parts {
                collect_lower_bounds(part, var, out)?;
            }
        }
        _ => {}
    }
    Some(())
}

/// The `F_{-infinity}` transformation: upper-bound literals become true,
/// lower-bound literals become false.
fn minus_infinity(form: &PForm, var: usize) -> PForm {
    match form {
        PForm::Le(e) => match e.coeff(var) {
            0 => PForm::le(e.clone()),
            c if c > 0 => PForm::True, // var <= something: true at -infinity
            _ => PForm::False,         // var >= something: false at -infinity
        },
        PForm::Divides(..) => form.clone(),
        PForm::Not(inner) => PForm::not(minus_infinity(inner, var)),
        PForm::And(parts) => PForm::and(parts.iter().map(|p| minus_infinity(p, var)).collect()),
        PForm::Or(parts) => PForm::or(parts.iter().map(|p| minus_infinity(p, var)).collect()),
        other => other.clone(),
    }
}

/// Decides a prenex existential sentence `exists x1 ... xn. body` with
/// Cooper's algorithm.  Returns `None` if the sentence has more than six
/// variables or free variables, the quantifier-elimination budget is
/// exceeded, the arithmetic overflows, or the deadline passes.
pub fn cooper_decide(sentence: &PForm, deadline: Option<Instant>) -> Option<bool> {
    // Peel the existential prefix.
    let mut vars = Vec::new();
    let mut body = sentence;
    while let PForm::Exists(var, inner) = body {
        vars.push(*var);
        body = inner;
    }
    if vars.len() > MAX_COOPER_VARS {
        return None;
    }
    let mut current = body.nnf()?;
    // Eliminate innermost-first (reverse declaration order).
    for &var in vars.iter().rev() {
        if expired(deadline) {
            return None;
        }
        current = cooper_eliminate(var, &current)?.nnf()?;
        if current.size() > MAX_QE_NODES {
            return None;
        }
    }
    // A variable left over means non-prenex input: `eval` refuses it.
    current.eval(&Point::new())
}

/// Returns `true` only if the sentence is definitely unsatisfiable: Cooper
/// runs only when Fourier–Motzkin neither refutes the sentence nor finds a
/// witness for it.
pub fn unsatisfiable(sentence: &PForm, deadline: Option<Instant>) -> bool {
    match fourier_motzkin(sentence) {
        FmVerdict::Refuted => true,
        FmVerdict::Witness(_) => false,
        FmVerdict::Open => cooper_decide(sentence, deadline) == Some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::venn::to_presburger;
    use ipl_logic::parser::parse_form;

    const X: usize = 0;
    const Y: usize = 1;

    /// `sum(coeff * id) + constant`.
    fn lin(terms: &[(usize, i64)], constant: i64) -> IdLinExpr {
        let mut out = IdLinExpr::constant(constant);
        for &(id, coeff) in terms {
            out.push_term(id, coeff);
        }
        out.canonicalize().unwrap();
        out
    }

    fn exists_all(vars: &[usize], body: PForm) -> PForm {
        let mut out = body;
        for &var in vars.iter().rev() {
            out = PForm::Exists(var, Box::new(out));
        }
        out
    }

    #[test]
    fn linear_expression_algebra() {
        let e = IdLinExpr::variable(X, 2)
            .plus(&lin(&[(Y, -1)], 3), 1)
            .unwrap();
        assert_eq!(e.coeff(X), 2);
        assert_eq!(e.coeff(Y), -1);
        assert_eq!(e.constant, 3);
        let s = e.substitute(X, &lin(&[(Y, 1)], 1)).unwrap();
        assert_eq!(s.coeff(X), 0);
        assert_eq!(s.coeff(Y), 1);
        assert_eq!(s.constant, 5);
        let mut r = s.clone();
        assert_eq!(r.remove(Y), 1);
        assert_eq!(r.remove(Y), 0);
        assert!(r.is_constant());
        assert_eq!(
            s.substitute(X, &lin(&[], 7)),
            Some(s.clone()),
            "absent variable"
        );
        assert_eq!(s.plus(&lin(&[(Y, i64::MAX)], 0), 1), None, "overflow");
        let point = Point::from([(Y, 4)]);
        assert_eq!(s.eval(&point), Some(9));
        assert_eq!(e.eval(&point), None, "x has no value");
    }

    #[test]
    fn fm_detects_simple_contradiction() {
        // x <= 0  and  x >= 1
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, 1)], 0)),
            PForm::le(lin(&[(X, -1)], 1)),
        ]);
        assert_eq!(fourier_motzkin(&body), FmVerdict::Refuted);
    }

    #[test]
    fn fm_does_not_claim_satisfiable_systems_unsat() {
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -1)], 0)),  // x >= 0
            PForm::le(lin(&[(X, 1)], -10)), // x <= 10
        ]);
        assert_eq!(
            fourier_motzkin(&body),
            FmVerdict::Witness(Point::from([(X, 0)]))
        );
    }

    #[test]
    fn fm_finds_the_least_witness_of_satisfiable_systems() {
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -1)], 3)),  // x >= 3
            PForm::le(lin(&[(X, 1)], -10)), // x <= 10
            PForm::le(lin(&[(Y, 1)], 2)),   // y <= -2
        ]);
        assert_eq!(
            fourier_motzkin(&exists_all(&[X, Y], body)),
            FmVerdict::Witness(Point::from([(X, 3), (Y, -2)]))
        );
    }

    #[test]
    fn fm_witness_must_satisfy_the_dropped_literals() {
        // 1 <= x <= 5 /\ 2 | x /\ 3 | x: elimination ignores the
        // divisibility literals and proposes x = 1, which the full body
        // rejects, so the sentence stays open and Cooper refutes it.
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -1)], 1)),
            PForm::le(lin(&[(X, 1)], -5)),
            PForm::Divides(2, lin(&[(X, 1)], 0)),
            PForm::Divides(3, lin(&[(X, 1)], 0)),
        ]);
        let sentence = exists_all(&[X], body);
        assert_eq!(fourier_motzkin(&sentence), FmVerdict::Open);
        assert!(unsatisfiable(&sentence, None));
    }

    #[test]
    fn fm_witness_comes_from_any_disjunct() {
        // (x >= 1 /\ x <= 0) \/ x = 4: the first disjunct is refuted, the
        // second yields the witness.
        let body = PForm::or(vec![
            PForm::and(vec![
                PForm::le(lin(&[(X, -1)], 1)),
                PForm::le(lin(&[(X, 1)], 0)),
            ]),
            PForm::and(vec![
                PForm::le(lin(&[(X, 1)], -4)),
                PForm::le(lin(&[(X, -1)], 4)),
            ]),
        ]);
        assert_eq!(
            fourier_motzkin(&exists_all(&[X], body)),
            FmVerdict::Witness(Point::from([(X, 4)]))
        );
    }

    #[test]
    fn cooper_decides_satisfiable_sentence() {
        // exists x. x >= 0 /\ x <= 10
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -1)], 0)),
            PForm::le(lin(&[(X, 1)], -10)),
        ]);
        let sentence = exists_all(&[X], body);
        assert_eq!(cooper_decide(&sentence, None), Some(true));
    }

    #[test]
    fn cooper_decides_unsatisfiable_sentence() {
        // exists x. x >= 1 /\ x <= 0
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -1)], 1)),
            PForm::le(lin(&[(X, 1)], 0)),
        ]);
        let sentence = exists_all(&[X], body);
        assert_eq!(cooper_decide(&sentence, None), Some(false));
    }

    #[test]
    fn cooper_handles_divisibility() {
        // exists x. 0 <= x <= 5 /\ 2 | x /\ 3 | x  -> x = 0 works, satisfiable.
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -1)], 0)),
            PForm::le(lin(&[(X, 1)], -5)),
            PForm::Divides(2, lin(&[(X, 1)], 0)),
            PForm::Divides(3, lin(&[(X, 1)], 0)),
        ]);
        assert_eq!(cooper_decide(&exists_all(&[X], body), None), Some(true));

        // exists x. 1 <= x <= 5 /\ 2 | x /\ 3 | x  -> needs x = 6, unsatisfiable.
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -1)], 1)),
            PForm::le(lin(&[(X, 1)], -5)),
            PForm::Divides(2, lin(&[(X, 1)], 0)),
            PForm::Divides(3, lin(&[(X, 1)], 0)),
        ]);
        assert_eq!(cooper_decide(&exists_all(&[X], body), None), Some(false));
    }

    #[test]
    fn cooper_with_two_variables() {
        // exists x y. x = 2y /\ x = 2y + 1  is unsatisfiable.
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, 1), (Y, -2)], 0)),
            PForm::le(lin(&[(X, -1), (Y, 2)], 0)),
            PForm::le(lin(&[(X, 1), (Y, -2)], -1)),
            PForm::le(lin(&[(X, -1), (Y, 2)], 1)),
        ]);
        assert_eq!(cooper_decide(&exists_all(&[X, Y], body), None), Some(false));
    }

    #[test]
    fn cooper_scaled_coefficients() {
        // exists x. 2x >= 3 /\ 2x <= 4  -> x = 2, satisfiable.
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -2)], 3)),
            PForm::le(lin(&[(X, 2)], -4)),
        ]);
        assert_eq!(cooper_decide(&exists_all(&[X], body), None), Some(true));

        // exists x. 2x >= 3 /\ 2x <= 3  -> 2x = 3 has no integer solution.
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -2)], 3)),
            PForm::le(lin(&[(X, 2)], -3)),
        ]);
        assert_eq!(cooper_decide(&exists_all(&[X], body), None), Some(false));
    }

    #[test]
    fn unsatisfiable_combines_both_engines() {
        // -2x - 3y - 5 <= 0, 3x + 2y + 2 <= 0, -x + 2y + 4 <= 0: rationally
        // feasible for y in [-2.2, -1.75] (e.g. x = 0.2, y = -2), but no
        // integer point satisfies it.  FM can neither refute it nor
        // back-substitute a witness; Cooper refutes it.
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -2), (Y, -3)], -5)),
            PForm::le(lin(&[(X, 3), (Y, 2)], 2)),
            PForm::le(lin(&[(X, -1), (Y, 2)], 4)),
        ]);
        let sentence = exists_all(&[X, Y], body);
        assert_eq!(fourier_motzkin(&sentence), FmVerdict::Open);
        assert_eq!(cooper_decide(&sentence, None), Some(false));
        assert!(unsatisfiable(&sentence, None));
    }

    #[test]
    fn negated_le_tightens_for_integers() {
        // not(x <= 0) became x >= 1 in NNF: so x <= 0 /\ not(x <= 0) is unsat.
        let x_le_0 = PForm::le(lin(&[(X, 1)], 0));
        let body = PForm::and(vec![x_le_0.clone(), PForm::not(x_le_0)]);
        assert_eq!(fourier_motzkin(&body), FmVerdict::Refuted);
    }

    #[test]
    fn id_expression_canonicalization_and_merge() {
        let mut e = IdLinExpr::constant(3);
        e.push_term(7, 2);
        e.push_term(2, -1);
        e.push_term(7, -2);
        e.push_term(4, 5);
        assert_eq!(e.canonicalize(), Some(()));
        assert_eq!(e.terms(), &[(2, -1), (4, 5)]);
        assert_eq!(e.coeff(7), 0);
        assert_eq!(e.coeff(4), 5);
        let mut f = IdLinExpr::constant(-1);
        f.push_term(4, -5);
        f.push_term(9, 1);
        f.canonicalize().unwrap();
        let mut out = IdLinExpr::default();
        assert_eq!(IdLinExpr::combine_into(&mut out, &e, 1, &f, 1), Some(()));
        assert_eq!(out.terms(), &[(2, -1), (9, 1)]);
        assert_eq!(out.constant, 2);
        assert_eq!(IdLinExpr::combine_into(&mut out, &e, 2, &f, -3), Some(()));
        assert_eq!(out.coeff(4), 25);
        assert_eq!(out.constant, 9);
        assert_eq!(IdLinExpr::combine_into(&mut out, &e, i64::MAX, &f, 1), None);
        let mut merged = IdLinExpr::variable(1, i64::MAX);
        merged.push_term(1, 1);
        assert_eq!(merged.canonicalize(), None);
        assert_eq!(IdLinExpr::constant(i64::MAX).shift(1), None);
        assert_eq!(IdLinExpr::variable(1, i64::MIN).scale(-1), None);
    }

    #[test]
    fn id_fm_detects_simple_contradiction() {
        // x <= 0  and  x >= 1.
        let le = lin(&[(X, 1)], 0);
        let ge = lin(&[(X, -1)], 1);
        assert!(id_conjunction_infeasible(&[le.clone(), ge], 20_000));
        assert!(!id_conjunction_infeasible(&[le], 20_000));
    }

    #[test]
    fn id_fm_tightens_scaled_constraints() {
        // 2x <= -3 and 2x >= -3: rationally a point, but gcd tightening
        // rounds 2x <= -3 down to x <= -2 and 2x >= -3 up to x >= -1.
        let upper = lin(&[(X, 2)], 3);
        let lower = lin(&[(X, -2)], -3);
        assert!(id_conjunction_infeasible(&[upper, lower], 20_000));
    }

    #[test]
    fn fm_overflow_gives_up_instead_of_refuting() {
        // x <= 3, y <= 2^62 * x, y >= 0 holds at x = y = 0.  Eliminating x
        // multiplies x - 3 by 2^62, and the wrapped constant 2^62 used to
        // contradict y >= 0.
        let system = [
            lin(&[(X, 1)], -3),
            lin(&[(X, -(1 << 62)), (Y, 1)], 0),
            lin(&[(Y, -1)], 0),
        ];
        assert!(!id_conjunction_infeasible(&system, 20_000));
        let sentence = exists_all(&[X, Y], PForm::and(system.map(PForm::le).to_vec()));
        assert!(!unsatisfiable(&sentence, None));
        // i64::MIN has no absolute value: normalisation gives up too.
        assert!(!id_conjunction_infeasible(
            &[lin(&[(X, i64::MIN)], 1)],
            20_000
        ));
        assert_eq!(gcd(i64::MIN, 0), None);
        assert_eq!(lcm(1 << 62, 3), None);
    }

    #[test]
    fn satisfiable_hash_table_component_gets_a_witness() {
        // The shape of a Hash Table `put` component: five set variables
        // (32 Venn regions, 31 of them mentioned) and six integer variables.
        let form = parse_form(
            "content1 = content union {k} & ~(k in content) & bucket subseteq content \
             & bucket1 = bucket union {k} & card(content) = size & card(content1) = size1 \
             & card(bucket) = b & card(bucket1) = b1 & size1 = size + 1 & b1 = b + 1 \
             & size1 <= cap & cap = spare + size1",
        )
        .unwrap();
        let sentence = to_presburger(&extract(&form).unwrap()).unwrap();
        let mut vars = BTreeSet::new();
        sentence.collect_vars(&mut vars);
        assert!(vars.is_empty(), "closed sentence");
        let mut body = &sentence;
        while let PForm::Exists(var, inner) = body {
            vars.insert(*var);
            body = inner;
        }
        assert_eq!(vars.len(), 37);
        match fourier_motzkin(&sentence) {
            FmVerdict::Witness(point) => {
                assert_eq!(point.len(), 37);
                assert_eq!(body.eval(&point), Some(true));
            }
            other => panic!("expected a witness, got {other:?}"),
        }
        assert!(!unsatisfiable(&sentence, None));
    }

    /// The direct conjunction path and the NNF/DNF path must agree on every
    /// pure conjunction: the ground solver uses the former and the Venn
    /// decisions the latter, so a divergence here is a soundness bug in one
    /// of them.  A witness the DNF path finds must satisfy the conjunction.
    #[test]
    fn conjunction_fm_agrees_with_dnf_fm_on_random_conjunctions() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let n_constraints = 1 + (next() % 6) as usize;
            let n_vars = 1 + (next() % 4) as usize;
            let mut les = Vec::new();
            for _ in 0..n_constraints {
                let mut le = IdLinExpr::constant((next() % 9) as i64 - 4);
                for var in 0..n_vars {
                    le.push_term(var, (next() % 7) as i64 - 3);
                }
                le.canonicalize().unwrap();
                les.push(le);
            }
            let conjunction_verdict = id_conjunction_infeasible(&les, 20_000);
            let body = PForm::and(les.iter().cloned().map(PForm::le).collect());
            let dnf_verdict = fourier_motzkin(&body);
            assert_eq!(
                conjunction_verdict,
                dnf_verdict == FmVerdict::Refuted,
                "diverged on {les:?}"
            );
            if let FmVerdict::Witness(point) = dnf_verdict {
                assert_eq!(body.eval(&point), Some(true), "bad witness for {les:?}");
            }
        }
    }
}
