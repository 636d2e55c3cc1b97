//! Quantifier-free and quantified Presburger arithmetic.
//!
//! Every linear expression is an [`IdLinExpr`]: variables are small integer
//! ids, whether they stand for Venn regions, integer variables of a BAPA
//! formula, or congruence classes of the ground solver.  Two deciders work
//! over it:
//!
//! * a **Fourier–Motzkin refutation** over the rationals (with integer
//!   tightening of strict inequalities), which is sound for proving
//!   unsatisfiability and fast; and
//! * **Cooper's quantifier elimination**, a complete decision procedure for
//!   Presburger sentences, applied to sentences with at most six variables.
//!
//! [`unsatisfiable`] runs Fourier–Motzkin first and Cooper only when that
//! fails: it returns `true` only when the sentence is definitely
//! unsatisfiable.

use crate::expired;
use std::collections::BTreeSet;
use std::time::Instant;

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

    /// Negation normal form over the literal set `{Le, Divides}`.
    pub fn nnf(&self) -> PForm {
        self.nnf_signed(true)
    }

    fn nnf_signed(&self, positive: bool) -> PForm {
        match self {
            PForm::True => {
                if positive {
                    PForm::True
                } else {
                    PForm::False
                }
            }
            PForm::False => {
                if positive {
                    PForm::False
                } else {
                    PForm::True
                }
            }
            PForm::Le(e) => {
                if positive {
                    PForm::le(e.clone())
                } else {
                    // not (e <= 0)  <=>  e >= 1  <=>  -e + 1 <= 0 (integers)
                    PForm::le(IdLinExpr::constant(1).plus(e, -1))
                }
            }
            PForm::Divides(d, e) => {
                if positive {
                    PForm::Divides(*d, e.clone())
                } else {
                    PForm::Not(Box::new(PForm::Divides(*d, e.clone())))
                }
            }
            PForm::Not(inner) => inner.nnf_signed(!positive),
            PForm::And(parts) => {
                let converted: Vec<PForm> = parts.iter().map(|p| p.nnf_signed(positive)).collect();
                if positive {
                    PForm::and(converted)
                } else {
                    PForm::or(converted)
                }
            }
            PForm::Or(parts) => {
                let converted: Vec<PForm> = parts.iter().map(|p| p.nnf_signed(positive)).collect();
                if positive {
                    PForm::or(converted)
                } else {
                    PForm::and(converted)
                }
            }
            PForm::Exists(var, body) => {
                // Quantifiers are only produced at the top level by the Venn
                // translation; a negated existential cannot be put in NNF over
                // this literal language, so keep it (Cooper handles prenex
                // sentences only and the callers guarantee that shape).
                if positive {
                    PForm::Exists(*var, Box::new(body.nnf_signed(true)))
                } else {
                    PForm::Not(Box::new(PForm::Exists(
                        *var,
                        Box::new(body.nnf_signed(true)),
                    )))
                }
            }
        }
    }

    /// Substitutes a variable by a linear expression in every literal.
    pub fn substitute(&self, var: usize, replacement: &IdLinExpr) -> PForm {
        match self {
            PForm::True | PForm::False => self.clone(),
            PForm::Le(e) => PForm::le(e.substitute(var, replacement)),
            PForm::Divides(d, e) => PForm::Divides(*d, e.substitute(var, replacement)),
            PForm::Not(inner) => PForm::not(inner.substitute(var, replacement)),
            PForm::And(parts) => PForm::and(
                parts
                    .iter()
                    .map(|p| p.substitute(var, replacement))
                    .collect(),
            ),
            PForm::Or(parts) => PForm::or(
                parts
                    .iter()
                    .map(|p| p.substitute(var, replacement))
                    .collect(),
            ),
            PForm::Exists(bound, body) => {
                if *bound == var {
                    self.clone()
                } else {
                    PForm::Exists(*bound, Box::new(body.substitute(var, replacement)))
                }
            }
        }
    }

    /// Evaluates a variable-free formula.
    ///
    /// # Panics
    ///
    /// Panics if the formula still contains variables or quantifiers.
    pub fn eval_closed(&self) -> bool {
        match self {
            PForm::True => true,
            PForm::False => false,
            PForm::Le(e) => {
                assert!(e.is_constant(), "eval_closed on open formula");
                e.constant <= 0
            }
            PForm::Divides(d, e) => {
                assert!(e.is_constant(), "eval_closed on open formula");
                e.constant.rem_euclid(*d) == 0
            }
            PForm::Not(inner) => !inner.eval_closed(),
            PForm::And(parts) => parts.iter().all(PForm::eval_closed),
            PForm::Or(parts) => parts.iter().any(PForm::eval_closed),
            PForm::Exists(..) => panic!("eval_closed on quantified formula"),
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

fn lcm(a: i64, b: i64) -> i64 {
    (a / gcd(a, b)).saturating_mul(b).abs().max(1)
}

/// Ceiling division for a positive divisor.
fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

// --------------------------------------------------------------------------
// Fourier–Motzkin refutation
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

/// Sound unsatisfiability check by rational Fourier–Motzkin on the DNF:
/// every disjunct goes through [`id_conjunction_infeasible`].
pub fn fm_unsatisfiable(body: &PForm) -> bool {
    match dnf(&body.nnf(), 4_096) {
        Some(conjuncts) => conjuncts
            .into_iter()
            .all(|c| id_conjunction_infeasible(&c, 20_000)),
        None => false,
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

    /// Returns `self + k * other`.
    pub fn plus(&self, other: &IdLinExpr, k: i64) -> IdLinExpr {
        let mut out = IdLinExpr::default();
        IdLinExpr::combine_into(&mut out, self, 1, other, k);
        out
    }

    /// Removes the variable and returns its former coefficient.  Requires
    /// canonical form.
    pub fn remove(&mut self, id: usize) -> i64 {
        match self.terms.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(i) => self.terms.remove(i).1,
            Err(_) => 0,
        }
    }

    /// Substitutes `id := replacement` (the replacement is itself linear).
    pub fn substitute(&self, id: usize, replacement: &IdLinExpr) -> IdLinExpr {
        let mut out = self.clone();
        match out.remove(id) {
            0 => out,
            coeff => out.plus(replacement, coeff),
        }
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
    /// coefficients.
    pub fn canonicalize(&mut self) {
        self.terms.sort_unstable_by_key(|&(id, _)| id);
        let mut w = 0usize;
        for r in 0..self.terms.len() {
            let (id, k) = self.terms[r];
            if w > 0 && self.terms[w - 1].0 == id {
                self.terms[w - 1].1 += k;
                if self.terms[w - 1].1 == 0 {
                    w -= 1;
                }
            } else if k != 0 {
                self.terms[w] = (id, k);
                w += 1;
            }
        }
        self.terms.truncate(w);
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

    /// Scales the expression in place by a non-zero factor.
    pub fn scale(&mut self, k: i64) {
        debug_assert_ne!(k, 0);
        for t in &mut self.terms {
            t.1 *= k;
        }
        self.constant *= k;
    }

    /// Adds `k` to the constant term in place.
    pub fn shift(&mut self, k: i64) {
        self.constant += k;
    }

    /// Writes `ka * a + kb * b` into `out` (cleared first, capacity
    /// retained) by a linear merge of the two sorted term lists.
    pub fn combine_into(out: &mut IdLinExpr, a: &IdLinExpr, ka: i64, b: &IdLinExpr, kb: i64) {
        out.terms.clear();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.terms.len() || j < b.terms.len() {
            let next = match (a.terms.get(i), b.terms.get(j)) {
                (Some(&(ia, ca)), Some(&(ib, cb))) => {
                    if ia == ib {
                        i += 1;
                        j += 1;
                        (ia, ka * ca + kb * cb)
                    } else if ia < ib {
                        i += 1;
                        (ia, ka * ca)
                    } else {
                        j += 1;
                        (ib, kb * cb)
                    }
                }
                (Some(&(ia, ca)), None) => {
                    i += 1;
                    (ia, ka * ca)
                }
                (None, Some(&(ib, cb))) => {
                    j += 1;
                    (ib, kb * cb)
                }
                (None, None) => unreachable!("loop condition"),
            };
            if next.1 != 0 {
                out.terms.push(next);
            }
        }
        out.constant = ka * a.constant + kb * b.constant;
    }

    /// Normalises one constraint `self <= 0`: divides by the gcd of the
    /// coefficients and rounds the constant towards the tighter integer
    /// bound.
    fn normalise_le(&mut self) {
        let mut g = 0i64;
        for &(_, c) in &self.terms {
            g = gcd(g, c);
        }
        if g > 1 {
            for t in &mut self.terms {
                t.1 /= g;
            }
            self.constant = div_ceil(self.constant, g);
        }
    }
}

/// Fourier–Motzkin elimination over a conjunction of `expr <= 0`
/// constraints: returns `true` if the conjunction is infeasible over the
/// rationals after gcd normalisation with integer tightening (which implies
/// integer infeasibility).  Eliminates the variable that produces the fewest
/// new constraints, the lowest id on ties, and gives up (`false`) once more
/// than `max_constraints` are live.  The ground solver hands constraints
/// straight in as a conjunction, skipping the NNF/DNF detour of
/// [`fm_unsatisfiable`].
pub fn id_conjunction_infeasible(constraints: &[IdLinExpr], max_constraints: usize) -> bool {
    let mut les: Vec<IdLinExpr> = constraints.to_vec();
    // (variable, lower-bound count, upper-bound count) aggregation scratch.
    let mut counts: Vec<(usize, usize, usize)> = Vec::new();
    loop {
        for le in &mut les {
            le.normalise_le();
        }
        les.sort_unstable();
        les.dedup();
        // Constant contradictions?
        for le in &les {
            if le.is_constant() && le.constant > 0 {
                return true;
            }
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
            None => return false,
        };
        let mut lowers: Vec<IdLinExpr> = Vec::new(); // var >= expr  (coeff < 0)
        let mut uppers: Vec<IdLinExpr> = Vec::new(); // var <= expr  (coeff > 0)
        let mut rest: Vec<IdLinExpr> = Vec::new();
        for le in les.drain(..) {
            let c = le.coeff(var);
            if c == 0 {
                rest.push(le);
            } else if c > 0 {
                uppers.push(le);
            } else {
                lowers.push(le);
            }
        }
        // Combine every lower with every upper:  (c_u > 0): c_u*x + r_u <= 0
        // and (c_l < 0): c_l*x + r_l <= 0.  Eliminate x by the positive
        // combination |c_l| * upper + c_u * lower.
        for upper in &uppers {
            for lower in &lowers {
                let cu = upper.coeff(var);
                let cl = lower.coeff(var).abs();
                let mut combined = IdLinExpr::default();
                IdLinExpr::combine_into(&mut combined, upper, cl, lower, cu);
                debug_assert_eq!(combined.coeff(var), 0);
                rest.push(combined);
            }
        }
        if rest.len() > max_constraints {
            return false; // give up rather than blow up
        }
        les = rest;
    }
}

// --------------------------------------------------------------------------
// Cooper's algorithm
// --------------------------------------------------------------------------

/// Eliminates one existential quantifier `exists x. body` where `body` is
/// quantifier-free and in NNF.  Returns `None` if the result would exceed the
/// node budget.
fn cooper_eliminate(var: usize, body: &PForm) -> Option<PForm> {
    // 1. Compute the lcm of the coefficients of `var`.
    let mut coeff_lcm = 1i64;
    collect_coeff_lcm(body, var, &mut coeff_lcm);
    // 2. Scale every literal so the coefficient of var is +-coeff_lcm, then
    //    conceptually substitute y = coeff_lcm * var and add coeff_lcm | y.
    let scaled = scale_var(body, var, coeff_lcm);
    let scaled = PForm::and(vec![
        scaled,
        PForm::Divides(coeff_lcm, IdLinExpr::variable(var, 1)),
    ]);
    // 3. delta = lcm of the divisors of all divisibility literals.
    let mut delta = 1i64;
    collect_divisor_lcm(&scaled, var, &mut delta);
    // 4. Lower bounds: literals of the form  -y + b <= 0  (i.e. y >= b).
    let mut lower_bounds: Vec<IdLinExpr> = Vec::new();
    collect_lower_bounds(&scaled, var, &mut lower_bounds);

    let mut disjuncts = Vec::new();
    for j in 1..=delta {
        // F_{-infinity}[y := j]
        let minus_inf = minus_infinity(&scaled, var);
        disjuncts.push(minus_inf.substitute(var, &IdLinExpr::constant(j)));
        // F[y := b + j] for every lower bound b.
        for bound in &lower_bounds {
            let mut shifted = bound.clone();
            shifted.shift(j);
            disjuncts.push(scaled.substitute(var, &shifted));
        }
        let total: usize = disjuncts.iter().map(PForm::size).sum();
        if total > MAX_QE_NODES {
            return None;
        }
    }
    Some(PForm::or(disjuncts))
}

fn collect_coeff_lcm(form: &PForm, var: usize, acc: &mut i64) {
    match form {
        PForm::Le(e) | PForm::Divides(_, e) => {
            let c = e.coeff(var);
            if c != 0 {
                *acc = lcm(*acc, c.abs());
            }
        }
        PForm::Not(inner) => collect_coeff_lcm(inner, var, acc),
        PForm::And(parts) | PForm::Or(parts) => {
            parts.iter().for_each(|p| collect_coeff_lcm(p, var, acc))
        }
        _ => {}
    }
}

/// Scales literals so the coefficient of `var` becomes `+-target` and then
/// renames `target*var` to just `var` (the standard Cooper step).
fn scale_var(form: &PForm, var: usize, target: i64) -> PForm {
    let rescale = |e: &IdLinExpr, c: i64| {
        let mut scaled = e.clone();
        scaled.scale(target / c.abs());
        scaled.remove(var);
        scaled.plus(&IdLinExpr::variable(var, c.signum()), 1)
    };
    match form {
        PForm::Le(e) => match e.coeff(var) {
            0 => PForm::le(e.clone()),
            c => PForm::Le(rescale(e, c)),
        },
        PForm::Divides(d, e) => match e.coeff(var) {
            0 => PForm::Divides(*d, e.clone()),
            c => PForm::Divides(d * (target / c.abs()), rescale(e, c)),
        },
        PForm::Not(inner) => PForm::Not(Box::new(scale_var(inner, var, target))),
        PForm::And(parts) => PForm::and(parts.iter().map(|p| scale_var(p, var, target)).collect()),
        PForm::Or(parts) => PForm::or(parts.iter().map(|p| scale_var(p, var, target)).collect()),
        other => other.clone(),
    }
}

fn collect_divisor_lcm(form: &PForm, var: usize, acc: &mut i64) {
    match form {
        PForm::Divides(d, e) if e.coeff(var) != 0 => {
            *acc = lcm(*acc, *d);
        }
        PForm::Not(inner) => collect_divisor_lcm(inner, var, acc),
        PForm::And(parts) | PForm::Or(parts) => {
            parts.iter().for_each(|p| collect_divisor_lcm(p, var, acc))
        }
        _ => {}
    }
}

fn collect_lower_bounds(form: &PForm, var: usize, out: &mut Vec<IdLinExpr>) {
    match form {
        // -var + rest <= 0  means  var >= rest, i.e. the *strict* lower
        // bound used by Cooper's B-set is rest - 1.
        PForm::Le(e) if e.coeff(var) == -1 => {
            let mut rest = e.clone();
            rest.remove(var);
            rest.shift(-1);
            out.push(rest);
        }
        PForm::Not(inner) => collect_lower_bounds(inner, var, out),
        PForm::And(parts) | PForm::Or(parts) => {
            parts.iter().for_each(|p| collect_lower_bounds(p, var, out))
        }
        _ => {}
    }
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
/// variables, the quantifier-elimination budget is exceeded, or the deadline
/// passes.
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
    let mut current = body.nnf();
    // Eliminate innermost-first (reverse declaration order).
    for &var in vars.iter().rev() {
        if expired(deadline) {
            return None;
        }
        current = cooper_eliminate(var, &current)?.nnf();
        if current.size() > MAX_QE_NODES {
            return None;
        }
    }
    let mut remaining = BTreeSet::new();
    current.collect_vars(&mut remaining);
    if !remaining.is_empty() {
        return None; // non-prenex input; refuse rather than mis-evaluate
    }
    Some(current.eval_closed())
}

/// Returns `true` only if the sentence is definitely unsatisfiable.
pub fn unsatisfiable(sentence: &PForm, deadline: Option<Instant>) -> bool {
    // Fast sound refutation first.
    fm_unsatisfiable(sentence) || matches!(cooper_decide(sentence, deadline), Some(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: usize = 0;
    const Y: usize = 1;

    /// `sum(coeff * id) + constant`.
    fn lin(terms: &[(usize, i64)], constant: i64) -> IdLinExpr {
        let mut out = IdLinExpr::constant(constant);
        for &(id, coeff) in terms {
            out.push_term(id, coeff);
        }
        out.canonicalize();
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
        let e = IdLinExpr::variable(X, 2).plus(&lin(&[(Y, -1)], 3), 1);
        assert_eq!(e.coeff(X), 2);
        assert_eq!(e.coeff(Y), -1);
        assert_eq!(e.constant, 3);
        let s = e.substitute(X, &lin(&[(Y, 1)], 1));
        assert_eq!(s.coeff(X), 0);
        assert_eq!(s.coeff(Y), 1);
        assert_eq!(s.constant, 5);
        let mut r = s.clone();
        assert_eq!(r.remove(Y), 1);
        assert_eq!(r.remove(Y), 0);
        assert!(r.is_constant());
        assert_eq!(s.substitute(X, &lin(&[], 7)), s, "absent variable");
    }

    #[test]
    fn fm_detects_simple_contradiction() {
        // x <= 0  and  x >= 1
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, 1)], 0)),
            PForm::le(lin(&[(X, -1)], 1)),
        ]);
        assert!(fm_unsatisfiable(&body));
    }

    #[test]
    fn fm_does_not_claim_satisfiable_systems_unsat() {
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -1)], 0)),  // x >= 0
            PForm::le(lin(&[(X, 1)], -10)), // x <= 10
        ]);
        assert!(!fm_unsatisfiable(&body));
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
        // integer point satisfies it.  FM cannot refute it; Cooper can.
        let body = PForm::and(vec![
            PForm::le(lin(&[(X, -2), (Y, -3)], -5)),
            PForm::le(lin(&[(X, 3), (Y, 2)], 2)),
            PForm::le(lin(&[(X, -1), (Y, 2)], 4)),
        ]);
        assert!(!fm_unsatisfiable(&body));
        let sentence = exists_all(&[X, Y], body);
        assert_eq!(cooper_decide(&sentence, None), Some(false));
        assert!(unsatisfiable(&sentence, None));
    }

    #[test]
    fn negated_le_tightens_for_integers() {
        // not(x <= 0) became x >= 1 in NNF: so x <= 0 /\ not(x <= 0) is unsat.
        let x_le_0 = PForm::le(lin(&[(X, 1)], 0));
        let body = PForm::and(vec![x_le_0.clone(), PForm::not(x_le_0)]);
        assert!(fm_unsatisfiable(&body));
    }

    #[test]
    fn id_expression_canonicalization_and_merge() {
        let mut e = IdLinExpr::constant(3);
        e.push_term(7, 2);
        e.push_term(2, -1);
        e.push_term(7, -2);
        e.push_term(4, 5);
        e.canonicalize();
        assert_eq!(e.terms(), &[(2, -1), (4, 5)]);
        assert_eq!(e.coeff(7), 0);
        assert_eq!(e.coeff(4), 5);
        let mut f = IdLinExpr::constant(-1);
        f.push_term(4, -5);
        f.push_term(9, 1);
        f.canonicalize();
        let mut out = IdLinExpr::default();
        IdLinExpr::combine_into(&mut out, &e, 1, &f, 1);
        assert_eq!(out.terms(), &[(2, -1), (9, 1)]);
        assert_eq!(out.constant, 2);
        IdLinExpr::combine_into(&mut out, &e, 2, &f, -3);
        assert_eq!(out.coeff(4), 25);
        assert_eq!(out.constant, 9);
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

    /// The direct conjunction path and the NNF/DNF path must agree on every
    /// pure conjunction: the ground solver uses the former and the Venn
    /// decisions the latter, so a divergence here is a soundness bug in one
    /// of them.
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
                le.canonicalize();
                les.push(le);
            }
            let conjunction_verdict = id_conjunction_infeasible(&les, 20_000);
            let dnf_verdict =
                fm_unsatisfiable(&PForm::and(les.iter().cloned().map(PForm::le).collect()));
            assert_eq!(conjunction_verdict, dnf_verdict, "diverged on {les:?}");
        }
    }
}
