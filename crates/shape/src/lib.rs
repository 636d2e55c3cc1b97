//! # `ipl-shape` — reachability reasoning for linked structures
//!
//! This crate stands in for the MONA (WS1S) back end of the Jahob prover
//! cascade described in *"An Integrated Proof Language for Imperative
//! Programs"* (PLDI 2009).  In the paper, `note` statements identify shape
//! lemmas that the MONA decision procedure discharges; the first-order
//! provers then consume those lemmas.  Here the analogous role is played by a
//! saturation prover over ground reachability atoms for single-successor
//! heaps:
//!
//! * `reach(f, x, y)` — `y` is reachable from `x` by following field `f`
//!   (reflexive-transitive closure of the field relation);
//! * `x.f = y` field facts (`FieldRead` equalities);
//! * field updates `f' = f[a := v]` (`FieldWrite` equalities) with the usual
//!   frame rules;
//! * equalities and disequalities between objects (including `null`).
//!
//! The prover works by refutation: it asserts the assumptions together with
//! the negation of the goal, saturates under the rules below, and reports
//! [`ShapeOutcome::Valid`] when it derives a contradiction.
//!
//! ```text
//! (refl)    reach(f, x, x)
//! (step)    x.f = y                         ==> reach(f, x, y)
//! (trans)   reach(f, x, y), reach(f, y, z)  ==> reach(f, x, z)
//! (fun)     x.f = y, x.f = z                ==> y = z
//! (upd-hit) f' = f[a := v]                  ==> a.f' = v
//! (upd-miss)f' = f[a := v], x != a, x.f = y ==> x.f' = y   (and symmetrically)
//! ```

use ipl_logic::Form;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// The result of a shape query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeOutcome {
    /// The implication is valid.
    Valid,
    /// Could not establish validity.
    Unknown,
}

/// Maximum number of saturation rounds.
const MAX_ROUNDS: usize = 64;

/// Maximum number of derived reachability facts.
const MAX_FACTS: usize = 50_000;

/// Node identifier inside the saturation state.
type NodeId = usize;

/// The saturation state.
#[derive(Debug, Default)]
struct State {
    /// Canonical name -> node id.
    names: BTreeMap<String, NodeId>,
    /// Union-find parent links.
    parent: Vec<NodeId>,
    /// Positive field facts: (field, source) -> target.
    field_edges: BTreeMap<(String, NodeId), NodeId>,
    /// Field update facts: new field name -> (old field name, index node, value node).
    updates: BTreeMap<String, (String, NodeId, NodeId)>,
    /// Positive reach facts.
    reach: BTreeSet<(String, NodeId, NodeId)>,
    /// Negative reach facts.
    not_reach: BTreeSet<(String, NodeId, NodeId)>,
    /// Disequalities.
    diseq: BTreeSet<(NodeId, NodeId)>,
    /// Pending equalities discovered by rules.
    pending_unions: Vec<(NodeId, NodeId)>,
    /// Set to true when a contradiction is derived.
    contradiction: bool,
}

impl State {
    fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = self.parent.len();
        self.parent.push(id);
        self.names.insert(name.to_string(), id);
        id
    }

    fn find(&mut self, id: NodeId) -> NodeId {
        if self.parent[id] == id {
            id
        } else {
            let root = self.find(self.parent[id]);
            self.parent[id] = root;
            root
        }
    }

    fn union(&mut self, a: NodeId, b: NodeId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn canonical_facts(&mut self) {
        // Rewrite all fact tables modulo the current union-find.
        let reach: Vec<_> = self.reach.iter().cloned().collect();
        self.reach = reach
            .into_iter()
            .map(|(f, a, b)| (f, self.find(a), self.find(b)))
            .collect();
        let not_reach: Vec<_> = self.not_reach.iter().cloned().collect();
        self.not_reach = not_reach
            .into_iter()
            .map(|(f, a, b)| (f, self.find(a), self.find(b)))
            .collect();
        let diseq: Vec<_> = self.diseq.iter().cloned().collect();
        self.diseq = diseq
            .into_iter()
            .map(|(a, b)| (self.find(a), self.find(b)))
            .collect();
        let edges: Vec<_> = self
            .field_edges
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let mut new_edges = BTreeMap::new();
        for ((field, src), dst) in edges {
            let key = (field, self.find(src));
            let dst = self.find(dst);
            if let Some(&existing) = new_edges.get(&key) {
                if existing != dst {
                    // Functionality: same source and field, targets must agree.
                    self.pending_unions.push((existing, dst));
                }
            }
            new_edges.insert(key, dst);
        }
        self.field_edges = new_edges;
        let updates: Vec<_> = self
            .updates
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        self.updates = updates
            .into_iter()
            .map(|(f, (g, a, v))| (f, (g, self.find(a), self.find(v))))
            .collect();
    }

    fn check_contradiction(&mut self) {
        for (a, b) in self.diseq.clone() {
            if self.find(a) == self.find(b) {
                self.contradiction = true;
                return;
            }
        }
        for fact in self.reach.clone() {
            if self.not_reach.contains(&fact) {
                self.contradiction = true;
                return;
            }
        }
    }
}

/// The canonical printed name of an object-denoting term.
fn term_name(form: &Form) -> String {
    format!("{form}")
}

/// The canonical name of a field-denoting term (a variable or an update).
fn field_name(form: &Form) -> String {
    format!("{form}")
}

/// Aliases between field-denoting variables, discovered in a pre-pass.
///
/// The guarded-command translation chains every field update through fresh
/// incarnations (`next#6 = next_tmp_3#5`, `next_tmp_3#5 = next#4[o := v]`);
/// without aliasing, facts recorded under one incarnation are invisible to
/// queries phrased with another, because the saturation tables key on field
/// *names*.
#[derive(Debug, Default)]
struct FieldAliases {
    parent: BTreeMap<String, String>,
}

impl FieldAliases {
    /// The canonical representative of a field name.
    fn canon(&self, name: &str) -> String {
        let mut current = name;
        while let Some(next) = self.parent.get(current) {
            current = next;
        }
        current.to_string()
    }

    fn union(&mut self, a: &str, b: &str) {
        let (ra, rb) = (self.canon(a), self.canon(b));
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

/// Collects the names used in field position anywhere in the formula: the
/// first argument of `reach`, the field of a read, and both sides of a field
/// update equation.
fn collect_field_names(form: &Form, out: &mut BTreeSet<String>) {
    match form {
        Form::App(name, args) if name == "reach" && args.len() == 3 => {
            if let Form::Var(f) = &args[0] {
                out.insert(f.clone());
            }
        }
        Form::FieldRead(field, _) => {
            if let Form::Var(f) = field.as_ref() {
                out.insert(f.clone());
            }
        }
        Form::Eq(lhs, rhs) => {
            for (a, b) in [(lhs, rhs), (rhs, lhs)] {
                if let (Form::Var(f), Form::FieldWrite(old, ..)) = (a.as_ref(), b.as_ref()) {
                    out.insert(f.clone());
                    if let Form::Var(g) = old.as_ref() {
                        out.insert(g.clone());
                    }
                }
            }
        }
        _ => {}
    }
    form.for_each_child(|c| collect_field_names(c, out));
}

/// Builds the field-alias relation: positive equalities between two names
/// that occur in field position union their alias classes.
fn field_aliases(assumptions: &[Form], goal: &Form) -> FieldAliases {
    let mut names = BTreeSet::new();
    for form in assumptions.iter().chain(std::iter::once(goal)) {
        collect_field_names(form, &mut names);
    }
    let mut aliases = FieldAliases::default();
    fn scan(form: &Form, names: &BTreeSet<String>, aliases: &mut FieldAliases, positive: bool) {
        match form {
            Form::Not(inner) => scan(inner, names, aliases, !positive),
            Form::And(parts) if positive => {
                parts.iter().for_each(|p| scan(p, names, aliases, true))
            }
            Form::Eq(lhs, rhs) if positive => {
                if let (Form::Var(a), Form::Var(b)) = (lhs.as_ref(), rhs.as_ref()) {
                    if names.contains(a) && names.contains(b) {
                        aliases.union(a, b);
                    }
                }
            }
            _ => {}
        }
    }
    for form in assumptions {
        scan(form, &names, &mut aliases, true);
    }
    aliases
}

/// Attempts to record one assumption literal; unknown forms are ignored
/// (which is sound for validity checking).
fn assume(form: &Form, state: &mut State, aliases: &FieldAliases, positive: bool) {
    match form {
        Form::Not(inner) => assume(inner, state, aliases, !positive),
        Form::And(parts) if positive => parts.iter().for_each(|p| assume(p, state, aliases, true)),
        Form::Or(parts) if !positive => parts.iter().for_each(|p| assume(p, state, aliases, false)),
        Form::App(name, args) if name == "reach" && args.len() == 3 => {
            let field = aliases.canon(&field_name(&args[0]));
            let src = state.node(&term_name(&args[1]));
            let dst = state.node(&term_name(&args[2]));
            if positive {
                state.reach.insert((field, src, dst));
            } else {
                state.not_reach.insert((field, src, dst));
            }
        }
        Form::Eq(lhs, rhs) => {
            // Field update: f2 = f1[a := v]  (either orientation).
            let (var_side, other) = (lhs.as_ref(), rhs.as_ref());
            if positive {
                if let (Form::Var(new_field), Form::FieldWrite(old, at, value)) = (var_side, other)
                {
                    let at = state.node(&term_name(at));
                    let value = state.node(&term_name(value));
                    state.updates.insert(
                        aliases.canon(new_field),
                        (aliases.canon(&field_name(old)), at, value),
                    );
                    return;
                }
                if let (Form::FieldWrite(old, at, value), Form::Var(new_field)) = (var_side, other)
                {
                    let at = state.node(&term_name(at));
                    let value = state.node(&term_name(value));
                    state.updates.insert(
                        aliases.canon(new_field),
                        (aliases.canon(&field_name(old)), at, value),
                    );
                    return;
                }
            }
            // Field read: x.f = y (either orientation).
            if let Form::FieldRead(field, obj) = var_side {
                let src = state.node(&term_name(obj));
                let dst = state.node(&term_name(other));
                let key = (aliases.canon(&field_name(field)), src);
                if positive {
                    match state.field_edges.get(&key) {
                        // Functionality: a second edge from the same source
                        // forces the targets to be equal.
                        Some(&existing) if existing != dst => {
                            state.pending_unions.push((existing, dst));
                        }
                        Some(_) => {}
                        None => {
                            state.field_edges.insert(key, dst);
                        }
                    }
                } else if let Some(&existing) = state.field_edges.get(&key) {
                    // A negated field-read equality is recorded weakly (only
                    // against an already-known edge); precise handling is not
                    // needed for the benchmark lemmas.
                    state.diseq.insert((existing, dst));
                }
                return;
            }
            if let Form::FieldRead(field, obj) = other {
                let src = state.node(&term_name(obj));
                let dst = state.node(&term_name(var_side));
                if positive {
                    state
                        .field_edges
                        .insert((aliases.canon(&field_name(field)), src), dst);
                }
                return;
            }
            // Plain object (dis)equality.
            let a = state.node(&term_name(var_side));
            let b = state.node(&term_name(other));
            if positive {
                state.pending_unions.push((a, b));
            } else {
                state.diseq.insert((a, b));
            }
        }
        _ => {}
    }
}

/// Proves validity of `(/\ assumptions) --> goal` for ground shape formulas.
/// The saturation loop polls `deadline` between rounds and gives up
/// (reporting `Unknown`) once it passes.
pub fn prove_valid(assumptions: &[Form], goal: &Form, deadline: Option<Instant>) -> ShapeOutcome {
    let aliases = field_aliases(assumptions, goal);
    let mut state = State::default();
    for a in assumptions {
        assume(a, &mut state, &aliases, true);
    }
    // Refutation: assume the negation of the goal.
    assume(goal, &mut state, &aliases, false);

    // Saturate.
    for _ in 0..MAX_ROUNDS {
        if matches!(deadline, Some(deadline) if Instant::now() >= deadline) {
            return ShapeOutcome::Unknown;
        }
        // Apply pending equalities.
        let unions = std::mem::take(&mut state.pending_unions);
        for (a, b) in unions {
            state.union(a, b);
        }
        state.canonical_facts();
        state.check_contradiction();
        if state.contradiction {
            return ShapeOutcome::Valid;
        }

        let before = (
            state.reach.len(),
            state.field_edges.len(),
            state.pending_unions.len(),
        );

        // (refl) reach(f, x, x) for every field and node mentioned with f.
        let fields: BTreeSet<String> = state
            .reach
            .iter()
            .map(|(f, _, _)| f.clone())
            .chain(state.not_reach.iter().map(|(f, _, _)| f.clone()))
            .chain(state.field_edges.keys().map(|(f, _)| f.clone()))
            .collect();
        let nodes: Vec<NodeId> = (0..state.parent.len()).collect();
        for field in &fields {
            for &n in &nodes {
                let n = state.find(n);
                state.reach.insert((field.clone(), n, n));
            }
        }

        // (upd-hit) and (upd-miss)
        let updates: Vec<(String, (String, NodeId, NodeId))> = state
            .updates
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (new_field, (old_field, at, value)) in &updates {
            let at = state.find(*at);
            let value = state.find(*value);
            state.field_edges.insert((new_field.clone(), at), value);
            // Frame: edges of the old field at indices known distinct from `at`
            // carry over to the new field, and vice versa.
            let edges: Vec<((String, NodeId), NodeId)> = state
                .field_edges
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            for ((field, src), dst) in edges {
                let distinct = state.diseq.contains(&(src, at)) || state.diseq.contains(&(at, src));
                if !distinct {
                    continue;
                }
                if &field == old_field {
                    state
                        .field_edges
                        .entry((new_field.clone(), src))
                        .or_insert(dst);
                } else if &field == new_field {
                    state
                        .field_edges
                        .entry((old_field.clone(), src))
                        .or_insert(dst);
                }
            }
        }

        // (step) field edges imply reachability.
        let edges: Vec<((String, NodeId), NodeId)> = state
            .field_edges
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for ((field, src), dst) in &edges {
            state.reach.insert((field.clone(), *src, *dst));
        }

        // (trans) transitive closure.
        let current: Vec<(String, NodeId, NodeId)> = state.reach.iter().cloned().collect();
        for (f1, a, b) in &current {
            for (f2, c, d) in &current {
                if f1 == f2 && b == c {
                    state.reach.insert((f1.clone(), *a, *d));
                    if state.reach.len() > MAX_FACTS {
                        return ShapeOutcome::Unknown;
                    }
                }
            }
        }

        state.check_contradiction();
        if state.contradiction {
            return ShapeOutcome::Valid;
        }
        let after = (
            state.reach.len(),
            state.field_edges.len(),
            state.pending_unions.len(),
        );
        if before == after {
            break; // fixpoint without contradiction
        }
    }
    ShapeOutcome::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipl_logic::parser::parse_form;

    fn valid(assumptions: &[&str], goal: &str) -> bool {
        let assumptions: Vec<Form> = assumptions.iter().map(|s| parse_form(s).unwrap()).collect();
        let goal = parse_form(goal).unwrap();
        prove_valid(&assumptions, &goal, None) == ShapeOutcome::Valid
    }

    #[test]
    fn reachability_is_reflexive() {
        assert!(valid(&["x.next = y"], "reach(next, x, x)"));
    }

    #[test]
    fn field_edge_implies_reach() {
        assert!(valid(&["x.next = y"], "reach(next, x, y)"));
    }

    #[test]
    fn reach_is_transitive() {
        assert!(valid(
            &["reach(next, first, x)", "x.next = y"],
            "reach(next, first, y)"
        ));
        assert!(valid(
            &["reach(next, a, b)", "reach(next, b, c)"],
            "reach(next, a, c)"
        ));
    }

    #[test]
    fn unrelated_nodes_are_not_claimed_reachable() {
        assert!(!valid(&["x.next = y"], "reach(next, y, x)"));
        assert!(!valid(&[], "reach(next, a, b)"));
    }

    #[test]
    fn equalities_are_respected() {
        assert!(valid(&["reach(next, a, b)", "b = c"], "reach(next, a, c)"));
    }

    #[test]
    fn disequality_contradiction_detected() {
        assert!(valid(&["a = b", "~(a = b)"], "reach(next, a, a)"));
    }

    #[test]
    fn functionality_of_fields() {
        // x.next = y and x.next = z forces y = z.
        assert!(valid(&["x.next = y", "x.next = z"], "y = z"));
    }

    #[test]
    fn update_hits_the_written_cell() {
        assert!(valid(&["newnext = next[x := v]"], "reach(newnext, x, v)"));
    }

    #[test]
    fn update_preserves_distinct_cells() {
        assert!(valid(
            &["newnext = next[x := v]", "~(a = x)", "a.next = b"],
            "reach(newnext, a, b)"
        ));
        // Without the disequality the frame rule must not fire.
        assert!(!valid(
            &["newnext = next[x := v]", "a.next = b"],
            "reach(newnext, a, b)"
        ));
    }

    #[test]
    fn field_incarnation_chains_are_aliased() {
        // The guarded-command translation routes updates through temporaries:
        // facts recorded under one incarnation must serve queries phrased
        // with another.
        assert!(valid(
            &["tmp = next[x := v]", "newnext = tmp"],
            "reach(newnext, x, v)"
        ));
        assert!(valid(
            &["newnext = tmp", "tmp = next[x := v]", "reach(next, v, w)"],
            "reach(newnext, x, v)"
        ));
        // Aliasing must not identify distinct fields without an equality.
        assert!(!valid(&["tmp = next[x := v]"], "reach(othernext, x, v)"));
    }

    #[test]
    fn negated_reach_goal_via_contradiction() {
        assert!(valid(
            &["~(reach(next, a, b))", "a.next = b"],
            "a = null" // anything follows from contradictory assumptions
        ));
    }
}
