//! Seeded request generation.  The verifier only ever sees the generated
//! module sources; the seed decides the Table 1 order, the `serve-mixed`
//! class mix and the alpha-renaming suffixes.

use crate::oracle::{Case, Class};
use std::collections::BTreeSet;

/// SplitMix64: small, seedable, identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Words of the surface language and the logic that must keep their
/// meaning: a declared name that is also one of these is never renamed.
const RESERVED: &[&str] = &[
    "module",
    "var",
    "field",
    "specvar",
    "vardef",
    "invariant",
    "method",
    "returns",
    "requires",
    "modifies",
    "ensures",
    "if",
    "else",
    "while",
    "call",
    "ghost",
    "assert",
    "assume",
    "skip",
    "new",
    "note",
    "from",
    "localize",
    "witness",
    "for",
    "instantiate",
    "with",
    "mp",
    "cases",
    "pickAny",
    "pickWitness",
    "suchThat",
    "show",
    "assuming",
    "induct",
    "over",
    "fix",
    "byContradiction",
    "contradiction",
    "int",
    "bool",
    "obj",
    "intarray",
    "objarray",
    "set",
    "emptyset",
    "union",
    "inter",
    "diff",
    "in",
    "card",
    "old",
    "null",
    "true",
    "false",
    "forall",
    "exists",
    "reach",
    "alloc",
    "arrayState",
    "intArrayState",
    "arraylength",
    "result",
];

/// Lexes `source` into identifier and non-identifier pieces (identifiers
/// inside the quoted formulas included).
fn pieces(source: &str) -> Vec<(bool, &str)> {
    let bytes = source.as_bytes();
    let is_start = |b: u8| b.is_ascii_alphabetic() || b == b'_';
    let is_part = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        if is_start(bytes[i]) {
            while i < bytes.len() && is_part(bytes[i]) {
                i += 1;
            }
            out.push((true, &source[start..i]));
        } else {
            while i < bytes.len() && !is_start(bytes[i]) {
                i += 1;
            }
            out.push((false, &source[start..i]));
        }
    }
    out
}

/// The names a module declares: everything written `name:` (variables,
/// fields, specvars, parameters, locals, labels, quantifier binders), the
/// module and method names, and `over` induction variables.
fn declared(pieces: &[(bool, &str)]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (index, &(ident, text)) in pieces.iter().enumerate() {
        if !ident {
            continue;
        }
        let before = index
            .checked_sub(2)
            .and_then(|i| pieces.get(i))
            .filter(|(ident, _)| *ident)
            .map(|(_, word)| *word);
        let after = pieces
            .get(index + 1)
            .map_or("", |(_, gap)| gap.trim_start());
        let colon = after.starts_with(':') && !after.starts_with(":=");
        if colon || matches!(before, Some("module" | "method" | "call" | "over")) {
            names.insert(text.to_string());
        }
    }
    names.retain(|name| !RESERVED.contains(&name.as_str()));
    names
}

/// Alpha-renames every declared identifier of `source` by appending
/// `suffix`, together with the labels the lowering derives from declared
/// names (`old_x`, `assign_x`, `x_def`).
pub fn alpha_rename(source: &str, suffix: &str) -> String {
    let pieces = pieces(source);
    let names = declared(&pieces);
    let mut out = String::with_capacity(source.len() + 64 * suffix.len());
    for (index, &(ident, text)) in pieces.iter().enumerate() {
        // A method may share its name with a reserved word (`set`): it is
        // renamed where it is declared and called, nowhere else.
        let method_position = index >= 2 && matches!(pieces[index - 2].1, "method" | "call");
        if !ident {
            out.push_str(text);
        } else if names.contains(text) || method_position {
            out.push_str(text);
            out.push_str(suffix);
        } else if let Some((prefix, stem)) = ["old_", "assign_"]
            .iter()
            .find_map(|p| text.strip_prefix(p).map(|stem| (*p, stem)))
            .filter(|(_, stem)| names.contains(*stem))
        {
            out.push_str(prefix);
            out.push_str(stem);
            out.push_str(suffix);
        } else if let Some(stem) = text.strip_suffix("_def").filter(|s| names.contains(*s)) {
            out.push_str(stem);
            out.push_str(suffix);
            out.push_str("_def");
        } else {
            out.push_str(text);
        }
    }
    out
}

/// A renamed copy of `case`: the expected verdicts carry over method by
/// method, under the renamed method names.
pub fn renamed(case: &Case, suffix: &str) -> Case {
    let source = alpha_rename(&case.source, suffix);
    let names = crate::oracle::method_names(&source);
    assert_eq!(
        names.len(),
        case.expected.len(),
        "renaming keeps every method"
    );
    Case {
        class: Class::Renamed,
        row: case.row,
        expected: names
            .into_iter()
            .zip(&case.expected)
            .map(|(name, (_, ok))| (name, *ok))
            .collect(),
        source,
        reason: case.reason,
    }
}

/// One round of the `serve-mixed` stream: 12 reads, 5 renamed modules and
/// 3 wrong variants (60/25/15), in a seeded order.
const ROUND: [(Class, usize); 3] = [(Class::Table1, 12), (Class::Renamed, 5), (Class::Wrong, 3)];

/// The `serve-mixed` request stream.  It is made of rounds with exact
/// class shares, and each class cycles through the Table 1 rows in its own
/// seeded order, so different seeds give the same mix in a different order.
pub struct MixedStream {
    rng: Rng,
    table1: Vec<Case>,
    wrong: Vec<Case>,
    round: Vec<Class>,
    /// Per class: the seeded row order and how far it has been used.
    rows: [(Vec<usize>, usize); 3],
    renames: usize,
}

impl MixedStream {
    pub fn new(seed: u64, table1: &[Case], wrong: &[Case]) -> MixedStream {
        let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5e7e);
        let mut rows = || (permutation(rng.next_u64(), table1.len()), 0);
        let rows = [rows(), rows(), rows()];
        MixedStream {
            rng,
            table1: table1.to_vec(),
            wrong: wrong.to_vec(),
            round: Vec::new(),
            rows,
            renames: 0,
        }
    }

    /// The next request of the stream.
    pub fn next_case(&mut self) -> Case {
        if self.round.is_empty() {
            for (class, count) in ROUND {
                self.round.extend(std::iter::repeat_n(class, count));
            }
            for i in (1..self.round.len()).rev() {
                self.round.swap(i, self.rng.below(i + 1));
            }
        }
        let class = self.round.pop().expect("a round is never empty");
        let (order, used) = &mut self.rows[class as usize];
        let row = order[*used % order.len()];
        *used += 1;
        match class {
            Class::Table1 => self.table1[row].clone(),
            Class::Renamed => {
                self.renames += 1;
                // The ordinal makes every suffix fresh; the random part keeps
                // suffixes of different seeds apart.
                let suffix = format!("_r{}x{:03x}", self.renames, self.rng.below(4096));
                renamed(&self.table1[row], &suffix)
            }
            Class::Wrong => self.wrong[row].clone(),
        }
    }
}

/// The daemon frame for request `id`.
pub fn verify_frame(id: usize, case: &Case, jobs: Option<usize>) -> String {
    let jobs = jobs.map_or(String::new(), |j| format!(", \"jobs\": {j}"));
    format!(
        "{{\"id\": {id}, \"op\": \"verify\", \"source\": {}{jobs}}}",
        json_string(&case.source)
    )
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a over a byte stream, for stream digests.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_reaches_declarations_uses_and_derived_labels() {
        let source = "module M {\n  var size: int;\n  method set(k: int)\n    modifies size\n    ensures \"size = old(size) + k & (forall j:int. j <= j)\"\n  {\n    size := size + k;\n    note N: \"size = old(size) + k\" from assign_size, old_size;\n  }\n}\n";
        let out = alpha_rename(source, "_z");
        assert!(out.contains("module M_z"));
        assert!(out.contains("var size_z: int"));
        assert!(out.contains("method set_z(k_z: int)"));
        assert!(out.contains("old(size_z) + k_z"));
        assert!(out.contains("forall j_z:int. j_z <= j_z"));
        assert!(out.contains("from assign_size_z, old_size_z"));
        assert!(out.contains("size_z := size_z + k_z"));
        assert!(out.contains("int"), "type names are reserved");
    }

    #[test]
    fn the_mixed_stream_repeats_per_seed_and_keeps_exact_shares() {
        let table1 = crate::oracle::table1();
        let wrong = crate::oracle::wrong_variants();
        let frames = |seed| {
            let mut stream = MixedStream::new(seed, &table1, &wrong);
            (0..40)
                .map(|id| {
                    let case = stream.next_case();
                    (case.class, verify_frame(id, &case, None))
                })
                .collect::<Vec<_>>()
        };
        let first = frames(3);
        assert_eq!(first, frames(3), "the same seed gives the same bytes");
        assert_ne!(first, frames(4), "another seed gives another order");
        for round in first.chunks(20) {
            let count = |class| round.iter().filter(|(c, _)| *c == class).count();
            assert_eq!(
                (
                    count(Class::Table1),
                    count(Class::Renamed),
                    count(Class::Wrong)
                ),
                (12, 5, 3)
            );
        }
    }
}
