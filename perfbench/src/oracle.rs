//! Known answers.
//!
//! Table 1 expects every method of every module verified, as in the
//! paper's Table 1.  Each wrong variant breaks exactly one method of one
//! Table 1 module; its expected verdict was written by hand from the
//! program text (the broken method fails, every other method still
//! verifies), never copied from the verifier's output.  A `Proved` on a
//! method expected to fail is a soundness failure and stops the run.

use ipl::core::ModuleReport;

/// The request classes of the benchmark's streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A Table 1 module as published.
    Table1,
    /// A Table 1 module with every declared identifier alpha-renamed.
    Renamed,
    /// A hand-broken Table 1 module (the Unknown path).
    Wrong,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Table1 => "read",
            Class::Renamed => "renamed",
            Class::Wrong => "wrong",
        }
    }
}

/// One module request together with its known answer.
#[derive(Debug, Clone)]
pub struct Case {
    pub class: Class,
    /// The Table 1 row this case derives from.
    pub row: &'static str,
    pub source: String,
    /// Method name → expected "verified" verdict, in source order.
    pub expected: Vec<(String, bool)>,
    /// For a wrong variant, why its broken method must fail.
    pub reason: &'static str,
}

impl Case {
    pub fn expected_verified(&self) -> usize {
        self.expected.iter().filter(|(_, ok)| *ok).count()
    }
}

/// A hand-written break of one Table 1 method.
struct Mutation {
    row: &'static str,
    method: &'static str,
    /// Text that occurs exactly once in the original source.
    find: &'static str,
    replace: &'static str,
    /// Why the broken method must not verify.
    reason: &'static str,
}

const MUTATIONS: &[Mutation] = &[
    Mutation {
        row: "Hash Table",
        method: "lookupAt",
        find: "v := valsArr[i];",
        replace: "v := valsArr[size];",
        reason: "reads the slot past the end but promises v = valsArr[i], and i < size",
    },
    Mutation {
        row: "Priority Queue",
        method: "findMax",
        find: "m := maxkey;",
        replace: "m := maxkey + 1;",
        reason: "returns maxkey + 1 but promises m = maxkey",
    },
    Mutation {
        row: "Binary Tree",
        method: "rotateFields",
        find: "o.right := l;",
        replace: "o.right := r;",
        reason: "writes the old right child back, so o.right = old(o.left) fails when the children differ",
    },
    Mutation {
        row: "Array List",
        method: "add",
        find: "size := size + 1;",
        replace: "size := size + 2;",
        reason: "grows size by 2 but promises size = old(size) + 1",
    },
    Mutation {
        row: "Circular List",
        method: "isEmpty",
        find: "empty := true;\n    } else {\n      empty := false;",
        replace: "empty := false;\n    } else {\n      empty := true;",
        reason: "answers the negation of count = 0 but promises empty <-> count = 0",
    },
    Mutation {
        row: "Cursor List",
        method: "advance",
        find: "cursor := cursor + 1;",
        replace: "cursor := cursor;",
        reason: "leaves the cursor in place but promises cursor = old(cursor) + 1",
    },
    Mutation {
        row: "Association List",
        method: "put",
        find: "count := count + 1;",
        replace: "skip;",
        reason: "drops the count increment but promises count = old(count) + 1",
    },
    Mutation {
        row: "Linked List",
        method: "clear",
        find: "ghost content := \"emptyset\";\n  }",
        replace: "skip;\n  }",
        reason: "never empties the abstract content but promises content = emptyset",
    },
];

/// The method names of a module source, in declaration order.
pub fn method_names(source: &str) -> Vec<String> {
    let module = ipl::lang::parse_module(source).expect("benchmark modules parse");
    module.methods.iter().map(|m| m.name.clone()).collect()
}

/// The eight Table 1 modules, each expected fully verified.
pub fn table1() -> Vec<Case> {
    ipl::suite::all()
        .into_iter()
        .map(|b| Case {
            class: Class::Table1,
            row: b.name,
            source: b.source.to_string(),
            expected: method_names(b.source)
                .into_iter()
                .map(|m| (m, true))
                .collect(),
            reason: "",
        })
        .collect()
}

/// The hand-written wrong variants, one per Table 1 module, in Table 1
/// order.
pub fn wrong_variants() -> Vec<Case> {
    MUTATIONS
        .iter()
        .map(|m| {
            let original = ipl::suite::by_name(m.row).expect("mutation names a Table 1 row");
            assert_eq!(
                original.source.matches(m.find).count(),
                1,
                "{}: mutation anchor must occur exactly once",
                m.row
            );
            let source = original.source.replacen(m.find, m.replace, 1);
            let expected: Vec<(String, bool)> = method_names(&source)
                .into_iter()
                .map(|name| {
                    let ok = name != m.method;
                    (name, ok)
                })
                .collect();
            assert!(
                expected.iter().any(|(name, _)| name == m.method),
                "{}: mutation names a method of the module",
                m.row
            );
            Case {
                class: Class::Wrong,
                row: m.row,
                source,
                expected,
                reason: m.reason,
            }
        })
        .collect()
}

/// How one answer compares with its known answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Match,
    /// Verdicts differ, but no method expected to fail was proved.
    Mismatch(String),
    /// A method expected to fail was proved.
    Unsound(String),
}

/// Checks a full report method by method.  Crashed or skipped sequents
/// make the answer a mismatch.
pub fn check_report(case: &Case, report: &ModuleReport) -> Verdict {
    if report.methods.len() != case.expected.len() {
        return Verdict::Mismatch(format!(
            "{}: {} methods reported, {} expected",
            case.row,
            report.methods.len(),
            case.expected.len()
        ));
    }
    let mut mismatch = None;
    for ((name, ok), method) in case.expected.iter().zip(&report.methods) {
        let got = method.fully_proved();
        if name != &method.name {
            return Verdict::Mismatch(format!(
                "{}: method {} reported where {name} was expected",
                case.row, method.name
            ));
        }
        if got && !ok {
            return Verdict::Unsound(format!(
                "{} ({}): method {name} proved but is known to be wrong: it {}",
                case.row,
                case.class.name(),
                case.reason
            ));
        }
        if got != *ok || method.crashed_sequents > 0 || method.skipped_sequents > 0 {
            mismatch.get_or_insert(format!(
                "{} ({}): method {name} verified={got} expected={ok} crashed={} skipped={}",
                case.row,
                case.class.name(),
                method.crashed_sequents,
                method.skipped_sequents
            ));
        }
    }
    mismatch.map_or(Verdict::Match, Verdict::Mismatch)
}

/// Checks the summary counts a daemon frame carries.  More methods
/// verified than expected means some method expected to fail was proved.
pub fn check_counts(
    case: &Case,
    methods: usize,
    verified: usize,
    crashed: usize,
    skipped: usize,
) -> Verdict {
    let expected = case.expected_verified();
    if verified > expected {
        return Verdict::Unsound(format!(
            "{} ({}): {verified} methods verified, at most {expected} can be; the broken one {}",
            case.row,
            case.class.name(),
            case.reason
        ));
    }
    if methods != case.expected.len() || verified != expected || crashed > 0 || skipped > 0 {
        return Verdict::Mismatch(format!(
            "{} ({}): methods={methods} verified={verified} crashed={crashed} skipped={skipped}, \
             expected methods={} verified={expected}",
            case.row,
            case.class.name(),
            case.expected.len()
        ));
    }
    Verdict::Match
}
