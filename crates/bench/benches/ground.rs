//! Micro-benchmarks of the CDCL ground core on the hottest real workload:
//! the Hash Table `put` and `initialize` sequents (the benchmark that dominated
//! the full-table wall-clock before the CDCL rewrite), measured with clause
//! learning on and off.
//!
//! The bench binary also pins the allocation win of the clause database over
//! the recursive tableau: the retained naive reference still pays the
//! per-disjunct `rest.clone()` + `Form::Or` re-wrap at every branch point,
//! so its allocation count on a branching-heavy refutation must strictly
//! dominate the CDCL engine's.  A counting global allocator measures both;
//! the comparison is asserted, not assumed.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ipl_gcl::translate::{translate_ext, TranslateCtx};
use ipl_gcl::wlp::vc_of;
use ipl_logic::{Form, SortEnv};
use ipl_provers::ground::{reference, refute, GroundResult};
use ipl_provers::preprocess::build_problem;
use ipl_provers::{Cancel, ProverConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A pass-through allocator that counts allocations, for the clause-DB
/// versus recursive-tableau comparison.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The preprocessed ground refutation problems of one Hash Table method,
/// with the `from`-clause assumption selection applied like the pipeline.
fn hash_table_ground_problems(method_name: &str) -> Vec<(Vec<Form>, SortEnv)> {
    let benchmark = ipl_suite::by_name("Hash Table").expect("benchmark exists");
    let module = ipl_lang::parse_module(benchmark.source).expect("parses");
    let lowered = ipl_lang::lower_module(&module).expect("lowers");
    let method = lowered
        .methods
        .iter()
        .find(|m| m.name == method_name)
        .unwrap_or_else(|| panic!("method {method_name} exists"));
    let mut ctx = TranslateCtx::new();
    let simple = translate_ext(&method.command, &mut ctx);
    let vc = vc_of(&simple);
    ipl_gcl::split::split_all(&vc)
        .into_iter()
        .filter(|s| !s.is_trivially_valid())
        .map(|sequent| {
            let assumptions: Vec<Form> = sequent
                .selected_assumptions()
                .into_iter()
                .map(|l| l.form.clone())
                .collect();
            let problem = build_problem(&assumptions, &sequent.goal, &method.env);
            (problem.ground, method.env.clone())
        })
        .collect()
}

fn ground(c: &mut Criterion) {
    let cdcl = ProverConfig::without_cache();
    let no_learning = ProverConfig {
        use_cache: false,
        ..ProverConfig::without_learning()
    };
    let cancel = Cancel::never();

    // The allocation pin: the naive recursive tableau clones the remaining
    // disjunction list at every branch point; the clause database must not.
    let env = SortEnv::new();
    let forms = reference::pigeonhole(5);
    let (result, cdcl_allocs) = allocations(|| refute(&forms, &env, &cdcl, &cancel));
    assert_eq!(result, GroundResult::Unsat);
    let (result, naive_allocs) = allocations(|| reference::refute_naive(&forms, &env, 1_000_000));
    assert_eq!(result, GroundResult::Unsat);
    println!(
        "allocations refuting pigeonhole(5): cdcl {cdcl_allocs}, naive recursive {naive_allocs} \
         ({:.1}x)",
        naive_allocs as f64 / cdcl_allocs.max(1) as f64
    );
    assert!(
        cdcl_allocs < naive_allocs,
        "the clause database must allocate less than the cloning tableau \
         (cdcl {cdcl_allocs} vs naive {naive_allocs})"
    );

    // The arithmetic allocation pin: the Fourier–Motzkin re-check used to
    // key every coefficient by a fresh `format!("t{rep}")` string, so a Hash
    // Table `put` refutation allocated in proportion to (constraints ×
    // re-checks).  The id-keyed pooled path re-keys by integer term ids into
    // reused buffers, and a satisfiable BAPA component is settled by a
    // Fourier–Motzkin witness instead of Cooper's quantifier elimination.
    // The ceiling below sits ~1.5x above the measured allocation count, so
    // a regression to per-check string keys or to running Cooper on
    // satisfiable components (~291k) trips the assertion, not just the
    // wall-clock numbers.
    let put_problems = hash_table_ground_problems("put");
    assert!(!put_problems.is_empty(), "put has non-trivial sequents");
    // Warm-up pass so lazily initialised globals don't count.
    for (ground_forms, env) in &put_problems {
        refute(ground_forms, env, &cdcl, &cancel);
    }
    let (_, put_allocs) = allocations(|| {
        for (ground_forms, env) in &put_problems {
            black_box(refute(ground_forms, env, &cdcl, &cancel));
        }
    });
    const PUT_ALLOCATION_CEILING: u64 = 125_000; // measured: ~83.5k
    println!("allocations refuting hash table put: {put_allocs}");
    assert!(
        put_allocs <= PUT_ALLOCATION_CEILING,
        "the arithmetic re-check must stay string-free and satisfiable BAPA \
         components must not reach Cooper \
         (put refutation allocated {put_allocs}, ceiling {PUT_ALLOCATION_CEILING})"
    );

    let mut group = c.benchmark_group("ground");
    for method in ["put", "initialize"] {
        let problems = hash_table_ground_problems(method);
        assert!(!problems.is_empty(), "{method} has non-trivial sequents");
        for (label, config) in [("cdcl", &cdcl), ("no-learning", &no_learning)] {
            group.bench_function(&format!("hashtable-{method}-{label}"), |b| {
                b.iter(|| {
                    for (ground_forms, env) in &problems {
                        black_box(refute(ground_forms, env, config, &cancel));
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, ground);
criterion_main!(benches);
