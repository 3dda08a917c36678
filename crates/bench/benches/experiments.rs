//! Wall-clock benchmarks regenerating the paper's experiments.
//!
//! One benchmark group per table/figure. The harness's statistics replace
//! the paper's 9-run averages for the timing axes; the iteration-count
//! axes are printed by the `repro` binary (`cargo run -p cso-bench --bin
//! repro`). Sample counts are kept small because a full synthesis run is
//! seconds, not microseconds.

use cso_logic::solver::{Solver, SolverConfig};
use cso_logic::{BoxDomain, Formula, Term, VarRegistry};
use cso_numeric::{Interval, Rat};
use cso_runtime::bench::{BenchmarkGroup, BenchmarkId, Criterion};
use cso_sketch::swan::{swan_sketch, swan_target_with};
use cso_synth::{GroundTruthOracle, MetricSpace, SynthConfig, Synthesizer};
use std::hint::black_box;
use std::time::Duration;

/// SWAN target parameters `(tp_thrsh, l_thrsh, slope1, slope2)`.
type Target = (i64, i64, i64, i64);

fn run_once(cfg: SynthConfig, target: Target) -> usize {
    let mut synth =
        Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg).expect("sketch matches space");
    let mut oracle =
        GroundTruthOracle::new(swan_target_with(target.0, target.1, target.2, target.3));
    let result = synth.run(&mut oracle).expect("consistent oracle");
    result.stats.iterations()
}

/// Benchmark configuration: coarser than `fast_test` so one end-to-end
/// synthesis lands in the low seconds — the harness takes ≥ 10 samples per
/// point and this suite has a dozen points.
fn bench_cfg(seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig::fast_test();
    cfg.delta_rel = 0.06;
    cfg.margin = Rat::from_int(15);
    cfg.solver.max_boxes = 8_000;
    cfg.max_iterations = 40;
    cfg.seed = seed;
    cfg
}

fn tune(g: &mut BenchmarkGroup<'_>) {
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(12));
}

/// Table 1: the baseline configuration, end to end.
fn table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    tune(&mut g);
    g.bench_function("baseline_synthesis", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_once(bench_cfg(1000 + seed), (1, 50, 1, 5)))
        });
    });
    g.finish();
}

/// Figure 3: one representative variant per tuned hole (full sweep in the
/// repro binary; benching all 20 would take too long under Criterion).
fn fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_target_variants");
    tune(&mut g);
    let variants: [(&str, Target); 3] =
        [("baseline", (1, 50, 1, 5)), ("l_thrsh=80", (1, 80, 1, 5)), ("slope2=2", (1, 50, 1, 2))];
    for (name, target) in variants {
        g.bench_with_input(BenchmarkId::from_parameter(name), &target, |b, &t| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run_once(bench_cfg(2000 + seed), t))
            });
        });
    }
    g.finish();
}

/// Figure 4: pairs ranked per iteration.
fn fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_pairs_per_iteration");
    tune(&mut g);
    for pairs in [1usize, 2, 3] {
        g.bench_with_input(BenchmarkId::from_parameter(pairs), &pairs, |b, &p| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut cfg = bench_cfg(3000 + seed);
                cfg.pairs_per_iteration = p;
                black_box(run_once(cfg, (1, 50, 1, 5)))
            });
        });
    }
    g.finish();
}

/// Figure 5: initial random scenarios.
fn fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_initial_scenarios");
    tune(&mut g);
    for init in [0usize, 5, 10] {
        g.bench_with_input(BenchmarkId::from_parameter(init), &init, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut cfg = bench_cfg(4000 + seed);
                cfg.initial_scenarios = n;
                black_box(run_once(cfg, (1, 50, 1, 5)))
            });
        });
    }
    g.finish();
}

/// The incremental synthesis loop: identical runs with the clause caches
/// cold (`incremental = false`, every clause compiled afresh) and warm
/// (`incremental = true`, the default: clause reuse). Both arms
/// synthesize the same objective byte for byte with the same solver
/// work — the `incremental_equivalence` tests enforce that — so the
/// timing gap here is pure cache effect. This is the group CI smokes
/// and the one `BENCH_synth.json` baselines.
fn synth_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("synth_loop");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(12));
    for (name, incremental) in [("cold", false), ("warm", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &incremental, |b, &inc| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut cfg = bench_cfg(6000 + seed);
                cfg.incremental = inc;
                black_box(run_once(cfg, (1, 50, 1, 5)))
            });
        });
    }
    // Pure branch-and-prune on the compiled tape. Seeding is off and the
    // query is interval-refutable only after heavy splitting, so the
    // measured wall clock is essentially the `solver.bnp` span. The
    // committed `BENCH_synth.json` baselines it.
    g.bench_function("bnp_tape_on", |b| {
        let (f, dom) = bnp_query();
        b.iter(|| {
            let cfg = SolverConfig {
                use_seeding: false,
                threads: 1,
                max_boxes: 2_000,
                ..SolverConfig::default()
            };
            let mut solver = Solver::new(cfg);
            black_box(solver.solve(&f, &dom))
        });
    });
    g.finish();
}

/// A SWAN-shaped pure-solver query for the `bnp_tape_on` arm: one
/// piecewise (`ite`) nonlinear objective shared — via `Arc` — by every
/// conjunct, pinned inside an empty band that interval arithmetic can
/// only refute once boxes are narrow. The tape evaluates the shared
/// objective once per box and scores both split children in one batched
/// pass.
fn bnp_query() -> (Formula, BoxDomain) {
    let mut vars = VarRegistry::new();
    let ids: Vec<_> = ["x", "y", "z", "w"].iter().map(|n| vars.intern(n)).collect();
    let (x, y, z, w) = (ids[0], ids[1], ids[2], ids[3]);
    let obj = Term::ite(
        Term::var(x).mul(Term::var(y)).ge(Term::var(z).mul(Term::var(w))),
        Term::var(x).mul(Term::var(x)).add(Term::var(y).mul(Term::var(z))),
        Term::var(w).mul(Term::var(w)).add(Term::var(y).mul(Term::var(x))),
    );
    // A polynomial in the shared objective — four occurrences of the same
    // `Arc`, which the tape holds as one slot set. The `ite` guard stays
    // Unknown over wide boxes, where both branches are evaluated.
    let p = obj
        .clone()
        .mul(obj.clone())
        .add(obj.clone().mul(Term::int(3)))
        .sub(obj.clone().div(Term::constant(Rat::from_frac(7, 2))));
    // Empty band of width 1/3 (an inexact constant, so the enclosure
    // widening path runs too): p ≥ 400 ∧ p ≤ 400 − 1/3 has no solution,
    // but no box is refuted until p's interval is narrower than 1/3.
    let mut cs = vec![
        p.clone().ge(Term::int(400)),
        p.clone().le(Term::int(400).sub(Term::constant(Rat::from_frac(1, 3)))),
    ];
    for (i, &v) in ids.iter().enumerate() {
        // Side constraints sharing the same objective Arc.
        cs.push(obj.clone().mul(Term::var(v)).le(Term::int(2_400 + i as i64)));
    }
    let f = Formula::and(cs);
    let mut dom = BoxDomain::new(&vars);
    for &v in &ids {
        dom.set(v, Interval::new(0.0, 10.0));
    }
    (f, dom)
}

/// Ablation: solver seeding on/off (DESIGN.md §5, choice 1).
fn ablation_seeding(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_seeding");
    tune(&mut g);
    for (name, seeding) in [("on", true), ("off", false)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &seeding, |b, &s| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut cfg = bench_cfg(5000 + seed);
                cfg.solver.use_seeding = s;
                black_box(run_once(cfg, (1, 50, 1, 5)))
            });
        });
    }
    g.finish();
}

cso_runtime::bench_main!(table1, fig3, fig4, fig5, synth_loop, ablation_seeding);
