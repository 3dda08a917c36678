//! Micro-benchmarks of the substrates: the costs that make up one
//! synthesis iteration, plus the network-substrate primitives.

use cso_logic::ieval::{ieval_term, Tri};
use cso_logic::solver::{Solver, SolverConfig};
use cso_logic::{eval::eval_term, BoxDomain, Term, VarRegistry};
use cso_logic::{CompiledQuery, Contractee, Contraction, TapeScratch};
use cso_lp::LpProblem;
use cso_netsim::alloc::{Allocator, Instance};
use cso_netsim::{FlowSpec, Topology, TrafficClass};
use cso_numeric::{BigInt, Interval, IntervalLanes, Rat};
use cso_prefgraph::PrefGraph;
use cso_runtime::bench::{BenchmarkId, Criterion};
use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::query::QueryBuilder;
use cso_synth::{MetricSpace, Scenario, SynthConfig};
use std::hint::black_box;

fn numeric(c: &mut Criterion) {
    let mut g = c.benchmark_group("numeric");
    let a: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
    let b: BigInt = "987654321098765432109876543210".parse().unwrap();
    g.bench_function("bigint_mul", |bch| bch.iter(|| black_box(&a) * black_box(&b)));
    g.bench_function("bigint_divrem", |bch| bch.iter(|| black_box(&a).div_rem(black_box(&b))));
    g.bench_function("bigint_gcd", |bch| bch.iter(|| black_box(&a).gcd(black_box(&b))));
    let x = Rat::from_frac(355, 113);
    let y = Rat::from_frac(-104348, 33215);
    g.bench_function("rat_add", |bch| bch.iter(|| black_box(&x) + black_box(&y)));
    g.bench_function("rat_mul", |bch| bch.iter(|| black_box(&x) * black_box(&y)));
    // One lane product of four boxes, as the tape runs it. In the
    // zero-edge arm each box had a 0 endpoint that an outward-rounded add
    // turned into -MIN_SUBNORMAL, which is what the solver's boxes at 0
    // carry into their products.
    let lanes = |edge: f64| {
        let mut v = IntervalLanes::<4>::default();
        for k in 0..4 {
            v.set(k, Interval::new(edge, 1.5 + k as f64) + Interval::point(edge));
        }
        v
    };
    for (name, edge) in [("interval_mul_lanes_normal", 0.25), ("interval_mul_lanes_zero_edge", 0.0)]
    {
        let (a, b) = (lanes(edge), lanes(edge));
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let mut out = IntervalLanes::default();
                black_box(&a).mul(black_box(&b), &mut out, 4);
                out
            })
        });
    }
    g.finish();
}

fn logic(c: &mut Criterion) {
    let mut g = c.benchmark_group("logic");
    // The lowered SWAN objective: the term evaluated in every solver box.
    let target = swan_target();
    let mut vars = VarRegistry::new();
    let t = vars.intern("t");
    let l = vars.intern("l");
    let term = target.lower(&[Term::var(t), Term::var(l)]);
    let env = [Rat::from_int(3), Rat::from_int(42)];
    g.bench_function("exact_eval_swan_term", |bch| {
        bch.iter(|| eval_term(black_box(&term), black_box(&env)).unwrap())
    });
    let mut dom = BoxDomain::new(&vars);
    dom.set(t, Interval::new(0.0, 10.0));
    dom.set(l, Interval::new(0.0, 200.0));
    g.bench_function("interval_eval_swan_term", |bch| {
        bch.iter(|| ieval_term(black_box(&term), black_box(&dom)))
    });
    // A representative nonlinear solve.
    let f = cso_logic::Formula::and(vec![
        Term::var(t).mul(Term::var(l)).ge(Term::int(500)),
        Term::var(t).add(Term::var(l)).le(Term::int(100)),
    ]);
    g.bench_function("solver_sat_nonlinear", |bch| {
        bch.iter(|| {
            let mut s = Solver::new(SolverConfig::default());
            black_box(s.solve(&f, &dom))
        })
    });
    // One fb-search query as the engine poses it: the SWAN feasibility
    // formula of 16 preference edges between fixed scenarios, and one
    // clause that hole 0 differs from the target's by a tenth of its
    // range, over the 8-dim query domain (holes, then both scenarios' metrics) at a
    // 1000-box budget, seeding on.
    let cfg = SynthConfig::fast_test();
    let qb = QueryBuilder::new(swan_sketch(), MetricSpace::swan(), &cfg);
    let mut scored: Vec<(Rat, Scenario)> = (0..17i64)
        .map(|i| {
            let tp = Rat::from_frac((1 + 7 * i % 17) * 10, 18);
            let lat = Rat::from_frac((1 + 11 * i % 17) * 200, 18);
            let s = Scenario::new(vec![tp, lat]);
            (target.eval(s.values()).expect("in-bounds scenario"), s)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0));
    let mut graph = PrefGraph::new();
    let ids: Vec<_> = scored.into_iter().map(|(_, s)| graph.add_scenario(s)).collect();
    for w in ids.windows(2) {
        graph.prefer(w[0], w[1]).expect("a chain has no cycle");
    }
    let fb = cso_logic::Formula::and(vec![
        qb.feasibility(&graph),
        qb.holes_differ_from_masked(target.hole_values(), 0.1, Some(0)),
    ]);
    let qdom = qb.domain();
    let sc = SolverConfig {
        max_boxes: 1000,
        delta_per_dim: Some(qb.deltas(cfg.delta_rel)),
        seed: 7,
        ..cfg.solver.clone()
    };
    let seeds = [qb.seed_from_holes(target.hole_values())];
    g.bench_function("solver_swan_feasibility", |bch| {
        bch.iter(|| {
            let mut s = Solver::new(sc.clone());
            black_box(s.solve_seeded(&fb, &qdom, &seeds))
        })
    });
    // One contraction of a mid-depth box of that query: the thresholds
    // narrowed between the scenarios' metric values, so every guard is
    // decided, and the slopes a few bisections deep.
    let q = CompiledQuery::prepare(&fb, Some(&qdom), true);
    let tape = q.tape.expect("the fb query is not trivial");
    let mut mid = qdom.clone();
    let holes = qb.hole_ids();
    for (&h, (lo, hi)) in holes.iter().zip([(0.6, 1.1), (45.0, 55.0), (0.0, 2.5), (3.75, 5.0)]) {
        mid.set(h, Interval::new(lo, hi));
    }
    let all: Vec<u32> = (0..q.conjuncts.len() as u32).collect();
    let mut verdicts = Vec::new();
    let mut scratch = TapeScratch::new();
    tape.verdicts(&[&mid], &all, &mut scratch, &mut verdicts);
    let pending: Vec<u32> =
        all.iter().copied().filter(|&ci| verdicts[ci as usize] == Tri::Unknown).collect();
    let mut probe = [Contractee::new(mid.clone(), pending.clone(), None)];
    tape.contract(&mut probe, &mut scratch);
    assert_eq!(probe[0].outcome, Contraction::Narrowed, "the mid-depth box contracts");
    g.bench_function("contract_fb_box", |bch| {
        bch.iter(|| {
            let mut boxes = [Contractee::new(mid.clone(), pending.clone(), None)];
            tape.contract(&mut boxes, &mut scratch);
            black_box(boxes[0].outcome)
        })
    });
    g.finish();
}

fn lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp");
    for n in [4usize, 8, 16] {
        g.bench_with_input(BenchmarkId::new("simplex_dense", n), &n, |bch, &n| {
            bch.iter(|| {
                let mut lp = LpProblem::maximize(n);
                for i in 0..n {
                    lp.set_objective_coeff(i, Rat::from_int(1 + (i as i64 % 3)));
                }
                for i in 0..n {
                    let coeffs: Vec<(usize, Rat)> =
                        (0..n).map(|j| (j, Rat::from_int(((i + j) % 4 + 1) as i64))).collect();
                    lp.add_le(coeffs, Rat::from_int(50));
                }
                black_box(lp.solve())
            })
        });
    }
    g.finish();
}

fn netsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim");
    g.sample_size(20);
    let topo = Topology::wan5();
    let ny = topo.node("NY").unwrap();
    let sf = topo.node("SF").unwrap();
    let sea = topo.node("SEA").unwrap();
    let flows = vec![
        FlowSpec::new(ny, sf, Rat::from_int(6), TrafficClass::Interactive),
        FlowSpec::new(ny, sea, Rat::from_int(5), TrafficClass::Elastic),
        FlowSpec::new(sea, sf, Rat::from_int(4), TrafficClass::Background),
    ];
    let inst = Instance::build(topo, flows, 3);
    g.bench_function("max_throughput_wan5", |bch| {
        bch.iter(|| black_box(Allocator::MaxThroughput.allocate(&inst).unwrap()))
    });
    g.bench_function("max_min_fair_wan5", |bch| {
        bch.iter(|| black_box(Allocator::MaxMinFair.allocate(&inst).unwrap()))
    });
    g.bench_function("swan_epsilon_wan5", |bch| {
        bch.iter(|| {
            black_box(
                Allocator::SwanEpsilon { epsilon: Rat::from_frac(1, 100) }.allocate(&inst).unwrap(),
            )
        })
    });
    g.finish();
}

fn sketch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    g.bench_function("parse_swan", |bch| bch.iter(|| black_box(swan_sketch())));
    let target = swan_target();
    let env = [Rat::from_int(2), Rat::from_int(10)];
    g.bench_function("eval_completed", |bch| bch.iter(|| black_box(target.eval(&env).unwrap())));
    g.finish();
}

cso_runtime::bench_main!(numeric, logic, lp, netsim, sketch);
