//! Property-based tests for the preference graph.

use cso_prefgraph::{noise, PrefGraph};
use cso_runtime::prop::{self, bool_any, usize_in, vec_of, zip3, Gen};
use cso_runtime::{prop_assert, prop_assert_eq};

/// A random edge script over `n` scenarios: (from, to, checked).
type Script = (usize, Vec<(usize, usize, bool)>);

fn arb_script() -> Gen<Script> {
    usize_in(3, 7).flat_map(|n| {
        vec_of(zip3(usize_in(0, n - 1), usize_in(0, n - 1), bool_any()), 0, 19)
            .map(move |edges| (n, edges))
    })
}

#[test]
fn checked_insertion_keeps_graph_acyclic() {
    prop::check("checked_insertion_keeps_graph_acyclic", &arb_script(), |(n, script)| {
        let mut g = PrefGraph::new();
        let ids: Vec<_> = (0..*n).map(|i| g.add_scenario(i)).collect();
        for &(a, b, _) in script {
            if a != b {
                // Errors are fine; panics or cycles are not.
                let _ = g.prefer(ids[a], ids[b]);
            }
        }
        prop_assert!(g.is_consistent());
        Ok(())
    });
}

#[test]
fn repair_always_restores_consistency() {
    prop::check("repair_always_restores_consistency", &arb_script(), |(n, script)| {
        let mut g = PrefGraph::new();
        let ids: Vec<_> = (0..*n).map(|i| g.add_scenario(i)).collect();
        for (i, &(a, b, _)) in script.iter().enumerate() {
            if a != b {
                g.prefer_unchecked(ids[a], ids[b], 0.1 + 0.05 * (i % 10) as f64);
            }
        }
        let removed = noise::repair(&mut g);
        prop_assert!(g.is_consistent(), "repair must terminate consistent");
        // Removed edges are a subset of all edges.
        prop_assert!(removed.len() <= g.all_edges().len());
        // Repair is idempotent.
        prop_assert!(noise::repair(&mut g).is_empty());
        Ok(())
    });
}

#[test]
fn reachability_is_transitive() {
    prop::check("reachability_is_transitive", &arb_script(), |(n, script)| {
        let mut g = PrefGraph::new();
        let ids: Vec<_> = (0..*n).map(|i| g.add_scenario(i)).collect();
        for &(a, b, _) in script {
            if a != b {
                let _ = g.prefer(ids[a], ids[b]);
            }
        }
        for &a in &ids {
            for &b in &ids {
                for &c in &ids {
                    if g.reaches(a, b) && g.reaches(b, c) {
                        prop_assert!(g.reaches(a, c), "transitivity violated");
                    }
                }
            }
        }
        Ok(())
    });
}

#[test]
fn reaches_is_antisymmetric_on_dags() {
    prop::check("reaches_is_antisymmetric_on_dags", &arb_script(), |(n, script)| {
        let mut g = PrefGraph::new();
        let ids: Vec<_> = (0..*n).map(|i| g.add_scenario(i)).collect();
        for &(a, b, _) in script {
            if a != b {
                let _ = g.prefer(ids[a], ids[b]);
            }
        }
        for &a in &ids {
            for &b in &ids {
                prop_assert!(
                    !(g.reaches(a, b) && g.reaches(b, a)),
                    "both directions reachable: cycle"
                );
            }
        }
        Ok(())
    });
}

/// Naive Floyd–Warshall reachability over indifference classes, as an
/// independent reference for `reaches`.
fn floyd_warshall_reach(g: &PrefGraph<usize>) -> Vec<Vec<bool>> {
    let n = g.scenario_count();
    let mut r = vec![vec![false; n]; n];
    for e in g.active_edges() {
        let u = g.class_of(e.preferred).index();
        let v = g.class_of(e.other).index();
        if u != v {
            r[u][v] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                r[i][j] = r[i][j] || (r[i][k] && r[k][j]);
            }
        }
    }
    r
}

#[test]
fn random_insert_rank_sequences_preserve_reachability() {
    // Interleave checked inserts and indifference marks; after every step
    // the library's `reaches` must agree with a from-scratch
    // Floyd–Warshall on the same edge set.
    prop::check(
        "random_insert_rank_sequences_preserve_reachability",
        &arb_script(),
        |(n, script)| {
            let mut g = PrefGraph::new();
            let ids: Vec<_> = (0..*n).map(|i| g.add_scenario(i)).collect();
            for &(a, b, indiff) in script {
                if a == b {
                    continue;
                }
                if indiff {
                    let _ = g.mark_indifferent(ids[a], ids[b]);
                } else {
                    let _ = g.prefer(ids[a], ids[b]);
                }
                let reference = floyd_warshall_reach(&g);
                for &x in &ids {
                    for &y in &ids {
                        let cx = g.class_of(x);
                        let cy = g.class_of(y);
                        let expect = cx != cy && reference[cx.index()][cy.index()];
                        prop_assert_eq!(
                            g.reaches(x, y),
                            expect,
                            "reachability drifted mid-sequence"
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn indifference_is_an_equivalence() {
    prop::check("indifference_is_an_equivalence", &arb_script(), |(n, script)| {
        let mut g = PrefGraph::new();
        let ids: Vec<_> = (0..*n).map(|i| g.add_scenario(i)).collect();
        for &(a, b, checked) in script {
            if a == b {
                continue;
            }
            if checked {
                let _ = g.mark_indifferent(ids[a], ids[b]);
            } else {
                let _ = g.prefer(ids[a], ids[b]);
            }
        }
        // Reflexive, symmetric, transitive.
        for &a in &ids {
            prop_assert!(g.indifferent(a, a));
            for &b in &ids {
                prop_assert_eq!(g.indifferent(a, b), g.indifferent(b, a));
                for &c in &ids {
                    if g.indifferent(a, b) && g.indifferent(b, c) {
                        prop_assert!(g.indifferent(a, c));
                    }
                }
            }
        }
        // Strict preference never holds within a class.
        for &a in &ids {
            for &b in &ids {
                if g.indifferent(a, b) {
                    prop_assert!(!g.reaches(a, b));
                }
            }
        }
        Ok(())
    });
}
