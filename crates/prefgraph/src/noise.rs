//! Repairing inconsistent (noisy) preference graphs.
//!
//! §6.1 of the paper notes that real architects "can potentially provide
//! inconsistent or vague relative preference information" and that a robust
//! synthesizer must detect and remove such noise. Finding the minimum
//! feedback edge set is NP-hard, so we use the standard greedy heuristic:
//! while a cycle exists, delete the lowest-confidence edge on it. With
//! honest edges at confidence 1.0 and noisy answers below, this removes only
//! suspect edges unless the noise is overwhelming.

use crate::graph::{EdgeId, PrefGraph};

/// Remove a feedback edge set until the graph is acyclic.
///
/// Returns the removed edge ids (possibly empty). Deterministic: ties on
/// confidence are broken by edge id.
pub fn repair<S>(g: &mut PrefGraph<S>) -> Vec<EdgeId> {
    let mut removed = Vec::new();
    while let Some(cycle) = crate::closure::find_cycle(g) {
        let victim = cycle
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let ca = g.all_edges()[a.index()].confidence;
                let cb = g.all_edges()[b.index()].confidence;
                ca.partial_cmp(&cb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.index().cmp(&b.index()))
            })
            .expect("cycle is non-empty");
        g.remove_edge(victim);
        removed.push(victim);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_noop_on_dag() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(());
        let b = g.add_scenario(());
        g.prefer(a, b).unwrap();
        assert!(repair(&mut g).is_empty());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn repair_removes_lowest_confidence_edge() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(());
        let b = g.add_scenario(());
        let c = g.add_scenario(());
        g.prefer_unchecked(a, b, 1.0);
        g.prefer_unchecked(b, c, 1.0);
        let noisy = g.prefer_unchecked(c, a, 0.2);
        let removed = repair(&mut g);
        assert_eq!(removed, vec![noisy]);
        assert!(g.is_consistent());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn repair_handles_multiple_cycles() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(());
        let b = g.add_scenario(());
        let c = g.add_scenario(());
        let d = g.add_scenario(());
        // Two independent 2-cycles.
        g.prefer_unchecked(a, b, 1.0);
        g.prefer_unchecked(b, a, 0.1);
        g.prefer_unchecked(c, d, 0.1);
        g.prefer_unchecked(d, c, 1.0);
        let removed = repair(&mut g);
        assert_eq!(removed.len(), 2);
        assert!(g.is_consistent());
        // The trusted edges survive.
        assert!(g.reaches(a, b));
        assert!(g.reaches(d, c));
    }

    #[test]
    fn repair_tie_breaks_deterministically() {
        let mut g = PrefGraph::new();
        let a = g.add_scenario(());
        let b = g.add_scenario(());
        let e1 = g.prefer_unchecked(a, b, 0.5);
        let _e2 = g.prefer_unchecked(b, a, 0.5);
        let removed = repair(&mut g);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0], e1, "lowest edge id wins ties");
    }
}
