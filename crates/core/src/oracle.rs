//! Oracles: stand-ins for the architect.
//!
//! The paper's evaluation replaces the human with an oracle that ranks
//! scenarios using the ground-truth objective (Figure 2b). We provide that
//! oracle plus the noisy and indifferent variants needed for the §6.1
//! robustness experiments, and a logging wrapper that counts interactions.

use crate::scenario::Scenario;
use cso_runtime::Rng;
use cso_sketch::CompletedObjective;

/// The oracle's answer to "rank these scenarios".
///
/// `groups[0]` holds the indices (into the query slice) of the most
/// preferred scenarios; scenarios within one group are indistinguishable to
/// the oracle. This is exactly the paper's partial rank: "if some scenarios
/// are indistinguishable or incomparable from the user's view, the
/// synthesizer can still update the preference graph with the partial
/// rank".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ranking {
    /// Groups of scenario indices, most preferred first.
    pub groups: Vec<Vec<usize>>,
}

impl Ranking {
    /// A total order (one scenario per group), most preferred first.
    #[must_use]
    pub fn total(order: Vec<usize>) -> Ranking {
        Ranking { groups: order.into_iter().map(|i| vec![i]).collect() }
    }

    /// Number of scenarios covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// `true` iff the ranking covers no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(Vec::is_empty)
    }
}

/// An architect stand-in that can rank scenario sets.
pub trait Oracle {
    /// Rank the given scenarios from most to least preferred, grouping
    /// indistinguishable ones. Implementations must cover every index of
    /// `scenarios` exactly once.
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking;

    /// Short human-readable description for logs.
    fn describe(&self) -> String {
        "oracle".to_owned()
    }
}

/// Ranks by exact evaluation of a ground-truth objective.
#[derive(Debug, Clone)]
pub struct GroundTruthOracle {
    target: CompletedObjective,
}

impl GroundTruthOracle {
    /// Build from the hidden target objective.
    #[must_use]
    pub fn new(target: CompletedObjective) -> GroundTruthOracle {
        GroundTruthOracle { target }
    }

    /// The hidden target (used by experiment harnesses to verify results).
    #[must_use]
    pub fn target(&self) -> &CompletedObjective {
        &self.target
    }
}

impl Oracle for GroundTruthOracle {
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking {
        let mut scored: Vec<(usize, cso_numeric::Rat)> = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let v = self
                    .target
                    .eval(s.values())
                    .expect("ground truth evaluates every in-bounds scenario");
                (i, v)
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1));
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut last: Option<cso_numeric::Rat> = None;
        for (i, v) in scored {
            match &last {
                Some(prev) if *prev == v => {
                    groups.last_mut().expect("non-empty on tie").push(i);
                }
                _ => {
                    groups.push(vec![i]);
                    last = Some(v);
                }
            }
        }
        Ranking { groups }
    }

    fn describe(&self) -> String {
        format!("ground-truth oracle [{}]", self.target)
    }
}

/// Wraps an oracle and flips adjacent ranking groups with probability
/// `flip_prob` — the "inconsistent or vague" user of §6.1.
#[derive(Debug)]
pub struct NoisyOracle<O> {
    inner: O,
    flip_prob: f64,
    rng: Rng,
}

impl<O: Oracle> NoisyOracle<O> {
    /// Wrap `inner`, flipping each adjacent group pair with probability
    /// `flip_prob` (deterministic per `seed`).
    #[must_use]
    pub fn new(inner: O, flip_prob: f64, seed: u64) -> NoisyOracle<O> {
        NoisyOracle { inner, flip_prob, rng: Rng::seed_from_u64(seed) }
    }
}

impl<O: Oracle> Oracle for NoisyOracle<O> {
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking {
        let mut r = self.inner.rank(scenarios);
        let mut i = 0;
        while i + 1 < r.groups.len() {
            if self.rng.random_range(0.0..1.0) < self.flip_prob {
                r.groups.swap(i, i + 1);
                i += 2; // don't immediately re-flip the same group
            } else {
                i += 1;
            }
        }
        r
    }

    fn describe(&self) -> String {
        format!("noisy(p = {}) over {}", self.flip_prob, self.inner.describe())
    }
}

/// Wraps an oracle built on a ground-truth objective and declares scenarios
/// whose objective values differ by less than `epsilon` indistinguishable —
/// the "vague" user.
#[derive(Debug, Clone)]
pub struct IndifferenceOracle {
    target: CompletedObjective,
    epsilon: cso_numeric::Rat,
}

impl IndifferenceOracle {
    /// Build from the hidden target and an indistinguishability threshold.
    #[must_use]
    pub fn new(target: CompletedObjective, epsilon: cso_numeric::Rat) -> IndifferenceOracle {
        IndifferenceOracle { target, epsilon }
    }
}

impl Oracle for IndifferenceOracle {
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking {
        let mut scored: Vec<(usize, cso_numeric::Rat)> = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| (i, self.target.eval(s.values()).expect("in-bounds scenario")))
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1));
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_anchor: Option<cso_numeric::Rat> = None;
        for (i, v) in scored {
            match &group_anchor {
                Some(anchor) if (anchor - &v).abs() <= self.epsilon => {
                    groups.last_mut().expect("non-empty on tie").push(i);
                }
                _ => {
                    groups.push(vec![i]);
                    group_anchor = Some(v);
                }
            }
        }
        Ranking { groups }
    }

    fn describe(&self) -> String {
        format!("indifference(eps = {}) oracle", self.epsilon)
    }
}

/// Adapts a closure into an [`Oracle`] — the lightest way to plug in a
/// custom architect, e.g. one that asks a human over stdin or calls a
/// simulator (§6.1 "comparing scenarios through simulators").
pub struct FnOracle<F> {
    f: F,
}

impl<F: FnMut(&[Scenario]) -> Ranking> FnOracle<F> {
    /// Wrap a ranking closure.
    pub fn new(f: F) -> FnOracle<F> {
        FnOracle { f }
    }
}

impl<F: FnMut(&[Scenario]) -> Ranking> Oracle for FnOracle<F> {
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking {
        (self.f)(scenarios)
    }

    fn describe(&self) -> String {
        "fn oracle".to_owned()
    }
}

/// Wraps an oracle and counts interactions and scenarios ranked.
#[derive(Debug)]
pub struct LoggingOracle<O> {
    inner: O,
    /// Number of `rank` calls.
    pub interactions: usize,
    /// Total scenarios ranked across calls.
    pub scenarios_ranked: usize,
}

impl<O: Oracle> LoggingOracle<O> {
    /// Wrap `inner`.
    #[must_use]
    pub fn new(inner: O) -> LoggingOracle<O> {
        LoggingOracle { inner, interactions: 0, scenarios_ranked: 0 }
    }

    /// The wrapped oracle.
    #[must_use]
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Oracle> Oracle for LoggingOracle<O> {
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking {
        self.interactions += 1;
        self.scenarios_ranked += scenarios.len();
        self.inner.rank(scenarios)
    }

    fn describe(&self) -> String {
        format!("logging over {}", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_numeric::Rat;
    use cso_sketch::swan::swan_target;

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::from_ints(&[2, 10]),  // satisfying: 982
            Scenario::from_ints(&[2, 100]), // unsatisfying: -998
            Scenario::from_ints(&[5, 10]),  // satisfying: 955
        ]
    }

    #[test]
    fn ground_truth_orders_by_value() {
        let mut o = GroundTruthOracle::new(swan_target());
        let r = o.rank(&scenarios());
        assert_eq!(r.groups, vec![vec![0], vec![2], vec![1]]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ground_truth_groups_exact_ties() {
        let mut o = GroundTruthOracle::new(swan_target());
        let dup = vec![Scenario::from_ints(&[2, 10]), Scenario::from_ints(&[2, 10])];
        let r = o.rank(&dup);
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].len(), 2);
    }

    #[test]
    fn noisy_oracle_flips_sometimes() {
        let truth = GroundTruthOracle::new(swan_target());
        let mut noisy = NoisyOracle::new(truth, 1.0, 1);
        let r = noisy.rank(&scenarios());
        // With p = 1 the first two groups must have been swapped.
        assert_ne!(r.groups[0], vec![0]);
        // Zero probability leaves the truth intact.
        let truth2 = GroundTruthOracle::new(swan_target());
        let mut calm = NoisyOracle::new(truth2, 0.0, 1);
        assert_eq!(calm.rank(&scenarios()).groups, vec![vec![0], vec![2], vec![1]]);
    }

    #[test]
    fn indifference_oracle_merges_close_values() {
        // 982 and 955 differ by 27; epsilon 30 merges them.
        let mut o = IndifferenceOracle::new(swan_target(), Rat::from_int(30));
        let r = o.rank(&scenarios());
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.groups[0].len(), 2);
        // Tight epsilon keeps them apart.
        let mut o2 = IndifferenceOracle::new(swan_target(), Rat::from_int(5));
        assert_eq!(o2.rank(&scenarios()).groups.len(), 3);
    }

    #[test]
    fn fn_oracle_adapts_closures() {
        let mut o = FnOracle::new(|scenarios: &[Scenario]| {
            // Prefer lower latency (index 1), break ties by input order.
            let mut idx: Vec<usize> = (0..scenarios.len()).collect();
            idx.sort_by(|&a, &b| scenarios[a].values()[1].cmp(&scenarios[b].values()[1]));
            Ranking::total(idx)
        });
        let r = o.rank(&scenarios());
        // Latencies: 10, 100, 10 -> indices 0 and 2 tie on value but keep
        // input order, then 1.
        assert_eq!(r.groups.len(), 3);
        assert_eq!(*r.groups.last().unwrap(), vec![1]);
        assert_eq!(o.describe(), "fn oracle");
    }

    #[test]
    fn logging_counts() {
        let mut o = LoggingOracle::new(GroundTruthOracle::new(swan_target()));
        let _ = o.rank(&scenarios());
        let _ = o.rank(&scenarios()[..2]);
        assert_eq!(o.interactions, 2);
        assert_eq!(o.scenarios_ranked, 5);
        assert!(o.describe().contains("logging"));
    }
}
