//! Cross-query solver caching: exact replay of identical queries.
//!
//! The synthesis loop re-issues many *logically identical* solver queries —
//! duplicate scenario-disagreement checks for the same candidate pair,
//! and whole iterations that replay the previous one verbatim once the
//! preference graph stops growing. A query identical in every input that
//! can influence the solver (formula, domain, seeds, budget, δ, RNG seed)
//! replays the recorded [`Outcome`] without running the solver. The solver
//! is deterministic (and byte-identical across thread counts), so replay
//! is *equivalence by construction*; entries never need invalidation
//! because the key is the whole input.

use crate::model::Model;
use crate::solver::Outcome;
use crate::term::Formula;
use crate::vars::BoxDomain;
use cso_runtime::hash::Fnv64;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Upper bound on memoized queries; reaching it clears the memo wholesale.
/// A synthesis run issues a few hundred queries, far below the cap — this
/// exists only to bound memory for pathological callers.
const MEMO_CAP: usize = 8_192;

/// The complete identity of one solver invocation: every input that can
/// influence the outcome. Two invocations with equal keys produce
/// byte-identical outcomes and deterministic counters (thread count is
/// deliberately excluded — the solver is thread-count-invariant).
#[derive(Debug, Clone)]
pub struct QueryKey {
    /// The (unsimplified) formula handed to the solver.
    pub formula: Formula,
    /// The box domain solved over.
    pub domain: BoxDomain,
    /// Seed models, in order (order affects which model is found first).
    pub seeds: Vec<Model>,
    /// Box budget.
    pub max_boxes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Uniform δ.
    pub delta: f64,
    /// Per-dimension δ override.
    pub delta_per_dim: Option<Vec<f64>>,
}

impl QueryKey {
    /// FNV-1a fingerprint of the key. Collisions are disambiguated by
    /// [`QueryKey::same_as`], so the hash only needs to spread well.
    #[must_use]
    pub fn hash64(&self) -> u64 {
        let mut h = Fnv64::new();
        self.formula.hash(&mut h);
        self.seeds.hash(&mut h);
        self.max_boxes.hash(&mut h);
        self.seed.hash(&mut h);
        h.write_u64(self.delta.to_bits());
        match &self.delta_per_dim {
            None => h.write_u8(0),
            Some(ds) => {
                h.write_u8(1);
                for d in ds {
                    h.write_u64(d.to_bits());
                }
            }
        }
        for iv in self.domain.intervals() {
            h.write_u64(iv.lo().to_bits());
            h.write_u64(iv.hi().to_bits());
        }
        h.finish()
    }

    /// Bit-exact equality. `f64` fields compare by `to_bits`, so keys are
    /// hashable-consistent even around `-0.0`/NaN.
    #[must_use]
    pub fn same_as(&self, other: &QueryKey) -> bool {
        self.max_boxes == other.max_boxes
            && self.seed == other.seed
            && self.delta.to_bits() == other.delta.to_bits()
            && f64s_bit_eq_opt(&self.delta_per_dim, &other.delta_per_dim)
            && dom_bit_eq(&self.domain, &other.domain)
            && self.seeds == other.seeds
            && self.formula == other.formula
    }
}

fn f64s_bit_eq_opt(a: &Option<Vec<f64>>, b: &Option<Vec<f64>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => false,
    }
}

fn dom_bit_eq(a: &BoxDomain, b: &BoxDomain) -> bool {
    a.len() == b.len()
        && a.intervals().iter().zip(b.intervals()).all(|(p, q)| {
            p.lo().to_bits() == q.lo().to_bits() && p.hi().to_bits() == q.hi().to_bits()
        })
}

/// A recorded invocation: the outcome plus the stats bit equivalence
/// tests care about.
#[derive(Debug, Clone)]
pub struct MemoEntry {
    /// The recorded outcome, replayed verbatim.
    pub outcome: Outcome,
    /// Whether the recorded run found its model during seeding.
    pub sat_from_seeding: bool,
}

/// Counters describing cache effectiveness (telemetry only — the cache
/// never changes outcomes).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Queries answered by exact memo replay (no solver run).
    pub cache_hits: usize,
    /// Queries that ran the solver because no memo entry matched.
    pub cache_misses: usize,
}

/// Cross-query cache: exact memoization of solver invocations.
#[derive(Debug, Default)]
pub struct SolverCache {
    memo: HashMap<u64, Vec<(QueryKey, MemoEntry)>>,
    memo_len: usize,
    /// Effectiveness counters.
    pub stats: CacheStats,
}

impl SolverCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> SolverCache {
        SolverCache::default()
    }

    /// Number of memoized queries.
    #[must_use]
    pub fn memo_len(&self) -> usize {
        self.memo_len
    }

    /// Replay a recorded invocation if `key` matches one exactly.
    /// Counts a hit or miss either way.
    pub fn lookup(&mut self, key: &QueryKey) -> Option<MemoEntry> {
        let hit = self
            .memo
            .get(&key.hash64())
            .and_then(|bucket| bucket.iter().find(|(k, _)| k.same_as(key)))
            .map(|(_, e)| e.clone());
        if hit.is_some() {
            self.stats.cache_hits += 1;
        } else {
            self.stats.cache_misses += 1;
        }
        hit
    }

    /// Record an invocation for later replay. Duplicate keys keep the
    /// first recording (they are byte-identical by determinism anyway).
    pub fn record(&mut self, key: QueryKey, outcome: Outcome, sat_from_seeding: bool) {
        if self.memo_len >= MEMO_CAP {
            self.memo.clear();
            self.memo_len = 0;
        }
        let bucket = self.memo.entry(key.hash64()).or_default();
        if bucket.iter().any(|(k, _)| k.same_as(&key)) {
            return;
        }
        bucket.push((key, MemoEntry { outcome, sat_from_seeding }));
        self.memo_len += 1;
    }

    /// Decompose the cache into plain data for serialization. The output
    /// order is deterministic — memo entries sorted by key fingerprint,
    /// bucket insertion order within a fingerprint — so serializing the
    /// same cache twice yields the same bytes regardless of `HashMap`
    /// iteration order.
    #[must_use]
    pub fn export(&self) -> CacheExport {
        let mut hashes: Vec<u64> = self.memo.keys().copied().collect();
        hashes.sort_unstable();
        let memo = hashes.iter().flat_map(|h| self.memo[h].iter().cloned()).collect();
        CacheExport { memo, stats: self.stats }
    }

    /// Rebuild a cache from [`SolverCache::export`] output. Entries are
    /// re-recorded in export order, so a round trip preserves both lookup
    /// behavior and the deterministic export order.
    #[must_use]
    pub fn import(export: CacheExport) -> SolverCache {
        let mut cache = SolverCache::new();
        for (key, entry) in export.memo {
            cache.record(key, entry.outcome, entry.sat_from_seeding);
        }
        cache.stats = export.stats;
        cache
    }
}

/// Plain-data decomposition of a [`SolverCache`] (see
/// [`SolverCache::export`]), ordered deterministically.
#[derive(Debug, Clone)]
pub struct CacheExport {
    /// Memoized invocations, sorted by key fingerprint.
    pub memo: Vec<(QueryKey, MemoEntry)>,
    /// Effectiveness counters at export time.
    pub stats: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use crate::vars::{VarId, VarRegistry};
    use cso_numeric::{Interval, Rat};

    fn setup() -> (BoxDomain, VarId, VarId) {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let mut d = BoxDomain::new(&r);
        d.set(x, Interval::new(0.0, 10.0));
        d.set(y, Interval::new(0.0, 10.0));
        (d, x, y)
    }

    fn key(f: Formula, d: &BoxDomain, seed: u64) -> QueryKey {
        QueryKey {
            formula: f,
            domain: d.clone(),
            seeds: vec![],
            max_boxes: 1000,
            seed,
            delta: 1e-3,
            delta_per_dim: None,
        }
    }

    #[test]
    fn memo_replays_exact_key_only() {
        let (d, x, _) = setup();
        let f = Term::var(x).ge(Term::int(5));
        let mut cache = SolverCache::new();
        let k = key(f.clone(), &d, 7);
        assert!(cache.lookup(&k).is_none());
        cache.record(k.clone(), Outcome::Unsat, false);
        let hit = cache.lookup(&k).expect("exact key must hit");
        assert_eq!(hit.outcome, Outcome::Unsat);
        // Different seed → different query → miss.
        assert!(cache.lookup(&key(f.clone(), &d, 8)).is_none());
        // Different formula → miss.
        assert!(cache.lookup(&key(Term::var(x).ge(Term::int(6)), &d, 7)).is_none());
        assert_eq!(cache.stats.cache_hits, 1);
        assert_eq!(cache.stats.cache_misses, 3);
        assert_eq!(cache.memo_len(), 1);
    }

    #[test]
    fn memo_key_distinguishes_domain_bits() {
        let (d, x, _) = setup();
        let f = Term::var(x).ge(Term::int(5));
        let mut d2 = d.clone();
        d2.set(x, Interval::new(0.0, 9.0));
        let mut cache = SolverCache::new();
        cache.record(key(f.clone(), &d, 7), Outcome::Unsat, false);
        assert!(cache.lookup(&key(f, &d2, 7)).is_none());
    }

    #[test]
    fn export_import_roundtrip_preserves_behavior() {
        let (d, x, y) = setup();
        let f = Term::var(x).ge(Term::int(5));
        let g = Term::var(y).le(Term::int(3));
        let mut cache = SolverCache::new();
        cache.record(key(f.clone(), &d, 7), Outcome::Unsat, false);
        cache.record(key(g, &d, 9), Outcome::DeltaUnsat, true);
        let _ = cache.lookup(&key(f.clone(), &d, 7)); // bump stats
        let export = cache.export();
        assert_eq!(export.memo.len(), 2);
        let mut back = SolverCache::import(export.clone());
        assert_eq!(back.memo_len(), 2);
        assert_eq!(back.stats.cache_hits, cache.stats.cache_hits);
        let hit = back.lookup(&key(f, &d, 7)).expect("memo survives round trip");
        assert_eq!(hit.outcome, Outcome::Unsat);
        // Exporting the rebuilt cache reproduces the same ordering.
        let again = SolverCache::import(export.clone()).export();
        assert_eq!(again.memo.len(), export.memo.len());
        for (a, b) in again.memo.iter().zip(&export.memo) {
            assert!(a.0.same_as(&b.0));
        }
    }

    #[test]
    fn sat_outcomes_replay_with_seeding_flag() {
        let (d, x, _) = setup();
        let f = Term::var(x).ge(Term::int(5));
        let m = Model::new(vec![Rat::from_int(6), Rat::zero()]);
        let mut cache = SolverCache::new();
        cache.record(key(f.clone(), &d, 7), Outcome::Sat(m.clone()), true);
        let hit = cache.lookup(&key(f, &d, 7)).unwrap();
        assert_eq!(hit.outcome, Outcome::Sat(m));
        assert!(hit.sat_from_seeding);
    }
}
