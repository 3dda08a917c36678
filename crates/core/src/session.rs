//! Steppable synthesis sessions.
//!
//! A [`Session`] wraps a [`Synthesizer`] with an identity and turns the
//! interactive loop inside-out: instead of handing the engine an oracle
//! and blocking until convergence, the caller pumps
//! [`Session::step`] until it returns
//! [`StepResult::NeedsRanking`](crate::StepResult::NeedsRanking), obtains
//! a ranking from wherever the architect actually is (a human behind an
//! HTTP endpoint, a queue, a test harness), and feeds it back with
//! [`Session::answer`]. Between a `NeedsRanking` and its `answer` the
//! session is *parked*: it holds no threads, does no work, and accrues no
//! synthesis time — park wall-clock never leaks into
//! [`SynthStats::total_time`](crate::SynthStats::total_time).
//!
//! Parked sessions can be serialized with [`Session::snapshot`] and
//! revived — in another process, after a restart — with
//! [`Session::restore`]; resuming is byte-identical to never having
//! suspended. Every trace event emitted while a session is stepping is
//! stamped with its id via [`cso_runtime::trace::session_scope`], so
//! multiplexed services can demux one event stream per session.

use crate::engine::{StepResult, SynthError, Synthesizer};
use crate::oracle::Ranking;
use crate::snapshot::{self, SnapshotError};
use crate::stats::SynthStats;
use cso_runtime::trace;

/// One steppable synthesis session: a synthesizer plus an identity.
#[derive(Debug)]
pub struct Session {
    synth: Synthesizer,
    id: u64,
}

impl Session {
    /// Wrap a synthesizer as a session with identity `id`.
    #[must_use]
    pub fn new(id: u64, synth: Synthesizer) -> Session {
        Session { synth, id }
    }

    /// This session's identity (stamped on trace events and snapshots).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Advance until the engine needs a ranking or terminates. The
    /// returned [`StepResult::NeedsRanking`] carries this session's id;
    /// calling `step` again while parked replays the same query.
    pub fn step(&mut self) -> StepResult {
        let _scope = trace::session_scope(self.id);
        match self.synth.step() {
            StepResult::NeedsRanking { scenarios, iteration, .. } => {
                StepResult::NeedsRanking { scenarios, session_id: self.id, iteration }
            }
            done => done,
        }
    }

    /// Feed the oracle's answer for the pending query back in.
    ///
    /// # Errors
    /// See [`Synthesizer::answer`].
    pub fn answer(&mut self, ranking: &Ranking) -> Result<(), SynthError> {
        let _scope = trace::session_scope(self.id);
        self.synth.answer(ranking)
    }

    /// Statistics of the run so far.
    #[must_use]
    pub fn stats(&self) -> &SynthStats {
        &self.synth.stats
    }

    /// `true` once [`Session::step`] has returned a terminal result
    /// (success or failure); further steps replay it.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.synth.is_terminal()
    }

    /// Serialize the full session state (see [`crate::snapshot`]).
    ///
    /// # Errors
    /// See [`snapshot::save`].
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        snapshot::save(&self.synth, self.id)
    }

    /// Revive a session from [`Session::snapshot`] bytes. Resuming the
    /// restored session is byte-identical to never having suspended.
    ///
    /// # Errors
    /// See [`snapshot::load`].
    pub fn restore(bytes: &[u8]) -> Result<Session, SnapshotError> {
        let (synth, id) = snapshot::load(bytes)?;
        Ok(Session { synth, id })
    }

    /// Consume the session, returning the synthesizer inside.
    #[must_use]
    pub fn into_synthesizer(self) -> Synthesizer {
        self.synth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::oracle::{GroundTruthOracle, Oracle};
    use crate::scenario::MetricSpace;

    fn swan_session(id: u64, seed: u64) -> (Session, GroundTruthOracle) {
        let cfg = SynthConfig { seed, ..SynthConfig::fast_test() };
        let synth = Synthesizer::new(cso_sketch::swan::swan_sketch(), MetricSpace::swan(), cfg)
            .expect("builds");
        (Session::new(id, synth), GroundTruthOracle::new(cso_sketch::swan::swan_target()))
    }

    #[test]
    fn step_answer_drives_to_done() {
        let (mut session, mut oracle) = swan_session(5, 11);
        assert!(!session.is_done());
        let result = loop {
            match session.step() {
                StepResult::NeedsRanking { scenarios, session_id, .. } => {
                    assert_eq!(session_id, 5);
                    let ranking = oracle.rank(&scenarios);
                    session.answer(&ranking).expect("answer accepted");
                }
                StepResult::Done(r) => break r,
                StepResult::Rejected(e) => panic!("rejected: {e}"),
            }
        };
        assert!(session.is_done());
        assert!(result.stats.iterations() > 0);
        // Externally driven sessions never run an in-process oracle.
        assert_eq!(session.stats().oracle_time, std::time::Duration::ZERO);
        // Terminal results replay.
        assert!(matches!(session.step(), StepResult::Done(_)));
    }

    /// Random answers, mostly malformed: out-of-range indices, duplicates,
    /// empty groups and wrong lengths, mixed with truthful answers that
    /// move the run on to later queries. `answer` returns `Ok` only for a
    /// ranking that partitions the query's scenarios, and neither it nor
    /// the next `step` panics.
    #[test]
    fn random_rankings_never_panic() {
        use cso_runtime::prop::{self, bool_any, usize_in, vec_of, zip2, Config};
        use cso_runtime::prop_assert;
        let groups = vec_of(vec_of(usize_in(0, 7), 0, 3), 0, 5);
        let answers = vec_of(zip2(bool_any(), groups), 1, 4);
        prop::check_with(
            &Config { cases: 48, ..Config::default() },
            "random_rankings_never_panic",
            &answers,
            |answers| {
                let (mut session, mut oracle) = swan_session(7, 5);
                for (truthful, groups) in answers {
                    let StepResult::NeedsRanking { scenarios, .. } = session.step() else {
                        break;
                    };
                    let ranking = if *truthful {
                        oracle.rank(&scenarios)
                    } else {
                        Ranking { groups: groups.clone() }
                    };
                    if session.answer(&ranking).is_ok() {
                        let mut seen: Vec<usize> = ranking.groups.concat();
                        seen.sort_unstable();
                        prop_assert!(
                            ranking.groups.iter().all(|g| !g.is_empty())
                                && seen == (0..scenarios.len()).collect::<Vec<_>>(),
                            "accepted {:?} for {} scenarios",
                            ranking.groups,
                            scenarios.len()
                        );
                    }
                }
                let _ = session.step();
                Ok(())
            },
        );
    }

    #[test]
    fn step_while_parked_replays_the_query() {
        let (mut session, _oracle) = swan_session(1, 3);
        let StepResult::NeedsRanking { scenarios: first, .. } = session.step() else {
            panic!("expected a ranking query");
        };
        let StepResult::NeedsRanking { scenarios: second, .. } = session.step() else {
            panic!("expected the same ranking query");
        };
        assert_eq!(first, second);
    }

    #[test]
    fn answer_without_pending_query_errors() {
        let (mut session, mut oracle) = swan_session(2, 3);
        // Drive to completion first.
        let done = loop {
            match session.step() {
                StepResult::NeedsRanking { scenarios, .. } => {
                    let ranking = oracle.rank(&scenarios);
                    session.answer(&ranking).expect("answer accepted");
                }
                StepResult::Done(r) => break r,
                StepResult::Rejected(e) => panic!("rejected: {e}"),
            }
        };
        let ranking = Ranking::total(vec![0, 1]);
        assert!(matches!(session.answer(&ranking), Err(SynthError::NoPendingQuery)));
        // The stray answer leaves the finished result in place.
        assert!(session.is_done());
        let StepResult::Done(again) = session.step() else {
            panic!("a stray answer replaced the finished result");
        };
        assert_eq!(again.objective.hole_values(), done.objective.hole_values());
    }

    #[test]
    fn duplicate_answer_keeps_the_run_going() {
        let drive = |retry: bool| {
            let (mut session, mut oracle) = swan_session(4, 3);
            let mut first = true;
            loop {
                match session.step() {
                    StepResult::NeedsRanking { scenarios, .. } => {
                        let ranking = oracle.rank(&scenarios);
                        session.answer(&ranking).expect("answer accepted");
                        // A client retry sends the first answer twice. The
                        // query it answered is gone, so the copy is refused
                        // and changes nothing.
                        if retry && std::mem::take(&mut first) {
                            let again = session.answer(&ranking);
                            assert!(matches!(again, Err(SynthError::NoPendingQuery)));
                        }
                    }
                    StepResult::Done(r) => return r,
                    StepResult::Rejected(e) => panic!("rejected (retry {retry}): {e}"),
                }
            }
        };
        let retried = drive(true);
        let clean = drive(false);
        assert_eq!(retried.objective.hole_values(), clean.objective.hole_values());
        assert_eq!(retried.stats.iterations(), clean.stats.iterations());
    }
}
