//! Robustness of the session service under imperfect architects: a
//! 16-session fleet whose architects flip rankings (with noise repair on)
//! or call near ties, with every session evicted to disk after every
//! question. Wrong answers may leave no viable candidate, so a session may
//! end in a typed error, but every session must end, none may panic, and a
//! failed session must stay failed.

use cso_numeric::Rat;
use cso_serve::{ServeConfig, ServeError, SessionManager};
use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::oracle::{GroundTruthOracle, IndifferenceOracle, NoisyOracle, Oracle};
use cso_synth::{MetricSpace, Session, StepResult, SynthConfig, Synthesizer};
use std::collections::HashMap;

const SESSIONS: u64 = 16;
/// Probability that the noisy architect swaps two adjacent ranking groups.
const FLIP: f64 = 0.2;
/// Objective gap below which the indifferent architect calls a tie, and
/// the tie tolerance its sessions are told.
const INDIFFERENCE: i64 = 10;
const TIE_TOLERANCE: i64 = 100;

/// A cheap fleet configuration: few iterations at a small box budget.
fn session_cfg(id: u64) -> SynthConfig {
    let mut cfg = SynthConfig {
        seed: id + 1,
        delta_rel: 0.2,
        max_iterations: 8,
        initial_scenarios: 2,
        disamb_attempts: 2,
        margin: Rat::from_int(10),
        ..SynthConfig::default()
    };
    cfg.solver.max_boxes = 300;
    cfg
}

/// Even sessions answer through a noisy architect and repair the noise;
/// odd ones through an indifferent architect.
fn session_and_architect(id: u64) -> (Session, Box<dyn Oracle>) {
    let mut cfg = session_cfg(id);
    let truth = swan_target();
    let architect: Box<dyn Oracle> = if id.is_multiple_of(2) {
        cfg.repair_noise = true;
        Box::new(NoisyOracle::new(GroundTruthOracle::new(truth), FLIP, id))
    } else {
        cfg.tie_tolerance = Rat::from_int(TIE_TOLERANCE);
        Box::new(IndifferenceOracle::new(truth, Rat::from_int(INDIFFERENCE)))
    };
    let synth =
        Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg).expect("synthesizer builds");
    (Session::new(id, synth), architect)
}

#[test]
fn noisy_and_indifferent_fleet_ends_every_session_with_eviction() {
    let dir = std::env::temp_dir().join(format!("cso-serve-imperfect-{}", std::process::id()));
    let mut mgr =
        SessionManager::new(ServeConfig { batch: 4, threads: 2, snapdir: Some(dir.clone()) });
    let mut architects: HashMap<u64, Box<dyn Oracle>> = HashMap::new();
    for id in 0..SESSIONS {
        let (session, architect) = session_and_architect(id);
        mgr.insert(session);
        architects.insert(id, architect);
    }

    let mut done = Vec::new();
    let mut failed = Vec::new();
    let mut pending = mgr.ids();
    let mut rounds = 0;
    while !pending.is_empty() {
        rounds += 1;
        assert!(rounds < 100, "fleet did not finish: {pending:?} still pending");
        let results = mgr.step_batch(&pending).expect("every snapshot restores");
        let mut still = Vec::new();
        for (id, result) in results {
            match result {
                StepResult::NeedsRanking { scenarios, session_id, .. } => {
                    assert_eq!(session_id, id);
                    let ranking =
                        architects.get_mut(&id).expect("architect exists").rank(&scenarios);
                    match mgr.answer(id, &ranking) {
                        Ok(()) => {
                            mgr.evict(id).expect("evicts after the question");
                            still.push(id);
                        }
                        Err(ServeError::Synth(e)) => failed.push((id, e.to_string())),
                        Err(e) => panic!("session {id}: answer failed outside the engine: {e}"),
                    }
                }
                StepResult::Done(_) => done.push(id),
                StepResult::Rejected(e) => failed.push((id, e.to_string())),
            }
        }
        pending = still;
    }

    assert_eq!(done.len() + failed.len(), SESSIONS as usize, "done {done:?}, failed {failed:?}");
    assert!(!done.is_empty(), "no session finished: {failed:?}");
    // A failure is sticky: stepping a failed session again replays it.
    let failed_ids: Vec<u64> = failed.iter().map(|&(id, _)| id).collect();
    for (id, result) in mgr.step_batch(&failed_ids).expect("failed sessions step") {
        assert!(matches!(result, StepResult::Rejected(_)), "session {id} recovered from failure");
    }
    for id in mgr.ids() {
        let session = mgr.remove(id).expect("session restores");
        assert!(session.is_done(), "session {id} not terminal");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
