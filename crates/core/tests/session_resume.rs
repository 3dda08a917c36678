//! Differential harness: suspend → snapshot → restore → resume is
//! byte-identical to an uninterrupted run.
//!
//! The steppable engine parks between every oracle interaction; a parked
//! session snapshots to a self-contained byte blob ([`Session::snapshot`])
//! and restores in a "different process" (here: a fresh [`Session`] built
//! only from the bytes). This test drives the full SWAN synthesis twice
//! per configuration — once straight through, once suspending at a
//! seed-dependent park and resuming from the snapshot — and asserts the
//! two trajectories match exactly: same outcome, same learnt hole values,
//! same iteration count, and the exact same sequence of ranking requests,
//! across seeds.
//!
//! Also covered here: the snapshot encoding is itself deterministic
//! (`snapshot(restore(s)) == s`), snapshots stay small (they carry no
//! caches), and wall-clock time a session spends
//! *parked* — the architect thinking — leaks into neither
//! `SynthStats::total_time` nor `oracle_time`.

use cso_numeric::Rat;
use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::engine::StepResult;
use cso_synth::{
    GroundTruthOracle, MetricSpace, Oracle, Ranking, Scenario, Session, SynthConfig, SynthOutcome,
    SynthResult, Synthesizer,
};
use std::time::Duration;

/// One oracle interaction: the exact scenario values asked about, and the
/// grouped ranking returned.
type Interaction = (Vec<Vec<Rat>>, Vec<Vec<usize>>);

struct RecordingOracle {
    inner: GroundTruthOracle,
    trace: Vec<Interaction>,
}

impl RecordingOracle {
    fn new() -> RecordingOracle {
        RecordingOracle { inner: GroundTruthOracle::new(swan_target()), trace: Vec::new() }
    }
}

impl Oracle for RecordingOracle {
    fn rank(&mut self, scenarios: &[Scenario]) -> Ranking {
        let r = self.inner.rank(scenarios);
        self.trace
            .push((scenarios.iter().map(|s| s.values().to_vec()).collect(), r.groups.clone()));
        r
    }

    fn describe(&self) -> String {
        "recording ground truth".to_owned()
    }
}

#[derive(Debug, PartialEq)]
struct Observed {
    outcome: SynthOutcome,
    iterations: usize,
    holes: Vec<Rat>,
    rendered: String,
    trace: Vec<Interaction>,
}

fn observe(result: &SynthResult, oracle: RecordingOracle) -> Observed {
    Observed {
        outcome: result.outcome,
        iterations: result.stats.iterations(),
        holes: result.objective.hole_values().to_vec(),
        rendered: result.objective.to_string(),
        trace: oracle.trace,
    }
}

fn fresh_session(seed: u64) -> Session {
    let mut cfg = SynthConfig::fast_test();
    cfg.seed = seed;
    let synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg)
        .expect("SWAN sketch matches its metric space");
    Session::new(seed, synth)
}

/// Drive `session` to completion; when `suspend_at` is `Some(k)`, the
/// session is snapshotted at its `k`-th park (falling back to the last
/// park if the run has fewer), dropped, restored from the bytes, and the
/// restored session finishes the run.
fn drive(
    mut session: Session,
    oracle: &mut RecordingOracle,
    suspend_at: Option<usize>,
) -> SynthResult {
    let mut parks = 0usize;
    loop {
        match session.step() {
            StepResult::NeedsRanking { scenarios, session_id, .. } => {
                if suspend_at == Some(parks) {
                    let bytes = session.snapshot().expect("parked session snapshots");
                    // Determinism of the encoding itself: re-snapshotting
                    // the restored session reproduces the bytes.
                    let restored = Session::restore(&bytes).expect("snapshot restores");
                    assert_eq!(
                        restored.snapshot().expect("restored session snapshots"),
                        bytes,
                        "snapshot(restore(s)) != s"
                    );
                    drop(session);
                    session = restored;
                    assert_eq!(session.id(), session_id, "session id survives the round-trip");
                    // The restored session must replay the identical query.
                    let StepResult::NeedsRanking { scenarios: replayed, .. } = session.step()
                    else {
                        panic!("restored session lost its pending query");
                    };
                    assert_eq!(replayed, scenarios, "restored session changed the pending query");
                }
                parks += 1;
                let ranking = oracle.rank(&scenarios);
                session.answer(&ranking).expect("ground-truth ranking accepted");
            }
            StepResult::Done(result) => return *result,
            StepResult::Rejected(e) => panic!("synthesis rejected: {e}"),
        }
    }
}

/// The core differential property: a suspend/restore cycle at an
/// arbitrary park changes nothing the architect can observe.
#[test]
fn suspend_resume_is_byte_identical() {
    for seed in [11u64, 42, 2026] {
        let mut oracle_straight = RecordingOracle::new();
        let straight = drive(fresh_session(seed), &mut oracle_straight, None);

        // Park index varies with the seed so the matrix hits the initial
        // ranking (park 0) and later iteration parks.
        let park = (seed % 4) as usize;
        let mut oracle_resumed = RecordingOracle::new();
        let resumed = drive(fresh_session(seed), &mut oracle_resumed, Some(park));

        assert_eq!(
            observe(&straight, oracle_straight),
            observe(&resumed, oracle_resumed),
            "seed {seed}, park {park}: suspend/resume diverged"
        );
    }
}

/// Snapshots carry state, not caches: at every park of the Table 1
/// Quick runs (seeds 1000–1002) the blob stays under 16 KB. The engine
/// state is 4–6 KB; a cache creeping back into the format (the solver
/// memo once made these 50–180 KB) fails here.
#[test]
fn quick_run_snapshots_stay_small() {
    const LIMIT: usize = 16 * 1024;
    for seed in [1000u64, 1001, 1002] {
        let mut session = fresh_session(seed);
        let mut oracle = GroundTruthOracle::new(swan_target());
        let mut parks = 0;
        loop {
            match session.step() {
                StepResult::NeedsRanking { scenarios, .. } => {
                    let bytes = session.snapshot().expect("parked session snapshots").len();
                    assert!(bytes < LIMIT, "seed {seed}, park {parks}: {bytes} bytes");
                    parks += 1;
                    session.answer(&oracle.rank(&scenarios)).expect("ranking accepted");
                }
                StepResult::Done(_) => break,
                StepResult::Rejected(e) => panic!("synthesis rejected: {e}"),
            }
        }
        assert!(parks > 1, "seed {seed}: the run parked only {parks} times");
    }
}

/// Park wall-clock must not leak into synthesis-time accounting. The
/// discriminator is structural, not comparative (a second timed run
/// would be hostage to scheduler noise on a loaded CI box): sample
/// `total_time` while parked, sleep a long architect "think" delay,
/// finish the iteration, and require the observed growth to stay far
/// below the delay — a leak would add the *entire* sleep to the delta.
#[test]
fn park_time_is_excluded_from_totals() {
    let park_delay = Duration::from_secs(3);
    let mut oracle = GroundTruthOracle::new(swan_target());
    let mut session = fresh_session(3);

    // Reach the first park and let the architect think for a long time.
    let StepResult::NeedsRanking { scenarios, .. } = session.step() else {
        panic!("expected a ranking query");
    };
    let before = session.stats().total_time;
    std::thread::sleep(park_delay);
    // Parked time alone must not move the clock at all.
    assert_eq!(session.stats().total_time, before, "total_time advanced while parked");

    // Answer and advance to the next park (or the end): the growth is
    // one answer plus one iteration of synthesis work. If the engine
    // timed from the moment it parked, the 3s sleep would be included
    // and the delta could not stay below it.
    let ranking = oracle.rank(&scenarios);
    session.answer(&ranking).expect("ranking accepted");
    let _ = session.step();
    let grown = session.stats().total_time.saturating_sub(before);
    assert!(
        grown < park_delay,
        "total_time grew by {grown:?} across a {park_delay:?} park — park time leaked"
    );

    // Drive to completion: externally driven sessions never invoke an
    // in-process oracle, so oracle_time stays exactly zero throughout.
    let result = loop {
        match session.step() {
            StepResult::NeedsRanking { scenarios, .. } => {
                let ranking = oracle.rank(&scenarios);
                session.answer(&ranking).expect("ranking accepted");
            }
            StepResult::Done(r) => break *r,
            StepResult::Rejected(e) => panic!("synthesis rejected: {e}"),
        }
    };
    assert_eq!(result.stats.oracle_time, Duration::ZERO);
}

/// Corrupting any single byte of a valid snapshot must yield a clean
/// versioned error (or, rarely, an equal-value decode) — never a panic.
#[test]
fn corrupted_snapshots_fail_cleanly() {
    let mut session = fresh_session(5);
    // Park at the first question so the snapshot carries real state.
    let StepResult::NeedsRanking { .. } = session.step() else {
        panic!("expected a ranking query");
    };
    let bytes = session.snapshot().expect("parked session snapshots");

    // Truncations at every length.
    for cut in 0..bytes.len() {
        assert!(
            Session::restore(&bytes[..cut]).is_err(),
            "truncation at {cut} restored successfully"
        );
    }
    // Single-byte corruptions at a spread of offsets (every byte would
    // be minutes of work; a fixed stride still covers every section).
    for i in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x5A;
        // Restoration may legitimately succeed if the flipped byte round
        // trips to equivalent state; what it must never do is panic.
        let _ = Session::restore(&bad);
    }
}
