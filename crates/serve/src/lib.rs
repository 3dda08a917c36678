//! Multi-tenant synthesis session service.
//!
//! `cso-serve` multiplexes thousands of concurrent [`Session`]s over the
//! workspace's worker pool. The paper's interactive loop blocks on a human
//! architect; at service scale the engine must instead *park* cheaply
//! between questions, and that is exactly what the steppable engine
//! provides: a parked session is a plain value — no thread, no stack —
//! so the [`SessionManager`] can hold arbitrarily many and batch the
//! expensive synthesis steps (`NeedsRanking` → `answer` → step again)
//! through [`cso_runtime::pool::scoped_map`].
//!
//! Three pieces compose the service:
//!
//! * [`SessionManager`] — owns the sessions, steps pending ones in
//!   parallel batches, answers sequentially, and evicts idle sessions to
//!   disk as snapshots (restored transparently on next touch).
//! * [`SessionDemuxSink`] — a [`trace::Sink`] that routes the single
//!   process-wide event stream into one JSONL file per session, keyed by
//!   the session id every event is stamped with.
//! * the `cso-serve` binary — a synthetic-architect driver
//!   (`cso-serve --bench`) that simulates a fleet of sessions and reports
//!   sessions/sec and step-latency percentiles into a JSON report.
//!
//! Environment knobs: `CSO_SERVE_SESSIONS` (fleet size),
//! `CSO_SERVE_BATCH` (max sessions stepped per `scoped_map` batch), and
//! `CSO_SERVE_SNAPDIR` (snapshot directory enabling eviction).
//!
//! With `CSO_METRICS` enabled the manager additionally publishes fleet
//! metrics (steps/answers/evictions/restores counters,
//! resident/evicted occupancy gauges, a step-latency histogram); the
//! `cso-serve --bench` driver writes them out as periodic
//! Prometheus-style expositions (`CSO_METRICS=expo:<path>`) and prints a
//! fleet summary at the end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cso_runtime::metrics::{self, Counter, Gauge, Histogram};
use cso_runtime::pool::{available_threads, scoped_map};
use cso_runtime::trace::{self, Event, Sink};
use cso_synth::engine::StepResult;
use cso_synth::oracle::Ranking;
use cso_synth::{Session, SnapshotError, SynthError};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{LineWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

// A parked session must be movable into pool workers.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum sessions stepped per `scoped_map` batch.
    pub batch: usize,
    /// Worker threads for each batch.
    pub threads: usize,
    /// Snapshot directory; eviction is disabled when `None`.
    pub snapdir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { batch: 256, threads: available_threads(), snapdir: None }
    }
}

impl ServeConfig {
    /// Build from the environment: `CSO_SERVE_BATCH` overrides the batch
    /// size, `CSO_SERVE_SNAPDIR` enables snapshot-backed eviction.
    #[must_use]
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        if let Ok(v) = std::env::var("CSO_SERVE_BATCH") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.batch = n.max(1);
            }
        }
        if let Ok(dir) = std::env::var("CSO_SERVE_SNAPDIR") {
            if !dir.is_empty() {
                cfg.snapdir = Some(PathBuf::from(dir));
            }
        }
        cfg
    }
}

/// Why a service operation failed.
#[derive(Debug)]
pub enum ServeError {
    /// No session with this id is registered.
    UnknownSession(u64),
    /// The session is evicted and its snapshot could not be read back.
    Io(String),
    /// Snapshot serialization or restoration failed.
    Snapshot(SnapshotError),
    /// The engine rejected an operation (e.g. an answer with no pending
    /// query).
    Synth(SynthError),
    /// Eviction was requested but no snapshot directory is configured.
    NoSnapdir,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::Io(msg) => write!(f, "session store I/O error: {msg}"),
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServeError::Synth(e) => write!(f, "engine error: {e}"),
            ServeError::NoSnapdir => write!(f, "eviction requires CSO_SERVE_SNAPDIR"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> ServeError {
        ServeError::Snapshot(e)
    }
}

impl From<SynthError> for ServeError {
    fn from(e: SynthError) -> ServeError {
        ServeError::Synth(e)
    }
}

/// Where one session currently lives.
enum Slot {
    /// In memory, ready to step.
    Resident(Box<Session>),
    /// Snapshotted to this file; restored transparently on next touch.
    Evicted(PathBuf),
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Resident(_) => write!(f, "Resident"),
            Slot::Evicted(p) => write!(f, "Evicted({})", p.display()),
        }
    }
}

/// Fleet metrics published by [`SessionManager`] (all no-ops unless
/// `CSO_METRICS` enables collection; see `cso_runtime::metrics`).
static STEPS: Counter = Counter::new("cso_serve_steps_total");
static ANSWERS: Counter = Counter::new("cso_serve_answers_total");
static EVICTIONS: Counter = Counter::new("cso_serve_evictions_total");
static RESTORES: Counter = Counter::new("cso_serve_restores_total");
static RESIDENT: Gauge = Gauge::new("cso_serve_sessions_resident");
static EVICTED: Gauge = Gauge::new("cso_serve_sessions_evicted");
static STEP_NS: Histogram = Histogram::new("cso_serve_step_latency_ns");

/// Owns a fleet of sessions and schedules their steps in parallel batches.
#[derive(Debug)]
pub struct SessionManager {
    cfg: ServeConfig,
    slots: HashMap<u64, Slot>,
    /// Sessions currently in [`Slot::Evicted`], maintained incrementally
    /// so gauge publication never scans the fleet.
    evicted_count: usize,
}

impl SessionManager {
    /// An empty manager with the given configuration.
    #[must_use]
    pub fn new(cfg: ServeConfig) -> SessionManager {
        SessionManager { cfg, slots: HashMap::new(), evicted_count: 0 }
    }

    /// Register a session under its own id. Replaces any previous session
    /// with the same id.
    pub fn insert(&mut self, session: Session) {
        if let Some(Slot::Evicted(_)) = self.slots.get(&session.id()) {
            self.evicted_count -= 1;
        }
        self.slots.insert(session.id(), Slot::Resident(Box::new(session)));
        self.publish_occupancy();
    }

    /// Number of registered sessions (resident + evicted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` iff no sessions are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Ids of all registered sessions, sorted (deterministic order).
    #[must_use]
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Sessions currently evicted to disk.
    #[must_use]
    pub fn evicted_len(&self) -> usize {
        self.evicted_count
    }

    /// Refresh the fleet-occupancy gauges.
    fn publish_occupancy(&self) {
        if metrics::enabled() {
            RESIDENT.set((self.slots.len() - self.evicted_count) as i64);
            EVICTED.set(self.evicted_count as i64);
        }
    }

    /// Bring an evicted session back into memory.
    fn ensure_resident(&mut self, id: u64) -> Result<(), ServeError> {
        let slot = self.slots.get(&id).ok_or(ServeError::UnknownSession(id))?;
        if let Slot::Evicted(path) = slot {
            let bytes = std::fs::read(path)
                .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
            let session = Session::restore(&bytes)?;
            self.slots.insert(id, Slot::Resident(Box::new(session)));
            self.evicted_count -= 1;
            RESTORES.inc(1);
            self.publish_occupancy();
        }
        Ok(())
    }

    /// Step every listed session, batching them through the worker pool
    /// in chunks of the configured batch size. Evicted sessions are
    /// restored first. Returns `(id, result)` pairs in input order.
    ///
    /// # Errors
    /// Fails on an unknown id or a snapshot that cannot be restored;
    /// engine-level rejections are returned per-session inside
    /// [`StepResult::Rejected`], not as batch errors.
    pub fn step_batch(&mut self, ids: &[u64]) -> Result<Vec<(u64, StepResult)>, ServeError> {
        let mut out = Vec::with_capacity(ids.len());
        for chunk in ids.chunks(self.cfg.batch.max(1)) {
            // Pull the chunk's sessions out of the map so they can move
            // into the pool workers.
            let mut batch: Vec<Session> = Vec::with_capacity(chunk.len());
            for &id in chunk {
                self.ensure_resident(id)?;
                match self.slots.remove(&id) {
                    Some(Slot::Resident(s)) => batch.push(*s),
                    _ => return Err(ServeError::UnknownSession(id)),
                }
            }
            let threads = self.cfg.threads.min(batch.len().max(1));
            let n = batch.len();
            let t0 = std::time::Instant::now();
            let stepped = scoped_map(batch, threads, |mut session| {
                let result = session.step();
                (session, result)
            });
            if metrics::enabled() && n > 0 {
                // One clock read per chunk; the per-step estimate is the
                // chunk wall-clock spread over its sessions, observed once
                // per session so the histogram weighs batches by size.
                STEPS.inc(n as u64);
                let per_step =
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX) / n as u64;
                for _ in 0..n {
                    STEP_NS.observe(per_step);
                }
            }
            for (session, result) in stepped {
                out.push((session.id(), result));
                self.slots.insert(session.id(), Slot::Resident(Box::new(session)));
            }
        }
        Ok(out)
    }

    /// Feed a ranking to one session's pending query.
    ///
    /// # Errors
    /// Unknown id, unreadable snapshot, or an engine rejection (which also
    /// latches the session into its failed state, mirroring
    /// [`cso_synth::Synthesizer::answer`]).
    pub fn answer(&mut self, id: u64, ranking: &Ranking) -> Result<(), ServeError> {
        self.ensure_resident(id)?;
        match self.slots.get_mut(&id) {
            Some(Slot::Resident(s)) => {
                s.answer(ranking)?;
                ANSWERS.inc(1);
                Ok(())
            }
            _ => Err(ServeError::UnknownSession(id)),
        }
    }

    /// Snapshot one session to the snapshot directory and drop its
    /// in-memory state. A later touch restores it transparently.
    ///
    /// # Errors
    /// [`ServeError::NoSnapdir`] without a configured directory; I/O or
    /// serialization failures leave the session resident.
    pub fn evict(&mut self, id: u64) -> Result<(), ServeError> {
        let dir = self.cfg.snapdir.clone().ok_or(ServeError::NoSnapdir)?;
        self.ensure_resident(id)?;
        let Some(Slot::Resident(session)) = self.slots.get(&id) else {
            return Err(ServeError::UnknownSession(id));
        };
        let bytes = session.snapshot()?;
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServeError::Io(format!("{}: {e}", dir.display())))?;
        let path = dir.join(format!("{id}.snap"));
        std::fs::write(&path, &bytes)
            .map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))?;
        self.slots.insert(id, Slot::Evicted(path));
        self.evicted_count += 1;
        EVICTIONS.inc(1);
        self.publish_occupancy();
        Ok(())
    }

    /// `true` iff the session is currently evicted to disk.
    #[must_use]
    pub fn is_evicted(&self, id: u64) -> bool {
        matches!(self.slots.get(&id), Some(Slot::Evicted(_)))
    }

    /// Remove a session from the manager, returning it (restoring it from
    /// disk first if evicted).
    ///
    /// # Errors
    /// Unknown id or an unreadable/invalid snapshot.
    pub fn remove(&mut self, id: u64) -> Result<Session, ServeError> {
        self.ensure_resident(id)?;
        match self.slots.remove(&id) {
            Some(Slot::Resident(s)) => {
                self.publish_occupancy();
                Ok(*s)
            }
            _ => Err(ServeError::UnknownSession(id)),
        }
    }
}

/// A [`trace::Sink`] that demultiplexes the process-wide event stream
/// into one JSONL file per session (`<dir>/session-<id>.jsonl`), using
/// the session id stamped on every event by
/// [`trace::session_scope`]. Events with no session stamp
/// go to `<dir>/service.jsonl`.
pub struct SessionDemuxSink {
    dir: PathBuf,
    files: Mutex<HashMap<Option<u64>, LineWriter<File>>>,
}

impl fmt::Debug for SessionDemuxSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionDemuxSink({})", self.dir.display())
    }
}

impl SessionDemuxSink {
    /// Create the sink; per-session files are created lazily on first
    /// event.
    ///
    /// # Errors
    /// Fails if the directory cannot be created.
    pub fn new(dir: &Path) -> std::io::Result<SessionDemuxSink> {
        std::fs::create_dir_all(dir)?;
        Ok(SessionDemuxSink { dir: dir.to_path_buf(), files: Mutex::new(HashMap::new()) })
    }

    /// The file a given session's events land in.
    #[must_use]
    pub fn path_for(&self, session: Option<u64>) -> PathBuf {
        match session {
            Some(id) => self.dir.join(format!("session-{id}.jsonl")),
            None => self.dir.join("service.jsonl"),
        }
    }
}

impl Sink for SessionDemuxSink {
    fn record(&self, event: &Event) {
        let mut files = self.files.lock().unwrap_or_else(PoisonError::into_inner);
        let writer = match files.entry(event.session) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let Ok(file) = File::create(self.path_for(event.session)) else {
                    return;
                };
                v.insert(LineWriter::new(file))
            }
        };
        let _ = writeln!(writer, "{}", trace::to_jsonl(event));
    }

    fn flush(&self) {
        let mut files = self.files.lock().unwrap_or_else(PoisonError::into_inner);
        for w in files.values_mut() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_sketch::swan::{swan_sketch, swan_target};
    use cso_synth::oracle::{GroundTruthOracle, Oracle};
    use cso_synth::{MetricSpace, SynthConfig, Synthesizer};

    fn fleet_cfg(seed: u64) -> SynthConfig {
        let mut cfg = SynthConfig { seed, ..SynthConfig::fast_test() };
        cfg.solver.threads = 1;
        cfg
    }

    fn make_session(id: u64) -> Session {
        let synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), fleet_cfg(id + 1))
            .expect("synthesizer builds");
        Session::new(id, synth)
    }

    #[test]
    fn manager_drives_a_small_fleet_to_done() {
        let mut mgr = SessionManager::new(ServeConfig { batch: 2, threads: 2, snapdir: None });
        let mut oracles: HashMap<u64, GroundTruthOracle> = HashMap::new();
        for id in 0..3u64 {
            mgr.insert(make_session(id));
            oracles.insert(id, GroundTruthOracle::new(swan_target()));
        }
        let mut pending = mgr.ids();
        let mut guard = 0;
        while !pending.is_empty() {
            guard += 1;
            assert!(guard < 500, "fleet did not converge");
            let results = mgr.step_batch(&pending).expect("batch steps");
            let mut still = Vec::new();
            for (id, result) in results {
                match result {
                    StepResult::NeedsRanking { scenarios, session_id, .. } => {
                        assert_eq!(session_id, id);
                        let ranking = oracles.get_mut(&id).expect("oracle exists").rank(&scenarios);
                        mgr.answer(id, &ranking).expect("answer accepted");
                        still.push(id);
                    }
                    StepResult::Done(_) => {}
                    StepResult::Rejected(e) => panic!("session {id} rejected: {e}"),
                }
            }
            pending = still;
        }
        for id in mgr.ids() {
            let session = mgr.remove(id).expect("session exists");
            assert!(session.is_done());
        }
    }

    #[test]
    fn eviction_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("cso-serve-test-{}", std::process::id()));
        let mut mgr =
            SessionManager::new(ServeConfig { batch: 8, threads: 1, snapdir: Some(dir.clone()) });
        mgr.insert(make_session(7));
        // Park the session at its first question, then evict it.
        let results = mgr.step_batch(&[7]).expect("steps");
        assert!(matches!(results[0].1, StepResult::NeedsRanking { .. }));
        mgr.evict(7).expect("evicts");
        assert!(mgr.is_evicted(7));
        assert!(dir.join("7.snap").exists());
        // Touching it restores transparently and replays the same query.
        let results = mgr.step_batch(&[7]).expect("steps after restore");
        assert!(!mgr.is_evicted(7));
        assert!(matches!(results[0].1, StepResult::NeedsRanking { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_session_is_an_error() {
        let mut mgr = SessionManager::new(ServeConfig::default());
        assert!(matches!(mgr.step_batch(&[99]), Err(ServeError::UnknownSession(99))));
        let ranking = Ranking::total(vec![0]);
        assert!(matches!(mgr.answer(99, &ranking), Err(ServeError::UnknownSession(99))));
    }

    #[test]
    fn demux_sink_routes_by_session() {
        let dir = std::env::temp_dir().join(format!("cso-demux-test-{}", std::process::id()));
        let sink = SessionDemuxSink::new(&dir).expect("sink builds");
        let mk = |session| Event {
            kind: trace::Kind::Message,
            name: "test.msg".into(),
            thread: 1,
            worker: None,
            session,
            seq: 0,
            wall_ns: 5,
            dur_ns: None,
            fields: vec![("msg".into(), trace::Value::Str("hi".into()))],
        };
        sink.record(&mk(Some(3)));
        sink.record(&mk(Some(4)));
        sink.record(&mk(None));
        sink.flush();
        for (session, expect) in
            [(Some(3), "session-3.jsonl"), (Some(4), "session-4.jsonl"), (None, "service.jsonl")]
        {
            let path = sink.path_for(session);
            assert!(path.ends_with(expect));
            let text = std::fs::read_to_string(&path).expect("file exists");
            let event =
                trace::parse_line(text.lines().next().expect("one line")).expect("line parses");
            assert_eq!(event.session, session);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
