//! Sharded metrics: counters, gauges, log-bucketed histograms, and the
//! trace→metrics bridge.
//!
//! Where [`crate::trace`] records *events* (every span, in order, with
//! fields), this module records *aggregates*: monotone counters, gauges,
//! and latency histograms cheap enough to leave on in production. The
//! design constraints mirror tracing:
//!
//! * **Strictly observational.** Metrics never change outcomes; disabled,
//!   every probe is a single relaxed atomic load (the same budget as a
//!   disabled trace probe).
//! * **Uncontended on the hot path.** Counter and histogram cells are
//!   sharded per thread ([`SHARDS`] cache-line-padded slots, threads
//!   assigned round-robin), so the solver's per-query accounting never
//!   bounces a cache line between workers. Shards are summed only at
//!   [`snapshot`] time.
//! * **Zero dependencies.** The registry, the quantile math and the
//!   Prometheus-style text exposition are hand-rolled; the exposition is
//!   deterministic (metrics sorted by name within each section) so
//!   seed-driven fields can be golden-diffed in CI.
//!
//! # Histogram bucket math
//!
//! Values (u64, typically nanoseconds) land in log-bucketed cells:
//!
//! * `v < 32`: one bucket per value — **exact**.
//! * `v ≥ 32`: each power-of-two octave is split into 32 sub-buckets, so
//!   a bucket spanning `[lo, hi]` has `hi/lo ≤ 1 + 1/32`.
//!
//! Quantile estimates ([`HistogramSnapshot::quantile`]) locate the
//! nearest-rank sample's bucket and report its **upper** bound, so for
//! exact (nearest-rank) sample quantile `x` the estimate `e` satisfies
//!
//! ```text
//! x ≤ e ≤ x · (1 + 2⁻⁵)        (and e = x exactly for x < 32)
//! ```
//!
//! i.e. at most **+3.125 % relative error**, never an underestimate.
//! `prop_quantile_within_bucket_bound` pins this bound against exact
//! sorted-sample quantiles over random distributions.
//!
//! # Wiring
//!
//! Collection is off by default. `CSO_METRICS=on` enables it;
//! `CSO_METRICS=expo:<path>` additionally makes [`flush_exposition`]
//! (called by the `repro` and `cso-serve` binaries, periodically for
//! fleets) write the deterministic text exposition to `<path>`. Tests
//! use [`enable`] / [`disable`] programmatically and difference
//! [`Snapshot::delta`]s instead of assuming zero baselines.
//!
//! This module only holds the registry. Probes live with the code they
//! count; the solver-work counters (`cso_solver_*` and
//! `cso_engine_clauses_*`) are one fold of the engine's work records, updated at the same single point that
//! emits their trace counters and folds the run telemetry.
//!
//! # Trace bridge
//!
//! [`FlameFold`] folds a [`crate::trace`] event stream into per-phase
//! duration histograms and collapsed flame stacks
//! (`engine.run;engine.iteration;solver.bnp 1234567`, self-time
//! nanoseconds, inferno/flamegraph-compatible); `trace-digest --flame` /
//! `--metrics` run the fold offline over a JSONL file.

use crate::trace::{Event, Kind};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock, PoisonError};
use std::time::Duration;

/// Number of per-thread shards in every counter and histogram. A power
/// of two comfortably above the worker counts the pool uses; threads are
/// assigned shards round-robin, so with ≤ 16 live threads no two share.
pub const SHARDS: usize = 16;

/// Sub-buckets per power-of-two octave (2⁵): the histogram's documented
/// relative error bound is `1/SUB = 3.125 %`.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: 32 exact unit buckets below [`SUB`], then 32
/// sub-buckets for each of the 59 octaves up to `u64::MAX`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

// -- enable/disable state ---------------------------------------------------

const ST_UNINIT: u8 = 0;
const ST_OFF: u8 = 1;
const ST_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(ST_UNINIT);
static EXPO_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// This thread's shard slot, assigned round-robin on first use.
fn shard_index() -> usize {
    SHARD.with(|c| {
        let s = c.get();
        if s != usize::MAX {
            return s;
        }
        let s = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        c.set(s);
        s
    })
}

/// `true` when metrics collection is on — the one relaxed load every
/// disabled probe costs. The first call with no programmatic
/// [`enable`]/[`disable`] reads `CSO_METRICS` once: `on`/`1` enables
/// collection, `expo:<path>` enables it and points [`flush_exposition`]
/// at `<path>`, anything else (or unset) leaves metrics off.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ST_ON => true,
        ST_OFF => false,
        _ => {
            static ENV_INIT: Once = Once::new();
            ENV_INIT.call_once(init_from_env);
            STATE.load(Ordering::Relaxed) == ST_ON
        }
    }
}

fn init_from_env() {
    match std::env::var("CSO_METRICS").ok().as_deref().map(str::trim) {
        Some("on" | "1") => STATE.store(ST_ON, Ordering::SeqCst),
        Some(s) if s.starts_with("expo:") && s.len() > "expo:".len() => {
            *EXPO_PATH.lock().unwrap_or_else(PoisonError::into_inner) =
                Some(PathBuf::from(&s["expo:".len()..]));
            STATE.store(ST_ON, Ordering::SeqCst);
        }
        Some("" | "off" | "0" | "none") | None => STATE.store(ST_OFF, Ordering::SeqCst),
        Some(other) => {
            eprintln!("[metrics] unrecognized CSO_METRICS value {other:?}; metrics stay off");
            STATE.store(ST_OFF, Ordering::SeqCst);
        }
    }
}

/// Turn collection on programmatically (wins over the environment).
pub fn enable() {
    STATE.store(ST_ON, Ordering::SeqCst);
}

/// Turn collection off. Accumulated values are kept (counters are
/// cumulative for the process lifetime); consumers difference snapshots
/// via [`Snapshot::delta`] rather than expecting resets.
pub fn disable() {
    STATE.store(ST_OFF, Ordering::SeqCst);
}

// -- registry ---------------------------------------------------------------

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

fn register(m: Metric) {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner).push(m);
}

/// A cache-line-padded atomic cell: one per shard, so two threads
/// incrementing "the same" counter never write the same line.
#[repr(align(64))]
#[derive(Default)]
struct PadCell(AtomicU64);

/// Monotone counter, sharded per thread. Declare as a `static`:
///
/// ```
/// use cso_runtime::metrics::Counter;
/// static QUERIES: Counter = Counter::new("cso_example_queries_total");
/// QUERIES.inc(1);
/// ```
///
/// By convention names end in `_total` — CI treats those lines of the
/// exposition as deterministic (seed-driven) and golden-diffs them.
pub struct Counter {
    name: &'static str,
    reg: Once,
    shards: OnceLock<Box<[PadCell]>>,
}

impl Counter {
    /// Const-construct (storage is allocated on first increment).
    #[must_use]
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, reg: Once::new(), shards: OnceLock::new() }
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn cells(&self) -> &[PadCell] {
        self.shards.get_or_init(|| (0..SHARDS).map(|_| PadCell::default()).collect())
    }

    /// Add `n`. One relaxed load when metrics are disabled; when enabled,
    /// one relaxed add on this thread's shard.
    #[inline]
    pub fn inc(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.reg.call_once(|| register(Metric::Counter(self)));
        self.cells()[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over all shards.
    #[must_use]
    pub fn value(&self) -> u64 {
        match self.shards.get() {
            Some(cells) => cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum(),
            None => 0,
        }
    }
}

/// Last-write-wins gauge (fleet occupancy, queue depths). Gauges are
/// set from one coordinator thread at a time, so a single atomic cell
/// suffices — no sharding.
pub struct Gauge {
    name: &'static str,
    reg: Once,
    cell: AtomicI64,
}

impl Gauge {
    /// Const-construct.
    #[must_use]
    pub const fn new(name: &'static str) -> Gauge {
        Gauge { name, reg: Once::new(), cell: AtomicI64::new(0) }
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Set the gauge. One relaxed load when disabled.
    #[inline]
    pub fn set(&'static self, v: i64) {
        if !enabled() {
            return;
        }
        self.reg.call_once(|| register(Metric::Gauge(self)));
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One histogram shard: bucket cells plus running count and sum.
struct HistShard {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log-bucketed histogram, sharded per thread (see the module docs for
/// the bucket math and the documented quantile error bound).
pub struct Histogram {
    name: &'static str,
    reg: Once,
    shards: OnceLock<Box<[HistShard]>>,
}

impl Histogram {
    /// Const-construct (bucket storage is allocated on first observation).
    #[must_use]
    pub const fn new(name: &'static str) -> Histogram {
        Histogram { name, reg: Once::new(), shards: OnceLock::new() }
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn cells(&self) -> &[HistShard] {
        self.shards.get_or_init(|| (0..SHARDS).map(|_| HistShard::new()).collect())
    }

    /// Record one value. One relaxed load when disabled; three relaxed
    /// adds on this thread's shard when enabled.
    #[inline]
    pub fn observe(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.reg.call_once(|| register(Metric::Histogram(self)));
        self.record_unregistered(v);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn observe_duration(&'static self, d: Duration) {
        if !enabled() {
            return;
        }
        self.reg.call_once(|| register(Metric::Histogram(self)));
        self.record_unregistered(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record without the enabled gate or registry hookup — the testable
    /// core of [`Histogram::observe`], usable on non-static instances.
    pub fn record_unregistered(&self, v: u64) {
        let shard = &self.cells()[shard_index()];
        shard.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Merge every shard into one immutable snapshot.
    #[must_use]
    pub fn snap(&self) -> HistogramSnapshot {
        let mut buckets: Vec<(u16, u64)> = Vec::new();
        let (mut count, mut sum) = (0u64, 0u64);
        if let Some(shards) = self.shards.get() {
            let mut dense = vec![0u64; BUCKETS];
            for s in shards.iter() {
                for (i, c) in s.counts.iter().enumerate() {
                    dense[i] += c.load(Ordering::Relaxed);
                }
                count += s.count.load(Ordering::Relaxed);
                sum += s.sum.load(Ordering::Relaxed);
            }
            buckets = dense
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u16, c))
                .collect();
        }
        HistogramSnapshot { buckets, count, sum }
    }
}

/// Bucket index for a value (see the module docs).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e ≥ SUB_BITS
    let m = (v >> (e - SUB_BITS)) - SUB; // top SUB_BITS mantissa bits
    ((u64::from(e - SUB_BITS + 1)) * SUB + m) as usize
}

/// Inclusive `[lo, hi]` value range of a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB as usize {
        return (idx as u64, idx as u64);
    }
    let s = idx - SUB as usize;
    let oct = (s / SUB as usize) as u32;
    let m = (s % SUB as usize) as u64;
    let lo = (SUB + m) << oct;
    (lo, lo + ((1u64 << oct) - 1))
}

/// Immutable, mergeable view of a histogram: sparse sorted buckets plus
/// running count and sum. Also usable as a plain single-threaded
/// accumulator via [`HistogramSnapshot::record`] (the offline trace fold
/// uses that).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket index, count)` pairs, sorted by index, no zero counts.
    buckets: Vec<(u16, u64)>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> HistogramSnapshot {
        HistogramSnapshot::default()
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Record one value into this (non-atomic) accumulator.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v) as u16;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Fold another snapshot into this one. Ingesting a sample set
    /// through any partition into shards/snapshots and merging yields
    /// exactly the single-accumulator result
    /// (`prop_shard_merge_equals_single` pins this).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for &(idx, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (idx, c)),
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The difference `self − earlier`, for cumulative snapshots taken
    /// from the same histogram at two points in time.
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::new();
        let old: HashMap<u16, u64> = earlier.buckets.iter().copied().collect();
        for &(idx, c) in &self.buckets {
            let c = c.saturating_sub(old.get(&idx).copied().unwrap_or(0));
            if c > 0 {
                out.buckets.push((idx, c));
            }
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// holding the `⌈q·n⌉`-th smallest sample. Within the documented
    /// `+1/32` relative bound of the exact sample quantile, never an
    /// underestimate. Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_bounds(idx as usize).1;
            }
        }
        bucket_bounds(self.buckets.last().map_or(0, |&(i, _)| i as usize)).1
    }

    /// Mean of recorded values (0 for an empty histogram).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// -- snapshots and exposition -----------------------------------------------

/// A point-in-time view of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The change since `earlier`: counters and histograms difference,
    /// gauges keep their current (instantaneous) values.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot { gauges: self.gauges.clone(), ..Snapshot::default() };
        for (k, v) in &self.counters {
            out.counters
                .insert(k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)));
        }
        for (k, h) in &self.histograms {
            let zero = HistogramSnapshot::new();
            out.histograms.insert(k.clone(), h.delta(earlier.histograms.get(k).unwrap_or(&zero)));
        }
        out
    }
}

/// Snapshot every registered metric (metrics never touched by a probe
/// since process start are absent — the registry is populated on first
/// use, which keeps the exposition workload-driven and deterministic
/// for a deterministic workload).
#[must_use]
pub fn snapshot() -> Snapshot {
    let reg = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut snap = Snapshot::default();
    for m in reg.iter() {
        match m {
            Metric::Counter(c) => {
                snap.counters.insert(c.name.to_owned(), c.value());
            }
            Metric::Gauge(g) => {
                snap.gauges.insert(g.name.to_owned(), g.value());
            }
            Metric::Histogram(h) => {
                snap.histograms.insert(h.name.to_owned(), h.snap());
            }
        }
    }
    snap
}

/// The quantiles every histogram exposes.
pub const QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Render a snapshot in deterministic Prometheus-style text exposition:
/// counters, then gauges, then histograms (as summaries with the
/// [`QUANTILES`] quantile lines plus `_sum`/`_count`), each section
/// sorted by metric name. For a seed-deterministic workload every
/// `*_total` and `*_count` line is byte-stable across runs; quantile and
/// `_sum` lines carry wall-clock and are not.
#[must_use]
pub fn expose(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(out, "# TYPE {name} summary");
        for (q, label) in QUANTILES {
            let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
        }
        let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum(), h.count());
    }
    out
}

/// Render the current registry state ([`expose`] of [`snapshot`]).
#[must_use]
pub fn exposition() -> String {
    expose(&snapshot())
}

/// Write the current exposition to the configured `expo:` path, if
/// metrics are enabled and a path is set. Writes a sibling temp file and
/// renames over the target, so readers never see a torn exposition.
/// Returns the path written, `None` when not configured (errors are
/// reported on stderr, best-effort — metrics must never fail a run).
pub fn flush_exposition() -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let path = EXPO_PATH.lock().unwrap_or_else(PoisonError::into_inner).clone()?;
    let text = exposition();
    let tmp = path.with_extension("tmp");
    let res = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
    match res {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("[metrics] cannot write exposition {}: {e}", path.display());
            None
        }
    }
}

// -- trace → metrics bridge -------------------------------------------------

/// One open frame on a thread's span stack.
struct Frame {
    name: String,
    child_ns: u64,
}

/// Folds a trace event stream into collapsed flame stacks and per-phase
/// duration histograms.
///
/// Feed events in emission order (the order any sink receives them, and
/// the line order of a JSONL file). Per thread, span starts push a
/// frame; span ends pop it and attribute the span's *self time* —
/// duration minus the sum of its direct children's durations — to the
/// full ancestry path `root;…;leaf`. Identical paths from different
/// threads merge by summation, so for any span name that never nests
/// inside itself, the sum of self-times over all stacks containing the
/// name equals the sum of its span durations exactly (integer
/// nanoseconds) — the reconciliation the integration tests pin against
/// [`crate::trace`] durations.
#[derive(Default)]
pub struct FlameFold {
    stacks_by_thread: HashMap<u32, Vec<Frame>>,
    stacks: BTreeMap<String, u64>,
    phases: BTreeMap<String, HistogramSnapshot>,
    dropped: u64,
}

impl FlameFold {
    /// An empty fold.
    #[must_use]
    pub fn new() -> FlameFold {
        FlameFold::default()
    }

    /// Fold one event.
    pub fn feed(&mut self, e: &Event) {
        match e.kind {
            Kind::SpanStart => {
                self.stacks_by_thread
                    .entry(e.thread)
                    .or_default()
                    .push(Frame { name: e.name.clone(), child_ns: 0 });
            }
            Kind::SpanEnd => {
                let stack = self.stacks_by_thread.entry(e.thread).or_default();
                match stack.pop() {
                    Some(frame) if frame.name == e.name => {
                        let dur = e.dur_ns.unwrap_or(0);
                        let self_ns = dur.saturating_sub(frame.child_ns);
                        let mut path = String::new();
                        for f in stack.iter() {
                            path.push_str(&f.name);
                            path.push(';');
                        }
                        path.push_str(&frame.name);
                        *self.stacks.entry(path).or_insert(0) += self_ns;
                        if let Some(parent) = stack.last_mut() {
                            parent.child_ns = parent.child_ns.saturating_add(dur);
                        }
                        self.phases.entry(frame.name).or_default().record(dur);
                    }
                    other => {
                        // Mismatched or orphan end: tolerate (a truncated
                        // stream is still mostly foldable), but count it.
                        if let Some(f) = other {
                            stack.push(f);
                        }
                        self.dropped += 1;
                    }
                }
            }
            Kind::Counter | Kind::Message => {}
        }
    }

    /// Fold a whole slice of events.
    pub fn feed_all(&mut self, events: &[Event]) {
        for e in events {
            self.feed(e);
        }
    }

    /// Finish: collapsed stacks (`path → self-time ns`, paths
    /// `;`-joined root→leaf), per-phase duration histograms, and the
    /// count of events dropped as structurally unmatched (plus any spans
    /// still open, which contribute nothing).
    #[must_use]
    pub fn finish(self) -> FlameReport {
        let open: u64 = self.stacks_by_thread.values().map(|s| s.len() as u64).sum();
        FlameReport {
            stacks: self.stacks,
            phases: self.phases,
            dropped: self.dropped,
            unclosed: open,
        }
    }
}

/// Output of [`FlameFold::finish`].
#[derive(Debug, Clone, Default)]
pub struct FlameReport {
    /// Collapsed flame stacks: `root;…;leaf → self-time` (nanoseconds).
    pub stacks: BTreeMap<String, u64>,
    /// Per-span-name duration histograms (inclusive durations).
    pub phases: BTreeMap<String, HistogramSnapshot>,
    /// Span ends that matched no open span (malformed/truncated input).
    pub dropped: u64,
    /// Spans still open when the stream ended.
    pub unclosed: u64,
}

impl FlameReport {
    /// Render the stacks in collapsed flamegraph format (one
    /// `path count` line per stack, sorted by path — deterministic for a
    /// deterministic stream *shape*; the counts are nanoseconds and
    /// wall-clock).
    #[must_use]
    pub fn collapsed(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (path, ns) in &self.stacks {
            let _ = writeln!(out, "{path} {ns}");
        }
        out
    }

    /// Total self-time attributed to stacks containing `name` — equals
    /// the summed span durations of `name` when it never self-nests.
    #[must_use]
    pub fn inclusive_ns(&self, name: &str) -> u64 {
        self.stacks
            .iter()
            .filter(|(path, _)| path.split(';').any(|frame| frame == name))
            .map(|(_, ns)| ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use crate::prop;

    /// Tests that flip the global enabled state must not interleave.
    static MET_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        MET_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn bucket_index_covers_u64_and_bounds_invert() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(31), 31);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Bounds are a partition: every probe value lands inside its
        // bucket's [lo, hi], and the bucket is within the error bound.
        let mut probes: Vec<u64> = (0..200).collect();
        for e in 5..64u32 {
            for off in [0u64, 1, 31, 1 << (e.saturating_sub(1))] {
                probes.push((1u64 << e).saturating_add(off));
                probes.push((1u64 << e).saturating_sub(1));
            }
        }
        probes.push(u64::MAX);
        for &v in &probes {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
            // Relative width bound: hi - lo < lo / 32 + 1.
            assert!(hi - lo <= lo / SUB, "bucket too wide: v={v} lo={lo} hi={hi}");
        }
        // Buckets tile contiguously.
        for idx in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (lo_next, _) = bucket_bounds(idx + 1);
            assert_eq!(hi + 1, lo_next, "gap between buckets {idx} and {}", idx + 1);
        }
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    /// Nearest-rank exact quantile of a sample.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Property (satellite): histogram quantile estimates are within the
    /// documented bucket bound of exact sorted-sample quantiles, for
    /// random samples spanning the full magnitude range.
    #[test]
    fn prop_quantile_within_bucket_bound() {
        // Log-uniform-ish values: a shift in [0, 60) bits times a small
        // mantissa, so samples span from tiny to huge.
        let value = prop::zip2(prop::u64_in(0, 59), prop::u64_in(1, 1023))
            .map(|(shift, m)| m.checked_shl(shift as u32).unwrap_or(u64::MAX));
        let gen = prop::vec_of(value, 1, 200);
        prop::check("hist_quantile_bound", &gen, |sample| {
            let mut h = HistogramSnapshot::new();
            for &v in sample {
                h.record(v);
            }
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            for (q, _) in QUANTILES {
                let exact = exact_quantile(&sorted, q);
                let est = h.quantile(q);
                if est < exact {
                    return Err(prop::CaseError::Fail(format!(
                        "q={q}: estimate {est} underestimates exact {exact}"
                    )));
                }
                // est ≤ exact · (1 + 1/32); integer form avoids fp edge
                // cases: est - exact ≤ exact/32 (+1 for the floor).
                if est - exact > exact / SUB + 1 {
                    return Err(prop::CaseError::Fail(format!(
                        "q={q}: estimate {est} outside bound for exact {exact}"
                    )));
                }
            }
            Ok(())
        });
    }

    /// Property (satellite): merging shard snapshots equals single-shard
    /// ingestion — both for explicit snapshot merges and for the sharded
    /// atomic histogram fed from many pool threads.
    #[test]
    fn prop_shard_merge_equals_single() {
        let value = prop::u64_in(0, 1 << 40);
        let gen = prop::zip2(prop::vec_of(value, 0, 120), prop::usize_in(1, 4));
        prop::check("hist_shard_merge", &gen, |(sample, threads)| {
            // Reference: one accumulator.
            let mut single = HistogramSnapshot::new();
            for &v in sample {
                single.record(v);
            }
            // Partitioned accumulators, merged.
            let mut parts = vec![HistogramSnapshot::new(); *threads];
            for (i, &v) in sample.iter().enumerate() {
                parts[i % threads].record(v);
            }
            let mut merged = HistogramSnapshot::new();
            for p in &parts {
                merged.merge(p);
            }
            if merged != single {
                return Err(prop::CaseError::Fail("snapshot merge mismatch".into()));
            }
            // Sharded atomic histogram fed from `threads` pool workers:
            // snapshot equals the single accumulator.
            let h = Histogram::new("t_shard_merge");
            let chunks: Vec<Vec<u64>> = (0..*threads)
                .map(|t| sample.iter().copied().skip(t).step_by(*threads).collect())
                .collect();
            pool::scoped_map(chunks, *threads, |chunk| {
                for v in chunk {
                    h.record_unregistered(v);
                }
            });
            if h.snap() != single {
                return Err(prop::CaseError::Fail("sharded histogram mismatch".into()));
            }
            Ok(())
        });
    }

    #[test]
    fn quantiles_exact_below_linear_cutoff() {
        let mut h = HistogramSnapshot::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(0.9), 9);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 55);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let mut a = Snapshot::default();
        a.counters.insert("c".into(), 10);
        let mut h1 = HistogramSnapshot::new();
        h1.record(5);
        a.histograms.insert("h".into(), h1);
        let mut b = a.clone();
        b.counters.insert("c".into(), 25);
        b.counters.insert("new".into(), 3);
        let mut h2 = a.histograms["h"].clone();
        h2.record(7);
        h2.record(7);
        b.histograms.insert("h".into(), h2);
        let d = b.delta(&a);
        assert_eq!(d.counters["c"], 15);
        assert_eq!(d.counters["new"], 3);
        assert_eq!(d.histograms["h"].count(), 2);
        assert_eq!(d.histograms["h"].sum(), 14);
        assert_eq!(d.histograms["h"].quantile(0.5), 7);
    }

    #[test]
    fn disabled_probes_are_inert_and_enable_wins() {
        let _g = lock();
        disable();
        static C: Counter = Counter::new("t_inert_total");
        static H: Histogram = Histogram::new("t_inert_ns");
        static G: Gauge = Gauge::new("t_inert_gauge");
        C.inc(5);
        H.observe(5);
        G.set(5);
        assert_eq!(C.value(), 0);
        assert_eq!(G.value(), 0);
        assert!(H.snap().is_empty());
        enable();
        C.inc(5);
        H.observe(7);
        G.set(5);
        disable();
        assert_eq!(C.value(), 5);
        assert_eq!(G.value(), 5);
        assert_eq!(H.snap().count(), 1);
        // Registered metrics appear in the global snapshot.
        let snap = snapshot();
        assert_eq!(snap.counters.get("t_inert_total"), Some(&5));
        assert_eq!(snap.gauges.get("t_inert_gauge"), Some(&5));
        assert_eq!(snap.histograms.get("t_inert_ns").map(HistogramSnapshot::count), Some(1));
    }

    #[test]
    fn exposition_is_deterministic_and_prometheus_shaped() {
        let mut snap = Snapshot::default();
        snap.counters.insert("cso_b_total".into(), 2);
        snap.counters.insert("cso_a_total".into(), 1);
        snap.gauges.insert("cso_g".into(), -3);
        let mut h = HistogramSnapshot::new();
        h.record(100);
        h.record(200);
        snap.histograms.insert("cso_h_ns".into(), h);
        let text = expose(&snap);
        let again = expose(&snap.clone());
        assert_eq!(text, again);
        // Sections sorted by name; counters come with TYPE headers.
        let a = text.find("cso_a_total 1").expect("counter a");
        let b = text.find("cso_b_total 2").expect("counter b");
        assert!(a < b, "counters sorted by name");
        assert!(text.contains("# TYPE cso_a_total counter"));
        assert!(text.contains("# TYPE cso_g gauge\ncso_g -3"));
        assert!(text.contains("# TYPE cso_h_ns summary"));
        assert!(text.contains("cso_h_ns{quantile=\"0.5\"}"));
        assert!(text.contains("cso_h_ns_count 2"));
    }

    fn ev(kind: Kind, name: &str, thread: u32, dur: Option<u64>) -> Event {
        Event {
            kind,
            name: name.to_owned(),
            thread,
            worker: None,
            session: None,
            seq: 0,
            wall_ns: 0,
            dur_ns: dur,
            fields: Vec::new(),
        }
    }

    #[test]
    fn flame_fold_attributes_self_time() {
        let mut fold = FlameFold::new();
        // Thread 0: run { iter { bnp(30) } iter-self 20, run-self 50 }.
        fold.feed(&ev(Kind::SpanStart, "run", 0, None));
        fold.feed(&ev(Kind::SpanStart, "iter", 0, None));
        fold.feed(&ev(Kind::SpanStart, "bnp", 0, None));
        fold.feed(&ev(Kind::SpanEnd, "bnp", 0, Some(30)));
        fold.feed(&ev(Kind::SpanEnd, "iter", 0, Some(50)));
        // Thread 1 contributes the same leaf path; merges by sum.
        fold.feed(&ev(Kind::SpanStart, "run", 1, None));
        fold.feed(&ev(Kind::SpanStart, "iter", 1, None));
        fold.feed(&ev(Kind::SpanStart, "bnp", 1, None));
        fold.feed(&ev(Kind::SpanEnd, "bnp", 1, Some(5)));
        fold.feed(&ev(Kind::SpanEnd, "iter", 1, Some(5)));
        fold.feed(&ev(Kind::SpanEnd, "run", 1, Some(5)));
        fold.feed(&ev(Kind::SpanEnd, "run", 0, Some(100)));
        let report = fold.finish();
        assert_eq!(report.dropped, 0);
        assert_eq!(report.unclosed, 0);
        assert_eq!(report.stacks["run;iter;bnp"], 35);
        assert_eq!(report.stacks["run;iter"], 20); // 50-30 + 5-5
        assert_eq!(report.stacks["run"], 50); // 100-50 + 5-5
                                              // Reconciliation invariant: inclusive == summed span durations.
        assert_eq!(report.inclusive_ns("bnp"), 35);
        assert_eq!(report.inclusive_ns("iter"), 55);
        assert_eq!(report.inclusive_ns("run"), 105);
        // Per-phase histograms saw the inclusive durations.
        assert_eq!(report.phases["bnp"].count(), 2);
        assert_eq!(report.phases["bnp"].sum(), 35);
        // Collapsed rendering is sorted and newline-terminated.
        let text = report.collapsed();
        assert!(text.contains("run;iter;bnp 35\n"));
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn flame_fold_tolerates_malformed_streams() {
        let mut fold = FlameFold::new();
        fold.feed(&ev(Kind::SpanEnd, "orphan", 0, Some(10)));
        fold.feed(&ev(Kind::SpanStart, "a", 0, None));
        fold.feed(&ev(Kind::SpanEnd, "mismatch", 0, Some(10)));
        fold.feed(&ev(Kind::SpanStart, "b", 0, None));
        let report = fold.finish();
        assert_eq!(report.dropped, 2);
        assert_eq!(report.unclosed, 2);
    }

    #[test]
    fn counter_shards_sum_across_threads() {
        let _g = lock();
        enable();
        static C: Counter = Counter::new("t_sharded_total");
        let before = C.value();
        pool::scoped_map((0..64u64).collect::<Vec<_>>(), 4, |i| C.inc(i));
        disable();
        assert_eq!(C.value() - before, (0..64).sum::<u64>());
    }
}
