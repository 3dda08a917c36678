//! Structured tracing: nested spans, named counters, and pluggable sinks.
//!
//! The synthesis loop is a pipeline of phases the paper times separately —
//! initial ranking, candidate search, distinguishing-pair search, oracle
//! asks, noise repair, solver seeding, branch-and-prune — and this module
//! is the one place they all report to. Three principles:
//!
//! * **Strictly observational.** Tracing never changes outcomes: no
//!   randomness, no control flow, no data flows back out of a sink.
//!   Disabled, every probe is a single relaxed atomic load; field vectors
//!   are built by closures that never run.
//! * **Deterministic structure.** Every event carries the emitting
//!   thread's id, its per-thread monotone logical clock, and (inside a
//!   [`crate::pool`] worker) the worker index, so a trace can be checked
//!   for well-formedness — spans strictly nested and balanced per thread,
//!   clocks strictly increasing — regardless of OS scheduling.
//! * **Zero dependencies.** The JSONL writer and its parser are
//!   hand-rolled for the flat schema below; the same parser backs the
//!   `trace-digest` tool and the test suite, so what we write is what we
//!   can read.
//!
//! # Sinks and wiring
//!
//! A process has at most one active sink ([`install`] / [`uninstall`]).
//! When no sink was installed programmatically, the first probe reads the
//! environment once:
//!
//! * `CSO_TRACE=jsonl:<path>` — append machine-readable JSONL to `<path>`;
//! * `CSO_TRACE=pretty` — indented human-readable lines on stderr;
//! * `CSO_TRACE=off` (or empty/unset) — disabled.
//!
//! # Event schema (JSONL)
//!
//! One JSON object per line, flat except for the `f` field map:
//!
//! ```json
//! {"k":"s","n":"engine.iteration","t":0,"q":17,"ns":81234,"f":{"iter":3}}
//! {"k":"e","n":"engine.iteration","t":0,"q":24,"ns":99870,"dur":18636,"f":{"iter":3}}
//! {"k":"c","n":"solver.query","t":0,"q":20,"ns":90011,"w":2,"f":{"boxes":128}}
//! ```
//!
//! `k` is the kind (`s`pan start, span `e`nd, `c`ounter, `m`essage), `n`
//! the name, `t` the thread id, `q` the per-thread logical clock, `ns`
//! wall-clock nanoseconds since the process's first event, `w` the pool
//! worker index (absent outside workers), `sid` the synthesis session id
//! (absent outside a [`session_scope`]), `dur` the span duration in
//! nanoseconds (span ends only), and `f` the event's fields. Span ends
//! repeat their start's fields so single-pass consumers need no
//! start/end matching.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{LineWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// A field value. Counts and durations are `U64`, ratios `F64`, free text
/// `Str`. (No signed integers: nothing in the workspace traces one, and
/// dropping them keeps the JSONL number grammar unambiguous.)
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, ids, nanosecond durations).
    U64(u64),
    /// Floating point (ratios, factors). Must be finite.
    F64(f64),
    /// Free-form text.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(u) => write!(f, "{u}"),
            Value::F64(x) => write!(f, "{x:?}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A span opened on the emitting thread.
    SpanStart,
    /// The matching span closed; [`Event::dur_ns`] carries its duration.
    SpanEnd,
    /// A point-in-time counter reading.
    Counter,
    /// A free-form diagnostic message (field `msg`).
    Message,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What happened.
    pub kind: Kind,
    /// Span, counter, or message-scope name (dotted, e.g. `solver.bnp`).
    pub name: String,
    /// Process-unique id of the emitting thread (assigned on first use).
    pub thread: u32,
    /// Pool worker index, when emitted inside a [`crate::pool`] worker.
    pub worker: Option<u32>,
    /// Synthesis session id, when emitted inside a [`session_scope`].
    /// Lets a multi-session service demultiplex one shared stream.
    pub session: Option<u64>,
    /// Per-thread logical clock: strictly increasing on each thread.
    pub seq: u64,
    /// Wall-clock nanoseconds since the process's first trace event.
    pub wall_ns: u64,
    /// Span duration in nanoseconds ([`Kind::SpanEnd`] only).
    pub dur_ns: Option<u64>,
    /// Named payload fields.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Look up an unsigned-integer field by name.
    #[must_use]
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
            Value::U64(u) => Some(*u),
            _ => None,
        })
    }

    /// Look up a string field by name.
    #[must_use]
    pub fn field_str(&self, name: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }
}

/// Where events go. Implementations must be cheap to call concurrently:
/// `record` is invoked from every traced thread.
pub trait Sink: Send + Sync {
    /// Consume one event.
    fn record(&self, event: &Event);
    /// Push buffered output to its destination (no-op by default).
    fn flush(&self) {}
}

// -- global state -----------------------------------------------------------

/// Tracing state: not yet initialized from the environment.
const ST_UNINIT: u8 = 0;
/// Tracing disabled (the steady off state: one relaxed load per probe).
const ST_OFF: u8 = 1;
/// Tracing enabled, a sink is installed.
const ST_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(ST_UNINIT);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD_ID: Cell<Option<u32>> = const { Cell::new(None) };
    static WORKER_ID: Cell<Option<u32>> = const { Cell::new(None) };
    static SESSION_ID: Cell<Option<u64>> = const { Cell::new(None) };
    static LOGICAL_CLOCK: Cell<u64> = const { Cell::new(0) };
}

/// `true` when a sink is installed. This is the hot-path check every probe
/// performs; in the steady state (on or off) it is one relaxed atomic
/// load. The first call with no programmatic sink reads `CSO_TRACE` once
/// and installs the matching sink.
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

/// Install `sink` as the process-wide trace sink and enable tracing.
/// Replaces any previous sink. Programmatic installation wins over the
/// environment: if called before the first probe, `CSO_TRACE` is never
/// consulted.
pub fn install(sink: Arc<dyn Sink>) {
    *SINK.write().unwrap_or_else(PoisonError::into_inner) = Some(sink);
    STATE.store(ST_ON, Ordering::SeqCst);
}

/// Disable tracing and detach the current sink, returning it so callers
/// can flush or inspect it. After `uninstall` the state is *off* (the
/// environment is not re-read).
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    STATE.store(ST_OFF, Ordering::SeqCst);
    let sink = SINK.write().unwrap_or_else(PoisonError::into_inner).take();
    if let Some(s) = &sink {
        s.flush();
    }
    sink
}

/// Trace mode requested by the environment.
enum Mode {
    Off,
    Pretty,
    Jsonl(String),
}

/// Pure decision function for the `CSO_TRACE` wiring (unit-testable
/// without touching the process environment).
fn mode_from(cso_trace: Option<&str>) -> Mode {
    match cso_trace.map(str::trim) {
        Some("" | "off" | "0" | "none") | None => Mode::Off,
        Some("pretty") => Mode::Pretty,
        Some(s) if s.starts_with("jsonl:") => Mode::Jsonl(s["jsonl:".len()..].to_owned()),
        Some(other) => {
            eprintln!("[trace] unrecognized CSO_TRACE value {other:?}; tracing stays off");
            Mode::Off
        }
    }
}

fn init_from_env() {
    let cso_trace = std::env::var("CSO_TRACE").ok();
    match mode_from(cso_trace.as_deref()) {
        Mode::Off => STATE.store(ST_OFF, Ordering::SeqCst),
        Mode::Pretty => install(Arc::new(PrettySink::new())),
        Mode::Jsonl(path) => match JsonlSink::create(&path) {
            Ok(s) => install(Arc::new(s)),
            Err(e) => {
                eprintln!("[trace] cannot open {path:?} for CSO_TRACE=jsonl: {e}; tracing off");
                STATE.store(ST_OFF, Ordering::SeqCst);
            }
        },
    }
}

// -- emission ---------------------------------------------------------------

fn thread_id() -> u32 {
    THREAD_ID.with(|c| match c.get() {
        Some(t) => t,
        None => {
            let t = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            c.set(Some(t));
            t
        }
    })
}

fn own_fields(fields: &[(&'static str, Value)]) -> Vec<(String, Value)> {
    fields.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
}

fn emit(kind: Kind, name: &str, dur_ns: Option<u64>, fields: Vec<(String, Value)>) {
    let guard = SINK.read().unwrap_or_else(PoisonError::into_inner);
    let Some(sink) = guard.as_ref() else { return };
    let seq = LOGICAL_CLOCK.with(|c| {
        let s = c.get();
        c.set(s + 1);
        s
    });
    let wall_ns =
        u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX);
    let event = Event {
        kind,
        name: name.to_owned(),
        thread: thread_id(),
        worker: WORKER_ID.with(Cell::get),
        session: SESSION_ID.with(Cell::get),
        seq,
        wall_ns,
        dur_ns,
        fields,
    };
    sink.record(&event);
}

/// RAII guard for an open span: emits the matching [`Kind::SpanEnd`]
/// (with the start's fields and the measured duration) on drop. Must be
/// dropped on the thread that opened it — span nesting is per-thread.
#[must_use = "dropping the guard closes the span immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, Value)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            let dur = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            emit(Kind::SpanEnd, self.name, Some(dur), own_fields(&self.fields));
        }
    }
}

/// Open a span named `name`. Inert (no clock read, no allocation) when
/// tracing is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, Vec::new)
}

/// Open a span with payload fields. The field closure runs only when
/// tracing is enabled, so an expensive payload costs nothing when off.
pub fn span_with<F>(name: &'static str, fields: F) -> SpanGuard
where
    F: FnOnce() -> Vec<(&'static str, Value)>,
{
    if !enabled() {
        return SpanGuard { name, start: None, fields: Vec::new() };
    }
    let fields = fields();
    emit(Kind::SpanStart, name, None, own_fields(&fields));
    SpanGuard { name, start: Some(Instant::now()), fields }
}

/// Emit a counter event. The field closure runs only when tracing is
/// enabled.
pub fn counter<F>(name: &'static str, fields: F)
where
    F: FnOnce() -> Vec<(&'static str, Value)>,
{
    if enabled() {
        emit(Kind::Counter, name, None, own_fields(&fields()));
    }
}

/// Emit a free-form diagnostic message under `scope` (rendered by the
/// pretty sink as the legacy `[scope] text` line). The arguments are
/// formatted only when tracing is enabled.
pub fn message(scope: &'static str, args: fmt::Arguments<'_>) {
    if enabled() {
        emit(Kind::Message, scope, None, vec![("msg".to_owned(), Value::Str(args.to_string()))]);
    }
}

/// RAII guard restoring the previous worker id on drop (see
/// [`worker_scope`]).
pub struct WorkerGuard {
    prev: Option<u32>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        WORKER_ID.with(|c| c.set(self.prev));
    }
}

/// Mark the current thread as pool worker `worker` until the guard drops:
/// every event emitted meanwhile carries the id. Called by
/// [`crate::pool::scoped_map`] workers; cheap enough to run untraced.
pub fn worker_scope(worker: u32) -> WorkerGuard {
    WorkerGuard { prev: WORKER_ID.with(|c| c.replace(Some(worker))) }
}

/// RAII guard restoring the previous session id on drop (see
/// [`session_scope`]).
pub struct SessionGuard {
    prev: Option<u64>,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        SESSION_ID.with(|c| c.set(self.prev));
    }
}

/// Stamp every event emitted on the current thread with synthesis session
/// `session` until the guard drops. Scopes nest; the previous id (if any)
/// is restored on drop, so a session manager stepping many sessions on
/// one pool worker attributes each burst of events correctly.
pub fn session_scope(session: u64) -> SessionGuard {
    SessionGuard { prev: SESSION_ID.with(|c| c.replace(Some(session))) }
}

// -- well-formedness --------------------------------------------------------

/// Check the structural invariants every emitted stream must satisfy:
/// per thread, logical clocks strictly increase, span starts/ends match
/// LIFO by name, and no span is left open at the end of the stream.
///
/// # Errors
/// A description of the first violation found.
pub fn check_well_formed(events: &[Event]) -> Result<(), String> {
    let mut last_seq: HashMap<u32, u64> = HashMap::new();
    let mut stacks: HashMap<u32, Vec<&str>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if let Some(&prev) = last_seq.get(&e.thread) {
            if e.seq <= prev {
                return Err(format!(
                    "event {i}: thread {} logical clock not monotone ({} after {prev})",
                    e.thread, e.seq
                ));
            }
        }
        last_seq.insert(e.thread, e.seq);
        let stack = stacks.entry(e.thread).or_default();
        match e.kind {
            Kind::SpanStart => stack.push(&e.name),
            Kind::SpanEnd => match stack.pop() {
                Some(top) if top == e.name => {}
                Some(top) => {
                    return Err(format!(
                        "event {i}: span end {:?} does not match open span {top:?}",
                        e.name
                    ))
                }
                None => return Err(format!("event {i}: span end {:?} with no open span", e.name)),
            },
            Kind::Counter | Kind::Message => {}
        }
    }
    for (t, stack) in stacks {
        if !stack.is_empty() {
            return Err(format!("thread {t}: {} span(s) left open: {stack:?}", stack.len()));
        }
    }
    Ok(())
}

// -- JSONL ------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serialize one event as a single JSON line (no trailing newline),
/// following the schema in the module docs.
#[must_use]
pub fn to_jsonl(e: &Event) -> String {
    let mut s = String::with_capacity(96);
    let k = match e.kind {
        Kind::SpanStart => 's',
        Kind::SpanEnd => 'e',
        Kind::Counter => 'c',
        Kind::Message => 'm',
    };
    let _ = write!(s, "{{\"k\":\"{k}\",\"n\":\"");
    escape_into(&mut s, &e.name);
    let _ = write!(s, "\",\"t\":{},\"q\":{},\"ns\":{}", e.thread, e.seq, e.wall_ns);
    if let Some(w) = e.worker {
        let _ = write!(s, ",\"w\":{w}");
    }
    if let Some(sid) = e.session {
        let _ = write!(s, ",\"sid\":{sid}");
    }
    if let Some(d) = e.dur_ns {
        let _ = write!(s, ",\"dur\":{d}");
    }
    if !e.fields.is_empty() {
        s.push_str(",\"f\":{");
        for (i, (key, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_into(&mut s, key);
            s.push_str("\":");
            match v {
                Value::U64(u) => {
                    let _ = write!(s, "{u}");
                }
                Value::F64(x) => {
                    // `{:?}` keeps a `.0` on integral floats, so the parser
                    // can tell floats from unsigned integers. Non-finite
                    // values are unsupported (would not be valid JSON).
                    debug_assert!(x.is_finite(), "non-finite trace field");
                    let _ = write!(s, "{x:?}");
                }
                Value::Str(t) => {
                    s.push('"');
                    escape_into(&mut s, t);
                    s.push('"');
                }
            }
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// Cursor over a JSONL line's bytes. Multibyte UTF-8 is safe to scan
/// bytewise: continuation bytes never collide with the ASCII delimiters.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8".to_owned());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_owned())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_owned())?;
                            let c = char::from_u32(cp)
                                .ok_or_else(|| "\\u escape is not a scalar value".to_owned())?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn u64(&mut self) -> Result<u64, String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("expected digits at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "integer out of range".to_owned())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while matches!(
                    self.peek(),
                    Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i])
                    .map_err(|_| "invalid number".to_owned())?;
                if s.contains(['.', 'e', 'E', '-']) {
                    s.parse::<f64>().map(Value::F64).map_err(|e| format!("bad float {s:?}: {e}"))
                } else {
                    s.parse::<u64>().map(Value::U64).map_err(|e| format!("bad integer {s:?}: {e}"))
                }
            }
            other => Err(format!("expected a value, found {other:?}")),
        }
    }
}

/// Parse one JSONL line produced by [`to_jsonl`].
///
/// # Errors
/// A description of the first syntax problem or missing required key.
pub fn parse_line(line: &str) -> Result<Event, String> {
    let mut p = Cursor { b: line.as_bytes(), i: 0 };
    p.ws();
    p.expect(b'{')?;
    let mut kind = None;
    let mut name = None;
    let mut thread = None;
    let mut seq = None;
    let mut wall_ns = None;
    let mut worker = None;
    let mut session = None;
    let mut dur_ns = None;
    let mut fields = Vec::new();
    loop {
        p.ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.ws();
        p.expect(b':')?;
        p.ws();
        match key.as_str() {
            "k" => {
                let s = p.string()?;
                kind = Some(match s.as_str() {
                    "s" => Kind::SpanStart,
                    "e" => Kind::SpanEnd,
                    "c" => Kind::Counter,
                    "m" => Kind::Message,
                    other => return Err(format!("unknown event kind {other:?}")),
                });
            }
            "n" => name = Some(p.string()?),
            "t" => thread = Some(u32::try_from(p.u64()?).map_err(|_| "thread id overflow")?),
            "q" => seq = Some(p.u64()?),
            "ns" => wall_ns = Some(p.u64()?),
            "w" => worker = Some(u32::try_from(p.u64()?).map_err(|_| "worker id overflow")?),
            "sid" => session = Some(p.u64()?),
            "dur" => dur_ns = Some(p.u64()?),
            "f" => {
                p.expect(b'{')?;
                loop {
                    p.ws();
                    if p.eat(b'}') {
                        break;
                    }
                    let k = p.string()?;
                    p.ws();
                    p.expect(b':')?;
                    p.ws();
                    let v = p.value()?;
                    fields.push((k, v));
                    p.ws();
                    if !p.eat(b',') {
                        p.expect(b'}')?;
                        break;
                    }
                }
            }
            other => return Err(format!("unknown key {other:?}")),
        }
        p.ws();
        if !p.eat(b',') {
            p.expect(b'}')?;
            break;
        }
    }
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(Event {
        kind: kind.ok_or("missing key \"k\"")?,
        name: name.ok_or("missing key \"n\"")?,
        thread: thread.ok_or("missing key \"t\"")?,
        worker,
        session,
        seq: seq.ok_or("missing key \"q\"")?,
        wall_ns: wall_ns.ok_or("missing key \"ns\"")?,
        dur_ns,
        fields,
    })
}

// -- sinks ------------------------------------------------------------------

/// JSONL file sink: one event per line, line-buffered so a crashing or
/// exiting process loses at most the current partial line.
pub struct JsonlSink {
    out: Mutex<LineWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and return a sink writing to it.
    ///
    /// # Errors
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink { out: Mutex::new(LineWriter::new(file)) })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut w = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(w, "{}", to_jsonl(event));
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(PoisonError::into_inner).flush();
    }
}

/// Human-readable stderr sink: spans render as indented `>`/`<` lines,
/// counters as `.` lines, and messages as `[scope] text` lines.
pub struct PrettySink {
    depth: Mutex<HashMap<u32, usize>>,
}

impl PrettySink {
    /// Create a pretty-printing sink.
    #[must_use]
    pub fn new() -> PrettySink {
        PrettySink { depth: Mutex::new(HashMap::new()) }
    }
}

impl Default for PrettySink {
    fn default() -> PrettySink {
        PrettySink::new()
    }
}

fn fields_inline(fields: &[(String, Value)]) -> String {
    let mut s = String::new();
    for (k, v) in fields {
        let _ = write!(s, " {k}={v}");
    }
    s
}

impl Sink for PrettySink {
    fn record(&self, event: &Event) {
        if event.kind == Kind::Message {
            let msg = event.field_str("msg").unwrap_or("");
            eprintln!("[{}] {msg}", event.name);
            return;
        }
        let mut depths = self.depth.lock().unwrap_or_else(PoisonError::into_inner);
        let d = depths.entry(event.thread).or_insert(0);
        match event.kind {
            Kind::SpanStart => {
                eprintln!(
                    "[t{}]{:ind$} > {}{}",
                    event.thread,
                    "",
                    event.name,
                    fields_inline(&event.fields),
                    ind = 2 * *d
                );
                *d += 1;
            }
            Kind::SpanEnd => {
                *d = d.saturating_sub(1);
                let ms = event.dur_ns.unwrap_or(0) as f64 / 1e6;
                eprintln!(
                    "[t{}]{:ind$} < {} {ms:.3}ms",
                    event.thread,
                    "",
                    event.name,
                    ind = 2 * *d
                );
            }
            Kind::Counter => {
                eprintln!(
                    "[t{}]{:ind$} . {}{}",
                    event.thread,
                    "",
                    event.name,
                    fields_inline(&event.fields),
                    ind = 2 * *d
                );
            }
            Kind::Message => unreachable!("handled above"),
        }
    }
}

/// In-memory sink for tests: collects every event in arrival order.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// Create an empty collector.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Drain and return the collected events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Copy the collected events without draining.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use crate::prop;

    /// Tests that install a process-global sink must not interleave.
    static SINK_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sample_event() -> Event {
        Event {
            kind: Kind::Counter,
            name: "solver.query".to_owned(),
            thread: 3,
            worker: Some(1),
            session: Some(9),
            seq: 17,
            wall_ns: 123_456_789,
            dur_ns: None,
            fields: vec![
                ("boxes".to_owned(), Value::U64(128)),
                ("ratio".to_owned(), Value::F64(0.5)),
                ("note".to_owned(), Value::Str("a \"quoted\"\nline\\".to_owned())),
            ],
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let cases = vec![
            sample_event(),
            Event {
                kind: Kind::SpanStart,
                name: "engine.iteration".to_owned(),
                thread: 0,
                worker: None,
                session: None,
                seq: 0,
                wall_ns: 0,
                dur_ns: None,
                fields: vec![("iter".to_owned(), Value::U64(1))],
            },
            Event {
                kind: Kind::SpanEnd,
                name: "engine.iteration".to_owned(),
                thread: 0,
                worker: None,
                session: None,
                seq: 5,
                wall_ns: 99,
                dur_ns: Some(98),
                fields: Vec::new(),
            },
            Event {
                kind: Kind::Message,
                name: "synth".to_owned(),
                thread: 7,
                worker: Some(0),
                session: Some(0),
                seq: 2,
                wall_ns: 1,
                dur_ns: None,
                fields: vec![("msg".to_owned(), Value::Str("iter 3: fa = …".to_owned()))],
            },
        ];
        for e in cases {
            let line = to_jsonl(&e);
            let back = parse_line(&line).unwrap_or_else(|err| panic!("{err}\nline: {line}"));
            assert_eq!(back, e, "line: {line}");
        }
    }

    #[test]
    fn jsonl_floats_keep_their_type() {
        let mut e = sample_event();
        e.fields = vec![("x".to_owned(), Value::F64(2.0)), ("n".to_owned(), Value::U64(2))];
        let back = parse_line(&to_jsonl(&e)).unwrap();
        assert_eq!(back.fields[0].1, Value::F64(2.0));
        assert_eq!(back.fields[1].1, Value::U64(2));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "not json",
            "{\"k\":\"s\"}", // missing required keys
            "{\"k\":\"x\",\"n\":\"a\",\"t\":0,\"q\":0,\"ns\":0}", // unknown kind
            "{\"k\":\"s\",\"n\":\"a\",\"t\":0,\"q\":0,\"ns\":0} extra",
            "{\"k\":\"s\",\"n\":\"a\",\"t\":0,\"q\":0,\"ns\":0,\"zz\":1}",
        ] {
            assert!(parse_line(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn env_mode_decision_table() {
        assert!(matches!(mode_from(None), Mode::Off));
        assert!(matches!(mode_from(Some("")), Mode::Off));
        assert!(matches!(mode_from(Some("off")), Mode::Off));
        assert!(matches!(mode_from(Some("0")), Mode::Off));
        assert!(matches!(mode_from(Some("pretty")), Mode::Pretty));
        assert!(matches!(mode_from(Some("bogus")), Mode::Off));
        match mode_from(Some("jsonl:/tmp/x.jsonl")) {
            Mode::Jsonl(p) => assert_eq!(p, "/tmp/x.jsonl"),
            _ => panic!("expected jsonl mode"),
        }
    }

    #[test]
    fn disabled_probes_are_inert() {
        let _g = lock();
        let _ = uninstall();
        assert!(!enabled());
        // Field closures must not run when disabled.
        let sp = span_with("t.inert", || panic!("field closure ran while disabled"));
        counter("t.inert", || panic!("field closure ran while disabled"));
        message("t.inert", format_args!("dropped"));
        drop(sp);
    }

    #[test]
    fn memory_sink_collects_well_formed_stream() {
        let _g = lock();
        let mem = Arc::new(MemorySink::new());
        install(mem.clone());
        {
            let _outer = span_with("t.outer", || vec![("case", Value::U64(1))]);
            counter("t.count", || vec![("n", Value::U64(3))]);
            {
                let _inner = span("t.inner");
                message("t.msg", format_args!("hello {}", 42));
            }
        }
        let _ = uninstall();
        let events = mem.take();
        check_well_formed(&events).expect("stream well-formed");
        let ours: Vec<&Event> = events.iter().filter(|e| e.name.starts_with("t.")).collect();
        let shape: Vec<(Kind, &str)> = ours.iter().map(|e| (e.kind, e.name.as_str())).collect();
        assert_eq!(
            shape,
            vec![
                (Kind::SpanStart, "t.outer"),
                (Kind::Counter, "t.count"),
                (Kind::SpanStart, "t.inner"),
                (Kind::Message, "t.msg"),
                (Kind::SpanEnd, "t.inner"),
                (Kind::SpanEnd, "t.outer"),
            ]
        );
        // Span ends repeat their start's fields and carry a duration.
        let end = ours.last().unwrap();
        assert_eq!(end.field_u64("case"), Some(1));
        assert!(end.dur_ns.is_some());
        assert_eq!(ours[3].field_str("msg"), Some("hello 42"));
    }

    #[test]
    fn worker_scope_tags_events() {
        let _g = lock();
        let mem = Arc::new(MemorySink::new());
        install(mem.clone());
        {
            let _w = worker_scope(5);
            counter("t.tagged", Vec::new);
        }
        counter("t.untagged", Vec::new);
        let _ = uninstall();
        let events = mem.take();
        let tagged = events.iter().find(|e| e.name == "t.tagged").unwrap();
        let untagged = events.iter().find(|e| e.name == "t.untagged").unwrap();
        assert_eq!(tagged.worker, Some(5));
        assert_eq!(untagged.worker, None);
    }

    #[test]
    fn session_scope_tags_events_and_nests() {
        let _g = lock();
        let mem = Arc::new(MemorySink::new());
        install(mem.clone());
        {
            let _outer = session_scope(11);
            counter("t.sid.outer", Vec::new);
            {
                let _inner = session_scope(12);
                counter("t.sid.inner", Vec::new);
            }
            counter("t.sid.restored", Vec::new);
        }
        counter("t.sid.none", Vec::new);
        let _ = uninstall();
        let events = mem.take();
        let by = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by("t.sid.outer").session, Some(11));
        assert_eq!(by("t.sid.inner").session, Some(12));
        assert_eq!(by("t.sid.restored").session, Some(11));
        assert_eq!(by("t.sid.none").session, None);
        // The session id survives the JSONL round trip.
        for e in &events {
            let back = parse_line(&to_jsonl(e)).unwrap();
            assert_eq!(back.session, e.session);
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let _g = lock();
        let path =
            std::env::temp_dir().join(format!("cso_trace_unit_{}.jsonl", std::process::id()));
        install(Arc::new(JsonlSink::create(&path).unwrap()));
        {
            let _sp = span_with("t.file", || vec![("k", Value::Str("v".to_owned()))]);
            counter("t.file.count", || vec![("n", Value::U64(7))]);
        }
        let sink = uninstall().expect("sink installed above");
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let events: Vec<Event> = text
            .lines()
            .map(|l| parse_line(l).unwrap_or_else(|e| panic!("{e}\nline: {l}")))
            .collect();
        assert!(events.iter().any(|e| e.name == "t.file.count" && e.field_u64("n") == Some(7)));
        check_well_formed(&events).expect("file stream well-formed");
    }

    /// Property: whatever nesting program runs on however many pool
    /// workers, the emitted stream is well-formed — spans balanced per
    /// thread, logical clocks strictly monotone.
    #[test]
    fn prop_streams_are_well_formed_across_threads() {
        let _g = lock();
        let gen = prop::zip3(prop::usize_in(0, 12), prop::usize_in(1, 4), prop::usize_in(0, 3));
        prop::check("trace_stream_well_formed", &gen, |&(items, threads, depth)| {
            let mem = Arc::new(MemorySink::new());
            install(mem.clone());
            let _ = pool::scoped_map((0..items).collect(), threads, |i: usize| {
                let _sp = span_with("t.item", || vec![("i", Value::U64(i as u64))]);
                for lvl in 0..(i + depth) % 4 {
                    let _nested = span("t.nested");
                    counter("t.tick", || vec![("lvl", Value::U64(lvl as u64))]);
                }
                i
            });
            let _ = uninstall();
            let events = mem.take();
            check_well_formed(&events).map_err(prop::CaseError::Fail)?;
            Ok(())
        });
    }

    /// Generator for arbitrary valid events: every kind, optional
    /// worker/session/duration stamps, and fields covering all three
    /// value types including strings that need escaping.
    fn arb_event() -> prop::Gen<Event> {
        let name = prop::vec_of(
            prop::one_of(vec![
                prop::just('a'),
                prop::just('Z'),
                prop::just('.'),
                prop::just('_'),
                prop::just('"'),
                prop::just('\\'),
                prop::just('\n'),
                prop::just('\t'),
                prop::just('\u{1}'),
                prop::just('µ'),
                prop::just('語'),
            ]),
            1,
            12,
        )
        .map(|cs| cs.into_iter().collect::<String>());
        let value = prop::one_of(vec![
            prop::u64_in(0, u64::MAX).map(Value::U64),
            // Finite floats with an exact Debug round-trip.
            prop::i64_any().map(|n| Value::F64(n as f64 / 1024.0)),
            prop::vec_of(
                prop::one_of(vec![
                    prop::just('x'),
                    prop::just(' '),
                    prop::just('"'),
                    prop::just('\\'),
                    prop::just('\r'),
                    prop::just('\u{1f}'),
                    prop::just('∞'),
                ]),
                0,
                8,
            )
            .map(|cs| Value::Str(cs.into_iter().collect())),
        ]);
        let fields = prop::vec_of(prop::zip2(name.clone(), value), 0, 4);
        let kind = prop::one_of(vec![
            prop::just(Kind::SpanStart),
            prop::just(Kind::SpanEnd),
            prop::just(Kind::Counter),
            prop::just(Kind::Message),
        ]);
        let stamps = prop::zip4(
            prop::u64_in(0, u64::MAX),
            prop::one_of(vec![prop::just(None), prop::u64_in(0, 1 << 20).map(|w| Some(w as u32))]),
            prop::one_of(vec![prop::just(None), prop::u64_in(0, u64::MAX).map(Some)]),
            prop::one_of(vec![prop::just(None), prop::u64_in(0, u64::MAX).map(Some)]),
        );
        prop::zip4(
            kind,
            name,
            fields,
            prop::zip2(stamps, prop::zip2(prop::u64_in(0, u64::MAX), prop::u64_in(0, u64::MAX))),
        )
        .map(
            |(kind, name, fields, ((wall_ns, worker, session, dur_ns), (thread, seq)))| Event {
                kind,
                name,
                thread: thread as u32,
                worker,
                session,
                seq,
                wall_ns,
                dur_ns,
                fields,
            },
        )
    }

    /// Property (fuzz): any valid event survives the JSONL round-trip —
    /// the parsed event equals the original, and re-serializing is
    /// byte-identical.
    #[test]
    fn prop_jsonl_roundtrip_is_byte_identical() {
        prop::check("jsonl_roundtrip", &arb_event(), |e| {
            let line = to_jsonl(e);
            let back = parse_line(&line)
                .map_err(|err| prop::CaseError::Fail(format!("{err}\nline: {line}")))?;
            if &back != e {
                return Err(prop::CaseError::Fail(format!(
                    "parsed event differs\nline: {line}\noriginal: {e:?}\nparsed: {back:?}"
                )));
            }
            let again = to_jsonl(&back);
            if again != line {
                return Err(prop::CaseError::Fail(format!(
                    "re-serialization differs\nfirst: {line}\nsecond: {again}"
                )));
            }
            Ok(())
        });
    }

    /// Property (fuzz): truncating or mangling a valid line never panics
    /// the parser — it either errors or (for byte substitutions that
    /// happen to form another valid line) parses cleanly.
    #[test]
    fn prop_jsonl_parser_rejects_mangled_lines_without_panicking() {
        let gen = prop::zip3(arb_event(), prop::usize_in(0, 256), prop::u8_any());
        prop::check("jsonl_mangled", &gen, |(e, pos, byte)| {
            let line = to_jsonl(e);
            let chars: Vec<char> = line.chars().collect();
            // Every proper prefix must fail (an event line is never a
            // prefix of another valid line: the `}` closing the object
            // comes last, and `}` never occurs inside its strings).
            let cut = pos % chars.len();
            let prefix: String = chars[..cut].iter().collect();
            if !prefix.is_empty() && parse_line(&prefix).is_ok() {
                return Err(prop::CaseError::Fail(format!("truncated line parsed: {prefix}")));
            }
            // Character substitution at an arbitrary position: must not
            // panic; errors are expected, successes are allowed (e.g.
            // digit→digit swaps still form a valid line).
            let mut mangled = prefix;
            mangled.push(char::from(*byte % 0x80));
            mangled.extend(chars[(cut + 1).min(chars.len())..].iter());
            let _ = parse_line(&mangled);
            let _ = parse_line("");
            let _ = parse_line("{");
            let _ = parse_line("not json at all");
            let _ = parse_line("{\"k\":\"s\"}");
            Ok(())
        });
    }
}
