//! Structured JSONL trace events to an optional global sink.
//!
//! A trace event is one JSON object per line: `ts_us` (UNIX microseconds),
//! `kind` (event type, e.g. `"imcaf_round"`), then arbitrary typed fields
//! ([`json::Value`]s, written by the workspace's one codec).
//! The sink is process-global and off by default; when no sink is
//! installed, [`emit`] is a single relaxed atomic load and the event
//! builder is never even constructed by well-behaved callers (guard with
//! [`enabled`]).
//!
//! ```
//! use imc_obs::trace::{self, TraceEvent};
//!
//! if trace::enabled() {
//!     trace::emit(
//!         TraceEvent::new("imcaf_round")
//!             .field("round", 3u64)
//!             .field("samples", 4096u64)
//!             .field("converged", false),
//!     );
//! }
//! ```

use crate::json::{self, Value};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

type Sink = Arc<Mutex<Box<dyn Write + Send>>>;

fn sink_slot() -> &'static RwLock<Option<Sink>> {
    static SLOT: RwLock<Option<Sink>> = RwLock::new(None);
    &SLOT
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a trace sink is installed. Cheap (one relaxed load): guard
/// event construction with this on hot paths.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a JSONL sink writing (appending is up to the caller: this
/// truncates) to `path`. Replaces any previous sink.
///
/// The file is written *unbuffered*: [`emit`] hands the kernel one
/// complete line per write syscall, so even when several processes
/// append to the same file (coordinator + shards sharing a trace path)
/// no line is ever torn across another's.
pub fn set_sink_path(path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    set_sink_writer(Box::new(file));
    Ok(())
}

/// Installs a JSONL sink *appending* to `path` (creating it if absent).
/// Replaces any previous sink. Use this when several processes share one
/// trace file: combined with the single-write-per-line discipline of
/// [`emit`], `O_APPEND` keeps their lines whole.
pub fn set_sink_path_append(path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::options()
        .create(true)
        .append(true)
        .open(path)?;
    set_sink_writer(Box::new(file));
    Ok(())
}

/// Installs an arbitrary writer as the trace sink. Replaces any previous
/// sink.
pub fn set_sink_writer(writer: Box<dyn Write + Send>) {
    let mut slot = sink_slot().write().expect("trace sink lock");
    *slot = Some(Arc::new(Mutex::new(writer)));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the sink (flushing it) and disables tracing.
pub fn clear_sink() {
    let mut slot = sink_slot().write().expect("trace sink lock");
    if let Some(sink) = slot.take() {
        if let Ok(mut w) = sink.lock() {
            let _ = w.flush();
        }
    }
    ENABLED.store(false, Ordering::Relaxed);
}

/// The per-thread span context: which trace this thread is serving and
/// which span is currently open (the parent of anything emitted now).
#[derive(Debug, Clone, Default)]
struct Ctx {
    trace_id: Option<String>,
    span_id: Option<String>,
}

thread_local! {
    static CURRENT: RefCell<Ctx> = RefCell::new(Ctx::default());
}

/// The current wall clock as UNIX microseconds — the timestamp base every
/// trace event uses, exposed so spans can stamp their start consistently.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Mints a fresh 16-hex-digit id for a trace or span. Ids are unique per
/// process run (counter + wall clock + pid hashed together); they carry
/// no ordering information.
pub fn fresh_id() -> String {
    use std::hash::{Hash, Hasher};
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    (n, now_us(), std::process::id()).hash(&mut hasher);
    format!("{:016x}", hasher.finish())
}

/// RAII guard scoping a request `trace_id` to the current thread.
///
/// While the guard lives, every [`TraceEvent`] constructed **on this
/// thread** carries a `trace_id` field, so all events emitted while
/// serving one request — solver spans, engine iterations, IMCAF rounds —
/// stitch into one span tree in the JSONL sink. Guards nest: dropping an
/// inner guard restores the outer id.
///
/// The id does **not** propagate into worker threads spawned inside the
/// scope (the engine deliberately emits its trace events from the
/// coordinating thread for exactly this reason).
///
/// ```
/// use imc_obs::trace::{self, TraceCtx};
///
/// let guard = TraceCtx::enter("0123456789abcdef");
/// assert_eq!(trace::current_trace_id().as_deref(), Some("0123456789abcdef"));
/// drop(guard);
/// assert_eq!(trace::current_trace_id(), None);
/// ```
#[must_use = "dropping the guard immediately ends the trace scope"]
#[derive(Debug)]
pub struct TraceCtx {
    previous: Ctx,
}

impl TraceCtx {
    /// Makes `trace_id` the current thread's trace id until the returned
    /// guard is dropped. The span stack starts empty: the next
    /// [`Span`](crate::Span) opened inside the scope becomes a root span
    /// of the trace.
    pub fn enter(trace_id: &str) -> TraceCtx {
        TraceCtx::enter_remote(trace_id, None)
    }

    /// Adopts a span context received over the wire: `trace_id` plus the
    /// caller's span id, so spans opened inside the scope nest under the
    /// *remote* parent when the timeline is stitched across processes.
    pub fn enter_remote(trace_id: &str, parent_span_id: Option<&str>) -> TraceCtx {
        let next = Ctx {
            trace_id: Some(trace_id.to_string()),
            span_id: parent_span_id.map(str::to_string),
        };
        let previous = CURRENT.with(|slot| std::mem::replace(&mut *slot.borrow_mut(), next));
        TraceCtx { previous }
    }
}

impl Drop for TraceCtx {
    fn drop(&mut self) {
        CURRENT.with(|slot| {
            *slot.borrow_mut() = std::mem::take(&mut self.previous);
        });
    }
}

/// The trace id installed on this thread by a live [`TraceCtx`], if any.
pub fn current_trace_id() -> Option<String> {
    CURRENT.with(|slot| slot.borrow().trace_id.clone())
}

/// The id of the innermost open span on this thread, if any — what a new
/// event or child span should use as `parent_span_id`.
pub fn current_span_id() -> Option<String> {
    CURRENT.with(|slot| slot.borrow().span_id.clone())
}

/// Makes `span_id` the current span on this thread, returning the
/// previous one for restoration. Used by [`Span`](crate::Span) to
/// maintain the nesting stack; `None` pops to "no open span".
pub(crate) fn swap_current_span(span_id: Option<String>) -> Option<String> {
    CURRENT.with(|slot| std::mem::replace(&mut slot.borrow_mut().span_id, span_id))
}

/// Writes one event as a single JSON line. No-op when no sink is
/// installed; write errors are swallowed (tracing must never take the
/// solver down).
pub fn emit(event: TraceEvent) {
    if !enabled() {
        return;
    }
    let sink = {
        let slot = sink_slot().read().expect("trace sink lock");
        match slot.as_ref() {
            Some(s) => Arc::clone(s),
            None => return,
        }
    };
    // One complete line per write call: the newline is part of the same
    // buffer, so concurrent emitters (and other processes appending to
    // the same file) can never tear a record in half.
    let mut line = event.to_json();
    line.push('\n');
    if let Ok(mut w) = sink.lock() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    };
}

/// One structured trace event, built field-by-field then [`emit`]ted.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// `ts_us` and `kind`, then the fields in insertion order.
    fields: Vec<(String, Value)>,
}

impl TraceEvent {
    /// A new event of the given kind, timestamped now (UNIX microseconds).
    ///
    /// When a [`TraceCtx`] is live on this thread, the event starts with
    /// a `trace_id` field so it joins that request's span tree; when a
    /// [`Span`](crate::Span) is open, a `parent_span_id` field nests the
    /// event under it.
    pub fn new(kind: &str) -> Self {
        let event = TraceEvent { fields: Vec::new() }
            .field("ts_us", now_us())
            .field("kind", kind);
        let event = match current_trace_id() {
            Some(id) => event.field("trace_id", id),
            None => event,
        };
        match current_span_id() {
            Some(id) => event.field("parent_span_id", id),
            None => event,
        }
    }

    /// Appends one typed field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Serializes the event as one JSON object (no trailing newline),
    /// every key and value spelled by the [`json`] codec.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 24 * self.fields.len());
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            json::write_str(k, &mut out);
            out.push(':');
            json::write(v, &mut out);
        }
        out.push('}');
        out
    }
}

/// Serializes tests (across this crate's modules) that install or clear
/// the process-global sink, so parallel tests don't clobber each other's
/// writers.
#[cfg(test)]
pub(crate) fn sink_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_all_field_types() {
        let e = TraceEvent::new("test")
            .field("u", 7u64)
            .field("i", -3i64)
            .field("f", 0.5)
            .field("nan", f64::NAN)
            .field("s", "a\"b")
            .field("b", true);
        let json = e.to_json();
        assert!(json.starts_with("{\"ts_us\":"));
        assert!(json.contains("\"kind\":\"test\""));
        assert!(json.contains("\"u\":7"));
        assert!(json.contains("\"i\":-3"));
        assert!(json.contains("\"f\":0.5"));
        assert!(json.contains("\"nan\":null"));
        assert!(json.contains("\"s\":\"a\\\"b\""));
        assert!(json.contains("\"b\":true"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        // Must not panic or block; `enabled` can be toggled by other
        // tests, so just exercise the path.
        emit(TraceEvent::new("noop"));
    }

    #[test]
    fn set_sink_path_to_unwritable_location_errs_without_panicking() {
        // A directory that does not exist: File::create must fail, the
        // error must surface as io::Result, and nothing may panic. The
        // previously installed sink (if any) is left untouched because
        // the failure happens before the slot is written.
        let bogus = std::env::temp_dir()
            .join("imc-obs-no-such-dir")
            .join("deeper")
            .join("trace.jsonl");
        let err = set_sink_path(&bogus);
        assert!(
            err.is_err(),
            "creating a sink under a missing dir must fail"
        );
        // Tracing stays usable after the failure.
        emit(TraceEvent::new("after_unwritable_sink"));
    }

    /// A writer whose every write fails — emulates a disk that filled up
    /// after the sink was installed.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn emit_swallows_write_errors_from_a_failing_sink() {
        let _serial = sink_test_lock();
        set_sink_writer(Box::new(FailingWriter));
        // Every write and flush errors; emit must degrade gracefully.
        emit(TraceEvent::new("lost_event").field("n", 1u64));
        emit(TraceEvent::new("lost_event").field("n", 2u64));
        // clear_sink flushes the failing writer — also must not panic.
        clear_sink();
    }

    /// A writer that asserts the single-write-per-line discipline: every
    /// `write` call it sees must be exactly one complete JSONL record
    /// (newline included). This is what keeps multi-process appends and
    /// racing in-process emitters from tearing records.
    #[derive(Clone)]
    struct WholeLineBuf(Arc<Mutex<Vec<String>>>);

    impl Write for WholeLineBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let text = std::str::from_utf8(buf).expect("trace writes are utf8");
            assert!(
                text.ends_with('\n') && text.matches('\n').count() == 1,
                "emit must hand the sink one whole line per write, got {text:?}"
            );
            self.0
                .lock()
                .expect("buffer lock")
                .push(text.trim_end().to_string());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn racing_emitters_never_tear_lines() {
        let _serial = sink_test_lock();
        let lines = Arc::new(Mutex::new(Vec::new()));
        set_sink_writer(Box::new(WholeLineBuf(Arc::clone(&lines))));
        let threads = 8usize;
        let per_thread = 200usize;
        // Long payloads so a torn write would be easy to produce if emit
        // ever issued more than one write call per record.
        let payload = "x".repeat(512);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let payload = payload.as_str();
                scope.spawn(move || {
                    for n in 0..per_thread {
                        emit(
                            TraceEvent::new("race")
                                .field("writer", t)
                                .field("n", n)
                                .field("payload", payload)
                                .field("tail", "END"),
                        );
                    }
                });
            }
        });
        clear_sink();
        let lines = lines.lock().expect("buffer lock");
        // Other tests may emit through the global sink while it is ours
        // (they never install their own: sink_test_lock is held), so
        // filter to this test's kind before counting.
        let ours: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"race\""))
            .collect();
        assert_eq!(ours.len(), threads * per_thread);
        for line in ours {
            assert!(line.starts_with("{\"ts_us\":") && line.ends_with("\"tail\":\"END\"}"));
            assert!(line.contains(&payload));
        }
    }

    #[test]
    fn trace_ctx_attaches_id_and_restores_on_drop() {
        assert_eq!(current_trace_id(), None);
        let outer = TraceCtx::enter("aaaa000011112222");
        assert_eq!(current_trace_id().as_deref(), Some("aaaa000011112222"));
        let json_outer = TraceEvent::new("e").to_json();
        assert!(
            json_outer.contains("\"trace_id\":\"aaaa000011112222\""),
            "events inside the scope carry the id: {json_outer}"
        );
        {
            let _inner = TraceCtx::enter("bbbb000011112222");
            assert_eq!(current_trace_id().as_deref(), Some("bbbb000011112222"));
        }
        // Inner guard dropped: outer id restored, not cleared.
        assert_eq!(current_trace_id().as_deref(), Some("aaaa000011112222"));
        drop(outer);
        assert_eq!(current_trace_id(), None);
        let json_outside = TraceEvent::new("e").to_json();
        assert!(!json_outside.contains("trace_id"));
    }

    #[test]
    fn trace_ctx_is_thread_local() {
        let _guard = TraceCtx::enter("cccc000011112222");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Worker threads do not inherit the coordinating thread's
                // trace id — the engine relies on this to emit from the
                // coordinator only.
                assert_eq!(current_trace_id(), None);
            });
        });
        assert_eq!(current_trace_id().as_deref(), Some("cccc000011112222"));
    }
}
