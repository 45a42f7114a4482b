//! RAII spans: time a phase into the global `imc_span_duration_seconds`
//! histogram and (when a trace sink is installed) emit a `span` trace
//! event on drop.
//!
//! Every span carries a fresh `span_id`; while it is open it is the
//! current span of its thread, so nested spans and point events record it
//! as their `parent_span_id`. Together with the thread's `trace_id`
//! (see [`trace::TraceCtx`]) that is the linkage the timeline stitcher
//! ([`crate::timeline`]) uses to rebuild one solve tree across processes.
//!
//! ```
//! {
//!     let _span = imc_obs::Span::enter("doctest_phase");
//!     // ... phase work ...
//! } // drop records the duration
//! ```
//!
//! Spans must be dropped on the thread that entered them (they restore a
//! thread-local stack) — which RAII scoping gives you for free. A span
//! that has to stay open while *siblings* open after it on the same thread
//! (one per request of a pipelined fan) is taken off the stack with
//! [`Span::park`].

use crate::families::SPAN_DURATION;
use crate::trace::{self, TraceEvent};
use std::time::Instant;

/// A timed phase; records its duration when dropped.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    detail: String,
    start: Instant,
    start_us: u64,
    span_id: String,
    parent_span_id: Option<String>,
    parked: bool,
}

impl Span {
    /// Starts a span named `name` (the `span` label on the histogram).
    pub fn enter(name: &'static str) -> Self {
        Span::enter_with(name, String::new())
    }

    /// Starts a span with a qualifier carried in the `detail` label (for
    /// example a shard index or an algorithm name). Keep cardinality low:
    /// every distinct `(span, detail)` pair is its own time series.
    pub fn enter_with(name: &'static str, detail: impl Into<String>) -> Self {
        let span_id = trace::fresh_id();
        let parent_span_id = trace::swap_current_span(Some(span_id.clone()));
        Span {
            name,
            detail: detail.into(),
            start: Instant::now(),
            start_us: trace::now_us(),
            span_id,
            parent_span_id,
            parked: false,
        }
    }

    /// Takes the span off its thread's stack while it stays open: its
    /// parent is the current span again, so the next span entered is this
    /// one's sibling, not its child. The span still times until dropped
    /// and still reports under its own parent; parked spans may be dropped
    /// in any order.
    pub fn park(&mut self) {
        if !self.parked {
            self.parked = true;
            let _ = trace::swap_current_span(self.parent_span_id.clone());
        }
    }

    /// Seconds elapsed since the span started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// This span's id — what a remote callee should adopt as its
    /// `parent_span_id` (see `TraceCtx::enter_remote`).
    pub fn id(&self) -> &str {
        &self.span_id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        // Pop this span off the thread's stack *before* building the
        // event: TraceEvent::new then attaches the restored parent as
        // `parent_span_id`, and we add our own `span_id` explicitly. A
        // parked span left the stack long ago; it borrows the current
        // slot for its parent while the event is built.
        let displaced = trace::swap_current_span(self.parent_span_id.take());
        SPAN_DURATION.with([self.name, &self.detail]).observe(secs);
        if trace::enabled() {
            let mut event = TraceEvent::new("span")
                .field("span_id", self.span_id.as_str())
                .field("span", self.name)
                .field("start_us", self.start_us)
                .field("seconds", secs);
            if !self.detail.is_empty() {
                event = event.field("detail", self.detail.as_str());
            }
            trace::emit(event);
        }
        if self.parked {
            let _ = trace::swap_current_span(displaced);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_count(name: &str, detail: &str) -> u64 {
        SPAN_DURATION.with([name, detail]).count()
    }

    #[test]
    fn span_records_into_global_histogram() {
        let before = span_count("span_test", "");
        {
            let _span = Span::enter("span_test");
        }
        assert_eq!(span_count("span_test", ""), before + 1);
    }

    #[test]
    fn span_with_detail_is_a_distinct_series() {
        {
            let _span = Span::enter_with("span_detail_test", "shard=3");
        }
        assert!(span_count("span_detail_test", "shard=3") >= 1);
        assert_eq!(span_count("span_detail_test", "shard=9"), 0);
    }

    #[test]
    fn spans_maintain_the_thread_current_span_stack() {
        assert_eq!(trace::current_span_id(), None);
        let outer = Span::enter("stack_outer");
        assert_eq!(trace::current_span_id().as_deref(), Some(outer.id()));
        {
            let inner = Span::enter("stack_inner");
            assert_eq!(trace::current_span_id().as_deref(), Some(inner.id()));
        }
        assert_eq!(trace::current_span_id().as_deref(), Some(outer.id()));
        drop(outer);
        assert_eq!(trace::current_span_id(), None);
    }

    #[test]
    fn parked_spans_are_siblings_and_drop_in_any_order() {
        let outer = Span::enter("park_outer");
        let mut first = Span::enter("park_first");
        first.park();
        assert_eq!(trace::current_span_id().as_deref(), Some(outer.id()));
        let mut second = Span::enter("park_second");
        assert_eq!(second.parent_span_id.as_deref(), Some(outer.id()));
        second.park();
        let before = span_count("park_first", "");
        drop(first);
        assert_eq!(span_count("park_first", ""), before + 1);
        assert_eq!(trace::current_span_id().as_deref(), Some(outer.id()));
        drop(second);
        assert_eq!(trace::current_span_id().as_deref(), Some(outer.id()));
        drop(outer);
        assert_eq!(trace::current_span_id(), None);
    }

    #[test]
    fn span_events_link_parent_child_and_remote_context() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf lock").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let _serial = trace::sink_test_lock();
        let bytes = Arc::new(Mutex::new(Vec::new()));
        trace::set_sink_writer(Box::new(Buf(Arc::clone(&bytes))));
        let (outer_id, inner_id) = {
            let _ctx = trace::TraceCtx::enter_remote("feedfacefeedface", Some("badc0ffee0ddf00d"));
            let outer = Span::enter("link_outer");
            let outer_id = outer.id().to_string();
            let mut parked = Span::enter("link_parked");
            parked.park();
            let inner = Span::enter_with("link_inner", "shard=a");
            let inner_id = inner.id().to_string();
            trace::emit(trace::TraceEvent::new("link_point").field("n", 1u64));
            // Dropped while `inner` is current: it still reports under the
            // parent it was entered under, and leaves `inner` current.
            drop(parked);
            assert_eq!(trace::current_span_id().as_deref(), Some(inner.id()));
            drop(inner);
            drop(outer);
            (outer_id, inner_id)
        };
        trace::clear_sink();
        let text = String::from_utf8(bytes.lock().expect("buf lock").clone()).expect("utf8");
        let line_with = |needle: &str| {
            text.lines()
                .find(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("no line containing {needle}: {text}"))
                .to_string()
        };
        // The point event nests under the innermost open span.
        let point = line_with("\"kind\":\"link_point\"");
        assert!(point.contains("\"trace_id\":\"feedfacefeedface\""));
        assert!(point.contains(&format!("\"parent_span_id\":\"{inner_id}\"")));
        // The inner span is a child of the outer; the outer adopted the
        // remote parent from TraceCtx::enter_remote.
        let inner = line_with("\"span\":\"link_inner\"");
        assert!(inner.contains(&format!("\"span_id\":\"{inner_id}\"")));
        assert!(inner.contains(&format!("\"parent_span_id\":\"{outer_id}\"")));
        assert!(inner.contains("\"start_us\":"));
        let parked = line_with("\"span\":\"link_parked\"");
        assert!(parked.contains(&format!("\"parent_span_id\":\"{outer_id}\"")));
        let outer = line_with("\"span\":\"link_outer\"");
        assert!(outer.contains(&format!("\"span_id\":\"{outer_id}\"")));
        assert!(outer.contains("\"parent_span_id\":\"badc0ffee0ddf00d\""));
    }
}
