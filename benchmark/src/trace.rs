//! The harness's own span recorder: one in-memory list of
//! `(name, start, end, parent, pass)` records around every call into a
//! product layer, written out as a chrome trace when the run ends.
//!
//! Spans are recorded from the harness thread only (the product's own
//! threads are not instrumented; in-program spans are a later issue), so
//! the open-span stack is a plain vector.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (into the same list) of the span that was open when this
    /// one started.
    pub parent: Option<usize>,
    /// Timed-pass number the span belongs to.
    pub pass: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    pass: u32,
}

static ON: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    spans: Vec::new(),
    open: Vec::new(),
    pass: 0,
});

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn recorder() -> std::sync::MutexGuard<'static, Recorder> {
    RECORDER
        .lock()
        .expect("span recorder poisoned: a span guard panicked mid-record")
}

/// Switches recording on or off; spans opened while off cost one relaxed
/// load and record nothing.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Tags every span opened from now on with timed-pass number `pass`.
pub fn set_pass(pass: u32) {
    recorder().pass = pass;
}

/// Guard for one open span; the span ends when it drops.
pub struct Span(Option<usize>);

/// Opens a span named `name` under whichever span is currently open.
pub fn span(name: &'static str) -> Span {
    if !ON.load(Ordering::Relaxed) {
        return Span(None);
    }
    let mut r = recorder();
    let idx = r.spans.len();
    let (parent, pass) = (r.open.last().copied(), r.pass);
    r.open.push(idx);
    r.spans.push(SpanRec {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        pass,
    });
    Span(Some(idx))
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            // A poisoned lock here means another span already panicked;
            // losing this record is the right outcome inside a drop.
            if let Ok(mut r) = RECORDER.lock() {
                r.spans[idx].end_ns = end;
                r.open.retain(|&i| i != idx);
            }
        }
    }
}

/// Takes every finished span recorded so far.
pub fn take() -> Vec<SpanRec> {
    let mut r = recorder();
    r.open.clear();
    std::mem::take(&mut r.spans)
}

/// Total length of the union of `intervals` (start, end), clipped to
/// `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Nanoseconds of root span `root` not covered by any leaf span beneath
/// it. A root with no children is its own leaf and leaves nothing
/// unattributed.
pub fn unattributed_ns(spans: &[SpanRec], root: usize) -> u64 {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let under_root = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) if p == root => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let leaves: Vec<(u64, u64)> = (0..spans.len())
        .filter(|&i| !has_child[i] && under_root(i))
        .map(|i| (spans[i].start_ns, spans[i].end_ns))
        .collect();
    if leaves.is_empty() {
        return 0;
    }
    let (lo, hi) = (spans[root].start_ns, spans[root].end_ns);
    (hi - lo) - covered(leaves, lo, hi)
}

/// Serialises spans in the chrome trace-event format (`ph: "X"` complete
/// events, microsecond timestamps; load in `chrome://tracing` or
/// Perfetto). The layer — the name's prefix up to the first dot — is the
/// event category.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"pass\":{}}}}}",
            s.name,
            cat,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            i,
            parent,
            s.pass
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // pass [0,100] > a [10,40] > a1 [15,25]; pass > b [50,90]
        let spans = vec![
            rec("pass", 0, 100, None),
            rec("x.a", 10, 40, Some(0)),
            rec("x.a1", 15, 25, Some(1)),
            rec("x.b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Leaves are a1 [15,25] and b [50,90]: 50 covered, 50 not.
        assert_eq!(unattributed_ns(&spans, 0), 50);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            rec("pass", 0, 100, None),
            rec("x.a", 10, 60, Some(0)),
            rec("x.b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        assert_eq!(unattributed_ns(&spans, 0), 30);
    }

    #[test]
    fn childless_root_is_its_own_leaf() {
        let spans = vec![rec("pass", 5, 25, None)];
        assert_eq!(self_times(&spans), vec![20]);
        assert_eq!(unattributed_ns(&spans, 0), 0);
    }

    #[test]
    fn recorder_nests_and_exports() {
        set_enabled(true);
        set_pass(3);
        {
            let _outer = span("layer.outer");
            let _inner = span("layer.inner");
        }
        set_enabled(false);
        let _off = span("layer.ignored");
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].pass, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_json(&spans);
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"cat\":\"layer\""));
    }
}
