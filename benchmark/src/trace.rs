//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer. Spans inside the engine are a later change (ROADMAP
//! item 1); until then the only code that records a span is the bench loop
//! and the timing flash store the bench injects.
//!
//! Every thread appends to a thread-local buffer, so recording takes no lock.
//! A thread hands its buffer to the global sink when it calls [`flush`] or
//! when it exits — the engine's destager threads never hear of this module,
//! they record through the injected flash store and are collected when the
//! database (and with it the destager pool) is dropped.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Root span name of a thread that records without an enclosing client
/// transaction (the engine's destager threads).
pub const BACKGROUND: &str = "background";

/// One timed interval. `parent` indexes the same thread's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// All spans one thread recorded, in start order.
#[derive(Debug, Clone)]
pub struct ThreadSpans {
    pub thread: String,
    pub spans: Vec<Span>,
}

static ON: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<ThreadSpans>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Local {
    fn hand_over(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        // A background root stays open for the thread's whole life: close it
        // at the last instant anything under it was seen.
        let last = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        for s in self.spans.iter_mut().filter(|s| s.end_ns == 0) {
            s.end_ns = last;
        }
        let thread = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_string();
        let spans = std::mem::take(&mut self.spans);
        self.open.clear();
        // A poisoned sink only means another thread panicked while pushing;
        // the vector itself is still a valid list of finished buffers.
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.push(ThreadSpans { thread, spans });
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.hand_over();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turn recording on or off. Toggle only while the clients are quiesced, so
/// a client transaction is recorded whole or not at all.
pub fn set_on(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// An open span; dropping it records the end time.
pub struct Guard(Option<u32>);

/// Open a span named `name` under the innermost open span of this thread.
/// `root` spans (the client transaction) start a tree of their own; any other
/// span opened with nothing above it hangs under a per-thread
/// [`BACKGROUND`] root.
pub fn enter(name: &'static str, root: bool) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let start_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.open.is_empty() && !root {
            let idx = l.spans.len() as u32;
            l.spans.push(Span {
                name: BACKGROUND,
                start_ns,
                end_ns: 0,
                parent: NO_PARENT,
            });
            l.open.push(idx);
        }
        let parent = if root {
            NO_PARENT
        } else {
            *l.open.last().expect("a background root was just opened")
        };
        let idx = l.spans.len() as u32;
        l.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        l.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end_ns = now_ns();
        // `try_with`: a guard dropped during thread teardown has nowhere to
        // record, and must not panic in `drop`.
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            if let Some(s) = l.spans.get_mut(idx as usize) {
                s.end_ns = end_ns.max(s.start_ns + 1);
            }
            if l.open.last() == Some(&idx) {
                l.open.pop();
            }
        });
    }
}

/// Hand this thread's spans to the sink now (client threads call this before
/// they return; other threads hand over when they exit).
pub fn flush() {
    LOCAL.with(|l| l.borrow_mut().hand_over());
}

/// Take every buffer handed over so far.
pub fn collect() -> Vec<ThreadSpans> {
    std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time of every span of one thread: its duration minus the part of its
/// interval that its child spans cover (overlapping children are counted
/// once, and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Write `threads` as one JSON document (at most `cap` spans per thread, so a
/// long run does not leave a gigabyte behind).
pub fn dump(path: &std::path::Path, threads: &[ThreadSpans], cap: usize) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"threads\": [")?;
    for (t, thread) in threads.iter().enumerate() {
        writeln!(
            out,
            "{{\"thread\": \"{}\", \"recorded\": {}, \"spans\": [",
            thread.thread,
            thread.spans.len()
        )?;
        let shown = thread.spans.len().min(cap);
        for (i, s) in thread.spans[..shown].iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let comma = if i + 1 < shown { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{comma}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        let comma = if t + 1 < threads.len() { "," } else { "" };
        writeln!(out, "]}}{comma}")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // txn [0,100) ── get [10,30) ── flash [12,20)
        //            ├─ put [30,70) ── flash [40,50), flash [45,60) (overlap)
        //            └─ commit [90,130) runs past its parent: clipped to 100
        let spans = vec![
            span("client.txn", 0, 100, NO_PARENT),
            span("engine.get", 10, 30, 0),
            span("flashdev.read", 12, 20, 1),
            span("engine.put", 30, 70, 0),
            span("flashdev.write", 40, 50, 3),
            span("flashdev.write", 45, 60, 3),
            span("engine.commit", 90, 130, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 20 - 40 - 10);
        assert_eq!(selfs[1], 20 - 8);
        assert_eq!(selfs[2], 8);
        assert_eq!(selfs[3], 40 - 20, "overlapping children count once");
        assert_eq!(selfs[6], 40);
        for (s, own) in spans.iter().zip(&selfs) {
            assert!(*own <= s.duration_ns(), "children never exceed {}", s.name);
        }
        // Self times of a tree add up to the root's duration when every child
        // lies inside its parent and siblings do not overlap.
        let total: u64 = self_times(&spans[..6]).iter().sum();
        assert_eq!(total - 5, 100, "the two flash writes overlap by 5 ns");
    }

    #[test]
    fn spans_nest_under_the_enclosing_call_or_a_background_root() {
        set_on(true);
        let handle = std::thread::Builder::new()
            .name("trace-test".into())
            .spawn(|| {
                {
                    let _txn = enter("client.txn", true);
                    let _get = enter("engine.get", false);
                    let _dev = enter("flashdev.read", false);
                }
                let _lonely = enter("flashdev.write_batch", false);
            })
            .unwrap();
        handle.join().unwrap();
        set_on(false);
        let mine: Vec<ThreadSpans> = collect()
            .into_iter()
            .filter(|t| t.thread == "trace-test")
            .collect();
        assert_eq!(mine.len(), 1, "thread exit hands the buffer over");
        let s = &mine[0].spans;
        let names: Vec<&str> = s.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "client.txn",
                "engine.get",
                "flashdev.read",
                BACKGROUND,
                "flashdev.write_batch"
            ]
        );
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[2].parent, 1);
        assert_eq!(s[3].parent, NO_PARENT);
        assert_eq!(s[4].parent, 3);
        assert!(s
            .iter()
            .all(|s| s.end_ns > s.start_ns || s.name == BACKGROUND));
        assert!(
            s[3].end_ns >= s[4].end_ns,
            "the root is closed at hand-over"
        );
    }
}
