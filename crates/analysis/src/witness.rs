//! The lockdep runtime witness: a thread-local held-lock stack, a global
//! acquisition-order graph with cycle detection, and the I/O-under-lock
//! detector's held-stack query.
//!
//! Semantics (Linux-lockdep style, adapted to the documented rank order):
//!
//! - Every blocking acquisition is checked against the locks the thread
//!   already holds. Holding a class of **higher rank** while acquiring a
//!   lower-ranked one is an order violation; acquiring a lock of a class
//!   already held is a same-class violation unless the class is `nestable`
//!   or both acquisitions are shared (reentrant reads).
//! - Each blocking acquisition also inserts `held → acquired` edges into a
//!   global graph. Inserting an edge that closes a cycle is a violation even
//!   when no rank relation is declared (classes with equal ranks are ordered
//!   dynamically, exactly like lockdep's learned ordering).
//! - `try_lock` acquisitions are never checked and add no edges — they
//!   cannot block, hence cannot close a wait cycle — but the locks they took
//!   are pushed on the held stack, because *holding* them still blocks other
//!   threads and still forbids device I/O where the class says so.
//! - [`nested_region`] suspends order checks for acquisitions that are
//!   deadlock-free by construction (the GSC donor probe under a pinning
//!   `try_lock`); held-stack bookkeeping and the I/O detector stay active.
//! - [`allow_device_io`] exempts a scope from the I/O-under-lock check for
//!   the acknowledged under-lock device paths (quiesced admin ops, a
//!   quarantine's evacuation, the residual group-dequeue victim read).
//!
//! A violation increments a global counter and panics on the offending
//! thread, unless a [`capture`] scope is active on that thread — the
//! deliberate-violation tests use capture to observe the witness without
//! dying, and capture keeps its edges in a thread-local graph so self-tests
//! cannot pollute the real acquisition graph.
//!
//! When the witness is compiled out ([`ENABLED`] is false: release build
//! without the `lockdep` feature) every function here is an inlined no-op.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::classes::{LockClassId, NUM_CLASSES};

/// Whether the witness is compiled in: debug builds and `lockdep` builds.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "lockdep"));

/// How a guard holds its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Shared (read) guard.
    Shared,
    /// Exclusive (write / mutex) guard.
    Exclusive,
}

/// How an acquisition was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A blocking `lock()`/`read()`/`write()`.
    Block,
    /// A successful `try_*` — cannot block, so never checked.
    Try,
    /// Re-acquisition after a condvar wait — checked like `Block`.
    Reacquire,
}

/// Opaque receipt for one acquisition; returned by [`acquire`], consumed by
/// [`release`]. Token 0 is the disabled-witness no-op.
#[derive(Debug, Clone, Copy)]
pub struct Token(u64);

/// One kind of contract violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Acquired a lower-ranked class while holding a higher-ranked one.
    Order,
    /// Acquired a class already held (not nestable, not read-read).
    SameClass,
    /// The new acquisition edge closed a cycle in the acquisition graph.
    Cycle,
    /// A device operation ran while an I/O-forbidding class was held.
    IoUnderLock,
}

/// A recorded violation (only materialised under [`capture`]).
#[derive(Debug, Clone)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Human-readable description with the held stack.
    pub message: String,
}

#[derive(Debug, Clone, Copy)]
struct HeldLock {
    token: u64,
    class: LockClassId,
    mode: Mode,
}

struct CaptureState {
    violations: Vec<Violation>,
    // Thread-local scratch graph so self-tests never pollute the real one.
    edges: Vec<bool>,
}

thread_local! {
    static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
    static NESTED_DEPTH: Cell<u32> = const { Cell::new(0) };
    static IO_ALLOW_DEPTH: Cell<u32> = const { Cell::new(0) };
    static CAPTURE: RefCell<Option<CaptureState>> = const { RefCell::new(None) };
}

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
static ORDER_VIOLATIONS: AtomicU64 = AtomicU64::new(0);
static IO_VIOLATIONS: AtomicU64 = AtomicU64::new(0);
static EXEMPTED_IO_OPS: AtomicU64 = AtomicU64::new(0);
static GRAPH: Mutex<Option<Vec<bool>>> = Mutex::new(None);
static REPORTS: Mutex<Vec<String>> = Mutex::new(Vec::new());

const MAX_REPORTS: usize = 64;

fn edge_index(from: LockClassId, to: LockClassId) -> usize {
    from.0 * NUM_CLASSES + to.0
}

/// Depth-first search: is `to` reachable from `from` in `edges`?
fn reachable(edges: &[bool], from: LockClassId, to: LockClassId) -> bool {
    let mut seen = [false; NUM_CLASSES];
    let mut stack = vec![from.0];
    while let Some(n) = stack.pop() {
        if n == to.0 {
            return true;
        }
        if seen[n] {
            continue;
        }
        seen[n] = true;
        for m in 0..NUM_CLASSES {
            if edges[n * NUM_CLASSES + m] && !seen[m] {
                stack.push(m);
            }
        }
    }
    false
}

/// Insert `from → to`; returns true when the edge closes a cycle.
fn insert_edge(edges: &mut [bool], from: LockClassId, to: LockClassId) -> bool {
    if edges[edge_index(from, to)] {
        return false; // seen before: any cycle was reported on first sight
    }
    let closes_cycle = reachable(edges, to, from);
    edges[edge_index(from, to)] = true;
    closes_cycle
}

fn held_summary(held: &[HeldLock]) -> String {
    let names: Vec<&str> = held.iter().map(|h| h.class.name()).collect();
    format!("[{}]", names.join(" → "))
}

fn record_violation(kind: ViolationKind, message: String) {
    let captured = CAPTURE.with(|c| {
        if let Some(state) = c.borrow_mut().as_mut() {
            state.violations.push(Violation {
                kind,
                message: message.clone(),
            });
            true
        } else {
            false
        }
    });
    if captured {
        return;
    }
    match kind {
        ViolationKind::IoUnderLock => IO_VIOLATIONS.fetch_add(1, Ordering::Relaxed),
        _ => ORDER_VIOLATIONS.fetch_add(1, Ordering::Relaxed),
    };
    if let Ok(mut reports) = REPORTS.lock() {
        if reports.len() < MAX_REPORTS {
            reports.push(message.clone());
        }
    }
    panic!("lockdep: {message}");
}

/// Register an acquisition of `class`. Call before a blocking lock attempt
/// (the thread is committed to waiting) or after a successful try-lock.
pub fn acquire(class: LockClassId, mode: Mode, kind: Kind) -> Token {
    if !ENABLED {
        return Token(0);
    }
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let checking = kind != Kind::Try && NESTED_DEPTH.with(|d| d.get()) == 0;
    // Decide violations with the held borrow released, so the panic path
    // cannot collide with guard drops re-entering the witness.
    let mut violation: Option<(ViolationKind, String)> = None;
    let mut new_edges: Vec<LockClassId> = Vec::new();
    HELD.with(|h| {
        let held = h.borrow();
        if checking {
            for held_lock in held.iter() {
                let hc = held_lock.class.spec();
                let nc = class.spec();
                if held_lock.class == class {
                    let read_read = mode == Mode::Shared && held_lock.mode == Mode::Shared;
                    if !nc.nestable && !read_read {
                        violation = Some((
                            ViolationKind::SameClass,
                            format!(
                                "same-class acquisition of `{}` ({:?}) while already held ({:?}); held {}",
                                nc.name,
                                mode,
                                held_lock.mode,
                                held_summary(&held)
                            ),
                        ));
                        break;
                    }
                } else if hc.rank > nc.rank {
                    violation = Some((
                        ViolationKind::Order,
                        format!(
                            "acquired `{}` (rank {}) while holding `{}` (rank {}); held {}",
                            nc.name,
                            nc.rank,
                            hc.name,
                            hc.rank,
                            held_summary(&held)
                        ),
                    ));
                    break;
                } else {
                    new_edges.push(held_lock.class);
                }
            }
        }
    });
    if violation.is_none() && checking {
        // Insert edges and detect cycles — in the capture-local graph when a
        // capture scope is active, in the global graph otherwise.
        let in_capture = CAPTURE.with(|c| {
            let mut c = c.borrow_mut();
            match c.as_mut() {
                Some(state) => {
                    for &from in &new_edges {
                        if insert_edge(&mut state.edges, from, class) && violation.is_none() {
                            violation = Some((
                                ViolationKind::Cycle,
                                format!(
                                    "acquisition edge `{}` → `{}` closes a cycle in the lock-order graph",
                                    from.name(),
                                    class.name()
                                ),
                            ));
                        }
                    }
                    true
                }
                None => false,
            }
        });
        if !in_capture {
            let mut graph = GRAPH.lock().unwrap_or_else(|e| e.into_inner());
            let edges = graph.get_or_insert_with(|| vec![false; NUM_CLASSES * NUM_CLASSES]);
            for &from in &new_edges {
                if insert_edge(edges, from, class) && violation.is_none() {
                    violation = Some((
                        ViolationKind::Cycle,
                        format!(
                            "acquisition edge `{}` → `{}` closes a cycle in the lock-order graph",
                            from.name(),
                            class.name()
                        ),
                    ));
                }
            }
        }
    }
    if let Some((kind, message)) = violation {
        record_violation(kind, message);
        // Only reached under capture: the acquisition proceeds so the caller
        // keeps a consistent guard.
    }
    HELD.with(|h| h.borrow_mut().push(HeldLock { token, class, mode }));
    Token(token)
}

/// Unregister the acquisition behind `token`. Off-order (non-LIFO) release
/// is legal: the entry is removed wherever it sits in the stack.
pub fn release(token: Token) {
    if !ENABLED || token.0 == 0 {
        return;
    }
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|l| l.token == token.0) {
            held.remove(pos);
        }
    });
}

/// The I/O-under-lock detector: the device hooks call this on every physical
/// operation. Panics (or records, under capture) when a lock of an
/// I/O-forbidding class is held and no [`allow_device_io`] scope is active.
pub fn check_device_op(op: &'static str) {
    if !ENABLED {
        return;
    }
    let offending = HELD.with(|h| {
        let held = h.borrow();
        held.iter()
            .find(|l| l.class.spec().forbids_io)
            .map(|l| (l.class, held_summary(&held)))
    });
    let Some((class, summary)) = offending else {
        return;
    };
    if IO_ALLOW_DEPTH.with(|d| d.get()) > 0 {
        EXEMPTED_IO_OPS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    record_violation(
        ViolationKind::IoUnderLock,
        format!(
            "device op `{op}` while holding `{}`; held {summary}",
            class.name()
        ),
    );
}

/// RAII scope suspending order checks (see [`nested_region`]).
pub struct NestedRegion {
    _private: (),
}

impl Drop for NestedRegion {
    fn drop(&mut self) {
        if ENABLED {
            NESTED_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
}

/// Open a scope in which blocking acquisitions skip order checking and edge
/// recording — for code that is deadlock-free by construction in a way the
/// class order cannot express (e.g. probing a donor shard's frames while the
/// donor is pinned by `try_lock`). The held stack and the I/O detector stay
/// live inside the region. `reason` documents the site in the source.
pub fn nested_region(reason: &'static str) -> NestedRegion {
    let _ = reason;
    if ENABLED {
        NESTED_DEPTH.with(|d| d.set(d.get() + 1));
    }
    NestedRegion { _private: () }
}

/// RAII scope exempting device ops from the I/O-under-lock check (see
/// [`allow_device_io`]).
pub struct IoAllowScope {
    _private: (),
}

impl Drop for IoAllowScope {
    fn drop(&mut self) {
        if ENABLED {
            IO_ALLOW_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
}

/// Open a scope in which device ops under an I/O-forbidding lock are counted
/// as exempted instead of reported — the acknowledged under-lock device
/// paths. `reason` documents the site; exempted ops are tallied in
/// [`exempted_io_ops`].
pub fn allow_device_io(reason: &'static str) -> IoAllowScope {
    let _ = reason;
    if ENABLED {
        IO_ALLOW_DEPTH.with(|d| d.set(d.get() + 1));
    }
    IoAllowScope { _private: () }
}

/// Run `f` with this thread's violations captured instead of panicking.
/// Acquisition edges go to a capture-local graph, so deliberate violations
/// in tests cannot pollute the global one. Returns `f`'s result and the
/// violations observed. Panics if a capture is already active on the thread.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Violation>) {
    CAPTURE.with(|c| {
        let mut slot = c.borrow_mut();
        assert!(slot.is_none(), "nested lockdep capture");
        *slot = Some(CaptureState {
            violations: Vec::new(),
            edges: vec![false; NUM_CLASSES * NUM_CLASSES],
        });
    });
    let result = f();
    let state = CAPTURE
        .with(|c| c.borrow_mut().take())
        .expect("capture state vanished");
    (result, state.violations)
}

/// Number of lock-order / same-class / cycle violations reported globally
/// (captured violations excluded).
pub fn order_violation_count() -> u64 {
    ORDER_VIOLATIONS.load(Ordering::Relaxed)
}

/// Number of I/O-under-lock violations reported globally.
pub fn io_violation_count() -> u64 {
    IO_VIOLATIONS.load(Ordering::Relaxed)
}

/// Number of device ops that ran under an I/O-forbidding lock inside an
/// [`allow_device_io`] scope.
pub fn exempted_io_ops() -> u64 {
    EXEMPTED_IO_OPS.load(Ordering::Relaxed)
}

/// The first few (up to `MAX_REPORTS`) violation messages reported globally.
pub fn reports() -> Vec<String> {
    REPORTS
        .lock()
        .map(|r| r.clone())
        .unwrap_or_else(|e| e.into_inner().clone())
}

/// Snapshot of the global acquisition graph as `(from, to)` class pairs.
pub fn edges() -> Vec<(LockClassId, LockClassId)> {
    let graph = GRAPH.lock().unwrap_or_else(|e| e.into_inner());
    let Some(edges) = graph.as_ref() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for from in 0..NUM_CLASSES {
        for to in 0..NUM_CLASSES {
            if edges[from * NUM_CLASSES + to] {
                out.push((LockClassId(from), LockClassId(to)));
            }
        }
    }
    out
}

/// The classes currently held by this thread, outermost first (test aid and
/// instrumentation hook).
pub fn held_classes() -> Vec<LockClassId> {
    if !ENABLED {
        return Vec::new();
    }
    HELD.with(|h| h.borrow().iter().map(|l| l.class).collect())
}
