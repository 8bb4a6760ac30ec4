//! Machine-checking for the workspace's concurrency contract.
//!
//! Three pieces:
//!
//! - [`classes`] — the lock-class registry: every lock in the workspace
//!   belongs to a named class, and the class ranks *are* the documented
//!   acquisition order (README "Lock order" is generated from this table;
//!   `face-lint --check-docs` rejects drift).
//! - [`ordered`] — [`OrderedMutex`]/[`OrderedRwLock`]/[`OrderedCondvar`]
//!   wrappers over the vendored `parking_lot` stub that feed the witness.
//! - [`witness`] — the lockdep runtime: a thread-local held-lock stack, a
//!   global acquisition graph with cycle detection, and the I/O-under-lock
//!   detector that the device hooks consult via [`check_device_op`].
//!
//! The witness is active in debug builds and under the `lockdep` cargo
//! feature; otherwise everything compiles to pass-throughs ([`enabled`]
//! reports which). [`dot`] renders the observed graph for the CI artifact.

pub mod classes;
pub mod dot;
pub mod ordered;
pub mod witness;

pub use classes::LockClassId;
pub use ordered::{
    OrderedCondvar, OrderedMutex, OrderedMutexGuard, OrderedRwLock, OrderedRwLockReadGuard,
    OrderedRwLockWriteGuard,
};
pub use witness::{allow_device_io, check_device_op, nested_region};

/// Whether the lockdep witness is compiled into this build.
pub const fn enabled() -> bool {
    witness::ENABLED
}
