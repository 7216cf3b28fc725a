//! Typed failure and error model of the experiment pipeline.
//!
//! Three layers, from innermost out:
//!
//! * [`ExpFailure`] — one experiment went wrong (panicked, overran its
//!   per-experiment deadline, or exhausted its transient-error retries). The
//!   scheduler turns these into per-experiment outcomes instead of
//!   letting them abort the pool; `--keep-going` runs collect them.
//! * [`Error`] — a whole [`crate::sched::drive`] call could not produce
//!   its result: nothing matched the filter, a strict (non-keep-going)
//!   run hit an [`ExpFailure`], or an artifact could not be written
//!   even after retries. [`Error::exit_code`] maps each variant to a distinct
//!   exit code.
//! * [`lock_recovering`] — the shared poison-recovery primitive: a
//!   panicked (or fault-injected) holder must never wedge later
//!   experiments behind a poisoned `Mutex`.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Why one experiment failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The experiment's `run` (or an extraction it triggered) panicked.
    Panicked,
    /// The experiment overran its per-experiment deadline.
    TimedOut {
        /// The configured deadline it overran.
        limit: Duration,
    },
    /// A transient (injected or real I/O) error survived every retry.
    Transient,
}

/// One experiment's terminal failure, as recorded in suite outcomes,
/// the failure summary and the manifest status section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpFailure {
    /// What class of failure this is.
    pub kind: FailureKind,
    /// Deterministic human-readable cause (panic message, injected
    /// fault description, or the last transient error).
    pub message: String,
    /// Retries spent before giving up.
    pub retries: u32,
}

impl ExpFailure {
    /// The manifest status keyword (`failed` / `timed-out`).
    pub fn status(&self) -> &'static str {
        match self.kind {
            FailureKind::TimedOut { .. } => "timed-out",
            FailureKind::Panicked | FailureKind::Transient => "failed",
        }
    }
}

impl fmt::Display for ExpFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FailureKind::Panicked => write!(f, "panicked: {}", self.message),
            FailureKind::TimedOut { limit } => {
                write!(f, "timed out after {}s watchdog", limit.as_secs_f64())
            }
            FailureKind::Transient => {
                write!(f, "failed after {} retries: {}", self.retries, self.message)
            }
        }
    }
}

/// A suite-level error from [`crate::sched::drive`].
#[derive(Debug)]
pub enum Error {
    /// The selection filter matched no registered experiment.
    NoMatch {
        /// The offending filter.
        filter: String,
    },
    /// A strict (non-`--keep-going`) run stopped at this failure.
    Experiment {
        /// Id of the failed experiment.
        id: String,
        /// What went wrong.
        failure: ExpFailure,
    },
    /// An artifact or manifest write failed even after retries.
    Write {
        /// Destination path.
        path: PathBuf,
        /// Underlying I/O error.
        source: io::Error,
    },
}

impl Error {
    /// The process exit code every runner maps this error to: `2` bad
    /// usage (no match), `1` an experiment failed, `3` a write failed.
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::NoMatch { .. } => 2,
            Error::Experiment { .. } => 1,
            Error::Write { .. } => 3,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoMatch { filter } => {
                write!(f, "no experiment matches {filter:?} (try `list`)")
            }
            Error::Experiment { id, failure } => {
                write!(
                    f,
                    "experiment {id} {failure} (rerun with --keep-going to finish the rest)"
                )
            }
            Error::Write { path, source } => write!(f, "writing {}: {source}", path.display()),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Write { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Locks `m`, recovering from a poisoned mutex instead of propagating
/// the panic: the poison flag is cleared and the guard handed back,
/// with a flag telling the caller recovery happened (so it can drop
/// state a dying holder may have left half-written).
pub fn lock_recovering<T>(m: &Mutex<T>) -> (MutexGuard<'_, T>, bool) {
    match m.lock() {
        Ok(guard) => (guard, false),
        Err(poisoned) => {
            m.clear_poison();
            (poisoned.into_inner(), true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_statuses_and_messages() {
        let p = ExpFailure {
            kind: FailureKind::Panicked,
            message: "boom".into(),
            retries: 0,
        };
        assert_eq!(p.status(), "failed");
        assert!(p.to_string().contains("panicked: boom"));

        let t = ExpFailure {
            kind: FailureKind::TimedOut {
                limit: Duration::from_secs(2),
            },
            message: String::new(),
            retries: 0,
        };
        assert_eq!(t.status(), "timed-out");
        assert!(t.to_string().contains("2s watchdog"));

        let r = ExpFailure {
            kind: FailureKind::Transient,
            message: "injected i/o fault".into(),
            retries: 3,
        };
        assert_eq!(r.status(), "failed");
        assert!(r.to_string().contains("after 3 retries"));
    }

    #[test]
    fn error_messages_name_the_cause() {
        let e = Error::NoMatch {
            filter: "warp".into(),
        };
        assert!(e.to_string().contains("no experiment matches \"warp\""));
        assert_eq!(e.exit_code(), 2);
        let e = Error::Write {
            path: PathBuf::from("/x/y.csv"),
            source: io::Error::other("disk on fire"),
        };
        assert!(e.to_string().contains("/x/y.csv"));
        assert!(e.to_string().contains("disk on fire"));
        assert_eq!(e.exit_code(), 3);
        let e = Error::Experiment {
            id: "fig2".into(),
            failure: ExpFailure {
                kind: FailureKind::Panicked,
                message: "boom".into(),
                retries: 0,
            },
        };
        assert_eq!(e.exit_code(), 1);
    }

    #[test]
    fn lock_recovering_survives_a_poisoned_mutex() {
        let m = Mutex::new(7u32);
        // Poison it: panic while holding the guard on another thread.
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = m.lock().unwrap();
                panic!("poison the mutex");
            })
            .join()
        });
        assert!(m.is_poisoned());
        let (guard, recovered) = lock_recovering(&m);
        assert!(recovered);
        assert_eq!(*guard, 7);
        drop(guard);
        // Poison is cleared: the next lock is clean.
        let (_guard, recovered) = lock_recovering(&m);
        assert!(!recovered);
    }
}
