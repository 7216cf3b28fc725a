//! Parallel experiment executor.
//!
//! Every experiment that fans out over workloads, line sizes, or design
//! points used to hand-roll its own `std::thread::scope` ladder (or run
//! serially). This module centralises the pattern: a fixed-size scoped
//! worker pool pulls jobs off a shared atomic cursor, so a long job on
//! one core does not serialise the rest, and results come back in input
//! order.

use crate::fault;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads for `jobs` independent jobs: one per core, never more
/// than the job count, at least one.
///
/// `REPRO_THREADS` overrides the core count (useful for pinning bench
/// runs or debugging with a single worker).
pub fn worker_count(jobs: usize) -> usize {
    let cores = std::env::var("REPRO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
    cores.min(jobs).max(1)
}

/// Applies `f` to every item on a scoped worker pool and returns the
/// results in input order.
///
/// Jobs are claimed dynamically (atomic cursor), so heterogeneous job
/// lengths balance themselves; the caller's borrows stay available to
/// `f` because the pool is scoped.
///
/// # Panics
///
/// Propagates a panic from any job after the pool drains, preserving
/// the original payload — so the scheduler's panic containment still
/// sees a typed [`fault::TransientUnwind`] or [`fault::DeadlineExceeded`]
/// raised inside a worker. Every job is a cancellation point.
pub fn parallel_map<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let job = |item: &I| {
        fault::check_deadline();
        f(item)
    };
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.iter().map(job).collect();
    }
    let cursor = AtomicUsize::new(0);
    // Workers inherit the spawner's experiment and deadline so targeted
    // fault injection and cancellation reach jobs on the pool.
    let inherited = fault::scope();
    let parts: Vec<Vec<(usize, O)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let job = &job;
                let inherited = inherited.clone();
                scope.spawn(move || {
                    let _scope = fault::enter_shared(inherited);
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, job(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<O>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, out) in parts.into_iter().flatten() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every job was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(parallel_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let seen = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..257).collect();
        parallel_map(&items, |&i| {
            assert!(seen.lock().unwrap().insert(i), "job {i} ran twice");
        });
        assert_eq!(seen.lock().unwrap().len(), items.len());
    }

    #[test]
    fn worker_count_is_bounded_by_jobs() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(4) <= 4);
        assert!(worker_count(10_000) >= 1);
    }

    #[test]
    fn borrows_from_the_caller_are_usable() {
        let base = vec![10u64, 20, 30];
        let items = [0usize, 1, 2];
        let out = parallel_map(&items, |&i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }
}
