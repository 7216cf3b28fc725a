//! The trace-store-backed [`Workloads`] provider behind the query API.
//!
//! `tradeoff::api::dispatch` is pure: every workload fold it needs
//! comes through a [`Workloads`] provider. This module supplies the
//! production implementation — lookups go through [`tracestore`], so a
//! long-running process (the `tradeoff-server` binary, or repeated CLI
//! queries inside one suite run) pays each trace generation, timeline
//! extraction and reuse-distance fold once, with concurrent same-key
//! requests coalesced onto a single extraction by the store's key
//! gates.
//!
//! Seed discipline: the API's [`GRID_SEED`] equals the sweep
//! experiments' [`SWEEP_SEED`] (asserted below), so grid queries and
//! suite runs share memo entries rather than folding parallel worlds.

use crate::{grid, registry, tracestore};
use simcache::{CacheConfig, Simulated};
use simcpu::MissTimeline;
use simtrace::{ReuseHistograms, WorkloadSpec};
use std::sync::Arc;
use tradeoff::api::{ExperimentInfo, GridSpec, Workloads};

/// The production query environment: every lookup is memoised in (and
/// coalesced by) the process-wide trace store, and the experiment
/// listing reflects the full registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreWorkloads;

impl Workloads for StoreWorkloads {
    fn histograms(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        min_line: u64,
        max_line: u64,
        max_distance: usize,
        warmup: u64,
    ) -> Arc<ReuseHistograms> {
        tracestore::workload_histograms(spec, seed, len, min_line, max_line, max_distance, warmup)
    }

    fn simulated_grid(
        &self,
        workload: &WorkloadSpec,
        spec: &GridSpec,
        instructions: usize,
    ) -> Simulated {
        // `build_simulated` folds under SWEEP_SEED — the provider's
        // canonical grid seed (== GRID_SEED, pinned by the test below).
        grid::build_simulated(workload, spec, instructions)
    }

    fn timeline(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        len: usize,
        cache: &CacheConfig,
    ) -> Arc<MissTimeline> {
        tracestore::workload_timeline(spec, seed, len, cache)
    }

    fn experiments(&self) -> Vec<ExperimentInfo> {
        registry::all()
            .iter()
            .map(|e| ExperimentInfo {
                id: e.id.to_string(),
                title: e.title.to_string(),
                tags: e.tags.iter().map(|t| t.to_string()).collect(),
                traces: e.traces.iter().map(|t| t.to_string()).collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SWEEP_SEED;
    use simtrace::workload::builtin;
    use tradeoff::api::{self, GRID_SEED, HIST_DISTANCE_CAP, HIST_LINE_RANGE};

    #[test]
    fn grid_seed_is_the_sweep_seed() {
        // Server grid queries must share memo entries with suite runs.
        assert_eq!(GRID_SEED, SWEEP_SEED);
    }

    #[test]
    fn analytic_grid_queries_share_the_suite_memo() {
        // An api-shaped histogram lookup and the grid experiment's own
        // build must resolve to the SAME memo entry: identical key,
        // shared allocation.
        let instructions = 5_000;
        let warmup = instructions as u64 / 5;
        let via_api = StoreWorkloads.histograms(
            builtin("doduc").unwrap(),
            GRID_SEED,
            instructions,
            HIST_LINE_RANGE.0,
            HIST_LINE_RANGE.1,
            HIST_DISTANCE_CAP,
            warmup,
        );
        let via_suite = tracestore::workload_histograms(
            builtin("doduc").unwrap(),
            SWEEP_SEED,
            instructions,
            8,
            128,
            HIST_DISTANCE_CAP,
            warmup,
        );
        assert!(
            Arc::ptr_eq(&via_api, &via_suite),
            "api and suite lookups must share one memo entry"
        );
    }

    #[test]
    fn experiments_listing_matches_the_registry() {
        let infos = StoreWorkloads.experiments();
        let reg = registry::all();
        assert_eq!(infos.len(), reg.len());
        for (info, exp) in infos.iter().zip(reg.iter()) {
            assert_eq!(info.id, exp.id);
            assert_eq!(info.title, exp.title);
        }
    }

    #[test]
    fn store_backed_dispatch_matches_uncached() {
        // The memoising provider must be answer-identical to the
        // reference Uncached provider (same folds, same seeds).
        let req = api::QueryRequest::Grid(api::GridQuery {
            backend: api::GridBackend::Analytic,
            instructions: 4_000,
            target: 0.5,
            max_sets: 16,
            max_assoc: 2,
            programs: vec!["wave5".to_string()],
            workloads: Vec::new(),
        });
        let stored = api::dispatch(&req, &StoreWorkloads).unwrap();
        let uncached = api::dispatch_uncached(&req).unwrap();
        assert_eq!(stored, uncached);
        assert_eq!(
            stored.to_json_string(),
            uncached.to_json_string(),
            "wire forms must match byte for byte"
        );
    }
}
