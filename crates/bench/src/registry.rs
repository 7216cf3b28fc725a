//! The unified experiment registry.
//!
//! Every table, figure and extension of the reproduction is one
//! [`Experiment`]: a typed entry with a stable id, the title the suite
//! report prints, filter tags, the trace-store working sets it touches,
//! and a `run` that returns a *structured* [`ExpReport`] — the rendered
//! terminal section plus typed artifacts (CSV rows, JSON metrics) —
//! instead of writing files as a side effect.
//!
//! [`all`] lists the registry in the canonical suite order (the order
//! the original `run_all` driver printed); [`crate::sched`] executes a
//! selection of it with cross-experiment parallelism. One generic `exp`
//! binary replaces the historical per-figure `exp_*` binaries.

use report::Artifact;

/// Shared inputs for one experiment run.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Instruction budget per SPEC92 proxy run. Modules with heavier
    /// inner loops may clamp it (they document the clamp).
    pub instructions: usize,
}

impl RunCtx {
    /// The canonical context: `REPRO_INSTRUCTIONS` or the 120 000
    /// default, exactly what the committed `results/` artifacts use.
    ///
    /// # Panics
    ///
    /// Panics with the variable's name if `REPRO_INSTRUCTIONS` is set
    /// but malformed; binaries run
    /// [`check_settings`](crate::common::check_settings) first and exit
    /// with a usage error instead.
    pub fn standard() -> RunCtx {
        RunCtx {
            instructions: crate::common::instructions_per_run().unwrap_or_else(|e| panic!("{e}")),
        }
    }

    /// A context with an explicit instruction budget (tests, quick runs).
    pub fn with_instructions(instructions: usize) -> RunCtx {
        RunCtx { instructions }
    }
}

/// The structured outcome of one experiment.
#[derive(Debug, Clone)]
pub struct ExpReport {
    /// The rendered terminal section (byte-identical to the historical
    /// per-binary output).
    pub section: String,
    /// Typed artifacts destined for the results directory.
    pub artifacts: Vec<Artifact>,
}

impl ExpReport {
    /// A report with no artifacts.
    pub fn text_only(section: String) -> ExpReport {
        ExpReport {
            section,
            artifacts: Vec::new(),
        }
    }
}

/// One registered experiment: a plain record, one `const` per entry.
#[derive(Debug)]
pub struct Experiment {
    /// Stable identifier (`fig1`, `sweep`, …) used by the CLI and the
    /// generic `exp` binary.
    pub id: &'static str,
    /// Section title, exactly as the suite report prints it.
    pub title: &'static str,
    /// Filter tags (`paper`, `figure`, `extension`, `measured`, …).
    pub tags: &'static [&'static str],
    /// Keys of the shared [`crate::tracestore`] working sets this
    /// experiment reads ([`traces`]). The scheduler runs one holder of
    /// a key to completion before starting the others, so they hit the
    /// store warm instead of extracting the same traces concurrently.
    pub traces: &'static [&'static str],
    /// The `bench` module defining this entry (`module_path!()`), for
    /// the registry-completeness audit.
    pub module: &'static str,
    /// Start-order weight: the experiment's serial wall time at the
    /// default 120 000 instructions, in milliseconds as a `REPRO_JOBS=1`
    /// footer reads it (only the ratios matter). The scheduler starts
    /// the costliest eligible experiment first, so a long one does not
    /// run alone at the suite's tail. It moves only the start order,
    /// never an answer or the report order.
    pub cost: u32,
    /// Runs the experiment, returning the rendered section and its
    /// typed artifacts. Must be deterministic for a given context.
    pub run: fn(&RunCtx) -> ExpReport,
}

/// Shared trace-store working-set keys (see [`Experiment::traces`]).
///
/// Each key names a working set of the six built-in proxy specs
/// ([`simtrace::workload::builtins`]) at one seed and geometry. The
/// store itself memoises on [`simtrace::workload::WorkloadSpec::id`] —
/// the content hash of the declarative spec — so these constants are
/// scheduling hints, not identities: experiments that share a key are
/// serialised so the first run populates the spec-keyed memos warm for
/// the rest.
pub mod traces {
    /// Timelines of the six builtin specs at the Figure-1 geometry
    /// (8 KB two-way, 32-byte lines, seed
    /// [`crate::tracestore::SPEC_SEED`]).
    pub const SPEC_L32: &str = "spec@l32";
    /// Timelines of the six builtin specs at the 8-byte-line variant of
    /// the Figure-1 cache.
    pub const SPEC_L8: &str = "spec@l8";
}

/// Every experiment, in the canonical suite (report) order.
pub fn all() -> &'static [Experiment] {
    &[
        crate::table23::EXP,
        crate::fig1::EXP,
        crate::fig2::EXP,
        crate::unified::EXP3,
        crate::unified::EXP4,
        crate::unified::EXP5,
        crate::fig6::EXP,
        crate::example1::EXP,
        crate::xover::EXP,
        crate::linesize::EXP,
        crate::validate::EXP,
        crate::mi::EXP,
        crate::prefetch::EXP,
        crate::writemiss::EXP,
        crate::alpha::EXP,
        crate::l2::EXP,
        crate::cost::EXP,
        crate::missdist::EXP,
        crate::phases::EXP,
        crate::sector::EXP,
        crate::victim::EXP,
        crate::assoc::EXP,
        crate::context::EXP,
        crate::assumptions::EXP,
        crate::nb::EXP,
        crate::reuse::EXP,
        crate::sweep::EXP,
        crate::grid::EXP,
    ]
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    all().iter().find(|e| e.id == id)
}

/// Experiments whose id or tag set matches `filter` (registry order).
/// An empty filter or `all` selects everything.
///
/// # Errors
///
/// [`crate::Error::NoMatch`] when nothing matches: every consumer (the
/// `exp` binary's `list`, `run` and `<id>`) treats a filter that
/// selects nothing as bad usage, not silent success.
pub fn matching(filter: &str) -> Result<Vec<&'static Experiment>, crate::Error> {
    let selection: Vec<_> = all()
        .iter()
        .filter(|e| {
            filter.is_empty() || filter == "all" || e.id == filter || e.tags.contains(&filter)
        })
        .collect();
    if selection.is_empty() {
        return Err(crate::Error::NoMatch {
            filter: filter.to_string(),
        });
    }
    Ok(selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique_and_findable() {
        let mut seen = HashSet::new();
        for e in all() {
            assert!(seen.insert(e.id), "duplicate id {}", e.id);
            assert!(find(e.id).is_some(), "{} not findable", e.id);
            // `exp <id>` runs the id as a filter: no tag may shadow it.
            let ids: Vec<_> = matching(e.id).unwrap().iter().map(|m| m.id).collect();
            assert_eq!(ids, [e.id], "an id filter selects only that experiment");
        }
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn filters_select_by_id_and_tag() {
        assert_eq!(matching("fig1").unwrap().len(), 1);
        assert_eq!(matching("all").unwrap().len(), all().len());
        assert_eq!(matching("").unwrap().len(), all().len());
        let figures = matching("figure").unwrap();
        assert!(figures.len() >= 6, "fig1..fig6 carry the figure tag");
        assert!(figures.iter().all(|e| e.tags.contains(&"figure")));
    }

    #[test]
    fn unknown_filters_are_typed_errors() {
        let err = matching("no-such-filter").unwrap_err();
        assert!(err.to_string().contains("no experiment matches"));
    }

    #[test]
    fn trace_keys_use_known_constants() {
        let known = [traces::SPEC_L32, traces::SPEC_L8];
        for e in all() {
            for key in e.traces {
                assert!(known.contains(key), "{}: unknown trace key {key}", e.id);
            }
        }
    }
}
