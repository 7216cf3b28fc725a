//! Runs every experiment through the registry scheduler, printing the
//! suite document to stdout and writing every artifact — the per-figure
//! CSVs, `run_all_report.txt` and the hash `manifest.json` — to the
//! results directory.
//!
//! `REPRO_JOBS=N` runs up to `N` experiments concurrently; the document
//! is byte-identical to the serial run either way. The run stops at the
//! first failed experiment; `exp run --keep-going` records failures and
//! completes the rest. The per-experiment wall-clock and trace-store
//! footer goes to stderr so stdout stays deterministic.
//!
//! Exit codes: `0` success, `1` an experiment failed, `2` a malformed
//! setting (any that `bench::common::check_settings` validates), `3` an
//! artifact could not be written.

use bench::registry::RunCtx;
use bench::sched::{jobs_setting, run_and_report, SuiteOptions};

fn main() {
    let jobs = bench::common::check_settings()
        .and_then(|()| jobs_setting())
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let opts = SuiteOptions::new(jobs, RunCtx::standard());
    std::process::exit(run_and_report("all", &opts, &bench::common::results_dir()));
}
