//! Runs every experiment through the registry scheduler, printing the
//! suite document to stdout and writing every artifact — the per-figure
//! CSVs, `run_all_report.txt` and the hash `manifest.json` — to the
//! results directory.
//!
//! `REPRO_JOBS=N` runs up to `N` experiments concurrently; the document
//! is byte-identical to the serial run either way. `REPRO_KEEP_GOING=1`
//! records failed experiments and completes the rest instead of
//! stopping at the first failure. The per-experiment wall-clock and
//! trace-store footer goes to stderr so stdout stays deterministic.
//!
//! Exit codes: `0` success, `1` one or more experiments failed, `2` a
//! malformed setting (`REPRO_INSTRUCTIONS`, `REPRO_JOBS`,
//! `REPRO_KEEP_GOING`, or any that `bench::common::check_settings`
//! validates), `3` an artifact could not be written.

use bench::registry::RunCtx;
use bench::sched::{drive, jobs_setting, keep_going_setting, SuiteOptions};

fn main() {
    let settings = bench::common::check_settings().and_then(|()| {
        Ok((
            jobs_setting()?,
            keep_going_setting()?,
            bench::common::instructions_per_run()?,
        ))
    });
    let (jobs, keep_going, instructions) = settings.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let opts =
        SuiteOptions::new(jobs, RunCtx::with_instructions(instructions)).keep_going(keep_going);
    match drive("all", &opts, &bench::common::results_dir()) {
        Ok(outcome) => {
            print!("{}", outcome.run.document());
            eprintln!("{}", outcome.run.footer());
            if outcome.run.has_failures() {
                eprintln!("{}", outcome.run.failure_summary());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
