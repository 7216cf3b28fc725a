//! The generic experiment runner — one binary for the whole registry,
//! replacing the historical per-figure `exp_*` binaries.
//!
//! ```text
//! exp list [filter]        # id, tags, shared traces, title
//! exp <id>                 # run one experiment, print its section
//! exp run [--filter F] [--jobs N] [--results-dir DIR] [--keep-going]
//! ```
//!
//! `run` over the full registry also writes `run_all_report.txt` and
//! `manifest.json` next to the artifacts; the observability footer goes
//! to stderr so stdout stays deterministic.
//!
//! With `--keep-going`, a panicking, hung or persistently failing
//! experiment is recorded as a typed failure and the rest of the suite
//! still runs; the manifest then carries a per-experiment status
//! section. `REPRO_EXP_TIMEOUT=secs` arms the per-experiment deadline
//! and `REPRO_FAULTS=site:exp:kind[:times],...` arms deterministic
//! fault injection (see `DESIGN.md` §11).
//!
//! Exit codes: `0` success, `1` one or more experiments failed, `2` bad
//! usage (including a filter that matches nothing or a malformed
//! `REPRO_INSTRUCTIONS` or any setting `bench::common::check_settings`
//! validates), `3` an artifact could not be written.

use bench::registry::{self, RunCtx};
use bench::sched::{drive, SuiteOptions};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: exp list [filter]\n       exp <id>\n       exp run [--filter <tag|id>] [--jobs N] [--results-dir DIR] [--keep-going]\n\
         exit codes: 0 ok, 1 experiment failure, 2 bad usage, 3 artifact write failure"
    );
    std::process::exit(2);
}

/// The run context from `REPRO_INSTRUCTIONS`; a malformed value is bad
/// usage.
fn run_ctx() -> RunCtx {
    let instructions = bench::common::instructions_per_run().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    RunCtx::with_instructions(instructions)
}

fn list(filter: &str) {
    let selection = registry::matching(filter).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    });
    for e in selection {
        println!(
            "{:<12} [{}]{} {}",
            e.id,
            e.tags.join(","),
            if e.traces.is_empty() {
                String::new()
            } else {
                format!(" traces={}", e.traces.join(","))
            },
            e.title
        );
    }
}

fn run(args: &[String]) {
    let mut filter = String::new();
    let mut jobs = 1usize;
    let mut keep_going = false;
    let mut results_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--filter" => filter = it.next().cloned().unwrap_or_else(|| usage()),
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--keep-going" => keep_going = true,
            "--results-dir" => {
                results_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            _ => usage(),
        }
    }
    let opts = SuiteOptions::new(jobs, run_ctx()).keep_going(keep_going);
    let dir = results_dir.unwrap_or_else(bench::common::results_dir);
    match drive(&filter, &opts, &dir) {
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

fn main() {
    if let Err(e) = bench::common::check_settings() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("list") => list(args.get(1).map_or("", String::as_str)),
        Some("run") => run(&args[1..]),
        Some(id) => match registry::find(id) {
            Some(exp) => {
                let report = (exp.run)(&run_ctx());
                registry::write_artifacts_warn(&bench::common::results_dir(), &report.artifacts);
                println!("{}", report.section);
            }
            None => {
                eprintln!("error: no experiment with id {id:?} (try `exp list`)");
                std::process::exit(2);
            }
        },
    }
}
