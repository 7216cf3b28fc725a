//! The generic experiment runner — the one front-end for the whole
//! registry, replacing the historical per-figure `exp_*` binaries.
//!
//! ```text
//! exp list [filter]        # id, tags, shared traces, title
//! exp <id>                 # run one experiment: `exp run --filter <id>`
//! exp run [--filter F] [--jobs N] [--results-dir DIR] [--keep-going]
//! exp verify [--results-dir DIR] [--manifest FILE]
//! ```
//!
//! `--jobs` defaults to the host's CPU count, as `REPRO_JOBS` does for
//! `run_all`; `--jobs 1` runs the selection serially.
//!
//! `run` over the full registry also writes `run_all_report.txt` and
//! `manifest.json` next to the artifacts; the observability footer goes
//! to stderr so stdout stays deterministic. `verify` hash-checks the
//! artifacts under the results directory against a manifest (default:
//! the directory's own `manifest.json`).
//!
//! With `--keep-going`, a panicking, hung or persistently failing
//! experiment is recorded as a typed failure and the rest of the suite
//! still runs; the manifest then carries a per-experiment status
//! section. `REPRO_EXP_TIMEOUT=secs` arms the per-experiment deadline
//! and `REPRO_FAULTS=site:exp:kind[:times],...` arms deterministic
//! fault injection (see `DESIGN.md` §11).
//!
//! Exit codes: `0` success, `1` one or more experiments failed, `2` bad
//! usage (including an unknown id, a filter that matches nothing, an
//! unreadable manifest or a malformed setting, any that
//! `bench::common::check_settings` validates), `3` an artifact could not
//! be written or `verify` found drift. `run` and `<id>` end in the same
//! `bench::sched::run_and_report` as `run_all`.

use bench::registry::{self, RunCtx};
use bench::sched::{run_and_report, SuiteOptions};
use report::Manifest;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: exp list [filter]\n       exp <id>\n       exp run [--filter <tag|id>] [--jobs N] [--results-dir DIR] [--keep-going]\n       exp verify [--results-dir DIR] [--manifest FILE]\n\
         exit codes: 0 ok, 1 experiment failure, 2 bad usage, 3 artifact write failure or manifest drift"
    );
    std::process::exit(2);
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

fn run(args: &[String]) -> ! {
    let mut filter = String::new();
    let mut jobs = bench::common::host_cpus();
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
    let opts = SuiteOptions::new(jobs, RunCtx::standard()).keep_going(keep_going);
    let dir = results_dir.unwrap_or_else(bench::common::results_dir);
    std::process::exit(run_and_report(&filter, &opts, &dir));
}

/// Hash-verifies the artifacts under the results directory against a
/// manifest: `0` when every entry matches, `3` with one `drift:` line
/// per mismatch, `2` when the manifest cannot be read or parsed.
fn verify(args: &[String]) -> ! {
    let mut results_dir: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = PathBuf::from(it.next().unwrap_or_else(|| usage()));
        match arg.as_str() {
            "--results-dir" => results_dir = Some(value),
            "--manifest" => manifest_path = Some(value),
            _ => usage(),
        }
    }
    let dir = results_dir.unwrap_or_else(bench::common::results_dir);
    let manifest_path = manifest_path.unwrap_or_else(|| dir.join(report::MANIFEST_NAME));
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("reading {}: {e}", manifest_path.display()))
        .and_then(|json| Manifest::parse(&json))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let drift = manifest.verify_dir(&dir);
    if drift.is_empty() {
        println!(
            "{} artifacts verified against {}",
            manifest.entries.len(),
            manifest_path.display()
        );
        std::process::exit(0);
    }
    for d in drift {
        eprintln!("drift: {d}");
    }
    std::process::exit(3);
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
        Some("verify") => verify(&args[1..]),
        Some(id) => {
            if registry::find(id).is_none() {
                eprintln!("error: no experiment with id {id:?} (try `exp list`)");
                std::process::exit(2);
            }
            run(&["--filter".to_string(), id.to_string()]);
        }
    }
}
