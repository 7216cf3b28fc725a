//! The `exp` binary is the one experiment front-end: `list`, `run`,
//! `<id>` and `verify`, with exit codes 0 ok, 1 experiment failure,
//! 2 bad usage, 3 artifact write failure or manifest drift.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn exp(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .env("REPRO_RESULTS_DIR", results)
        .output()
        .expect("exp runs")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exp-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn list_shows_the_registry() {
    let out = exp(&["list"], &tmp_dir("list"));
    assert_eq!(out.status.code(), Some(0));
    let listing = text(&out.stdout);
    assert!(listing.contains("fig1") && listing.contains("Design-space sweep"));
    assert_eq!(
        exp(&[], &tmp_dir("list")).stdout,
        out.stdout,
        "bare exp lists"
    );
}

#[test]
fn one_id_is_the_filtered_run() {
    let by_id = tmp_dir("by-id");
    let by_filter = tmp_dir("by-filter");
    let one = exp(&["fig2"], &by_id);
    assert_eq!(one.status.code(), Some(0), "{}", text(&one.stderr));
    let dir_arg = by_filter.to_str().expect("UTF-8 temp path");
    let filtered = exp(
        &[
            "run",
            "--keep-going",
            "--filter",
            "fig2",
            "--results-dir",
            dir_arg,
        ],
        &by_id,
    );
    assert_eq!(
        filtered.status.code(),
        Some(0),
        "{}",
        text(&filtered.stderr)
    );
    assert_eq!(
        one.stdout, filtered.stdout,
        "exp <id> prints the run document"
    );
    assert!(text(&one.stdout).contains("================ Figure 2 ================"));
    assert!(
        text(&one.stderr).contains("store stats: "),
        "the footer goes to stderr"
    );
    for dir in [&by_id, &by_filter] {
        assert!(
            dir.join("fig2.csv").exists(),
            "{} lacks fig2.csv",
            dir.display()
        );
        assert!(
            !dir.join("manifest.json").exists(),
            "a filtered run writes no manifest"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn bad_usage_exits_2() {
    let results = tmp_dir("usage");
    for args in [
        &["no-such-experiment"][..],
        &["run", "--filter", "no-such-tag"],
        &["run", "--frob", "1"],
        &["run", "--results-dir"],
        &["verify", "--frob", "1"],
    ] {
        assert_eq!(exp(args, &results).status.code(), Some(2), "{args:?}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["run", "--filter", "xover"])
        .env("REPRO_RESULTS_DIR", &results)
        .env("REPRO_INSTRUCTIONS", "12x")
        .output()
        .expect("exp runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("REPRO_INSTRUCTIONS=\"12x\""));
    assert!(!results.exists(), "a rejected run writes nothing");
}

#[test]
fn verify_reports_a_match_drift_or_an_unreadable_manifest() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed_arg = committed.to_str().expect("UTF-8 path");
    let ok = exp(
        &["verify", "--results-dir", committed_arg],
        &tmp_dir("verify"),
    );
    assert_eq!(ok.status.code(), Some(0), "{}", text(&ok.stderr));
    assert!(text(&ok.stdout).contains("artifacts verified against"));

    // Every committed artifact is missing from an empty directory.
    let empty = tmp_dir("verify-empty");
    std::fs::create_dir_all(&empty).unwrap();
    let manifest = committed.join("manifest.json");
    let drift = exp(
        &[
            "verify",
            "--results-dir",
            empty.to_str().expect("UTF-8 temp path"),
            "--manifest",
            manifest.to_str().expect("UTF-8 path"),
        ],
        &empty,
    );
    assert_eq!(drift.status.code(), Some(3));
    assert!(text(&drift.stderr).contains("drift: fig2.csv: missing"));

    let unreadable = exp(&["verify", "--results-dir", "/no/such/dir"], &empty);
    assert_eq!(unreadable.status.code(), Some(2));
    assert!(text(&unreadable.stderr).contains("reading"));
    let _ = std::fs::remove_dir_all(&empty);
}
