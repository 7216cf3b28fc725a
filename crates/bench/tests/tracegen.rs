//! `tracegen`'s argument contract: every malformed argument is bad
//! usage (exit 2) and writes nothing, never a silently substituted
//! default.

use std::path::PathBuf;
use std::process::Command;

fn tracegen(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tracegen"))
        .args(args)
        .output()
        .expect("tracegen runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tracegen-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn malformed_arguments_are_usage_errors() {
    let out = temp_path("bad.utt");
    let path = out.to_str().expect("utf-8 temp path");
    for (args, needle) in [
        (vec!["ear", "100", path, "1x"], "bad seed"),
        (vec!["ear", "10k", path], "bad instruction count"),
        (vec!["gcc", "100", path], "unknown program"),
        (
            vec!["ear", "100"],
            "programs: nasa7, swm256, wave5, ear, doduc, hydro2d",
        ),
    ] {
        let (code, stderr) = tracegen(&args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!out.exists(), "{args:?} wrote a trace");
    }
}

#[test]
fn a_well_formed_seed_writes_the_trace() {
    let out = temp_path("ok.utt");
    let (code, stderr) = tracegen(&["ear", "100", out.to_str().unwrap(), "7"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(out.exists());
    std::fs::remove_file(out).unwrap();
}
