//! The suite runners reject a malformed `REPRO_STREAM_CHUNK` or
//! `REPRO_TRACE_BUDGET` at startup as bad usage (exit 2), naming the
//! variable, before running or writing anything.

use std::process::Command;

#[test]
fn malformed_settings_are_usage_errors() {
    let results = std::env::temp_dir().join(format!("settings-{}", std::process::id()));
    for (var, value) in [
        ("REPRO_STREAM_CHUNK", "64k"),
        ("REPRO_STREAM_CHUNK", "0"),
        ("REPRO_TRACE_BUDGET", "8MB"),
    ] {
        for (bin, args) in [
            (env!("CARGO_BIN_EXE_exp"), &["list"][..]),
            (env!("CARGO_BIN_EXE_run_all"), &[][..]),
        ] {
            let out = Command::new(bin)
                .args(args)
                .env(var, value)
                .env("REPRO_RESULTS_DIR", &results)
                .output()
                .expect("binary runs");
            assert_eq!(out.status.code(), Some(2), "{bin} {var}={value}");
            let named = format!("{var}={value:?}");
            assert!(
                String::from_utf8_lossy(&out.stderr).contains(&named),
                "{bin}: stderr must name {named}"
            );
        }
    }
    assert!(!results.exists(), "a rejected run writes nothing");
}
