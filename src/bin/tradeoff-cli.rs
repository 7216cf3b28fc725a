//! The `tradeoff` command-line tool: price features, locate crossovers,
//! pick line sizes, simulate proxies and search memory-system designs.
//! It answers queries only; the paper experiments run through the
//! `bench` crate's `exp` binary.
//!
//! See `tradeoff-cli help` for usage. Exit codes: `0` success, `1` the
//! query could not be answered (a backend failure, an unreachable
//! server), `2` bad usage (including a malformed setting that
//! `bench::common::check_settings` validates).

fn main() {
    if let Err(e) = bench::common::check_settings() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match unified_tradeoff::cli::run_cli(&args) {
        Ok(report) => println!("{report}"),
        Err(err) => {
            eprintln!("{}", err.message());
            std::process::exit(err.exit_code());
        }
    }
}
