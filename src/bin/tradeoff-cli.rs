//! The `tradeoff` command-line tool: price features, locate crossovers,
//! pick line sizes, simulate proxies and search memory-system designs.
//!
//! See `tradeoff-cli help` for usage. Exit codes: `0` success, `1` one
//! or more experiments failed (a `--keep-going` run still prints the
//! partial suite document first), `2` bad usage (including a malformed
//! setting that `bench::common::check_settings` validates), `3`
//! manifest drift or artifact write failure.

fn main() {
    if let Err(e) = bench::common::check_settings() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match unified_tradeoff::cli::run_cli(&args) {
        Ok(report) => println!("{report}"),
        Err(err) => {
            if let Some(partial) = err.partial_output() {
                println!("{partial}");
            }
            eprintln!("{}", err.message());
            std::process::exit(err.exit_code());
        }
    }
}
