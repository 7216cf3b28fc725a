//! Generates a SPEC92-proxy trace file for external replay.
//!
//! Usage: `tracegen <program> <instructions> <output.utt> [seed]`
//!
//! `<program>` names a built-in workload spec. Exit codes: `0` success,
//! `1` the output could not be written, `2` bad usage (including an
//! unknown program or a malformed instruction count or seed).

use simtrace::encode::TraceBuffer;
use simtrace::workload;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 4 {
        let names: Vec<String> = workload::builtins().iter().map(|s| s.label()).collect();
        usage_error(&format!(
            "usage: tracegen <program> <instructions> <output.utt> [seed]\nprograms: {}",
            names.join(", ")
        ));
    }
    let Some(spec) = workload::builtin(&args[1]) else {
        usage_error(&format!("unknown program {:?}", args[1]));
    };
    let n: usize = args[2]
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("bad instruction count {:?}", args[2])));
    let seed: u64 = match args.get(4) {
        None => 1,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("bad seed {s:?}"))),
    };

    let buf = TraceBuffer::encode(spec.compile(seed).take(n));
    if let Err(e) = buf.save(&args[3]) {
        eprintln!("cannot write {}: {e}", args[3]);
        std::process::exit(1);
    }
    println!(
        "{}: {} instructions, {} bytes ({:.2} B/instr) -> {}",
        args[1],
        buf.len(),
        buf.byte_len(),
        buf.byte_len() as f64 / buf.len() as f64,
        args[3]
    );
}
