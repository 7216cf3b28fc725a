//! Registry completeness: every bench experiment module is registered
//! exactly once, ids are unique, and the suite document preserves the
//! historical `run_all` section order byte for byte.

use bench::registry::{self, RunCtx};
use bench::sched::{run_suite, SuiteOptions};
use std::collections::HashSet;

/// The section order and titles of the seed `run_all` binary, with
/// each entry's filter tags and shared trace-store keys, as
/// `id|title|tags|traces` (lists comma-joined). The registry must keep
/// printing the suite exactly like this, and the listings (`exp list`,
/// the `experiments` query) must keep these fields.
const SEED_ORDER: [&str; 28] = [
    "table23|Tables 2 and 3|paper,table,analytic|",
    "fig1|Figure 1|paper,figure,measured|spec@l32",
    "fig2|Figure 2|paper,figure,analytic|",
    "fig3|Figure 3|paper,figure,measured|spec@l8",
    "fig4|Figure 4|paper,figure,measured|spec@l32",
    "fig5|Figure 5|paper,figure,measured|spec@l32",
    "fig6|Figure 6|paper,figure,analytic,validation|",
    "example1|Example 1|paper,analytic|",
    "xover|Crossover points|paper,analytic|",
    "linesize|Line-size analysis|paper,measured,analytic|",
    "validate|Model validation|paper,measured,validation|spec@l32",
    "mi|Multi-issue extension|extension,measured|",
    "prefetch|Prefetch pricing|extension,measured|",
    "writemiss|Write-miss policy ablation|extension,measured|",
    "alpha|Flush-ratio ablation|paper,analytic|",
    "l2|L2 extension|extension,measured|",
    "cost|Pins vs silicon|paper,analytic|",
    "missdist|Miss-distance profiles|extension,measured|",
    "phases|Per-phase profiles|extension,measured|",
    "sector|Sector caches|extension,measured|",
    "victim|Victim buffers|extension,measured|",
    "assoc|Associativity & replacement|extension,measured|",
    "context|Multiprogramming|extension,measured|",
    "assumptions|Assumption audit|extension,measured,validation|",
    "nb|Non-blocking cache|extension,measured|spec@l32",
    "reuse|Reuse-distance fingerprints|extension,measured|",
    "sweep|Design-space sweep|extension,measured,engine|",
    "grid|Analytic miss-ratio grid|extension,measured,engine,analytic|",
];

#[test]
fn registry_matches_seed_order_and_titles() {
    let all = registry::all();
    assert_eq!(all.len(), SEED_ORDER.len());
    for (e, seed) in all.iter().zip(SEED_ORDER) {
        let record = [e.id, e.title, &e.tags.join(","), &e.traces.join(",")].join("|");
        assert_eq!(record, seed);
    }
}

#[test]
fn ids_are_unique() {
    let mut seen = HashSet::new();
    for e in registry::all() {
        assert!(seen.insert(e.id), "duplicate id {}", e.id);
    }
}

#[test]
fn every_experiment_module_is_registered_exactly_once() {
    // Infrastructure modules carry no experiment; everything else in the
    // bench crate must appear in the registry.
    let infra = [
        "common",
        "error",
        "fault",
        "queryenv",
        "tracestore",
        "registry",
        "sched",
        "stream",
    ];
    let lib = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/lib.rs"),
    )
    .expect("bench lib.rs readable");
    let declared: Vec<&str> = lib
        .lines()
        .filter_map(|l| l.strip_prefix("pub mod "))
        .map(|m| m.trim_end_matches(';'))
        .filter(|m| !infra.contains(m))
        .collect();
    assert!(
        declared.len() >= 24,
        "unexpected module count: {declared:?}"
    );

    let registered: Vec<String> = registry::all()
        .iter()
        .map(|e| {
            e.module
                .strip_prefix("bench::")
                .expect("module path rooted in bench")
                .to_string()
        })
        .collect();
    for m in &declared {
        let count = registered.iter().filter(|r| r == m).count();
        // `unified` registers one entry per figure; every other module
        // maps to exactly one experiment.
        let expected = if *m == "unified" { 3 } else { 1 };
        assert_eq!(count, expected, "module {m} registered {count} times");
    }
    assert_eq!(registered.len(), registry::all().len());
}

#[test]
fn serial_and_parallel_suite_documents_are_identical() {
    // A reduced instruction budget keeps this affordable while still
    // exercising the warm-key scheduling across real experiments; the
    // shared-trace subset covers every declared store key.
    let selection: Vec<_> = registry::all()
        .iter()
        .filter(|e| !e.traces.is_empty())
        .collect();
    assert!(
        selection.len() >= 6,
        "fig1/3/4/5, validate, nb, linesize, sweep"
    );
    let ctx = RunCtx::with_instructions(2_000);
    let serial = run_suite(&selection, &SuiteOptions::new(1, ctx.clone()));
    let parallel = run_suite(&selection, &SuiteOptions::new(4, ctx));
    assert_eq!(serial.document(), parallel.document());
    let footer = parallel.footer();
    for e in &selection {
        assert!(footer.contains(e.id), "footer missing {}", e.id);
    }
}
