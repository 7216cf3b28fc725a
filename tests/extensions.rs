//! Cross-crate integration tests for the extension features: L2,
//! prefetching and multi-issue, composed together.

use unified_tradeoff::prelude::*;
use unified_tradeoff::simcpu::{validation_error, L2Config, Prefetch};

const N: usize = 40_000;

fn run(l2: bool, prefetch: Prefetch, width: u32, program: &WorkloadSpec) -> SimResult {
    let mut cfg = CpuConfig::baseline(
        CacheConfig::new(8 * 1024, 32, 2).expect("valid L1"),
        MemoryTiming::new(BusWidth::new(4).expect("valid bus"), 8),
    )
    .with_prefetch(prefetch)
    .with_issue_width(width);
    if l2 {
        cfg = cfg.with_l2(L2Config::new(
            CacheConfig::new(128 * 1024, 32, 4).expect("valid L2"),
            2,
        ));
    }
    Cpu::new(cfg).run(program.compile(0xE7E7).take(N))
}

#[test]
fn every_extension_combination_keeps_the_model_identity() {
    for l2 in [false, true] {
        for prefetch in [Prefetch::None, Prefetch::NextLine] {
            for width in [1u32, 2, 4] {
                let r = run(l2, prefetch, width, builtin("wave5").unwrap());
                assert!(
                    validation_error(&r) < 1e-9,
                    "l2={l2} pf={prefetch:?} w={width}: error {}",
                    validation_error(&r)
                );
            }
        }
    }
}

#[test]
fn extensions_compose_monotonically_on_average() {
    // Adding the L2 must help every proxy; the full stack must beat the
    // baseline on every proxy.
    for p in builtins() {
        let baseline = run(false, Prefetch::None, 1, p);
        let with_l2 = run(true, Prefetch::None, 1, p);
        let full = run(true, Prefetch::NextLine, 4, p);
        assert!(with_l2.cycles <= baseline.cycles, "{}: L2 hurt", p.label());
        assert!(
            full.cycles < baseline.cycles,
            "{}: full stack hurt",
            p.label()
        );
    }
}

#[test]
fn l2_filters_memory_traffic() {
    let r = run(true, Prefetch::None, 1, builtin("doduc").unwrap());
    let l2 = r.l2.expect("l2 stats present");
    // Every L1 fill probes the L2; a decent fraction must hit there.
    assert_eq!(l2.accesses(), r.dcache.fills + r.dcache.writebacks);
    assert!(
        l2.hit_ratio() > 0.3,
        "L2 local hit ratio {}",
        l2.hit_ratio()
    );
}

#[test]
fn issue_width_speedup_is_bounded_by_width_and_memory() {
    let p = builtin("ear").unwrap();
    let w1 = run(false, Prefetch::None, 1, p);
    let w4 = run(false, Prefetch::None, 4, p);
    let speedup = w1.cycles as f64 / w4.cycles as f64;
    assert!(speedup > 1.0, "wider issue must help");
    assert!(
        speedup < 4.0,
        "cannot exceed the width (memory stalls persist)"
    );
    // The miss stalls are width-invariant up to interleaving noise.
    let ratio = w4.miss_stall_cycles as f64 / w1.miss_stall_cycles as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "miss stalls should be stable: {ratio}"
    );
}

#[test]
fn multiissue_model_reduces_to_paper_at_width_one() {
    use unified_tradeoff::tradeoff::{equiv, multiissue};
    let machine = Machine::new(4.0, 32.0, 8.0).expect("valid");
    let base = SystemConfig::full_stalling(0.5);
    let hr = HitRatio::new(0.93).expect("valid");
    for enh in [
        base.with_bus_factor(2.0),
        base.with_write_buffers(),
        base.with_pipelined_memory(2.0),
    ] {
        let paper = equiv::traded_hit_ratio(&machine, &base, &enh, hr).expect("physical");
        let wide = multiissue::traded_hit_ratio_w(&machine, &base, &enh, hr, 1).expect("physical");
        assert!((paper - wide).abs() < 1e-12);
    }
}
