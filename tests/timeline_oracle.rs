//! The miss-event timeline engine against its oracle: for *arbitrary*
//! traces and every supported timing configuration, `TimelineCpu` must
//! reproduce `Cpu::run` **bit-identically** — the whole `SimResult`
//! (cycles, φ, α, every stall counter, the miss-distance histogram, the
//! write-buffer statistics), not just summary ratios. This is the
//! `mattson_oracle.rs` counterpart for the timing half of the harness.

use proptest::prelude::*;
use simtrace::workload::WorkloadSpec;
use unified_tradeoff::prelude::*;
use unified_tradeoff::simmem::BypassMode;

mod common;

fn traces() -> impl Strategy<Value = Vec<Instr>> {
    // Mixed loads/stores/plains over a bounded region, word-aligned;
    // small enough that eviction and re-miss patterns are dense.
    proptest::collection::vec((0u8..3, 0u64..16 * 1024), 1..400).prop_map(|ops| {
        ops.into_iter()
            .enumerate()
            .map(|(i, (kind, addr))| {
                let pc = (i as u64) * 4;
                match kind {
                    0 => Instr::plain(pc),
                    1 => Instr::mem(pc, MemRef::load(addr & !3, 4)),
                    _ => Instr::mem(pc, MemRef::store(addr & !3, 4)),
                }
            })
            .collect()
    })
}

fn stalls() -> impl Strategy<Value = StallFeature> {
    prop_oneof![
        Just(StallFeature::FullStall),
        Just(StallFeature::BusLocked),
        Just(StallFeature::BusNotLocked1),
        Just(StallFeature::BusNotLocked2),
        Just(StallFeature::BusNotLocked3),
        (1u32..=MissTimeline::MAX_MSHRS).prop_map(|m| StallFeature::NonBlocking { mshrs: m }),
    ]
}

/// Every configuration the timeline claims to replay exactly: any stall
/// feature, β_m, bus width, line size, memory pipelining, asymmetric
/// write timing and write-buffer setting over a write-back
/// write-allocate data cache.
fn supported_configs() -> impl Strategy<Value = CpuConfig> {
    (
        stalls(),
        prop_oneof![Just(4u64), Just(8)],             // bus
        prop_oneof![Just(16u64), Just(32), Just(64)], // line
        2u64..30,                                     // beta
        0u64..4,                                      // pipelining quantum (0 = off)
        any::<bool>(),                                // writes at 2×β
        0usize..5,                                    // write-buffer capacity (0 = none)
        any::<bool>(),                                // chunk-granular bypass
    )
        .prop_map(
            |(stall, bus, line, beta, q, slow_writes, capacity, chunky)| {
                let line = line.max(bus);
                let mut timing = MemoryTiming::new(BusWidth::new(bus).expect("valid"), beta);
                if q > 0 {
                    timing = timing.pipelined(q.min(beta));
                }
                if slow_writes {
                    timing = timing.with_write_beta(2 * beta);
                }
                let mut cfg = CpuConfig::baseline(
                    CacheConfig::new(2 * 1024, line, 2).expect("valid"),
                    timing,
                )
                .with_stall(stall);
                if capacity > 0 {
                    let mode = if chunky {
                        BypassMode::ChunkGranular
                    } else {
                        BypassMode::Ideal
                    };
                    cfg = cfg.with_write_buffer(WriteBufferConfig { capacity, mode });
                }
                cfg
            },
        )
}

fn replay(trace: &[Instr], cfg: CpuConfig) -> SimResult {
    let timeline = MissTimeline::extract(cfg.dcache, trace.iter().copied());
    assert!(
        TimelineCpu::new(&timeline, cfg).is_ok(),
        "strategy must generate supported configs"
    );
    timeline.replay(&cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline guarantee: replayed results equal full simulation,
    /// field for field.
    #[test]
    fn timeline_replay_is_bit_identical(trace in traces(), cfg in supported_configs()) {
        let oracle = Cpu::new(cfg).run(trace.iter().copied());
        prop_assert_eq!(replay(&trace, cfg), oracle);
    }

    /// One timeline serves every timing point: replaying the *same*
    /// extraction under two configurations matches two fresh oracles.
    #[test]
    fn one_extraction_many_replays(
        trace in traces(),
        cfg_a in supported_configs(),
        cfg_b in supported_configs(),
    ) {
        // Force a shared cache geometry so one timeline covers both.
        let mut cfg_b = cfg_b;
        cfg_b.dcache = cfg_a.dcache;
        let timeline = MissTimeline::extract(cfg_a.dcache, trace.iter().copied());
        for cfg in [cfg_a, cfg_b] {
            let oracle = Cpu::new(cfg).run(trace.iter().copied());
            prop_assert_eq!(timeline.replay(&cfg), oracle);
        }
    }

    /// φ and α derived from the replay match the oracle's — the two
    /// quantities every figure of the paper consumes.
    #[test]
    fn phi_and_alpha_match(trace in traces(), cfg in supported_configs()) {
        let fast = replay(&trace, cfg);
        let oracle = Cpu::new(cfg).run(trace.iter().copied());
        prop_assert_eq!(fast.phi(), oracle.phi());
        prop_assert_eq!(fast.alpha(), oracle.alpha());
        prop_assert_eq!(fast.cycles, oracle.cycles);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole workloads, not just hand-shaped traces: a random spec
    /// compiled at a random seed (up to 20 k instructions) is extracted
    /// once, and its replay under every stall feature equals a fresh
    /// `Cpu::run` of the same stream.
    #[test]
    fn random_specs_replay_under_every_stall_feature(
        json in common::spec_json(),
        seed in any::<u64>(),
        len in 1usize..20_001,
        cfg in supported_configs(),
        mshrs in 1u32..=MissTimeline::MAX_MSHRS,
    ) {
        let spec = WorkloadSpec::from_json(&json).expect("generated specs are valid");
        let trace: Vec<Instr> = spec.compile(seed).take(len).collect();
        let timeline = MissTimeline::extract(cfg.dcache, trace.iter().copied());
        for stall in [
            StallFeature::FullStall,
            StallFeature::BusLocked,
            StallFeature::BusNotLocked1,
            StallFeature::BusNotLocked2,
            StallFeature::BusNotLocked3,
            StallFeature::NonBlocking { mshrs },
        ] {
            let cfg = cfg.with_stall(stall);
            let oracle = Cpu::new(cfg).run(trace.iter().copied());
            prop_assert_eq!(timeline.replay(&cfg), oracle, "{} spec={}", stall, json.render());
        }
    }
}

#[test]
fn unsupported_configs_fall_back_to_the_oracle_path() {
    // The one guarantee the engine makes about configurations it cannot
    // replay: it refuses them, so callers keep using `Cpu::run`, which
    // answers them.
    let cache = CacheConfig::new(2 * 1024, 32, 2).unwrap();
    let trace: Vec<Instr> = (0..2_000u64)
        .map(|i| Instr::mem(i * 4, MemRef::load(((i * 97) % (16 * 1024)) & !3, 4)))
        .collect();
    let timeline = MissTimeline::extract(cache, trace.iter().copied());
    let base = CpuConfig::baseline(cache, MemoryTiming::new(BusWidth::new(4).unwrap(), 8));
    let nb = |mshrs| base.with_stall(StallFeature::NonBlocking { mshrs });
    // A timeline keeps the echoes on the last `MAX_MSHRS` fills' lines.
    assert!(TimelineCpu::new(&timeline, nb(MissTimeline::MAX_MSHRS)).is_ok());
    for cfg in [
        base.with_icache(CacheConfig::new(1024, 32, 1).unwrap()),
        nb(MissTimeline::MAX_MSHRS + 1),
    ] {
        assert!(TimelineCpu::new(&timeline, cfg).is_err());
        assert_eq!(Cpu::new(cfg).run(trace.iter().copied()).instructions, 2_000);
    }
}

#[test]
fn a_hit_on_any_outstanding_fill_replays_exactly() {
    // Each round misses on `MAX_MSHRS` new lines back to back, hits a
    // resident line (the first echo, which never stalls under NB), then
    // hits the line of the fill `depth` back while it is still in
    // flight, and idles until the memory port drains. That hit's stall
    // is the round's last, so dropping its echo would change the
    // result for every NB with at least `depth` MSHRs.
    let k = u64::from(MissTimeline::MAX_MSHRS);
    let pc = |t: &Vec<Instr>| t.len() as u64 * 4;
    let mut trace = vec![Instr::mem(0, MemRef::load(0, 4))];
    for round in 1..=32u64 {
        let base = round * 8192;
        for line in 1..=k {
            trace.push(Instr::mem(pc(&trace), MemRef::load(base + line * 32, 4)));
        }
        trace.push(Instr::mem(pc(&trace), MemRef::load(4, 4)));
        let depth = 1 + round % k;
        let line = k + 1 - depth;
        trace.push(Instr::mem(
            pc(&trace),
            MemRef::load(base + line * 32 + 4, 4),
        ));
        for _ in 0..2_000 {
            trace.push(Instr::plain(pc(&trace)));
        }
    }
    let cache = CacheConfig::new(16 * 1024, 32, 2).unwrap();
    let timeline = MissTimeline::extract(cache, trace.iter().copied());
    for beta in [4u64, 30] {
        let timing = MemoryTiming::new(BusWidth::new(4).unwrap(), beta);
        for mshrs in 1..=MissTimeline::MAX_MSHRS {
            let cfg =
                CpuConfig::baseline(cache, timing).with_stall(StallFeature::NonBlocking { mshrs });
            let oracle = Cpu::new(cfg).run(trace.iter().copied());
            assert_eq!(timeline.replay(&cfg), oracle, "NB({mshrs}) β={beta}");
        }
    }
}
