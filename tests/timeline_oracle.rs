//! The miss-event timeline engine against its oracle: for *arbitrary*
//! traces and every supported timing configuration, `TimelineCpu` must
//! reproduce `Cpu::run` **bit-identically** — the whole `SimResult`
//! (cycles, φ, α, every stall counter, the miss-distance histogram, the
//! write-buffer statistics), not just summary ratios. This is the
//! `mattson_oracle.rs` counterpart for the timing half of the harness.

use proptest::prelude::*;
use unified_tradeoff::prelude::*;
use unified_tradeoff::simmem::BypassMode;

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
        (1u32..5).prop_map(|m| StallFeature::NonBlocking { mshrs: m }),
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

    /// Windowed replay: snapshots at arbitrary reference counts equal
    /// `Cpu::snapshot` at the same boundaries — the warm-up-then-measure
    /// pattern every phase/window experiment relies on.
    #[test]
    fn marks_match_cpu_snapshots(
        trace in traces(),
        cfg in supported_configs(),
        cuts in proptest::collection::vec(1u64..400, 1..4),
    ) {
        let refs = trace.iter().filter(|i| i.mem.is_some()).count() as u64;
        let mut marks: Vec<u64> = cuts.into_iter().filter(|&c| c <= refs).collect();
        marks.sort_unstable();
        marks.dedup();
        if marks.is_empty() {
            return Ok(()); // trace too short for any cut this case
        }

        let timeline = MissTimeline::extract(cfg.dcache, trace.iter().copied());
        let (snaps, fin) = TimelineCpu::new(&timeline, cfg)
            .expect("supported")
            .run_with_marks(&marks);

        let mut cpu = Cpu::new(cfg);
        let mut seen = 0u64;
        let mut next = marks.iter().copied().peekable();
        let mut oracle = Vec::new();
        for instr in &trace {
            cpu.step(instr);
            if instr.mem.is_some() {
                seen += 1;
                if next.peek() == Some(&seen) {
                    next.next();
                    oracle.push(cpu.snapshot());
                }
            }
        }
        prop_assert_eq!(snaps, oracle);
        prop_assert_eq!(fin, cpu.finish());
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

#[test]
fn unsupported_configs_fall_back_to_the_oracle_path() {
    // The one guarantee the engine makes about configurations it cannot
    // replay: it refuses them, so callers keep using `Cpu::run`.
    let cache = CacheConfig::new(2 * 1024, 32, 2).unwrap();
    let timeline = MissTimeline::extract(cache, std::iter::empty());
    let cfg = CpuConfig::baseline(cache, MemoryTiming::new(BusWidth::new(4).unwrap(), 8))
        .with_icache(CacheConfig::new(1024, 32, 1).unwrap());
    assert!(TimelineCpu::new(&timeline, cfg).is_err());
}
