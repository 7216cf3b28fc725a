//! Declarative workload specs: first-class workload identity.
//!
//! A [`WorkloadSpec`] is a declarative, composable generator tree over
//! the primitives in [`crate::gen`], [`crate::mix`] and
//! [`crate::phases`], parsed from and rendered to JSON via the
//! dependency-free `report::Json` codec (the workspace vendors no TOML
//! parser, so JSON is the one spec syntax; the schema is documented in
//! `DESIGN.md` §15). A spec:
//!
//! * **validates** fallibly, once ([`WorkloadSpec::from_json`] reads
//!   the JSON's shape and types, then calls [`WorkloadSpec::validate`],
//!   whose checks mirror every constructor panic in [`crate::gen`], so a
//!   parsed spec never panics when compiled),
//! * **compiles** ([`WorkloadSpec::compile`]) to the same
//!   [`PatternTrace`] streaming path every generator uses, over a tree
//!   lowered into one enum ([`CompiledPattern`]) that draws exactly as
//!   the boxed [`crate::mix`] and [`crate::phases`] combinators would —
//!   and through [`WorkloadSpec::chunks`] to the chunked pipeline,
//!   bit-identical for any chunk size,
//! * **canonicalises** ([`WorkloadSpec::canonical_json`]) to a stable
//!   rendering whose SHA-256 is the spec's content hash
//!   ([`WorkloadSpec::id`]) — the identity the `bench` trace store keys
//!   traces, timelines and histograms on.
//!
//! The six SPEC92 proxies the paper averages over are the built-in
//! named specs ([`builtins`], [`builtin`]). Each one is defined only by
//! its committed spec file, `workloads/<name>.json`, compiled into the
//! crate and parsed once per process. `tests/workloads.rs` pins their
//! content hashes and their streams, bit-identical to the hand-written
//! constructors the proxies were first defined with.
//!
//! # Example
//!
//! ```
//! use simtrace::workload::WorkloadSpec;
//!
//! let spec = WorkloadSpec::from_json_str(
//!     r#"{"pattern":{"kind":"working_set","base":0,"bytes":4096,
//!         "store_fraction":0.3,"elem_size":4}}"#,
//! )
//! .unwrap();
//! assert_eq!(spec.compile(7).take(100).count(), 100);
//! // Same spec text, same identity — the content hash is stable.
//! assert_eq!(spec.id(), WorkloadSpec::from_json(&spec.canonical_json()).unwrap().id());
//! ```

use crate::chunk::ChunkedTrace;
use crate::gen::{
    AccessPattern, HotCold, LoopNest, PatternTrace, PointerChase, StridedSweep, TraceShape,
    WorkingSet, ZipfWorkingSet,
};
use crate::instr::MemRef;
use rand::rngs::SmallRng;
use rand::Rng;
use report::{sha256_hex, Fields, Json};
use std::fmt;
use std::sync::OnceLock;

/// A compiled workload: the instruction stream every spec lowers to.
pub type CompiledTrace = PatternTrace<CompiledPattern>;

/// A spec's pattern tree lowered for generation (see
/// [`WorkloadSpec::compile`]).
///
/// One enum holds the whole tree: a reference costs a `match` per tree
/// level instead of a boxed call, and each leaf is the [`crate::gen`]
/// generator with its per-reference constants computed at compile
/// time. Mixtures and phases draw exactly as [`crate::mix`]'s and
/// [`crate::phases`]' boxed combinators do, which `tests/workloads.rs`
/// checks on random specs.
#[derive(Debug, Clone)]
pub struct CompiledPattern(Lowered);

#[derive(Debug, Clone)]
enum Lowered {
    Strided(StridedSweep),
    Chase(PointerChase),
    WorkingSet(WorkingSet),
    Zipf(ZipfWorkingSet),
    HotCold(HotCold),
    LoopNest(LoopNest),
    Mixture {
        components: Vec<(f64, Lowered)>,
        total_weight: f64,
    },
    Phases {
        /// Each phase's reference budget and pattern.
        phases: Vec<(u64, Lowered)>,
        current: usize,
        spent: u64,
    },
}

impl Lowered {
    /// Inlined into the generator's loop, so a leaf's draw keeps the RNG
    /// state in registers (leaf-only specs generate about twice as fast
    /// as through a call); combinators still recurse through a call.
    #[inline]
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        match self {
            Lowered::Strided(p) => p.next_ref(rng),
            Lowered::Chase(p) => p.next_ref(rng),
            Lowered::WorkingSet(p) => p.next_ref(rng),
            Lowered::Zipf(p) => p.next_ref(rng),
            Lowered::HotCold(p) => p.next_ref(rng),
            Lowered::LoopNest(p) => p.next_ref(rng),
            Lowered::Mixture {
                components,
                total_weight,
            } => {
                let mut pick = rng.gen_range(0.0..*total_weight);
                let last = components.len() - 1;
                for (w, p) in &mut components[..last] {
                    if pick < *w {
                        return p.next_ref(rng);
                    }
                    pick -= *w;
                }
                // The last component also takes the floating-point edge
                // where the pick outlives every weight.
                components[last].1.next_ref(rng)
            }
            Lowered::Phases {
                phases,
                current,
                spent,
            } => {
                if *spent >= phases[*current].0 {
                    *spent = 0;
                    *current = (*current + 1) % phases.len();
                }
                *spent += 1;
                phases[*current].1.next_ref(rng)
            }
        }
    }
}

impl AccessPattern for CompiledPattern {
    #[inline]
    fn next_ref(&mut self, rng: &mut SmallRng) -> MemRef {
        self.0.next_ref(rng)
    }
}

/// Largest table a spec may ask a generator to materialise (Zipf CDF
/// slots, pointer-chase nodes): inline specs arrive over the query API,
/// so construction cost must stay bounded.
pub const MAX_TABLE_SLOTS: u32 = 1 << 24;

/// Largest integer the JSON codec represents exactly; plain numeric
/// spec fields must stay below it so parse → render round-trips are
/// lossless (64-bit seeds use hex strings instead).
const MAX_EXACT: u64 = 1 << 53;

/// Stable content identity of a workload spec: the SHA-256 of its
/// canonical JSON rendering.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkloadId([u8; 32]);

impl WorkloadId {
    /// The full 64-hex-character digest.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// A 12-character prefix — the human-facing short form used in
    /// labels and resident-trace listings.
    pub fn short(&self) -> String {
        self.hex()[..12].to_string()
    }

    fn from_hex(hex: &str) -> WorkloadId {
        debug_assert_eq!(hex.len(), 64, "sha256 digests are 64 hex chars");
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("sha256_hex emits hex");
        }
        WorkloadId(bytes)
    }
}

impl fmt::Debug for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WorkloadId({})", self.short())
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Parameters of one strided sweep, as declared in a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct StridedParams {
    /// Base address of the swept region.
    pub base: u64,
    /// Region length in bytes (the sweep wraps).
    pub region_bytes: u64,
    /// Byte stride between consecutive elements.
    pub stride: u64,
    /// Operand size in bytes.
    pub elem_size: u8,
    /// Every `store_period`-th access is a store (0 = never).
    pub store_period: u32,
}

/// Parameters of one uniform working set, as declared in a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkingSetParams {
    /// Base address of the working set.
    pub base: u64,
    /// Working-set size in bytes.
    pub bytes: u64,
    /// Probability that a reference is a store.
    pub store_fraction: f64,
    /// Operand size in bytes.
    pub elem_size: u8,
}

/// One phase of a phase-structured workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase label.
    pub name: String,
    /// Data references this phase runs before yielding to the next.
    pub refs: u64,
    /// The pattern the phase plays.
    pub pattern: PatternNode,
}

/// One node of the declarative generator tree.
///
/// Leaves wrap the primitive generators in [`crate::gen`]; `Mixture`
/// and `Phases` are the composition forms from [`crate::mix`] and
/// [`crate::phases`], and nest arbitrarily.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternNode {
    /// A fixed-stride sweep ([`StridedSweep`]).
    Strided(StridedParams),
    /// A seeded random-cycle pointer chase ([`PointerChase`]). The
    /// node's `seed` is XORed with the compile seed, so the permutation
    /// is decorrelated per run but deterministic per (spec, seed).
    Chase {
        /// Base address of the node region.
        base: u64,
        /// Number of chased nodes.
        nodes: u32,
        /// Bytes per node.
        node_bytes: u64,
        /// Probability that a visit is a store.
        store_fraction: f64,
        /// Permutation seed, mixed with the compile seed.
        seed: u64,
    },
    /// A uniform working set ([`WorkingSet`]).
    WorkingSet(WorkingSetParams),
    /// Zipf-distributed references ([`ZipfWorkingSet`]).
    Zipf {
        /// Base address of the region.
        base: u64,
        /// Number of Zipf-ranked slots.
        slots: u32,
        /// Operand size in bytes.
        elem_size: u8,
        /// Zipf exponent (typical programs: 0.6–1.3).
        s: f64,
        /// Probability that a reference is a store.
        store_fraction: f64,
    },
    /// A two-level hot/cold working set ([`HotCold`]).
    HotCold {
        /// The frequently-referenced region.
        hot: WorkingSetParams,
        /// The rarely-referenced region.
        cold: WorkingSetParams,
        /// Probability a reference goes to the hot region.
        hot_fraction: f64,
    },
    /// A loop nest cycling through arrays ([`LoopNest`]).
    LoopNest {
        /// The swept arrays, visited round-robin.
        arrays: Vec<StridedParams>,
        /// References per array before moving on.
        burst: u32,
    },
    /// A weighted mixture of child patterns ([`crate::mix`]).
    Mixture(Vec<(f64, PatternNode)>),
    /// Deterministic phase alternation ([`crate::phases`]).
    Phases(Vec<PhaseSpec>),
}

/// A declarative workload: shape, seed decorrelator, and pattern tree.
///
/// Two specs with the same [`canonical_json`](WorkloadSpec::canonical_json)
/// are the same workload — `name` is a label and does not enter the
/// content hash, so a builtin and an anonymous copy of it share one
/// trace-store identity.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Optional human-facing name (builtins: the SPEC92 program name).
    pub name: Option<String>,
    /// XORed into every compile seed, decorrelating specs driven with
    /// the same experiment seed.
    pub seed_mix: u64,
    /// How the reference pattern is lifted into an instruction stream.
    pub shape: TraceShape,
    /// The generator tree.
    pub root: PatternNode,
}

// ---------------------------------------------------------------------
// JSON codec helpers (strict: unknown keys rejected, like the query API)
// ---------------------------------------------------------------------

/// 64-bit seeds exceed the codec's exact-integer range, so they are
/// accepted as plain integers *or* strings (`"0x…"` hex or decimal);
/// the canonical rendering is always the hex string.
fn seed_field(v: &Json, key: &str, what: &str) -> Result<u64, String> {
    if let Some(n) = v.as_u64() {
        return Ok(n);
    }
    let text = v
        .as_str()
        .ok_or_else(|| format!("{what}: {key:?} must be an integer or a seed string"))?;
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{what}: {key:?} is not a 64-bit seed: {text:?}"))
}

fn seed_json(seed: u64) -> Json {
    Json::str(format!("{seed:#x}"))
}

/// An exact integer field: `validate` keeps every one below
/// [`MAX_EXACT`], so the `f64` holds it losslessly.
fn int_json(n: impl Into<u64>) -> Json {
    Json::num(n.into() as f64)
}

fn fraction(x: f64, key: &str, what: &str) -> Result<f64, String> {
    if !(0.0..=1.0).contains(&x) {
        return Err(format!("{what}: {key:?} must be in [0, 1], got {x}"));
    }
    Ok(x)
}

impl StridedParams {
    fn from_json(v: &Json, what: &str) -> Result<StridedParams, String> {
        let f = Fields::new(
            v,
            what,
            &[
                "kind",
                "base",
                "region_bytes",
                "stride",
                "elem_size",
                "store_period",
            ],
        )?;
        Ok(StridedParams {
            base: f.need("base")?,
            region_bytes: f.need("region_bytes")?,
            stride: f.need("stride")?,
            elem_size: f.need("elem_size")?,
            store_period: f.need("store_period")?,
        })
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("base", int_json(self.base)),
            ("region_bytes", int_json(self.region_bytes)),
            ("stride", int_json(self.stride)),
            ("elem_size", int_json(self.elem_size)),
            ("store_period", int_json(self.store_period)),
        ]
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        if self.stride == 0 {
            return Err(format!("{what}: stride must be positive"));
        }
        if self.region_bytes == 0 {
            return Err(format!("{what}: region must be non-empty"));
        }
        if self.base >= MAX_EXACT || self.region_bytes >= MAX_EXACT || self.stride >= MAX_EXACT {
            return Err(format!("{what}: field exceeds the exact JSON range"));
        }
        Ok(())
    }

    fn build(&self) -> StridedSweep {
        StridedSweep::new(
            self.base,
            self.region_bytes,
            self.stride,
            self.elem_size,
            self.store_period,
        )
    }
}

impl WorkingSetParams {
    fn from_json(v: &Json, what: &str) -> Result<WorkingSetParams, String> {
        let f = Fields::new(
            v,
            what,
            &["kind", "base", "bytes", "store_fraction", "elem_size"],
        )?;
        Ok(WorkingSetParams {
            base: f.need("base")?,
            bytes: f.need("bytes")?,
            store_fraction: f.need("store_fraction")?,
            elem_size: f.need("elem_size")?,
        })
    }

    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("base", int_json(self.base)),
            ("bytes", int_json(self.bytes)),
            ("store_fraction", Json::num(self.store_fraction)),
            ("elem_size", int_json(self.elem_size)),
        ]
    }

    fn validate(&self, what: &str) -> Result<(), String> {
        if self.bytes == 0 {
            return Err(format!("{what}: working set must be non-empty"));
        }
        fraction(self.store_fraction, "store_fraction", what)?;
        if self.base >= MAX_EXACT || self.bytes >= MAX_EXACT {
            return Err(format!("{what}: field exceeds the exact JSON range"));
        }
        Ok(())
    }

    fn build(&self) -> WorkingSet {
        WorkingSet::new(self.base, self.bytes, self.store_fraction, self.elem_size)
    }
}

impl PatternNode {
    /// Reads one pattern node's shape and types; its values are checked
    /// once, by [`WorkloadSpec::validate`].
    fn from_json(v: &Json, what: &str) -> Result<PatternNode, String> {
        let node = |allowed: &[&str]| Fields::new(v, what, allowed);
        let list = |key: &str| -> Result<&[Json], String> { node(&["kind", key])?.need(key) };
        Ok(match Fields::kind(v, what, "kind")? {
            "strided" => PatternNode::Strided(StridedParams::from_json(v, what)?),
            "chase" => {
                let f = node(&[
                    "kind",
                    "base",
                    "nodes",
                    "node_bytes",
                    "store_fraction",
                    "seed",
                ])?;
                PatternNode::Chase {
                    base: f.need("base")?,
                    nodes: f.need("nodes")?,
                    node_bytes: f.need("node_bytes")?,
                    store_fraction: f.need("store_fraction")?,
                    seed: seed_field(f.need("seed")?, "seed", what)?,
                }
            }
            "working_set" => PatternNode::WorkingSet(WorkingSetParams::from_json(v, what)?),
            "zipf" => {
                let f = node(&["kind", "base", "slots", "elem_size", "s", "store_fraction"])?;
                PatternNode::Zipf {
                    base: f.need("base")?,
                    slots: f.need("slots")?,
                    elem_size: f.need("elem_size")?,
                    s: f.need("s")?,
                    store_fraction: f.need("store_fraction")?,
                }
            }
            "hot_cold" => {
                let f = node(&["kind", "hot", "cold", "hot_fraction"])?;
                PatternNode::HotCold {
                    hot: WorkingSetParams::from_json(f.need("hot")?, &format!("{what}.hot"))?,
                    cold: WorkingSetParams::from_json(f.need("cold")?, &format!("{what}.cold"))?,
                    hot_fraction: f.need("hot_fraction")?,
                }
            }
            "loop_nest" => {
                let f = node(&["kind", "arrays", "burst"])?;
                PatternNode::LoopNest {
                    arrays: f
                        .need::<&[Json]>("arrays")?
                        .iter()
                        .enumerate()
                        .map(|(i, a)| StridedParams::from_json(a, &format!("{what}.arrays[{i}]")))
                        .collect::<Result<_, _>>()?,
                    burst: f.need("burst")?,
                }
            }
            "mixture" => PatternNode::Mixture(
                list("components")?
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let at = format!("{what}.components[{i}]");
                        let c = Fields::new(c, &at, &["weight", "pattern"])?;
                        Ok((
                            c.need("weight")?,
                            PatternNode::from_json(c.need("pattern")?, &format!("{at}.pattern"))?,
                        ))
                    })
                    .collect::<Result<_, String>>()?,
            ),
            "phases" => PatternNode::Phases(
                list("phases")?
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let at = format!("{what}.phases[{i}]");
                        let p = Fields::new(p, &at, &["name", "refs", "pattern"])?;
                        Ok(PhaseSpec {
                            name: p.need::<&str>("name")?.to_string(),
                            refs: p.need("refs")?,
                            pattern: PatternNode::from_json(
                                p.need("pattern")?,
                                &format!("{at}.pattern"),
                            )?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            ),
            other => {
                return Err(format!(
                    "{what}: unknown pattern kind {other:?} (want strided, chase, working_set, \
                     zipf, hot_cold, loop_nest, mixture or phases)"
                ))
            }
        })
    }

    /// Renders the node in canonical key order.
    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = Vec::new();
        match self {
            PatternNode::Strided(p) => {
                fields.push(("kind", Json::str("strided")));
                fields.extend(p.fields());
            }
            PatternNode::Chase {
                base,
                nodes,
                node_bytes,
                store_fraction,
                seed,
            } => {
                fields.push(("kind", Json::str("chase")));
                fields.push(("base", int_json(*base)));
                fields.push(("nodes", int_json(*nodes)));
                fields.push(("node_bytes", int_json(*node_bytes)));
                fields.push(("store_fraction", Json::num(*store_fraction)));
                fields.push(("seed", seed_json(*seed)));
            }
            PatternNode::WorkingSet(p) => {
                fields.push(("kind", Json::str("working_set")));
                fields.extend(p.fields());
            }
            PatternNode::Zipf {
                base,
                slots,
                elem_size,
                s,
                store_fraction,
            } => {
                fields.push(("kind", Json::str("zipf")));
                fields.push(("base", int_json(*base)));
                fields.push(("slots", int_json(*slots)));
                fields.push(("elem_size", int_json(*elem_size)));
                fields.push(("s", Json::num(*s)));
                fields.push(("store_fraction", Json::num(*store_fraction)));
            }
            PatternNode::HotCold {
                hot,
                cold,
                hot_fraction,
            } => {
                fields.push(("kind", Json::str("hot_cold")));
                fields.push(("hot", Json::obj(hot.fields())));
                fields.push(("cold", Json::obj(cold.fields())));
                fields.push(("hot_fraction", Json::num(*hot_fraction)));
            }
            PatternNode::LoopNest { arrays, burst } => {
                fields.push(("kind", Json::str("loop_nest")));
                let arrays = arrays.iter().map(|a| Json::obj(a.fields())).collect();
                fields.push(("arrays", Json::Arr(arrays)));
                fields.push(("burst", int_json(*burst)));
            }
            PatternNode::Mixture(components) => {
                fields.push(("kind", Json::str("mixture")));
                let components = components
                    .iter()
                    .map(|(w, p)| {
                        Json::obj(vec![("weight", Json::num(*w)), ("pattern", p.to_json())])
                    })
                    .collect();
                fields.push(("components", Json::Arr(components)));
            }
            PatternNode::Phases(phases) => {
                fields.push(("kind", Json::str("phases")));
                let phases = phases
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::str(&p.name)),
                            ("refs", int_json(p.refs)),
                            ("pattern", p.pattern.to_json()),
                        ])
                    })
                    .collect();
                fields.push(("phases", Json::Arr(phases)));
            }
        }
        Json::obj(fields)
    }

    /// Validates the node tree: every check mirrors a constructor panic
    /// in [`crate::gen`], [`crate::mix`] or [`crate::phases`], so a
    /// valid tree always compiles.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self, what: &str) -> Result<(), String> {
        match self {
            PatternNode::Strided(p) => p.validate(what),
            PatternNode::Chase {
                nodes,
                node_bytes,
                store_fraction,
                base,
                ..
            } => {
                if *nodes == 0 {
                    return Err(format!("{what}: chase needs at least one node"));
                }
                if *nodes > MAX_TABLE_SLOTS {
                    return Err(format!("{what}: chase nodes exceed {MAX_TABLE_SLOTS}"));
                }
                fraction(*store_fraction, "store_fraction", what)?;
                if *base >= MAX_EXACT || *node_bytes >= MAX_EXACT {
                    return Err(format!("{what}: field exceeds the exact JSON range"));
                }
                Ok(())
            }
            PatternNode::WorkingSet(p) => p.validate(what),
            PatternNode::Zipf {
                slots,
                s,
                store_fraction,
                base,
                ..
            } => {
                if *slots == 0 {
                    return Err(format!("{what}: zipf needs at least one slot"));
                }
                if *slots > MAX_TABLE_SLOTS {
                    return Err(format!("{what}: zipf slots exceed {MAX_TABLE_SLOTS}"));
                }
                if !(s.is_finite() && *s > 0.0) {
                    return Err(format!("{what}: zipf exponent must be positive"));
                }
                fraction(*store_fraction, "store_fraction", what)?;
                if *base >= MAX_EXACT {
                    return Err(format!("{what}: field exceeds the exact JSON range"));
                }
                Ok(())
            }
            PatternNode::HotCold {
                hot,
                cold,
                hot_fraction,
            } => {
                hot.validate(&format!("{what}.hot"))?;
                cold.validate(&format!("{what}.cold"))?;
                fraction(*hot_fraction, "hot_fraction", what)?;
                Ok(())
            }
            PatternNode::LoopNest { arrays, burst } => {
                if arrays.is_empty() {
                    return Err(format!("{what}: loop nest needs at least one array"));
                }
                if *burst == 0 {
                    return Err(format!("{what}: burst must be positive"));
                }
                for (i, a) in arrays.iter().enumerate() {
                    a.validate(&format!("{what}.arrays[{i}]"))?;
                }
                Ok(())
            }
            PatternNode::Mixture(components) => {
                if components.is_empty() {
                    return Err(format!("{what}: mixture needs at least one component"));
                }
                for (i, (w, p)) in components.iter().enumerate() {
                    if !(w.is_finite() && *w > 0.0) {
                        return Err(format!(
                            "{what}.components[{i}]: weight must be positive, got {w}"
                        ));
                    }
                    p.validate(&format!("{what}.components[{i}].pattern"))?;
                }
                Ok(())
            }
            PatternNode::Phases(phases) => {
                if phases.is_empty() {
                    return Err(format!("{what}: need at least one phase"));
                }
                for (i, p) in phases.iter().enumerate() {
                    if p.refs == 0 {
                        return Err(format!(
                            "{what}.phases[{i}]: a phase must run at least one reference"
                        ));
                    }
                    if p.refs >= MAX_EXACT {
                        return Err(format!(
                            "{what}.phases[{i}]: refs exceeds the exact JSON range"
                        ));
                    }
                    p.pattern.validate(&format!("{what}.phases[{i}].pattern"))?;
                }
                Ok(())
            }
        }
    }

    /// Lowers the node for generation. `seed` is the compile-time
    /// effective seed, consumed only by seeded leaves (pointer chases);
    /// it draws nothing from the trace RNG.
    fn lower(&self, seed: u64) -> Lowered {
        match self {
            PatternNode::Strided(p) => Lowered::Strided(p.build()),
            PatternNode::Chase {
                base,
                nodes,
                node_bytes,
                store_fraction,
                seed: node_seed,
            } => Lowered::Chase(PointerChase::new(
                *base,
                *nodes,
                *node_bytes,
                *store_fraction,
                node_seed ^ seed,
            )),
            PatternNode::WorkingSet(p) => Lowered::WorkingSet(p.build()),
            PatternNode::Zipf {
                base,
                slots,
                elem_size,
                s,
                store_fraction,
            } => Lowered::Zipf(ZipfWorkingSet::new(
                *base,
                *slots,
                *elem_size,
                *s,
                *store_fraction,
            )),
            PatternNode::HotCold {
                hot,
                cold,
                hot_fraction,
            } => Lowered::HotCold(HotCold::new(hot.build(), cold.build(), *hot_fraction)),
            PatternNode::LoopNest { arrays, burst } => Lowered::LoopNest(LoopNest::new(
                arrays.iter().map(StridedParams::build).collect(),
                *burst,
            )),
            PatternNode::Mixture(components) => Lowered::Mixture {
                components: components
                    .iter()
                    .map(|(weight, pattern)| (*weight, pattern.lower(seed)))
                    .collect(),
                // Summed in order, as `MixtureBuilder::build` sums.
                total_weight: components.iter().map(|(w, _)| *w).sum(),
            },
            PatternNode::Phases(phases) => Lowered::Phases {
                phases: phases
                    .iter()
                    .map(|p| (p.refs, p.pattern.lower(seed)))
                    .collect(),
                current: 0,
                spent: 0,
            },
        }
    }
}

impl WorkloadSpec {
    /// Parses and fully validates a spec from its JSON form.
    ///
    /// `name` and `seed_mix` are optional (default: anonymous, 0);
    /// `shape` is optional and defaults to [`TraceShape::default`];
    /// `pattern` is required. The JSON is read for shape and types, then
    /// the spec is checked once by [`WorkloadSpec::validate`], so a
    /// returned spec always compiles without panicking.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key or parameter.
    pub fn from_json(v: &Json) -> Result<WorkloadSpec, String> {
        let f = Fields::new(v, "workload", &["name", "seed_mix", "shape", "pattern"])?;
        let shape = match f.opt("shape")? {
            None => TraceShape::default(),
            Some(s) => {
                let s = Fields::new(
                    s,
                    "workload.shape",
                    &["mem_fraction", "branch_fraction", "code_bytes"],
                )?;
                TraceShape {
                    mem_fraction: s.need("mem_fraction")?,
                    branch_fraction: s.need("branch_fraction")?,
                    code_bytes: s.need("code_bytes")?,
                }
            }
        };
        let spec = WorkloadSpec {
            name: f.opt::<&str>("name")?.map(str::to_string),
            seed_mix: match f.opt("seed_mix")? {
                None => 0,
                Some(seed) => seed_field(seed, "seed_mix", "workload")?,
            },
            shape,
            root: PatternNode::from_json(f.need("pattern")?, "workload.pattern")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text — [`WorkloadSpec::from_json`] over
    /// [`Json::parse`].
    ///
    /// # Errors
    ///
    /// Returns the parse or validation message.
    pub fn from_json_str(text: &str) -> Result<WorkloadSpec, String> {
        WorkloadSpec::from_json(&Json::parse(text)?)
    }

    /// Validates the spec: the one check every parsed spec passes, and
    /// the one a hand-built tree needs before it compiles.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.shape
            .validate()
            .map_err(|e| format!("workload.shape: {e}"))?;
        if self.shape.code_bytes >= MAX_EXACT {
            return Err("workload.shape: code_bytes exceeds the exact JSON range".to_string());
        }
        self.root.validate("workload.pattern")
    }

    /// The canonical JSON form: fully explicit (defaults filled in),
    /// fixed key order, seeds as hex strings, **without** the name —
    /// this is the byte string the content hash is taken over, so two
    /// differently-named copies of one workload share an identity.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`] (parsed
    /// specs never do).
    pub fn canonical_json(&self) -> Json {
        self.validate().expect("canonicalising an invalid spec");
        Json::obj(vec![
            ("seed_mix", seed_json(self.seed_mix)),
            (
                "shape",
                Json::obj(vec![
                    ("mem_fraction", Json::num(self.shape.mem_fraction)),
                    ("branch_fraction", Json::num(self.shape.branch_fraction)),
                    ("code_bytes", Json::num(self.shape.code_bytes as f64)),
                ]),
            ),
            ("pattern", self.root.to_json()),
        ])
    }

    /// The full JSON form: the canonical fields plus the name, when
    /// present — what `workloads show` and query echoes print.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn to_json(&self) -> Json {
        let canonical = self.canonical_json();
        match &self.name {
            None => canonical,
            Some(name) => {
                let mut fields = vec![("name".to_string(), Json::str(name))];
                if let Json::Obj(pairs) = canonical {
                    fields.extend(pairs);
                }
                Json::Obj(fields)
            }
        }
    }

    /// The spec's stable content identity: SHA-256 over the canonical
    /// rendering.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn id(&self) -> WorkloadId {
        // A spec borrowed from `builtins()` cannot have changed since its
        // identity was computed beside it; any other spec (a clone of a
        // built-in included) is hashed.
        if let Some(table) = BUILTINS.get() {
            if let Some(i) = table.specs.iter().position(|s| std::ptr::eq(s, self)) {
                return table.ids[i];
            }
        }
        self.content_id()
    }

    fn content_id(&self) -> WorkloadId {
        WorkloadId::from_hex(&sha256_hex(self.canonical_json().render().as_bytes()))
    }

    /// Human-facing label: the name, or `spec:<hash prefix>` for
    /// anonymous specs.
    pub fn label(&self) -> String {
        match &self.name {
            Some(name) => name.clone(),
            None => format!("spec:{}", self.id().short()),
        }
    }

    /// Compiles the spec into its infinite instruction stream,
    /// deterministic in `seed` (which is XORed with
    /// [`seed_mix`](WorkloadSpec::seed_mix)). The tree is lowered into a
    /// [`CompiledPattern`]; its tables (Zipf CDFs and guides, chase
    /// permutations) are built here, once.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`] (parsed
    /// specs never do).
    pub fn compile(&self, seed: u64) -> CompiledTrace {
        self.validate().expect("compiling an invalid spec");
        let effective = seed ^ self.seed_mix;
        PatternTrace::new(
            CompiledPattern(self.root.lower(effective)),
            self.shape,
            effective,
        )
    }

    /// The chunked-streaming form of [`WorkloadSpec::compile`]: `len`
    /// instructions in `chunk_len`-instruction chunks. Chunking never
    /// changes the stream — concatenating the chunks reproduces
    /// `compile(seed).take(len)` bit-identically for any chunk size.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid or `chunk_len` is zero.
    pub fn chunks(
        &self,
        seed: u64,
        len: usize,
        chunk_len: usize,
    ) -> ChunkedTrace<std::iter::Take<CompiledTrace>> {
        ChunkedTrace::new(self.compile(seed).take(len), chunk_len)
    }
}

// ---------------------------------------------------------------------
// Built-in named specs: the six SPEC92 proxies
// ---------------------------------------------------------------------

/// The committed spec files of the six SPEC92 proxies, in the order the
/// paper lists the programs.
const BUILTIN_FILES: [(&str, &str); 6] = [
    ("nasa7", include_str!("../../../workloads/nasa7.json")),
    ("swm256", include_str!("../../../workloads/swm256.json")),
    ("wave5", include_str!("../../../workloads/wave5.json")),
    ("ear", include_str!("../../../workloads/ear.json")),
    ("doduc", include_str!("../../../workloads/doduc.json")),
    ("hydro2d", include_str!("../../../workloads/hydro2d.json")),
];

/// The parsed built-in specs and their identities, each computed once
/// per process: a store lookup keyed by a built-in's
/// [`WorkloadSpec::id`] then renders and hashes nothing.
struct Builtins {
    specs: Vec<WorkloadSpec>,
    ids: Vec<WorkloadId>,
}

static BUILTINS: OnceLock<Builtins> = OnceLock::new();

/// All six built-in named specs, in the paper's program order
/// (nasa7, swm256, wave5, ear, doduc, hydro2d). The spec files are
/// parsed, and their identities computed, on first use.
///
/// # Panics
///
/// Panics if a committed spec file fails to parse (a build-time bug,
/// caught by every test that touches a builtin).
pub fn builtins() -> &'static [WorkloadSpec] {
    &BUILTINS
        .get_or_init(|| {
            let specs: Vec<WorkloadSpec> = BUILTIN_FILES
                .iter()
                .map(|(file, text)| {
                    WorkloadSpec::from_json_str(text)
                        .unwrap_or_else(|e| panic!("workloads/{file}.json: {e}"))
                })
                .collect();
            let ids = specs.iter().map(WorkloadSpec::content_id).collect();
            Builtins { specs, ids }
        })
        .specs
}

/// Looks up a built-in spec by its lowercase name (`"ear"`, …).
pub fn builtin(name: &str) -> Option<&'static WorkloadSpec> {
    builtins().iter().find(|s| s.name.as_deref() == Some(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    fn named(name: &str) -> &'static WorkloadSpec {
        builtin(name).expect("a builtin proxy")
    }

    #[test]
    fn every_proxy_emits_loads_and_stores() {
        for spec in builtins() {
            let stats = TraceStats::from_trace(spec.compile(7).take(20_000));
            assert_eq!(stats.instructions, 20_000, "{}", spec.label());
            assert!(stats.loads > 0, "{} produced no loads", spec.label());
            assert!(stats.stores > 0, "{} produced no stores", spec.label());
        }
    }

    #[test]
    fn proxies_are_deterministic_in_seed() {
        for spec in builtins() {
            let a: Vec<_> = spec.compile(99).take(500).collect();
            let b: Vec<_> = spec.compile(99).take(500).collect();
            assert_eq!(a, b, "{} not reproducible", spec.label());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = named("nasa7").compile(1).take(500).collect();
        let b: Vec<_> = named("nasa7").compile(2).take(500).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn proxies_are_decorrelated_under_one_seed() {
        let a: Vec<_> = named("nasa7").compile(1).take(500).collect();
        let b: Vec<_> = named("swm256").compile(1).take(500).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mem_fractions_differ_across_proxies() {
        let frac = |name| {
            let s = TraceStats::from_trace(named(name).compile(7).take(50_000));
            s.data_refs() as f64 / s.instructions as f64
        };
        let (swm, doduc) = (frac("swm256"), frac("doduc"));
        assert!(
            swm > doduc + 0.05,
            "swm256 ({swm}) should reference memory more than doduc ({doduc})"
        );
    }

    #[test]
    fn chunking_never_changes_the_stream() {
        let spec = named("ear");
        let whole: Vec<_> = spec.compile(7).take(10_000).collect();
        for chunk_len in [1, 613, 4_096, 10_000, 20_000] {
            let mut streamed = Vec::new();
            spec.chunks(7, 10_000, chunk_len)
                .for_each_chunk(|c| streamed.extend_from_slice(c));
            assert_eq!(whole, streamed, "chunk_len={chunk_len}");
        }
    }

    #[test]
    fn canonical_round_trip_preserves_identity() {
        for spec in builtins() {
            let rendered = spec.canonical_json().render();
            let reparsed = WorkloadSpec::from_json_str(&rendered).unwrap();
            assert_eq!(reparsed.id(), spec.id(), "{:?}", spec.name);
            assert_eq!(reparsed.seed_mix, spec.seed_mix);
            assert_eq!(reparsed.root, spec.root);
            assert_eq!(reparsed.name, None, "the canonical form drops the label");
            // And the full form keeps it.
            let named = WorkloadSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(named, *spec);
        }
    }

    /// The identities computed beside the built-in table are the content
    /// hashes, and a mutated clone of a built-in is hashed afresh.
    #[test]
    fn builtin_ids_are_their_content_hashes() {
        for spec in builtins() {
            assert_eq!(spec.id(), spec.content_id(), "{:?}", spec.name);
            let mut mixed = spec.clone();
            assert_eq!(mixed.id(), spec.id());
            mixed.seed_mix ^= 1;
            assert_ne!(mixed.id(), spec.id(), "{:?}", spec.name);
        }
    }

    #[test]
    fn name_does_not_enter_the_hash() {
        let mut anon = named("nasa7").clone();
        anon.name = None;
        assert_eq!(anon.id(), named("nasa7").id());
        assert_ne!(named("nasa7").id(), named("swm256").id());
    }

    #[test]
    fn seeds_survive_the_hex_string_codec() {
        let spec = named("hydro2d");
        assert!(
            spec.seed_mix > MAX_EXACT,
            "the interesting case: a seed JSON numbers cannot hold"
        );
        let reparsed = WorkloadSpec::from_json_str(&spec.canonical_json().render()).unwrap();
        assert_eq!(reparsed.seed_mix, spec.seed_mix);
    }

    #[test]
    fn invalid_specs_are_rejected_not_panicked() {
        for (bad, needle) in [
            (
                r#"{"pattern":{"kind":"strided","base":0,"region_bytes":0,"stride":8,"elem_size":8,"store_period":0}}"#,
                "region",
            ),
            (
                r#"{"pattern":{"kind":"strided","base":0,"region_bytes":64,"stride":0,"elem_size":8,"store_period":0}}"#,
                "stride",
            ),
            (
                r#"{"pattern":{"kind":"working_set","base":0,"bytes":64,"store_fraction":1.5,"elem_size":4}}"#,
                "store_fraction",
            ),
            (
                r#"{"pattern":{"kind":"zipf","base":0,"slots":0,"elem_size":8,"s":1.0,"store_fraction":0.1}}"#,
                "slot",
            ),
            (
                r#"{"pattern":{"kind":"zipf","base":0,"slots":64,"elem_size":8,"s":0.0,"store_fraction":0.1}}"#,
                "exponent",
            ),
            (
                r#"{"pattern":{"kind":"mixture","components":[]}}"#,
                "component",
            ),
            (
                r#"{"pattern":{"kind":"mixture","components":[{"weight":0.0,"pattern":{"kind":"working_set","base":0,"bytes":64,"store_fraction":0.0,"elem_size":4}}]}}"#,
                "weight",
            ),
            (r#"{"pattern":{"kind":"phases","phases":[]}}"#, "phase"),
            (
                r#"{"pattern":{"kind":"loop_nest","arrays":[],"burst":4}}"#,
                "array",
            ),
            (
                r#"{"pattern":{"kind":"chase","base":0,"nodes":0,"node_bytes":16,"store_fraction":0.0,"seed":1}}"#,
                "node",
            ),
            (
                r#"{"pattern":{"kind":"warp","base":0}}"#,
                "unknown pattern kind",
            ),
            (
                r#"{"pattern":{"kind":"working_set","base":0,"bytes":64,"store_fraction":0.0,"elem_size":4},"frob":1}"#,
                "unknown key",
            ),
            (
                r#"{"shape":{"mem_fraction":1.5,"branch_fraction":0.0,"code_bytes":1024},"pattern":{"kind":"working_set","base":0,"bytes":64,"store_fraction":0.0,"elem_size":4}}"#,
                "mem_fraction",
            ),
            (
                r#"{"pattern":{"kind":"hot_cold","hot_fraction":0.9,"hot":{"base":0,"bytes":64,"store_fraction":0.0,"elem_size":4},"cold":{"base":0,"bytes":0,"store_fraction":0.0,"elem_size":4}}}"#,
                "workload.pattern.cold: working set must be non-empty",
            ),
            (
                r#"{"pattern":{"kind":"phases","phases":[{"name":"a","refs":"x","pattern":{"kind":"warp"}}]}}"#,
                r#"workload.pattern.phases[0]: "refs" must be a non-negative integer"#,
            ),
            (
                r#"{"pattern":{"kind":"zipf","base":0,"slots":64,"elem_size":300,"s":1.0,"store_fraction":0.1}}"#,
                r#"workload.pattern: "elem_size" must be at most 255"#,
            ),
        ] {
            let err = WorkloadSpec::from_json_str(bad).unwrap_err();
            assert!(err.contains(needle), "{bad} -> {err}");
        }
    }

    #[test]
    fn chase_and_phase_trees_compile_and_stream() {
        let spec = WorkloadSpec::from_json_str(
            r#"{"name":"chase-phases","seed_mix":"0x1234",
                "shape":{"mem_fraction":0.3,"branch_fraction":0.02,"code_bytes":8192},
                "pattern":{"kind":"phases","phases":[
                  {"name":"chase","refs":500,"pattern":{"kind":"chase","base":0,
                   "nodes":256,"node_bytes":32,"store_fraction":0.1,"seed":"0x9"}},
                  {"name":"sweep","refs":300,"pattern":{"kind":"strided","base":65536,
                   "region_bytes":4096,"stride":8,"elem_size":8,"store_period":3}}]}}"#,
        )
        .unwrap();
        let a: Vec<_> = spec.compile(3).take(5_000).collect();
        let b: Vec<_> = spec.compile(3).take(5_000).collect();
        assert_eq!(a, b, "deterministic in seed");
        let c: Vec<_> = spec.compile(4).take(5_000).collect();
        assert_ne!(a, c, "seed changes the stream");
        assert_eq!(spec.label(), "chase-phases");
    }

    #[test]
    fn anonymous_labels_use_the_hash_prefix() {
        let spec = WorkloadSpec::from_json_str(
            r#"{"pattern":{"kind":"working_set","base":0,"bytes":4096,
                "store_fraction":0.3,"elem_size":4}}"#,
        )
        .unwrap();
        let label = spec.label();
        assert!(label.starts_with("spec:"), "{label}");
        assert_eq!(label.len(), "spec:".len() + 12);
        assert_eq!(spec.id().hex().len(), 64);
        assert!(label.contains(&spec.id().short()));
    }
}
