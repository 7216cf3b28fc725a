//! Strategies shared by the integration tests: random workload specs,
//! as the JSON a user would write. `tests/workloads.rs` checks their
//! canonical forms; the oracle tests compile them into traces.

use proptest::prelude::*;
use report::Json;

fn num(n: u64) -> Json {
    Json::num(n as f64)
}

/// One random strided sweep's fields (a `strided` leaf without its
/// `kind`, as a `loop_nest` array is written).
fn strided_fields() -> impl Strategy<Value = Vec<(&'static str, Json)>> {
    (1u64..1 << 30, 1u64..1 << 16, 1u64..4096, 1u8..=32, 0u32..64).prop_map(
        |(base, region_bytes, stride, elem_size, store_period)| {
            vec![
                ("base", num(base)),
                ("region_bytes", num(region_bytes)),
                ("stride", num(stride)),
                ("elem_size", Json::num(f64::from(elem_size))),
                ("store_period", Json::num(f64::from(store_period))),
            ]
        },
    )
}

/// One random uniform working set's fields.
fn working_set_fields() -> impl Strategy<Value = Vec<(&'static str, Json)>> {
    (1u64..1 << 30, 1u64..1 << 16, 0.0f64..1.0, 1u8..=32).prop_map(
        |(base, bytes, store_fraction, elem_size)| {
            vec![
                ("base", num(base)),
                ("bytes", num(bytes)),
                ("store_fraction", Json::num(store_fraction)),
                ("elem_size", Json::num(f64::from(elem_size))),
            ]
        },
    )
}

fn with_kind(kind: &'static str, fields: Vec<(&'static str, Json)>) -> Json {
    Json::obj(
        std::iter::once(("kind", Json::str(kind)))
            .chain(fields)
            .collect(),
    )
}

/// One random leaf node of every kind, as the JSON a user would write.
/// Bounds keep every draw inside the validators' accepted ranges;
/// fractions and the Zipf exponent are arbitrary f64s in range, which
/// exercises the shortest-round-trip number codec.
fn leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        strided_fields().prop_map(|f| with_kind("strided", f)),
        (
            1u64..1 << 30,
            1u32..2048,
            8u64..256,
            0.0f64..1.0,
            any::<u64>()
        )
            .prop_map(|(base, nodes, node_bytes, store_fraction, seed)| {
                Json::obj(vec![
                    ("kind", Json::str("chase")),
                    ("base", num(base)),
                    ("nodes", Json::num(f64::from(nodes))),
                    ("node_bytes", num(node_bytes)),
                    ("store_fraction", Json::num(store_fraction)),
                    ("seed", Json::str(format!("{seed:#x}"))),
                ])
            }),
        working_set_fields().prop_map(|f| with_kind("working_set", f)),
        (
            1u64..1 << 30,
            1u32..2048,
            1u8..=32,
            0.1f64..2.0,
            0.0f64..1.0
        )
            .prop_map(|(base, slots, elem_size, s, store_fraction)| {
                Json::obj(vec![
                    ("kind", Json::str("zipf")),
                    ("base", num(base)),
                    ("slots", Json::num(f64::from(slots))),
                    ("elem_size", Json::num(f64::from(elem_size))),
                    ("s", Json::num(s)),
                    ("store_fraction", Json::num(store_fraction)),
                ])
            }),
        (working_set_fields(), working_set_fields(), 0.0f64..1.0).prop_map(
            |(hot, cold, hot_fraction)| {
                Json::obj(vec![
                    ("kind", Json::str("hot_cold")),
                    ("hot", Json::obj(hot)),
                    ("cold", Json::obj(cold)),
                    ("hot_fraction", Json::num(hot_fraction)),
                ])
            }
        ),
        (proptest::collection::vec(strided_fields(), 1..4), 1u32..512).prop_map(
            |(arrays, burst)| {
                Json::obj(vec![
                    ("kind", Json::str("loop_nest")),
                    (
                        "arrays",
                        Json::Arr(arrays.into_iter().map(Json::obj).collect()),
                    ),
                    ("burst", Json::num(f64::from(burst))),
                ])
            }
        ),
    ]
}

/// A weighted mixture or a phase alternation over one to three
/// children drawn from `child`.
fn combinator(child: impl Fn() -> BoxedStrategy<Json>) -> impl Strategy<Value = Json> {
    prop_oneof![
        proptest::collection::vec((0.1f64..10.0, child()), 1..4).prop_map(|components| {
            Json::obj(vec![
                ("kind", Json::str("mixture")),
                (
                    "components",
                    Json::Arr(
                        components
                            .into_iter()
                            .map(|(weight, pattern)| {
                                Json::obj(vec![("weight", Json::num(weight)), ("pattern", pattern)])
                            })
                            .collect(),
                    ),
                ),
            ])
        }),
        proptest::collection::vec((1u64..10_000, child()), 1..4).prop_map(|phases| {
            Json::obj(vec![
                ("kind", Json::str("phases")),
                (
                    "phases",
                    Json::Arr(
                        phases
                            .into_iter()
                            .enumerate()
                            .map(|(i, (refs, pattern))| {
                                Json::obj(vec![
                                    ("name", Json::str(format!("phase{i}"))),
                                    ("refs", num(refs)),
                                    ("pattern", pattern),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }),
    ]
}

/// A random spec: a leaf, or a mixture or phase alternation whose
/// children are leaves or combinators of leaves, with an optional name,
/// seed mix and trace shape (any code region size, not only multiples
/// of the 4-byte instruction).
pub fn spec_json() -> impl Strategy<Value = Json> {
    let nested = || prop_oneof![leaf(), combinator(|| leaf().boxed())].boxed();
    let pattern = prop_oneof![leaf(), combinator(nested)];
    let shape = (0.0f64..1.0, 0.0f64..0.5, 4u64..1 << 17).prop_map(
        |(mem_fraction, branch_fraction, code_bytes)| {
            Json::obj(vec![
                ("mem_fraction", Json::num(mem_fraction)),
                ("branch_fraction", Json::num(branch_fraction)),
                ("code_bytes", num(code_bytes)),
            ])
        },
    );
    (any::<bool>(), any::<u64>(), any::<bool>(), shape, pattern).prop_map(
        |(named, seed_mix, shaped, shape, pattern)| {
            let mut fields = Vec::new();
            if named {
                fields.push(("name".to_string(), Json::str("prop")));
            }
            fields.push(("seed_mix".to_string(), Json::str(format!("{seed_mix:#x}"))));
            if shaped {
                fields.push(("shape".to_string(), shape));
            }
            fields.push(("pattern".to_string(), pattern));
            Json::Obj(fields)
        },
    )
}
