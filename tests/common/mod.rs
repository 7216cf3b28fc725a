//! Strategies shared by the integration tests: random workload specs,
//! as the JSON a user would write. `tests/workloads.rs` checks their
//! canonical forms; the oracle tests compile them into traces.

use proptest::prelude::*;
use report::Json;

fn num(n: u64) -> Json {
    Json::num(n as f64)
}

/// One random leaf node, as the JSON a user would write. Bounds keep
/// every draw inside the validators' accepted ranges; fractions and the
/// Zipf exponent are arbitrary f64s in range, which exercises the
/// shortest-round-trip number codec.
fn leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        (1u64..1 << 30, 1u64..1 << 16, 1u64..4096, 1u8..=32, 0u32..64).prop_map(
            |(base, region_bytes, stride, elem_size, store_period)| {
                Json::obj(vec![
                    ("kind", Json::str("strided")),
                    ("base", num(base)),
                    ("region_bytes", num(region_bytes)),
                    ("stride", num(stride)),
                    ("elem_size", Json::num(f64::from(elem_size))),
                    ("store_period", Json::num(f64::from(store_period))),
                ])
            }
        ),
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
        (1u64..1 << 30, 1u64..1 << 16, 0.0f64..1.0, 1u8..=32).prop_map(
            |(base, bytes, store_fraction, elem_size)| {
                Json::obj(vec![
                    ("kind", Json::str("working_set")),
                    ("base", num(base)),
                    ("bytes", num(bytes)),
                    ("store_fraction", Json::num(store_fraction)),
                    ("elem_size", Json::num(f64::from(elem_size))),
                ])
            }
        ),
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
    ]
}

/// A random spec: a leaf, a weighted mixture of leaves, or a phase
/// alternation over leaves, with an optional name and seed mix.
pub fn spec_json() -> impl Strategy<Value = Json> {
    let pattern = prop_oneof![
        leaf(),
        (proptest::collection::vec((0.1f64..10.0, leaf()), 1..4)).prop_map(|components| {
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
        (proptest::collection::vec((1u64..10_000, leaf()), 1..4)).prop_map(|phases| {
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
    ];
    (any::<bool>(), any::<u64>(), pattern).prop_map(|(named, seed_mix, pattern)| {
        let mut fields = Vec::new();
        if named {
            fields.push(("name".to_string(), Json::str("prop")));
        }
        fields.push(("seed_mix".to_string(), Json::str(format!("{seed_mix:#x}"))));
        fields.push(("pattern".to_string(), pattern));
        Json::Obj(fields)
    })
}
