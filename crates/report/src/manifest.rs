//! The typed artifact manifest: `results/manifest.json`.
//!
//! Every suite run writes its artifacts through [`write_all`], which
//! records the exact bytes of each file as a SHA-256 entry. Determinism
//! and staleness then become mechanical checks: regenerate into a fresh
//! directory, compare manifests; or re-hash a committed directory against
//! its manifest. CI runs both (`ci.sh` `manifest` mode).

use crate::artifact::Artifact;
use crate::csv::write_artifact;
use crate::hash::sha256_hex;
use crate::json::{Fields, Json};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// File name of the manifest inside a results directory.
pub const MANIFEST_NAME: &str = "manifest.json";

/// One hashed artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name relative to the results directory.
    pub name: String,
    /// Size of the rendered payload in bytes.
    pub bytes: u64,
    /// Lowercase-hex SHA-256 of the rendered payload.
    pub sha256: String,
}

/// One experiment's execution status in a degraded suite run
/// (`ok` / `retried(n)` / `failed` / `timed-out`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusEntry {
    /// Experiment id.
    pub id: String,
    /// Status keyword.
    pub status: String,
}

/// A content-addressed inventory of a results directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Entries sorted by name.
    pub entries: Vec<ManifestEntry>,
    /// Per-experiment statuses, in suite order. Empty for a fully
    /// clean run — and then absent from the JSON, so clean manifests
    /// are byte-identical to the pre-status schema.
    pub statuses: Vec<StatusEntry>,
}

/// One detected divergence between a manifest and reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// A listed artifact is absent from the directory.
    Missing {
        /// Artifact name.
        name: String,
    },
    /// A listed artifact exists but its bytes hash differently.
    Changed {
        /// Artifact name.
        name: String,
        /// Hash recorded in the manifest.
        expected: String,
        /// Hash of the bytes on disk.
        actual: String,
    },
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drift::Missing { name } => write!(f, "{name}: missing"),
            Drift::Changed {
                name,
                expected,
                actual,
            } => write!(f, "{name}: hash {actual} != manifest {expected}"),
        }
    }
}

impl Manifest {
    /// Builds a manifest over rendered artifacts, sorted by name.
    pub fn from_artifacts(artifacts: &[Artifact]) -> Manifest {
        let mut entries: Vec<ManifestEntry> = artifacts
            .iter()
            .map(|a| {
                let payload = a.render();
                ManifestEntry {
                    name: a.name.clone(),
                    bytes: payload.len() as u64,
                    sha256: sha256_hex(payload.as_bytes()),
                }
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Manifest {
            entries,
            statuses: Vec::new(),
        }
    }

    /// Attaches per-experiment statuses (suite order, not sorted). Pass
    /// an empty vector to keep the manifest in its clean-run shape.
    #[must_use]
    pub fn with_statuses(mut self, statuses: Vec<StatusEntry>) -> Manifest {
        self.statuses = statuses;
        self
    }

    /// Serialises the manifest as deterministic JSON (one entry per
    /// line, entries sorted by name, trailing newline). A degraded run
    /// additionally records an `"experiments"` status section; a clean
    /// manifest omits it and serialises byte-identically to the
    /// pre-status schema.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n");
        if !self.statuses.is_empty() {
            out.push_str("  \"experiments\": [\n");
            for (i, s) in self.statuses.iter().enumerate() {
                let comma = if i + 1 == self.statuses.len() {
                    ""
                } else {
                    ","
                };
                out.push_str(&format!(
                    "    {{\"id\": \"{}\", \"status\": \"{}\"}}{comma}\n",
                    s.id, s.status
                ));
            }
            out.push_str("  ],\n");
        }
        out.push_str("  \"artifacts\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"bytes\": {}, \"sha256\": \"{}\"}}{comma}\n",
                e.name, e.bytes, e.sha256
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a manifest previously emitted by [`Manifest::to_json`],
    /// through the strict [`Fields`] reader.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed key.
    pub fn parse(json: &str) -> Result<Manifest, String> {
        let doc = Json::parse(json)?;
        let top = Fields::new(&doc, "manifest", &["version", "experiments", "artifacts"])?;
        top.need::<u64>("version")?;
        let mut entries = top
            .need::<&[Json]>("artifacts")?
            .iter()
            .map(|a| {
                let f = Fields::new(a, "manifest artifact", &["name", "bytes", "sha256"])?;
                Ok(ManifestEntry {
                    name: f.need::<&str>("name")?.to_string(),
                    bytes: f.need("bytes")?,
                    sha256: f.need::<&str>("sha256")?.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        // Statuses keep their written (suite) order.
        let statuses = top
            .or::<&[Json]>("experiments", &[])?
            .iter()
            .map(|e| {
                let f = Fields::new(e, "manifest experiment", &["id", "status"])?;
                Ok(StatusEntry {
                    id: f.need::<&str>("id")?.to_string(),
                    status: f.need::<&str>("status")?.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Manifest { entries, statuses })
    }

    /// Re-hashes every listed artifact under `dir` and reports drift.
    pub fn verify_dir(&self, dir: &Path) -> Vec<Drift> {
        let mut drift = Vec::new();
        for e in &self.entries {
            match fs::read(dir.join(&e.name)) {
                Err(_) => drift.push(Drift::Missing {
                    name: e.name.clone(),
                }),
                Ok(bytes) => {
                    let actual = sha256_hex(&bytes);
                    if actual != e.sha256 {
                        drift.push(Drift::Changed {
                            name: e.name.clone(),
                            expected: e.sha256.clone(),
                            actual,
                        });
                    }
                }
            }
        }
        drift
    }
}

/// Writes every artifact plus the manifest under `dir` and returns the
/// manifest. This is the single write path for experiment outputs.
///
/// # Errors
///
/// Propagates the first I/O error.
pub fn write_all(dir: &Path, artifacts: &[Artifact]) -> io::Result<Manifest> {
    let manifest = Manifest::from_artifacts(artifacts);
    for a in artifacts {
        write_artifact(dir.join(&a.name), &a.render())?;
    }
    write_artifact(dir.join(MANIFEST_NAME), &manifest.to_json())?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Artifact> {
        vec![
            Artifact::text("b.txt", "hello\n"),
            Artifact::csv("a.csv", &["x"], vec![vec!["1".into()]]),
        ]
    }

    #[test]
    fn manifest_is_sorted_and_round_trips() {
        let m = Manifest::from_artifacts(&sample());
        assert_eq!(m.entries[0].name, "a.csv");
        assert_eq!(m.entries[1].name, "b.txt");
        assert_eq!(m.entries[1].bytes, 6);
        let parsed = Manifest::parse(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn write_all_produces_verifiable_directory() {
        let dir = std::env::temp_dir().join("manifest_write_all_test");
        let _ = fs::remove_dir_all(&dir);
        let m = write_all(&dir, &sample()).unwrap();
        assert!(m.verify_dir(&dir).is_empty());
        assert!(dir.join(MANIFEST_NAME).exists());
        // Doctor one artifact: drift must be reported.
        fs::write(dir.join("a.csv"), "x\n2\n").unwrap();
        let drift = m.verify_dir(&dir);
        assert_eq!(drift.len(), 1);
        assert!(matches!(&drift[0], Drift::Changed { name, .. } if name == "a.csv"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_artifact_is_drift() {
        let dir = std::env::temp_dir().join("manifest_missing_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let m = Manifest::from_artifacts(&sample());
        let drift = m.verify_dir(&dir);
        assert_eq!(drift.len(), 2);
        assert!(drift.iter().all(|d| matches!(d, Drift::Missing { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_artifacts_hash_identically() {
        let a = Manifest::from_artifacts(&sample());
        let b = Manifest::from_artifacts(&sample());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn empty_statuses_leave_the_json_unchanged() {
        let m = Manifest::from_artifacts(&sample());
        let clean = m.to_json();
        assert_eq!(m.clone().with_statuses(Vec::new()).to_json(), clean);
        assert!(!clean.contains("experiments"));
    }

    #[test]
    fn statuses_round_trip_in_suite_order() {
        let statuses = vec![
            StatusEntry {
                id: "zeta".into(),
                status: "ok".into(),
            },
            StatusEntry {
                id: "alpha".into(),
                status: "timed-out".into(),
            },
        ];
        let m = Manifest::from_artifacts(&sample()).with_statuses(statuses.clone());
        let json = m.to_json();
        assert!(json.contains("\"experiments\": ["));
        assert!(json.contains("{\"id\": \"alpha\", \"status\": \"timed-out\"}"));
        let parsed = Manifest::parse(&json).unwrap();
        assert_eq!(parsed, m);
        // Suite order is preserved, not sorted.
        assert_eq!(parsed.statuses[0].id, "zeta");
    }

    #[test]
    fn malformed_manifests_name_the_bad_key() {
        for (bad, needle) in [
            ("{\"version\": 1}", "\"artifacts\" is missing"),
            (
                "{\"version\": 1, \"artifacts\": [{\"name\": \"a\", \"bytes\": -1, \"sha256\": \"00\"}]}",
                "\"bytes\" must be a non-negative integer",
            ),
            (
                "{\"version\": 1, \"artifacts\": [], \"extra\": 0}",
                "\"extra\" is an unknown key",
            ),
            ("{\"version\": 1, \"artifacts\": [", "end of input"),
        ] {
            let err = Manifest::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad} -> {err}");
        }
    }
}
