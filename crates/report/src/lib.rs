//! Experiment output rendering: ASCII line charts, markdown tables and
//! CSV files.
//!
//! The benchmark harness regenerates every figure of the paper; since the
//! reproduction is terminal-first, figures are emitted as multi-series
//! ASCII charts (one glyph per series) alongside machine-readable CSV.
//!
//! # Example
//!
//! ```
//! use report::chart::Chart;
//!
//! let mut chart = Chart::new("ΔHR vs β_m", "beta_m", "ΔHR (%)", 40, 10);
//! chart.series("L=8", (2..=20).map(|b| (b as f64, 100.0 / b as f64)).collect());
//! let text = chart.render();
//! assert!(text.contains("ΔHR vs β_m"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod chart;
pub mod csv;
pub mod hash;
pub mod json;
pub mod manifest;
pub mod table;

pub use artifact::{Artifact, ArtifactKind};
pub use chart::Chart;
pub use csv::{write_artifact, write_csv};
pub use hash::sha256_hex;
pub use json::{Fields, Json};
pub use manifest::{Drift, Manifest, ManifestEntry, MANIFEST_NAME};
pub use table::Table;
