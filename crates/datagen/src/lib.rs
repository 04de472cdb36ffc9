//! Dataset model, synthetic generators, and preset workloads.
//!
//! The paper evaluates on four joins drawn from real and synthetic data:
//!
//! | Join | Left | Right |
//! |---|---|---|
//! | TS ⋈ TCB | 194,971 TIGER stream polyline MBRs (IA/KS/MO/NE) | 556,696 TIGER census block polygon MBRs |
//! | CAS ⋈ CAR | 98,451 TIGER California stream MBRs | 2,249,727 TIGER California road MBRs |
//! | SP ⋈ SPG | 62,555 Sequoia 2000 points | 79,607 Sequoia 2000 polygon MBRs |
//! | SCRC ⋈ SURA | 100,000 rects clustered at (0.4, 0.7) | 100,000 uniform rects |
//!
//! TIGER/Line 1995 and the Sequoia 2000 benchmark data are not
//! redistributable in this repository, so [`presets`] provides *simulated*
//! stand-ins: seeded generators that reproduce the properties the paper's
//! conclusions depend on — cardinalities (scalable), spatial clustering /
//! skew, and the MBR size/aspect distributions of streams (elongated
//! random-walk MBRs), census blocks & polygons (small compact boxes),
//! roads (tiny segments) and points (degenerate MBRs). The SCRC/SURA
//! synthetic pair is generated exactly as described in the paper. See
//! DESIGN.md §5 for the substitution rationale.
//!
//! Everything is deterministic given a seed: the same
//! [`presets::PaperJoin`] at the same scale always produces the same
//! rectangles, so experiments are reproducible run-to-run.

mod dataset;
mod distributions;
mod error;
mod generators;
pub mod presets;

pub use dataset::{Dataset, DatasetStats};
pub use distributions::{exponential, lognormal, normal, sample_weighted, zipf_weights};
pub use error::DatasetError;
pub use generators::{ClusterField, Generator, SizeModel};
