//! Preset workloads simulating the paper's eight datasets.
//!
//! Every preset takes a `scale` factor multiplying the paper cardinality
//! (`1.0` = full size, the default for the figure harnesses; tests use
//! small scales). Datasets that the paper joins together share the same
//! underlying cluster field — streams and census blocks of the same four
//! states cover the same geography — which is what makes their join
//! selectivity meaningful.

use crate::generators::{ClusterField, Generator, Placement, SizeModel};
use crate::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sj_geo::Point;

/// Paper cardinality of TS (TIGER streams, IA/KS/MO/NE).
pub const TS_COUNT: usize = 194_971;
/// Paper cardinality of TCB (TIGER census blocks, IA/KS/MO/NE).
pub const TCB_COUNT: usize = 556_696;
/// Paper cardinality of CAS (TIGER California streams).
pub const CAS_COUNT: usize = 98_451;
/// Paper cardinality of CAR (TIGER California roads).
pub const CAR_COUNT: usize = 2_249_727;
/// Paper cardinality of SP (Sequoia points).
pub const SP_COUNT: usize = 62_555;
/// Paper cardinality of SPG (Sequoia polygons).
pub const SPG_COUNT: usize = 79_607;
/// Paper cardinality of SCRC (synthetic clustered rects).
pub const SCRC_COUNT: usize = 100_000;
/// Paper cardinality of SURA (synthetic uniform rects).
pub const SURA_COUNT: usize = 100_000;

// Region seeds: each joined pair shares one geography.
const MIDWEST_SEED: u64 = 0x4d49_4457; // "MIDW"
const CALIFORNIA_SEED: u64 = 0x4341_4c49; // "CALI"
const SEQUOIA_SEED: u64 = 0x5345_5155; // "SEQU"

fn scaled(count: usize, scale: f64) -> usize {
    assert!(scale > 0.0, "scale must be positive");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (count as f64 * scale).round() as usize;
    n.max(1)
}

/// The four-state midwest geography: moderate clustering (the paper notes
/// TS/TCB are "clustered", giving PH its level-5 sweet spot).
fn midwest_field() -> ClusterField {
    let mut rng = StdRng::seed_from_u64(MIDWEST_SEED);
    ClusterField::random(&mut rng, 40, (0.03, 0.12), 0.8)
}

/// California geography: highly skewed, small dense clusters (the paper
/// attributes CAR/CAS behaviour to heavy skew).
fn california_field() -> ClusterField {
    let mut rng = StdRng::seed_from_u64(CALIFORNIA_SEED);
    ClusterField::random(&mut rng, 150, (0.004, 0.04), 1.6)
}

/// Sequoia geography: clustered environmental observation sites.
fn sequoia_field() -> ClusterField {
    let mut rng = StdRng::seed_from_u64(SEQUOIA_SEED);
    ClusterField::random(&mut rng, 60, (0.01, 0.06), 1.2)
}

/// TS — stream polyline MBRs over the midwest field: elongated,
/// irregular random-walk MBRs.
#[must_use]
pub fn ts(scale: f64) -> Dataset {
    Generator {
        name: "TS".into(),
        count: scaled(TS_COUNT, scale),
        placement: Placement::Clustered(midwest_field()),
        size: SizeModel::RandomWalk {
            steps: 12,
            step_len: 0.003,
        },
        seed: 101,
    }
    .generate()
}

/// TCB — census-block polygon MBRs over the midwest field: small compact
/// boxes with log-normal sides.
#[must_use]
pub fn tcb(scale: f64) -> Dataset {
    Generator {
        name: "TCB".into(),
        count: scaled(TCB_COUNT, scale),
        placement: Placement::Clustered(midwest_field()),
        size: SizeModel::LogNormalBox {
            mu: -6.3,
            sigma: 0.8,
            aspect_sigma: 0.3,
            max_side: 0.03,
        },
        seed: 102,
    }
    .generate()
}

/// CAS — California stream MBRs: elongated walks over the highly skewed
/// California field.
#[must_use]
pub fn cas(scale: f64) -> Dataset {
    Generator {
        name: "CAS".into(),
        count: scaled(CAS_COUNT, scale),
        placement: Placement::Clustered(california_field()),
        size: SizeModel::RandomWalk {
            steps: 14,
            step_len: 0.003,
        },
        seed: 103,
    }
    .generate()
}

/// CAR — California road-segment MBRs: tiny walks, enormous cardinality.
#[must_use]
pub fn car(scale: f64) -> Dataset {
    Generator {
        name: "CAR".into(),
        count: scaled(CAR_COUNT, scale),
        placement: Placement::Clustered(california_field()),
        size: SizeModel::RandomWalk {
            steps: 3,
            step_len: 0.0008,
        },
        seed: 104,
    }
    .generate()
}

/// SP — Sequoia point data: degenerate MBRs over the Sequoia field.
#[must_use]
pub fn sp(scale: f64) -> Dataset {
    Generator {
        name: "SP".into(),
        count: scaled(SP_COUNT, scale),
        placement: Placement::Clustered(sequoia_field()),
        size: SizeModel::Point,
        seed: 105,
    }
    .generate()
}

/// SPG — Sequoia polygon MBRs over the same field as SP.
#[must_use]
pub fn spg(scale: f64) -> Dataset {
    Generator {
        name: "SPG".into(),
        count: scaled(SPG_COUNT, scale),
        placement: Placement::Clustered(sequoia_field()),
        size: SizeModel::LogNormalBox {
            mu: -5.3,
            sigma: 1.0,
            aspect_sigma: 0.5,
            max_side: 0.08,
        },
        seed: 106,
    }
    .generate()
}

/// SCRC — 100,000 rectangles clustered around `(0.4, 0.7)`, exactly as the
/// paper describes its synthetic clustered dataset.
#[must_use]
pub fn scrc(scale: f64) -> Dataset {
    Generator {
        name: "SCRC".into(),
        count: scaled(SCRC_COUNT, scale),
        placement: Placement::Clustered(ClusterField::single(Point::new(0.4, 0.7), 0.12)),
        size: SizeModel::UniformSides {
            max_w: 0.004,
            max_h: 0.004,
        },
        seed: 107,
    }
    .generate()
}

/// SURA — 100,000 rectangles uniformly distributed in the unit square,
/// exactly as the paper describes its synthetic uniform dataset.
#[must_use]
pub fn sura(scale: f64) -> Dataset {
    Generator {
        name: "SURA".into(),
        count: scaled(SURA_COUNT, scale),
        placement: Placement::Uniform,
        size: SizeModel::UniformSides {
            max_w: 0.004,
            max_h: 0.004,
        },
        seed: 108,
    }
    .generate()
}

// ---------------------------------------------------------------------
// Equivalence verification scenarios (`sj-lint verify-equivalence`)
// ---------------------------------------------------------------------

/// Base cardinality of each verification scenario at `scale = 1.0` —
/// small enough that the full verify-equivalence matrix runs in seconds, large
/// enough that every cell class (contained, boundary-crossing, spanning)
/// is populated at the levels the verifier builds.
pub const VERIFY_COUNT: usize = 3_000;

/// Seed of the skewed verification scenario's cluster field.
const VERIFY_FIELD_SEED: u64 = 0x5652_4659; // "VRFY"

/// `verify-uniform` — uniformly placed rectangles with uniform sides, the
/// benign scenario of the merge-equivalence verifier. Deterministic:
/// the same scale always yields the same rectangles.
#[must_use]
pub fn verify_uniform(scale: f64) -> Dataset {
    Generator {
        name: "verify-uniform".into(),
        count: scaled(VERIFY_COUNT, scale),
        placement: Placement::Uniform,
        size: SizeModel::UniformSides {
            max_w: 0.06,
            max_h: 0.06,
        },
        seed: 201,
    }
    .generate()
}

/// `verify-skewed` — heavily clustered rectangles with log-normal sides:
/// skew concentrates many MBRs (and their clipped masses) in few cells,
/// the regime where a broken merge would accumulate order-dependent
/// error fastest. Deterministic like [`verify_uniform`].
#[must_use]
pub fn verify_skewed(scale: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(VERIFY_FIELD_SEED);
    let field = ClusterField::random(&mut rng, 12, (0.01, 0.08), 1.5);
    Generator {
        name: "verify-skewed".into(),
        count: scaled(VERIFY_COUNT, scale),
        placement: Placement::Clustered(field),
        size: SizeModel::LogNormalBox {
            mu: -4.4,
            sigma: 1.1,
            aspect_sigma: 0.6,
            max_side: 0.2,
        },
        seed: 202,
    }
    .generate()
}

/// Both seeded scenario datasets of the merge-equivalence verifier, in a
/// stable order: uniform then skewed.
#[must_use]
pub fn verify_scenarios(scale: f64) -> Vec<Dataset> {
    vec![verify_uniform(scale), verify_skewed(scale)]
}

/// The four joins evaluated in the paper's Figures 6 and 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperJoin {
    /// TS ⋈ TCB — polylines with polygons, moderate clustering.
    TsTcb,
    /// CAS ⋈ CAR — unequal cardinalities (1 : 23), heavy skew.
    CasCar,
    /// SP ⋈ SPG — points with polygons.
    SpSpg,
    /// SCRC ⋈ SURA — clustered with uniform synthetic rects.
    ScrcSura,
}

/// All four paper joins, in figure order.
pub const ALL_JOINS: [PaperJoin; 4] = [
    PaperJoin::TsTcb,
    PaperJoin::CasCar,
    PaperJoin::SpSpg,
    PaperJoin::ScrcSura,
];

impl PaperJoin {
    /// Display name matching the paper's figure captions.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PaperJoin::TsTcb => "TS with TCB",
            PaperJoin::CasCar => "CAS with CAR",
            PaperJoin::SpSpg => "SP with SPG",
            PaperJoin::ScrcSura => "SCRC with SURA",
        }
    }

    /// Materializes the two datasets at the given scale.
    #[must_use]
    pub fn datasets(self, scale: f64) -> (Dataset, Dataset) {
        match self {
            PaperJoin::TsTcb => (ts(scale), tcb(scale)),
            PaperJoin::CasCar => (cas(scale), car(scale)),
            PaperJoin::SpSpg => (sp(scale), spg(scale)),
            PaperJoin::ScrcSura => (scrc(scale), sura(scale)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_cardinalities() {
        assert_eq!(ts(0.01).len(), 1950);
        assert_eq!(tcb(0.001).len(), 557);
        assert_eq!(scrc(1.0e-4).len(), 10);
        assert_eq!(
            sura(1.0e-6).len(),
            1,
            "scale never produces an empty dataset"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = ts(0.0);
    }

    #[test]
    fn presets_are_deterministic() {
        assert_eq!(cas(0.005).rects, cas(0.005).rects);
        assert_eq!(sp(0.01).rects, sp(0.01).rects);
    }

    #[test]
    fn verify_scenarios_are_deterministic_and_distinct() {
        let a = verify_scenarios(0.1);
        let b = verify_scenarios(0.1);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].name, "verify-uniform");
        assert_eq!(a[1].name, "verify-skewed");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rects, y.rects, "{} must be seeded", x.name);
        }
        assert_ne!(a[0].rects, a[1].rects);
        assert_eq!(a[0].len(), 300);
    }

    #[test]
    fn verify_skewed_is_more_clustered_than_uniform() {
        // The skewed scenario must actually exercise the skew regime:
        // its densest cells hold more mass than the uniform scenario's.
        fn top_cell_mass(ds: &Dataset) -> f64 {
            let mut counts = [0usize; 64];
            for r in &ds.rects {
                let c = r.center();
                let i = ((c.x * 8.0) as usize).min(7);
                let j = ((c.y * 8.0) as usize).min(7);
                counts[j * 8 + i] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[..4].iter().sum::<usize>() as f64 / ds.len() as f64
        }
        let uni = top_cell_mass(&verify_uniform(0.5));
        let skew = top_cell_mass(&verify_skewed(0.5));
        assert!(
            skew > 2.0 * uni,
            "expected strong skew (uniform {uni:.3}, skewed {skew:.3})"
        );
    }

    #[test]
    fn sp_is_a_point_dataset() {
        let ds = sp(0.01);
        assert!((ds.stats().degenerate_fraction - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn paired_datasets_share_geography() {
        // The joined pairs must overlap spatially, otherwise their join
        // selectivity is degenerate. Check the mass centers are close and
        // the pairwise join is non-empty at a small scale.
        for join in ALL_JOINS {
            let (a, b) = join.datasets(0.02);
            let pairs = sj_sweep_shim::count(&a.rects, &b.rects);
            assert!(pairs > 0, "{} produced an empty join", join.name());
        }
    }

    // Minimal local shim so sj-datagen does not depend on sj-sweep just
    // for this test (workspace layering: sweep depends on geo only, and
    // the cross-crate agreement is tested in the integration suite).
    mod sj_sweep_shim {
        use sj_geo::Rect;
        pub fn count(a: &[Rect], b: &[Rect]) -> u64 {
            let mut n = 0;
            for ra in a {
                for rb in b {
                    if ra.intersects(rb) {
                        n += 1;
                    }
                }
            }
            n
        }
    }

    #[test]
    fn cardinality_ratio_preserved() {
        let (a, b) = PaperJoin::CasCar.datasets(0.01);
        let ratio = b.len() as f64 / a.len() as f64;
        assert!((ratio - 22.85).abs() < 0.5, "CAS:CAR ratio {ratio}");
    }

    #[test]
    fn skew_differs_between_regions() {
        // California should be more skewed than the midwest: measure the
        // fraction of mass in the densest 4 of 64 grid cells.
        fn top_cell_mass(ds: &Dataset) -> f64 {
            let mut counts = [0usize; 64];
            for r in &ds.rects {
                let c = r.center();
                let i = ((c.x * 8.0) as usize).min(7);
                let j = ((c.y * 8.0) as usize).min(7);
                counts[j * 8 + i] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[..4].iter().sum::<usize>() as f64 / ds.len() as f64
        }
        let midwest = top_cell_mass(&ts(0.05));
        let cali = top_cell_mass(&cas(0.05));
        assert!(
            cali > midwest,
            "expected CA ({cali:.3}) more skewed than midwest ({midwest:.3})"
        );
    }
}
