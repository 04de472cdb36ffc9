//! Seeded inputs: the four paper-scale tables, the mutation batches of
//! `ingest-mixed`, and the exact join counts the accuracy metric is
//! measured against.
//!
//! Each table keeps its preset's shape (cluster field and MBR size
//! model from `sj_datagen::presets`) while its rectangles are drawn from
//! a seed derived from the benchmark's `--seed`. `Generator`'s placement
//! type is private to sj-datagen, so the draw loop below composes the
//! same public pieces (`ClusterField::sample_point`, the `SizeModel`
//! parameters, `lognormal`) in the generator's order.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_datagen::{lognormal, ClusterField, Dataset, SizeModel};
use sj_geo::{Extent, Point, Rect};
use std::path::{Path, PathBuf};

/// Rectangles per insert (and inverse delete) batch.
pub const BATCH_RECTS: usize = 32;
/// Distinct batches per table; `ingest-mixed` cycles through them.
pub const BATCHES_PER_TABLE: usize = 4;

/// The tables every workload serves: name, paper cardinality, shape.
pub const TABLES: [&str; 4] = ["SCRC", "SURA", "TS", "SPG"];

fn paper_count(table: &str) -> usize {
    match table {
        "SCRC" => sj_datagen::presets::SCRC_COUNT,
        "SURA" => sj_datagen::presets::SURA_COUNT,
        "TS" => sj_datagen::presets::TS_COUNT,
        _ => sj_datagen::presets::SPG_COUNT,
    }
}

/// Where a table's objects sit: `None` is uniform over the unit square.
fn placement(table: &str) -> Option<ClusterField> {
    // Region seeds and field parameters of sj_datagen::presets.
    let field = |seed: u64, n, sigmas, skew| {
        ClusterField::random(&mut StdRng::seed_from_u64(seed), n, sigmas, skew)
    };
    match table {
        "SCRC" => Some(ClusterField::single(Point::new(0.4, 0.7), 0.12)),
        "SURA" => None,
        "TS" => Some(field(0x4d49_4457, 40, (0.03, 0.12), 0.8)),
        _ => Some(field(0x5345_5155, 60, (0.01, 0.06), 1.2)),
    }
}

fn size_model(table: &str) -> SizeModel {
    match table {
        "SCRC" | "SURA" => SizeModel::UniformSides {
            max_w: 0.004,
            max_h: 0.004,
        },
        "TS" => SizeModel::RandomWalk {
            steps: 12,
            step_len: 0.003,
        },
        _ => SizeModel::LogNormalBox {
            mu: -5.3,
            sigma: 1.0,
            aspect_sigma: 0.5,
            max_side: 0.08,
        },
    }
}

/// SplitMix64 finalizer: decorrelates seeds derived from one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One MBR anchored at `p`, clipped into the unit square — the
/// arithmetic of `SizeModel::make_rect`.
fn make_rect(model: &SizeModel, rng: &mut StdRng, p: Point) -> Rect {
    let raw = match *model {
        SizeModel::Point => Rect::from_point(p),
        SizeModel::UniformSides { max_w, max_h } => Rect::centered(
            p,
            rng.random_range(0.0..max_w),
            rng.random_range(0.0..max_h),
        ),
        SizeModel::LogNormalBox {
            mu,
            sigma,
            aspect_sigma,
            max_side,
        } => {
            let base = lognormal(rng, mu, sigma);
            let aspect = lognormal(rng, 0.0, aspect_sigma).sqrt();
            Rect::centered(
                p,
                (base * aspect).min(max_side),
                (base / aspect).min(max_side),
            )
        }
        SizeModel::RandomWalk { steps, step_len } => {
            let (mut x, mut y) = (p.x, p.y);
            let mut mbr = Rect::from_point(p);
            for _ in 0..steps {
                let angle = rng.random_range(0.0..std::f64::consts::TAU);
                let len = rng.random_range(0.0..2.0 * step_len);
                x += len * angle.cos();
                y += len * angle.sin();
                mbr = mbr.union(&Rect::from_point(Point::new(x, y)));
            }
            mbr
        }
    };
    let dx = if raw.xlo < 0.0 {
        -raw.xlo
    } else if raw.xhi > 1.0 {
        1.0 - raw.xhi
    } else {
        0.0
    };
    let dy = if raw.ylo < 0.0 {
        -raw.ylo
    } else if raw.yhi > 1.0 {
        1.0 - raw.yhi
    } else {
        0.0
    };
    let t = raw.translated(dx, dy);
    Rect::new(
        t.xlo.clamp(0.0, 1.0),
        t.ylo.clamp(0.0, 1.0),
        t.xhi.clamp(0.0, 1.0),
        t.yhi.clamp(0.0, 1.0),
    )
}

/// `count` rectangles of `table`'s shape drawn from `seed`.
fn draw(table: &str, count: usize, seed: u64) -> Vec<Rect> {
    let field = placement(table);
    let model = size_model(table);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let p = match &field {
                None => Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)),
                Some(f) => f.sample_point(&mut rng),
            };
            make_rect(&model, &mut rng, p)
        })
        .collect()
}

/// The generated inputs of one seed and scale.
pub struct Inputs {
    /// Table names, in [`TABLES`] order.
    pub names: Vec<String>,
    /// One CSV per table, named after the table.
    pub csvs: Vec<PathBuf>,
    /// The rectangles of each table, as written to its CSV.
    pub rects: Vec<Vec<Rect>>,
    /// `batches[t][b]`: the `b`-th insert batch of table `t`.
    pub batches: Vec<Vec<Vec<Rect>>>,
}

/// Generates (or reuses from `dir`) the tables for `seed` at `scale`.
pub fn generate(dir: &Path, seed: u64, scale: f64) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let mut inputs = Inputs {
        names: Vec::new(),
        csvs: Vec::new(),
        rects: Vec::new(),
        batches: Vec::new(),
    };
    for (t, name) in TABLES.iter().enumerate() {
        let count = ((paper_count(name) as f64 * scale).round() as usize).max(1);
        let rects = draw(name, count, mix(seed, t as u64 + 1));
        let csv = dir.join(format!("{name}.csv"));
        if !csv.exists() {
            // Written under a temporary name, so an interrupted run
            // never leaves a truncated table behind for the next one.
            let tmp = dir.join(format!("{name}.csv.tmp"));
            Dataset::new(*name, Extent::unit(), rects.clone()).save_csv(&tmp)?;
            std::fs::rename(&tmp, &csv)?;
        }
        let batches = (0..BATCHES_PER_TABLE)
            .map(|b| draw(name, BATCH_RECTS, mix(seed, 100 + (t * 16 + b) as u64)))
            .collect();
        inputs.names.push((*name).to_string());
        inputs.csvs.push(csv);
        inputs.rects.push(rects);
        inputs.batches.push(batches);
    }
    Ok(inputs)
}

/// Exact intersecting-pair counts `exact[a][b]` for every ordered table
/// pair, by the tiled plane sweep on at most `threads` threads. Cached
/// in `cache`, keyed by the caller's seed and scale.
pub fn exact_counts(
    rects: &[Vec<Rect>],
    threads: usize,
    cache: &Path,
) -> std::io::Result<Vec<Vec<u64>>> {
    let n = rects.len();
    if let Ok(text) = std::fs::read_to_string(cache) {
        let vals: Vec<u64> = text
            .split_whitespace()
            .filter_map(|v| v.parse().ok())
            .collect();
        if vals.len() == n * n {
            return Ok(vals.chunks(n).map(<[u64]>::to_vec).collect());
        }
    }
    let mut exact = vec![vec![0u64; n]; n];
    for a in 0..n {
        for b in a..n {
            let tiles = sj_sweep::tile_sweep(&rects[a], &rects[b], 64).into_tiles();
            let next = std::sync::atomic::AtomicUsize::new(0);
            let count: u64 = std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads.max(1))
                    .map(|_| {
                        s.spawn(|| {
                            let mut sum = 0u64;
                            loop {
                                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let Some(tile) = tiles.get(i) else { break sum };
                                sum += tile.count();
                            }
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("sweep worker panicked"))
                    .sum()
            });
            exact[a][b] = count;
            exact[b][a] = count;
        }
    }
    let text: Vec<String> = exact
        .iter()
        .map(|row| row.iter().map(u64::to_string).collect::<Vec<_>>().join(" "))
        .collect();
    let tmp = cache.with_extension("tmp");
    std::fs::write(&tmp, text.join("\n") + "\n")?;
    std::fs::rename(&tmp, cache)?;
    Ok(exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tables_other_seed_other_tables() {
        for name in TABLES {
            let a = draw(name, 200, 7);
            assert_eq!(a, draw(name, 200, 7), "{name}");
            assert_ne!(a, draw(name, 200, 8), "{name}");
            let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
            assert!(a.iter().all(|r| unit.contains(r)), "{name}");
        }
    }

    #[test]
    fn exact_counts_match_the_serial_sweep_and_are_cached() {
        let rects: Vec<Vec<Rect>> = TABLES.iter().map(|t| draw(t, 300, 3)).collect();
        let dir = std::env::temp_dir().join(format!("perfbench-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("exact.txt");
        let exact = exact_counts(&rects, 2, &cache).unwrap();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    exact[a][b],
                    sj_sweep::sweep_join_count(&rects[a], &rects[b])
                );
            }
        }
        assert_eq!(exact_counts(&rects, 1, &cache).unwrap(), exact);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
