use sj_geo::Rect;

/// Node splitting algorithm used on overflow during dynamic insertion
/// (Guttman, SIGMOD 1984, Section 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitAlgorithm {
    /// Linear-cost split: pick the pair of seeds with the greatest
    /// normalized separation, then assign remaining entries greedily.
    Linear,
    /// Quadratic-cost split: pick the seed pair wasting the most area if
    /// grouped together, then repeatedly assign the entry with the largest
    /// preference difference. Default, matching common practice.
    #[default]
    Quadratic,
}

/// Splits `items` into two groups, each with at least `min_entries`
/// elements, according to the chosen algorithm. `rect_of` projects an item
/// onto its MBR.
///
/// # Panics
/// Panics if `items.len() < 2 * min_entries` — the caller only splits
/// nodes that overflowed past `max_entries >= 2 * min_entries`.
pub fn split<T, F>(
    algo: SplitAlgorithm,
    items: Vec<T>,
    min_entries: usize,
    rect_of: F,
) -> (Vec<T>, Vec<T>)
where
    F: Fn(&T) -> Rect,
{
    assert!(
        items.len() >= 2 * min_entries,
        "cannot split {} items with min_entries {min_entries}",
        items.len()
    );
    match algo {
        SplitAlgorithm::Linear => linear_split(items, min_entries, rect_of),
        SplitAlgorithm::Quadratic => quadratic_split(items, min_entries, rect_of),
    }
}

/// Guttman's `PickSeeds` for the quadratic split: the pair whose combined
/// MBR wastes the most area.
fn pick_seeds_quadratic(rects: &[Rect]) -> (usize, usize) {
    let mut worst = f64::NEG_INFINITY;
    let mut pair = (0, 1);
    for i in 0..rects.len() {
        for j in (i + 1)..rects.len() {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                pair = (i, j);
            }
        }
    }
    pair
}

/// Guttman's `LinearPickSeeds`: per dimension, find the entry with the
/// highest low side and the one with the lowest high side; normalize the
/// separation by the extent width; take the dimension with the greatest
/// normalized separation.
fn pick_seeds_linear(rects: &[Rect]) -> (usize, usize) {
    let n = rects.len();
    let mut best = f64::NEG_INFINITY;
    let mut pair = (0, 1);
    for dim in 0..2 {
        let lo = |r: &Rect| if dim == 0 { r.xlo } else { r.ylo };
        let hi = |r: &Rect| if dim == 0 { r.xhi } else { r.yhi };
        let mut highest_lo = 0usize;
        let mut lowest_hi = 0usize;
        let (mut min_lo, mut max_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, r) in rects.iter().enumerate() {
            if lo(r) > lo(&rects[highest_lo]) {
                highest_lo = i;
            }
            if hi(r) < hi(&rects[lowest_hi]) {
                lowest_hi = i;
            }
            min_lo = min_lo.min(lo(r));
            max_hi = max_hi.max(hi(r));
        }
        let width = (max_hi - min_lo).max(f64::MIN_POSITIVE);
        let separation = (lo(&rects[highest_lo]) - hi(&rects[lowest_hi])) / width;
        if separation > best && highest_lo != lowest_hi {
            best = separation;
            pair = (lowest_hi, highest_lo);
        }
    }
    if pair.0 == pair.1 {
        // All rects identical in both dimensions: any split is as good.
        pair = (0, n - 1);
    }
    pair
}

fn quadratic_split<T, F>(items: Vec<T>, min_entries: usize, rect_of: F) -> (Vec<T>, Vec<T>)
where
    F: Fn(&T) -> Rect,
{
    let rects: Vec<Rect> = items.iter().map(&rect_of).collect();
    let (s1, s2) = pick_seeds_quadratic(&rects);
    distribute(items, rects, (s1, s2), min_entries, true)
}

fn linear_split<T, F>(items: Vec<T>, min_entries: usize, rect_of: F) -> (Vec<T>, Vec<T>)
where
    F: Fn(&T) -> Rect,
{
    let rects: Vec<Rect> = items.iter().map(&rect_of).collect();
    let (s1, s2) = pick_seeds_linear(&rects);
    distribute(items, rects, (s1, s2), min_entries, false)
}

/// Distributes the non-seed items into the two groups. With
/// `pick_next_quadratic` it uses Guttman's `PickNext` (max preference
/// difference); otherwise items are assigned in input order (linear cost).
fn distribute<T>(
    items: Vec<T>,
    rects: Vec<Rect>,
    (s1, s2): (usize, usize),
    min_entries: usize,
    pick_next_quadratic: bool,
) -> (Vec<T>, Vec<T>) {
    let n = items.len();
    let mut assigned = vec![false; n];
    assigned[s1] = true;
    assigned[s2] = true;
    let mut g1_idx = vec![s1];
    let mut g2_idx = vec![s2];
    let mut mbr1 = rects[s1];
    let mut mbr2 = rects[s2];
    let mut remaining = n - 2;

    while remaining > 0 {
        // If one group must absorb everything left to reach min occupancy,
        // short-circuit.
        if g1_idx.len() + remaining == min_entries {
            for (i, a) in assigned.iter_mut().enumerate() {
                if !*a {
                    *a = true;
                    mbr1 = mbr1.union(&rects[i]);
                    g1_idx.push(i);
                }
            }
            break;
        }
        if g2_idx.len() + remaining == min_entries {
            for (i, a) in assigned.iter_mut().enumerate() {
                if !*a {
                    *a = true;
                    mbr2 = mbr2.union(&rects[i]);
                    g2_idx.push(i);
                }
            }
            break;
        }

        let next = if pick_next_quadratic {
            // PickNext: the unassigned entry maximizing |d1 - d2|.
            let mut best = 0usize;
            let mut best_diff = f64::NEG_INFINITY;
            for (i, a) in assigned.iter().enumerate() {
                if *a {
                    continue;
                }
                let d1 = mbr1.enlargement(&rects[i]);
                let d2 = mbr2.enlargement(&rects[i]);
                let diff = (d1 - d2).abs();
                if diff > best_diff {
                    best_diff = diff;
                    best = i;
                }
            }
            best
        } else {
            // Linear: first unassigned in input order.
            #[expect(
                clippy::expect_used,
                reason = "loop condition guarantees remaining > 0 unassigned items"
            )]
            let first = assigned.iter().position(|a| !*a).expect("remaining > 0");
            first
        };

        let d1 = mbr1.enlargement(&rects[next]);
        let d2 = mbr2.enlargement(&rects[next]);
        // Tie-break on smaller area, then fewer entries (Guttman).
        let to_first = match d1.partial_cmp(&d2) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => {
                if mbr1.area() != mbr2.area() {
                    mbr1.area() < mbr2.area()
                } else {
                    g1_idx.len() <= g2_idx.len()
                }
            }
        };
        assigned[next] = true;
        if to_first {
            mbr1 = mbr1.union(&rects[next]);
            g1_idx.push(next);
        } else {
            mbr2 = mbr2.union(&rects[next]);
            g2_idx.push(next);
        }
        remaining -= 1;
    }

    // Materialize the two groups, consuming `items` in one pass.
    let mut where_to = vec![0u8; n];
    for &i in &g2_idx {
        where_to[i] = 1;
    }
    let mut g1 = Vec::with_capacity(g1_idx.len());
    let mut g2 = Vec::with_capacity(g2_idx.len());
    for (i, item) in items.into_iter().enumerate() {
        if where_to[i] == 0 {
            g1.push(item);
        } else {
            g2.push(item);
        }
    }
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rects_line(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = i as f64;
                Rect::new(x, 0.0, x + 0.5, 1.0)
            })
            .collect()
    }

    #[test]
    fn quadratic_split_respects_min_entries() {
        for n in [4usize, 5, 10, 51] {
            let items = rects_line(n);
            let min = 2;
            let (g1, g2) = split(SplitAlgorithm::Quadratic, items, min, |r| *r);
            assert!(g1.len() >= min, "g1 too small: {}", g1.len());
            assert!(g2.len() >= min, "g2 too small: {}", g2.len());
            assert_eq!(g1.len() + g2.len(), n);
        }
    }

    #[test]
    fn linear_split_respects_min_entries() {
        for n in [4usize, 5, 10, 51] {
            let items = rects_line(n);
            let min = 2;
            let (g1, g2) = split(SplitAlgorithm::Linear, items, min, |r| *r);
            assert!(g1.len() >= min);
            assert!(g2.len() >= min);
            assert_eq!(g1.len() + g2.len(), n);
        }
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two well-separated clusters: a sane split puts each cluster in
        // its own group.
        let mut items: Vec<Rect> = (0..5)
            .map(|i| Rect::new(f64::from(i) * 0.01, 0.0, f64::from(i) * 0.01 + 0.005, 0.01))
            .collect();
        items.extend((0..5).map(|i| {
            Rect::new(
                100.0 + f64::from(i) * 0.01,
                0.0,
                100.0 + f64::from(i) * 0.01 + 0.005,
                0.01,
            )
        }));
        for algo in [SplitAlgorithm::Linear, SplitAlgorithm::Quadratic] {
            let (g1, g2) = split(algo, items.clone(), 2, |r| *r);
            let m1 = Rect::mbr_of(g1.iter().copied()).unwrap();
            let m2 = Rect::mbr_of(g2.iter().copied()).unwrap();
            assert!(
                !m1.intersects(&m2),
                "{algo:?} split should separate disjoint clusters"
            );
        }
    }

    #[test]
    fn split_identical_rects_is_balancedish() {
        let items = vec![Rect::new(0.0, 0.0, 1.0, 1.0); 8];
        for algo in [SplitAlgorithm::Linear, SplitAlgorithm::Quadratic] {
            let (g1, g2) = split(algo, items.clone(), 3, |r| *r);
            assert!(g1.len() >= 3 && g2.len() >= 3);
        }
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_too_few_items_panics() {
        let _ = split(SplitAlgorithm::Quadratic, rects_line(3), 2, |r| *r);
    }
}
