//! The three workloads as seeded operation schedules, the expected
//! answer of every operation, and the closed loop that drives the live
//! daemon over one connection and checks each reply.

use crate::calib::Probe;
use crate::daemon::CpuMeter;
use crate::data::{mix, Inputs, BATCHES_PER_TABLE, BATCH_RECTS};
use crate::stats::Trace;
use crate::trace::SETUP_REQUEST;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_core::sync::{LockRank, OrderedRwLock};
use sj_query::{Catalog, DegradationPolicy, MutationId};
use sj_server::{CatalogService, Client, EstimateReply, StatisticsService};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pairs per `batch_estimate` frame.
pub const BATCH_PAIRS: usize = 64;

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `estimate` per request.
    EstimateSingle,
    /// `batch_estimate` frames of [`BATCH_PAIRS`] pairs.
    EstimateBatch,
    /// Insert, estimates, inverse delete, estimates.
    IngestMixed,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "estimate-single" => Some(Self::EstimateSingle),
            "estimate-batch" => Some(Self::EstimateBatch),
            "ingest-mixed" => Some(Self::IngestMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::EstimateSingle => "estimate-single",
            Self::EstimateBatch => "estimate-batch",
            Self::IngestMixed => "ingest-mixed",
        }
    }
}

/// One client request. Tables and batches are indices into [`Inputs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Estimate `a ⋈ b`; `inserted` names the batch `(table, batch)`
    /// currently inserted, or `None` when every table is at its base.
    Estimate {
        a: usize,
        b: usize,
        inserted: Option<(usize, usize)>,
    },
    /// One `batch_estimate` frame over base tables.
    Batch(Vec<(usize, usize)>),
    /// Insert batch `b` into table `t`.
    Insert { t: usize, b: usize },
    /// Delete batch `b` from table `t` again.
    Delete { t: usize, b: usize },
}

impl Op {
    /// Operations the request counts as: estimate items or one mutation.
    pub fn items(&self) -> u64 {
        match self {
            Op::Batch(pairs) => pairs.len() as u64,
            _ => 1,
        }
    }
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.random_range(0..=i));
    }
    p
}

/// The seeded order in which all ordered table pairs are visited.
pub fn pair_order(tables: usize, seed: u64) -> Vec<(usize, usize)> {
    permutation(tables * tables, mix(seed, 0xA11))
        .into_iter()
        .map(|k| (k / tables, k % tables))
        .collect()
}

/// One period of the workload's operation sequence; runs repeat it.
pub fn round(workload: Workload, tables: usize, seed: u64) -> Vec<Op> {
    let pairs = pair_order(tables, seed);
    let est = |&(a, b): &(usize, usize)| Op::Estimate {
        a,
        b,
        inserted: None,
    };
    match workload {
        Workload::EstimateSingle => pairs.iter().map(est).collect(),
        Workload::EstimateBatch => vec![Op::Batch(
            pairs.iter().copied().cycle().take(BATCH_PAIRS).collect(),
        )],
        Workload::IngestMixed => {
            let order = permutation(tables, mix(seed, 0xB22));
            let mut ops = Vec::new();
            for b in 0..BATCHES_PER_TABLE {
                for &t in &order {
                    let touching: Vec<(usize, usize)> = pairs
                        .iter()
                        .copied()
                        .filter(|&(x, y)| x == t || y == t)
                        .collect();
                    ops.push(Op::Insert { t, b });
                    ops.extend(touching.iter().map(|&(a, bb)| Op::Estimate {
                        a,
                        b: bb,
                        inserted: Some((t, b)),
                    }));
                    ops.push(Op::Delete { t, b });
                    ops.extend(touching.iter().map(est));
                }
            }
            ops
        }
    }
}

/// The mutation-only round run after the estimate workloads' timed
/// window: every batch inserted and deleted once.
pub fn mutation_round(tables: usize, seed: u64) -> Vec<Op> {
    let order = permutation(tables, mix(seed, 0xB22));
    (0..BATCHES_PER_TABLE)
        .flat_map(|b| {
            order
                .iter()
                .flat_map(move |&t| [Op::Insert { t, b }, Op::Delete { t, b }])
        })
        .collect()
}

/// Every answer the workloads can expect, computed on a cold in-process
/// catalog built from the same CSVs at the same level.
pub struct Expected {
    /// `base[a][b]`: the estimate with every table at its base.
    pub base: Vec<Vec<EstimateReply>>,
    /// Answers while batch `(t, b)` is inserted, for pairs touching `t`.
    pub inserted: BTreeMap<(usize, usize, usize, usize), EstimateReply>,
}

impl Expected {
    /// The answer `op` must receive, for an estimate op.
    pub fn of(&self, a: usize, b: usize, inserted: Option<(usize, usize)>) -> EstimateReply {
        match inserted {
            Some((t, batch)) if a == t || b == t => self.inserted[&(t, batch, a, b)],
            _ => self.base[a][b],
        }
    }
}

/// Loads the CSVs into a catalog exactly as `sjsel serve` does, with a
/// span around each load and each registration.
pub fn load_catalog(inputs: &Inputs, trace: &mut Trace) -> Result<Catalog, String> {
    let mut catalog = Catalog::with_level(crate::daemon::LEVEL);
    for csv in &inputs.csvs {
        let (ds, _) = trace
            .span("setup.csv_load", None, SETUP_REQUEST, |_, _| {
                sj_datagen::Dataset::load_csv_validated(csv, Default::default(), None)
            })
            .map_err(|e| format!("loading {}: {e}", csv.display()))?;
        trace
            .span("setup.register", None, SETUP_REQUEST, |_, _| {
                catalog.register(ds)
            })
            .map_err(|e| format!("registering {}: {e}", csv.display()))?;
    }
    Ok(catalog)
}

/// Wraps a catalog the way the daemon does.
pub fn service(catalog: Catalog, name: &'static str) -> CatalogService {
    CatalogService::new(
        Arc::new(OrderedRwLock::new(LockRank::Catalog, name, catalog)),
        DegradationPolicy::default(),
    )
}

/// Computes every expected answer; also checks, in process, that each
/// inverse delete restores the base answers bit for bit.
pub fn expected(inputs: &Inputs) -> Result<Expected, String> {
    let svc = service(
        load_catalog(inputs, &mut Trace::new())?,
        "perfbench.reference",
    );
    let names = &inputs.names;
    let n = names.len();
    let est = |a: usize, b: usize| {
        svc.estimate(&names[a], &names[b])
            .map_err(|e| format!("reference estimate {}⋈{}: {e}", names[a], names[b]))
    };
    let mut base = vec![Vec::with_capacity(n); n];
    for (a, row) in base.iter_mut().enumerate() {
        for b in 0..n {
            row.push(est(a, b)?);
        }
    }
    let mut inserted = BTreeMap::new();
    for t in 0..n {
        for (b, batch) in inputs.batches[t].iter().enumerate() {
            svc.insert_batch(&names[t], batch, MutationId::UNSTAMPED)
                .map_err(|e| format!("reference insert: {e}"))?;
            for x in 0..n {
                for (a, bb) in [(t, x), (x, t)] {
                    inserted.insert((t, b, a, bb), est(a, bb)?);
                }
            }
            svc.delete_batch(&names[t], batch, MutationId::UNSTAMPED)
                .map_err(|e| format!("reference delete: {e}"))?;
            for x in 0..n {
                for (a, bb) in [(t, x), (x, t)] {
                    if !same(&est(a, bb)?, &base[a][bb]) {
                        return Err(format!(
                            "reference: deleting batch {b} of {} did not restore {}⋈{}",
                            names[t], names[a], names[bb]
                        ));
                    }
                }
            }
        }
    }
    Ok(Expected { base, inserted })
}

/// Bit-for-bit equality of two replies.
pub fn same(x: &EstimateReply, y: &EstimateReply) -> bool {
    x.selectivity.to_bits() == y.selectivity.to_bits() && x.pairs.to_bits() == y.pairs.to_bits()
}

/// Outcome counts and latency samples of a stretch of requests.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (estimate items and mutations).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Estimate items answered.
    pub estimates: u64,
    /// Mutations applied.
    pub mutations: u64,
    /// Latency of each estimate request (a batch frame is one), µs.
    pub estimate_us: Vec<f64>,
    /// Latency of each insert request, µs.
    pub insert_us: Vec<f64>,
    /// Latency of each delete request, µs.
    pub delete_us: Vec<f64>,
    /// Daemon CPU time of each mutation, µs (when metered).
    pub mutation_cpu_us: Vec<f64>,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, items: u64, why: String) {
        self.failed += items;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }

    /// Folds another tally's counts and samples into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.estimates += other.estimates;
        self.mutations += other.mutations;
        self.estimate_us.extend(other.estimate_us);
        self.insert_us.extend(other.insert_us);
        self.delete_us.extend(other.delete_us);
        self.mutation_cpu_us.extend(other.mutation_cpu_us);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Sends `op` over `client`, checks the reply, and records it in
/// `tally`; with a `meter`, also the daemon CPU time a mutation took.
pub fn drive(
    client: &mut Client,
    op: &Op,
    inputs: &Inputs,
    expect: &Expected,
    tally: &mut Tally,
    meter: Option<CpuMeter>,
) {
    let names = &inputs.names;
    tally.attempted += op.items();
    match op {
        Op::Estimate { a, b, inserted } => {
            let start = Instant::now();
            let reply = client.estimate(&names[*a], &names[*b]);
            let took = start.elapsed();
            match reply {
                Ok(r) if same(&r, &expect.of(*a, *b, *inserted)) => {
                    tally.estimates += 1;
                    tally.estimate_us.push(took.as_secs_f64() * 1e6);
                }
                Ok(r) => tally.fail(
                    1,
                    format!("{}⋈{}: wrong answer {r:?}", names[*a], names[*b]),
                ),
                Err(e) => tally.fail(1, format!("{}⋈{}: {e}", names[*a], names[*b])),
            }
        }
        Op::Batch(pairs) => {
            let request: Vec<(String, String)> = pairs
                .iter()
                .map(|&(a, b)| (names[a].clone(), names[b].clone()))
                .collect();
            let start = Instant::now();
            let reply = client.batch_estimate(&request);
            let took = start.elapsed();
            match reply {
                Ok(items) if items.len() == pairs.len() => {
                    let mut ok = 0;
                    for (item, &(a, b)) in items.iter().zip(pairs) {
                        match item {
                            Ok(r) if same(r, &expect.base[a][b]) => ok += 1,
                            other => tally.fail(
                                1,
                                format!("batch item {}⋈{}: {other:?}", names[a], names[b]),
                            ),
                        }
                    }
                    tally.estimates += ok;
                    tally.estimate_us.push(took.as_secs_f64() * 1e6);
                }
                Ok(items) => tally.fail(
                    op.items(),
                    format!("batch of {} answered {} items", pairs.len(), items.len()),
                ),
                Err(e) => tally.fail(op.items(), format!("batch: {e}")),
            }
        }
        Op::Insert { t, b } | Op::Delete { t, b } => {
            let batch = &inputs.batches[*t][*b];
            let insert = matches!(op, Op::Insert { .. });
            let cpu_before = meter.map(CpuMeter::cpu_us);
            let start = Instant::now();
            let reply = if insert {
                client.insert_batch(&names[*t], batch)
            } else {
                client.delete_batch(&names[*t], batch)
            };
            let took = start.elapsed();
            if let (Some(Ok(before)), Some(meter)) = (cpu_before, meter) {
                if let Ok(after) = meter.cpu_us() {
                    tally.mutation_cpu_us.push(after - before);
                }
            }
            match reply {
                Ok(r) if r.applied as usize == BATCH_RECTS && !r.deduplicated => {
                    tally.mutations += 1;
                    let samples = if insert {
                        &mut tally.insert_us
                    } else {
                        &mut tally.delete_us
                    };
                    samples.push(took.as_secs_f64() * 1e6);
                }
                Ok(r) => tally.fail(1, format!("{op:?}: unexpected reply {r:?}")),
                Err(e) => tally.fail(1, format!("{op:?}: {e}")),
            }
        }
    }
}

/// A pass over all ordered pairs, checked but not timed.
pub fn warm_up(
    client: &mut Client,
    inputs: &Inputs,
    expect: &Expected,
    seed: u64,
    tally: &mut Tally,
) {
    for (a, b) in pair_order(inputs.names.len(), seed) {
        let op = Op::Estimate {
            a,
            b,
            inserted: None,
        };
        drive(client, &op, inputs, expect, tally, None);
    }
}

/// Repeats `ops` in a closed loop for `window`, stopping early only at
/// a round boundary when `whole_rounds` is set, with a host-speed probe
/// pass every [`PROBE_EVERY`]. Returns the tally and the wall time the
/// requests took (probe passes excluded); fails only if the probe does.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    client: &mut Client,
    ops: &[Op],
    inputs: &Inputs,
    expect: &Expected,
    window: Duration,
    whole_rounds: bool,
    probe: &mut Probe,
    meter: Option<CpuMeter>,
) -> Result<(Tally, Duration), String> {
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut probing = Duration::ZERO;
    'rounds: loop {
        for op in ops {
            if !whole_rounds && start.elapsed() >= window + probing {
                break 'rounds;
            }
            drive(client, op, inputs, expect, &mut tally, meter);
            probing += probe.tick(PROBE_EVERY)?;
        }
        if start.elapsed() >= window + probing {
            break;
        }
    }
    Ok((tally, start.elapsed() - probing))
}

/// How often the closed loop pauses for a host-speed probe pass.
pub const PROBE_EVERY: Duration = Duration::from_millis(20);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_cover_every_pair_and_undo_every_insert() {
        let single = round(Workload::EstimateSingle, 4, 9);
        assert_eq!(single.len(), 16);
        let mut seen: Vec<(usize, usize)> = single
            .iter()
            .map(|op| match op {
                Op::Estimate { a, b, .. } => (*a, *b),
                other => panic!("{other:?}"),
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 16);
        assert_ne!(pair_order(4, 9), pair_order(4, 10));

        let Op::Batch(pairs) = &round(Workload::EstimateBatch, 4, 9)[0] else {
            panic!("batch round")
        };
        assert_eq!(pairs.len(), BATCH_PAIRS);

        let mixed = round(Workload::IngestMixed, 4, 9);
        let mutations = mixed
            .iter()
            .filter(|op| op.items() == 1 && !matches!(op, Op::Estimate { .. }))
            .count();
        assert_eq!(mutations, 2 * 4 * BATCHES_PER_TABLE);
        // Each insert is followed by the 7 estimates touching its table,
        // then its own delete.
        for (i, op) in mixed.iter().enumerate() {
            if let Op::Insert { t, b } = op {
                for e in &mixed[i + 1..i + 8] {
                    let Op::Estimate { a, b: bb, inserted } = e else {
                        panic!("{e:?}")
                    };
                    assert!(*a == *t || *bb == *t);
                    assert_eq!(*inserted, Some((*t, *b)));
                }
                assert_eq!(mixed[i + 8], Op::Delete { t: *t, b: *b });
            }
        }
        assert_eq!(mutation_round(4, 9).len(), 2 * 4 * BATCHES_PER_TABLE);
    }
}
