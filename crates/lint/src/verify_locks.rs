//! Dynamic lock-order verification — the `verify-locks` subcommand.
//!
//! Clippy's `disallowed_types` pins *how* locks are built (ranked
//! wrappers only) and *how* atomics are ordered (SeqCst only). What runs
//! under a lock crosses function boundaries, which no lint follows, so
//! this module checks it dynamically: it runs a fixed, seeded
//! concurrent workload — stamped mutations, estimates and a
//! mid-workload compaction against an in-process statistics daemon —
//! with `sj_core::sync`'s observe mode on, harvests the global
//! lock-event log, and checks three oracles over what *actually*
//! happened on every thread:
//!
//! 1. **Rank monotonicity** — no thread ever acquired a lock while
//!    holding one of equal or higher [`LockRank`] (a latent deadlock by
//!    DESIGN.md §15's hierarchy).
//! 2. **Acyclic observed order** — the directed graph `held → acquired`
//!    over lock names has no cycle. Redundant with ranks when every
//!    lock is ranked, but it catches hierarchy-table bugs: two locks
//!    given the same rank by mistake still cannot deadlock silently.
//! 3. **No file I/O under the catalog lock** — no `append_wal`,
//!    `sync_file` or `sync_dir` ran on a thread holding a
//!    [`LockRank::Catalog`] lock; an fsync under the catalog lock
//!    stalls every estimate behind disk latency, which is exactly what
//!    the daemon's three-phase pipeline exists to prevent.
//!
//! After the schedule, the daemon's warm `estimate` and
//! `catalog_estimate` answers must also equal, bit for bit, the cold
//! path over the same batches applied serially, for all four ordered
//! pairs of the mutated table and a second table that is never mutated:
//! a resident view or a pair-memo slot (DESIGN.md §16.6) the concurrent
//! commits left stale is reported as a violation too. The workers ask
//! all four pairs every round, so every slot is held when a commit
//! patches the mutated table's row and column: a patch that skipped a
//! slot, or one touched word of it, leaves a stale answer.
//!
//! Every run is deterministic: fixed dataset, fixed batch
//! schedule, fixed thread count. Fault injection (`--inject`)
//! sabotages the *observed process* instead of the oracle — acquiring
//! two deliberately mis-ordered locks, or holding a catalog-ranked
//! lock across a real fsync — to prove the verifier catches both
//! violation classes, mirroring `verify-equivalence`/`verify-recovery`.
//!
//! Observe mode exists only in debug builds (release compiles the
//! wrappers down to bare std locks), so `verify-locks` refuses to
//! pass vacuously when the event log comes back empty.

use crate::report::Format;
use sj_core::sync::{self, LockEvent, LockRank, OrderedMutex};
use sj_geo::{Extent, Rect};
use sj_query::{Catalog, CompactionPolicy, DegradationPolicy, RealStoreIo, StoreIo};
use sj_server::{CatalogService, Client, EstimateReply, RemoteOutcome, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

/// Table name used by the workload.
const TABLE: &str = "locks";
/// A second table the workload estimates against but never mutates.
const FIXED: &str = "fixed";
/// Every ordered pair of the two tables, each its own memo slot.
const PAIRS: [(&str, &str); 4] = [
    (TABLE, TABLE),
    (TABLE, FIXED),
    (FIXED, TABLE),
    (FIXED, FIXED),
];
/// Concurrent client threads.
const THREADS: usize = 3;
/// Base rectangles seeded into the table before the workload.
const BASE_N: usize = 40;
/// Insert-batch size per round.
const BATCH: usize = 4;
/// Workload rounds per thread at `--scale 1.0`.
const BASE_ROUNDS: usize = 4;

/// A deliberately broken *process*, injected via `--inject` so the
/// self-tests can prove the verifier catches real discipline breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockFault {
    /// After the workload, acquire a pair of ranked locks in both
    /// orders — the inverted pass is a textbook rank inversion, and
    /// together the two passes close a cycle in the observed order
    /// graph, exercising both structural oracles.
    InvertRanks,
    /// After the workload, hold a [`LockRank::Catalog`] lock across a
    /// real [`StoreIo::sync_file`] — the fsync-under-catalog hazard.
    HoldAcrossFsync,
}

impl LockFault {
    /// All faults, in report order.
    pub const ALL: [LockFault; 2] = [LockFault::InvertRanks, LockFault::HoldAcrossFsync];

    /// Stable name accepted by `--inject` and used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LockFault::InvertRanks => "invert-ranks",
            LockFault::HoldAcrossFsync => "hold-across-fsync",
        }
    }

    /// Parses an `--inject` argument.
    #[must_use]
    pub fn parse(name: &str) -> Option<LockFault> {
        LockFault::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// The workload the verifier runs.
#[derive(Debug, Clone)]
pub struct LocksConfig {
    /// Scale factor on the per-thread round count (`4` at `1.0`).
    pub scale: f64,
    /// Optional sabotage run after the clean workload.
    pub fault: Option<LockFault>,
}

impl Default for LocksConfig {
    fn default() -> Self {
        LocksConfig {
            scale: 1.0,
            fault: None,
        }
    }
}

/// One oracle violation, localized to the event that proved it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockViolation {
    /// A lock was acquired while an equal-or-higher rank was held.
    RankInversion {
        /// Rank of the acquired lock.
        acquired_rank: LockRank,
        /// Construction-time name of the acquired lock.
        acquired_name: String,
        /// `file:line` of the offending acquisition.
        acquired_site: String,
        /// Rank of the worst lock already held.
        held_rank: LockRank,
        /// Name of that held lock.
        held_name: String,
        /// `file:line` where the held lock was acquired.
        held_site: String,
        /// Ordinal of the offending thread.
        thread: u64,
    },
    /// The observed `held → acquired` order graph has a cycle.
    OrderCycle {
        /// Lock names along the cycle, first repeated last.
        cycle: Vec<String>,
    },
    /// Durable file I/O ran while a catalog-ranked lock was held.
    IoUnderCatalog {
        /// The instrumented operation (`append_wal`, `sync_file`, ...).
        op: String,
        /// Name of the held catalog-ranked lock.
        held_name: String,
        /// `file:line` where that lock was acquired.
        held_site: String,
        /// Ordinal of the offending thread.
        thread: u64,
    },
    /// After the schedule, a warm daemon answer differs from the cold
    /// path over the same batches applied serially.
    StaleAnswer {
        /// The request and its ordered pair (`estimate a b` or
        /// `catalog_estimate a b`).
        request: String,
        /// The daemon's answer.
        warm: String,
        /// The cold path's answer.
        cold: String,
    },
}

impl std::fmt::Display for LockViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockViolation::RankInversion {
                acquired_rank,
                acquired_name,
                acquired_site,
                held_rank,
                held_name,
                held_site,
                thread,
            } => write!(
                f,
                "rank inversion on thread {thread}: acquired {acquired_rank:?} (rank {}) \
                 `{acquired_name}` at {acquired_site} while holding {held_rank:?} (rank {}) \
                 `{held_name}` acquired at {held_site}",
                acquired_rank.level(),
                held_rank.level(),
            ),
            LockViolation::OrderCycle { cycle } => {
                write!(f, "observed lock-order cycle: {}", cycle.join(" -> "))
            }
            LockViolation::IoUnderCatalog {
                op,
                held_name,
                held_site,
                thread,
            } => write!(
                f,
                "blocking `{op}` on thread {thread} while holding catalog-ranked \
                 `{held_name}` acquired at {held_site}"
            ),
            LockViolation::StaleAnswer {
                request,
                warm,
                cold,
            } => write!(
                f,
                "warm `{request}` answered {warm}, but the serial schedule's cold \
                 path answers {cold}"
            ),
        }
    }
}

/// The full verification run.
#[derive(Debug, Clone)]
pub struct LocksReport {
    /// Lock acquisitions observed.
    pub acquires: usize,
    /// Instrumented blocking-I/O operations observed.
    pub ios: usize,
    /// Distinct lock names observed.
    pub locks_seen: usize,
    /// Oracle violations, in event order (cycles, then stale answers,
    /// last).
    pub violations: Vec<LockViolation>,
    /// The sabotage injected after the workload, if any.
    pub fault: Option<LockFault>,
}

impl LocksReport {
    /// Whether the observed run satisfied every oracle.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report in the selected format, mirroring the other
    /// verifiers.
    #[must_use]
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Human => self.render_human(),
            Format::Json => self.render_json(),
        }
    }

    fn render_human(&self) -> String {
        let mut out = String::new();
        if let Some(fault) = self.fault {
            out.push_str(&format!(
                "sj-lint verify-locks: injecting fault `{}` after the workload\n",
                fault.name()
            ));
        }
        for v in &self.violations {
            out.push_str(&format!("error[verify-locks] {v}\n"));
        }
        if self.violations.is_empty() {
            out.push_str(&format!(
                "sj-lint verify-locks: clean ({} acquisitions across {} locks, \
                 {} blocking I/O operations, ranks strictly increasing, order \
                 graph acyclic, no I/O under the catalog lock, warm answers \
                 equal the cold path)\n",
                self.acquires, self.locks_seen, self.ios
            ));
        } else {
            out.push_str(&format!(
                "sj-lint verify-locks: {} violations in {} acquisitions\n",
                self.violations.len(),
                self.acquires
            ));
        }
        out
    }

    fn render_json(&self) -> String {
        use crate::report::escape;
        let mut out = String::from("{\n  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let kind = match v {
                LockViolation::RankInversion { .. } => "rank-inversion",
                LockViolation::OrderCycle { .. } => "order-cycle",
                LockViolation::IoUnderCatalog { .. } => "io-under-catalog",
                LockViolation::StaleAnswer { .. } => "stale-answer",
            };
            out.push_str(&format!(
                "    {{\"kind\": \"{kind}\", \"detail\": \"{}\"}}{}\n",
                escape(&v.to_string()),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"fault\": {},\n",
            self.fault
                .map_or("null".to_string(), |f| format!("\"{}\"", f.name()))
        ));
        out.push_str(&format!("  \"acquires\": {},\n", self.acquires));
        out.push_str(&format!("  \"ios\": {},\n", self.ios));
        out.push_str(&format!("  \"locks_seen\": {},\n", self.locks_seen));
        out.push_str(&format!("  \"clean\": {}\n}}\n", self.is_clean()));
        out
    }
}

/// Deterministic base rectangles for the workload table.
fn base_rects() -> Vec<Rect> {
    (0..BASE_N)
        .map(|i| {
            let x = (i % 8) as f64 * 0.05 + 0.002;
            let y = (i / 8) as f64 * 0.05 + 0.002;
            Rect::new(x, y, x + 0.04, y + 0.04)
        })
        .collect()
}

/// The never-mutated table: a lattice over the whole unit square, so it
/// overlaps every batch the workload inserts.
fn fixed_rects() -> Vec<Rect> {
    (0..36)
        .map(|i| {
            let x = (i % 6) as f64 * 0.16 + 0.01;
            let y = (i / 6) as f64 * 0.16 + 0.01;
            Rect::new(x, y, x + 0.12, y + 0.12)
        })
        .collect()
}

/// Thread `t`'s insert batch for round `r`, confined to the thread's
/// own y-band so batches never collide.
fn thread_batch(t: usize, r: usize) -> Vec<Rect> {
    (0..BATCH)
        .map(|j| {
            let x = (r * BATCH + j) as f64 * 0.02 + 0.001;
            let y = 0.55 + t as f64 * 0.13;
            Rect::new(x, y, x + 0.015, y + 0.015 + j as f64 * 1e-3)
        })
        .collect()
}

/// A catalog holding both tables with no rounds applied.
fn base_catalog() -> Result<Catalog, String> {
    let mut catalog = Catalog::with_level(4);
    for (name, rects) in [(TABLE, base_rects()), (FIXED, fixed_rects())] {
        catalog
            .register(sj_datagen::Dataset::new(name, Extent::unit(), rects))
            .map_err(|e| format!("registering table {name}: {e}"))?;
    }
    Ok(catalog)
}

/// The daemon's answers for each of [`PAIRS`] after the concurrent
/// schedule, in that order.
type WarmAnswers = Vec<(EstimateReply, RemoteOutcome)>;

/// Compares the warm answers with the cold path over the same batches
/// applied on a serial schedule: `estimate_join` decodes fresh views
/// from the serial catalog's histograms. Histogram statistics are exact
/// sums, so any interleaving of the batches folds to the same bytes.
fn stale_answers(rounds: usize, warm: &WarmAnswers) -> Result<Vec<LockViolation>, String> {
    let mut serial = base_catalog()?;
    for t in 0..THREADS {
        for r in 0..rounds {
            serial
                .apply_delta(TABLE, &thread_batch(t, r), &[])
                .map_err(|e| format!("serial schedule: insert: {e}"))?;
            if r >= 2 {
                let earlier = thread_batch(t, r - 2);
                serial
                    .apply_delta(TABLE, &[], &earlier[..BATCH / 2])
                    .map_err(|e| format!("serial schedule: delete: {e}"))?;
            }
        }
    }
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
    let mut stale = Vec::new();
    for ((a, b), (estimate, outcome)) in PAIRS.into_iter().zip(warm) {
        let histogram = |name| {
            serial
                .histogram(name)
                .map_err(|e| format!("serial schedule: {e}"))
        };
        let cold = histogram(a)?
            .estimate_join(histogram(b)?)
            .map_err(|e| format!("cold estimate: {e}"))?;
        let ladder = serial
            .estimate_join_pairs_detailed(a, b, &DegradationPolicy::default())
            .map_err(|e| format!("cold catalog estimate: {e}"))?;
        // The ladder's provenance, carrying the cold numbers.
        let cold_outcome = RemoteOutcome {
            pairs: cold.pairs,
            selectivity: cold.selectivity,
            ..RemoteOutcome::from_outcome(&ladder)
        };
        if !same(estimate.pairs, cold.pairs) || !same(estimate.selectivity, cold.selectivity) {
            stale.push(LockViolation::StaleAnswer {
                request: format!("estimate {a} {b}"),
                warm: format!("{estimate:?}"),
                cold: format!("{cold:?}"),
            });
        }
        if *outcome != cold_outcome
            || !same(outcome.pairs, cold.pairs)
            || !same(outcome.selectivity, cold.selectivity)
        {
            stale.push(LockViolation::StaleAnswer {
                request: format!("catalog_estimate {a} {b}"),
                warm: format!("{outcome:?}"),
                cold: format!("{cold_outcome:?}"),
            });
        }
    }
    Ok(stale)
}

/// The statistics directory the workload writes under — scoped by pid
/// so parallel CI jobs cannot collide, and recreated fresh every run.
fn workload_dir() -> PathBuf {
    std::env::temp_dir().join(format!("sj-verify-locks-{}", std::process::id()))
}

/// Runs the seeded concurrent workload against an in-process daemon
/// with observe mode on, and returns the harvested event log and the
/// daemon's answers after the schedule.
fn run_workload(rounds: usize) -> Result<(Vec<LockEvent>, WarmAnswers), String> {
    let dir = workload_dir();
    let _ = std::fs::remove_dir_all(&dir);

    let mut catalog = base_catalog()?;
    catalog
        .open_stats_store(&dir, CompactionPolicy::default())
        .map_err(|e| format!("attaching the statistics store: {e}"))?;

    let catalog = Arc::new(sync::OrderedRwLock::new(
        LockRank::Catalog,
        "verify-locks.catalog",
        catalog,
    ));
    let service = CatalogService::new(Arc::clone(&catalog), DegradationPolicy::default());
    let server =
        Arc::new(Server::bind("127.0.0.1:0", service).map_err(|e| format!("binding: {e}"))?);
    let addr = server
        .local_addr()
        .map_err(|e| format!("reading the bound address: {e}"))?;
    let run = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };

    sync::set_observe(true);
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = Client::connect_with_retry(addr)
                    .map_err(|e| format!("thread {t}: connect: {e}"))?;
                for r in 0..rounds {
                    let batch = thread_batch(t, r);
                    client
                        .insert_batch_with_retry(TABLE, &batch)
                        .map_err(|e| format!("thread {t} round {r}: insert: {e}"))?;
                    for (a, b) in PAIRS {
                        client
                            .estimate(a, b)
                            .map_err(|e| format!("thread {t} round {r}: estimate: {e}"))?;
                    }
                    if r + 1 == rounds / 2 && t == 0 {
                        // Mid-workload compaction while the other
                        // threads keep mutating and estimating.
                        client
                            .compact(TABLE)
                            .map_err(|e| format!("thread {t} round {r}: compact: {e}"))?;
                    }
                    if r >= 2 {
                        let earlier = thread_batch(t, r - 2);
                        client
                            .delete_batch_with_retry(TABLE, &earlier[..BATCH / 2])
                            .map_err(|e| format!("thread {t} round {r}: delete: {e}"))?;
                    }
                }
                Ok(())
            })
        })
        .collect();
    let mut worker_err = None;
    for w in workers {
        match w.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => worker_err = Some(e),
            Err(_) => worker_err = Some("a workload thread panicked".to_string()),
        }
    }
    let warm = Client::connect(addr)
        .and_then(|mut client| {
            PAIRS
                .into_iter()
                .map(|(a, b)| Ok((client.estimate(a, b)?, client.catalog_estimate(a, b)?)))
                .collect::<Result<WarmAnswers, _>>()
        })
        .map_err(|e| format!("warm answers after the schedule: {e}"));
    server.initiate_shutdown();
    // Unblock the accept loop so the run thread exits.
    drop(Client::connect(addr));
    let run_result = run.join();

    sync::set_observe(false);
    let events = sync::take_events();
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(e) = worker_err {
        return Err(format!("workload failed: {e}"));
    }
    match run_result {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("server loop failed: {e}")),
        Err(_) => return Err("server thread panicked".to_string()),
    }
    Ok((events, warm?))
}

/// Injects the selected sabotage while observe mode records it,
/// appending its events to `events`.
fn inject(fault: LockFault, events: &mut Vec<LockEvent>) -> Result<(), String> {
    sync::set_observe(true);
    let result = match fault {
        LockFault::InvertRanks => {
            let hi = OrderedMutex::new(LockRank::WalFile, "inject.wal-file", ());
            let lo = OrderedMutex::new(LockRank::Catalog, "inject.catalog", ());
            {
                // One well-ordered pass records the forward edge...
                let _lo = lo.lock();
                let _hi = hi.lock();
            }
            // ...then the inverted pass both breaks rank monotonicity
            // and closes a cycle in the observed order graph. Observe
            // mode records the inversion instead of panicking.
            let _hi = hi.lock();
            let _lo = lo.lock();
            Ok(())
        }
        LockFault::HoldAcrossFsync => {
            let dir = workload_dir();
            let io = RealStoreIo;
            let path = dir.join("inject.fsync");
            io.create_dir_all(&dir)
                .and_then(|()| io.write(&path, b"sabotage"))
                .map_err(|e| format!("preparing the fsync sabotage file: {e}"))?;
            let lock = OrderedMutex::new(LockRank::Catalog, "inject.catalog", ());
            let guard = lock.lock();
            // Deliberate: this fsync under a catalog-ranked guard is what
            // the oracle must catch.
            let synced = io.sync_file(&path);
            drop(guard);
            let _ = std::fs::remove_dir_all(&dir);
            synced.map_err(|e| format!("fsync sabotage failed to sync: {e}"))
        }
    };
    sync::set_observe(false);
    events.extend(sync::take_events());
    result
}

/// Durable-I/O operations that must never run under the catalog lock.
const GUARDED_IO_OPS: [&str; 3] = ["append_wal", "sync_file", "sync_dir"];

/// Runs the three oracles over a harvested event log.
fn analyze(events: &[LockEvent], fault: Option<LockFault>) -> LocksReport {
    let mut violations = Vec::new();
    let mut acquires = 0usize;
    let mut ios = 0usize;
    let mut names: BTreeSet<&str> = BTreeSet::new();
    // Observed order graph: an edge `held -> acquired` for every
    // acquisition made while `held` was held.
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();

    for event in events {
        match event {
            LockEvent::Acquire {
                rank,
                name,
                site,
                held,
                thread,
            } => {
                acquires += 1;
                names.insert(name);
                for h in held {
                    names.insert(h.name);
                    if h.name != *name {
                        edges.entry(h.name).or_default().insert(name);
                    }
                }
                if let Some(worst) = held
                    .iter()
                    .filter(|h| h.rank >= *rank)
                    .max_by_key(|h| h.rank)
                {
                    violations.push(LockViolation::RankInversion {
                        acquired_rank: *rank,
                        acquired_name: (*name).to_string(),
                        acquired_site: site.clone(),
                        held_rank: worst.rank,
                        held_name: worst.name.to_string(),
                        held_site: worst.site.clone(),
                        thread: *thread,
                    });
                }
            }
            LockEvent::BlockingIo { op, held, thread } => {
                ios += 1;
                if !GUARDED_IO_OPS.contains(&op.as_str()) {
                    continue;
                }
                if let Some(h) = held.iter().find(|h| h.rank == LockRank::Catalog) {
                    violations.push(LockViolation::IoUnderCatalog {
                        op: op.clone(),
                        held_name: h.name.to_string(),
                        held_site: h.site.clone(),
                        thread: *thread,
                    });
                }
            }
        }
    }

    if let Some(cycle) = find_cycle(&edges) {
        violations.push(LockViolation::OrderCycle { cycle });
    }

    LocksReport {
        acquires,
        ios,
        locks_seen: names.len(),
        violations,
        fault,
    }
}

/// Finds one cycle in the observed order graph, if any, as a name path
/// with the entry node repeated at the end. Deterministic: nodes and
/// successors are visited in name order.
fn find_cycle(edges: &BTreeMap<&str, BTreeSet<&str>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Open,
        Done,
    }
    fn visit<'a>(
        node: &'a str,
        edges: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        path: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        match marks.get(node) {
            Some(Mark::Done) => return None,
            Some(Mark::Open) => {
                let start = path.iter().position(|n| *n == node).unwrap_or(0);
                let mut cycle: Vec<String> =
                    path[start..].iter().map(|n| (*n).to_string()).collect();
                cycle.push(node.to_string());
                return Some(cycle);
            }
            None => {}
        }
        marks.insert(node, Mark::Open);
        path.push(node);
        if let Some(next) = edges.get(node) {
            for n in next {
                if let Some(cycle) = visit(n, edges, marks, path) {
                    return Some(cycle);
                }
            }
        }
        path.pop();
        marks.insert(node, Mark::Done);
        None
    }
    let mut marks = BTreeMap::new();
    for node in edges.keys() {
        let mut path = Vec::new();
        if let Some(cycle) = visit(node, edges, &mut marks, &mut path) {
            return Some(cycle);
        }
    }
    None
}

/// Runs the workload (plus any injected sabotage) and the oracles.
///
/// # Errors
/// A message when the configuration is invalid, the workload itself
/// fails, or the build carries no lock instrumentation (release).
pub fn run_verify_locks(config: &LocksConfig) -> Result<LocksReport, String> {
    if config.scale <= 0.0 || !config.scale.is_finite() {
        return Err("--scale must be a positive, finite number".to_string());
    }
    let rounds = ((BASE_ROUNDS as f64 * config.scale).round() as usize).max(2);
    let (mut events, warm) = run_workload(rounds)?;
    if let Some(fault) = config.fault {
        inject(fault, &mut events)?;
    }
    if events.is_empty() {
        return Err(
            "no lock events were recorded — verify-locks needs the debug-build \
             instrumentation (run via `cargo run -p sj-lint` without --release)"
                .to_string(),
        );
    }
    let mut report = analyze(&events, config.fault);
    report.violations.extend(stale_answers(rounds, &warm)?);
    Ok(report)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the test-serialization lock must stay outside the ranked hierarchy the tests observe"
)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Observe mode is process-global: every test that toggles it runs
    /// under this lock (poison tolerated so one failure doesn't cascade).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Release builds compile observe mode out, so a run records no lock
    /// events and must say so. Returns `true` there, after checking that
    /// error, so the caller skips the oracles that need the events.
    fn compiled_out(config: &LocksConfig) -> bool {
        if cfg!(debug_assertions) {
            return false;
        }
        let err = run_verify_locks(config).expect_err("release builds record no lock events");
        assert!(err.contains("no lock events were recorded"), "{err}");
        true
    }

    #[test]
    fn fault_names_round_trip() {
        for fault in LockFault::ALL {
            assert_eq!(LockFault::parse(fault.name()), Some(fault));
        }
        assert_eq!(LockFault::parse("no-such-fault"), None);
    }

    #[test]
    fn clean_workload_satisfies_every_oracle() {
        let _serial = serial();
        if compiled_out(&LocksConfig::default()) {
            return;
        }
        let report = run_verify_locks(&LocksConfig::default()).expect("verify-locks run");
        assert!(
            report.is_clean(),
            "clean workload must verify: {}",
            report.render(Format::Human)
        );
        assert!(report.acquires > 0, "the workload must acquire locks");
        assert!(report.ios > 0, "the workload must hit the WAL");
        assert!(report.locks_seen >= 4, "conns/pipeline/catalog/wal_io");
    }

    #[test]
    fn invert_ranks_sabotage_is_caught() {
        let _serial = serial();
        let config = LocksConfig {
            fault: Some(LockFault::InvertRanks),
            ..LocksConfig::default()
        };
        if compiled_out(&config) {
            return;
        }
        let report = run_verify_locks(&config).expect("verify-locks run");
        assert!(!report.is_clean(), "the inversion must be caught");
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                LockViolation::RankInversion {
                    acquired_rank: LockRank::Catalog,
                    held_rank: LockRank::WalFile,
                    ..
                }
            )),
            "localized to the injected pair: {:?}",
            report.violations
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, LockViolation::OrderCycle { .. })),
            "the inverted pair also closes a cycle against the pipeline order"
        );
    }

    #[test]
    fn hold_across_fsync_sabotage_is_caught() {
        let _serial = serial();
        let config = LocksConfig {
            fault: Some(LockFault::HoldAcrossFsync),
            ..LocksConfig::default()
        };
        if compiled_out(&config) {
            return;
        }
        let report = run_verify_locks(&config).expect("verify-locks run");
        assert!(!report.is_clean(), "the held fsync must be caught");
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                LockViolation::IoUnderCatalog { op, .. } if op == "sync_file"
            )),
            "localized to the fsync: {:?}",
            report.violations
        );
    }

    #[test]
    fn cycle_detection_reports_a_closed_path() {
        let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        edges.entry("a").or_default().insert("b");
        edges.entry("b").or_default().insert("c");
        edges.entry("c").or_default().insert("a");
        let cycle = find_cycle(&edges).expect("cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 4, "{cycle:?}");
        let acyclic: BTreeMap<&str, BTreeSet<&str>> = [
            ("a", BTreeSet::from(["b", "c"])),
            ("b", BTreeSet::from(["c"])),
        ]
        .into_iter()
        .collect();
        assert_eq!(find_cycle(&acyclic), None);
    }

    #[test]
    fn scale_must_be_positive_and_finite() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = LocksConfig {
                scale: bad,
                ..LocksConfig::default()
            };
            assert!(run_verify_locks(&config).is_err(), "scale {bad}");
        }
    }
}
