//! The traced run: the same seeded operations, each sent to the live
//! daemon and replayed in process through the public functions of
//! sj-server, sj-query, sj-histogram and sj-core::sync, with a span
//! around every call. Spans are recorded here, around the calls into
//! each layer; the program itself is not instrumented.

use crate::daemon::{self, Daemon};
use crate::data::Inputs;
use crate::stats::{self, median, Trace};
use crate::workload::{self, drive, same, Expected, Op, Tally, Workload};
use crate::{calib, Args, Report};
use sj_core::sync::{LockRank, OrderedRwLock};
use sj_histogram::kernel::GhView;
use sj_query::{Catalog, CompactionPolicy, MutationId, PreparedOutcome, RealStoreIo, StoreIo};
use sj_server::{handle_request, wire, CatalogService, Frame, Opcode};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`StoreIo`] that counts what the store asks of the filesystem.
#[derive(Default)]
pub struct CountingIo {
    inner: RealStoreIo,
    fsyncs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingIo {
    /// `(fsyncs, bytes written)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.fsyncs.load(Ordering::SeqCst),
            self.bytes.load(Ordering::SeqCst),
        )
    }
}

impl StoreIo for CountingIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn append_wal(&self, path: &Path, record: &[u8]) -> std::io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::SeqCst);
        self.bytes.fetch_add(record.len() as u64, Ordering::SeqCst);
        self.inner.append_wal(path, record)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::SeqCst);
        self.inner.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::SeqCst);
        self.inner.sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::SeqCst);
        self.inner.sync_dir(dir)
    }
}

/// `ping`s timed in a traced run.
const PINGS: u64 = 400;
/// Host-speed probe passes before a traced run's rounds (for `host.probe_us`).
const PROBE_PASSES: usize = 25;

/// Request id of set-up spans, apart from every operation's.
pub const SETUP_REQUEST: u64 = u64::MAX;

/// Builds a catalog from the CSVs the way `sjsel serve` does, with a
/// span around each set-up layer, and attaches a statistics store in
/// `stats_dir` through `io`.
pub fn build_catalog(
    trace: &mut Trace,
    inputs: &Inputs,
    stats_dir: &Path,
    io: Arc<dyn StoreIo>,
) -> Result<Catalog, String> {
    let mut catalog = workload::load_catalog(inputs, trace)?;
    trace
        .span("setup.store_open", None, SETUP_REQUEST, |_, _| {
            catalog.open_stats_store_with_io(stats_dir, CompactionPolicy::default(), io)
        })
        .map_err(|e| format!("opening the statistics store: {e}"))?;
    Ok(catalog)
}

/// The request frame the client sends for `op` (payloads as
/// `sj_server::Client` encodes them).
pub fn request_frame(op: &Op, inputs: &Inputs, seq: u64) -> Frame {
    let names = &inputs.names;
    let mut p = Vec::new();
    match op {
        Op::Estimate { a, b, .. } => {
            wire::put_str(&mut p, &names[*a]);
            wire::put_str(&mut p, &names[*b]);
            Frame::request(Opcode::Estimate, p)
        }
        Op::Batch(pairs) => {
            wire::put_u16(&mut p, pairs.len() as u16);
            for &(a, b) in pairs {
                wire::put_str(&mut p, &names[a]);
                wire::put_str(&mut p, &names[b]);
            }
            Frame::request(Opcode::BatchEstimate, p)
        }
        Op::Insert { t, b } | Op::Delete { t, b } => {
            let batch = &inputs.batches[*t][*b];
            wire::put_str(&mut p, &names[*t]);
            wire::put_u64(&mut p, 0x7065_7266); // token: "perf"
            wire::put_u64(&mut p, seq);
            wire::put_u32(&mut p, batch.len() as u32);
            for r in batch {
                for v in [r.xlo, r.ylo, r.xhi, r.yhi] {
                    wire::put_f64(&mut p, v);
                }
            }
            let opcode = if matches!(op, Op::Insert { .. }) {
                Opcode::InsertBatch
            } else {
                Opcode::DeleteBatch
            };
            Frame::request(opcode, p)
        }
    }
}

/// Replays `op` through the wire codec and `handle_request` on an
/// in-process service, one span per call. Returns an error when the
/// handler does not answer OK.
pub fn replay_handler(
    trace: &mut Trace,
    svc: &CatalogService,
    op: &Op,
    inputs: &Inputs,
    request: u64,
) -> Result<(), String> {
    let frame = request_frame(op, inputs, request + 1);
    let bytes = trace.span("wire.encode", None, request, |_, _| frame.to_bytes());
    let decoded = trace
        .span("wire.decode", None, request, |_, _| {
            Frame::from_bytes(&bytes)
        })
        .map_err(|e| format!("decoding the request: {e}"))?;
    let (reply, _) = trace.span("server.handle", None, request, |_, _| {
        handle_request(svc, &decoded)
    });
    let reply_bytes = trace.span("wire.encode", None, request, |_, _| reply.to_bytes());
    let reply = trace
        .span("wire.decode", None, request, |_, _| {
            Frame::from_bytes(&reply_bytes)
        })
        .map_err(|e| format!("decoding the reply: {e}"))?;
    match reply.payload.first() {
        Some(&sj_server::status::OK) => Ok(()),
        other => Err(format!(
            "in-process handler answered status {other:?} to {op:?}"
        )),
    }
}

/// What the layer replay observed that must repeat exactly.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Occupied cells of both views, per estimate.
    pub occupied: Vec<u64>,
    /// Mutations replayed.
    pub mutations: u64,
    /// Compactions the mutations triggered.
    pub compactions: u64,
    /// Store fsyncs (WAL appends count one each).
    pub fsyncs: u64,
    /// Bytes the store wrote.
    pub bytes: u64,
}

/// A catalog behind the daemon's lock, replayed layer by layer.
pub struct Layers {
    catalog: OrderedRwLock<Catalog>,
    io: Arc<CountingIo>,
    /// Counts since construction.
    pub counts: Counts,
}

impl Layers {
    /// A fresh catalog over `inputs` with a counting store in `stats_dir`.
    pub fn new(trace: &mut Trace, inputs: &Inputs, stats_dir: &Path) -> Result<Self, String> {
        let io = Arc::new(CountingIo::default());
        let catalog = build_catalog(
            trace,
            inputs,
            stats_dir,
            Arc::clone(&io) as Arc<dyn StoreIo>,
        )?;
        Ok(Self {
            catalog: OrderedRwLock::new(LockRank::Catalog, "perfbench.layers", catalog),
            io,
            counts: Counts::default(),
        })
    }

    /// Replays `op` the way `CatalogService` runs it, one span per layer,
    /// and checks estimates against `expect`.
    pub fn replay(
        &mut self,
        trace: &mut Trace,
        op: &Op,
        inputs: &Inputs,
        expect: &Expected,
        request: u64,
    ) -> Result<(), String> {
        match op {
            Op::Estimate { a, b, inserted } => {
                self.estimate(trace, inputs, *a, *b, expect.of(*a, *b, *inserted), request)
            }
            Op::Batch(pairs) => pairs.iter().try_for_each(|&(a, b)| {
                self.estimate(trace, inputs, a, b, expect.base[a][b], request)
            }),
            Op::Insert { t, b } => {
                self.mutate(trace, inputs, *t, &inputs.batches[*t][*b], &[], request)
            }
            Op::Delete { t, b } => {
                self.mutate(trace, inputs, *t, &[], &inputs.batches[*t][*b], request)
            }
        }
    }

    fn estimate(
        &mut self,
        trace: &mut Trace,
        inputs: &Inputs,
        a: usize,
        b: usize,
        want: sj_server::EstimateReply,
        request: u64,
    ) -> Result<(), String> {
        let (na, nb) = (&inputs.names[a], &inputs.names[b]);
        let catalog = &self.catalog;
        let (est, occupied) = trace.span("sync.catalog_read", None, request, |t, me| {
            let guard = catalog.read();
            let hists = t.span("query.lookup", Some(me), request, |_, _| {
                Ok::<_, sj_query::QueryError>((guard.gh_histogram(na)?, guard.gh_histogram(nb)?))
            });
            let (ha, hb) = match hists {
                Ok(h) => h,
                Err(e) => return (Err(e.to_string()), 0),
            };
            let (va, vb) = t.span("histogram.view_decode", Some(me), request, |_, _| {
                (GhView::new(ha), GhView::new(hb))
            });
            let est = t.span("histogram.kernel", Some(me), request, |_, _| {
                va.estimate(&vb)
            });
            let occupied = (va.occupied_cells() + vb.occupied_cells()) as u64;
            drop(guard);
            (est.map_err(|e| e.to_string()), occupied)
        });
        let est = est.map_err(|e| format!("layer replay {na}⋈{nb}: {e}"))?;
        let got = sj_server::EstimateReply {
            selectivity: est.selectivity,
            pairs: est.pairs,
        };
        if !same(&got, &want) {
            return Err(format!(
                "layer replay {na}⋈{nb}: {got:?}, expected {want:?}"
            ));
        }
        self.counts.occupied.push(occupied);
        Ok(())
    }

    /// The three-phase mutation pipeline of `CatalogService`, with the
    /// compaction it may trigger.
    fn mutate(
        &mut self,
        trace: &mut Trace,
        inputs: &Inputs,
        t: usize,
        inserts: &[sj_geo::Rect],
        deletes: &[sj_geo::Rect],
        request: u64,
    ) -> Result<(), String> {
        let table = &inputs.names[t];
        let catalog = &self.catalog;
        let id = MutationId::new(0x6c61_7972, request + 1); // token: "layr"
        let prepared = trace
            .span("query.prepare", None, request, |_, _| {
                catalog.read().prepare_delta(table, inserts, deletes, id)
            })
            .map_err(|e| format!("prepare: {e}"))?;
        let PreparedOutcome::Fresh(prepared) = prepared else {
            return Err(format!("mutation {id:?} was deduplicated"));
        };
        trace
            .span("query.wal_append", None, request, |_, _| {
                prepared.append_wal()
            })
            .map_err(|e| format!("WAL append: {e}"))?;
        trace
            .span("query.commit", None, request, |_, _| {
                catalog.write().commit_prepared(*prepared)
            })
            .map_err(|e| format!("commit: {e}"))?;
        if catalog.read().compaction_needed(table) {
            trace
                .span("query.compact", None, request, |_, _| {
                    let plan = catalog.read().plan_compaction(table)?;
                    if let Some(plan) = &plan {
                        plan.persist()?;
                    }
                    catalog.write().finish_compaction(table, plan.is_some());
                    Ok::<_, sj_query::QueryError>(())
                })
                .map_err(|e| format!("compaction: {e}"))?;
            self.counts.compactions += 1;
        }
        self.counts.mutations += 1;
        (self.counts.fsyncs, self.counts.bytes) = self.io.counts();
        Ok(())
    }
}

/// A service over a fresh catalog with a real (uncounted) store, for
/// `handle_request`.
pub fn handler_service(
    trace: &mut Trace,
    inputs: &Inputs,
    stats_dir: &Path,
) -> Result<CatalogService, String> {
    let catalog = build_catalog(trace, inputs, stats_dir, Arc::new(RealStoreIo))?;
    Ok(crate::workload::service(catalog, "perfbench.handler"))
}

/// Self times of every span, grouped by layer name, in µs.
fn per_span(trace: &Trace) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in trace.spans().iter().zip(stats::self_times(trace.spans())) {
        out.entry(s.name).or_default().push(own as f64 / 1e3);
    }
    out
}

/// The traced run: per-layer metrics for `args.workload`.
pub fn run(
    args: &Args,
    run_dir: &Path,
    inputs: &Inputs,
    expect: &Expected,
) -> Result<Report, String> {
    let n = inputs.names.len();
    let mut report = Report::default();
    let mut trace = Trace::new();
    let mut d = Daemon::spawn(&args.sjsel, &inputs.csvs, run_dir, "traced")?;
    workload::warm_up(&mut d.client, inputs, expect, args.seed, &mut report.tally);

    let mut probe = calib::Probe::spawn()?;
    for _ in 0..PROBE_PASSES {
        probe.pass()?;
    }
    let mut pings = Vec::new();
    for i in 0..PINGS {
        let ok = trace.span("server.ping", None, u64::MAX - 1 - i, |_, _| {
            d.client.ping()
        });
        ok.map_err(|e| format!("ping: {e}"))?;
        pings.push(trace.spans().last().map_or(0, |s| s.end - s.start) as f64 / 1e3);
    }

    let svc = handler_service(&mut trace, inputs, &run_dir.join("stats-handler"))?;
    let mut layers = Layers::new(&mut trace, inputs, &run_dir.join("stats-layers"))?;

    // Untraced and traced rounds alternate, so host drift falls on both
    // alike; a traced round sends every op live, through
    // handle_request, and layer by layer.
    let ops = workload::round(args.workload, n, args.seed);
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced = Tally::default();
    let mut request = 0u64;
    let mut counted = None;
    let mut ok = true;
    for round in 0.. {
        if round % 2 == 0 {
            for op in &ops {
                drive(&mut d.client, op, inputs, expect, &mut untraced, None);
            }
        } else {
            for op in &ops {
                request += 1;
                ok = traced_op(
                    &mut d,
                    &svc,
                    &mut layers,
                    &mut trace,
                    op,
                    inputs,
                    expect,
                    &mut report.tally,
                    request,
                );
                if !ok {
                    break;
                }
            }
            if ok && counted.is_none() {
                counted = Some(layers.counts.clone());
            }
        }
        if !ok || (round >= 1 && start.elapsed() >= window) {
            break;
        }
    }
    let untraced_us: Vec<f64> = [
        &untraced.estimate_us,
        &untraced.insert_us,
        &untraced.delete_us,
    ]
    .into_iter()
    .flatten()
    .copied()
    .collect();
    let untraced_per_op = untraced_us.iter().sum::<f64>() / untraced_us.len().max(1) as f64;
    report.tally.absorb(untraced);
    let main_requests = request;
    let mutation_ops = workload::mutation_round(n, args.seed);
    if ok && args.workload != Workload::IngestMixed {
        for op in &mutation_ops {
            request += 1;
            if !traced_op(
                &mut d,
                &svc,
                &mut layers,
                &mut trace,
                op,
                inputs,
                expect,
                &mut report.tally,
                request,
            ) {
                break;
            }
        }
        if let Some(c) = counted.as_mut() {
            let occupied = std::mem::take(&mut c.occupied);
            *c = layers.counts.clone();
            c.occupied = occupied;
        }
    }
    let stderr_log = d.stderr_log.clone();
    d.stop()
        .map_err(|e| format!("{e}; stderr:\n{}", daemon::tail(&stderr_log)))?;

    // The counted stretch again, on a fresh catalog and store: the
    // counts must repeat exactly.
    let mut repeat_trace = Trace::new();
    let mut again = Layers::new(&mut repeat_trace, inputs, &run_dir.join("stats-repeat"))?;
    let mut repeat_ops = ops.clone();
    if args.workload != Workload::IngestMixed {
        repeat_ops.extend(mutation_ops.iter().cloned());
    }
    for (i, op) in repeat_ops.iter().enumerate() {
        again.replay(&mut repeat_trace, op, inputs, expect, 1 << 40 | i as u64)?;
    }
    let counted = counted.unwrap_or_default();
    if counted != again.counts {
        report.broken = Some(format!(
            "per-layer counts did not repeat: {:?} then {:?}",
            (
                counted.mutations,
                counted.compactions,
                counted.fsyncs,
                counted.bytes
            ),
            (
                again.counts.mutations,
                again.counts.compactions,
                again.counts.fsyncs,
                again.counts.bytes
            )
        ));
    }

    let traces = args.work.join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("creating {}: {e}", traces.display()))?;
    write_spans(
        &trace,
        &traces.join(format!("{}-s{}.tsv", args.workload.name(), args.seed)),
    )?;
    let setup_spans: Vec<_> = repeat_trace
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("setup."))
        .cloned()
        .collect();
    let spans = per_span(&trace);
    let by_request = stats::self_time_by_request(trace.spans());
    let per_request = |name: &str| -> Vec<f64> {
        by_request
            .get(name)
            .map(|m| m.values().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default()
    };
    let layer = |name: &str| spans.get(name).cloned().unwrap_or_default();

    // Set-up layers: per catalog build (each ends with its store
    // opening), the summed time of each layer's calls, in s.
    let mut setup: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut build: BTreeMap<&str, f64> = BTreeMap::new();
    for s in trace
        .spans()
        .iter()
        .chain(&setup_spans)
        .filter(|s| s.name.starts_with("setup."))
    {
        *build.entry(s.name).or_default() += (s.end - s.start) as f64 / 1e9;
        if s.name == "setup.store_open" {
            for (name, v) in std::mem::take(&mut build) {
                setup.entry(name).or_default().push(v);
            }
        }
    }

    let ping = median(&pings).unwrap_or(f64::NAN);
    let part = |name: &str, r: u64| {
        by_request
            .get(name)
            .and_then(|m| m.get(&r))
            .map_or(0.0, |&ns| ns as f64 / 1e3)
    };
    let traced_ids = 1..=request;
    let e2e: f64 = traced_ids.clone().map(|r| part("client.request", r)).sum();
    let attributed: f64 = traced_ids
        .clone()
        .map(|r| ping + part("wire.encode", r) + part("wire.decode", r) + part("server.handle", r))
        .sum();
    let main_e2e: f64 = (1..=main_requests).map(|r| part("client.request", r)).sum();
    let traced_per_op = main_e2e / main_requests.max(1) as f64;

    let occupied: Vec<f64> = counted.occupied.iter().map(|&c| c as f64).collect();
    for (name, xs, unit) in [
        ("server.ping_rtt_us", pings, "us"),
        ("wire.encode_us", per_request("wire.encode"), "us"),
        ("wire.decode_us", per_request("wire.decode"), "us"),
        ("server.handle_us", per_request("server.handle"), "us"),
        ("sync.catalog_read_us", layer("sync.catalog_read"), "us"),
        ("query.lookup_us", layer("query.lookup"), "us"),
        (
            "histogram.view_decode_us",
            layer("histogram.view_decode"),
            "us",
        ),
        ("histogram.kernel_us", layer("histogram.kernel"), "us"),
        ("histogram.occupied_cells", occupied, "count"),
        ("query.prepare_us", layer("query.prepare"), "us"),
        ("query.wal_append_us", layer("query.wal_append"), "us"),
        ("query.commit_us", layer("query.commit"), "us"),
        ("query.compact_us", layer("query.compact"), "us"),
    ] {
        report.add(name, median(&xs).unwrap_or(f64::NAN), unit, xs.len());
    }
    let muts = counted.mutations.max(1) as f64;
    report.add(
        "store.fsyncs_per_mutation",
        counted.fsyncs as f64 / muts,
        "count",
        counted.mutations as usize,
    );
    report.add(
        "store.bytes_written_per_mutation",
        counted.bytes as f64 / muts,
        "bytes",
        counted.mutations as usize,
    );
    report.add(
        "query.compactions_per_1k_mutations",
        counted.compactions as f64 * 1000.0 / muts,
        "count",
        counted.mutations as usize,
    );
    for name in ["setup.csv_load_s", "setup.register_s", "setup.store_open_s"] {
        let xs = setup
            .get(name.trim_end_matches("_s"))
            .cloned()
            .unwrap_or_default();
        report.add(name, median(&xs).unwrap_or(f64::NAN), "s", xs.len());
    }
    report.add(
        "trace.unattributed_pct",
        stats::unattributed_pct((e2e * 1e3) as u64, (attributed * 1e3) as u64),
        "%",
        request as usize,
    );
    report.host_probe_us = median(&probe.samples_us).unwrap_or(f64::NAN);
    report.add(
        "host.probe_us",
        report.host_probe_us,
        "us",
        probe.samples_us.len(),
    );
    report.add(
        "trace.overhead_pct",
        stats::overhead_pct(untraced_per_op, traced_per_op),
        "%",
        main_requests as usize,
    );
    Ok(report)
}

/// Sends `op` to the daemon and replays it in process, every call in a
/// span under `request`. False when anything failed.
#[allow(clippy::too_many_arguments)]
fn traced_op(
    d: &mut Daemon,
    svc: &sj_server::CatalogService,
    layers: &mut Layers,
    trace: &mut Trace,
    op: &Op,
    inputs: &Inputs,
    expect: &Expected,
    tally: &mut Tally,
    request: u64,
) -> bool {
    let before = tally.failed;
    trace.span("client.request", None, request, |_, _| {
        drive(&mut d.client, op, inputs, expect, tally, None)
    });
    let replay = replay_handler(trace, svc, op, inputs, request)
        .and_then(|()| layers.replay(trace, op, inputs, expect, request));
    if let Err(e) = replay {
        tally.failed += op.items();
        tally.first_error.get_or_insert(e);
    }
    tally.failed == before
}

/// Writes every span, one per line: name, start, end (ns), parent, request.
fn write_spans(trace: &Trace, path: &Path) -> Result<(), String> {
    let mut out = String::from("name\tstart_ns\tend_ns\tparent\trequest\n");
    for s in trace.spans() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{}\t{parent}\t{}\n",
            s.name, s.start, s.end, s.request
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}
