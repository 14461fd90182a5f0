//! The bulk workloads: one thread loads, edits, reads, recovers and
//! analyzes a map, iteration after iteration.
//!
//! A run draws [`MAPS`] maps from its seed and visits them in rounds, one
//! iteration per map and round. An iteration creates a durable database
//! from its map, commits a small `op_trace` and its undo (so the log has
//! a tail past the checkpoint and the instance returns to the map), reads
//! relations and runs anchored queries, drops the database, reopens it and
//! analyzes the recovered snapshot. Every round repeats each map's ops
//! exactly, so each timed step (a slot) is measured once per round.
//!
//! The end-to-end metrics are medians over slots of each slot's best time
//! over the rounds. The benchmark runs on a shared host whose speed swings
//! by up to 2x within a second while the work stays the same; interference
//! only ever adds time, so the best of rounds taken seconds apart is the
//! step's own cost, and a median over slots is its typical cost. The
//! traced run's tails keep every sample.
//!
//! The two workloads differ only in the map family, see [`Sheet`].

use crate::layers;
use crate::ops;
use crate::replay::{self, Acked, Stages};
use crate::stats::{Dist, Report};
use crate::sys::{self, RunRecord};
use crate::trace::Spans;
use crate::Outcome;
use datagen::TraceOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use topodb::query::PreparedQuery;
use topodb::relations::Relation4;
use topodb::relstore::fo::Formula;
use topodb::spatial_core::instance::SpatialInstance;
use topodb::wal::WalOp;
use topodb::{QueryOutput, Snapshot, TopoDatabase};

/// `op_trace` batches committed per iteration, before the undo commit.
const EDITS: usize = 4;
const READS: usize = 40;
const QUERIES: usize = 48;
/// The maps a run draws from its seed and cycles through.
const MAPS: usize = 16;
/// Rounds every map gets, even past `--seconds`.
const MIN_ROUNDS: usize = 3;

/// The map family a workload draws its maps from.
#[derive(Clone, Copy)]
pub enum Sheet {
    /// `jittered_overlap_map(12, 12, 12, s)`: 144 regions, 576 segments,
    /// one interaction component, so every build and every commit sweeps
    /// the whole sheet.
    Dense,
    /// `clustered_map(16, 16, s)`: 256 regions in 16 separate clusters of
    /// 64 segments, so builds run per component and a commit rebuilds only
    /// the clusters it touches.
    Clustered,
}

impl Sheet {
    fn generate(self, seed: u64) -> SpatialInstance {
        match self {
            Sheet::Dense => datagen::jittered_overlap_map(12, 12, 12, seed),
            Sheet::Clustered => datagen::clustered_map(16, 16, seed),
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Sheet::Dense => "jittered_overlap_map(12, 12, 12, s) per map",
            Sheet::Clustered => "clustered_map(16, 16, s) per map",
        }
    }

    /// The region the FO query is anchored at.
    fn anchor(self) -> &'static str {
        match self {
            Sheet::Dense => "P000_000",
            Sheet::Clustered => "C000_R000",
        }
    }

    /// The region anchoring the `k`-th prepared query: [`QUERIES`] regions
    /// spread over the dense sheet, or regions `R000`, `R005` and `R010`
    /// of each of the 16 clusters.
    fn query_anchor(self, k: usize) -> String {
        match self {
            Sheet::Dense => format!("P{:03}_{:03}", k * 12 / QUERIES, (k * 5) % 12),
            Sheet::Clustered => format!("C{:03}_R{:03}", k % 16, k / 16 * 5),
        }
    }
}

/// The queries and the FO formula, the same for every sheet.
struct Shared {
    sheet: Sheet,
    formula: Formula,
    queries: Vec<PreparedQuery>,
}

impl Shared {
    fn new(sheet: Sheet) -> Shared {
        let queries = (0..QUERIES)
            .map(|k| {
                let anchor = sheet.query_anchor(k);
                PreparedQuery::compile(&format!("overlap(ext(x), {anchor})"))
                    .expect("anchored query compiles")
            })
            .collect();
        Shared {
            sheet,
            formula: ops::fo_formula(sheet.anchor()),
            queries,
        }
    }
}

/// One iteration's sheet and everything its answers are checked against.
struct Fixture {
    sheet: SpatialInstance,
    names: Vec<String>,
    target: Snapshot,
    /// An in-memory database of the sheet, invariant built.
    oracle: Snapshot,
    fo_rows: usize,
}

/// The set-up of an iteration: generate the map, build the database of
/// its rotated image and an in-memory database of the map itself, both
/// with their invariants, and count the FO answers on the invariant
/// directly.
fn fixture(kind: Sheet, seed: u64) -> Fixture {
    let sheet = kind.generate(seed);
    let target = ops::rotated_target(&sheet);
    let oracle = TopoDatabase::from_instance(sheet.clone()).snapshot();
    let fo_rows = ops::fo_oracle(&oracle.invariant(), kind.anchor());
    let names: Vec<String> = sheet.names().iter().map(|s| s.to_string()).collect();
    Fixture {
        sheet,
        names,
        target,
        oracle,
        fo_rows,
    }
}

/// The oracle's answers to one map's reads and queries, computed on the
/// map's first visit: every visit asks the same.
struct Expected {
    relations: Vec<Option<Relation4>>,
    queries: Vec<Option<QueryOutput>>,
}

/// The sheet seed of map `k` of a run with seed `seed`.
fn sheet_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64)
}

/// What the iterations of one pass measured.
#[derive(Default)]
struct Pass {
    /// The least seconds each slot took over the rounds, keyed by
    /// `(quantity, map, slot)`.
    best: BTreeMap<(&'static str, usize, usize), f64>,
    /// The oracle's answers, by map.
    expected: BTreeMap<usize, Expected>,
    /// `(iteration, seconds)` of each op.
    reads: Vec<(f64, f64)>,
    queries: Vec<(f64, f64)>,
    commits: Vec<(f64, f64)>,
    rss_growth: f64,
    commit_bytes: u64,
    rebuilds: u64,
    iterations: usize,
    wall: f64,
    colds: Vec<replay::Build>,
    stages: Stages,
    read_logs: Vec<(f64, usize)>,
    retries: u64,
    query_work: (f64, f64),
}

impl Pass {
    /// Record `secs` for slot `slot` of `quantity` on map `map`.
    fn keep(&mut self, quantity: &'static str, map: usize, slot: usize, secs: f64) {
        let best = self.best.entry((quantity, map, slot)).or_insert(secs);
        *best = best.min(secs);
    }

    /// `name`: the median over the slots of `quantity` of their best
    /// time, scaled by `scale`.
    fn add_best(&self, r: &mut Report, name: &str, quantity: &str, scale: f64, unit: &'static str) {
        let d = Dist::new(
            self.best
                .iter()
                .filter(|(key, _)| key.0 == quantity)
                .map(|(_, secs)| *secs)
                .collect(),
        );
        let note = format!("slots, best of {} rounds", self.iterations / MAPS);
        r.add_noted(name, d.median() * scale, unit, d.len(), note);
    }

    fn latency_metrics(&self, r: &mut Report) {
        for class in ["read", "query", "commit"] {
            self.add_best(r, &format!("{class}_p50_us"), class, 1e6, "us");
        }
    }

    fn tails(&self, t: &mut Report) {
        let span = self.iterations as f64;
        t.add_tails("read", &self.reads, span);
        t.add_tails("query", &self.queries, span);
        t.add_tails("commit", &self.commits, span);
    }

    fn e2e(&self, r: &mut Report) {
        self.latency_metrics(r);
        self.add_best(r, "load_s", "load", 1.0, "s");
        self.add_best(r, "recover_s", "recover", 1.0, "s");
        self.add_best(r, "analyze_s", "analyze", 1.0, "s");
    }

    fn ops(&self) -> usize {
        self.reads.len() + self.queries.len() + self.commits.len()
    }
}

fn to_wal(op: TraceOp) -> WalOp {
    match op {
        TraceOp::Insert(name, region) => WalOp::Insert(name, region),
        TraceOp::Remove(name) => WalOp::Remove(name),
    }
}

/// Commit `ops` as one transaction, timed.
fn commit(db: &TopoDatabase, ops: &[WalOp], spans: &mut Spans) -> Result<(f64, Acked), String> {
    let t = Instant::now();
    let mut txn = db.begin_shared();
    for op in ops {
        match op {
            WalOp::Insert(name, region) => txn.insert(name.clone(), region.clone()),
            WalOp::Remove(name) => txn.remove(name.clone()),
        };
    }
    let summary = spans
        .time("topodb.try_commit", || txn.try_commit())
        .map_err(|e| format!("commit: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((
        secs,
        Acked {
            epoch: summary.epoch,
            ops: ops.to_vec(),
            changed: summary.changed,
        },
    ))
}

/// Iteration `it` of a pass, on map `k`: the same ops on every visit.
#[allow(clippy::too_many_arguments)]
fn iteration(
    sh: &Shared,
    k: usize,
    it: usize,
    seed: u64,
    work: &Path,
    spans: &mut Spans,
    pass: &mut Pass,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(sheet_seed(seed, k) ^ 0xb01c);
    let t = Instant::now();
    let fx = fixture(sh.sheet, sheet_seed(seed, k));
    pass.keep("setup", k, 0, t.elapsed().as_secs_f64());
    let dir = work.join(format!("bulk-{it}"));
    ops::remove_dir(&dir);
    spans.request(it as u64);
    let (db, first, load) = ops::load(&dir, fx.sheet.clone())?;
    pass.keep("load", k, 0, load);
    if spans.on() {
        let b = replay::cold(&fx.sheet);
        if b.fingerprint != replay::snapshot_fingerprint(&first) {
            out.problem("cold replay differs from the facade's first build".into());
        }
        pass.colds.push(b);
    }
    drop(first);

    // Edits, then one commit removing every name they left live.
    let rebuilds0 = db.component_rebuild_count();
    let io0 = sys::write_bytes();
    let mut acked = Vec::new();
    let trace = datagen::op_trace(EDITS, seed ^ (k as u64).wrapping_mul(0x9e37_79b9));
    for (j, batch) in trace.into_iter().enumerate() {
        let ops: Vec<WalOp> = batch.into_iter().map(to_wal).collect();
        let (secs, a) = commit(&db, &ops, spans)?;
        pass.commits.push((it as f64, secs));
        pass.keep("commit", k, j, secs);
        acked.push(a);
    }
    let undo: Vec<WalOp> = db
        .names()
        .into_iter()
        .filter(|n| fx.sheet.ext(n).is_none())
        .map(WalOp::Remove)
        .collect();
    let (secs, a) = commit(&db, &undo, spans)?;
    pass.commits.push((it as f64, secs));
    pass.keep("commit", k, EDITS, secs);
    acked.push(a);
    if let (Some(a), Some(b)) = (io0, sys::write_bytes()) {
        pass.commit_bytes += b - a;
    }
    pass.rebuilds += db.component_rebuild_count() - rebuilds0;

    let pairs: Vec<(&String, &String)> = (0..READS)
        .map(|_| {
            let n = fx.names.len();
            (
                &fx.names[rng.gen_range(0..n)],
                &fx.names[rng.gen_range(0..n)],
            )
        })
        .collect();
    let expected = pass.expected.remove(&k).unwrap_or_else(|| Expected {
        relations: pairs
            .iter()
            .map(|(a, b)| fx.oracle.relation(a, b).ok())
            .collect(),
        queries: sh
            .queries
            .iter()
            .map(|q| fx.oracle.evaluate(q).ok())
            .collect(),
    });
    for (j, &(a, b)) in pairs.iter().enumerate() {
        let t = Instant::now();
        let op = spans.enter("op.read");
        let snap = spans.time("topodb.snapshot", || db.snapshot());
        let r = spans.time("relations.classify", || snap.relation(a, b));
        spans.exit(op);
        let secs = t.elapsed().as_secs_f64();
        pass.reads.push((it as f64, secs));
        pass.keep("read", k, j, secs);
        let r = r.map_err(|e| format!("read {a} {b}: {e}"))?;
        if expected.relations[j] != Some(r) {
            out.problem(format!(
                "iteration {it} (map {k}): relation({a}, {b}) differs from the oracle"
            ));
        }
    }
    for (j, q) in sh.queries.iter().enumerate() {
        let t = Instant::now();
        let op = spans.enter("op.query");
        let snap = spans.time("topodb.snapshot", || db.snapshot());
        let name = if j == 0 {
            "query.evaluator_build"
        } else {
            "query.evaluator_hit"
        };
        let ev = spans.time(name, || snap.evaluator());
        let r = spans.time("query.run", || q.run_on(&ev));
        spans.exit(op);
        let secs = t.elapsed().as_secs_f64();
        pass.queries.push((it as f64, secs));
        pass.keep("query", k, j, secs);
        let r = r.map_err(|e| format!("query: {e}"))?;
        if expected.queries[j] != Some(r) {
            out.problem(format!(
                "iteration {it} (map {k}): query {:?} differs from the oracle",
                q.text()
            ));
        }
    }

    pass.expected.insert(k, expected);

    let before = db.instance();
    let head = db.snapshot();
    if spans.on() {
        pass.query_work = layers::query_work(&head, &sh.queries);
        pass.retries += db.health().transient_retries;
        let mut captured = BTreeMap::new();
        captured.insert(head.epoch(), replay::snapshot_fingerprint(&head));
        let shadow = work.join(format!("shadow-{it}"));
        let stages = replay::replay(&fx.sheet, 0, acked, &captured, &shadow)
            .map_err(|e| format!("replay: {e}"))?;
        pass.stages.absorb(stages);
    }
    drop(head);
    drop(db);

    let rec = ops::recover(&dir, spans)?;
    pass.keep("recover", k, 0, rec.secs);
    pass.read_logs.extend(rec.read_log);
    if *rec.db.instance() != *before {
        out.problem(format!(
            "iteration {it} (map {k}): recovered instance differs from the one dropped"
        ));
    }
    if *before != fx.sheet {
        out.problem(format!(
            "iteration {it} (map {k}): undo commit did not restore the sheet"
        ));
    }
    let a = ops::analyze(&rec.snap, &fx.target, &sh.formula, spans);
    ops::check_analysis(out, &a, fx.fo_rows);
    pass.keep("analyze", k, 0, a.total);
    drop(rec);
    ops::remove_dir(&dir);
    pass.iterations += 1;
    Ok(())
}

/// Rounds over the maps until `seconds` have passed and every map had
/// [`MIN_ROUNDS`], recording into `s` when it is on.
fn pass(
    sh: &Shared,
    seed: u64,
    seconds: f64,
    s: &mut Spans,
    work: &Path,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let rss0 = sys::rss_mb().unwrap_or(0.0);
    let start = Instant::now();
    let mut it = 0;
    while it < MIN_ROUNDS * MAPS || start.elapsed().as_secs_f64() < seconds {
        iteration(sh, it % MAPS, it, seed, work, s, &mut p, out)?;
        it += 1;
    }
    p.wall = start.elapsed().as_secs_f64();
    p.rss_growth = sys::rss_mb().unwrap_or(0.0) - rss0;
    Ok(p)
}

pub fn run(
    sheet: Sheet,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    out: &mut Outcome,
    record: &mut RunRecord,
) -> Result<(), String> {
    let origin = Instant::now();
    let sh = Shared::new(sheet);
    let first = sheet.generate(sheet_seed(seed, 0));
    record.set("map", sheet.describe());
    record.set("regions", first.len());
    record.set("segments", ops::segment_count(&first));
    record.set(
        "per_iteration",
        format!("commits={} reads={READS} queries={QUERIES}", EDITS + 1),
    );
    record.set("log_fs", sys::fs_type(work));
    if let Some(p) = ops::fixture_pair_problem() {
        out.problem(p);
    }

    let window = if trace { seconds / 2.0 } else { seconds };
    let plain = pass(&sh, seed, window, &mut Spans::new(false, origin), work, out)?;
    plain.add_best(&mut out.e2e, "setup_s", "setup", 1.0, "s");
    plain.e2e(&mut out.e2e);
    plain.tails(&mut out.tails);
    out.e2e.add(
        "disk_bytes_per_commit",
        plain.commit_bytes as f64 / plain.commits.len().max(1) as f64,
        "B",
        plain.commits.len(),
    );
    out.attempted += plain.ops() + 3 * plain.iterations;
    record.set("maps", MAPS);
    record.set("iterations", plain.iterations);

    if trace {
        let mut spans = Spans::new(true, origin);
        let traced = pass(&sh, seed.wrapping_add(1), window, &mut spans, work, out)?;
        out.attempted += traced.ops() + 3 * traced.iterations;
        let l = &mut out.layers;
        l.add(
            "harness.ops_s",
            traced.ops() as f64 / traced.wall,
            "1/s",
            traced.ops(),
        );
        for (name, n) in [
            ("read", traced.reads.len()),
            ("query", traced.queries.len()),
            ("commit", traced.commits.len()),
        ] {
            l.add(&format!("harness.{name}_samples"), n as f64, "count", n);
        }
        l.add(
            "harness.peak_rss_mb",
            sys::peak_rss_mb().unwrap_or(0.0),
            "MB",
            1,
        );
        l.add("topodb.rss_growth_mb", traced.rss_growth, "MB", 1);
        l.add(
            "topodb.rebuilds_per_commit",
            traced.rebuilds as f64 / traced.commits.len().max(1) as f64,
            "count",
            traced.commits.len(),
        );
        record.set("replay_epochs_checked", traced.stages.checked);
        layers::span_metrics(l, &spans, &traced.query_work);
        layers::commit_metrics(l, &traced.stages);
        layers::cold_metrics(l, &traced.colds);
        layers::log_metrics(l, &traced.stages, &traced.read_logs, traced.retries);
        let mut traced_e2e = Report::default();
        traced.latency_metrics(&mut traced_e2e);
        traced.tails(l);
        layers::overhead_metrics(l, &out.e2e, &traced_e2e);
        out.spans = Some(spans);
    }
    Ok(())
}
