//! Per-layer metrics of a traced run, shared by every workload: read off
//! spans, the commit and cold-build replays, the shadow log, and the
//! query work counters.

use crate::replay::{Build, Stages};
use crate::stats::{Dist, Report};
use crate::trace::Spans;
use topodb::query::PreparedQuery;
use topodb::Snapshot;

/// Assignments tried and index probes per query: every query once, on one
/// thread, against `snap`.
pub fn query_work(snap: &Snapshot, queries: &[PreparedQuery]) -> (f64, f64) {
    let ev = snap.evaluator();
    let index = snap.spatial_index();
    let (a0, p0) = (ev.assignments_tried(), index.probe_count());
    for q in queries {
        std::hint::black_box(q.run_on(&ev).ok());
    }
    let n = queries.len().max(1) as f64;
    (
        (ev.assignments_tried() - a0) as f64 / n,
        (index.probe_count() - p0) as f64 / n,
    )
}

/// Per-layer metrics read off spans: snapshot, classification, evaluator,
/// query run, and the analysis steps.
pub fn span_metrics(l: &mut Report, spans: &Spans, counts: &(f64, f64)) {
    let d = |name: &str| Dist::new(spans.secs(name));
    l.add_latency(
        "topodb.snapshot_p50_ns",
        "topodb.snapshot_tail_ns",
        &d("topodb.snapshot"),
        1e9,
        "ns",
    );
    l.add_latency(
        "relations.classify_p50_us",
        "relations.classify_tail_us",
        &d("relations.classify"),
        1e6,
        "us",
    );
    let (builds, hits) = (d("query.evaluator_build"), d("query.evaluator_hit"));
    l.add(
        "query.evaluator_build_p50_us",
        builds.median() * 1e6,
        "us",
        builds.len(),
    );
    l.add(
        "query.evaluator_hit_ratio",
        hits.len() as f64 / (hits.len() + builds.len()).max(1) as f64,
        "ratio",
        hits.len() + builds.len(),
    );
    l.add_latency(
        "query.run_p50_us",
        "query.run_tail_us",
        &d("query.run"),
        1e6,
        "us",
    );
    l.add("query.assignments_per_query", counts.0, "count", 1);
    l.add("query.index_probes_per_query", counts.1, "count", 1);
    for (span, metric) in [
        ("invariant.t_i", "invariant.t_i_s"),
        ("invariant.thematic", "invariant.thematic_s"),
        ("invariant.isomorphism", "invariant.isomorphism_s"),
        ("relstore.fo_query", "relstore.fo_query_s"),
    ] {
        let x = d(span);
        l.add(metric, x.median(), "s", x.len());
    }
}

/// Cold-build stages, medians over `builds`.
pub fn cold_metrics(l: &mut Report, builds: &[Build]) {
    let m = |f: &dyn Fn(&Build) -> f64| Dist::new(builds.iter().map(f).collect()).median();
    let n = builds.len();
    l.add("arrangement.cold_partition_s", m(&|b| b.partition), "s", n);
    l.add("arrangement.cold_sweep_s", m(&|b| b.sweep), "s", n);
    l.add("arrangement.cold_assemble_s", m(&|b| b.assemble), "s", n);
    l.add(
        "arrangement.cold_events",
        m(&|b| b.work.events_processed as f64),
        "count",
        n,
    );
    l.add(
        "arrangement.cold_chains_merged",
        m(&|b| b.work.chains_merged as f64),
        "count",
        n,
    );
    l.add(
        "arrangement.cold_cells_walked",
        m(&|b| b.work.cells_walked as f64),
        "count",
        n,
    );
}

/// Per-commit stages of the replay.
pub fn commit_metrics(l: &mut Report, s: &Stages) {
    let p50 = |v: &Vec<f64>| Dist::new(v.clone()).median();
    let n = s.partition.len();
    l.add("topodb.apply_p50_us", p50(&s.apply) * 1e6, "us", n);
    l.add(
        "arrangement.partition_p50_us",
        p50(&s.partition) * 1e6,
        "us",
        n,
    );
    l.add("arrangement.sweep_p50_us", p50(&s.sweep) * 1e6, "us", n);
    l.add(
        "arrangement.assemble_p50_us",
        p50(&s.assemble) * 1e6,
        "us",
        n,
    );
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    l.add("arrangement.events_per_commit", mean(&s.events), "count", n);
    l.add(
        "arrangement.cells_walked_per_commit",
        mean(&s.cells_walked),
        "count",
        n,
    );
}

/// Shadow-log and recovery metrics.
pub fn log_metrics(l: &mut Report, s: &Stages, read_logs: &[(f64, usize)], retries: u64) {
    let p50 = |v: &Vec<f64>| Dist::new(v.clone()).median();
    l.add(
        "wal.append_p50_us",
        p50(&s.append) * 1e6,
        "us",
        s.append.len(),
    );
    l.add("wal.fsync_p50_us", p50(&s.fsync) * 1e6, "us", s.fsync.len());
    l.add(
        "wal.checkpoint_ms",
        p50(&s.checkpoint) * 1e3,
        "ms",
        s.checkpoint.len(),
    );
    let reads: Vec<f64> = read_logs.iter().map(|r| r.0).collect();
    let records: Vec<f64> = read_logs.iter().map(|r| r.1 as f64).collect();
    l.add(
        "wal.read_log_ms",
        Dist::new(reads).median() * 1e3,
        "ms",
        read_logs.len(),
    );
    l.add(
        "wal.replayed_records",
        Dist::new(records).median(),
        "count",
        read_logs.len(),
    );
    l.add("wal.transient_retries", retries as f64, "count", 1);
}

/// Traced minus untraced value of every latency metric both measured.
pub fn overhead_metrics(l: &mut Report, plain: &Report, traced: &Report) {
    for m in &traced.metrics {
        if let Some(base) = plain.get(&m.name) {
            l.add(
                &format!("trace.{}_delta", m.name),
                m.value - base,
                m.unit,
                m.samples,
            );
        }
    }
}
