//! Steps the workloads share: durable load, recovery, analysis
//! (`T_I`, `thematic(I)`, an FO query, homeomorphism) and the fixed
//! correctness checks around them.

use crate::trace::Spans;
use crate::Outcome;
use std::path::Path;
use std::time::Instant;
use topodb::invariant::Invariant;
use topodb::relstore::fo::{self, Formula, Term};
use topodb::relstore::Value;
use topodb::spatial_core::fixtures;
use topodb::spatial_core::instance::SpatialInstance;
use topodb::spatial_core::transform::{AffineMap, PlaneTransform};
use topodb::{Snapshot, TopoDatabase, WalConfig};

/// The log configuration of every durable database in the benchmark.
pub fn wal_config() -> WalConfig {
    WalConfig::default()
}

/// Boundary segments of an instance.
pub fn segment_count(instance: &SpatialInstance) -> usize {
    instance
        .iter()
        .map(|(_, r)| r.boundary().edges().count())
        .sum()
}

/// Create a durable database at `dir` and build its first snapshot.
/// Returns the database, the snapshot and the seconds both took.
pub fn load(
    dir: &Path,
    instance: SpatialInstance,
) -> Result<(TopoDatabase, Snapshot, f64), String> {
    let t = Instant::now();
    let db = TopoDatabase::create_with_config(dir, instance, wal_config())
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    let snap = db.snapshot();
    Ok((db, snap, t.elapsed().as_secs_f64()))
}

/// What one recovery read back.
pub struct Recovered {
    pub db: TopoDatabase,
    pub snap: Snapshot,
    pub secs: f64,
    /// Seconds `Wal::read` took and the records it returned (traced runs).
    pub read_log: Option<(f64, usize)>,
}

/// Reopen the durable database at `dir` and build its first snapshot. A
/// traced run first times a read-only scan of the log on its own.
pub fn recover(dir: &Path, spans: &mut Spans) -> Result<Recovered, String> {
    let read_log = if spans.on() {
        let t = Instant::now();
        let rec = spans.time("wal.read_log", || topodb::wal::Wal::read(dir));
        let rec = rec.map_err(|e| format!("read log {}: {e}", dir.display()))?;
        Some((t.elapsed().as_secs_f64(), rec.records.len()))
    } else {
        None
    };
    let t = Instant::now();
    let db = spans
        .time("topodb.open", || {
            TopoDatabase::open_with_config(dir, wal_config())
        })
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    let snap = spans.time("topodb.snapshot_cold", || db.snapshot());
    Ok(Recovered {
        db,
        snap,
        secs: t.elapsed().as_secs_f64(),
        read_log,
    })
}

/// The instance turned by 90 degrees: homeomorphic to the original by an
/// orientation-preserving map, with every region name kept.
pub fn rotate90(instance: &SpatialInstance) -> SpatialInstance {
    PlaneTransform::Affine(AffineMap::rotate90())
        .apply_instance(instance)
        .expect("a rotation maps every polygon to a polygon")
}

/// A database over the rotated image with its invariant built, the target
/// of every homeomorphism test.
pub fn rotated_target(instance: &SpatialInstance) -> Snapshot {
    let snap = TopoDatabase::from_instance(rotate90(instance)).snapshot();
    snap.invariant();
    snap
}

/// The fixed FO query over `thematic(I)`, quantifier depth 2: the faces of
/// `anchor` shared with another region that also has a face outside
/// `anchor`.
///
/// `f` is free; `RegionFaces(anchor, f)` leaves a handful of faces, and
/// the witnesses `r` are region names, which sort first in the active
/// domain, so the evaluation stays far below its `|D|^3` bound.
pub fn fo_formula(anchor: &str) -> Formula {
    let a = || Term::val(Value::sym(anchor));
    let rf = |x: Term, y: Term| Formula::atom("RegionFaces", vec![x, y]);
    Formula::and(vec![
        rf(a(), Term::var("f")),
        Formula::exists(
            "r",
            Formula::and(vec![
                rf(Term::var("r"), Term::var("f")),
                Formula::not(Formula::equals(Term::var("r"), a())),
                Formula::exists(
                    "g",
                    Formula::and(vec![
                        rf(Term::var("r"), Term::var("g")),
                        Formula::not(rf(a(), Term::var("g"))),
                    ]),
                ),
            ]),
        ),
    ])
}

/// The answer count of [`fo_formula`], computed on the invariant directly.
pub fn fo_oracle(inv: &Invariant, anchor: &str) -> usize {
    let faces_of = |name: &str| -> Vec<usize> { inv.region_faces(name) };
    let anchor_faces = faces_of(anchor);
    let others: Vec<Vec<usize>> = inv
        .region_names()
        .iter()
        .filter(|n| n.as_str() != anchor)
        .map(|n| faces_of(n))
        .collect();
    anchor_faces
        .iter()
        .filter(|f| {
            others
                .iter()
                .any(|g| g.contains(f) && g.iter().any(|x| !anchor_faces.contains(x)))
        })
        .count()
}

/// Seconds each analysis step took, and the answers to check.
pub struct Analysis {
    pub total: f64,
    pub fo_rows: usize,
    pub homeomorphic: bool,
}

/// `T_I`, `thematic(I)`, the FO query and `homeomorphic_to` on a fresh
/// snapshot whose invariant is not built yet. Each step is one span.
pub fn analyze(
    snap: &Snapshot,
    target: &Snapshot,
    formula: &Formula,
    spans: &mut Spans,
) -> Analysis {
    let t = Instant::now();
    spans.time("invariant.t_i", || snap.invariant());
    let thematic = spans.time("invariant.thematic", || snap.thematic());
    let rows = spans.time("relstore.fo_query", || fo::query(&thematic, formula));
    let homeomorphic = spans.time("invariant.isomorphism", || snap.homeomorphic_to(target));
    Analysis {
        total: t.elapsed().as_secs_f64(),
        fo_rows: rows.len(),
        homeomorphic,
    }
}

/// Record a wrong answer of an analysis.
pub fn check_analysis(out: &mut Outcome, a: &Analysis, expected_rows: usize) {
    if !a.homeomorphic {
        out.problem("instance not homeomorphic to its rotate90 image".into());
    }
    if a.fo_rows != expected_rows {
        out.problem(format!(
            "FO query returned {} rows, expected {expected_rows}",
            a.fo_rows
        ));
    }
}

/// The paper's Fig. 1a / 1b pair is 4-intersection equivalent but not
/// homeomorphic; `Some(reason)` if the database says otherwise.
pub fn fixture_pair_problem() -> Option<String> {
    let (a, b) = (fixtures::fig_1a(), fixtures::fig_1b());
    if !topodb::relations::four_intersection_equivalent(&a, &b) {
        return Some("fig 1a / 1b are not 4-intersection equivalent".into());
    }
    let (a, b) = (
        TopoDatabase::from_instance(a),
        TopoDatabase::from_instance(b),
    );
    a.snapshot()
        .homeomorphic_to(&b.snapshot())
        .then(|| "fig 1a / 1b reported homeomorphic".into())
}

/// Remove a directory tree the benchmark made, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
