//! The epoch chain, checked against a cold rebuild and hammered.
//!
//! Three suites:
//!
//! 1. **Randomized interleaved differential** — a deterministic schedule of
//!    batched commits and reads. After every step the head must observe
//!    exactly what a cold [`TopoDatabase::from_instance`] of the same
//!    instance observes (names, relation matrix, anchored-query rows): that
//!    database is built from scratch with no component reuse. The head's
//!    complex view must also fingerprint-match
//!    [`arrangement::build_complex_monolithic`] up to re-indexing, and
//!    long-lived snapshots from earlier epochs must keep the digest they had
//!    when they were taken.
//! 2. **Concurrent stress** — N reader threads acquiring snapshots while M
//!    writers commit disjoint and overlapping component sets through
//!    [`TopoDatabase::begin_shared`]; every reader asserts epoch
//!    monotonicity and internal consistency, and the final state must equal
//!    a cold rebuild of each writer's final sub-state (writers own their
//!    name spaces, so the final instance is interleaving-independent).
//! 3. **Pointer-identical reuse** — commits must carry every untouched
//!    `Arc<ComponentComplex>` of their base epoch into the published epoch
//!    unchanged, including across concurrent disjoint commits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use topodb::arrangement;
use topodb::query::PreparedQuery;
use topodb::spatial_core::instance::SpatialInstance;
use topodb::spatial_core::prelude::*;
use topodb::TopoDatabase;

// The re-indexing-invariant complex fingerprint of the arrangement crate's
// differential suites.
#[path = "../../arrangement/tests/common/mod.rs"]
mod common;
use common::fingerprint;

const CLUSTERS: usize = 6;
const PER_CLUSTER: usize = 3;

fn base_map(seed: u64) -> SpatialInstance {
    datagen::clustered_map(CLUSTERS, PER_CLUSTER, seed)
}

/// Byte-comparable digest of everything a reader can observe of an
/// instance: names, the full relation matrix, and the rows of an anchored
/// open query.
fn observable_digest(snap: &topodb::Snapshot, query: &PreparedQuery) -> String {
    format!(
        "names={:?} matrix={:?} rows={:?}",
        snap.names(),
        snap.relation_matrix(),
        snap.evaluate(query).expect("anchored query evaluates"),
    )
}

/// The test-only oracle: `snap` (of a database whose instance is
/// `instance`) must observe what a cold rebuild of `instance` observes, and
/// its complex view must match the monolithic construction up to
/// re-indexing.
fn assert_matches_cold_rebuild(
    snap: &topodb::Snapshot,
    instance: &SpatialInstance,
    query: &PreparedQuery,
    context: &str,
) {
    let cold = TopoDatabase::from_instance(instance.clone());
    assert_eq!(
        observable_digest(snap, query),
        observable_digest(&cold.snapshot(), query),
        "head diverged from a cold rebuild {context}"
    );
    assert_eq!(
        fingerprint(&*snap.complex_view()),
        fingerprint(&arrangement::build_complex_monolithic(instance)),
        "head view diverged from the monolithic complex {context}"
    );
}

#[test]
fn randomized_interleaved_schedules_match_cold_rebuild_oracle() {
    let query = PreparedQuery::compile("overlap(ext(x), C000_R000)").expect("query compiles");
    for seed in 0..4u64 {
        let mut model = base_map(900 + seed);
        let db = TopoDatabase::from_instance(model.clone());
        let mut rng = StdRng::seed_from_u64(0xec0c + seed);
        let mut held: Vec<(topodb::Snapshot, u64, String)> = Vec::new();
        for step in 0..30 {
            let context = format!("at step {step} (seed {seed})");
            match rng.gen_range(0..10u32) {
                // Batched commit: 1–3 operations over random clusters,
                // mirrored onto the plain model instance.
                0..=4 => {
                    let before = db.update_epoch();
                    let mut txn = db.begin_shared();
                    for _ in 0..rng.gen_range(1..=3) {
                        let cluster = rng.gen_range(0..CLUSTERS);
                        let name = format!("X{:03}", rng.gen_range(0..12));
                        if rng.gen_bool(0.3) {
                            txn.remove(name.clone());
                            model.remove(&name);
                        } else {
                            let region = cluster_region(&mut rng, cluster);
                            txn.insert(name.clone(), region.clone());
                            model.insert(name, region);
                        }
                    }
                    let summary = txn.commit();
                    let expected = before + u64::from(!summary.changed.is_empty());
                    assert_eq!(summary.epoch, expected, "epoch accounting {context}");
                    assert_eq!(db.update_epoch(), expected, "epoch accounting {context}");
                }
                // Read: nothing to do beyond the per-step check below.
                5..=8 => {}
                // Hold a snapshot: earlier epochs must keep answering as
                // they did when taken.
                _ => {
                    let snap = db.snapshot();
                    let (epoch, digest) = (snap.epoch(), observable_digest(&snap, &query));
                    held.push((snap, epoch, digest));
                }
            }
            assert_eq!(*db.instance(), model, "head instance diverged {context}");
            let head = db.snapshot();
            assert_eq!(head.epoch(), db.update_epoch());
            assert_matches_cold_rebuild(&head, &model, &query, &context);
        }
        for (snap, epoch, digest) in &held {
            assert_eq!(snap.epoch(), *epoch, "held snapshot changed epoch");
            assert_eq!(&observable_digest(snap, &query), digest, "held snapshot drifted");
        }
    }
}

/// A pseudo-random rectangle inside cluster `c`'s area.
fn cluster_region(rng: &mut StdRng, c: usize) -> Region {
    datagen::cluster_rect(rng, c, CLUSTERS)
}

#[test]
fn concurrent_readers_and_writers_stress() {
    let db = Arc::new(TopoDatabase::from_instance(base_map(7777)));
    // Warm the root epoch so reader assertions start from a built head.
    db.snapshot();
    let writers = 3usize;
    let commits_per_writer = 12usize;
    let stop = Arc::new(AtomicBool::new(false));
    let max_epoch_seen = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // N readers: snapshots must be internally consistent and epochs
        // monotone per reader.
        for _ in 0..4 {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let max_epoch_seen = Arc::clone(&max_epoch_seen);
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = db.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epochs went backwards: {} after {last_epoch}",
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    max_epoch_seen.fetch_max(last_epoch, Ordering::Relaxed);
                    // A published epoch is fully built: its matrix row count
                    // must match its name count.
                    let names = snap.names();
                    let matrix = snap.relation_matrix();
                    assert_eq!(matrix.len(), names.len() * names.len().saturating_sub(1) / 2);
                }
            });
        }
        // M writers: writer w owns names W{w}_*; writers 0 and 1 target
        // disjoint clusters, writer 2 sprays across all clusters so some
        // commits overlap components touched by the others.
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xbeef + w as u64);
                    for i in 0..commits_per_writer {
                        let cluster =
                            if w < 2 { w } else { rng.gen_range(0..CLUSTERS) };
                        let mut txn = db.begin_shared();
                        txn.insert(format!("W{w}_N{i:03}"), cluster_region(&mut rng, cluster));
                        if i >= 4 {
                            txn.remove(format!("W{w}_N{:03}", i - 4));
                        }
                        let summary = txn.commit();
                        assert!(
                            !summary.changed.is_empty(),
                            "every stress batch inserts a fresh name"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Every effective commit bumped the epoch exactly once, in a total
    // order.
    assert_eq!(db.update_epoch(), (writers * commits_per_writer) as u64);
    assert!(max_epoch_seen.load(Ordering::Relaxed) <= db.update_epoch());

    // Writers own disjoint name spaces and each applied a deterministic
    // final sub-state, so the final instance is interleaving-independent:
    // a cold rebuild of the same final sub-states must observe a
    // byte-identical world.
    let mut expected = base_map(7777);
    for w in 0..writers {
        let mut rng = StdRng::seed_from_u64(0xbeef + w as u64);
        for i in 0..commits_per_writer {
            let cluster = if w < 2 { w } else { rng.gen_range(0..CLUSTERS) };
            expected.insert(format!("W{w}_N{i:03}"), cluster_region(&mut rng, cluster));
            if i >= 4 {
                expected.remove(&format!("W{w}_N{:03}", i - 4));
            }
        }
    }
    assert_eq!(*db.instance(), expected, "final instance diverged");
    let query = PreparedQuery::compile("overlap(ext(x), C000_R000)").expect("query compiles");
    assert_matches_cold_rebuild(&db.snapshot(), &expected, &query, "after the stress run");
    eprintln!(
        "stress: {} epochs, {} publish conflicts, {} component re-sweeps",
        db.update_epoch(),
        db.publish_conflict_count(),
        db.component_rebuild_count()
    );
}

#[test]
fn commits_reuse_untouched_components_pointer_identically() {
    let db = TopoDatabase::from_instance(base_map(31415));
    let before = db.component_complexes();
    assert!(before.len() >= CLUSTERS, "clustered map yields at least one component per cluster");

    // A commit confined to cluster 0 must republish every component not
    // containing a cluster-0 region pointer-identically.
    let mut rng = StdRng::seed_from_u64(99);
    let mut txn = db.begin_shared();
    txn.insert("Z000", cluster_region(&mut rng, 0));
    txn.commit();
    let after = db.component_complexes();
    for (key, component) in &before {
        if key.iter().any(|n| n.starts_with("C000")) {
            continue; // cluster 0 may legitimately re-sweep
        }
        let reused = after
            .iter()
            .any(|(k, c)| k == key && Arc::ptr_eq(c, component));
        assert!(reused, "untouched component {key:?} was not reused pointer-identically");
    }

    // The same guarantee under *concurrent* disjoint commits: components of
    // clusters 2..CLUSTERS are untouched by writers hitting clusters 0/1.
    let base = db.component_complexes();
    let db = Arc::new(db);
    std::thread::scope(|scope| {
        for w in 0..2usize {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + w as u64);
                for i in 0..6 {
                    let mut txn = db.begin_shared();
                    txn.insert(format!("Y{w}_{i:02}"), cluster_region(&mut rng, w));
                    txn.commit();
                }
            });
        }
    });
    let final_components = db.component_complexes();
    for (key, component) in &base {
        if key.iter().any(|n| n.starts_with("C000") || n.starts_with("C001") || n.starts_with('Z'))
        {
            continue;
        }
        let reused = final_components
            .iter()
            .any(|(k, c)| k == key && Arc::ptr_eq(c, component));
        assert!(
            reused,
            "component {key:?} untouched by either concurrent writer was re-swept"
        );
    }
}
