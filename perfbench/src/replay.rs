//! Commit replay through the public functions the facade itself calls.
//!
//! `try_commit` cannot be split from outside, so a traced run replays the
//! acknowledged commits afterwards, in epoch order and on one thread, one
//! call per stage: clone-and-apply, `partition_instance`, the component
//! builds of the touched groups, `GlobalComplexView::new`, then the log
//! append and fsync on a shadow log, and one checkpoint of the final
//! state. At each epoch the replay's components and regions are compared
//! with the facade's.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use topodb::arrangement::counters::{phase_counters, PhaseCounters};
use topodb::arrangement::{self, ComponentComplex, GlobalComplexView};
use topodb::spatial_core::instance::SpatialInstance;
use topodb::wal::{BatchRecord, SyncPolicy, Wal, WalConfig, WalOp};
use topodb::Snapshot;

/// A commit the facade acknowledged.
pub struct Acked {
    pub epoch: u64,
    pub ops: Vec<WalOp>,
    pub changed: Vec<String>,
}

/// Components and regions of one epoch, hashed.
pub fn fingerprint(view: &GlobalComplexView, names: &[String]) -> u64 {
    let mut parts: Vec<(Vec<String>, (usize, usize, usize))> = view
        .components()
        .iter()
        .map(|c| c.region_names().to_vec())
        .zip(view.component_cell_counts())
        .collect();
    parts.sort();
    let mut h = DefaultHasher::new();
    (parts, names).hash(&mut h);
    h.finish()
}

pub fn snapshot_fingerprint(snap: &Snapshot) -> u64 {
    fingerprint(&snap.complex_view(), &snap.names())
}

/// Seconds per stage of one build.
pub struct Build {
    pub partition: f64,
    pub sweep: f64,
    pub assemble: f64,
    pub work: PhaseCounters,
    pub fingerprint: u64,
    components: BTreeMap<Vec<String>, Arc<ComponentComplex>>,
}

/// Partition, build every group `reuse` declines (on the facade's worker
/// pool and strip budget), assemble the view.
fn build<F>(instance: &SpatialInstance, reuse: F) -> Build
where
    F: Fn(&[String]) -> Option<Arc<ComponentComplex>>,
{
    let t = Instant::now();
    let groups = arrangement::partition_instance(instance);
    let partition = t.elapsed().as_secs_f64();
    let names = instance.names();
    let keys: Vec<Vec<String>> = groups
        .iter()
        .map(|g| {
            g.region_indices
                .iter()
                .map(|&i| names[i].to_string())
                .collect()
        })
        .collect();
    let mut slots: Vec<Option<Arc<ComponentComplex>>> = keys.iter().map(|k| reuse(k)).collect();
    let missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
    let threads = arrangement::parallel::configured_threads();
    let budget = arrangement::strip::strip_budget(missing.len(), threads);
    let before = phase_counters();
    let t = Instant::now();
    let built = arrangement::parallel::map_indexed(missing.len(), threads, |j| {
        Arc::new(arrangement::build_group_component_budgeted(
            instance,
            &groups[missing[j]],
            budget,
        ))
    });
    let sweep = t.elapsed().as_secs_f64();
    let work = phase_counters().delta_since(&before);
    for (j, c) in built.into_iter().enumerate() {
        slots[missing[j]] = Some(c);
    }
    let list: Vec<Arc<ComponentComplex>> = slots.into_iter().map(|s| s.expect("filled")).collect();
    let global: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    let t = Instant::now();
    let view = GlobalComplexView::new(global.clone(), list.clone());
    let assemble = t.elapsed().as_secs_f64();
    Build {
        partition,
        sweep,
        assemble,
        work,
        fingerprint: fingerprint(&view, &global),
        components: keys.into_iter().zip(list).collect(),
    }
}

/// A cold build of `instance`, stage by stage.
pub fn cold(instance: &SpatialInstance) -> Build {
    build(instance, |_| None)
}

/// Per-commit stage timings and counts of a replay.
#[derive(Default)]
pub struct Stages {
    pub apply: Vec<f64>,
    pub partition: Vec<f64>,
    pub sweep: Vec<f64>,
    pub assemble: Vec<f64>,
    pub events: Vec<f64>,
    pub cells_walked: Vec<f64>,
    pub append: Vec<f64>,
    pub fsync: Vec<f64>,
    pub checkpoint: Vec<f64>,
    /// Epochs whose fingerprint was compared with the facade's.
    pub checked: usize,
}

impl Stages {
    pub fn absorb(&mut self, o: Stages) {
        for (a, b) in [
            (&mut self.apply, o.apply),
            (&mut self.partition, o.partition),
            (&mut self.sweep, o.sweep),
            (&mut self.assemble, o.assemble),
            (&mut self.events, o.events),
            (&mut self.cells_walked, o.cells_walked),
            (&mut self.append, o.append),
            (&mut self.fsync, o.fsync),
            (&mut self.checkpoint, o.checkpoint),
        ] {
            a.extend(b);
        }
        self.checked += o.checked;
    }
}

/// Replay `acked` (any order) from `base` at epoch `base_epoch`, then time
/// one checkpoint of the final state. The shadow log lives in
/// `shadow_dir`. `captured` holds facade fingerprints by epoch; every one
/// present is compared.
pub fn replay(
    base: &SpatialInstance,
    base_epoch: u64,
    mut acked: Vec<Acked>,
    captured: &BTreeMap<u64, u64>,
    shadow_dir: &Path,
) -> Result<Stages, String> {
    acked.sort_by_key(|a| a.epoch);
    let shadow_cfg = WalConfig::default()
        .with_sync(SyncPolicy::None)
        .with_checkpoint_every(u64::MAX);
    let wal = Wal::create(shadow_dir, base_epoch, base, shadow_cfg)
        .map_err(|e| format!("shadow log: {e}"))?;
    let mut stages = Stages::default();
    let mut instance = base.clone();
    let mut components = cold(base).components;
    for (k, commit) in acked.iter().enumerate() {
        let epoch = base_epoch + 1 + k as u64;
        if commit.epoch != epoch {
            return Err(format!(
                "acked epochs not contiguous: expected {epoch}, got {}",
                commit.epoch
            ));
        }
        let t = Instant::now();
        let mut next = instance.clone();
        let mut changed: Vec<String> = Vec::new();
        for op in &commit.ops {
            let name = match op {
                WalOp::Insert(name, region) => {
                    let old = next.insert(name.clone(), region.clone());
                    (old.as_ref() != next.ext(name)).then_some(name)
                }
                WalOp::Remove(name) => next.remove(name).is_some().then_some(name),
            };
            if let Some(name) = name {
                if !changed.contains(name) {
                    changed.push(name.clone());
                }
            }
        }
        stages.apply.push(t.elapsed().as_secs_f64());
        if changed != commit.changed {
            return Err(format!(
                "epoch {epoch}: replay changed {changed:?}, facade {:?}",
                commit.changed
            ));
        }
        let touched: BTreeSet<&String> = changed.iter().collect();
        let b = build(&next, |key| {
            if key.iter().any(|n| touched.contains(n)) {
                None
            } else {
                components.get(key).cloned()
            }
        });
        stages.partition.push(b.partition);
        stages.sweep.push(b.sweep);
        stages.assemble.push(b.assemble);
        stages.events.push(b.work.events_processed as f64);
        stages.cells_walked.push(b.work.cells_walked as f64);
        if let Some(&facade) = captured.get(&epoch) {
            if facade != b.fingerprint {
                return Err(format!(
                    "epoch {epoch}: replayed components differ from the facade's"
                ));
            }
            stages.checked += 1;
        }
        let record = BatchRecord {
            epoch,
            ops: commit.ops.clone(),
            changed: commit.changed.clone(),
        };
        let t = Instant::now();
        let outcome = wal
            .append_batch(&record, &next)
            .map_err(|e| format!("shadow append: {e}"))?;
        stages.append.push(t.elapsed().as_secs_f64());
        if let Some(e) = outcome.maintenance {
            return Err(format!("shadow log maintenance: {e}"));
        }
        let t = Instant::now();
        wal.sync().map_err(|e| format!("shadow fsync: {e}"))?;
        stages.fsync.push(t.elapsed().as_secs_f64());
        instance = next;
        components = b.components;
    }
    let t = Instant::now();
    wal.checkpoint(&instance)
        .map_err(|e| format!("shadow checkpoint: {e}"))?;
    stages.checkpoint.push(t.elapsed().as_secs_f64());
    drop(wal);
    crate::ops::remove_dir(shadow_dir);
    Ok(stages)
}
