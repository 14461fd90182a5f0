//! Host facts: process counters from `/proc` and the run record printed
//! with every result, so a number is never read without its host.

use std::path::Path;

/// Bytes this process caused to be written to storage
/// (`write_bytes` of `/proc/self/io`), if the kernel reports it.
pub fn write_bytes() -> Option<u64> {
    proc_field("/proc/self/io", "write_bytes:")
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    proc_field("/proc/self/status", "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Current resident set size in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    proc_field("/proc/self/status", "VmRSS:").map(|kib| kib as f64 / 1024.0)
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or("unknown".into(), |(_, fs)| fs)
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark may run in an export that is not a repository.
pub fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map_or_else(|| format!("unknown ({reference})"), str::to_string)
}

/// `key=value` facts of one run.
#[derive(Default)]
pub struct RunRecord {
    pub entries: Vec<(String, String)>,
}

impl RunRecord {
    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.entries.push((key.to_string(), value.to_string()));
    }

    pub fn print(&self) {
        for (k, v) in &self.entries {
            println!("record {k}={v}");
        }
    }
}
