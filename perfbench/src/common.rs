//! Shared pieces: the per-run scratch directory, sample statistics,
//! the report every workload fills in, and host facts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: run one set-up (a batch on `dse-sweep`), print its
    /// figures and exit (a child process of the set-up repetitions).
    pub setup_only: bool,
}

/// A scratch directory private to one run, under `.bench_tmp/` in the
/// working directory, removed when dropped (also when a check panics).
/// It holds the run's profile cache and journal, so every run starts
/// from empty on-disk state.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create(tag: &str) -> std::io::Result<RunDir> {
        let path = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// The profile-cache root the run points `SSIM_PROFILE_CACHE_DIR` at.
    pub fn profile_cache(&self) -> PathBuf {
        self.path.join("profile-cache")
    }

    /// Empties the profile cache, so the next set-up profiles cold.
    pub fn clear_profile_cache(&self) {
        let dir = self.profile_cache();
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("remove profile cache");
        }
    }

    /// The run's journal path.
    pub fn journal(&self) -> PathBuf {
        self.path.join("journal.ndjson")
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still owns a sibling directory.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Prints one set-up's figures as a `setup …` line, for the parent
/// process to read back with [`child_set_ups`].
pub fn print_set_up(figures: &[f64]) {
    let words: Vec<String> = figures.iter().map(f64::to_string).collect();
    println!("setup {}", words.join(" "));
}

/// Runs `--setup-only 1` for `workload` in a fresh process of this
/// binary, waits for it, and returns the figures of every set-up it
/// printed. The child makes its own scratch directory and cache.
pub fn child_set_ups<const N: usize>(workload: &str) -> std::io::Result<Vec<[f64; N]>> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let figures: Option<Vec<[f64; N]>> = text
        .lines()
        .filter_map(|l| l.strip_prefix("setup "))
        .map(|l| {
            let v: Vec<f64> = l.split(' ').filter_map(|x| x.parse().ok()).collect();
            <[f64; N]>::try_from(v).ok()
        })
        .collect();
    match figures {
        Some(f) if out.status.success() && !f.is_empty() => Ok(f),
        _ => Err(std::io::Error::other(format!(
            "set-up child failed ({}): {text}",
            out.status
        ))),
    }
}

/// Linear-interpolated quantile of `xs` (need not be sorted).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest of `xs`: the undisturbed cost of a unit repeated over a
/// run. Other tenants of a shared host only ever add time to a unit, in
/// phases lasting seconds to minutes, so the fastest repetition is the
/// estimate of the unit's own cost that those phases move least.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Tracing overhead in percent from a traced run's rounds, `(wall,
/// traced)` in run order: median traced round wall over median untraced
/// round wall. Round 0 is untraced and carries the run's warm-up, so it
/// is left out whenever another untraced round exists.
pub fn overhead_pct(rounds: &[(f64, bool)]) -> f64 {
    let traced: Vec<f64> = rounds.iter().filter(|r| r.1).map(|r| r.0).collect();
    let mut untraced: Vec<f64> = rounds.iter().filter(|r| !r.1).map(|r| r.0).collect();
    if untraced.len() > 1 {
        untraced.remove(0);
    }
    (median(&traced) / median(&untraced) - 1.0) * 100.0
}

/// FNV-1a over a sequence of words: the result digests printed for
/// the determinism checks.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Digest of one simulation result: every field the tables report.
pub fn sim_digest(r: &ssim::prelude::SimResult) -> u64 {
    fnv([
        r.instructions,
        r.cycles,
        r.branch.branches,
        r.branch.taken,
        r.branch.correct,
        r.branch.redirects,
        r.branch.mispredicts,
        r.ruu_occupancy.to_bits(),
        r.lsq_occupancy.to_bits(),
        r.ifq_occupancy.to_bits(),
    ])
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks (empty when every check held).
    pub failures: Vec<String>,
    /// Metric values by name, and the sample count behind each.
    pub values: BTreeMap<&'static str, (f64, usize)>,
    /// Extra report lines: digests, per-class figures.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Sets a metric with the number of samples behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The checked-out commit, read from `.git` when the working directory
/// is a git checkout (`unknown` otherwise).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(name)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A seeded stream of `u64`s for deriving benchmark inputs.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    ssim_dse::splitmix64(seed ^ ssim_dse::splitmix64(a.wrapping_mul(0x9e37_79b9) ^ (b << 32)))
}

/// Current value of an `ssim-obs` counter (0 before it first counts).
pub fn obs_counter(name: &str) -> u64 {
    ssim_obs::snapshot().counter(name).unwrap_or(0)
}
