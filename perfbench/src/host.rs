//! Host facts stamped on every record, and the process's peak memory.

use serde::Value;

/// What makes two records comparable: the same machine shape and the
/// same build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical cores the process may run on.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside a git
    /// repository.
    pub git_rev: String,
}

impl Host {
    /// Probe the running host.
    #[must_use]
    pub fn probe() -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Whether `self` and `other` are the same machine (core count and
    /// CPU model). Builds may differ: that is what an A/B pair compares.
    #[must_use]
    pub fn same_machine(&self, other: &Host) -> bool {
        self.cores == other.cores && self.cpu_model == other.cpu_model
    }

    /// As a record field.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("cores".into(), Value::U64(self.cores as u64)),
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
        ])
    }

    /// From a record field.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing or mistyped field.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let map = value.as_map().ok_or("host is not an object")?;
        let text = |key: &str| match serde::field(map, key) {
            Ok(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("host.{key} missing")),
        };
        let cores = match serde::field(map, "cores") {
            Ok(Value::U64(n)) => *n as usize,
            _ => return Err("host.cores missing".into()),
        };
        Ok(Self {
            cores,
            cpu_model: text("cpu_model")?,
            rustc: text("rustc")?,
            git_rev: text("git_rev")?,
        })
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// The revision of the git repository in the working directory only: the
/// lookup is pinned to `./.git` so it never wanders into parent
/// directories.
fn git_rev() -> Option<String> {
    let output = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8(output.stdout).ok()?.trim().to_string();
    (output.status.success() && !rev.is_empty()).then_some(rev)
}

/// Return the freed heap to the kernel, then reset this process's
/// `VmHWM` to its current resident set, so that a later [`peak_rss_mb`]
/// covers only what runs after the reset. Without the first step the
/// allocator keeps the pages of a freed trace or of the harness's
/// verified replay resident (hundreds of MiB at 100k clients), the reset
/// starts from them, and the service's own allocations reuse them
/// unseen. Best effort: a kernel without `/proc/self/clear_refs` leaves
/// the peak as it is.
pub fn reset_peak_rss() {
    release_free_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// glibc's `malloc_trim(0)`: give every free heap page back to the
/// kernel.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[allow(unsafe_code)]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointer and only releases memory
    // the allocator holds free.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// `VmHWM` (peak resident set) of this process, MiB; 0 where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
