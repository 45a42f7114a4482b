//! What a result has to say about where it was measured.

use std::process::{Command, Stdio};

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First stdout line of `program args…`, or `"unknown"`. The child is
/// waited for; nothing is left running.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The checkout's commit, `"unknown"` outside a git repository (the
/// acceptance driver's checkout is not one).
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// FNV-1a of the benchmark's own `Cargo.lock`, as built.
pub fn cargo_lock_hash() -> String {
    format!(
        "{:016x}",
        imc_core::snapshot::fnv1a(include_bytes!("../Cargo.lock"))
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB. The daemons
/// run in-process, so this covers them.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The benchmark's scratch/output directory, `benchmark/out`: under the
/// working directory when that is a checkout root (how the driver runs
/// it), else next to the manifest the binary was built from.
pub fn out_dir() -> std::path::PathBuf {
    let in_cwd = std::path::Path::new("benchmark");
    if in_cwd.join("Cargo.toml").is_file() {
        in_cwd.join("out")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_probes_answer() {
        assert!(nproc() >= 1);
        assert_eq!(cargo_lock_hash().len(), 16);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(out_dir().ends_with("out"));
    }
}
