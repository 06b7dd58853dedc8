//! What the harness takes from its surroundings: a scratch directory
//! inside the build tree, and the process's peak resident set.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The directory the benchmark binary sits in. Scratch data and trace
/// files go here: it is inside the checkout (the driver forbids writes
/// anywhere else) and already ignored by git as a build directory.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent().expect("the binary sits in a directory").to_path_buf()
}

/// A private scratch directory, removed when dropped — on success and,
/// because panics unwind, on failure.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join("e2e-scratch").join(format!("{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`). One process runs one workload, so this is the
/// workload's own peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status") / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204800.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn scratch_directories_vanish_with_their_owner() {
        let path = {
            let s = Scratch::new("unit");
            std::fs::write(s.path().join("f"), b"x").unwrap();
            assert!(s.path().starts_with(out_dir()));
            s.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
