//! What the benchmark reads about its own process and the host: CPU
//! time from `/proc/self/stat`, peak RSS, load average, CPU flags, and
//! the identity of the source tree it was built from.

use fault_sneaking::tensor::hash::Fnv1a;
use std::path::Path;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is
/// 100 on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// CPU-time fields of `/proc/<pid>/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// User time of the process itself (field 14).
    pub utime: u64,
    /// System time of the process itself (field 15).
    pub stime: u64,
    /// User time of waited-for children (field 16).
    pub cutime: u64,
    /// System time of waited-for children (field 17).
    pub cstime: u64,
}

impl CpuTicks {
    /// Process plus reaped-children CPU time, in seconds.
    pub fn total_s(&self) -> f64 {
        (self.utime + self.stime + self.cutime + self.cstime) as f64 / TICKS_PER_S
    }
}

/// Parses the CPU-time fields out of a `/proc/<pid>/stat` line.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTicks> {
    let rest = &line[line.rfind(')')? + 1..];
    // After the name, the first field is field 3 (state).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(CpuTicks {
        utime: field(14)?,
        stime: field(15)?,
        cutime: field(16)?,
        cstime: field(17)?,
    })
}

/// This process's CPU time so far, children it has reaped included.
pub fn cpu_now() -> CpuTicks {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak RSS to its current RSS (Linux ≥ 4.0), so
/// a later [`peak_rss_mb`] covers only what ran after the reset.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The vector-ISA flags of the first CPU that the kernels could use.
pub fn cpu_flags() -> Vec<String> {
    const WATCHED: [&str; 6] = ["sse4_2", "avx", "avx2", "fma", "avx512f", "avx512_vnni"];
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = info
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, f)| f.split_whitespace().collect())
        .unwrap_or_default();
    WATCHED
        .iter()
        .filter(|w| flags.contains(w))
        .map(|w| w.to_string())
        .collect()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `"none"` when `root` is not a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "none".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// binary is built from (`Cargo.toml`, `Cargo.lock`, `src/`, `crates/`,
/// and the benchmark's own manifest and sources), in sorted path order.
/// Identifies the tree even where there is no git metadata.
pub fn source_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = Fnv1a::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        h.write_bytes(rel.to_string_lossy().as_bytes());
        h.write_bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        let keep = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock")
        );
        if keep {
            out.push(path.to_path_buf());
        }
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_fields_including_children() {
        let line = "4242 (fsa-perfbench) R 1 4242 4242 0 -1 4194304 1200 80 0 0 \
                    731 55 1960 143 20 0 3 0 123456 98765432 4321 18446744073709551615";
        let t = parse_stat(line).expect("parses");
        assert_eq!(
            t,
            CpuTicks {
                utime: 731,
                stime: 55,
                cutime: 1960,
                cstime: 143
            }
        );
        assert!((t.total_s() - 28.89).abs() < 1e-9);
    }

    #[test]
    fn command_names_with_spaces_and_parens_do_not_shift_fields() {
        let line = "7 (a) b (c)) S 1 7 7 0 -1 0 0 0 0 0 5 6 7 8 20 0 1 0 1 1 1";
        let t = parse_stat(line).expect("parses");
        assert_eq!((t.utime, t.stime, t.cutime, t.cstime), (5, 6, 7, 8));
    }

    #[test]
    fn truncated_lines_are_rejected() {
        assert_eq!(parse_stat("1 (x) R 0 0 0 0 0 0 0 0 0 0 5 6"), None);
        assert_eq!(parse_stat("no parenthesis here"), None);
    }

    #[test]
    fn own_process_is_readable() {
        // The test binary has burned some CPU and has a resident set.
        assert!(cpu_now().total_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
