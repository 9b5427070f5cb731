//! Host facts for the record header, and child processes timed with
//! their peak RSS.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cumulative (steal, total) jiffies of the aggregate `cpu` line of
/// `/proc/stat`, or zeros where it cannot be read.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let total = fields.iter().take(8).sum();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, total)
}

/// Share of CPU time stolen by the hypervisor between two readings, %.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// The git revision of the source tree, when it is a git checkout. Git
/// is kept from searching above the working directory.
pub fn git_rev() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// FNV-1a digest of the library sources (`crates/*/src/**/*.rs` and the
/// manifests), which names the code under test where no git revision
/// exists.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = crate::Fnv::default();
    for f in &files {
        h.str(&f.to_string_lossy());
        if let Ok(bytes) = std::fs::read(f) {
            h.bytes(&bytes);
        }
    }
    format!("{:016x}", h.0)
}

/// What one child process did.
pub struct ChildRun {
    pub secs: f64,
    pub max_rss_kib: u64,
    pub code: i32,
    pub stdout: String,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// The flag that makes this binary a spawner: `perfbench --spawn-measure
/// <program> <args>...` runs the program with this process's stdout,
/// then prints `<seconds> <peak RSS KiB> <exit code>` on stderr.
///
/// Linux carries a process's pre-`exec` memory high-water mark into the
/// `ru_maxrss` that `wait4` reports, and a child spawned straight from
/// the benchmark would inherit the benchmark's. Spawned from this small
/// process instead, the CLI's peak RSS is its own.
pub const SPAWN_FLAG: &str = "--spawn-measure";

/// The spawner's side of [`SPAWN_FLAG`]: returns the exit code to use.
pub fn spawn_measure(program: &str, args: &[String]) -> i32 {
    let started = Instant::now();
    let child = match Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot run {program}: {e}");
            return 2;
        }
    };
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is this process's own unreaped child; `status` and
    // `usage` are valid, exclusively borrowed out-parameters of the
    // layouts `wait4` writes (`int`, 64-bit Linux `struct rusage`).
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let secs = started.elapsed().as_secs_f64();
    if rc != pid {
        eprintln!("wait4 failed: {}", std::io::Error::last_os_error());
        return 2;
    }
    // WIFEXITED / WEXITSTATUS; a death by signal reads as -1.
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    eprintln!("{secs} {} {code}", usage.maxrss);
    0
}

/// Runs `program` with `args` through the spawner, in `dir`,
/// with stdout captured.
pub fn run_child(program: &Path, args: &[String], dir: &Path) -> std::io::Result<ChildRun> {
    let me = std::env::current_exe()?;
    let out = Command::new(me)
        .arg(SPAWN_FLAG)
        .arg(program)
        .args(args)
        .current_dir(dir)
        .output()?;
    let err = String::from_utf8_lossy(&out.stderr);
    let fields: Vec<&str> = err
        .lines()
        .last()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let bad = || std::io::Error::other(format!("spawner: {err}"));
    let [secs, rss, code] = fields.as_slice() else {
        return Err(bad());
    };
    Ok(ChildRun {
        secs: secs.parse().map_err(|_| bad())?,
        max_rss_kib: rss.parse().map_err(|_| bad())?,
        code: code.parse().map_err(|_| bad())?,
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    })
}
