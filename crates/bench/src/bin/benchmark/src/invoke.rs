//! One end-to-end invocation of the release `procmine` binary: spawn,
//! wait, and check what it printed.
//!
//! The child is reaped with `wait4`, whose resource usage carries the
//! kernel's peak resident set for exactly that process. Its stdout and
//! stderr go to files in the work directory, so a long report can never
//! block on a full pipe; the `follow-wide` input is piped to its stdin
//! by one writer thread.

use crate::workload::{Mode, Prepared, Workload};
use procmine_core::FollowCheckpoint;
use std::ffi::OsString;
use std::fs::{self, File};
use std::io;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux (two `timeval`s, then fourteen `long`s).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
}

/// Blocks until process `pid` exits; returns its raw wait status and
/// its peak resident set in KiB.
fn wait_with_peak_rss(pid: u32) -> io::Result<(c_int, u64)> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as wait4(2) expects; `pid` is our own unreaped child.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            return Ok((status, u64::try_from(usage.maxrss).unwrap_or(0)));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// What one invocation did.
pub struct Outcome {
    /// Spawn to exit.
    pub wall: Duration,
    pub peak_rss_kib: u64,
    /// Exit code, or `None` if a signal ended the process.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `procmine` with `args`, piping `stdin_from` into it when given.
pub fn run(
    procmine: &Path,
    args: &[OsString],
    stdin_from: Option<&Path>,
    work: &Path,
) -> io::Result<Outcome> {
    let (out_path, err_path) = (
        work.join("invocation.stdout"),
        work.join("invocation.stderr"),
    );
    let mut cmd = Command::new(procmine);
    cmd.args(args)
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?)
        .stdin(if stdin_from.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        });
    let started = Instant::now();
    let mut child = cmd.spawn()?;
    let (waited, fed) = std::thread::scope(|s| {
        let writer = match (child.stdin.take(), stdin_from) {
            (Some(mut pipe), Some(path)) => Some(s.spawn(move || -> io::Result<()> {
                io::copy(&mut File::open(path)?, &mut pipe)?;
                Ok(()) // dropping `pipe` closes it: the child sees EOF
            })),
            _ => None,
        };
        let waited = wait_with_peak_rss(child.id());
        let fed = writer.map_or(Ok(()), |h| h.join().expect("stdin writer panicked"));
        (waited, fed)
    });
    let wall = started.elapsed();
    let (status, peak_rss_kib) = waited?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let stderr = fs::read_to_string(&err_path)?;
    // A child that exits early closes the pipe under the writer; its
    // exit code already reports that, so only a clean exit with a
    // failed feed is the harness's own error.
    if code == Some(0) {
        fed?;
    }
    Ok(Outcome {
        wall,
        peak_rss_kib,
        code,
        stdout: fs::read_to_string(&out_path)?,
        stderr,
    })
}

/// The `  X -> Y` edge lines of a mine report, sorted.
pub fn printed_edges(stdout: &str) -> Vec<(String, String)> {
    let mut edges: Vec<(String, String)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("mined `"))
        .skip(1)
        .map_while(|l| {
            let (u, v) = l.strip_prefix("  ")?.split_once(" -> ")?;
            Some((u.to_string(), v.to_string()))
        })
        .collect();
    edges.sort();
    edges
}

/// Checks one invocation against the workload's reference result.
/// `Err` says why it failed.
pub fn check(w: Workload, prepared: &Prepared, out: &Outcome, ck: &Path) -> Result<(), String> {
    if out.code != Some(0) {
        return Err(format!(
            "exit {:?}: {}",
            out.code,
            out.stderr.lines().last().unwrap_or("")
        ));
    }
    let edges = printed_edges(&out.stdout);
    if edges != prepared.edges {
        return Err(format!(
            "printed {} edges, the reference has {}{}",
            edges.len(),
            prepared.edges.len(),
            if edges.len() == prepared.edges.len() {
                " (different ones)"
            } else {
                ""
            }
        ));
    }
    match w.mode() {
        Mode::Batch { check: true, .. }
            if !out.stdout.lines().any(|l| l.starts_with("conformance: OK")) =>
        {
            return Err("no `conformance: OK` verdict".into());
        }
        Mode::Follow {
            checkpoint_every: Some(_),
            ..
        } => {
            if out.stderr.contains("evicted") {
                return Err("the case assembler evicted an open case".into());
            }
            FollowCheckpoint::load(ck).map_err(|e| format!("final checkpoint: {e}"))?;
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_edge_block_only() {
        let stdout = "mined `x.fm` with GeneralDag: 3 activities, 2 edges (9 executions, 0.1s)\n  \
                      B -> C\n  A -> B\ndistinct routes: 1\ncritical path:   A -> B -> C\n";
        assert_eq!(
            printed_edges(stdout),
            [("A".into(), "B".into()), ("B".into(), "C".into())]
        );
        assert!(printed_edges("no report\n").is_empty());
    }

    #[test]
    fn reports_exit_status_peak_rss_and_feeds_stdin() {
        let work = std::env::temp_dir().join(format!("procmine-invoke-{}", std::process::id()));
        fs::create_dir_all(&work).unwrap();
        let sh = Path::new("/bin/sh");
        let ok = run(sh, &["-c".into(), "echo hi".into()], None, &work).unwrap();
        assert_eq!(ok.code, Some(0));
        assert_eq!(ok.stdout, "hi\n");
        assert!(ok.peak_rss_kib > 0);
        let failed = run(sh, &["-c".into(), "exit 3".into()], None, &work).unwrap();
        assert_eq!(failed.code, Some(3));
        let input = work.join("input");
        fs::write(&input, "a\nb\nc\n").unwrap();
        let fed = run(sh, &["-c".into(), "wc -l".into()], Some(&input), &work).unwrap();
        assert_eq!(fed.stdout.trim(), "3");
        fs::remove_dir_all(&work).unwrap();
    }
}
