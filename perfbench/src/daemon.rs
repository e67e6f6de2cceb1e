//! Child `prophet` processes and the `/proc` readings taken around them.
//!
//! Every daemon the benchmark starts is owned by a [`Server`], whose
//! `Drop` kills and reaps it, so a child never outlives the benchmark on
//! any exit path, a panic included. The child also gets
//! `PR_SET_PDEATHSIG`, so it dies with the benchmark even when the
//! benchmark itself is killed.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// fixed at 100 on Linux).
pub const CLK_TCK: f64 = 100.0;

/// A running `prophet serve` or `prophet route` process.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
}

impl Server {
    /// Start `bin args..`, with stdout/stderr appended to `log`.
    pub fn spawn(
        bin: &Path,
        args: Vec<String>,
        addr: String,
        log: &Path,
    ) -> Result<Server, String> {
        let out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(bin);
        cmd.args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::from(out))
            .stderr(Stdio::from(err));
        // SAFETY: the closure runs in the forked child before exec and
        // only calls prctl(2), which is async-signal-safe; it touches no
        // memory of the parent.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64);
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Server {
            child: Some(child),
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Poll until `GET /v1/healthz` answers 200, retrying the connection
    /// rather than sleeping a fixed time.
    pub fn wait_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            if let Some(child) = self.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("{} exited during start-up: {status}", self.addr));
                }
            }
            if healthz_ok(&self.addr) {
                return Ok(());
            }
            if t0.elapsed() > timeout {
                return Err(format!("{} not ready after {timeout:?}", self.addr));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Graceful stop: SIGTERM, then wait (the daemon drains and flushes
    /// its store); SIGKILL if it has not exited within `grace`.
    pub fn stop(mut self, grace: Duration) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        // SAFETY: kill(2) with the pid of a child this process has not
        // yet reaped, so the pid cannot have been recycled.
        unsafe {
            kill(child.id() as i32, SIGTERM);
        }
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if t0.elapsed() < grace => std::thread::sleep(Duration::from_millis(2)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("{} ignored SIGTERM; killed", self.addr));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn healthz_ok(addr: &str) -> bool {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    if s.write_all(b"GET /v1/healthz HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    buf.starts_with(b"HTTP/1.1 200")
}

/// A loopback address whose port is free right now.
pub fn free_addr() -> Result<String, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let port = l.local_addr().map_err(|e| e.to_string())?.port();
    Ok(format!("127.0.0.1:{port}"))
}

/// Pids of `prophet serve`/`prophet route` processes already running.
/// A leftover daemon would hold ports and steal CPU from the run.
pub fn stale_prophets() -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim() != "prophet" {
            continue;
        }
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        let is_server = cmdline
            .split(|&b| b == 0)
            .any(|arg| arg == b"serve" || arg == b"route");
        if is_server {
            out.push(pid);
        }
    }
    out
}

/// user+system clock ticks a process has used, dead threads included.
pub fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th, stime the 13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    get(11) + get(12)
}

/// Peak resident set (`VmHWM`) of a process, in kB.
pub fn peak_rss_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Machine-wide `/proc/stat` ticks: (busy, steal). Busy is user + nice
/// + system + irq + softirq; steal is time the hypervisor ran others.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().next().unwrap_or("");
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| v.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = f.iter().position(|&x| x == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (f.get(4), f.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), (*fstype).to_string());
        }
    }
    best.1
}
