//! Child processes of the benchmark: the release binaries it drives,
//! reaped with `wait4` so each one's peak RSS and CPU time are its own
//! (the standard library's `wait` discards the rusage).

use crate::http::Session;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set size in MiB.
    pub rss_mb: f64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
}

/// Blocks until `child` ends and reaps it. The `Child` must not be
/// waited on afterwards; it is consumed here.
pub fn reap(child: Child) -> Result<Exit, String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `pid` names a child this process spawned and has not
        // reaped (the `Child` is consumed, so `std` never waits on it),
        // and both out-pointers refer to live, properly sized locals.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    drop(child);
    let exited = status & 0x7f == 0;
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(Exit {
        code: exited.then_some((status >> 8) & 0xff),
        rss_mb: usage.maxrss as f64 / 1024.0,
        cpu_s: secs(usage.utime) + secs(usage.stime),
    })
}

/// Runs `cmd` to completion, discarding stdout and capturing stderr
/// into `dir/<name>.stderr`; returns the exit record, the wall time
/// from spawn and the stderr path.
pub fn run_captured(
    mut cmd: Command,
    dir: &Path,
    name: &str,
) -> Result<(Exit, Duration, PathBuf), String> {
    let err = dir.join(format!("{name}.stderr"));
    let file = std::fs::File::create(&err).map_err(|e| format!("{}: {e}", err.display()))?;
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(file);
    let start = Instant::now();
    let child = cmd.spawn().map_err(|e| format!("spawning {name}: {e}"))?;
    let exit = reap(child)?;
    Ok((exit, start.elapsed(), err))
}

/// A running `tradeoff-server`, shut down and reaped on drop if the
/// benchmark did not stop it explicitly.
pub struct Server {
    child: Option<Child>,
    /// The bound address.
    pub addr: SocketAddr,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns the server with two workers (the host's CPUs) on an
    /// ephemeral port and waits until it has written its address.
    pub fn spawn(bin: &Path, dir: &Path, timeout_s: u64) -> Result<Server, String> {
        let addr_file = dir.join(format!("addr.{}", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let spawned = Instant::now();
        let child = Command::new(bin.join("tradeoff-server"))
            .args(["--addr", "127.0.0.1:0", "--threads", "2"])
            .args(["--request-timeout", &timeout_s.to_string()])
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning tradeoff-server: {e}"))?;
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
        };
        let deadline = spawned + Duration::from_secs(20);
        loop {
            if let Some(addr) = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|t| t.trim().parse().ok())
            {
                server.addr = addr;
                let _ = std::fs::remove_file(&addr_file);
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("tradeoff-server did not report its address".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the server to shut down and reaps it.
    pub fn stop(mut self) -> Result<Exit, String> {
        let child = self.child.take().expect("server not yet stopped");
        let asked = Session::new(self.addr).call("POST", "/shutdown", "");
        if asked.is_err() {
            let mut child = child;
            let _ = child.kill();
            return reap(child).and(Err("server refused shutdown".to_string()));
        }
        let exit = reap(child)?;
        match exit.code {
            Some(0) => Ok(exit),
            code => Err(format!("tradeoff-server exited with {code:?}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = reap(child);
        }
    }
}
