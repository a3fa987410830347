//! The server under test as a child process, and the `/proc`
//! accounting read from outside it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// A running `biorank serve` child. Dropping it kills and reaps the
/// process, so no exit path of the benchmark leaves a server behind.
pub struct ServerProc {
    child: Child,
    /// The address from the server's listening line.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `bin serve` on an ephemeral loopback port (`--cache 0`
    /// when `cache` is `Some(0)`; the default capacity otherwise) and
    /// blocks until it prints its listening line.
    pub fn spawn(bin: &Path, cache: Option<usize>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(capacity) = cache {
            cmd.args(["--cache", &capacity.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut banner = String::new();
        let read = BufReader::new(stdout).read_line(&mut banner);
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("read listening line: {e}"))?;
        // "biorank-serve listening on 127.0.0.1:PORT (4 workers, ..."
        server.addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("no listening line from the server, got {banner:?}"))?;
        Ok(server)
    }

    /// User plus system CPU seconds the server has consumed so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        cpu_seconds(&format!("/proc/{}/stat", self.child.id()))
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Kills the server and waits until it has exited.
    pub fn stop(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        // Errors mean the process is already gone; nothing to undo.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// User plus system CPU seconds this benchmark process has consumed.
pub fn own_cpu_seconds() -> Result<f64, String> {
    cpu_seconds("/proc/self/stat")
}

/// Host-wide CPU ticks from `/proc/stat`: (stolen by the hypervisor,
/// total). Their growth over a window tells how much of the machine
/// other tenants took while it was measured.
pub fn host_steal_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("read /proc/stat: {e}"))?;
    // cpu  user nice system idle iowait irq softirq steal ...
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    match ticks.get(7) {
        Some(&steal) => Ok((steal, ticks.iter().take(8).sum())),
        None => Err("malformed /proc/stat".into()),
    }
}

/// `utime + stime` of a `/proc/<pid>/stat` file, in seconds.
fn cpu_seconds(path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / clock_ticks_per_second()),
        _ => Err(format!("malformed {path}")),
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and has no preconditions;
    // an unknown name returns -1, which falls back below.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}
