//! The `dynslice serve` child process, and what `/proc` says about it and
//! about the host.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dynslice::RunReport;

use crate::wire::Conn;

/// Clock ticks per second in `/proc/<pid>/stat` (USER_HZ, fixed at 100
/// on Linux for every architecture that exposes it).
const CLK_TCK: f64 = 100.0;

/// A running `dynslice serve --tcp 127.0.0.1:0` child.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    pid: u32,
    metrics_path: Option<PathBuf>,
}

impl Server {
    /// Spawns the server with `args` after the launch file, waits for it
    /// to write its bound address to a port file, and returns. Every
    /// `--preload` is built before the port file appears, so the server
    /// is ready to answer when this returns. With `metrics`, the server
    /// writes its `--metrics-json` report on shutdown.
    pub fn spawn(
        bin: &Path,
        dir: &Path,
        launch: &Path,
        args: &[String],
        metrics: bool,
    ) -> io::Result<Server> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let port_file = dir.join(format!("port-{seq}"));
        let metrics_path = metrics.then(|| dir.join(format!("metrics-{seq}.json")));
        let tmp = dir.join("tmp");
        std::fs::create_dir_all(&tmp)?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg(launch)
            .args(["--tcp", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(args)
            // Paged spill files go to the temp dir; keep them in the
            // benchmark's own directory.
            .env("TMPDIR", &tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(dir.join(format!("server-{seq}.log")))?);
        if let Some(p) = &metrics_path {
            cmd.arg("--metrics-json").arg(p);
        }
        let child = cmd.spawn()?;
        let pid = child.id();
        let mut server = Server { child: Some(child), addr: String::new(), pid, metrics_path };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if s.ends_with('\n') {
                    server.addr = s.trim().to_string();
                    return Ok(server);
                }
            }
            if let Some(status) = server.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(io::Error::other(format!(
                    "server exited before binding ({status}); see {}",
                    dir.join(format!("server-{seq}.log")).display()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not write its port file in 60 s"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Server CPU (user + system, all threads, live and exited) in ms.
    pub fn cpu_ms(&self) -> f64 {
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{}/stat", self.pid)) else {
            return f64::NAN;
        };
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN);
        (ticks(11) + ticks(12)) / CLK_TCK * 1e3
    }

    /// On-CPU time of the live threads in ns, from per-thread schedstat
    /// (nanosecond resolution, for short idle windows).
    pub fn thread_cpu_ns(&self) -> u64 {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.pid)) else {
            return 0;
        };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()))
            .sum()
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }

    /// Asks the server to shut down, waits for it to exit, and returns
    /// its `--metrics-json` report when one was requested.
    pub fn shutdown(mut self) -> io::Result<Option<RunReport>> {
        let mut conn = Conn::dial(&self.addr)?;
        conn.hello()?;
        conn.shutdown()?;
        drop(conn);
        let mut child = self.child.take().expect("child is present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                return Err(io::Error::other("server did not exit within 30 s of shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        match &self.metrics_path {
            Some(p) => {
                let text = std::fs::read_to_string(p)?;
                RunReport::from_json(&text).map(Some).map_err(io::Error::other)
            }
            None => Ok(None),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Host CPU counters from the `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    pub fn read() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return HostCpu::default();
        };
        let v: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so only the first eight add up.
        HostCpu { total: v.iter().take(8).sum(), steal: v.get(7).copied().unwrap_or(0) }
    }

    /// Steal as a percentage of all host CPU time since `earlier`.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 * 100.0 / total as f64
    }
}

/// A fixed memory-latency-bound loop owned by the harness (it calls no
/// `dynslice` code): a dependent walk over a 16 MB random cycle. Its time
/// tracks how fast the host is running right now, so a slow run can be
/// told apart from a slow program.
pub struct HostProbe {
    next: Vec<u32>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        const N: usize = 1 << 22;
        let mut order: Vec<u32> = (0..N as u32).collect();
        crate::stats::Rng::new(0x5EED).shuffle(&mut order);
        let mut next = vec![0u32; N];
        for w in 0..N {
            next[order[w] as usize] = order[(w + 1) % N];
        }
        HostProbe { next }
    }

    /// Milliseconds for 1M dependent loads.
    pub fn ms(&self) -> f64 {
        let t0 = Instant::now();
        let mut i = 0u32;
        for _ in 0..1_000_000 {
            i = self.next[i as usize];
        }
        std::hint::black_box(i);
        t0.elapsed().as_secs_f64() * 1e3
    }
}
