//! The `fgstpd` process and the daemon-mix load generator.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fgstp_service::protocol::wire_line;
use fgstp_service::Client;
use fgstp_sim::ExperimentSpec;
use fgstp_telemetry::json::Json;

use crate::util::peak_rss_bytes;

/// How long one reply may take before the request counts as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `fgstpd --workers=2` on a loopback port. Dropping it kills
/// the process; [`Daemon::stop`] shuts it down cleanly.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon on `cache_dir` and waits until it listens.
    pub fn start(fgstpd: &Path, cache_dir: &Path, port_file: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(fgstpd)
            .arg("--listen=127.0.0.1:0")
            .arg("--workers=2")
            .arg(format!("--cache-dir={}", cache_dir.display()))
            .arg(format!("--port-file={}", port_file.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fgstpd.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            // The port file may be seen before its write completes.
            let port = std::fs::read_to_string(port_file)
                .ok()
                .and_then(|s| s.trim().parse::<u16>().ok());
            if let Some(port) = port {
                daemon.addr.set_port(port);
                return Ok(daemon);
            }
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if exited.is_some() || Instant::now() > deadline {
                return Err("fgstpd did not come up".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set of the daemon process so far.
    pub fn peak_rss_bytes(&self) -> u64 {
        self.child
            .as_ref()
            .map_or(0, |c| peak_rss_bytes(Some(c.id())))
    }

    /// The daemon's `stats` reply.
    pub fn stats(&self) -> Result<Json, String> {
        let mut c = connect(self.addr)?;
        c.stats().map_err(|e| e.to_string())
    }

    /// Asks the daemon to shut down without draining, then waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked =
            connect(self.addr).and_then(|mut c| c.shutdown(false).map_err(|e| e.to_string()));
        let mut child = self.child.take().expect("a daemon is stopped once");
        if asked.is_err() {
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("fgstpd exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect_timeout(addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    c.set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

/// One completed (or failed) daemon-mix job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index into the distinct spec list.
    pub spec: usize,
    /// Submit sent.
    pub start: Instant,
    /// `submit` reply received.
    pub submitted: Instant,
    /// `end` event received.
    pub end: Instant,
    /// Served by dedup from an earlier job.
    pub dedup: bool,
    /// Finished `done` with its rows received.
    pub ok: bool,
    /// The rows, re-encoded as wire lines.
    pub rows: Vec<String>,
    /// Instructions committed over the rows.
    pub committed: u64,
}

impl JobRecord {
    /// Submit-to-end latency; a failed job counts as the reply timeout,
    /// so it misses any latency limit.
    pub fn latency(&self) -> Duration {
        if self.ok {
            self.end - self.start
        } else {
            REPLY_TIMEOUT
        }
    }
}

/// Median latency in ms of the dedup hits (`hit`) or of the fresh jobs.
pub fn p50_ms(recs: &[JobRecord], hit: bool) -> f64 {
    let l: Vec<f64> = recs
        .iter()
        .filter(|r| r.dedup == hit)
        .map(|r| r.latency().as_secs_f64() * 1e3)
        .collect();
    crate::util::median(&l)
}

/// Connections of the daemon-mix load generator, one thread each.
pub const CONNECTIONS: usize = 2;

/// Runs the job list `order` (indices into `specs`) as a closed loop over
/// [`CONNECTIONS`] connections, one outstanding job each, and returns one
/// record per job in completion order.
pub fn run_mix(addr: SocketAddr, specs: &[ExperimentSpec], order: &[usize]) -> Vec<JobRecord> {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(order.len()));
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut client = connect(addr).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&spec) = order.get(i) else { break };
                    let rec = run_job(&mut client, addr, spec, &specs[spec]);
                    records
                        .lock()
                        .expect("no job panics while recording")
                        .push(rec);
                }
            });
        }
    });
    records.into_inner().expect("no job panics while recording")
}

fn run_job(
    client: &mut Option<Client>,
    addr: SocketAddr,
    index: usize,
    spec: &ExperimentSpec,
) -> JobRecord {
    let start = Instant::now();
    let mut rec = JobRecord {
        spec: index,
        start,
        submitted: start,
        end: start,
        dedup: false,
        ok: false,
        rows: Vec::new(),
        committed: 0,
    };
    if client.is_none() {
        *client = connect(addr).ok();
    }
    let Some(c) = client.as_mut() else {
        return rec;
    };
    let outcome = c.submit(spec).and_then(|sub| {
        rec.submitted = Instant::now();
        rec.dedup = sub.dedup;
        c.results(sub.job, true, |row| {
            rec.committed += row.get("committed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            rec.rows.push(wire_line(row));
        })
    });
    rec.end = Instant::now();
    match outcome {
        Ok(o) => rec.ok = o.is_done(),
        // The connection may be unusable after a transport error.
        Err(_) => *client = None,
    }
    rec
}

/// The dedup-hit share of the daemon-mix traffic: 170 hits in 300 jobs,
/// the share measured in a 300-job probe of the daemon. There is no other
/// record of users' traffic, so the share is an assumption.
pub const HIT_SHARE: (usize, usize) = (170, 300);

/// The seeded job order of one daemon-mix round: every distinct spec
/// once, plus seeded draws of repeats (dedup hits) until the hits make up
/// [`HIT_SHARE`] of the jobs, shuffled. The first submission of a spec is
/// simulated and its repeats are hits, so every seed simulates the same
/// specs and has the same number of hits.
pub fn mix_order(distinct: usize, seed: u64) -> Vec<usize> {
    let (hits, jobs) = HIT_SHARE;
    let repeats = (distinct * hits + (jobs - hits) / 2) / (jobs - hits);
    let mut rng = crate::util::Rng::new(seed);
    let mut order: Vec<usize> = (0..distinct).collect();
    for _ in 0..repeats {
        order.push(rng.below(distinct));
    }
    rng.shuffle(&mut order);
    order
}

/// Path of the daemon's port file inside a work directory.
pub fn port_file(dir: &Path) -> PathBuf {
    dir.join("port")
}
