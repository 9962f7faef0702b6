//! The `fgstpd` wire protocol.
//!
//! The daemon speaks newline-delimited JSON over a loopback TCP stream:
//! each line holds exactly one JSON object, requests carry a `"cmd"`
//! field, and every request produces at least one reply line. The
//! `results` command with `"wait": true` is the one streaming shape —
//! the daemon emits a `{"event": "row", ...}` line per finished workload
//! as it lands and closes the stream of events with an
//! `{"event": "end", ...}` line carrying the job's terminal state.
//!
//! Errors are structured, never free text: `{"ok": false, "error":
//! {"kind": ..., "message": ...}}`, where `kind` is either a
//! [`SpecErrorKind`](fgstp_sim::SpecErrorKind) label
//! (`unknown-workload`, `conflict`, …) or one of
//! the service-level kinds ([`ERR_BAD_REQUEST`], [`ERR_UNKNOWN_JOB`],
//! [`ERR_QUEUE_FULL`], [`ERR_SHUTTING_DOWN`], [`ERR_REQUEST_TOO_LONG`]).
//! A malformed or unsatisfiable spec is therefore a *reply*, not a
//! daemon or worker panic.

use fgstp_sim::{BenchResult, ExperimentSpec, SpecError};
use fgstp_telemetry::json::Json;
use fgstp_telemetry::StallCategory;

/// The request was not a JSON object with a known `cmd`.
pub const ERR_BAD_REQUEST: &str = "bad-request";
/// The named job id does not exist on this daemon.
pub const ERR_UNKNOWN_JOB: &str = "unknown-job";
/// The pending queue is at capacity; resubmit after it drains.
pub const ERR_QUEUE_FULL: &str = "queue-full";
/// The daemon is shutting down and accepts no new work.
pub const ERR_SHUTTING_DOWN: &str = "shutting-down";
/// A request line reached [`MAX_REQUEST_BYTES`]; the daemon closes the
/// connection after replying.
pub const ERR_REQUEST_TOO_LONG: &str = "request-too-long";

/// Longest request line the daemon buffers, newline included.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// A structured protocol-level rejection, mirrored on the wire as
/// `{"kind": ..., "message": ...}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable kebab-case error class.
    pub kind: String,
    /// Human-readable specifics.
    pub message: String,
}

impl ProtocolError {
    /// A new error of `kind`.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            kind: kind.into(),
            message: message.into(),
        }
    }

    /// The `{"ok": false, "error": ...}` reply line for this error.
    pub fn to_reply(&self) -> Json {
        Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(false)),
            (
                "error".to_owned(),
                Json::Obj(vec![
                    ("kind".to_owned(), Json::Str(self.kind.clone())),
                    ("message".to_owned(), Json::Str(self.message.clone())),
                ]),
            ),
        ])
    }

    /// Parses the error member of a `{"ok": false, ...}` reply.
    pub fn from_reply(v: &Json) -> Option<ProtocolError> {
        let e = v.get("error")?;
        Some(ProtocolError {
            kind: e.get("kind")?.as_str()?.to_owned(),
            message: e.get("message")?.as_str()?.to_owned(),
        })
    }
}

impl From<SpecError> for ProtocolError {
    fn from(e: SpecError) -> ProtocolError {
        ProtocolError {
            kind: e.kind.label().to_owned(),
            message: e.message,
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// One client request, decoded from a wire line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue an experiment; replies with a job id and dedup verdict.
    Submit {
        /// The experiment to run.
        spec: ExperimentSpec,
    },
    /// Report job states — one job, or every job the daemon knows.
    Status {
        /// Restrict to this job id.
        job: Option<u64>,
    },
    /// Fetch a job's result rows; with `wait`, stream them as they land.
    Results {
        /// The job to read.
        job: u64,
        /// Block (streaming rows) until the job reaches a terminal state.
        wait: bool,
    },
    /// Report service counters and throughput.
    Stats,
    /// Stop the daemon.
    Shutdown {
        /// Finish the queued jobs first (`false` fails them immediately).
        drain: bool,
    },
}

impl Request {
    /// Decodes one wire line into a request.
    pub fn parse_line(line: &str) -> Result<Request, ProtocolError> {
        let v = Json::parse(line)
            .map_err(|e| ProtocolError::new("bad-json", format!("malformed request: {e}")))?;
        Request::from_json(&v)
    }

    /// Decodes a parsed JSON object into a request.
    pub fn from_json(v: &Json) -> Result<Request, ProtocolError> {
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| ProtocolError::new(ERR_BAD_REQUEST, "request needs a `cmd` string"))?;
        let job_of = |v: &Json| -> Result<Option<u64>, ProtocolError> {
            match v.get("job") {
                None | Some(Json::Null) => Ok(None),
                Some(j) => match j.as_f64() {
                    Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(Some(n as u64)),
                    _ => Err(ProtocolError::new(
                        ERR_BAD_REQUEST,
                        "`job` must be a whole number",
                    )),
                },
            }
        };
        let flag = |name: &str| -> bool { matches!(v.get(name), Some(Json::Bool(true))) };
        match cmd {
            "submit" => {
                let spec = v.get("spec").ok_or_else(|| {
                    ProtocolError::new(ERR_BAD_REQUEST, "submit needs a `spec` object")
                })?;
                let spec = ExperimentSpec::from_json(spec)?;
                Ok(Request::Submit { spec })
            }
            "status" => Ok(Request::Status { job: job_of(v)? }),
            "results" => {
                let job = job_of(v)?.ok_or_else(|| {
                    ProtocolError::new(ERR_BAD_REQUEST, "results needs a `job` id")
                })?;
                Ok(Request::Results {
                    job,
                    wait: flag("wait"),
                })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown {
                drain: !flag("now"),
            }),
            other => Err(ProtocolError::new(
                ERR_BAD_REQUEST,
                format!("unknown command `{other}` (submit|status|results|stats|shutdown)"),
            )),
        }
    }

    /// Encodes the request as its wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { spec } => Json::Obj(vec![
                ("cmd".to_owned(), Json::Str("submit".to_owned())),
                ("spec".to_owned(), spec.to_json()),
            ]),
            Request::Status { job } => {
                let mut m = vec![("cmd".to_owned(), Json::Str("status".to_owned()))];
                if let Some(j) = job {
                    m.push(("job".to_owned(), Json::Num(*j as f64)));
                }
                Json::Obj(m)
            }
            Request::Results { job, wait } => Json::Obj(vec![
                ("cmd".to_owned(), Json::Str("results".to_owned())),
                ("job".to_owned(), Json::Num(*job as f64)),
                ("wait".to_owned(), Json::Bool(*wait)),
            ]),
            Request::Stats => Json::Obj(vec![("cmd".to_owned(), Json::Str("stats".to_owned()))]),
            Request::Shutdown { drain } => Json::Obj(vec![
                ("cmd".to_owned(), Json::Str("shutdown".to_owned())),
                ("now".to_owned(), Json::Bool(!drain)),
            ]),
        }
    }
}

/// Renders a JSON value as exactly one wire line (no interior newlines,
/// trailing `\n` included).
pub fn wire_line(v: &Json) -> String {
    let mut line: String = v
        .render()
        .split('\n')
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("");
    line.push('\n');
    line
}

/// Serializes one [`BenchResult`] as a result-row object — the unit the
/// daemon streams and the shape the clients render. The encoding is
/// deterministic, so equal results produce byte-identical rows (the
/// bit-identity contract the concurrency tests check).
pub fn bench_result_row(b: &BenchResult) -> Json {
    let runs = b
        .runs
        .iter()
        .map(|r| {
            let mut m = vec![
                ("machine".to_owned(), Json::Str(r.kind.label().to_owned())),
                ("cycles".to_owned(), Json::Num(r.result.cycles as f64)),
                ("committed".to_owned(), Json::Num(r.result.committed as f64)),
                ("ipc".to_owned(), Json::Num(r.ipc())),
            ];
            m.push((
                "cpi_stack".to_owned(),
                match &r.cpi {
                    None => Json::Null,
                    Some(c) => Json::Obj(vec![
                        ("committed".to_owned(), Json::Num(c.committed as f64)),
                        ("base_cycles".to_owned(), Json::Num(c.base_cycles as f64)),
                        (
                            "stalls".to_owned(),
                            Json::Obj(
                                // `ALL` is in index order, so zipping it
                                // with the stalls array keys each count.
                                StallCategory::ALL
                                    .iter()
                                    .zip(c.stalls.iter())
                                    .map(|(cat, n)| (cat.label().to_owned(), Json::Num(*n as f64)))
                                    .collect(),
                            ),
                        ),
                    ]),
                },
            ));
            m.push((
                "corun".to_owned(),
                match &r.corun {
                    None => Json::Null,
                    Some(c) => Json::Obj(vec![
                        ("program".to_owned(), Json::Num(c.program as f64)),
                        ("first_core".to_owned(), Json::Num(c.first_core as f64)),
                        ("cores".to_owned(), Json::Num(c.cores as f64)),
                        ("start_cycle".to_owned(), Json::Num(c.start_cycle as f64)),
                        ("finish_cycle".to_owned(), Json::Num(c.finish_cycle as f64)),
                        ("total_cycles".to_owned(), Json::Num(c.total_cycles as f64)),
                        ("isolated".to_owned(), Json::Bool(c.isolated)),
                    ]),
                },
            ));
            m.push((
                "sampled".to_owned(),
                match &r.sampled {
                    None => Json::Null,
                    Some(s) => Json::Obj(vec![
                        ("cpi_mean".to_owned(), Json::Num(s.cpi.mean)),
                        ("cpi_ci95_half".to_owned(), Json::Num(s.cpi.ci95_half)),
                        (
                            "measured_insts".to_owned(),
                            Json::Num(s.measured_insts as f64),
                        ),
                        (
                            "detailed_insts".to_owned(),
                            Json::Num(s.detailed_insts as f64),
                        ),
                    ]),
                },
            ));
            Json::Obj(m)
        })
        .collect();
    Json::Obj(vec![
        ("workload".to_owned(), Json::Str(b.name.to_owned())),
        ("committed".to_owned(), Json::Num(b.committed as f64)),
        (
            "error".to_owned(),
            match &b.error {
                None => Json::Null,
                Some(e) => Json::Str(e.clone()),
            },
        ),
        ("runs".to_owned(), Json::Arr(runs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_sim::SpecErrorKind;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let reqs = [
            Request::Submit {
                spec: ExperimentSpec::default(),
            },
            Request::Status { job: None },
            Request::Status { job: Some(7) },
            Request::Results { job: 3, wait: true },
            Request::Results {
                job: 9,
                wait: false,
            },
            Request::Stats,
            Request::Shutdown { drain: true },
            Request::Shutdown { drain: false },
        ];
        for r in reqs {
            let line = wire_line(&r.to_json());
            assert_eq!(line.matches('\n').count(), 1, "one line per request");
            assert_eq!(Request::parse_line(line.trim_end()).unwrap(), r);
        }
    }

    #[test]
    fn malformed_requests_become_structured_errors() {
        let e = Request::parse_line("{nope").unwrap_err();
        assert_eq!(e.kind, "bad-json");
        let e = Request::parse_line("{}").unwrap_err();
        assert_eq!(e.kind, ERR_BAD_REQUEST);
        let e = Request::parse_line(r#"{"cmd": "frobnicate"}"#).unwrap_err();
        assert_eq!(e.kind, ERR_BAD_REQUEST);
        let e = Request::parse_line(r#"{"cmd": "results"}"#).unwrap_err();
        assert_eq!(e.kind, ERR_BAD_REQUEST);
        // A bad spec carries its SpecErrorKind label across the boundary.
        let e = Request::parse_line(r#"{"cmd": "submit", "spec": {"workloads": ["nope"]}}"#)
            .unwrap_err();
        assert_eq!(e.kind, SpecErrorKind::UnknownWorkload.label());
    }

    #[test]
    fn error_replies_round_trip() {
        let e = ProtocolError::new(ERR_QUEUE_FULL, "queue is at capacity (4 jobs)");
        let reply = e.to_reply();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(ProtocolError::from_reply(&reply), Some(e));
    }

    #[test]
    fn result_rows_are_single_line_and_deterministic() {
        let spec = ExperimentSpec::from_args(&[
            "test",
            "--workloads=perl_hash",
            "--machines=single-small,fgstp-small",
            "--no-cache",
            "--telemetry",
        ])
        .unwrap();
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        let la = wire_line(&bench_result_row(&a[0]));
        let lb = wire_line(&bench_result_row(&b[0]));
        assert_eq!(la, lb, "equal results encode byte-identically");
        assert_eq!(la.matches('\n').count(), 1);
        let v = Json::parse(la.trim_end()).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("perl_hash"));
        let runs = v.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert!(runs[0].get("cpi_stack").unwrap().get("stalls").is_some());
    }
}
