//! The `benchd` daemon: jobs over a local TCP socket, journaled to disk.
//!
//! One [`Daemon`] owns a [`Scheduler`] and a jobs directory. Every
//! submitted job gets `jobs/<id>/` holding:
//!
//! * `job.json` — the materialized sweep + priority, fsync'd *before*
//!   the job is scheduled, so a crashed daemon knows what it was running;
//! * `journal.jsonl` — the write-ahead result journal (one synced line
//!   per completed unit);
//! * `results.csv` / `results.jsonl` / `report.md` / `state` — final
//!   artifacts, written atomically on completion.
//!
//! On startup the daemon rescans the jobs directory and resubmits every
//! job that has a `job.json` but no terminal `state` marker — so
//! `kill -9` mid-campaign costs at most the one torn journal line, and
//! the restarted daemon continues from the last completed cell.
//!
//! The protocol is line-delimited JSON ([`super::protocol`]), one thread
//! per connection. `events` switches a connection into streaming mode
//! until the watched job ends.

use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::args::closest_matches;
use crate::campaign::{registry as campaigns, to_csv, to_jsonl, SweepSpec};
use crate::forensics::{CheckpointHandle, WindowReplayer, WindowTrace, DEFAULT_CHUNK};
use crate::scenario::Json;
use contention_sim::{Execution, SlotOutcome};

use super::faults::{self, FaultPoint};
use super::protocol::{JobSource, Request, Response, ResultFormat, SubmitRequest};
use super::scheduler::{JobSpec, Scheduler};
use super::{write_atomic_retrying, ServiceError};

/// Daemon settings.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address; default `127.0.0.1:0` (kernel-assigned port).
    pub addr: String,
    /// Directory holding one subdirectory per job.
    pub jobs_dir: PathBuf,
    /// Worker threads; 0 = available parallelism.
    pub threads: usize,
    /// Socket read/write timeout per connection (`None` = unbounded).
    /// A stalled or vanished client hits the timeout and its handler
    /// thread closes the connection instead of wedging forever; the
    /// client reconnects (`events` re-attach sends a full snapshot, so
    /// nothing is lost).
    pub io_timeout: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            jobs_dir: PathBuf::from("jobs"),
            threads: 0,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

struct Inner {
    sched: Scheduler,
    jobs_dir: PathBuf,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    io_timeout: Option<Duration>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("jobs_dir", &self.jobs_dir)
            .finish_non_exhaustive()
    }
}

/// A bound, resumed, ready-to-serve daemon.
#[derive(Debug)]
pub struct Daemon {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Daemon {
    /// Bind the listener, create the jobs directory, and resubmit every
    /// unfinished journaled job found there.
    pub fn bind(config: DaemonConfig) -> Result<Daemon, ServiceError> {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.threads
        };
        fs::create_dir_all(&config.jobs_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let inner = Arc::new(Inner {
            sched: Scheduler::new(threads),
            jobs_dir: config.jobs_dir,
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            io_timeout: config.io_timeout,
        });
        inner.resume_unfinished()?;
        Ok(Daemon { listener, inner })
    }

    /// The bound address (write it to a port file for clients).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve connections until a `shutdown` request arrives. In-flight
    /// cells are journaled as they finish; an abrupt kill is equally
    /// safe, which is the point of the journal.
    pub fn run(&self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            // The shutdown check runs BEFORE the fault consult, so the
            // loopback connection that unblocks this loop can never be
            // eaten by an injected accept drop.
            if self.inner.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let stream = stream?;
            if faults::fire(FaultPoint::DaemonAccept).is_some() {
                // Drop the fresh connection on the floor: the client
                // sees a closed socket and reconnects with backoff.
                drop(stream);
                continue;
            }
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                let _ = serve_connection(&inner, stream);
            });
        }
        Ok(())
    }
}

impl Inner {
    /// Rescan the jobs directory: anything with a `job.json` but no
    /// terminal `state` marker is resubmitted in resume mode.
    ///
    /// A job directory that cannot be recovered (torn `job.json`, corrupt
    /// journal) must not brick the daemon and strand every healthy job:
    /// it is marked `failed` in its `state` file, logged, and skipped, and
    /// startup proceeds. Only jobs-directory-level I/O errors fail bind.
    fn resume_unfinished(&self) -> Result<(), ServiceError> {
        let mut max_id = 0u64;
        let mut pending = Vec::new();
        for entry in fs::read_dir(&self.jobs_dir)? {
            let dir = entry?.path();
            if !dir.is_dir() {
                continue;
            }
            if let Some(n) = dir
                .file_name()
                .and_then(|s| s.to_str())
                .and_then(|s| s.strip_prefix("job-"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                max_id = max_id.max(n);
            }
            if dir.join("job.json").exists() && !dir.join("state").exists() {
                pending.push(dir);
            }
        }
        self.next_id.store(max_id + 1, Ordering::SeqCst);
        for dir in pending {
            if let Err(e) = self.resume_job(&dir) {
                eprintln!(
                    "benchd: skipping unrecoverable job directory {}: {e}",
                    dir.display()
                );
                let _ = write_atomic_retrying(
                    &dir.join("state"),
                    &format!("failed: unrecoverable at startup: {e}\n"),
                );
            }
        }
        Ok(())
    }

    /// Resubmit one unfinished job directory in resume mode.
    fn resume_job(&self, dir: &std::path::Path) -> Result<(), ServiceError> {
        let text = fs::read_to_string(dir.join("job.json"))?;
        let j = Json::parse(&text).map_err(|e| {
            ServiceError::new(format!(
                "unreadable {}: {e}",
                dir.join("job.json").display()
            ))
        })?;
        let id = j
            .get("id")
            .and_then(|v| v.as_str().map(String::from))
            .map_err(|e| ServiceError::new(e.to_string()))?;
        let priority = j
            .get("priority")
            .and_then(|v| v.as_i64())
            .map_err(|e| ServiceError::new(e.to_string()))?;
        let sweep = j
            .get("sweep")
            .map_err(|e| ServiceError::new(e.to_string()))
            .and_then(|v| SweepSpec::from_json(v).map_err(|e| ServiceError::new(e.to_string())))?;
        let job = self.sched.submit(JobSpec {
            id,
            sweep,
            priority,
            dir: Some(dir.to_path_buf()),
            resume: true,
        })?;
        self.sched.activate(&job);
        Ok(())
    }

    /// Resolve a submission source to a concrete sweep.
    fn materialize(&self, source: &JobSource) -> Result<SweepSpec, ServiceError> {
        match source {
            JobSource::Campaign { name, smoke } => {
                let sweep = campaigns::lookup(name).ok_or_else(|| {
                    let mut msg = format!("unknown campaign `{name}`");
                    let suggestions = closest_matches(name, campaigns::names().iter().copied());
                    if !suggestions.is_empty() {
                        msg.push_str("; did you mean: ");
                        msg.push_str(&suggestions.join(", "));
                    }
                    ServiceError::new(msg)
                })?;
                Ok(if *smoke { sweep.smoke() } else { sweep })
            }
            JobSource::Sweep(sweep) => Ok(sweep.clone()),
            JobSource::Scenario(spec) => Ok(SweepSpec::new(
                spec.name.clone(),
                spec.name.clone(),
                spec.clone(),
            )),
        }
    }

    fn submit(&self, req: &SubmitRequest) -> Result<Response, ServiceError> {
        let sweep = self.materialize(&req.source)?;
        let id = match &req.id {
            Some(id)
                if id.is_empty()
                    || !id.chars().all(|c| c.is_alphanumeric() || "-_.".contains(c)) =>
            {
                return Err(ServiceError::new(format!(
                    "job id `{id}` must be non-empty alphanumeric/dash/underscore/dot"
                )));
            }
            Some(id) => id.clone(),
            None => format!("job-{}", self.next_id.fetch_add(1, Ordering::SeqCst)),
        };
        let dir = self.jobs_dir.join(&id);
        if dir.exists() {
            return Err(ServiceError::new(format!(
                "job directory `{}` already exists; pick a fresh id (resume happens \
                 automatically at daemon startup)",
                dir.display()
            )));
        }
        fs::create_dir_all(&dir)?;
        // Persist the job spec before scheduling anything, so a crashed
        // daemon can resume this job by rescanning the directory. Written
        // atomically: a crash mid-submit leaves either no job.json (the
        // rescan skips the directory) or a complete one, never a torn
        // file that poisons every later startup.
        let manifest = Json::obj(vec![
            ("id", Json::Str(id.clone())),
            ("priority", Json::i64(req.priority)),
            ("sweep", sweep.to_json()),
        ]);
        if let Err(e) =
            write_atomic_retrying(&dir.join("job.json"), &format!("{}\n", manifest.render()))
        {
            // Remove the half-made directory so a client retry of the
            // same id is not rejected as a duplicate.
            let _ = fs::remove_dir_all(&dir);
            return Err(e.into());
        }
        let job = match self.sched.submit(JobSpec {
            id: id.clone(),
            sweep,
            priority: req.priority,
            dir: Some(dir.clone()),
            resume: false,
        }) {
            Ok(job) => job,
            Err(e) => {
                let _ = fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        self.sched.activate(&job);
        Ok(Response::Submitted {
            id,
            units: job.units.len() as u64,
        })
    }

    /// Materialize a full-fidelity slot window of one (cell, algorithm,
    /// seed) run of a job, replaying from checkpoints.
    ///
    /// The first query for a run captures its checkpoints and persists a
    /// [`CheckpointHandle`] under `jobs/<id>/checkpoints/`; later queries
    /// — including ones in a later daemon life, against a long-`done`
    /// job — rebuild from the handle, cross-checking every stored digest
    /// so a drifted binary fails loudly instead of answering with a
    /// different trajectory.
    fn window(
        &self,
        id: &str,
        cell: u64,
        algo: u64,
        seed: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Response, ServiceError> {
        // Jobs that finished in an earlier daemon life carry a terminal
        // state marker and are not re-registered with the scheduler, but
        // their manifest is still on disk — window queries against them
        // are the whole point of persisted checkpoint handles.
        let sweep = match self.sched.job(id) {
            Some(job) => job.sweep.clone(),
            None => {
                let manifest = self.jobs_dir.join(id).join("job.json");
                if !manifest.exists() {
                    return Err(ServiceError::new(format!("unknown job `{id}`")));
                }
                let text = fs::read_to_string(&manifest)?;
                let j = Json::parse(&text).map_err(|e| {
                    ServiceError::new(format!("unreadable {}: {e}", manifest.display()))
                })?;
                j.get("sweep").and_then(SweepSpec::from_json).map_err(|e| {
                    ServiceError::new(format!("unreadable {}: {e}", manifest.display()))
                })?
            }
        };
        let cells = sweep.cells();
        let cell_spec = cells.get(cell as usize).ok_or_else(|| {
            ServiceError::new(format!(
                "cell {cell} out of range (grid has {} cells)",
                cells.len()
            ))
        })?;
        let mut spec = cell_spec.spec.clone();
        if algo as usize >= spec.algos.len() {
            return Err(ServiceError::new(format!(
                "algo {algo} out of range (roster has {})",
                spec.algos.len()
            )));
        }
        if seed >= spec.seeds {
            return Err(ServiceError::new(format!(
                "seed offset {seed} out of range (cell runs {} seeds)",
                spec.seeds
            )));
        }
        // A malformed window is refused before any capture or rebuild,
        // so it leaves no checkpoint handle behind.
        WindowReplayer::validate(&spec, lo, hi).map_err(|e| ServiceError::new(e.to_string()))?;
        if spec.checkpoint.is_none() {
            // Sparse trajectories depend on the chunking of the original
            // run; without a policy on the spec there is no chunking to
            // reproduce, so a replayed window would not correspond to
            // the run being investigated. Exact (and bit-parallel, whose
            // scalar replay runs exact) is chunk-invariant, so a default
            // policy can be attached after the fact.
            if spec.execution == Execution::SkipAhead {
                return Err(ServiceError::new(
                    "this cell ran with skip-ahead execution and no checkpoint policy; \
                     its trajectory is chunk-dependent and cannot be replayed post-hoc. \
                     Re-run the sweep with `checkpoint_every` on the base scenario.",
                ));
            }
            spec = spec.checkpoint_every(DEFAULT_CHUNK);
        }
        let run_seed = spec.seed_base + seed;
        let handle_path = self
            .jobs_dir
            .join(id)
            .join("checkpoints")
            .join(format!("cell{cell}-algo{algo}-seed{seed}.json"));
        let mut replayer = if handle_path.exists() {
            let handle = CheckpointHandle::load(&handle_path)
                .map_err(|e| ServiceError::new(e.to_string()))?;
            if handle.scenario != spec || handle.algo != algo as usize || handle.seed != run_seed {
                return Err(ServiceError::new(format!(
                    "stored checkpoint handle {} does not match the job's cell spec; \
                     delete it to re-capture",
                    handle_path.display()
                )));
            }
            handle
                .rebuild()
                .map_err(|e| ServiceError::new(e.to_string()))?
        } else {
            let replayer = WindowReplayer::capture(spec, algo as usize, run_seed)
                .map_err(|e| ServiceError::new(e.to_string()))?;
            if let Some(parent) = handle_path.parent() {
                fs::create_dir_all(parent)?;
            }
            replayer
                .handle()
                .save(&handle_path)
                .map_err(|e| ServiceError::new(e.to_string()))?;
            replayer
        };
        let win = replayer
            .window(lo, hi)
            .map_err(|e| ServiceError::new(e.to_string()))?;
        Ok(Response::Window {
            id: id.to_string(),
            lo: win.lo,
            hi: win.hi,
            slots: replayer.slots(),
            fingerprint: format!("{:016x}", win.fingerprint),
            body: window_csv(&win),
        })
    }

    fn results(&self, id: &str, format: ResultFormat) -> Result<Response, ServiceError> {
        let job = self
            .sched
            .job(id)
            .ok_or_else(|| ServiceError::new(format!("unknown job `{id}`")))?;
        // Render whatever is complete so far; a running job yields its
        // journal-backed prefix.
        let result = job.partial_result();
        let body = match format {
            ResultFormat::Csv => to_csv(&result),
            ResultFormat::Jsonl => to_jsonl(&result),
            ResultFormat::Report => crate::campaign::render_section(&result),
        };
        Ok(Response::Results {
            id: id.to_string(),
            format,
            body,
        })
    }
}

/// Render one window as CSV, one line per slot.
fn window_csv(win: &WindowTrace) -> String {
    let mut out = String::from("slot,arrivals,broadcasters,jammed,active,population,outcome\n");
    for (i, rec) in win.records.iter().enumerate() {
        let outcome = match rec.outcome {
            SlotOutcome::Silence => "silence".to_string(),
            SlotOutcome::Delivered(node) => format!("delivered:{}", node.raw()),
            SlotOutcome::Collision { broadcasters } => format!("collision:{broadcasters}"),
            SlotOutcome::Jammed { broadcasters } => format!("jammed:{broadcasters}"),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            win.lo + i as u64,
            rec.arrivals,
            rec.broadcasters,
            u8::from(rec.jammed),
            u8::from(rec.active),
            rec.population,
            outcome
        ));
    }
    out
}

fn handle(inner: &Inner, req: &Request) -> Result<Option<Response>, ServiceError> {
    match req {
        Request::Ping => Ok(Some(Response::Ok)),
        Request::Health => {
            let jobs = inner.sched.jobs();
            let active = jobs
                .iter()
                .filter(|j| !matches!(j.status().state.as_str(), "done" | "cancelled" | "failed"))
                .count() as u64;
            Ok(Some(Response::Health {
                jobs: jobs.len() as u64,
                active,
                fault_fires: faults::fired_total(),
            }))
        }
        Request::Submit(s) => inner.submit(s).map(Some),
        Request::Status { id } => match inner.sched.job(id) {
            Some(job) => Ok(Some(Response::Status(job.status()))),
            None => Err(ServiceError::new(format!("unknown job `{id}`"))),
        },
        Request::List => Ok(Some(Response::List(
            inner.sched.jobs().iter().map(|j| j.status()).collect(),
        ))),
        Request::Results { id, format } => inner.results(id, *format).map(Some),
        Request::Window {
            id,
            cell,
            algo,
            seed,
            lo,
            hi,
        } => inner.window(id, *cell, *algo, *seed, *lo, *hi).map(Some),
        Request::Cancel { id } => match inner.sched.job(id) {
            Some(job) => {
                inner.sched.cancel(&job);
                Ok(Some(Response::Ok))
            }
            None => Err(ServiceError::new(format!("unknown job `{id}`"))),
        },
        // Events and Shutdown are connection-level; handled by the caller.
        Request::Events { .. } | Request::Shutdown => Ok(None),
    }
}

fn send(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let mut line = resp.to_line();
    line.push('\n');
    if let Some(lot) = faults::fire(FaultPoint::DaemonWriteTorn) {
        // A torn frame cannot be resynced on a line protocol, so the
        // only safe heal is dropping the connection: write a proper
        // prefix, then error out of the serve loop (the client
        // reconnects and retries).
        let _ = stream.write_all(&line.as_bytes()[..lot.cut(line.len())]);
        let _ = stream.flush();
        return Err(faults::injected_error(FaultPoint::DaemonWriteTorn));
    }
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

fn serve_connection(inner: &Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    // A silent client must not pin this thread forever: reads and
    // writes both carry the configured timeout, and hitting it closes
    // the connection (clients reconnect; `events` re-attach is lossless
    // because every event carries full progress state).
    stream.set_read_timeout(inner.io_timeout)?;
    stream.set_write_timeout(inner.io_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle past the io timeout: close cleanly.
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        if let Some(lot) = faults::fire(FaultPoint::DaemonReadTorn) {
            // Torn inbound frame: keep a proper prefix. A truncated
            // JSON object can never parse as a valid request, so this
            // surfaces as a `bad request` error the client retries.
            line.truncate(lot.cut(line.len()));
        }
        faults::stall(FaultPoint::DaemonStall);
        let line = line.trim_end_matches(['\r', '\n']);
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::from_line(line) {
            Ok(r) => r,
            Err(e) => {
                send(
                    &mut writer,
                    &Response::Error {
                        message: format!("bad request: {e}"),
                    },
                )?;
                continue;
            }
        };
        match &req {
            Request::Shutdown => {
                send(&mut writer, &Response::Ok)?;
                inner.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop with a loopback connection.
                if let Ok(addr) = writer.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return Ok(());
            }
            Request::Events { id } => match inner.sched.job(id) {
                None => send(
                    &mut writer,
                    &Response::Error {
                        message: format!("unknown job `{id}`"),
                    },
                )?,
                Some(job) => {
                    let (snapshot, rx) = job.subscribe_events();
                    let terminal = snapshot.terminal;
                    send(&mut writer, &Response::Event(snapshot))?;
                    if !terminal {
                        for event in rx {
                            send(&mut writer, &Response::Event(event))?;
                        }
                        // The channel closes right after the terminal
                        // event, so the loop above delivered it.
                    }
                }
            },
            _ => {
                let resp = match handle(inner, &req) {
                    Ok(Some(r)) => r,
                    Ok(None) => unreachable!("connection-level requests handled above"),
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                };
                send(&mut writer, &resp)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Axis;
    use crate::scenario::{AlgoSpec, ScenarioSpec};

    fn tiny_sweep() -> SweepSpec {
        SweepSpec::new(
            "wiretest",
            "Wire test",
            ScenarioSpec::batch(4, 0.0)
                .algos([AlgoSpec::cjz_constant_jamming()])
                .seeds(1)
                .until_drained(10_000),
        )
        .axis(Axis::jam([0.0, 0.1]))
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                writer: stream,
            }
        }

        fn call(&mut self, req: &Request) -> Response {
            self.writer
                .write_all(format!("{}\n", req.to_line()).as_bytes())
                .unwrap();
            self.read()
        }

        fn read(&mut self) -> Response {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            Response::from_line(line.trim_end()).unwrap()
        }
    }

    /// Start a daemon over `dir/jobs`, submit `spec` as job `id` and wait
    /// until it is done. Returns the server thread and a client.
    fn finished_job(
        dir: &std::path::Path,
        id: &str,
        spec: ScenarioSpec,
    ) -> (std::thread::JoinHandle<()>, Client) {
        let daemon = Daemon::bind(DaemonConfig {
            jobs_dir: dir.join("jobs"),
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = daemon.local_addr().unwrap();
        let server = std::thread::spawn(move || daemon.run().unwrap());
        let mut c = Client::connect(addr);
        let resp = c.call(&Request::Submit(Box::new(SubmitRequest {
            source: JobSource::Scenario(spec),
            id: Some(id.into()),
            priority: 0,
        })));
        assert!(matches!(resp, Response::Submitted { .. }), "{resp:?}");
        let mut watcher = Client::connect(addr);
        watcher
            .writer
            .write_all(format!("{}\n", Request::Events { id: id.into() }.to_line()).as_bytes())
            .unwrap();
        loop {
            match watcher.read() {
                Response::Event(e) if e.terminal => {
                    assert_eq!(e.state, "done");
                    break;
                }
                Response::Event(_) => {}
                other => panic!("expected event, got {other:?}"),
            }
        }
        (server, c)
    }

    /// A job directory that cannot be recovered must not brick startup:
    /// it is marked failed and skipped, and healthy jobs still resume.
    #[test]
    fn startup_skips_unrecoverable_job_dirs() {
        let dir = std::env::temp_dir().join(format!("daemon-badjob-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let jobs = dir.join("jobs");
        // A torn job.json, as a pre-atomic-write crash could leave.
        fs::create_dir_all(jobs.join("job-1")).unwrap();
        fs::write(
            jobs.join("job-1").join("job.json"),
            "{\"id\":\"job-1\",\"pri",
        )
        .unwrap();
        // A healthy unfinished job: complete manifest, no journal yet
        // (the daemon died right after persisting job.json).
        let sweep = tiny_sweep();
        let manifest = Json::obj(vec![
            ("id", Json::Str("job-2".into())),
            ("priority", Json::i64(0)),
            ("sweep", sweep.to_json()),
        ]);
        fs::create_dir_all(jobs.join("job-2")).unwrap();
        fs::write(
            jobs.join("job-2").join("job.json"),
            format!("{}\n", manifest.render()),
        )
        .unwrap();

        let daemon = Daemon::bind(DaemonConfig {
            jobs_dir: jobs.clone(),
            threads: 1,
            ..Default::default()
        })
        .expect("a bad job dir must not fail bind");
        let addr = daemon.local_addr().unwrap();
        let server = std::thread::spawn(move || daemon.run().unwrap());

        // The bad directory is marked failed on disk and not registered.
        let state = fs::read_to_string(jobs.join("job-1").join("state")).unwrap();
        assert!(state.starts_with("failed:"), "{state}");
        let mut c = Client::connect(addr);
        assert!(matches!(
            c.call(&Request::Status { id: "job-1".into() }),
            Response::Error { .. }
        ));

        // The healthy job resumed and runs to completion.
        let mut watcher = Client::connect(addr);
        watcher
            .writer
            .write_all(format!("{}\n", Request::Events { id: "job-2".into() }.to_line()).as_bytes())
            .unwrap();
        let mut last = match watcher.read() {
            Response::Event(e) => e,
            other => panic!("expected event, got {other:?}"),
        };
        while !last.terminal {
            last = match watcher.read() {
                Response::Event(e) => e,
                other => panic!("expected event, got {other:?}"),
            };
        }
        assert_eq!(last.state, "done");

        // Fresh ids continue past both directories, bad one included.
        let resp = c.call(&Request::Submit(Box::new(SubmitRequest {
            source: JobSource::Sweep(tiny_sweep()),
            id: None,
            priority: 0,
        })));
        match resp {
            Response::Submitted { id, .. } => assert_eq!(id, "job-3"),
            other => panic!("expected submitted, got {other:?}"),
        }
        assert_eq!(c.call(&Request::Shutdown), Response::Ok);
        server.join().unwrap();

        // A restart finds terminal markers everywhere: the failed dir is
        // skipped without a second warning, nothing re-runs.
        let daemon = Daemon::bind(DaemonConfig {
            jobs_dir: jobs,
            threads: 1,
            ..Default::default()
        })
        .unwrap();
        drop(daemon);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Window queries replay a done job's cells in full fidelity: the
    /// first query captures checkpoints and persists a handle, repeat
    /// queries (the restart path) answer byte-identically from it.
    #[test]
    fn window_queries_replay_done_jobs() {
        let dir = std::env::temp_dir().join(format!("daemon-window-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = ScenarioSpec::batch(8, 0.2)
            .algos([AlgoSpec::cjz_constant_jamming()])
            .seeds(1)
            .until_drained(10_000)
            .checkpoint_every(64);
        let (server, mut c) = finished_job(&dir, "winjob", spec);

        let query = Request::Window {
            id: "winjob".into(),
            cell: 0,
            algo: 0,
            seed: 0,
            lo: 10,
            hi: 42,
        };
        let first = c.call(&query);
        let (fp1, body1) = match &first {
            Response::Window {
                lo,
                hi,
                fingerprint,
                body,
                ..
            } => {
                assert_eq!((*lo, *hi), (10, 42));
                assert_eq!(body.lines().count(), 33, "header + 32 slots");
                (fingerprint.clone(), body.clone())
            }
            other => panic!("expected window, got {other:?}"),
        };
        // The first query persisted the rebuild recipe.
        assert!(dir
            .join("jobs/winjob/checkpoints/cell0-algo0-seed0.json")
            .exists());
        // A repeat query rebuilds from the handle (digest-checked) and
        // answers byte-identically.
        match c.call(&query) {
            Response::Window {
                fingerprint, body, ..
            } => {
                assert_eq!(fingerprint, fp1);
                assert_eq!(body, body1);
            }
            other => panic!("expected window, got {other:?}"),
        }
        // Out-of-range coordinates fail cleanly.
        let resp = c.call(&Request::Window {
            id: "winjob".into(),
            cell: 9,
            algo: 0,
            seed: 0,
            lo: 1,
            hi: 2,
        });
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");

        assert_eq!(c.call(&Request::Shutdown), Response::Ok);
        server.join().unwrap();

        // A new daemon life: the job is done (terminal marker, not
        // re-registered with the scheduler), yet the window query still
        // answers — manifest from disk, trajectory from the persisted,
        // digest-checked handle — byte-identical to the first life.
        let daemon = Daemon::bind(DaemonConfig {
            jobs_dir: dir.join("jobs"),
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = daemon.local_addr().unwrap();
        let server = std::thread::spawn(move || daemon.run().unwrap());
        let mut c = Client::connect(addr);
        match c.call(&query) {
            Response::Window {
                fingerprint, body, ..
            } => {
                assert_eq!(fingerprint, fp1);
                assert_eq!(body, body1);
            }
            other => panic!("expected window, got {other:?}"),
        }
        assert_eq!(c.call(&Request::Shutdown), Response::Ok);
        server.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    /// A malformed window is refused before the capture pass: a
    /// reversed window on a finished job returns an error and leaves no
    /// checkpoint handle behind.
    #[test]
    fn reversed_window_is_refused_before_capture() {
        let dir = std::env::temp_dir().join(format!("daemon-badwin-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = ScenarioSpec::batch(8, 0.2)
            .algos([AlgoSpec::cjz_constant_jamming()])
            .seeds(1)
            .until_drained(10_000);
        let (server, mut c) = finished_job(&dir, "badwin", spec);
        let resp = c.call(&Request::Window {
            id: "badwin".into(),
            cell: 0,
            algo: 0,
            seed: 0,
            lo: 132,
            hi: 100,
        });
        match &resp {
            Response::Error { message } => assert!(message.contains("bad window"), "{message}"),
            other => panic!("expected error, got {other:?}"),
        }
        assert!(!dir
            .join("jobs/badwin/checkpoints/cell0-algo0-seed0.json")
            .exists());
        assert_eq!(c.call(&Request::Shutdown), Response::Ok);
        server.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    /// One in-process daemon exercising the full request surface,
    /// including restart-resume. The kill -9 path is covered by the e2e
    /// binary test (`tests/service_e2e.rs`) and the CI smoke job.
    #[test]
    fn daemon_serves_submit_status_results_events_and_resume() {
        let dir = std::env::temp_dir().join(format!("daemon-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let daemon = Daemon::bind(DaemonConfig {
            jobs_dir: dir.join("jobs"),
            threads: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = daemon.local_addr().unwrap();
        let server = std::thread::spawn(move || daemon.run().unwrap());

        let mut c = Client::connect(addr);
        assert_eq!(c.call(&Request::Ping), Response::Ok);

        // Unknown campaign: error with suggestions, connection survives.
        let resp = c.call(&Request::Submit(Box::new(SubmitRequest {
            source: JobSource::Campaign {
                name: "tradeoof".into(),
                smoke: true,
            },
            id: None,
            priority: 0,
        })));
        match resp {
            Response::Error { message } => {
                assert!(message.contains("did you mean"), "{message}");
                assert!(message.contains("tradeoff"), "{message}");
            }
            other => panic!("expected error, got {other:?}"),
        }

        // Submit an inline sweep and watch it to completion.
        let resp = c.call(&Request::Submit(Box::new(SubmitRequest {
            source: JobSource::Sweep(tiny_sweep()),
            id: None,
            priority: 0,
        })));
        let id = match resp {
            Response::Submitted { id, units } => {
                assert_eq!(units, 2);
                id
            }
            other => panic!("expected submitted, got {other:?}"),
        };
        assert_eq!(id, "job-1");

        let mut watcher = Client::connect(addr);
        watcher
            .writer
            .write_all(format!("{}\n", Request::Events { id: id.clone() }.to_line()).as_bytes())
            .unwrap();
        let mut last = match watcher.read() {
            Response::Event(e) => e,
            other => panic!("expected event, got {other:?}"),
        };
        while !last.terminal {
            last = match watcher.read() {
                Response::Event(e) => e,
                other => panic!("expected event, got {other:?}"),
            };
        }
        assert_eq!(last.state, "done");
        assert_eq!(last.done_units, 2);

        // Status + results reflect the finished job.
        match c.call(&Request::Status { id: id.clone() }) {
            Response::Status(s) => {
                assert_eq!(s.state, "done");
                assert_eq!(s.done_units, 2);
            }
            other => panic!("expected status, got {other:?}"),
        }
        let csv_body = match c.call(&Request::Results {
            id: id.clone(),
            format: ResultFormat::Csv,
        }) {
            Response::Results { body, .. } => body,
            other => panic!("expected results, got {other:?}"),
        };
        assert_eq!(
            csv_body,
            fs::read_to_string(dir.join("jobs").join(&id).join("results.csv")).unwrap()
        );
        match c.call(&Request::List) {
            Response::List(jobs) => assert_eq!(jobs.len(), 1),
            other => panic!("expected list, got {other:?}"),
        }

        // Duplicate job directories refuse.
        let resp = c.call(&Request::Submit(Box::new(SubmitRequest {
            source: JobSource::Sweep(tiny_sweep()),
            id: Some(id.clone()),
            priority: 0,
        })));
        assert!(matches!(resp, Response::Error { .. }));

        assert_eq!(c.call(&Request::Shutdown), Response::Ok);
        server.join().unwrap();

        // Restart over the same jobs dir: the finished job (terminal
        // marker present) is NOT resubmitted; a journal stripped of its
        // marker IS, and completes from the journal alone.
        fs::remove_file(dir.join("jobs").join(&id).join("state")).unwrap();
        let daemon = Daemon::bind(DaemonConfig {
            jobs_dir: dir.join("jobs"),
            threads: 1,
            ..Default::default()
        })
        .unwrap();
        let addr = daemon.local_addr().unwrap();
        let server = std::thread::spawn(move || daemon.run().unwrap());
        let mut c = Client::connect(addr);
        match c.call(&Request::Status { id: id.clone() }) {
            Response::Status(s) => {
                assert_eq!(s.state, "done");
                assert_eq!(s.recovered_units, 2, "resumed entirely from journal");
            }
            other => panic!("expected status, got {other:?}"),
        }
        // Fresh ids continue past recovered ones.
        let resp = c.call(&Request::Submit(Box::new(SubmitRequest {
            source: JobSource::Scenario(
                ScenarioSpec::batch(4, 0.0)
                    .algos([AlgoSpec::cjz_constant_jamming()])
                    .seeds(1)
                    .until_drained(10_000),
            ),
            id: None,
            priority: 1,
        })));
        match resp {
            Response::Submitted { id, units } => {
                assert_eq!(id, "job-2");
                assert_eq!(units, 1);
            }
            other => panic!("expected submitted, got {other:?}"),
        }
        assert_eq!(c.call(&Request::Shutdown), Response::Ok);
        server.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
