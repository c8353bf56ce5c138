//! `service-loop`: an in-process `benchd` daemon on loopback, driven by a
//! closed-loop client over the line-JSON protocol — one request
//! connection, one `Events` stream, at most two jobs outstanding.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use contention_bench::campaign::{to_csv, Axis, SweepSpec};
use contention_bench::forensics::WindowReplayer;
use contention_bench::scenario::{AlgoSpec, BaselineSpec, ScenarioRunner, ScenarioSpec};
use contention_bench::service::{
    Daemon, DaemonConfig, JobEvent, JobSource, Journal, Request, Response, ResultFormat,
    SubmitRequest,
};

use crate::harness::{
    ms_since, timed_setup, warm_up, window_queries, Ctx, Outcome, Pool, ReplayStats, WindowQuery,
    NO_PROGRESS, STALL,
};
use crate::stats::Series;

/// Jobs in flight at once (the closed loop's window).
const OUTSTANDING: usize = 2;
/// Window queries per finished job, all on one of its runs (the fourth
/// repeats an earlier one).
const WINDOWS: usize = 4;
const WINDOW_LEN: u64 = 64;
const SETUPS: usize = 21;

/// The inline report sweep job `k` submits: a jammed batch drained by the
/// paper's protocol and binary exponential backoff, with a seed base of
/// its own.
fn job_sweep(seed: u64, k: u64, smoke: bool) -> SweepSpec {
    let n = if smoke { 8 } else { 16 };
    SweepSpec::new(
        format!("svc-{k}"),
        "Service loop — drain and delivery vs jamming rate",
        ScenarioSpec::batch(n, 0.0)
            .algos([
                AlgoSpec::cjz_constant_jamming(),
                AlgoSpec::Baseline(BaselineSpec::BinaryExponential),
            ])
            .until_drained(300_000)
            .seeds(2)
            .seed_base(seed.wrapping_mul(1_000_000).wrapping_add(2 * k)),
    )
    .axis(Axis::jam([0.0, 0.25]))
}

/// One line-JSON connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        self.writer
            .write_all(format!("{}\n", req.to_line()).as_bytes())
    }

    /// Read one response; `Ok(None)` when the read timeout expired first
    /// (the partial line is kept and completed by the next call).
    fn read(&mut self, line: &mut String) -> Result<Option<Response>, String> {
        match self.reader.read_line(line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => {
                let resp = Response::from_line(line.trim_end()).map_err(|e| e.to_string());
                line.clear();
                resp.map(Some)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req).map_err(|e| e.to_string())?;
        let mut line = String::new();
        loop {
            if let Some(resp) = self.read(&mut line)? {
                return match resp {
                    Response::Error { message } => Err(message),
                    other => Ok(other),
                };
            }
        }
    }
}

struct Pending {
    k: u64,
    id: String,
    sweep: SweepSpec,
    submitted: Instant,
}

/// A finished job and what the daemon answered about it.
struct Finished {
    id: String,
    sweep: SweepSpec,
    csv: String,
    /// `(query, run index, fingerprint)` per window query.
    windows: Vec<(WindowQuery, u64, String)>,
}

/// `(cell, algo, seed offset)` of run `r` of a sweep, in grid order.
fn run_coords(sweep: &SweepSpec, r: u64) -> (u64, u64, u64) {
    let cells = sweep.cells();
    let algos = cells[0].spec.algos.len() as u64;
    let seeds = cells[0].spec.seeds;
    let runs = cells.len() as u64 * algos * seeds;
    let r = r % runs;
    (r / (algos * seeds), r / seeds % algos, r % seeds)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut warm_s = Series::default();
    let mut build_s = Series::default();
    let mut setup_no = 0;
    let daemon = timed_setup(SETUPS, &mut out, || {
        setup_no += 1;
        let t = Instant::now();
        let spec = job_sweep(ctx.seed, 0, ctx.smoke).cells()[0].spec.clone();
        let runner = ScenarioRunner::new(spec.clone());
        drop(runner.sim(&spec.algos[0], spec.seed_base));
        build_s.push(t.elapsed().as_secs_f64());
        let jobs_dir = ctx.work_dir.join(format!("jobs-{setup_no}"));
        let _ = std::fs::remove_dir_all(&jobs_dir);
        let daemon = Daemon::bind(DaemonConfig {
            addr: "127.0.0.1:0".into(),
            jobs_dir,
            threads: ctx.threads,
            io_timeout: Some(Duration::from_secs(30)),
        });
        let t = Instant::now();
        warm_up(job_sweep(ctx.seed, 0, true).cells().iter().map(|c| &c.spec));
        warm_s.push(t.elapsed().as_secs_f64());
        daemon
    });
    let daemon = match daemon {
        Ok(d) => d,
        Err(e) => {
            out.check(Err(format!("daemon bind: {e}")));
            return out;
        }
    };
    let jobs_dir = ctx.work_dir.join(format!("jobs-{setup_no}"));
    let addr = match daemon.local_addr() {
        Ok(a) => a,
        Err(e) => {
            out.check(Err(format!("daemon address: {e}")));
            return out;
        }
    };

    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.run());
        let finished = match client_loop(ctx, addr, &mut out) {
            Ok(f) => f,
            Err(e) => {
                out.check(Err(e));
                Vec::new()
            }
        };
        match Conn::connect(addr).and_then(|mut c| c.send(&Request::Shutdown)) {
            Ok(()) => {
                if let Ok(Err(e)) = server.join() {
                    out.check(Err(format!("daemon: {e}")));
                }
            }
            Err(e) => {
                out.check(Err(format!("shutdown: {e}")));
                std::process::exit(1);
            }
        }
        verify(ctx, &finished, &jobs_dir, &mut out);
    });
    if ctx.traced() {
        out.warmup_layer(&warm_s);
        out.layer("sim.build_s", build_s.median(), "s");
    }
    out
}

/// The request connection, timing each round trip per request kind.
struct Client<'a> {
    ctx: &'a Ctx,
    conn: Conn,
    rtt: BTreeMap<&'static str, Series>,
}

impl Client<'_> {
    /// One timed round trip; returns the response and its latency in ms.
    fn call(&mut self, name: &'static str, r: &Request) -> (Result<Response, String>, f64) {
        let t = Instant::now();
        let resp = self.ctx.tracer.span(name, None, |_| self.conn.call(r));
        let ms = ms_since(t);
        self.rtt.entry(name).or_default().push(ms);
        (resp, ms)
    }

    /// Submit job `k`; `None` (and a counted failure) when refused.
    fn submit(&mut self, k: u64, out: &mut Outcome) -> Option<Pending> {
        let sweep = job_sweep(self.ctx.seed, k, self.ctx.smoke);
        let id = format!("svc-{}-{k}", self.ctx.seed);
        let submitted = Instant::now();
        let submit = Request::Submit(Box::new(SubmitRequest {
            source: JobSource::Sweep(sweep.clone()),
            id: Some(id.clone()),
            priority: 0,
        }));
        let (resp, _) = self.call("service.daemon.submit", &submit);
        match resp {
            Ok(Response::Submitted { .. }) => {
                out.check(Ok(()));
                Some(Pending {
                    k,
                    id,
                    sweep,
                    submitted,
                })
            }
            Ok(other) => {
                out.check(Err(format!("submit: unexpected {other:?}")));
                None
            }
            Err(e) => {
                out.check(Err(format!("submit: {e}")));
                None
            }
        }
    }
}

/// Watch `job` on the events stream until it is terminal. Returns the
/// terminal event and when the job was first seen running (`None` when
/// it was already terminal as the watch began). A job still
/// queued [`STALL`] after the watch began means the pool missed its
/// wake-up; a fresh submission wakes it, and the stall is counted.
fn watch(
    events: &mut Conn,
    client: &mut Client<'_>,
    job: &Pending,
    stalls: &mut u64,
) -> Result<(JobEvent, Option<Instant>), String> {
    events
        .send(&Request::Events { id: job.id.clone() })
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    let mut started = None;
    let mut quiet_since = Instant::now();
    loop {
        match events.read(&mut line)? {
            Some(Response::Event(ev)) => {
                if ev.terminal {
                    return Ok((ev, started));
                }
                if started.is_none() && ev.state != "queued" {
                    started = Some(Instant::now());
                }
                quiet_since = Instant::now();
            }
            Some(Response::Error { message }) => return Err(message),
            Some(other) => return Err(format!("events: unexpected {other:?}")),
            None if quiet_since.elapsed() >= NO_PROGRESS => {
                return Err(format!("job {}: no event for {NO_PROGRESS:?}", job.id));
            }
            None if started.is_none() && quiet_since.elapsed() >= STALL => {
                *stalls += 1;
                quiet_since = Instant::now();
                let nudge = Request::Submit(Box::new(SubmitRequest {
                    source: JobSource::Scenario(
                        ScenarioSpec::batch(1, 0.0).seeds(1).until_drained(1_000),
                    ),
                    id: Some(format!("nudge-{}-{stalls}", job.id)),
                    priority: 0,
                }));
                client.conn.call(&nudge)?;
            }
            None => {}
        }
    }
}

/// The closed loop: keep [`OUTSTANDING`] jobs in flight until the run's
/// time is up, and inspect each job as it finishes.
fn client_loop(ctx: &Ctx, addr: SocketAddr, out: &mut Outcome) -> Result<Vec<Finished>, String> {
    let mut client = Client {
        ctx,
        conn: Conn::connect(addr).map_err(|e| e.to_string())?,
        rtt: BTreeMap::new(),
    };
    let mut events = Conn::connect(addr).map_err(|e| e.to_string())?;
    events
        .writer
        .set_read_timeout(Some(STALL))
        .map_err(|e| e.to_string())?;

    let mut queue_s = Series::default();
    let mut run_s = Series::default();
    let mut stalls = 0u64;
    let mut slots = 0.0;
    let mut finished = Vec::new();
    let mut outstanding: VecDeque<Pending> = VecDeque::new();
    let mut next_k = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);

    loop {
        while outstanding.len() < OUTSTANDING && (next_k == 0 || Instant::now() < deadline) {
            next_k += 1;
            outstanding.extend(client.submit(next_k - 1, out));
        }
        let Some(job) = outstanding.pop_front() else {
            break;
        };
        let (terminal, started) = watch(&mut events, &mut client, &job, &mut stalls)?;
        let done = Instant::now();
        ctx.tracer.record("service.job", None, job.submitted, done);
        out.job_s.push((done - job.submitted).as_secs_f64());
        // Queue and run time only for jobs watched while still live.
        if let Some(started) = started {
            queue_s.push((started - job.submitted).as_secs_f64());
            run_s.push((done - started).as_secs_f64());
        }
        slots += terminal.slots_done;
        if terminal.state != "done" {
            out.check(Err(format!("job {} ended {}", job.id, terminal.state)));
            continue;
        }
        out.check(Ok(()));

        // Refill the window before inspecting, so reads overlap writes.
        while outstanding.len() < OUTSTANDING && Instant::now() < deadline {
            next_k += 1;
            outstanding.extend(client.submit(next_k - 1, out));
        }

        // Status then Results csv is one query (see `read_results`).
        let (status, status_ms) = client.call(
            "service.daemon.status",
            &Request::Status { id: job.id.clone() },
        );
        out.check(match status {
            Ok(Response::Status(s)) if s.state == "done" && s.done_units == s.total_units => Ok(()),
            Ok(other) => Err(format!("status: unexpected {other:?}")),
            Err(e) => Err(format!("status: {e}")),
        });
        let results = Request::Results {
            id: job.id.clone(),
            format: ResultFormat::Csv,
        };
        let (results, results_ms) = client.call("service.daemon.results", &results);
        out.query_ms.push(status_ms + results_ms);
        let csv = match results {
            Ok(Response::Results { body, .. }) => body,
            other => {
                out.check(Err(format!("results: unexpected {other:?}")));
                continue;
            }
        };
        out.check(Ok(()));

        let mut windows = Vec::with_capacity(WINDOWS);
        let run = job.k;
        let (cell, algo, seed) = run_coords(&job.sweep, run);
        for q in window_queries(
            ctx.seed ^ job.k.wrapping_mul(0x9e37),
            WINDOWS,
            0,
            200,
            WINDOW_LEN,
        ) {
            let window = Request::Window {
                id: job.id.clone(),
                cell,
                algo,
                seed,
                lo: q.lo,
                hi: q.hi,
            };
            let (resp, ms) = client.call("service.daemon.window", &window);
            out.window_ms.push(ms);
            match resp {
                Ok(Response::Window { fingerprint, .. }) => windows.push((q, run, fingerprint)),
                other => out.check(Err(format!("window: unexpected {other:?}"))),
            }
        }
        finished.push(Finished {
            id: job.id,
            sweep: job.sweep,
            csv,
            windows,
        });
    }
    let wall = start.elapsed().as_secs_f64();
    out.jobs_per_s = finished.len() as f64 / wall;
    out.slots_per_s = slots / wall;

    let fault_fires = match client.conn.call(&Request::Health) {
        Ok(Response::Health { fault_fires, .. }) => fault_fires as f64,
        _ => f64::NAN,
    };
    out.check(if fault_fires == 0.0 {
        Ok(())
    } else {
        Err(format!("health reports {fault_fires} fault fires"))
    });
    if ctx.traced() {
        for (name, series) in &client.rtt {
            let short = name.trim_start_matches("service.daemon.");
            out.layer_tail(&format!("service.daemon.rtt_ms.{short}"), series, "ms");
        }
        out.layer_tail("service.scheduler.queue_s", &queue_s, "s");
        out.layer("service.scheduler.run_s.p50", run_s.median(), "s");
        out.layer("service.scheduler.stalls", stalls as f64, "count");
        out.layer("service.fault_fires", fault_fires, "count");
    }
    Ok(finished)
}

/// After the loop: every `Results csv` against an in-process scheduler
/// run of the same sweep, every window fingerprint against a direct
/// `WindowReplayer`, plus the journal and checkpoint figures.
fn verify(ctx: &Ctx, finished: &[Finished], jobs_dir: &Path, out: &mut Outcome) {
    let mut pool = Pool::new(ctx.threads);
    let mut capture_s = Series::default();
    let mut append_ms = Series::default();
    let mut replay = ReplayStats::default();
    let journal_dir = ctx.work_dir.join("journal-probe");
    let _ = std::fs::create_dir_all(&journal_dir);
    let mut window_ms = Series::default();
    for f in finished {
        let reference = ctx
            .tracer
            .span("campaign.job", None, |_| pool.run(f.sweep.clone()));
        let result = reference.and_then(|j| j.result().ok_or_else(|| "no result".to_string()));
        match result {
            Ok(result) => {
                out.check(if to_csv(&result) == f.csv {
                    Ok(())
                } else {
                    Err(format!(
                        "job {}: Results csv differs from the in-process run",
                        f.id
                    ))
                });
                if ctx.traced() {
                    journal_appends(ctx, &journal_dir, f, &result, &mut append_ms);
                }
            }
            Err(e) => out.check(Err(format!("reference for {}: {e}", f.id))),
        }
        let cells = f.sweep.cells();
        let mut replayers: BTreeMap<u64, WindowReplayer> = BTreeMap::new();
        for (q, run, fingerprint) in &f.windows {
            let (cell, algo, seed) = run_coords(&f.sweep, *run);
            let spec = &cells[cell as usize].spec;
            if !replayers.contains_key(run) {
                let t = Instant::now();
                match crate::harness::capture(ctx, spec, algo as usize, spec.seed_base + seed) {
                    Ok(r) => {
                        capture_s.push(t.elapsed().as_secs_f64());
                        replayers.insert(*run, r);
                    }
                    Err(e) => {
                        out.check(Err(format!("capture: {e}")));
                        continue;
                    }
                }
            }
            let r = replayers.get_mut(run).expect("captured above");
            let fps = crate::harness::replay_windows(
                ctx,
                r,
                std::slice::from_ref(q),
                &mut window_ms,
                &mut replay,
            );
            out.check(match fps {
                Ok(fps) if format!("{:016x}", fps[0]) == *fingerprint => Ok(()),
                Ok(fps) => Err(format!(
                    "job {}: window {}..{} fingerprint {fingerprint} != direct replay {:016x}",
                    f.id, q.lo, q.hi, fps[0]
                )),
                Err(e) => Err(format!("direct replay: {e}")),
            });
        }
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
    if ctx.traced() {
        let (bytes, appends) = journal_totals(jobs_dir);
        out.layer_tail("service.journal.append_ms", &append_ms, "ms");
        out.layer("service.journal.bytes", bytes as f64, "B");
        out.layer("service.journal.appends", appends as f64, "count");
        out.layer("forensics.capture_s", capture_s.median(), "s");
        out.layer("forensics.replay_efficiency", replay.efficiency(), "frac");
        out.layer("forensics.cache_hit_frac", replay.cache_hit_frac(), "frac");
        if let Some(f) = finished.first() {
            let spec = f.sweep.cells()[0]
                .spec
                .clone()
                .checkpoint_every(contention_bench::forensics::DEFAULT_CHUNK);
            if let Ok(trial) = ScenarioRunner::new(spec.clone())
                .run_seed_checkpointed(&spec.algos[0], spec.seed_base)
            {
                let bytes: u64 = trial.snapshots.iter().map(|s| s.approx_bytes()).sum();
                out.layer(
                    "sim.checkpoint.snapshot_bytes",
                    bytes as f64 / trial.snapshots.len() as f64,
                    "B",
                );
            }
        }
    }
}

/// Append `result`'s rows to a fresh journal, timing each fsync'd append.
fn journal_appends(
    ctx: &Ctx,
    dir: &Path,
    f: &Finished,
    result: &contention_bench::campaign::CampaignResult,
    ms: &mut Series,
) {
    let path = dir.join(format!("{}.jsonl", f.id));
    let Ok(mut journal) = Journal::create(&path, &f.sweep, result.cells.len()) else {
        return;
    };
    for (unit, cell) in result.cells.iter().enumerate() {
        let t = Instant::now();
        let ok = ctx.tracer.span("service.journal.append", None, |_| {
            journal.append(unit, cell)
        });
        if ok.is_ok() {
            ms.push(ms_since(t));
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Bytes and result lines across every job journal the daemon wrote.
fn journal_totals(jobs_dir: &Path) -> (u64, u64) {
    let (mut bytes, mut appends) = (0, 0);
    if let Ok(entries) = std::fs::read_dir(jobs_dir) {
        for e in entries.flatten() {
            if let Ok(text) = std::fs::read_to_string(e.path().join("journal.jsonl")) {
                bytes += text.len() as u64;
                appends += text.lines().count().saturating_sub(1) as u64;
            }
        }
    }
    (bytes, appends)
}
