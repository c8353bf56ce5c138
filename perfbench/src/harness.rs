//! What every workload shares: the run context, the outcome a workload
//! reports, a scheduler client with a stall watchdog, window inspection
//! through the forensics layer, and the correctness digests.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use contention_bench::campaign::{to_csv, CampaignResult, SweepSpec};
use contention_bench::forensics::{WindowReplayer, DEFAULT_CACHE_BYTES};
use contention_bench::scenario::{ScenarioRunner, ScenarioSpec};
use contention_bench::service::{JobHandle, JobSpec, Scheduler};

use crate::stats::Series;
use crate::trace::Tracer;

/// Everything a workload run needs from the command line.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Smoke size: the same code paths on tiny inputs, for the
    /// benchmark's own tests.
    pub smoke: bool,
    pub tracer: Tracer,
    /// Worker threads for every pool the benchmark sizes (`nproc`).
    pub threads: usize,
    /// Scratch directory inside the checkout; removed when the run ends.
    pub work_dir: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up durations, one per repetition (seconds).
    pub setup_s: Series,
    /// Simulated slots per host second over the timed work.
    pub slots_per_s: f64,
    /// Job turnarounds (seconds).
    pub job_s: Series,
    /// Jobs completed per second of the measured loop.
    pub jobs_per_s: f64,
    /// Status/Results read latencies (milliseconds).
    pub query_ms: Series,
    /// Window replay latencies (milliseconds).
    pub window_ms: Series,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the log.
    pub errors: Vec<String>,
    /// Simulated counts that must repeat exactly between the traced and
    /// untraced runs of one seed.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run only): value and unit.
    pub layer: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    /// Count one operation; `Err` marks it failed and keeps the reason.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Record a per-layer metric. A figure with no samples behind it (a
    /// median of nothing) is left out rather than reported as a number.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.layer.insert(name.into(), (value, unit));
        }
    }

    /// `backoff.warmup_s`: the first warm-up trial (cold tables) minus the
    /// median of the later ones (warm).
    pub fn warmup_layer(&mut self, warm_s: &Series) {
        let rest = crate::stats::median(&warm_s.values[1..]).unwrap_or(0.0);
        self.layer("backoff.warmup_s", warm_s.values[0] - rest, "s");
    }

    /// Report a series as `<name>.p50` and `<name>.p95` per-layer metrics.
    pub fn layer_tail(&mut self, name: &str, series: &Series, unit: &'static str) {
        self.layer(format!("{name}.p50"), series.median(), unit);
        self.layer(format!("{name}.p95"), series.tail(0.95).0, unit);
    }
}

/// FNV-1a over bytes: the benchmark's result digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Simulated slots in a campaign result (Σ mean slots × seeds).
pub fn result_slots(result: &CampaignResult) -> u64 {
    result
        .cells
        .iter()
        .map(|c| (c.mean_slots * c.seeds as f64).round() as u64)
        .sum()
}

/// Delivered messages per broadcast attempt over a campaign result.
pub fn success_per_broadcast(result: &CampaignResult) -> f64 {
    let (mut delivered, mut broadcasts) = (0.0, 0.0);
    for c in &result.cells {
        delivered += c.mean_delivered * c.seeds as f64;
        broadcasts += c.mean_broadcasts * c.seeds as f64;
    }
    delivered / broadcasts
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// How long a submitted job may stay `queued` before the client decides
/// the pool missed its wake-up and nudges it.
pub const STALL: Duration = Duration::from_secs(1);

/// How long a job may go without any progress event before the client
/// gives up on it (every unit of every workload takes seconds at most).
pub const NO_PROGRESS: Duration = Duration::from_secs(60);

/// A long-lived [`Scheduler`] sized to `nproc`, driven the way
/// `run_local` drives its private one, plus a stall watchdog.
///
/// A job that stays `queued` for [`STALL`] is counted as a stall and the
/// pool is woken by activating a one-slot job: `Scheduler::activate` can
/// race a worker that is between its claim check and its wait, and the
/// wake-up is then lost until the next activation.
#[derive(Debug)]
pub struct Pool {
    sched: Scheduler,
    next: u64,
    pub stalls: u64,
}

impl Pool {
    pub fn new(threads: usize) -> Pool {
        Pool {
            sched: Scheduler::new(threads),
            next: 0,
            stalls: 0,
        }
    }

    /// Submit `sweep` as an in-memory job, wait until it is terminal, and
    /// return its handle.
    pub fn run(&mut self, sweep: SweepSpec) -> Result<Arc<JobHandle>, String> {
        let job = self.submit(sweep)?;
        self.wait(&job)?;
        Ok(job)
    }

    /// Submit and activate without waiting.
    pub fn submit(&mut self, sweep: SweepSpec) -> Result<Arc<JobHandle>, String> {
        self.next += 1;
        let job = self
            .sched
            .submit(JobSpec {
                id: format!("{}#{}", sweep.name, self.next),
                sweep,
                priority: 0,
                dir: None,
                resume: false,
            })
            .map_err(|e| e.to_string())?;
        self.sched.activate(&job);
        Ok(job)
    }

    /// Block until `job` is terminal; `Err` unless it finished `done`.
    pub fn wait(&mut self, job: &Arc<JobHandle>) -> Result<(), String> {
        let (mut last, rx) = job.subscribe_events();
        let mut since = Instant::now();
        while !last.terminal {
            match rx.recv_timeout(STALL) {
                Ok(ev) => {
                    last = ev;
                    since = Instant::now();
                }
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    if since.elapsed() >= NO_PROGRESS {
                        return Err(format!("job {}: no progress for {NO_PROGRESS:?}", job.id));
                    }
                    if job.status().state == "queued" && since.elapsed() >= STALL {
                        self.nudge();
                        since = Instant::now();
                    }
                }
            }
        }
        let status = job.status();
        match status.state.as_str() {
            "done" => Ok(()),
            other => Err(format!(
                "job {} ended {other}: {}",
                job.id,
                status.error.unwrap_or_default()
            )),
        }
    }

    fn nudge(&mut self) {
        self.stalls += 1;
        let tiny = SweepSpec::new(
            "nudge",
            "nudge",
            ScenarioSpec::batch(1, 0.0).seeds(1).until_drained(1_000),
        );
        if let Ok(job) = self.submit(tiny) {
            let _ = self.wait(&job);
        }
    }
}

/// The warm-up trial: one seed of every algorithm of every spec given
/// (the workload's smoke-size inputs). It interns every probability and
/// survival table the workload's protocols use, so that set-up pays for
/// them and the timed loop does not.
pub fn warm_up<'a>(specs: impl IntoIterator<Item = &'a ScenarioSpec>) {
    for spec in specs {
        let runner = ScenarioRunner::new(spec.clone());
        for algo in &spec.algos {
            drop(runner.run_seed(algo, spec.seed_base));
        }
    }
}

/// Run `job` back to back until `seconds` have passed (at least once),
/// returning the number of repetitions and the loop's wall time.
pub fn repeat_for(seconds: f64, mut job: impl FnMut()) -> (usize, f64) {
    let start = Instant::now();
    let mut reps = 0;
    while reps == 0 || start.elapsed().as_secs_f64() < seconds {
        job();
        reps += 1;
    }
    (reps, start.elapsed().as_secs_f64())
}

/// Time `make` `reps` times (dropping all but the last result): set-up is
/// measured as a median, so one slow repetition does not move it.
pub fn timed_setup<T>(reps: usize, out: &mut Outcome, mut make: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let v = make();
        out.setup_s.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    last.expect("at least one set-up")
}

/// One window query: `[lo, hi)` of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowQuery {
    pub lo: u64,
    pub hi: u64,
}

/// Deterministic window queries for one inspection: `count` windows of
/// `len` slots starting in `skip + 1 ..= skip + span`, every fourth a
/// repeat of an earlier one. Drawn from `seed` with SplitMix64, so the
/// same seed asks the same questions.
pub fn window_queries(seed: u64, count: usize, skip: u64, span: u64, len: u64) -> Vec<WindowQuery> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out: Vec<WindowQuery> = Vec::with_capacity(count);
    for i in 0..count {
        if i % 4 == 3 {
            let earlier = out[(next() % i as u64) as usize];
            out.push(earlier);
        } else {
            let lo = skip + 1 + next() % span.max(1);
            out.push(WindowQuery { lo, hi: lo + len });
        }
    }
    out
}

/// Counters from replaying windows on a [`WindowReplayer`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayStats {
    pub windows: u64,
    pub cache_hits: u64,
    /// Slots in the windows that were replayed (cache misses).
    pub window_slots: u64,
    /// Slots the replayer actually simulated for them: from the nearest
    /// checkpoint at or before `lo` up to the window's last slot.
    pub replayed_slots: u64,
}

/// Window inspection of one captured run, the way a user digs into a
/// finished sweep: after every job, a fresh set of window queries against
/// the replayer, starting from an empty cache (repeats within a set hit
/// it). Every answer is kept and checked at the end against a second,
/// independent capture of the same run.
#[derive(Debug)]
pub struct Inspector {
    spec: ScenarioSpec,
    seed: u64,
    replayer: Option<WindowReplayer>,
    /// Windows start after this many slots (the first checkpoint
    /// interval), within `span` slots, and are `len` slots long.
    skip: u64,
    span: u64,
    len: u64,
    per_job: usize,
    asked: Vec<(WindowQuery, u64)>,
    pub stats: ReplayStats,
    pub capture_s: f64,
}

impl Inspector {
    /// Capture `seed`'s run of `spec`'s first algorithm (the spec carries
    /// its checkpoint policy) under a `forensics.capture` span.
    pub fn new(
        ctx: &Ctx,
        spec: ScenarioSpec,
        seed: u64,
        (skip, span, len): (u64, u64, u64),
        per_job: usize,
    ) -> Result<Inspector, String> {
        let t = Instant::now();
        let replayer = capture(ctx, &spec, 0, seed)?;
        Ok(Inspector {
            spec,
            seed,
            replayer: Some(replayer),
            skip,
            span,
            len,
            per_job,
            asked: Vec::new(),
            stats: ReplayStats::default(),
            capture_s: t.elapsed().as_secs_f64(),
        })
    }

    /// Ask job `job`'s window queries, timing each into `ms`.
    pub fn inspect(&mut self, ctx: &Ctx, job: u64, ms: &mut Series) -> Result<(), String> {
        let queries = window_queries(
            ctx.seed ^ job.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            self.per_job,
            self.skip,
            self.span,
            self.len,
        );
        let r = self
            .replayer
            .take()
            .ok_or("replayer lost to an earlier error")?;
        let mut r = r.cache_bytes(DEFAULT_CACHE_BYTES);
        let fps = replay_windows(ctx, &mut r, &queries, ms, &mut self.stats);
        self.replayer = Some(r);
        self.asked.extend(queries.into_iter().zip(fps?));
        Ok(())
    }

    /// Replay every window asked so far on a fresh capture (in parallel,
    /// untimed) and compare fingerprints. Windows go in small batches: the
    /// replayer duplicates one snapshot per window of a batch up front.
    pub fn verify(&self, ctx: &Ctx) -> Result<(), String> {
        let mut fresh = capture(ctx, &self.spec, 0, self.seed)?;
        for batch in self.asked.chunks(2 * ctx.threads) {
            let requests: Vec<(u64, u64)> = batch.iter().map(|(q, _)| (q.lo, q.hi)).collect();
            for ((q, fp), win) in batch.iter().zip(fresh.windows(&requests)) {
                let win = win.map_err(|e| e.to_string())?;
                if win.fingerprint != *fp {
                    return Err(format!(
                        "window {}..{}: fingerprint {fp:016x} != fresh capture {:016x}",
                        q.lo, q.hi, win.fingerprint
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Capture one run for window replay (the forensics layer's capture
/// pass), timed under a `forensics.capture` span.
pub fn capture(
    ctx: &Ctx,
    spec: &ScenarioSpec,
    algo: usize,
    seed: u64,
) -> Result<WindowReplayer, String> {
    ctx.tracer.span("forensics.capture", None, |_| {
        WindowReplayer::capture(spec.clone(), algo, seed).map_err(|e| e.to_string())
    })
}

/// Replay `queries` on `replayer` one by one, timing each into `ms` and
/// returning the window fingerprints in query order.
pub fn replay_windows(
    ctx: &Ctx,
    replayer: &mut WindowReplayer,
    queries: &[WindowQuery],
    ms: &mut Series,
    stats: &mut ReplayStats,
) -> Result<Vec<u64>, String> {
    let every = replayer
        .spec()
        .checkpoint
        .map_or(contention_bench::forensics::DEFAULT_CHUNK, |p| p.every);
    let mut fingerprints = Vec::with_capacity(queries.len());
    for q in queries {
        let before = (replayer.cache().len(), replayer.cache().bytes());
        let t = Instant::now();
        let win = ctx
            .tracer
            .span("forensics.window", None, |_| replayer.window(q.lo, q.hi))
            .map_err(|e| e.to_string())?;
        ms.push(ms_since(t));
        stats.windows += 1;
        if (replayer.cache().len(), replayer.cache().bytes()) == before {
            stats.cache_hits += 1;
        } else {
            let base = (q.lo - 1) / every * every;
            stats.window_slots += win.records.len() as u64;
            stats.replayed_slots += (win.lo + win.records.len() as u64).saturating_sub(1 + base);
        }
        fingerprints.push(win.fingerprint);
    }
    Ok(fingerprints)
}

impl ReplayStats {
    /// Window slots ÷ slots replayed for them.
    pub fn efficiency(&self) -> f64 {
        self.window_slots as f64 / self.replayed_slots.max(1) as f64
    }

    pub fn cache_hit_frac(&self) -> f64 {
        self.cache_hits as f64 / self.windows.max(1) as f64
    }
}

/// Read a finished job back the way the daemon's `Status` and `Results
/// csv` requests read it. The pair is one query, timed into `ms`: timing
/// the two reads apart would put the median between two clusters.
pub fn read_results(ctx: &Ctx, job: &JobHandle, ms: &mut Series) -> Result<String, String> {
    let t = Instant::now();
    let status = ctx
        .tracer
        .span("service.scheduler.status", None, |_| job.status());
    let csv = ctx.tracer.span("campaign.results", None, |_| {
        job.result().map(|r| to_csv(&r))
    });
    ms.push(ms_since(t));
    if status.done_units != status.total_units {
        return Err(format!(
            "job {}: {}/{} units done",
            job.id, status.done_units, status.total_units
        ));
    }
    csv.ok_or_else(|| format!("job {}: no complete result", job.id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_queries_are_seeded_and_repeat_every_fourth() {
        let a = window_queries(5, 12, 100, 1000, 64);
        assert_eq!(a, window_queries(5, 12, 100, 1000, 64));
        assert_ne!(a, window_queries(6, 12, 100, 1000, 64));
        for (i, q) in a.iter().enumerate() {
            assert!(q.lo > 100 && q.lo <= 1100 && q.hi == q.lo + 64);
            if i % 4 == 3 {
                assert!(a[..i].contains(q), "query {i} repeats an earlier one");
            }
        }
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
