//! The shared multi-job scheduler: `replicate`'s atomic-cursor pool
//! lifted into a persistent service.
//!
//! One [`Scheduler`] owns a fixed set of worker threads for the life of
//! the process. Jobs (expanded sweeps) register a flat task list — one
//! task per (unit, seed), where a *unit* is a (cell × algorithm) row —
//! and workers claim tasks one at a time from the highest-priority
//! active job (ties broken by submission order), so a straggler cell
//! never idles the pool and a high-priority smoke job overtakes a
//! running mega-campaign at the next task boundary.
//!
//! Workers run each task through
//! [`ScenarioRunner::run_task`](crate::scenario::ScenarioRunner::run_task)
//! — the per-seed path every front end shares — and keep one
//! `SeedStats` row per seed, read off the finished trace's totals.
//!
//! Determinism is preserved exactly as in the in-process runner: tasks
//! may *execute* in any order on any number of threads, but per-seed
//! statistics fold into their [`CellResult`] in seed order, and rows
//! assemble into the final [`CampaignResult`] in unit (grid) order. When
//! a job carries a directory, every completed unit is appended to its
//! write-ahead [`Journal`] — synced before the result is visible
//! anywhere — and final artifacts (`results.csv`, `results.jsonl`,
//! `report.md`, a `state` marker) are written atomically on completion.

use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::campaign::runner::{aggregate, SeedStats};
use crate::campaign::sweep::Cell;
use crate::campaign::{render_section, to_csv, to_jsonl, CampaignResult, CellResult, SweepSpec};
use crate::scenario::ScenarioRunner;

use super::faults::{self, FaultPoint};
use super::journal::{recover, Journal, RecoverError};
use super::protocol::{JobEvent, JobStatusInfo};
use super::{write_atomic_retrying, ServiceError};

/// Attempts per (unit, seed) task before quarantine: one initial run
/// plus three retries. A panicking task is requeued (self-heal) until
/// this cap, then the job fails with a `quarantined:` reason while the
/// pool keeps serving every other job.
const TASK_ATTEMPTS: u32 = 4;

/// Scheduling state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Submitted, no task has started.
    Queued,
    /// At least one task has run.
    Running,
    /// Every unit completed; final artifacts written.
    Done,
    /// Cancelled before completion (journal still holds finished units).
    Cancelled,
    /// A task panicked or the journal could not be written.
    Failed(String),
}

impl JobState {
    /// Wire label (`queued`/`running`/`done`/`cancelled`/`failed`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }

    /// No further progress will happen.
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed(_)
        )
    }
}

/// What to run and where to journal it.
#[derive(Debug)]
pub struct JobSpec {
    /// Job id (unique per scheduler).
    pub id: String,
    /// The sweep to run.
    pub sweep: SweepSpec,
    /// Higher runs first; ties in submission order.
    pub priority: i64,
    /// Job directory for the journal + final artifacts (`None` = purely
    /// in-memory, the `CampaignRunner::run()` path).
    pub dir: Option<PathBuf>,
    /// Allow resuming an existing journal in `dir`. Without this flag an
    /// existing journal is an error (protects against accidental reuse
    /// of a job directory).
    pub resume: bool,
}

/// Per-unit execution state.
#[derive(Debug)]
struct UnitProgress {
    seeds_done: u64,
    /// One slot per seed, filled as tasks finish; empty for units
    /// restored from the journal (they never execute).
    stats: Vec<Option<SeedStats>>,
}

/// Everything mutable about a job, behind one mutex.
#[derive(Debug)]
struct JobProgress {
    state: JobState,
    /// Workers only claim tasks of active jobs; submission leaves a job
    /// inactive so the caller can subscribe before the first result.
    active: bool,
    cancelled: bool,
    /// Flat (unit, seed) task list for units NOT restored from the
    /// journal, unit-major so cells complete (and journal) early.
    tasks: Vec<(usize, u64)>,
    next_task: usize,
    in_flight: usize,
    units: Vec<UnitProgress>,
    /// Completed rows by unit index (journal-recovered ones included).
    results: BTreeMap<usize, CellResult>,
    /// Executions per (unit, seed) task, for retry-then-quarantine.
    attempts: BTreeMap<(usize, u64), u32>,
    recovered: usize,
    /// Σ mean_slots × seeds over completed units — work-done numerator
    /// for client-side slots/s and ETA.
    slots_done: f64,
    journal: Option<Journal>,
    result_subs: Vec<Sender<(usize, CellResult)>>,
    event_subs: Vec<Sender<JobEvent>>,
}

/// A registered job. Cheap to clone (it is handed out as `Arc`).
#[derive(Debug)]
pub struct JobHandle {
    /// Job id.
    pub id: String,
    /// Scheduling priority.
    pub priority: i64,
    /// Submission sequence number (tie-breaker).
    seq: u64,
    /// The sweep this job runs.
    pub sweep: SweepSpec,
    /// Expanded grid cells, in grid order.
    pub cells: Vec<Cell>,
    /// Unit index → (cell index, algorithm index), cell-major.
    pub units: Vec<(usize, usize)>,
    /// Job directory (journal + artifacts), when journaled.
    pub dir: Option<PathBuf>,
    progress: Mutex<JobProgress>,
    /// Signalled on every unit completion and state change.
    cv: Condvar,
}

impl JobHandle {
    /// A status snapshot.
    pub fn status(&self) -> JobStatusInfo {
        let p = self.progress.lock().expect("job progress mutex poisoned");
        self.status_locked(&p)
    }

    fn status_locked(&self, p: &JobProgress) -> JobStatusInfo {
        JobStatusInfo {
            id: self.id.clone(),
            state: p.state.label().to_string(),
            priority: self.priority,
            total_units: self.units.len() as u64,
            done_units: p.results.len() as u64,
            recovered_units: p.recovered as u64,
            slots_done: p.slots_done,
            error: match &p.state {
                JobState::Failed(m) => Some(m.clone()),
                _ => None,
            },
        }
    }

    fn event_locked(&self, p: &JobProgress, label: &str) -> JobEvent {
        JobEvent {
            id: self.id.clone(),
            state: p.state.label().to_string(),
            done_units: p.results.len() as u64,
            total_units: self.units.len() as u64,
            recovered_units: p.recovered as u64,
            slots_done: p.slots_done,
            label: label.to_string(),
            terminal: p.state.terminal(),
        }
    }

    /// Current terminal state, blocking until the job reaches one.
    pub fn wait(&self) -> JobState {
        let mut p = self.progress.lock().expect("job progress mutex poisoned");
        while !p.state.terminal() {
            p = self.cv.wait(p).expect("job progress mutex poisoned");
        }
        p.state.clone()
    }

    /// Block until no task of this job is executing (used after a drain:
    /// in-flight cells finish and journal, nothing new starts).
    pub fn wait_quiesced(&self) {
        let mut p = self.progress.lock().expect("job progress mutex poisoned");
        while p.in_flight > 0 {
            p = self.cv.wait(p).expect("job progress mutex poisoned");
        }
    }

    /// Subscribe to completed rows: atomically returns everything
    /// completed so far plus a channel for the rest. The sender side is
    /// dropped when the job reaches a terminal state.
    pub fn subscribe_results(
        &self,
    ) -> (BTreeMap<usize, CellResult>, Receiver<(usize, CellResult)>) {
        let mut p = self.progress.lock().expect("job progress mutex poisoned");
        let (tx, rx) = mpsc::channel();
        let snapshot = p.results.clone();
        if !p.state.terminal() {
            p.result_subs.push(tx);
        }
        (snapshot, rx)
    }

    /// Subscribe to progress events: atomically returns a snapshot event
    /// plus a channel for the rest (closed after the terminal event).
    pub fn subscribe_events(&self) -> (JobEvent, Receiver<JobEvent>) {
        let mut p = self.progress.lock().expect("job progress mutex poisoned");
        let (tx, rx) = mpsc::channel();
        let snapshot = self.event_locked(&p, "");
        if !p.state.terminal() {
            p.event_subs.push(tx);
        }
        (snapshot, rx)
    }

    /// The assembled campaign result, once every unit is done.
    pub fn result(&self) -> Option<CampaignResult> {
        let p = self.progress.lock().expect("job progress mutex poisoned");
        (p.results.len() == self.units.len()).then(|| self.assemble(&p.results))
    }

    /// Rows completed so far, in grid order (may be a partial grid).
    pub fn partial_result(&self) -> CampaignResult {
        let p = self.progress.lock().expect("job progress mutex poisoned");
        self.assemble(&p.results)
    }

    fn assemble(&self, results: &BTreeMap<usize, CellResult>) -> CampaignResult {
        CampaignResult {
            name: self.sweep.name.clone(),
            title: self.sweep.title.clone(),
            axes: self.sweep.axes.iter().map(|a| a.name.clone()).collect(),
            cells: results.values().cloned().collect(),
        }
    }

    /// Terminal-state bookkeeping; caller holds the progress lock and
    /// has already set `p.state`.
    fn finish_locked(&self, p: &mut JobProgress) {
        if let Some(dir) = &self.dir {
            let marker = match &p.state {
                JobState::Done => "done".to_string(),
                JobState::Cancelled => "cancelled".to_string(),
                JobState::Failed(m) => format!("failed: {m}"),
                _ => unreachable!("finish_locked requires a terminal state"),
            };
            if p.state == JobState::Done {
                let result = self.assemble(&p.results);
                for (name, text) in [
                    ("results.csv", to_csv(&result)),
                    ("results.jsonl", to_jsonl(&result)),
                    ("report.md", render_section(&result)),
                ] {
                    if let Err(e) = write_atomic_retrying(&dir.join(name), &text) {
                        // Artifacts are derivable from the journal, so a
                        // persistent write failure degrades to a log line
                        // rather than failing the finished job.
                        eprintln!("benchd: job {}: failed to write {name}: {e}", self.id);
                    }
                }
            }
            if let Err(e) = write_atomic_retrying(&dir.join("state"), &format!("{marker}\n")) {
                eprintln!("benchd: job {}: failed to write state marker: {e}", self.id);
            }
        }
        let event = self.event_locked(p, "");
        for tx in p.event_subs.drain(..) {
            let _ = tx.send(event.clone());
        }
        p.result_subs.clear();
        self.cv.notify_all();
    }
}

#[derive(Debug)]
struct SchedState {
    jobs: Vec<Arc<JobHandle>>,
    next_seq: u64,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<SchedState>,
    work_cv: Condvar,
    /// Drain mode: stop claiming new tasks (in-flight ones finish).
    stop_claims: AtomicBool,
    /// Workers exit (set on scheduler drop).
    shutdown: AtomicBool,
}

impl Shared {
    /// Wake every idle worker after publishing new work or a new flag.
    ///
    /// The notify happens under `state`: a worker checks for work and
    /// goes to sleep in one critical section, so a notify sent between
    /// its check and its `wait` would otherwise be lost and leave it
    /// asleep with work pending (or, on drop, block `join` forever).
    /// Called from `Drop`, so a poisoned lock is held, not unwrapped.
    fn wake_workers(&self) {
        let _held = self.state.lock();
        self.work_cv.notify_all();
    }
}

/// The persistent worker pool + job registry.
#[derive(Debug)]
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawn a scheduler with `threads` workers (min 1).
    pub fn new(threads: usize) -> Scheduler {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                jobs: Vec::new(),
                next_seq: 0,
            }),
            work_cv: Condvar::new(),
            stop_claims: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Scheduler { shared, workers }
    }

    /// Register a job (inactive). Expands the grid, sets up or recovers
    /// the journal, but schedules nothing until [`activate`].
    ///
    /// [`activate`]: Scheduler::activate
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<JobHandle>, ServiceError> {
        let JobSpec {
            id,
            sweep,
            priority,
            dir,
            resume,
        } = spec;
        let cells = sweep.cells();
        let mut units = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            for ai in 0..cell.spec.algos.len() {
                units.push((ci, ai));
            }
        }

        // Journal setup: create fresh, or recover + truncate the tear.
        let mut results = BTreeMap::new();
        let mut journal = None;
        if let Some(dir) = &dir {
            fs::create_dir_all(dir)?;
            let path = dir.join("journal.jsonl");
            match recover(&path, &sweep, units.len()) {
                Ok(None) => journal = Some(Journal::create(&path, &sweep, units.len())?),
                Ok(Some(rec)) => {
                    if !resume {
                        return Err(ServiceError::new(format!(
                            "job directory `{}` already holds a journal with {}/{} units; \
                             pass --resume to continue it or remove the directory to start over",
                            dir.display(),
                            rec.results.len(),
                            units.len()
                        )));
                    }
                    results = rec.results;
                    journal = Some(Journal::resume(&path, rec.valid_len)?);
                }
                Err(RecoverError::Io(e)) => return Err(e.into()),
                Err(e) => return Err(ServiceError::new(e.to_string())),
            }
            // A resumed directory may hold stale terminal artifacts.
            let _ = fs::remove_file(dir.join("state"));
        }

        let recovered = results.len();
        let mut tasks = Vec::new();
        let mut unit_progress = Vec::with_capacity(units.len());
        for (u, &(ci, ai)) in units.iter().enumerate() {
            let seeds = cells[ci].spec.seeds;
            if results.contains_key(&u) {
                unit_progress.push(UnitProgress {
                    seeds_done: seeds,
                    stats: Vec::new(),
                });
            } else {
                // Lane-eligible units hand out 64-seed blocks, one engine
                // pass per task; everything else one seed per task.
                // `ScenarioRunner::run_task` recomputes the same block
                // size from the unit, so layout and execution agree.
                let block = ScenarioRunner::new(cells[ci].spec.clone())
                    .lane_block(&cells[ci].spec.algos[ai]);
                let mut s = 0;
                while s < seeds {
                    tasks.push((u, s));
                    s += block;
                }
                unit_progress.push(UnitProgress {
                    seeds_done: 0,
                    stats: vec![None; seeds as usize],
                });
            }
        }
        let slots_done = results
            .values()
            .map(|c| c.mean_slots * c.seeds as f64)
            .sum();

        let mut st = self
            .shared
            .state
            .lock()
            .expect("scheduler state mutex poisoned");
        if st.jobs.iter().any(|j| j.id == id) {
            return Err(ServiceError::new(format!("duplicate job id `{id}`")));
        }
        let handle = Arc::new(JobHandle {
            id,
            priority,
            seq: st.next_seq,
            sweep,
            cells,
            units,
            dir,
            progress: Mutex::new(JobProgress {
                state: JobState::Queued,
                active: false,
                cancelled: false,
                tasks,
                next_task: 0,
                in_flight: 0,
                units: unit_progress,
                results,
                attempts: BTreeMap::new(),
                recovered,
                slots_done,
                journal,
                result_subs: Vec::new(),
                event_subs: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        st.next_seq += 1;
        st.jobs.push(Arc::clone(&handle));
        Ok(handle)
    }

    /// Make a submitted job claimable. A job whose every unit was
    /// recovered finalizes immediately.
    pub fn activate(&self, job: &Arc<JobHandle>) {
        let mut p = job.progress.lock().expect("job progress mutex poisoned");
        if p.active || p.state.terminal() {
            return;
        }
        p.active = true;
        if p.tasks.is_empty() {
            p.state = if p.cancelled {
                JobState::Cancelled
            } else {
                JobState::Done
            };
            job.finish_locked(&mut p);
            return;
        }
        drop(p);
        self.shared.wake_workers();
    }

    /// Look up a job by id.
    pub fn job(&self, id: &str) -> Option<Arc<JobHandle>> {
        let st = self
            .shared
            .state
            .lock()
            .expect("scheduler state mutex poisoned");
        st.jobs.iter().find(|j| j.id == id).cloned()
    }

    /// All jobs, in submission order.
    pub fn jobs(&self) -> Vec<Arc<JobHandle>> {
        self.shared
            .state
            .lock()
            .expect("scheduler state mutex poisoned")
            .jobs
            .clone()
    }

    /// Cancel a job: unclaimed tasks are abandoned; in-flight ones
    /// finish (and journal) normally.
    pub fn cancel(&self, job: &Arc<JobHandle>) {
        let mut p = job.progress.lock().expect("job progress mutex poisoned");
        if p.state.terminal() {
            return;
        }
        p.cancelled = true;
        p.next_task = p.tasks.len();
        if p.in_flight == 0 {
            p.state = JobState::Cancelled;
            job.finish_locked(&mut p);
        }
    }

    /// Stop claiming new tasks pool-wide (SIGINT drain). In-flight tasks
    /// finish and journal; jobs stay resumable.
    pub fn drain(&self) {
        self.shared.stop_claims.store(true, Ordering::SeqCst);
        self.shared.wake_workers();
    }

    /// Whether the pool is draining.
    pub fn draining(&self) -> bool {
        self.shared.stop_claims.load(Ordering::SeqCst)
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_workers();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claim the next task from the best claimable job. Holds the scheduler
/// lock; takes each candidate's progress lock briefly (lock order is
/// always scheduler state → job progress).
fn claim(st: &SchedState) -> Option<(Arc<JobHandle>, usize, u64)> {
    let mut best: Option<&Arc<JobHandle>> = None;
    for job in &st.jobs {
        let p = job.progress.lock().expect("job progress mutex poisoned");
        if !p.active || p.state.terminal() || p.next_task >= p.tasks.len() {
            continue;
        }
        match best {
            Some(b)
                if (b.priority, std::cmp::Reverse(b.seq))
                    >= (job.priority, std::cmp::Reverse(job.seq)) => {}
            _ => best = Some(job),
        }
    }
    let job = Arc::clone(best?);
    let mut p = job.progress.lock().expect("job progress mutex poisoned");
    let (unit, seed) = p.tasks[p.next_task];
    p.next_task += 1;
    p.in_flight += 1;
    if p.state == JobState::Queued {
        p.state = JobState::Running;
    }
    drop(p);
    Some((job, unit, seed))
}

fn worker_loop(shared: &Shared) {
    loop {
        let claimed = {
            let mut st = shared.state.lock().expect("scheduler state mutex poisoned");
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !shared.stop_claims.load(Ordering::SeqCst) {
                    if let Some(c) = claim(&st) {
                        break c;
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .expect("scheduler state mutex poisoned");
            }
        };
        let (job, unit, seed) = claimed;
        let (ci, ai) = job.units[unit];
        let cell = &job.cells[ci];
        let algo = &cell.spec.algos[ai];
        // `seed` is the 0-based replication index of the task's first
        // seed (it also indexes the unit's stats slots). The task runs
        // through `ScenarioRunner::run_task`, exactly like in-process
        // replication: lane-eligible units run a whole block of seeds
        // through one bit-parallel engine pass.
        let runner = ScenarioRunner::new(cell.spec.clone());
        // The entire task body runs under `catch_unwind`, outside every
        // lock, so a panicking protocol implementation (or an injected
        // chaos panic) can never poison scheduler or job state.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if faults::fire(FaultPoint::SchedulerTaskPanic).is_some() {
                panic!("injected fault: scheduler.task.panic");
            }
            faults::stall(FaultPoint::SchedulerTaskStall);
            runner
                .run_task(algo, seed)
                .iter()
                .map(|trial| SeedStats::new(&cell.spec, trial))
                .collect()
        }));
        complete_task(&job, unit, seed, outcome);
        shared.wake_workers();
    }
}

/// Fold one finished (or panicked) task back into its job. `batch`
/// holds the task's rows starting at replication index `seed` — one row
/// for a scalar task, up to 64 for a lane-block task.
fn complete_task(
    job: &Arc<JobHandle>,
    unit: usize,
    seed: u64,
    outcome: Result<Vec<SeedStats>, Box<dyn std::any::Any + Send>>,
) {
    let mut p = job.progress.lock().expect("job progress mutex poisoned");
    p.in_flight -= 1;
    match outcome {
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "task panicked".into());
            let attempts = {
                let n = p.attempts.entry((unit, seed)).or_insert(0);
                *n += 1;
                *n
            };
            if attempts < TASK_ATTEMPTS && !p.cancelled && !p.state.terminal() {
                // Self-heal: requeue the task for another pass. The
                // caller's `notify_all` wakes a worker; determinism is
                // unaffected because a task's rows are a pure function
                // of (spec, seed).
                p.tasks.push((unit, seed));
                let event = job.event_locked(
                    &p,
                    &format!("retrying unit {unit} seed {seed} after panic (attempt {attempts})"),
                );
                p.event_subs.retain(|tx| tx.send(event.clone()).is_ok());
            } else if !p.cancelled {
                fail(
                    job,
                    &mut p,
                    format!(
                        "quarantined: unit {unit} seed {seed} panicked on \
                         {attempts} attempts: {msg}"
                    ),
                );
            }
        }
        Ok(batch) => {
            let up = &mut p.units[unit];
            up.seeds_done += batch.len() as u64;
            for (k, stats) in batch.into_iter().enumerate() {
                up.stats[seed as usize + k] = Some(stats);
            }
            if up.seeds_done == up.stats.len() as u64 {
                // Last seed of the unit: fold in seed order, journal,
                // then publish.
                let rows: Vec<SeedStats> = p.units[unit]
                    .stats
                    .drain(..)
                    .map(|s| s.expect("all seeds recorded"))
                    .collect();
                let (ci, ai) = job.units[unit];
                let cell = &job.cells[ci];
                let cr = aggregate(cell, &cell.spec.algos[ai], &rows);
                if let Some(j) = &mut p.journal {
                    // `append` already healed and retried internally; an
                    // error here is persistent, so quarantine the job
                    // (its journal is still a valid prefix).
                    if let Err(e) = j.append(unit, &cr) {
                        fail(
                            job,
                            &mut p,
                            format!("quarantined: journal write failed after retries: {e}"),
                        );
                        return;
                    }
                }
                p.slots_done += cr.mean_slots * cr.seeds as f64;
                p.results.insert(unit, cr.clone());
                p.result_subs
                    .retain(|tx| tx.send((unit, cr.clone())).is_ok());
                let event = job.event_locked(&p, &cr.spec.name);
                p.event_subs.retain(|tx| tx.send(event.clone()).is_ok());
            }
        }
    }
    if !p.state.terminal() && p.in_flight == 0 && p.next_task >= p.tasks.len() {
        if p.cancelled {
            // Journal keeps the finished units; the `cancelled` marker
            // records that the gap is intentional.
            p.state = JobState::Cancelled;
            job.finish_locked(&mut p);
            return;
        }
        if p.results.len() == job.units.len() {
            p.state = JobState::Done;
            job.finish_locked(&mut p);
            return;
        }
        // Unreachable in practice (every claimed task records its seed),
        // but falling through keeps waiters rather than wedging them.
    }
    job.cv.notify_all();
}

fn fail(job: &Arc<JobHandle>, p: &mut JobProgress, msg: String) {
    if p.state.terminal() {
        return;
    }
    p.next_task = p.tasks.len();
    p.state = JobState::Failed(msg);
    job.finish_locked(p);
    job.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Axis;
    use crate::scenario::{AlgoSpec, ScenarioSpec};

    fn sweep(name: &str, seeds: u64) -> SweepSpec {
        SweepSpec::new(
            name,
            "Scheduler test",
            ScenarioSpec::batch(4, 0.0)
                .algos([AlgoSpec::cjz_constant_jamming()])
                .seeds(seeds)
                .until_drained(10_000),
        )
        .axis(Axis::jam([0.0, 0.1]))
    }

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            id: name.to_string(),
            sweep: sweep(name, 2),
            priority: 0,
            dir: None,
            resume: false,
        }
    }

    #[test]
    fn runs_a_job_to_done() {
        let sched = Scheduler::new(2);
        let job = sched.submit(spec("a")).unwrap();
        let (snapshot, rx) = job.subscribe_results();
        assert!(snapshot.is_empty());
        sched.activate(&job);
        assert_eq!(job.wait(), JobState::Done);
        let streamed: Vec<usize> = rx.iter().map(|(u, _)| u).collect();
        assert_eq!(streamed.len(), 2, "one row per unit");
        let result = job.result().expect("complete");
        assert_eq!(result.cells.len(), 2);
        assert_eq!(job.status().done_units, 2);
        assert!(job.status().slots_done > 0.0);
    }

    #[test]
    fn one_worker_pool_never_loses_a_wake_up() {
        // A 1-worker pool races its worker's claim checks against
        // `activate` and `drop`: a notify sent between the worker's check
        // and its `wait` is lost unless it is sent under the state lock,
        // and the cycle hangs. Idle (never activated) jobs lengthen each
        // claim scan, which widens that window, and the test spins on the
        // job's state instead of sleeping in `wait`, so `drop` follows
        // the last task closely enough to land in the worker's final
        // scan. Correct code passes whatever the timing; the deadline
        // turns a lost wake-up into a failure.
        const CYCLES: usize = 1024;
        const IDLE_JOBS: usize = 512;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            let base = ScenarioSpec::batch(2, 0.0)
                .algos([AlgoSpec::cjz_constant_jamming()])
                .until_drained(1_000);
            let job_spec = |id: String| JobSpec {
                id,
                sweep: SweepSpec::new("wake", "Wake-up cycle", base.clone()),
                priority: 0,
                dir: None,
                resume: false,
            };
            for i in 0..CYCLES {
                let sched = Scheduler::new(1);
                let job = sched.submit(job_spec(format!("w{i}"))).expect("submit");
                for k in 0..IDLE_JOBS {
                    sched.submit(job_spec(format!("idle{k}"))).expect("submit");
                }
                sched.activate(&job);
                while !job.progress.lock().expect("progress").state.terminal() {
                    std::hint::spin_loop();
                }
                drop(sched);
                assert_eq!(job.wait(), JobState::Done, "cycle {i}");
                let _ = done_tx.send(i);
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
        let mut finished = 0;
        while finished < CYCLES {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            match done_rx.recv_timeout(left) {
                Ok(_) => finished += 1,
                // The cycle thread panicked: `join` below reports why.
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(e) => panic!("scheduler hung after {finished}/{CYCLES} cycles: {e}"),
            }
        }
        cycles.join().expect("cycle thread");
    }

    #[test]
    fn rejects_duplicate_ids_and_finds_jobs() {
        let sched = Scheduler::new(1);
        let a = sched.submit(spec("a")).unwrap();
        assert!(sched.submit(spec("a")).is_err());
        assert!(Arc::ptr_eq(&sched.job("a").unwrap(), &a));
        assert!(sched.job("b").is_none());
        sched.activate(&a);
        a.wait();
    }

    #[test]
    fn multiple_jobs_share_the_pool_and_both_finish() {
        let sched = Scheduler::new(2);
        let a = sched.submit(spec("a")).unwrap();
        let b = sched
            .submit(JobSpec {
                priority: 5,
                ..spec("b")
            })
            .unwrap();
        sched.activate(&a);
        sched.activate(&b);
        assert_eq!(a.wait(), JobState::Done);
        assert_eq!(b.wait(), JobState::Done);
        // Both produce the same rows as a direct in-process run.
        let direct = crate::campaign::CampaignRunner::new(sweep("a", 2)).run();
        assert_eq!(a.result().unwrap().cells, direct.cells);
    }

    #[test]
    fn seed_base_offsets_replication_seeds() {
        // A spec with a nonzero seed_base replicates seeds
        // seed_base..seed_base+seeds. The scheduler must match
        // ScenarioRunner, the independent reference implementation.
        let base = ScenarioSpec::batch(8, 0.3)
            .algos([AlgoSpec::cjz_constant_jamming()])
            .seeds(3)
            .seed_base(100)
            .until_drained(10_000);
        let algo = base.algos[0].clone();
        let runner = crate::scenario::ScenarioRunner::new(base.clone());
        let reference: f64 = runner
            .run_algo(&algo)
            .iter()
            .map(|o| o.slots as f64)
            .sum::<f64>()
            / 3.0;
        // Sanity: the reference discriminates base 100 from base 0, so
        // a scheduler that drops seed_base cannot pass by coincidence.
        let mut zero_base = base.clone();
        zero_base.seed_base = 0;
        let zero_ref: f64 = crate::scenario::ScenarioRunner::new(zero_base)
            .run_algo(&algo)
            .iter()
            .map(|o| o.slots as f64)
            .sum::<f64>()
            / 3.0;
        assert_ne!(reference, zero_ref, "seeds 100..103 must differ from 0..3");

        let sched = Scheduler::new(2);
        let job = sched
            .submit(JobSpec {
                id: "sb".to_string(),
                sweep: SweepSpec::new("sb", "Seed base", base),
                priority: 0,
                dir: None,
                resume: false,
            })
            .unwrap();
        sched.activate(&job);
        assert_eq!(job.wait(), JobState::Done);
        let result = job.result().unwrap();
        assert_eq!(result.cells.len(), 1);
        assert_eq!(result.cells[0].mean_slots, reference);
    }

    #[test]
    fn cancel_stops_unclaimed_work() {
        let sched = Scheduler::new(1);
        let job = sched.submit(spec("c")).unwrap();
        // Cancel before activation: nothing ever runs.
        sched.cancel(&job);
        sched.activate(&job);
        assert_eq!(job.wait(), JobState::Cancelled);
        assert_eq!(job.status().done_units, 0);
        assert!(job.result().is_none());
    }

    #[test]
    fn journaled_job_writes_artifacts_and_marker() {
        let dir = std::env::temp_dir().join(format!("sched-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let sched = Scheduler::new(2);
        let job = sched
            .submit(JobSpec {
                dir: Some(dir.clone()),
                ..spec("j")
            })
            .unwrap();
        sched.activate(&job);
        assert_eq!(job.wait(), JobState::Done);
        assert_eq!(fs::read_to_string(dir.join("state")).unwrap(), "done\n");
        let csv = fs::read_to_string(dir.join("results.csv")).unwrap();
        assert_eq!(csv, to_csv(&job.result().unwrap()));
        assert!(dir.join("results.jsonl").exists());
        assert!(dir.join("report.md").exists());
        // The journal holds every unit; resubmitting with --resume
        // recovers instead of re-running.
        drop(sched);
        let sched = Scheduler::new(1);
        let job2 = sched
            .submit(JobSpec {
                dir: Some(dir.clone()),
                resume: true,
                ..spec("j")
            })
            .unwrap();
        assert_eq!(job2.status().recovered_units, 2);
        sched.activate(&job2);
        assert_eq!(job2.wait(), JobState::Done);
        assert_eq!(job2.result().unwrap().cells, job.result().unwrap().cells);
        // Without --resume, an existing journal refuses (checked before
        // ids, so the same spec is rejected for directory reuse first).
        let err = sched
            .submit(JobSpec {
                dir: Some(dir.clone()),
                ..spec("j")
            })
            .unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_result_renders() {
        use crate::campaign::cells_table;
        let sched = Scheduler::new(1);
        let job = sched.submit(spec("p")).unwrap();
        sched.activate(&job);
        job.wait();
        let table = cells_table(&job.partial_result());
        assert!(!table.render().is_empty());
    }
}
