//! Executing a [`SweepSpec`]: grid expansion, work-stealing replication
//! across *scenarios × algorithms × seeds*, and streaming aggregation.
//!
//! Every (cell, algorithm, seed) triple is one task in a single flat
//! index space handed to the service layer's persistent
//! [`Scheduler`](crate::service::Scheduler) (the multi-job successor of
//! the scenario layer's work-stealing
//! [`replicate`](crate::scenario::runner::replicate()) pool), so a
//! straggler cell never idles the pool. Each task runs its seeds through
//! [`ScenarioRunner::run_task`](crate::scenario::ScenarioRunner::run_task)
//! — the same per-seed path as every other front end — and keeps only a
//! `SeedStats` row read off the finished trace: the trace's totals
//! ([`Trace::totals`](contention_sim::Trace::totals)) plus a few
//! departure-derived means. Cells run in aggregate record mode, so
//! nothing stores per-slot records and campaign memory stays
//! O(axes × checkpoints), independent of horizon. Task results fold into
//! per-cell [`CellResult`]s in deterministic order (seed order within
//! algorithm within cell), so campaign output — and the `RESULTS.md`
//! rendered from it — is byte-stable across runs, thread counts, and
//! (because cells are journaled as they complete) across kill/resume
//! boundaries.

use contention_sim::StreamingStats;

use crate::scenario::spec::{AlgoSpec, ScenarioSpec};
use crate::scenario::TrialOutcome;
use crate::service::{run_local, LocalOptions};

use super::sweep::{Cell, SweepSpec};

/// What one (cell, algorithm, seed) run contributes to its cell row.
#[derive(Debug, Clone)]
pub(crate) struct SeedStats {
    drained: bool,
    /// The trace's totals: counts, outcome tallies, checkpoint curve.
    totals: StreamingStats,
    mean_latency: Option<f64>,
    /// Mean per-delivery energy under the cell's listen cost.
    mean_energy: Option<f64>,
    /// Channel accesses of the first delivered node (or of the first
    /// survivor when nothing was delivered) — the Theorem 1.3 metric.
    first_access: Option<u64>,
    /// Slot of the first delivery.
    first_success_slot: Option<u64>,
}

impl SeedStats {
    /// Read one finished run's row off its trial outcome. Shared by the
    /// scalar and the 64-wide lane-block path, so both extract the exact
    /// same metrics.
    pub(crate) fn new(spec: &ScenarioSpec, trial: &TrialOutcome) -> SeedStats {
        let trace = &trial.trace;
        let first = trace.departures().first();
        SeedStats {
            drained: trial.drained,
            totals: trace.totals().clone(),
            mean_latency: trace.mean_latency(),
            mean_energy: trace.mean_energy(spec.channel.listen_cost),
            first_access: first
                .map(|d| d.accesses)
                .or_else(|| trace.survivors().first().map(|s| s.accesses)),
            first_success_slot: first.map(|d| d.departure_slot),
        }
    }
}

/// Aggregated results of one grid cell for one roster algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cell coordinates: `(axis name, point label)` in axis order.
    pub coords: Vec<(String, String)>,
    /// The materialized cell scenario (carries name, horizon, budget, …).
    pub spec: ScenarioSpec,
    /// The algorithm these rows aggregate.
    pub algo: AlgoSpec,
    /// Display name of the algorithm.
    pub algo_name: String,
    /// Seeds aggregated.
    pub seeds: u64,
    /// Mean executed slots.
    pub mean_slots: f64,
    /// Fraction of seeds that drained.
    pub drained_frac: f64,
    /// Mean arrivals (`n_t`).
    pub mean_arrivals: f64,
    /// Mean jammed slots (`d_t`).
    pub mean_jammed: f64,
    /// Mean active slots (`a_t`).
    pub mean_active: f64,
    /// Mean delivered messages.
    pub mean_delivered: f64,
    /// Mean broadcast attempts (channel accesses, summed over nodes).
    pub mean_broadcasts: f64,
    /// Mean ground-truth silent slots (no broadcasters, unjammed) — the
    /// privileged tally the feedback models hide or reveal.
    pub mean_silence: f64,
    /// Mean ground-truth collision slots (≥ 2 broadcasters, unjammed).
    pub mean_collisions: f64,
    /// Mean delivered latency (over seeds that delivered anything).
    pub mean_latency: Option<f64>,
    /// Mean model-aware energy per delivered node (accesses + the cell's
    /// `listen_cost` × listening slots; over seeds that delivered).
    pub mean_energy: Option<f64>,
    /// Mean channel accesses to the first success (Theorem 1.3 metric;
    /// over seeds, survivors counted when nothing was delivered).
    pub mean_first_access: Option<f64>,
    /// Mean slot of the first delivery (over seeds that delivered).
    pub mean_first_success_slot: Option<f64>,
    /// Dyadic checkpoint curve, in increasing `t`.
    pub checkpoints: Vec<CheckpointStat>,
}

/// One aggregated dyadic checkpoint of a cell.
///
/// A run that drains (or hits its cap) before slot `t` records no
/// snapshot at `t`, so `mean_successes` averages only the `seeds` runs
/// that got there — consumers needing an all-seeds mean must fold the
/// missing `cell.seeds - seeds` runs back in themselves (for drained
/// runs their success count is their full delivery count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointStat {
    /// The checkpoint slot.
    pub t: u64,
    /// Seeds whose runs reached slot `t`.
    pub seeds: u64,
    /// Mean successes by `t` over those seeds.
    pub mean_successes: f64,
}

impl CellResult {
    /// Delivered messages per executed slot.
    pub fn delivery_rate(&self) -> f64 {
        if self.mean_slots > 0.0 {
            self.mean_delivered / self.mean_slots
        } else {
            0.0
        }
    }

    /// Ground-truth collisions per executed slot — reportable without
    /// record mode, whatever the feedback model hides from listeners.
    pub fn collision_rate(&self) -> f64 {
        if self.mean_slots > 0.0 {
            self.mean_collisions / self.mean_slots
        } else {
            0.0
        }
    }

    /// The label of the named axis, when present.
    pub fn coord(&self, axis: &str) -> Option<&str> {
        self.coords
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, v)| v.as_str())
    }
}

/// Results of a whole campaign, cells in grid order.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Campaign name.
    pub name: String,
    /// Human heading.
    pub title: String,
    /// Axis names, in sweep order.
    pub axes: Vec<String>,
    /// One entry per (cell × roster algorithm), cell-major.
    pub cells: Vec<CellResult>,
}

impl CampaignResult {
    /// Total seed-runs aggregated across all cells.
    pub fn total_runs(&self) -> u64 {
        self.cells.iter().map(|c| c.seeds).sum()
    }
}

/// Executes [`SweepSpec`]s.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    sweep: SweepSpec,
}

impl CampaignRunner {
    /// Runner for a sweep.
    pub fn new(sweep: SweepSpec) -> Self {
        CampaignRunner { sweep }
    }

    /// The sweep.
    pub fn sweep(&self) -> &SweepSpec {
        &self.sweep
    }

    /// Expand the grid and run every (cell, algorithm, seed) task through
    /// the service layer's shared scheduler, folding results into cell
    /// rows. This is the exact same codepath `benchd` jobs and journaled
    /// `campaign run --resume` runs take (minus the journal), so an
    /// in-process campaign and a daemon job over the same sweep produce
    /// byte-identical output.
    pub fn run(&self) -> CampaignResult {
        match run_local(self.sweep.clone(), LocalOptions::default()) {
            Ok(outcome) => outcome
                .result
                .expect("uninterrupted local campaign must complete"),
            Err(e) => panic!("campaign `{}` failed: {e}", self.sweep.name),
        }
    }
}

/// Fold one unit's per-seed statistics (in seed order) into its
/// [`CellResult`] row.
pub(crate) fn aggregate(cell: &Cell, algo: &AlgoSpec, rows: &[SeedStats]) -> CellResult {
    let n = rows.len().max(1) as f64;
    let mean = |f: &dyn Fn(&SeedStats) -> f64| rows.iter().map(f).sum::<f64>() / n;
    let opt_mean = |f: &dyn Fn(&SeedStats) -> Option<f64>| {
        let vals: Vec<f64> = rows.iter().filter_map(f).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    // Checkpoint slots are dyadic, so runs of different lengths share a
    // prefix; average each t over the seeds that reached it. BTreeMap
    // keeps the fold order-independent and the output sorted.
    let mut by_t: std::collections::BTreeMap<u64, (u64, f64)> = Default::default();
    for row in rows {
        for &(t, _, _, _, s) in row.totals.checkpoints() {
            let e = by_t.entry(t).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s as f64;
        }
    }
    CellResult {
        coords: cell.coords.clone(),
        spec: cell.spec.clone(),
        algo: algo.clone(),
        algo_name: algo.name(),
        seeds: rows.len() as u64,
        mean_slots: mean(&|r| r.totals.slots() as f64),
        drained_frac: mean(&|r| f64::from(u8::from(r.drained))),
        mean_arrivals: mean(&|r| r.totals.arrivals() as f64),
        mean_jammed: mean(&|r| r.totals.jammed() as f64),
        mean_active: mean(&|r| r.totals.active() as f64),
        mean_delivered: mean(&|r| r.totals.successes() as f64),
        mean_broadcasts: mean(&|r| r.totals.broadcasts() as f64),
        mean_silence: mean(&|r| r.totals.silence() as f64),
        mean_collisions: mean(&|r| r.totals.collisions() as f64),
        mean_latency: opt_mean(&|r| r.mean_latency),
        mean_energy: opt_mean(&|r| r.mean_energy),
        mean_first_access: opt_mean(&|r| r.first_access.map(|a| a as f64)),
        mean_first_success_slot: opt_mean(&|r| r.first_success_slot.map(|s| s as f64)),
        checkpoints: by_t
            .into_iter()
            .map(|(t, (count, sum))| CheckpointStat {
                t,
                seeds: count,
                mean_successes: sum / count as f64,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::sweep::Axis;
    use crate::scenario::spec::RecordMode;
    use crate::scenario::{AlgoSpec, BaselineSpec, ScenarioRunner};

    fn mini_sweep() -> SweepSpec {
        SweepSpec::new(
            "mini",
            "Mini",
            ScenarioSpec::batch(8, 0.0)
                .algos([
                    AlgoSpec::cjz_constant_jamming(),
                    AlgoSpec::Baseline(BaselineSpec::BinaryExponential),
                ])
                .seeds(2)
                .until_drained(100_000),
        )
        .axis(Axis::jam([0.0, 0.2]))
    }

    #[test]
    fn runs_grid_and_aggregates_cells() {
        let result = CampaignRunner::new(mini_sweep()).run();
        assert_eq!(result.name, "mini");
        assert_eq!(result.axes, vec!["jam".to_string()]);
        // 2 cells × 2 roster algos.
        assert_eq!(result.cells.len(), 4);
        assert_eq!(result.total_runs(), 8);
        for cell in &result.cells {
            assert_eq!(cell.seeds, 2);
            assert_eq!(cell.spec.record, RecordMode::Aggregate);
            assert_eq!(cell.drained_frac, 1.0, "{} failed to drain", cell.spec.name);
            assert_eq!(cell.mean_delivered, 8.0);
            assert_eq!(cell.mean_arrivals, 8.0);
            assert!(cell.mean_slots > 0.0);
            assert!(cell.delivery_rate() > 0.0);
            assert!(cell.mean_latency.is_some());
            assert!(cell.mean_first_access.is_some());
            // Ground-truth tallies partition the executed slots.
            assert!(
                (cell.mean_silence + cell.mean_collisions + cell.mean_jammed + cell.mean_delivered
                    - cell.mean_slots)
                    .abs()
                    < 1e-9,
                "tallies must partition slots in {}",
                cell.spec.name
            );
            // Free listening: energy reduces to accesses per delivery.
            let energy = cell.mean_energy.expect("all seeds delivered");
            assert!(energy >= 1.0, "every delivery costs at least one access");
            assert!(!cell.checkpoints.is_empty());
            // The checkpoint curve is monotone in t.
            for pair in cell.checkpoints.windows(2) {
                assert!(pair[0].t < pair[1].t);
                assert!(pair[0].mean_successes <= pair[1].mean_successes);
            }
            assert!(cell
                .checkpoints
                .iter()
                .all(|c| c.seeds >= 1 && c.seeds <= cell.seeds));
        }
        // Cells arrive in grid order; the jam coordinate tags them.
        assert_eq!(result.cells[0].coord("jam"), Some("0"));
        assert_eq!(result.cells[2].coord("jam"), Some("0.2"));
    }

    #[test]
    fn campaign_results_are_deterministic() {
        let a = CampaignRunner::new(mini_sweep()).run();
        let b = CampaignRunner::new(mini_sweep()).run();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.mean_slots, y.mean_slots);
            assert_eq!(x.mean_delivered, y.mean_delivered);
            assert_eq!(x.checkpoints, y.checkpoints);
            assert_eq!(x.mean_latency, y.mean_latency);
        }
    }

    #[test]
    fn checkpointed_cells_stream_the_same_aggregates() {
        let spec = ScenarioSpec::batch(8, 0.2)
            .algos([AlgoSpec::cjz_constant_jamming()])
            .fixed_horizon(500)
            .aggregate_only();
        let algo = spec.algos[0].clone();
        let row = |spec: ScenarioSpec| {
            SeedStats::new(&spec, &ScenarioRunner::new(spec.clone()).run_seed(&algo, 3))
        };
        let plain = row(spec.clone());
        let chunked = row(spec.checkpoint_every(64));
        assert_eq!(plain.drained, chunked.drained);
        assert_eq!(plain.totals, chunked.totals);
        assert_eq!(plain.mean_latency, chunked.mean_latency);
        assert_eq!(plain.first_access, chunked.first_access);
    }

    #[test]
    fn fixed_horizon_cells_report_undrained_backlog() {
        // One slot cannot drain an 8-node batch: the campaign must report
        // the truth rather than panic.
        let sweep = SweepSpec::new(
            "stub",
            "Stub",
            ScenarioSpec::batch(8, 0.0)
                .algos([AlgoSpec::cjz_constant_jamming()])
                .fixed_horizon(1),
        );
        let result = CampaignRunner::new(sweep).run();
        assert_eq!(result.cells.len(), 1);
        assert_eq!(result.cells[0].drained_frac, 0.0);
        assert_eq!(result.cells[0].mean_slots, 1.0);
    }
}
