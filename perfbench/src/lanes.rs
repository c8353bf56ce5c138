//! `lane-seeds`: many-seed `ScenarioRunner::run` with bit-parallel
//! execution requested on three specs that use the lane engine in
//! opposite ways — lockstep, divergent, and ineligible (scalar fallback).

use std::time::Instant;

use contention_bench::scenario::{
    AlgoSpec, ArrivalSpec, BaselineSpec, HorizonSpec, JammingSpec, ScenarioReport, ScenarioRunner,
    ScenarioSpec, TrialOutcome,
};
use contention_sim::Execution;

use crate::harness::{fnv1a, ms_since, repeat_for, timed_setup, warm_up, Ctx, Inspector, Outcome};
use crate::stats::{median, Series};

/// Seeds per lane block (one engine pass).
const LANES: u64 = 64;
const WINDOWS: usize = 192;
const QUERIES: usize = 32;
const WINDOW_EVERY: u64 = 256;
const WINDOW_SPAN: u64 = 8192;
const WINDOW_LEN: u64 = 64;
const SETUPS: usize = 21;

/// Digest of one repetition's per-seed observables at the default seed:
/// `(full size, smoke size)`.
const PINNED: (u64, u64) = (0x013c_f481_d89c_e2b3, 0xef51_19cc_6567_edec);

/// The three specs, named for the per-layer metrics.
pub fn specs(seed: u64, smoke: bool) -> Vec<(&'static str, ScenarioSpec)> {
    let (lockstep_seeds, n_jam, jam_seeds, n_cjz) = if smoke {
        (64, 16, 64, 32)
    } else {
        (1024, 32, 256, 256)
    };
    vec![
        (
            "lane-batch",
            ScenarioSpec::new("lane-batch/256")
                .algo(AlgoSpec::Baseline(BaselineSpec::PolySchedule(1.5)))
                .arrivals(ArrivalSpec::batch(256))
                .fixed_horizon(1024)
                .seeds(lockstep_seeds)
                .seed_base(seed)
                .aggregate_only()
                .execution(Execution::BitParallel),
        ),
        (
            "lane-batch-jammed",
            ScenarioSpec::new(format!("lane-batch-jammed/{n_jam}"))
                .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                .algo(AlgoSpec::Baseline(BaselineSpec::ResetBeb))
                .arrivals(ArrivalSpec::batch(n_jam))
                .jamming(JammingSpec::Periodic {
                    period: 4,
                    phase: 2,
                })
                .until_drained(4096 * 64)
                .seeds(jam_seeds)
                .seed_base(seed)
                .aggregate_only()
                .execution(Execution::BitParallel),
        ),
        (
            "cjz-batch",
            ScenarioSpec::batch(n_cjz, 0.0)
                .until_drained(4096 * u64::from(n_cjz))
                .seeds(LANES)
                .seed_base(seed)
                .aggregate_only()
                .execution(Execution::BitParallel),
        ),
    ]
}

/// The observables compared seed by seed.
fn observables(o: &TrialOutcome) -> [u64; 6] {
    let t = &o.trace;
    [
        o.slots,
        u64::from(o.drained),
        t.total_arrivals(),
        t.total_successes(),
        t.total_jammed(),
        t.total_active(),
    ]
}

fn report_digest(reports: &[ScenarioReport]) -> u64 {
    let mut bytes = Vec::new();
    for r in reports {
        for a in &r.algos {
            for o in &a.outcomes {
                for v in observables(o) {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
    fnv1a(&bytes)
}

fn report_slots(r: &ScenarioReport) -> u64 {
    r.algos
        .iter()
        .flat_map(|a| &a.outcomes)
        .map(|o| o.slots)
        .sum()
}

pub fn run(ctx: &Ctx, default_seed: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut warm_s = Series::default();
    let mut build_s = Series::default();
    let runners: Vec<(&'static str, ScenarioRunner)> = timed_setup(SETUPS, &mut out, || {
        let t = Instant::now();
        let runners: Vec<_> = specs(ctx.seed, ctx.smoke)
            .into_iter()
            .map(|(name, spec)| (name, ScenarioRunner::new(spec)))
            .collect();
        for (_, r) in &runners {
            let spec = r.spec();
            drop(r.sim(&spec.algos[0], spec.seed_base));
        }
        build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        warm_up(specs(ctx.seed, true).iter().map(|(_, spec)| spec));
        warm_s.push(t.elapsed().as_secs_f64());
        runners
    });

    // Window inspection on one lockstep run (replayed scalar, exactly).
    // The polynomial schedule never drains its batch, so every window
    // replays a population of the same size, as `CampaignDef::window_span`
    // arranges for the drains.
    let lockstep = runners[0].1.spec();
    let mut inspector = Inspector::new(
        ctx,
        lockstep
            .clone()
            .fixed_horizon(WINDOW_EVERY + WINDOW_SPAN + WINDOW_LEN)
            .checkpoint_every(WINDOW_EVERY),
        lockstep.seed_base,
        (WINDOW_EVERY, WINDOW_SPAN, WINDOW_LEN),
        WINDOWS,
    );

    let mut digest = None;
    let mut rates = Vec::new();
    let mut spec_s: Vec<Series> = vec![Series::default(); runners.len()];
    let mut spec_slots = vec![0u64; runners.len()];
    let mut jobs = 0;
    let (reps, wall) = repeat_for(ctx.seconds, || {
        jobs += 1;
        let mut job_s = 0.0;
        let mut slots = 0;
        let mut reports = Vec::with_capacity(runners.len());
        ctx.tracer.span("lanes.job", None, |job| {
            for (i, (_, r)) in runners.iter().enumerate() {
                let t = Instant::now();
                let report = ctx.tracer.span("scenario.run", Some(job), |_| r.run());
                let s = t.elapsed().as_secs_f64();
                job_s += s;
                spec_s[i].push(s);
                spec_slots[i] = report_slots(&report);
                slots += spec_slots[i];
                reports.push(report);
            }
        });
        out.job_s.push(job_s);
        rates.push(slots as f64 / job_s);

        // The Results read of a scenario report: its per-algorithm
        // aggregates, as a caller renders them.
        for _ in 0..QUERIES {
            let t = Instant::now();
            let summary = ctx.tracer.span("scenario.results", None, |_| {
                let mut s = String::new();
                for r in &reports {
                    for a in &r.algos {
                        s.push_str(&format!(
                            "{},{},{},{:?},{}\n",
                            a.name,
                            a.mean_successes(),
                            a.mean_slots(),
                            a.mean_latency(),
                            a.all_drained()
                        ));
                    }
                }
                s
            });
            out.query_ms.push(ms_since(t));
            out.check(if summary.is_empty() {
                Err("empty scenario report".into())
            } else {
                Ok(())
            });
        }

        let d = report_digest(&reports);
        out.check(match digest {
            None => {
                digest = Some(d);
                Ok(())
            }
            Some(first) if first != d => Err(format!(
                "per-seed digest {d:016x} != first repetition {first:016x}"
            )),
            Some(_) => Ok(()),
        });

        if let Ok(inspector) = &mut inspector {
            let inspected = inspector.inspect(ctx, jobs, &mut out.window_ms);
            out.check(inspected);
        }
    });
    out.jobs_per_s = reps as f64 / wall;
    out.slots_per_s = median(&rates).unwrap_or(f64::NAN);

    if default_seed {
        let pinned = if ctx.smoke { PINNED.1 } else { PINNED.0 };
        out.check(match digest {
            Some(d) if d == pinned => Ok(()),
            Some(d) => Err(format!(
                "per-seed digest {d:016x} != pinned {pinned:016x} at the default seed"
            )),
            None => Err("no repetition completed".into()),
        });
    }
    if let Some(d) = digest {
        println!("# per-seed digest {d:016x}");
    }
    out.check(
        inspector
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|i| i.verify(ctx)),
    );
    exact_block_check(ctx, &runners, &mut out);

    out.counts
        .insert("sim.lanes.slots", spec_slots.iter().sum::<u64>() as f64);

    if ctx.traced() {
        out.warmup_layer(&warm_s);
        out.layer("sim.build_s", build_s.median(), "s");
        if let Ok(i) = &inspector {
            out.layer("forensics.capture_s", i.capture_s, "s");
            out.layer("forensics.replay_efficiency", i.stats.efficiency(), "frac");
            out.layer("forensics.cache_hit_frac", i.stats.cache_hit_frac(), "frac");
        }
        let mut busy = Vec::new();
        for (i, (name, r)) in runners.iter().enumerate() {
            let lanes = lane_pass(ctx, r);
            let wall = spec_s[i].median();
            out.layer(
                format!("sim.lanes.active_lane_frac.{name}"),
                lanes.lane_slots as f64 / (LANES * lanes.block_slots) as f64,
                "frac",
            );
            out.layer(
                format!("sim.lanes.ns_per_lane_slot.{name}"),
                wall * 1e9 / spec_slots[i] as f64,
                "ns",
            );
            let exact = ScenarioRunner::new(r.spec().clone().execution(Execution::Exact));
            let t = Instant::now();
            ctx.tracer.span("sim.exact", None, |_| drop(exact.run()));
            out.layer(
                format!("sim.lanes.speedup_vs_exact.{name}"),
                t.elapsed().as_secs_f64() / wall,
                "x",
            );
            busy.push(lanes.serial_s / (ctx.threads as f64 * wall));
        }
        out.layer(
            "scenario.pool_busy_frac",
            median(&busy).unwrap_or(f64::NAN),
            "frac",
        );
    }
    out
}

#[derive(Debug, Default)]
struct LanePass {
    /// Σ per-lane slots over every engine pass.
    lane_slots: u64,
    /// Σ slots each engine pass stepped.
    block_slots: u64,
    /// Σ serial time of the engine passes.
    serial_s: f64,
}

/// Run `r`'s seeds serially the way `ScenarioRunner::collect` lays them
/// out — 64-seed lane blocks when eligible, one seed per pass otherwise —
/// counting active lanes per pass.
fn lane_pass(ctx: &Ctx, r: &ScenarioRunner) -> LanePass {
    let spec = r.spec();
    let mut pass = LanePass::default();
    for algo in &spec.algos {
        let block = r.lane_block(algo);
        let mut first = 0;
        while first < spec.seeds {
            let n = block.min(spec.seeds - first);
            let t = Instant::now();
            if block > 1 {
                let mut sim = r.lane_sim(algo, spec.seed_base + first, n);
                ctx.tracer.span("sim.lanes", None, |_| match spec.horizon {
                    HorizonSpec::UntilDrained { max_slots } => sim.run_until_drained(max_slots),
                    HorizonSpec::Fixed { slots } => sim.run_for(slots),
                });
                pass.block_slots += sim.current_slot();
                pass.lane_slots += (0..n as usize).map(|j| sim.lane_slots(j)).sum::<u64>();
            } else {
                let o = ctx.tracer.span("sim.exact", None, |_| {
                    r.run_seed(algo, spec.seed_base + first)
                });
                pass.block_slots += o.slots;
                pass.lane_slots += o.slots;
            }
            pass.serial_s += t.elapsed().as_secs_f64();
            first += n;
        }
    }
    pass
}

/// Re-run one sampled 64-seed block of a lane-eligible spec under the
/// exact engine, seed by seed, and compare every observable bit for bit.
fn exact_block_check(ctx: &Ctx, runners: &[(&'static str, ScenarioRunner)], out: &mut Outcome) {
    let (name, r) = &runners[(ctx.seed % 2) as usize];
    let spec = r.spec();
    let blocks = spec.seeds.div_ceil(LANES);
    let first = spec.seed_base + (ctx.seed / 2 % blocks) * LANES;
    let n = LANES.min(spec.seed_base + spec.seeds - first);
    let exact = ScenarioRunner::new(spec.clone().execution(Execution::Exact));
    for algo in &spec.algos {
        let lanes = r.run_seed_block(algo, first, n);
        for (k, lane) in lanes.iter().enumerate() {
            let seed = first + k as u64;
            let scalar = exact.run_seed(algo, seed);
            out.check(if observables(lane) == observables(&scalar) {
                Ok(())
            } else {
                Err(format!(
                    "{name} seed {seed} ({}): lanes {:?} != exact {:?}",
                    algo.name(),
                    observables(lane),
                    observables(&scalar)
                ))
            });
        }
    }
}
