//! The two campaign workloads, `paper-cjz` and `mega-sparse`: one sweep
//! submitted to a long-lived scheduler pool again and again, its results
//! read back and one of its runs inspected through window replay.

use std::time::Instant;

use contention_bench::campaign::{Axis, AxisPoint, Edit, SweepSpec};
use contention_bench::scenario::{
    AlgoSpec, ArrivalSpec, BaselineSpec, ScenarioRunner, ScenarioSpec,
};
use contention_sim::Execution;

use crate::harness::{
    fnv1a, peak_rss_mb, read_results, repeat_for, result_slots, success_per_broadcast, timed_setup,
    warm_up, Ctx, Inspector, Outcome, Pool,
};
use crate::stats::{median, Series};

/// How a campaign workload is put together.
pub struct CampaignDef {
    /// The sweep every repetition submits, built from the workload seed.
    pub sweep: fn(seed: u64, smoke: bool) -> SweepSpec,
    /// Grid index of the cell whose first run is inspected by window
    /// replay, and the checkpoint spacing it is captured with.
    pub inspect_cell: fn(smoke: bool) -> usize,
    pub inspect_every: u64,
    /// Window queries per repetition.
    pub windows: usize,
    /// Window length, in slots.
    pub window_len: u64,
    /// Windows start within this many slots after the first checkpoint
    /// interval, while the population is still large: there a window
    /// costs about the same on every seed, where a drain's straggler tail
    /// (or the arrival burst of the first interval) would not. The
    /// captured run stops right after this region.
    pub window_span: u64,
    /// Digest of one repetition's `Results csv` at the default seed:
    /// `(full size, smoke size)`.
    pub pinned: (u64, u64),
    /// Layer that runs the simulation (`sim.exact` or `sim.sparse`).
    pub engine: &'static str,
}

/// Result reads per repetition: enough that their percentiles do not
/// rest on a handful of draws.
const QUERIES: usize = 32;
/// Set-up repetitions (reported as their median).
const SETUPS: usize = 21;

/// `paper-cjz`: the paper's protocol on the `batch-scaling` grid (jam ×
/// n, drained), exact engine only.
pub fn paper_cjz() -> CampaignDef {
    CampaignDef {
        sweep: |seed, smoke| {
            let top = if smoke { 7 } else { 11 };
            // Each drain is capped at 8n slots (until-drained caps get 4×
            // the horizon). A drain's straggler tail is heavy, so uncapped
            // drains made a job's work, and so every timing, depend on the
            // seed by 20 %; up to 8n slots the population decays the same
            // way on every seed.
            let point = |n: u32| {
                AxisPoint::coupled(n.to_string(), [Edit::N(n), Edit::Horizon(2 * u64::from(n))])
            };
            SweepSpec::new(
                "batch-scaling",
                "Batch drain scaling — slots to drain n nodes vs n, per jamming rate",
                ScenarioSpec::batch(64, 0.0)
                    .until_drained(200_000_000)
                    .seeds(2)
                    .seed_base(seed),
            )
            .axis(Axis::jam([0.0, 0.1, 0.25]))
            .axis(Axis::new(
                "n",
                (6..=top).map(|p| point(1u32 << p)).collect(),
            ))
        },
        // jam = 0.25, n = 1024 (n = 128 at smoke size).
        inspect_cell: |smoke| if smoke { 5 } else { 16 },
        inspect_every: 256,
        windows: 64,
        window_len: 64,
        window_span: 4096,
        pinned: (0x73ee_d84b_8990_1166, 0x2f0d_ea33_4241_02ad),
        engine: "sim.exact",
    }
}

/// `mega-sparse`: skip-ahead drains of 10⁴ and 10⁵ smoothed-BEB nodes
/// plus the 10⁶-node polynomial schedule, as one three-cell sweep.
pub fn mega_sparse() -> CampaignDef {
    CampaignDef {
        sweep: |seed, smoke| {
            let scale = if smoke { 100 } else { 1 };
            let batch = |n: u32| {
                AxisPoint::coupled(
                    n.to_string(),
                    [Edit::N(n), Edit::Horizon(16 * u64::from(n))],
                )
            };
            let poly_n = 1_000_000 / scale;
            let poly = AxisPoint::coupled(
                format!("poly-{poly_n}"),
                [
                    Edit::N(poly_n),
                    Edit::Algos(vec![AlgoSpec::Baseline(BaselineSpec::PolySchedule(1.5))]),
                    // Until-drained caps get 4× the horizon: 2^20 slots.
                    Edit::Horizon(1 << 18),
                ],
            );
            SweepSpec::new(
                "mega-batch-scaling",
                "Mega-scale batch drain — skip-ahead execution",
                ScenarioSpec::new("sparse-batch")
                    .algo(AlgoSpec::Baseline(BaselineSpec::SmoothedBeb))
                    .arrivals(ArrivalSpec::batch(10_000))
                    .until_drained(640_000)
                    .seeds(1)
                    .seed_base(seed)
                    .aggregate_only()
                    .history_retention(4096)
                    .execution(Execution::SkipAhead),
            )
            .axis(Axis::new(
                "n",
                vec![batch(10_000 / scale), batch(100_000 / scale), poly],
            ))
        },
        inspect_cell: |_| 0,
        inspect_every: 2048,
        windows: 192,
        window_len: 256,
        window_span: 65_536,
        pinned: (0x0f7f_67e7_86d4_0a5b, 0xb227_9071_24dc_4988),
        engine: "sim.sparse",
    }
}

pub fn run(ctx: &Ctx, def: &CampaignDef, default_seed: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut warm_s = Series::default();
    let mut build_s = Series::default();
    let (mut pool, sweep) = timed_setup(SETUPS, &mut out, || {
        let t = Instant::now();
        let sweep = (def.sweep)(ctx.seed, ctx.smoke);
        let cells = sweep.cells();
        let runners: Vec<ScenarioRunner> = cells
            .iter()
            .map(|c| ScenarioRunner::new(c.spec.clone()))
            .collect();
        for (r, c) in runners.iter().zip(&cells) {
            drop(r.sim(&c.spec.algos[0], c.spec.seed_base));
        }
        build_s.push(t.elapsed().as_secs_f64());
        let pool = Pool::new(ctx.threads);
        let t = Instant::now();
        warm_up((def.sweep)(ctx.seed, true).cells().iter().map(|c| &c.spec));
        warm_s.push(t.elapsed().as_secs_f64());
        (pool, sweep)
    });

    let cells = sweep.cells();
    let inspect = &cells[(def.inspect_cell)(ctx.smoke)].spec;
    // A fixed horizon just past the window region bounds the capture's
    // snapshots, whatever the seed's drain time.
    let inspect_spec = inspect
        .clone()
        .fixed_horizon(def.inspect_every + def.window_span + def.window_len)
        .checkpoint_every(def.inspect_every);
    let mut inspector = Inspector::new(
        ctx,
        inspect_spec,
        inspect.seed_base,
        (def.inspect_every, def.window_span, def.window_len),
        def.windows,
    );

    let mut digest: Option<u64> = None;
    let mut rates = Vec::new();
    let mut counts = None;
    let mut jobs = 0;
    let (reps, wall) = repeat_for(ctx.seconds, || {
        jobs += 1;
        let t = Instant::now();
        let job = ctx
            .tracer
            .span("campaign.job", None, |_| pool.run(sweep.clone()));
        let job_s = t.elapsed().as_secs_f64();
        let job = match job {
            Ok(job) => job,
            Err(e) => return out.check(Err(e)),
        };
        out.job_s.push(job_s);
        let mut csv = Err("no read".to_string());
        for _ in 0..QUERIES {
            csv = read_results(ctx, &job, &mut out.query_ms);
            if csv.is_err() {
                break;
            }
        }
        out.check(csv.and_then(|csv| {
            let d = fnv1a(csv.as_bytes());
            match digest {
                None => digest = Some(d),
                Some(first) if first != d => {
                    return Err(format!(
                        "results digest {d:016x} != first repetition {first:016x}"
                    ))
                }
                Some(_) => {}
            }
            Ok(())
        }));
        if let Some(result) = job.result() {
            let slots = result_slots(&result);
            rates.push(slots as f64 / job_s);
            counts.get_or_insert((slots, success_per_broadcast(&result), broadcasts(&result)));
        }
        if let Ok(inspector) = &mut inspector {
            let inspected = inspector.inspect(ctx, jobs, &mut out.window_ms);
            out.check(inspected);
        }
    });
    out.jobs_per_s = reps as f64 / wall;
    out.slots_per_s = median(&rates).unwrap_or(f64::NAN);

    if default_seed {
        let pinned = if ctx.smoke {
            def.pinned.1
        } else {
            def.pinned.0
        };
        out.check(match digest {
            Some(d) if d == pinned => Ok(()),
            Some(d) => Err(format!(
                "results digest {d:016x} != pinned {pinned:016x} at the default seed"
            )),
            None => Err("no repetition completed".into()),
        });
    }
    if let Some(d) = digest {
        println!("# results digest {d:016x}");
    }
    out.check(
        inspector
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|i| i.verify(ctx)),
    );

    let (slots, spb, events) = counts.unwrap_or_default();
    let slots_key: &'static str = if def.engine == "sim.exact" {
        "sim.exact.slots"
    } else {
        "sim.sparse.slots"
    };
    out.counts.insert(slots_key, slots as f64);
    out.counts.insert("sim.success_per_broadcast", spb);
    if def.engine == "sim.sparse" {
        out.counts.insert("sim.sparse.events", events as f64);
    }

    if ctx.traced() {
        let unit_s = serial_units(ctx, def.engine, &cells);
        let serial: f64 = unit_s.sum();
        out.layer_tail("campaign.unit_s", &unit_s, "s");
        out.layer("campaign.unit_s.max", unit_s.max(), "s");
        out.layer(
            "campaign.pool_busy_frac",
            serial / (ctx.threads as f64 * out.job_s.median()),
            "frac",
        );
        out.layer("service.scheduler.stalls", pool.stalls as f64, "count");
        out.layer("sim.build_s", build_s.median(), "s");
        out.warmup_layer(&warm_s);
        if def.engine == "sim.exact" {
            out.layer("sim.exact.ns_per_slot", serial * 1e9 / slots as f64, "ns");
        } else {
            out.layer(
                "sim.sparse.ns_per_event",
                serial * 1e9 / events as f64,
                "ns",
            );
            out.layer(
                "sim.sparse.slots_per_event",
                slots as f64 / events as f64,
                "slots",
            );
            let nodes: u64 = cells
                .iter()
                .map(|c| batch_nodes(&c.spec))
                .max()
                .unwrap_or(1);
            out.layer(
                "sim.sparse.bytes_per_node",
                peak_rss_mb() * 1048576.0 / nodes as f64,
                "B",
            );
        }
        if let Ok(i) = &inspector {
            out.layer("forensics.capture_s", i.capture_s, "s");
            out.layer("forensics.replay_efficiency", i.stats.efficiency(), "frac");
            out.layer("forensics.cache_hit_frac", i.stats.cache_hit_frac(), "frac");
        }
    }
    out
}

/// Broadcast attempts over a campaign result: on the sparse engine each
/// one is a calendar event (a scheduled send popped and resolved).
fn broadcasts(result: &contention_bench::campaign::CampaignResult) -> u64 {
    result
        .cells
        .iter()
        .map(|c| (c.mean_broadcasts * c.seeds as f64).round() as u64)
        .sum()
}

fn batch_nodes(spec: &ScenarioSpec) -> u64 {
    use contention_bench::scenario::AdversarySpec;
    match &spec.adversary {
        AdversarySpec::Composite {
            arrival: ArrivalSpec::Batch { count, .. },
            ..
        } => u64::from(*count),
        _ => 1,
    }
}

/// Every (cell × algorithm) unit once more, serially on this thread: the
/// serial unit times behind `campaign.unit_s` and the pool's busy share.
fn serial_units(
    ctx: &Ctx,
    engine: &'static str,
    cells: &[contention_bench::campaign::Cell],
) -> Series {
    let mut unit_s = Series::default();
    for cell in cells {
        let runner = ScenarioRunner::new(cell.spec.clone());
        for algo in &cell.spec.algos {
            let t = Instant::now();
            ctx.tracer.span("campaign.unit", None, |unit| {
                for s in 0..cell.spec.seeds {
                    ctx.tracer.span(engine, Some(unit), |_| {
                        drop(runner.run_seed(algo, cell.spec.seed_base + s))
                    });
                }
            });
            unit_s.push(t.elapsed().as_secs_f64());
        }
    }
    unit_s
}
