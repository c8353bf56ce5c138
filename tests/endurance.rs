//! Integration: memory-bounded endurance runs.
//!
//! A million-slot run in aggregate-only mode must preserve every invariant
//! the slot-recorded mode guarantees, while storing no per-slot state.
//! Record-mode policy comes from the scenario spec (`aggregate_only`);
//! O(1) memory additionally requires bounding the adversary-visible
//! history window (`history_retention`) — the two knobs are deliberately
//! independent, because capping the window changes what deep-history
//! adaptive adversaries can see (it defaults to unlimited for that
//! reason).

use contention::prelude::*;

#[test]
fn million_slot_run_is_memory_bounded_and_consistent() {
    let algo = AlgoSpec::cjz_constant_jamming();
    let horizon = 1_000_000u64;
    let spec = ScenarioSpec::new("poisson/0.01")
        .algo(algo.clone())
        .arrivals(ArrivalSpec::Poisson {
            rate: 0.01,
            horizon: None,
        })
        .jamming(JammingSpec::random(0.25))
        .fixed_horizon(horizon)
        .aggregate_only()
        // Bounded adversary window: O(1) history memory over the million
        // slots (this workload's adversary is not history-dependent).
        .history_retention(4096);
    let runner = ScenarioRunner::new(spec);

    // Step the run manually, folding a StreamingStats of our own to check
    // the trace's totals against.
    let (stream, alive, trace) = runner
        .collect_sim(&algo, |_seed, mut sim| {
            let mut stream = StreamingStats::new();
            for _ in 0..horizon {
                let rec = sim.step();
                stream.record(&rec);
            }
            let alive = sim.active_count() as u64;
            (stream, alive, sim.into_trace())
        })
        .into_iter()
        .next()
        .unwrap();

    // Aggregates agree between the trace counters and the streaming fold.
    assert_eq!(trace.len(), horizon);
    assert_eq!(trace.recorded_len(), 0, "no per-slot records stored");
    assert_eq!(stream.slots(), horizon);
    assert_eq!(stream.arrivals(), trace.total_arrivals());
    assert_eq!(stream.jammed(), trace.total_jammed());
    assert_eq!(stream.successes(), trace.total_successes());
    assert_eq!(stream.active(), trace.total_active());
    assert_eq!(&stream, trace.totals(), "tallies and checkpoints agree too");

    // Conservation and sanity at scale.
    assert_eq!(trace.total_arrivals(), trace.total_successes() + alive);
    let jam_frac = trace.total_jammed() as f64 / horizon as f64;
    assert!((jam_frac - 0.25).abs() < 0.01, "jam fraction {jam_frac}");
    // ~10k Poisson(0.01) arrivals; the protocol keeps up easily at this
    // load, so the backlog stays tiny.
    assert!(trace.total_arrivals() > 9_000);
    assert!(alive < 50, "backlog exploded: {alive}");

    // Dyadic checkpoints cover the run.
    let last_cp = stream.checkpoints().last().copied().unwrap();
    assert_eq!(last_cp.0, 1 << 19);
}

#[test]
fn light_and_heavy_modes_agree_exactly() {
    // Same seed, same adversary: per-slot recording must not perturb the
    // dynamics in any way (recording is pure observation).
    let algo = AlgoSpec::cjz_constant_jamming();
    let spec = ScenarioSpec::new("bursty")
        .algo(algo.clone())
        .arrivals(ArrivalSpec::Bursty {
            period: 97,
            phase: 1,
            size: 5,
            bursts: 50,
        })
        .jamming(JammingSpec::random(0.3))
        .fixed_horizon(20_000);
    let run = |light: bool| {
        let spec = if light {
            spec.clone().aggregate_only()
        } else {
            spec.clone()
        };
        ScenarioRunner::new(spec).run_seed(&algo, 5).trace
    };
    let heavy = run(false);
    let light = run(true);
    assert_eq!(heavy.departures(), light.departures());
    assert_eq!(heavy.total_arrivals(), light.total_arrivals());
    assert_eq!(heavy.total_jammed(), light.total_jammed());
    assert_eq!(heavy.total_active(), light.total_active());
    assert_eq!(heavy.survivors(), light.survivors());
}

#[test]
fn latency_histogram_of_long_run_is_heavy_tail_free_for_cjz() {
    use contention::analysis::LogHistogram;
    let algo = AlgoSpec::cjz_constant_jamming();
    let spec = ScenarioSpec::new("poisson/0.02")
        .algo(algo.clone())
        .arrivals(ArrivalSpec::Poisson {
            rate: 0.02,
            horizon: Some(150_000),
        })
        .jamming(JammingSpec::random(0.25))
        .fixed_horizon(200_000)
        .aggregate_only();
    let out = ScenarioRunner::new(spec).run_seed(&algo, 3);
    let hist: LogHistogram = out
        .trace
        .departures()
        .iter()
        .map(|d| d.latency() as f64)
        .collect();
    assert!(hist.count() > 2_500);
    // Under light dynamic load, cjz latencies concentrate: less than 2% of
    // deliveries should take 512+ slots (contrast E4's smoothed-beb, whose
    // completion tail is power-law).
    assert!(
        hist.tail_fraction(512.0) < 0.02,
        "tail fraction {}",
        hist.tail_fraction(512.0)
    );
}
