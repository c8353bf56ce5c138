//! Property-based integration tests: simulator invariants that must hold
//! for arbitrary seeds, populations, jamming rates and protocol choices.
//! Scenario-shaped workloads are built as `ScenarioSpec`s; only the
//! closure-adversary budget test drives the simulator directly.

use contention::prelude::*;
use contention::sim::Execution;
use proptest::prelude::*;

/// Pick one of the protocol stacks under test.
fn algo_strategy() -> impl Strategy<Value = u8> {
    0u8..6
}

fn algo_spec(which: u8) -> AlgoSpec {
    match which {
        0 => AlgoSpec::cjz_constant_jamming(),
        1 => AlgoSpec::cjz_constant_throughput(),
        2 => AlgoSpec::Baseline(BaselineSpec::BinaryExponential),
        3 => AlgoSpec::Baseline(BaselineSpec::SmoothedBeb),
        4 => AlgoSpec::Baseline(BaselineSpec::Sawtooth),
        _ => AlgoSpec::Baseline(BaselineSpec::FBackoff(GSpec::Constant(2.0))),
    }
}

/// A slot record decoded from `code`: outcome kind, arrivals, jam flag
/// and population all vary with it.
fn coded_record(code: u32) -> SlotRecord {
    let outcome = match code % 4 {
        0 => SlotOutcome::Silence,
        1 => SlotOutcome::Delivered(NodeId::new(0)),
        2 => SlotOutcome::Collision {
            broadcasters: 2 + code / 4 % 3,
        },
        _ => SlotOutcome::Jammed {
            broadcasters: code / 4 % 3,
        },
    };
    let population = u64::from(code / 12 % 7);
    SlotRecord {
        arrivals: code / 84 % 3,
        broadcasters: outcome.broadcasters(),
        jammed: matches!(outcome, SlotOutcome::Jammed { .. }),
        active: population > 0,
        population,
        outcome,
    }
}

fn jammed_batch(algo: &AlgoSpec, n: u32, jam: f64, horizon: u64) -> ScenarioSpec {
    ScenarioSpec::batch(n, jam)
        .algos([algo.clone()])
        .fixed_horizon(horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every injected node is either delivered or survives.
    /// Drives the spec-built simulator manually so the engine's live
    /// population can be cross-checked against the trace's survivor log.
    #[test]
    fn conservation(seed in 0u64..1000, n in 1u32..40, jam in 0.0f64..0.6, which in algo_strategy()) {
        let algo = algo_spec(which);
        let runner = ScenarioRunner::new(jammed_batch(&algo, n, jam, 3000));
        let mut sim = runner.sim(&algo, seed);
        sim.run_for(3000);
        let alive = sim.active_count() as u64;
        let trace = sim.into_trace();
        prop_assert_eq!(trace.total_arrivals(), u64::from(n));
        prop_assert_eq!(trace.total_successes() + alive, u64::from(n));
        prop_assert_eq!(trace.survivors().len() as u64, alive);
    }

    /// Exactly-one-broadcaster in an unjammed slot if and only if success.
    #[test]
    fn resolution_rule(seed in 0u64..500, n in 1u32..30, jam in 0.0f64..0.5) {
        let algo = AlgoSpec::cjz_constant_jamming();
        let out = ScenarioRunner::new(jammed_batch(&algo, n, jam, 1500)).run_seed(&algo, seed);
        for rec in out.trace.slots() {
            let success = rec.is_success();
            let expected = !rec.jammed && rec.broadcasters == 1;
            prop_assert_eq!(success, expected, "slot record {:?}", rec);
            // Jam/collision/silence all produce NoSuccess feedback.
            prop_assert_eq!(rec.outcome.feedback().is_success(), success);
        }
    }

    /// Cumulative counters agree with raw slot records at every prefix.
    #[test]
    fn cumulative_consistency(seed in 0u64..200, n in 1u32..20) {
        let algo = AlgoSpec::Baseline(BaselineSpec::SmoothedBeb);
        let spec = ScenarioSpec::new("periodic-jam")
            .algo(algo.clone())
            .arrivals(ArrivalSpec::batch(n))
            .jamming(JammingSpec::Periodic { period: 7, phase: 3 })
            .fixed_horizon(600);
        let out = ScenarioRunner::new(spec).run_seed(&algo, seed);
        let trace = out.trace;
        let cum = trace.cumulative();
        let mut arrivals = 0u64;
        let mut jammed = 0u64;
        let mut active = 0u64;
        for (i, rec) in trace.slots().iter().enumerate() {
            arrivals += u64::from(rec.arrivals);
            jammed += u64::from(rec.jammed);
            active += u64::from(rec.active);
            let t = i as u64 + 1;
            prop_assert_eq!(cum.arrivals(t), arrivals);
            prop_assert_eq!(cum.jammed(t), jammed);
            prop_assert_eq!(cum.active(t), active);
        }
    }

    /// The engine is a pure function of the seed.
    #[test]
    fn determinism(seed in 0u64..300, n in 1u32..20, jam in 0.0f64..0.5, which in algo_strategy()) {
        let algo = algo_spec(which);
        let go = || {
            ScenarioRunner::new(jammed_batch(&algo, n, jam, 800)).run_seed(&algo, seed).trace
        };
        let a = go();
        let b = go();
        prop_assert_eq!(a.slots(), b.slots());
        prop_assert_eq!(a.departures(), b.departures());
    }

    /// A spec survives the JSON round-trip for arbitrary parameters.
    #[test]
    fn spec_json_round_trip(n in 1u32..10_000, jam in 0.0f64..1.0, seeds in 1u64..50, which in algo_strategy(), retention in 0u64..10_000) {
        let mut spec = ScenarioSpec::batch(n, jam)
            .algos([algo_spec(which)])
            .seeds(seeds)
            .aggregate_only();
        if retention % 2 == 0 {
            spec = spec.history_retention(retention);
        }
        let parsed = ScenarioSpec::from_json_str(&spec.to_json_string());
        prop_assert_eq!(parsed.as_ref(), Ok(&spec));
    }

    /// Rendered specs are always *valid JSON*, even when parameters are
    /// non-finite (regression: `NaN`/`inf` used to be emitted verbatim,
    /// which the parser then rejected). Finite specs additionally
    /// round-trip exactly.
    #[test]
    fn spec_json_render_is_always_parseable(which in 0u8..8, raw in -4.0f64..4.0) {
        let p = match which {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => raw,
        };
        let spec = ScenarioSpec::batch(4, 0.2)
            .algos([AlgoSpec::Baseline(BaselineSpec::Aloha(p))]);
        let text = spec.to_json_string();
        let parsed = contention::bench::scenario::Json::parse(&text);
        prop_assert!(parsed.is_ok(), "rendered spec must stay parseable: {text}");
        if p.is_finite() {
            let round = ScenarioSpec::from_json_str(&text);
            prop_assert_eq!(round.as_ref(), Ok(&spec));
        } else {
            // Non-finite parameters degrade to null; parsing then fails
            // with a *typed* SpecError (expected number), not a JSON
            // syntax error.
            prop_assert!(ScenarioSpec::from_json_str(&text).is_err());
        }
    }

    /// Budget wrappers never exceed their curves.
    #[test]
    fn budget_enforcement(seed in 0u64..200, arr_cap in 1u64..50, jam_div in 2u64..10) {
        use contention::sim::adversary::{ArrivalBudget, BudgetedAdversary, JamBudget, FnAdversary};
        let greedy = FnAdversary::new("greedy", |_s, _h, _r| SlotDecision { jam: true, inject: 10 });
        let cap = arr_cap;
        let div = jam_div;
        let adv = BudgetedAdversary::new(
            greedy,
            ArrivalBudget::new(move |_t| cap as f64),
            JamBudget::new(move |t| t as f64 / div as f64),
        );
        let factory = |_: NodeId| -> Box<dyn Protocol> {
            Box::new(contention::sim::node::NeverBroadcast)
        };
        let mut sim = Simulator::new(SimConfig::with_seed(seed), factory, adv);
        let horizon = 500u64;
        sim.run_for(horizon);
        let cum = sim.trace().cumulative();
        prop_assert!(cum.arrivals(horizon) <= cap);
        for t in 1..=horizon {
            prop_assert!(cum.jammed(t) as f64 <= t as f64 / div as f64 + 1.0);
        }
    }

    /// Latency of every delivered node is at least 1 and accesses at least 1.
    #[test]
    fn departure_sanity(seed in 0u64..300, n in 1u32..30, which in algo_strategy()) {
        let algo = algo_spec(which);
        let out = ScenarioRunner::new(jammed_batch(&algo, n, 0.0, 4000)).run_seed(&algo, seed);
        for d in out.trace.departures() {
            prop_assert!(d.latency() >= 1);
            prop_assert!(d.accesses >= 1);
            prop_assert!(d.departure_slot <= 4000);
        }
    }

    /// The (f,g) verifier's budget is monotone in t for non-decreasing
    /// inputs (arrivals/jams only accumulate).
    #[test]
    fn verifier_budget_monotone(seed in 0u64..100, n in 1u32..20) {
        let params = ProtocolParams::constant_jamming();
        let algo = AlgoSpec::cjz_constant_jamming();
        let out = ScenarioRunner::new(jammed_batch(&algo, n, 0.3, 512)).run_seed(&algo, seed);
        let cum = out.trace.cumulative();
        let v = ThroughputVerifier::for_params(&params);
        let mut prev = 0.0f64;
        for t in 1..=512u64 {
            let b = v.budget(&cum, t);
            prop_assert!(b >= prev - 1e-9, "budget dipped at t={t}: {b} < {prev}");
            prev = b;
        }
    }

    /// The lane engine replays each seed's scalar run bit-for-bit for
    /// arbitrary lane-eligible workloads: random population, forecastable
    /// jamming, either horizon kind, random seed base, and partial lane
    /// blocks (including single-lane blocks).
    #[test]
    fn lane_engine_matches_scalar(
        n in 1u32..20,
        which in 0u8..3,
        jam in 0u8..3,
        horizon in 0u8..2,
        lanes in 1u64..8,
        base in 0u64..10_000,
    ) {
        let algo = match which {
            0 => AlgoSpec::Baseline(BaselineSpec::SmoothedBeb),
            1 => AlgoSpec::Baseline(BaselineSpec::ResetBeb),
            _ => AlgoSpec::Baseline(BaselineSpec::PolySchedule(1.5)),
        };
        let mut spec = ScenarioSpec::new("lane-prop")
            .algo(algo.clone())
            .arrivals(ArrivalSpec::batch(n))
            .execution(Execution::BitParallel)
            .seed_base(base);
        spec = match jam {
            0 => spec,
            1 => spec.jamming(JammingSpec::Periodic { period: 5, phase: 1 }),
            _ => spec.jamming(JammingSpec::FrontLoaded { until: 128 }),
        };
        spec = if horizon == 0 {
            spec.fixed_horizon(512)
        } else {
            spec.until_drained(20_000)
        };
        let runner = ScenarioRunner::new(spec);
        prop_assert_eq!(runner.lane_block(&algo), 64, "spec must be lane-eligible");
        let block = runner.run_seed_block(&algo, base, lanes);
        prop_assert_eq!(block.len() as u64, lanes);
        for (j, got) in block.iter().enumerate() {
            let want = runner.run_seed(&algo, base + j as u64);
            prop_assert_eq!(got.slots, want.slots, "lane {}", j);
            prop_assert_eq!(got.drained, want.drained, "lane {}", j);
            prop_assert_eq!(got.trace.slots(), want.trace.slots(), "lane {}", j);
            prop_assert_eq!(got.trace.departures(), want.trace.departures(), "lane {}", j);
            prop_assert_eq!(got.trace.survivors(), want.trace.survivors(), "lane {}", j);
        }
    }

    /// The sparse engine's span fold is indistinguishable from folding the
    /// span slot by slot, from any prefix: totals, outcome tallies, peak
    /// population and the dyadic checkpoint curve alike. Spans of up to
    /// 4095 slots after prefixes of up to 299 cross several checkpoints;
    /// an empty span is a no-op.
    #[test]
    fn record_span_matches_repeated_records(
        prefix in prop::collection::vec(0u32..252, 0..300),
        code in 0u32..252,
        k in 0u64..4_096,
    ) {
        let mut span = StreamingStats::new();
        for &c in &prefix {
            span.record(&coded_record(c));
        }
        let mut slow = span.clone();
        let rec = coded_record(code);
        span.record_span(&rec, 0);
        prop_assert_eq!(&span, &slow, "an empty span must change nothing");
        span.record_span(&rec, k);
        for _ in 0..k {
            slow.record(&rec);
        }
        prop_assert_eq!(span, slow);
    }

    /// During a drain run the active lane set only shrinks: every lane
    /// runs slot 1, each lane stores exactly the scalar engine's records
    /// for its seed (so a lane frozen at its drain slot never steps
    /// again), one per slot it ran, and a lane that never drained ran to
    /// the cap.
    #[test]
    fn lane_active_set_monotone(n in 2u32..16, lanes in 2u64..33, base in 0u64..5_000) {
        let algo = AlgoSpec::Baseline(BaselineSpec::SmoothedBeb);
        let spec = ScenarioSpec::new("lane-monotone")
            .algo(algo.clone())
            .arrivals(ArrivalSpec::batch(n))
            .until_drained(30_000)
            .execution(Execution::BitParallel)
            .seed_base(base);
        let runner = ScenarioRunner::new(spec);
        prop_assert_eq!(runner.lane_block(&algo), 64);
        let mut sim = runner.lane_sim(&algo, base, lanes);
        sim.run_until_drained(30_000);
        let lane_slots: Vec<u64> = (0..lanes as usize).map(|j| sim.lane_slots(j)).collect();
        let drained: Vec<bool> = (0..lanes as usize).map(|j| sim.lane_drained(j)).collect();
        for (j, trace) in sim.into_traces().iter().enumerate() {
            let mut scalar = runner.sim(&algo, base + j as u64);
            scalar.run_until_drained(30_000);
            prop_assert!(lane_slots[j] >= 1, "lane {} never ran slot 1", j);
            prop_assert_eq!(trace.recorded_len(), lane_slots[j], "lane {} record count", j);
            prop_assert_eq!(trace.slots(), scalar.trace().slots(), "lane {} records", j);
            if !drained[j] {
                // Only drained lanes may leave the active set early.
                prop_assert_eq!(lane_slots[j], 30_000, "live lane {} stopped early", j);
            }
        }
    }
}
