//! Every workload at smoke size, untraced and traced: the run must check
//! out, print every metric it promises, and repeat its simulated counts
//! exactly between the two modes.

use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["paper-cjz", "mega-sparse", "lane-seeds", "service-loop"];

const END_TO_END: [&str; 10] = [
    "setup_s",
    "slots_per_s",
    "peak_rss_mb",
    "ok_frac",
    "jobs_per_s",
    "job_s.p50",
    "job_s.p95",
    "query_ms.p50",
    "window_ms.p50",
    "window_ms.p95",
];

/// Per-layer metrics every workload's traced run emits.
const PER_LAYER: [&str; 8] = [
    "trace.overhead_frac",
    "backoff.warmup_s",
    "sim.build_s",
    "forensics.capture_s",
    "forensics.cache_hit_frac",
    "forensics.replay_efficiency",
    "self_s.forensics.window",
    "calls.forensics.window",
];

struct Run {
    stdout: String,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Run the benchmark binary and parse its last line. The line is flat
/// enough that a few string splits read it without a JSON parser.
fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_contention-perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let field = |key: &str| {
        last.split(&format!("\"{key}\": "))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .unwrap_or_default()
            .to_string()
    };
    let mut metrics = BTreeMap::new();
    let body = last.split("\"metrics\": {").nth(1).unwrap_or_default();
    for entry in body.split("}, ") {
        let mut parts = entry.splitn(2, "\": {\"value\": ");
        let (Some(name), Some(rest)) = (parts.next(), parts.next()) else {
            continue;
        };
        let value = rest.split(',').next().unwrap_or_default();
        metrics.insert(
            name.trim_start_matches('"').to_string(),
            value.parse().unwrap_or(f64::NAN),
        );
    }
    assert_eq!(
        out.status.success(),
        field("correct") == "true",
        "exit status follows `correct`:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Run {
        correct: field("correct") == "true",
        failed: field("failed").parse().unwrap_or(u64::MAX),
        stdout,
        metrics,
    }
}

fn counts_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("# counts "))
        .unwrap_or_default()
        .to_string()
}

#[test]
fn every_workload_checks_out_untraced_and_traced() {
    for w in WORKLOADS {
        let plain = run(&[
            "--workload",
            w,
            "--seconds",
            "0.5",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert!(plain.correct && plain.failed == 0, "{w}:\n{}", plain.stdout);
        for m in END_TO_END {
            let v = plain.metrics.get(m).copied().unwrap_or(f64::NAN);
            assert!(v.is_finite() && v > 0.0, "{w}: {m} = {v}");
        }

        let traced = run(&["--workload", w, "--seconds", "1", "--trace", "1", "--smoke"]);
        assert!(
            traced.correct && traced.failed == 0,
            "{w}:\n{}",
            traced.stdout
        );
        for m in PER_LAYER {
            assert!(traced.metrics.contains_key(m), "{w}: traced run lacks {m}");
        }
        // The traced run reports the simulated counts as metrics; they must
        // equal the untraced run's `# counts` line value for value.
        let counts = counts_line(&plain.stdout);
        for (name, value) in &traced.metrics {
            if name.ends_with(".slots")
                || name.ends_with(".events")
                || name.contains("per_broadcast")
            {
                assert!(
                    counts.contains(&format!("\"{name}\": {value:?}")),
                    "{w}: {name} = {value} not in untraced {counts}"
                );
            }
        }
    }
}

#[test]
fn paper_cjz_traced_run_reports_pool_busy_share() {
    let r = run(&[
        "--workload",
        "paper-cjz",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    for m in [
        "campaign.pool_busy_frac",
        "campaign.unit_s.p95",
        "sim.exact.slots",
        "sim.exact.ns_per_slot",
        "sim.success_per_broadcast",
    ] {
        assert!(r.metrics.contains_key(m), "lacks {m}:\n{}", r.stdout);
    }
}

#[test]
fn lane_seeds_traced_run_reports_every_spec() {
    let r = run(&[
        "--workload",
        "lane-seeds",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    for spec in ["lane-batch", "lane-batch-jammed", "cjz-batch"] {
        for m in ["active_lane_frac", "ns_per_lane_slot", "speedup_vs_exact"] {
            let key = format!("sim.lanes.{m}.{spec}");
            assert!(r.metrics.contains_key(&key), "lacks {key}:\n{}", r.stdout);
        }
    }
    // Lockstep lanes are all busy; the ineligible spec runs one seed per
    // engine pass.
    assert!(r.metrics["sim.lanes.active_lane_frac.lane-batch"] > 0.99);
    assert!((r.metrics["sim.lanes.active_lane_frac.cjz-batch"] - 1.0 / 64.0).abs() < 1e-9);
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "paper-cjz", "--trace", "2"],
        &["--workload", "paper-cjz", "--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_contention-perfbench"))
            .args(args)
            .output()
            .expect("spawn perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no result line on a bad command line"
        );
    }
}
