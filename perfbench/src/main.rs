//! The repository benchmark: four workloads over the contention crates'
//! public API, each run in a fresh process.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-cjz --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod campaigns;
mod harness;
mod lanes;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{peak_rss_mb, Ctx, Outcome};
use trace::Tracer;

/// The seed results are pinned at. Seed 2 is held out: no tuning used
/// it, so later claims are re-checked there.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = ["paper-cjz", "mega-sparse", "lane-seeds", "service-loop"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn run_workload(args: &Args, traced: bool, seconds: f64) -> Outcome {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        tracer: Tracer::new(traced, args.seed ^ u64::from(std::process::id()) << 32),
        threads,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            std::process::id(),
            u8::from(traced)
        )),
    };
    let default_seed = args.seed == DEFAULT_SEED;
    let out = match args.workload.as_str() {
        "paper-cjz" => campaigns::run(&ctx, &campaigns::paper_cjz(), default_seed),
        "mega-sparse" => campaigns::run(&ctx, &campaigns::mega_sparse(), default_seed),
        "lane-seeds" => lanes::run(&ctx, default_seed),
        _ => service::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if traced {
        let mut out = out;
        let path = PathBuf::from(".bench_work")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
        for (layer, t) in ctx.tracer.rollup() {
            out.layer(format!("self_s.{layer}"), t.self_s, "s");
            out.layer(format!("calls.{layer}"), t.calls as f64, "count");
        }
        return out;
    }
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    // A run must end within its time limit even if the program under test
    // hangs: past the limit the process exits without a result line.
    let limit = Duration::from_secs_f64(4.0 * args.seconds + 90.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "perfbench: no result after {} s; giving up",
            limit.as_secs()
        );
        std::process::exit(3);
    });

    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let out;
    if args.trace {
        // Half the time untraced, half traced: the difference between the
        // two is the tracing overhead, and their simulated counts must
        // agree exactly.
        let plain = run_workload(&args, false, args.seconds / 2.0);
        out = run_workload(&args, true, args.seconds / 2.0);
        metrics = out.layer.clone();
        metrics.insert(
            "trace.overhead_frac".into(),
            (out.job_s.median() / plain.job_s.median() - 1.0, "frac"),
        );
        let mut o = out;
        o.check(if plain.counts == o.counts {
            Ok(())
        } else {
            Err(format!(
                "simulated counts differ: untraced {:?} vs traced {:?}",
                plain.counts, o.counts
            ))
        });
        for (k, v) in &o.counts {
            metrics.insert((*k).into(), (*v, "count"));
        }
        o.attempted += plain.attempted;
        o.failed += plain.failed;
        o.errors.extend(plain.errors);
        return finish(&args, o, metrics, started);
    }
    out = run_workload(&args, false, args.seconds);
    let (job_p95, job_q) = out.job_s.tail(0.95);
    let (window_p95, window_q) = out.window_ms.tail(0.95);
    println!(
        "# samples: job_s n={} (p95 reported as p{:.0}), query_ms n={}, window_ms n={} (p{:.0}), setup n={}",
        out.job_s.len(),
        job_q * 100.0,
        out.query_ms.len(),
        out.window_ms.len(),
        window_q * 100.0,
        out.setup_s.len()
    );
    println!("# counts {:?}", out.counts);
    let ok_frac = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    for (name, value, unit) in [
        ("setup_s", out.setup_s.median(), "s"),
        ("slots_per_s", out.slots_per_s, "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("ok_frac", ok_frac, "frac"),
        ("jobs_per_s", out.jobs_per_s, "1/s"),
        ("job_s.p50", out.job_s.median(), "s"),
        ("job_s.p95", job_p95, "s"),
        ("query_ms.p50", out.query_ms.median(), "ms"),
        ("window_ms.p50", out.window_ms.median(), "ms"),
        ("window_ms.p95", window_p95, "ms"),
    ] {
        metrics.insert(name.into(), (value, unit));
    }
    finish(&args, out, metrics, started)
}

fn finish(
    args: &Args,
    out: Outcome,
    metrics: BTreeMap<String, (f64, &'static str)>,
    started: Instant,
) -> ExitCode {
    for e in &out.errors {
        eprintln!("perfbench: {}: {e}", args.workload);
    }
    let finite = metrics.values().all(|(v, _)| v.is_finite());
    let correct = out.failed == 0 && out.attempted > 0 && finite;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    line.push_str("}}");
    eprintln!(
        "perfbench: {} finished in {:.1} s",
        args.workload,
        started.elapsed().as_secs_f64()
    );
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
