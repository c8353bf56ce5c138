//! List and run the named scenario registry.
//!
//! ```sh
//! # What workloads exist?
//! cargo run --release -p contention-bench --bin scenarios
//!
//! # Run one by name (parameterized names work: batch/64, poisson/0.1, …)
//! cargo run --release -p contention-bench --bin scenarios -- batch-jammed/128
//!
//! # Replay any workload under a different channel-feedback model
//! cargo run --release -p contention-bench --bin scenarios -- batch/64 --channel cd
//!
//! # Force an execution strategy (exact | skip-ahead | bit-parallel);
//! # both accelerated engines fall back to exact automatically for
//! # workloads outside their eligibility envelope
//! cargo run --release -p contention-bench --bin scenarios -- batch/4096 --execution skip-ahead
//! cargo run --release -p contention-bench --bin scenarios -- lane-batch/256 --execution bit-parallel
//!
//! # Print a scenario as JSON instead of running it
//! cargo run --release -p contention-bench --bin scenarios -- --json smooth
//!
//! # Materialize a full-fidelity slot window from checkpoints instead of
//! # storing per-slot records for the whole run (1-based, end exclusive)
//! cargo run --release -p contention-bench --bin scenarios -- sparse-poly/4096 --window 60000..60016
//! ```

use contention_analysis::{fnum, Table};
use contention_bench::forensics::{WindowReplayer, DEFAULT_CHUNK};
use contention_bench::scenario::{entries, lookup, ChannelSpec, ScenarioRunner};
use contention_bench::{first_positional, unknown_name_exit};
use contention_sim::Execution;

/// Parse `LO..HI` into a half-open 1-based window.
fn parse_window(text: &str) -> Option<(u64, u64)> {
    let (lo, hi) = text.split_once("..")?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let channel = args
        .iter()
        .position(|a| a == "--channel")
        .and_then(|i| args.get(i + 1));
    let execution = args
        .iter()
        .position(|a| a == "--execution")
        .and_then(|i| args.get(i + 1));
    let window = args
        .iter()
        .position(|a| a == "--window")
        .and_then(|i| args.get(i + 1));
    let name = first_positional(&args, &["--channel", "--execution", "--window"]);

    let Some(name) = name else {
        let mut table = Table::new(["name", "what it exercises"])
            .with_title("scenario registry (names accept parameters, e.g. batch/64)");
        for entry in entries() {
            table.row([entry.name.to_string(), entry.summary.to_string()]);
        }
        println!("{}", table.render());
        return;
    };

    let Some(mut spec) = lookup(name) else {
        unknown_name_exit("scenario", name, entries().iter().map(|e| e.name));
    };

    if let Some(channel) = channel {
        let Some(channel_spec) = ChannelSpec::by_name(channel) else {
            eprintln!("unknown channel model `{channel}` (expected no-cd, cd, or ack-only)");
            std::process::exit(2);
        };
        spec = spec.channel(channel_spec);
    }

    if let Some(execution) = execution {
        let Some(strategy) = Execution::by_name(execution) else {
            eprintln!(
                "unknown execution strategy `{execution}` (expected exact, skip-ahead, or bit-parallel)"
            );
            std::process::exit(2);
        };
        spec = spec.execution(strategy);
    }

    if json {
        println!("{}", spec.to_json_string());
        return;
    }

    if let Some(window) = window {
        let Some((lo, hi)) = parse_window(window) else {
            eprintln!("bad --window `{window}` (expected LO..HI, e.g. 60000..60016)");
            std::process::exit(2);
        };
        // Refuse a malformed window before any capture pass runs.
        if let Err(e) = WindowReplayer::validate(&spec, lo, hi) {
            eprintln!("bad --window `{window}`: {e}");
            std::process::exit(2);
        }
        if spec.checkpoint.is_none() {
            spec = spec.checkpoint_every(DEFAULT_CHUNK);
        }
        let every = spec.checkpoint.expect("just attached").every;
        let seed = spec.seed_base;
        println!(
            "replaying window [{lo}, {hi}) of `{}` at seed {seed} \
             (checkpoints every {every} slots, {} execution)…\n",
            spec.name,
            spec.execution.name()
        );
        let mut table = Table::new([
            "algorithm",
            "run slots",
            "window fingerprint",
            "delivered",
            "jammed",
            "active",
        ])
        .with_title(format!(
            "window [{lo}, {hi}) of `{}` (seed {seed})",
            spec.name
        ));
        let small = hi.saturating_sub(lo) <= 32;
        let mut detail = Vec::new();
        for idx in 0..spec.algos.len() {
            let algo_name = spec.algos[idx].name();
            let mut replayer = match WindowReplayer::capture(spec.clone(), idx, seed) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("checkpoint capture failed for `{algo_name}`: {e}");
                    std::process::exit(2);
                }
            };
            let win = match replayer.window(lo, hi) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("window replay failed for `{algo_name}`: {e}");
                    std::process::exit(2);
                }
            };
            let delivered = win
                .records
                .iter()
                .filter(|r| matches!(r.outcome, contention_sim::SlotOutcome::Delivered(_)))
                .count();
            let jammed = win.records.iter().filter(|r| r.jammed).count();
            let active = win.records.iter().filter(|r| r.active).count();
            table.row([
                algo_name.clone(),
                replayer.slots().to_string(),
                format!("{:016x}", win.fingerprint),
                delivered.to_string(),
                jammed.to_string(),
                active.to_string(),
            ]);
            if small {
                detail.push((algo_name, win));
            }
        }
        println!("{}", table.render());
        for (algo_name, win) in detail {
            let mut slots =
                Table::new(["slot", "arrivals", "broadcasters", "population", "outcome"])
                    .with_title(format!("`{algo_name}` slots {lo}..{}", win.hi - 1));
            for (i, rec) in win.records.iter().enumerate() {
                slots.row([
                    (win.lo + i as u64).to_string(),
                    rec.arrivals.to_string(),
                    rec.broadcasters.to_string(),
                    rec.population.to_string(),
                    format!("{:?}", rec.outcome),
                ]);
            }
            println!("{}", slots.render());
        }
        return;
    }

    println!(
        "running `{}` ({} seed(s), channel {}, {} execution)…\n",
        spec.name,
        spec.seeds,
        spec.channel.name(),
        spec.execution.name()
    );
    let report = ScenarioRunner::new(spec).run();
    let mut table = Table::new([
        "algorithm",
        "mean delivered",
        "mean slots",
        "mean latency",
        "all drained",
    ])
    .with_title(format!("scenario `{}`", report.name));
    for algo in &report.algos {
        table.row([
            algo.name.clone(),
            fnum(algo.mean_successes()),
            fnum(algo.mean_slots()),
            algo.mean_latency().map(fnum).unwrap_or_else(|| "-".into()),
            if algo.all_drained() {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    println!("{}", table.render());
}
