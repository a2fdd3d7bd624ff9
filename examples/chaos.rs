//! The chaos harness as a binary: adversarial traffic and injected faults
//! against the protocol server, on any executor — selected by name — with a
//! byte-stable JSON report.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chaos -- \
//!     [--scenario zipf|burst|malformed|disconnect|panic|recover|all] \
//!     [--executor NAME|all] [--seed N] [--events N] [--json PATH]
//! ```
//!
//! where `NAME` is one of `pdq`, `sharded-pdq`, `spinlock`, `multiqueue`
//! (default: `all`, which runs every executor and checks their reports are
//! byte-identical). Each scenario throws one class of hostility at the
//! server — Zipfian hot-key skew, open-loop bursts, corrupted/truncated
//! frames and hostile wire blobs, mid-stream disconnects, or poisoned
//! handlers that panic — and *verifies* the surviving state against a
//! sequential reference fold before reporting.
//!
//! The report is a pure function of `(--scenario, --seed, --events)`:
//! executor, worker count (`PDQ_WORKERS`, default 4), and scheduling never
//! leak into it. CI runs `--scenario all --seed 7` once per executor at
//! `PDQ_WORKERS=4` and byte-diffs the JSON files.

use std::process::ExitCode;

use pdq_repro::core::executor::{
    build_executor, parse_env_value, Executor, ExecutorSpec, EXECUTOR_NAMES,
};
use pdq_repro::workloads::chaos::{run_chaos, ChaosConfig, ChaosReport, Scenario};

/// Queue capacity bound (per queue/shard), matching the protocol-server
/// example so backpressure is regularly exercised.
const CAPACITY: usize = 64;

/// Runs one scenario on one executor and reports survival on stdout.
fn run_one(name: &str, workers: usize, cfg: &ChaosConfig) -> Option<Result<ChaosReport, String>> {
    let spec = ExecutorSpec::new(workers).capacity(CAPACITY);
    let mut pool: Box<dyn Executor> = build_executor(name, &spec)?;
    let start = std::time::Instant::now();
    let outcome = run_chaos(&*pool, cfg);
    let elapsed = start.elapsed();
    let outcome = match outcome {
        Ok(report) => {
            println!(
                "[{name}/{}] survived: {} frames, {} handled, {} panicked, \
                 {} protocol errors, {} io errors, {} disconnects in {elapsed:.2?}",
                report.scenario,
                report.frames_sent,
                report.handled,
                report.panicked,
                report.protocol_errors,
                report.io_errors,
                report.disconnects,
            );
            Ok(report)
        }
        Err(e) => Err(format!("[{name}/{}] FAILED: {e}", cfg.scenario.name())),
    };
    pool.shutdown();
    Some(outcome)
}

fn main() -> ExitCode {
    let mut executor = "all".to_string();
    let mut scenarios: Vec<Scenario> = Scenario::ALL.to_vec();
    let mut json_path: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut events: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => match args.next().as_deref() {
                Some("all") => scenarios = Scenario::ALL.to_vec(),
                Some(name) => match Scenario::parse(name) {
                    Some(scenario) => scenarios = vec![scenario],
                    None => {
                        eprintln!(
                            "--scenario needs one of zipf|burst|malformed|disconnect|panic|recover|all"
                        );
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("--scenario needs a name");
                    return ExitCode::from(2);
                }
            },
            "--executor" => match args.next() {
                Some(name) => executor = name,
                None => {
                    eprintln!("--executor needs a name (one of {EXECUTOR_NAMES:?} or `all`)");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => seed = Some(s),
                None => {
                    eprintln!("--seed needs an unsigned integer");
                    return ExitCode::from(2);
                }
            },
            "--events" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => events = Some(n),
                _ => {
                    eprintln!("--events needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: chaos [--scenario zipf|burst|malformed|disconnect|panic|recover|all] \
                     [--executor NAME|all] [--seed N] [--events N] [--json PATH]\n\
                     NAME is one of {EXECUTOR_NAMES:?}. PDQ_WORKERS sets the worker count."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let raw_workers = std::env::var("PDQ_WORKERS").ok();
    let workers = match parse_env_value("PDQ_WORKERS", raw_workers.as_deref(), 1usize, 512) {
        Ok(workers) => workers.unwrap_or(4),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if executor == "all" {
        EXECUTOR_NAMES.to_vec()
    } else {
        vec![executor.as_str()]
    };

    let mut configured = ChaosConfig::new(Scenario::Zipf);
    if let Some(seed) = seed {
        configured = configured.seed(seed);
    }
    if let Some(events) = events {
        configured = configured.events(events);
    }
    println!(
        "chaos harness: {} events, seed {:#x}, {workers} workers, queue capacity {CAPACITY}\n",
        configured.events, configured.seed
    );

    // The panic scenario poisons handlers on purpose; the executors catch
    // the unwinds. Keep the default hook's per-panic stderr spam out of the
    // logs for exactly those, and leave every other panic loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let poisoned = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("chaos: poisoned event"));
        if !poisoned {
            default_hook(info);
        }
    }));

    let mut surviving: Vec<(Scenario, ChaosReport)> = Vec::new();
    for &scenario in &scenarios {
        let cfg = ChaosConfig {
            scenario,
            ..configured
        };
        let mut reports = Vec::new();
        for name in &names {
            match run_one(name, workers, &cfg) {
                Some(Ok(report)) => reports.push(report),
                Some(Err(message)) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("unknown executor `{name}` (one of {EXECUTOR_NAMES:?} or `all`)");
                    return ExitCode::from(2);
                }
            }
        }
        let first = reports.remove(0);
        if reports.iter().any(|r| *r != first) {
            eprintln!(
                "[{}] executors disagree on the chaos report!",
                scenario.name()
            );
            return ExitCode::FAILURE;
        }
        surviving.push((scenario, first));
    }

    println!("\nall scenarios survived with identical reports across the executors run");
    if let Some(path) = json_path {
        // One scenario renders its report directly; several nest under their
        // names, re-indented, with the same byte-stable layout.
        let json = if surviving.len() == 1 {
            surviving[0].1.to_json_string()
        } else {
            let mut out = String::from("{\n");
            for (i, (scenario, report)) in surviving.iter().enumerate() {
                let nested = report.to_json_string();
                let nested = nested.trim_end().replace('\n', "\n  ");
                out.push_str(&format!("  \"{}\": {}", scenario.name(), nested));
                out.push_str(if i + 1 < surviving.len() { ",\n" } else { "\n" });
            }
            out.push_str("}\n");
            out
        };
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
