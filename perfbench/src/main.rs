//! Serving benchmark for the PDQ protocol server.
//!
//! ```text
//! perfbench --workload hot-keys|spread-keys|durable --seed N --seconds S \
//!     --trace 0|1 [--work-dir DIR] [--out-dir DIR]
//! ```
//!
//! Serves seeded traffic over loopback TCP through the real server tiers on
//! each of the four executors, in rounds; every round runs every executor
//! (in a rotated order) through a closed-loop capacity phase and an
//! open-loop latency phase, each on a freshly built server. Rates and
//! percentiles are taken per short window and summarised over all windows
//! of the run (see `README.md`). Every ack, every aggregate and every
//! recovered log is checked; any mismatch makes the exit code non-zero.
//!
//! With `--trace 1` each executor also runs both phases again through the
//! timing decorators of `trace`, and the per-layer metrics come from those
//! traced phases. Output: one `name value unit [key=value...]` line per
//! metric, `#` comment lines, and a final JSON line.

mod client;
mod gen;
mod phase;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdq_core::executor::{build_executor, EXECUTOR_NAMES};
use pdq_workloads::pool_wal_dir;

use crate::client::Schedule;
use crate::gen::{ConnStream, Mix, CONNS};
use crate::phase::{PhaseOut, PhaseSpec, Tier};
use crate::report::{Layers, Report};
use crate::trace::{Recorder, TracedSink};

/// Rounds per run: each executor's windows come from this many phases
/// spread over the run.
const ROUNDS: usize = 30;
/// Events per connection stream; phases replay it cyclically.
const STREAM_LEN: usize = 65_536;
/// Unanswered requests per connection in the capacity phase: larger than
/// the server's reply window of 128, so the pool tier cannot deadlock.
const CLIENT_WINDOW: u64 = 256;
/// Requests per connection a traced capacity phase may send (its slots).
const TRACE_CAP: usize = 1 << 17;
/// One request in this many goes into the span file.
const SPAN_SAMPLE: u64 = 8;

struct Workload {
    name: &'static str,
    tier: Tier,
    mix: Mix,
    /// Open-loop offered rate of the latency phase, requests per second.
    rate: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot-keys",
        tier: Tier::Poll,
        mix: Mix::HOT,
        rate: 40_000.0,
    },
    Workload {
        name: "spread-keys",
        tier: Tier::Poll,
        mix: Mix::SPREAD,
        rate: 40_000.0,
    },
    Workload {
        name: "durable",
        tier: Tier::PoolWal,
        mix: Mix::HOT,
        rate: 20_000.0,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from("perfbench/work");
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
        out_dir,
    })
}

/// The filesystem type of the mount holding `path`, from mountinfo.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: (usize, String) = (0, "unknown".into());
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(mount) = fields.get(4) else { continue };
        let fstype = line
            .split(" - ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or("unknown");
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let report = run(&args);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> Report {
    let wl = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report::new(args.trace, nproc);
    report.comment(format!(
        "perfbench workload={} seed={} seconds={} trace={} rounds={ROUNDS} executors={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        EXECUTOR_NAMES.join(",")
    ));
    report.comment(format!(
        "context nproc={nproc} link=loopback wal_dir={} wal_fs={} workers={} poll_threads=1 conns={CONNS}",
        args.work_dir.display(),
        filesystem_of(&args.work_dir),
        phase::WORKERS,
    ));

    // Traffic generation is not part of any measurement.
    let traffic: Vec<ConnStream> = (0..CONNS)
        .map(|c| ConnStream::new(gen::stream(wl.mix, args.seed, c, STREAM_LEN)))
        .collect();
    // Each round gives every executor one capacity and one latency phase
    // (two of each when traced); the latency phase gets two thirds of the
    // time, since its windows vary more than the capacity buckets.
    let pair =
        args.seconds / (ROUNDS * EXECUTOR_NAMES.len() * (1 + usize::from(args.trace))) as f64;
    let cap_len = Duration::from_secs_f64(pair / 3.0);
    let lat_len = Duration::from_secs_f64(pair * 2.0 / 3.0);
    let lat_count = ((wl.rate * lat_len.as_secs_f64()).round() as u64).max(CONNS as u64);
    let lat_sent: [u64; CONNS] =
        std::array::from_fn(|c| (lat_count + (CONNS - 1 - c) as u64) / CONNS as u64);
    report.comment(format!(
        "phases capacity=closed-loop window={CLIENT_WINDOW}/conn for {:.3}s; latency=open-loop {} req/s x {lat_count} requests; first tenth of each is warm-up",
        cap_len.as_secs_f64(),
        wl.rate,
    ));

    // The poll workloads log their latency-phase streams with the durable
    // workload's WAL cadence, so every workload has a recovery to time.
    let archive: Vec<PathBuf> = (0..CONNS)
        .map(|c| pool_wal_dir(&args.work_dir.join("archive"), c))
        .collect();
    let mut layers = Layers::default();
    if wl.tier == Tier::Poll {
        let rec = Arc::new(Recorder::new(Instant::now(), 0));
        for (c, dir) in archive.iter().enumerate() {
            std::fs::create_dir_all(dir).expect("create the archive log directory");
            let file = std::fs::File::create(pdq_workloads::wal::wal_path(dir))
                .expect("create the archive log");
            let events: Vec<_> = traffic[c].sent(lat_sent[c]).copied().collect();
            let sink = std::io::BufWriter::new(file);
            let written = if args.trace {
                phase::write_log(
                    TracedSink::new(sink, Arc::clone(&rec), c),
                    &events,
                    wl.mix.blocks,
                )
            } else {
                phase::write_log(sink, &events, wl.mix.blocks)
            };
            if let Err(e) = written {
                report.problem(format!("archive log {}: {e}", dir.display()));
            }
        }
        if args.trace {
            layers.wal_from(&rec, lat_sent.iter().sum());
        }
    }

    let epoch = Instant::now();
    let checker = build_executor("pdq", &phase::spec()).expect("pdq is registered");
    let mut span_file = args.trace.then(|| {
        std::fs::create_dir_all(&args.out_dir).expect("create the span output directory");
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", wl.name, args.seed));
        report.comment(format!("spans {}", path.display()));
        std::io::BufWriter::new(std::fs::File::create(path).expect("create the span file"))
    });

    for round in 0..ROUNDS {
        for i in 0..EXECUTOR_NAMES.len() {
            let executor = EXECUTOR_NAMES[(round + i) % EXECUTOR_NAMES.len()];
            let phase_spec =
                |name: &str, schedule: Schedule, rec: Option<Arc<Recorder>>| PhaseSpec {
                    executor,
                    tier: wl.tier,
                    blocks: wl.mix.blocks,
                    traffic: &traffic,
                    schedule,
                    warm: match schedule {
                        Schedule::Closed { .. } => cap_len / 10,
                        Schedule::Open { .. } => lat_len / 10,
                    },
                    epoch,
                    wal_root: (wl.tier == Tier::PoolWal)
                        .then(|| args.work_dir.join(format!("r{round}-{executor}-{name}"))),
                    rec,
                };
            let closed = |cap: usize| Schedule::Closed {
                window: CLIENT_WINDOW,
                until: cap_len,
                cap: cap as u64,
            };
            let open = Schedule::Open {
                rate: wl.rate,
                count: lat_count,
            };
            let finish = |report: &mut Report, name: &str, spec: &PhaseSpec<'_>, out: &PhaseOut| {
                report.phase(executor, round, name, out);
                if let Some(root) = &spec.wal_root {
                    let problems = phase::check_pool_logs(
                        root,
                        &traffic,
                        &out.client.sent,
                        wl.mix.blocks,
                        &*checker,
                    );
                    for p in problems {
                        report.problem(format!("{executor} round {round} {name}: {p}"));
                    }
                }
            };

            // Untraced capacity phase.
            let spec = phase_spec("capacity", closed(usize::MAX), None);
            let cap = phase::run(&spec);
            finish(&mut report, "capacity", &spec, &cap);
            report.capacity(executor, &cap);
            remove(&spec.wal_root);

            // Untraced latency phase, then the timed recovery.
            let spec = phase_spec("latency", open, None);
            let lat = phase::run(&spec);
            finish(&mut report, "latency", &spec, &lat);
            report.latency(executor, &lat, lat_len / 10, nproc, &mut layers);
            let (dirs, sent) = match &spec.wal_root {
                Some(root) => (
                    (0..CONNS).map(|c| pool_wal_dir(root, c)).collect(),
                    lat.client.sent,
                ),
                None => (archive.clone(), lat_sent),
            };
            let (scan, replay, problems) =
                phase::time_recovery(&dirs, &traffic, &sent, wl.mix.blocks);
            for p in problems {
                report.problem(format!("{executor} round {round} recovery: {p}"));
            }
            report.recovery(scan, replay, &mut layers);
            remove(&spec.wal_root);

            if !args.trace {
                continue;
            }
            // Traced capacity phase.
            let rec = Arc::new(Recorder::new(epoch, TRACE_CAP));
            let spec = phase_spec("capacity-traced", closed(TRACE_CAP), Some(Arc::clone(&rec)));
            let tcap = phase::run(&spec);
            finish(&mut report, "capacity-traced", &spec, &tcap);
            report.check_counts(executor, round, "capacity-traced", &tcap, &rec, wl.tier);
            layers.capacity(executor, &tcap, &rec, wl.tier);
            layers.overhead(executor, &cap, &tcap);
            remove(&spec.wal_root);

            // Traced latency phase.
            let rec = Arc::new(Recorder::new(epoch, lat_sent[0] as usize));
            let spec = phase_spec("latency-traced", open, Some(Arc::clone(&rec)));
            let tlat = phase::run(&spec);
            finish(&mut report, "latency-traced", &spec, &tlat);
            report.check_counts(executor, round, "latency-traced", &tlat, &rec, wl.tier);
            if tlat.aggregate_json != lat.aggregate_json {
                report.problem(format!(
                    "{executor} round {round}: traced and untraced latency-phase aggregates differ"
                ));
            }
            layers.latency(executor, &tlat, &rec);
            if round == 0 {
                if let Some(file) = span_file.as_mut() {
                    if let Err(e) = report::write_spans(file, executor, &tlat, &rec, SPAN_SAMPLE) {
                        report.problem(format!("span file: {e}"));
                    }
                }
            }
            remove(&spec.wal_root);
        }
    }
    if let Some(mut file) = span_file {
        use std::io::Write;
        if let Err(e) = file.flush() {
            report.problem(format!("span file: {e}"));
        }
    }
    report.finish(&layers);
    report
}

fn remove(dir: &Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}
