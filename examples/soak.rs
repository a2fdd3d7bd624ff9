//! Many-client soak driver for the multi-connection protocol server.
//!
//! Hundreds of concurrent clients stream millions of events into one shared
//! executor over real TCP sockets, through either server tier:
//!
//! ```text
//! cargo run --release --example soak -- [--tier pool|poll] [--clients N] \
//!     [--events TOTAL] [--executor NAME|all] [--json PATH] \
//!     [--reference-json PATH] [--metrics-addr ADDR] [--trace PATH] \
//!     [--report-json PATH]
//! ```
//!
//! Each client drives its own deterministic stream (per-client seeds derived
//! via `DetRng::stream` inside `client_config`) and digest-verifies every
//! ack. After all clients drain, the driver fetches the merged aggregate
//! once and checks it is **byte-identical** to the sequential reference fold
//! of the concatenated streams — the determinism contract of the whole
//! pipeline, independent of executor, tier, and interleaving. The run fails
//! (non-zero exit) on any mismatch.
//!
//! The report gives throughput plus p50/p95/p99 reply-latency percentiles
//! merged across every client, and — on the poll tier — how many readiness
//! wakeups were admitted per `try_submit_batch` pass and how often executor
//! `WouldBlock` suspended a connection's socket reads (TCP backpressure).
//!
//! `--events` is the **total** across clients (default 1,000,000 over 256
//! clients); `PDQ_WORKERS` sets the executor worker count and, for the poll
//! tier, `PDQ_POLL_THREADS` the number of polling threads (default 4, max
//! 8). `--json` writes the merged aggregate; `--reference-json` writes the
//! reference fold — CI byte-diffs the two.
//!
//! # Observability
//!
//! `--metrics-addr ADDR` binds a sidecar scrape listener next to the
//! server: any TCP connect gets the full rendered registry (reply-latency
//! histogram, connection/admission/backpressure counters, executor and
//! queue gauges refreshed per scrape) and the driver itself scrapes it
//! mid-run to prove the endpoint is live under load. `--trace PATH` writes
//! a JSONL event log (connection lifecycle, batch admission, backpressure
//! transitions, WAL barriers) the driver validates before exiting.
//! `--report-json PATH` writes a machine-readable run report including the
//! client-vs-server latency percentile comparison and the final metrics
//! snapshot. The aggregate `--json` output is byte-identical with and
//! without any of these flags.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use pdq_repro::core::executor::{
    build_executor, parse_env_value, Executor, ExecutorSpec, ExecutorStats, EXECUTOR_NAMES,
};
use pdq_repro::metrics::{bucket_index, push_json_string, validate_jsonl, HistogramSnapshot};
use pdq_repro::workloads::{
    connect_tcp_clients, merged_reference_aggregate, run_tcp_clients, scrape_metrics,
    serve_metrics, serve_poll_observed, serve_pool_observed, ExecutorService, Observability,
    PollOptions, PoolOptions, ProtocolService, ServerAggregate, ServerConfig, ServerError,
};

/// Executor queue capacity per queue/shard — big enough to keep hundreds of
/// clients busy, small enough that the poll tier regularly sees `WouldBlock`
/// backpressure at full blast.
const CAPACITY: usize = 512;
/// Client-side window (max unanswered requests before the client stops to
/// read an ack). Strictly larger than the pool tier's reply window.
const CLIENT_WINDOW: usize = 256;
/// Pool tier per-connection reply window.
const SERVICE_WINDOW: usize = 128;
/// Poll tier per-connection in-flight cap.
const MAX_PENDING: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Pool,
    Poll,
}

impl Tier {
    fn name(self) -> &'static str {
        match self {
            Tier::Pool => "pool",
            Tier::Poll => "poll",
        }
    }
}

/// A percentile of a **sorted** latency sample, in nanoseconds.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct SoakOutcome {
    aggregate: ServerAggregate,
    elapsed: std::time::Duration,
    latencies_ns: Vec<u64>,
    answered: u64,
    suspensions: u64,
    batches: u64,
    /// Metrics text scraped from the sidecar endpoint while clients were
    /// still streaming (proof the endpoint serves under load).
    mid_scrape: Option<String>,
    /// The executor's final stats snapshot, rendered into the run report
    /// through the shared [`ExecutorStats`] stable-JSON form.
    stats: ExecutorStats,
}

/// One soak run: `clients` concurrent TCP clients against one shared
/// executor behind the selected tier. With `observe = Some((obs, addr))`,
/// the tier records into `obs`; with `addr` too, a sidecar scrape listener
/// serves the registry for the whole run and the driver scrapes it mid-run.
fn run_soak(
    name: &str,
    workers: usize,
    poll_threads: usize,
    tier: Tier,
    base: &ServerConfig,
    clients: usize,
    observe: Option<(&Observability, Option<&str>)>,
) -> Option<Result<SoakOutcome, ServerError>> {
    let obs = observe.map(|(obs, _)| obs);
    let metrics_addr = observe.and_then(|(_, addr)| addr);
    let spec = ExecutorSpec::new(workers).capacity(CAPACITY);
    let mut pool = build_executor(name, &spec)?;
    let service = ExecutorService::new(&*pool, base.blocks);
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => return Some(Err(ServerError::Io(e))),
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => return Some(Err(ServerError::Io(e))),
    };
    let exporter_listener = match (obs, metrics_addr) {
        (Some(_), Some(bind)) => match TcpListener::bind(bind) {
            Ok(l) => Some(l),
            Err(e) => return Some(Err(ServerError::Io(e))),
        },
        _ => None,
    };
    let stop_exporter = AtomicBool::new(false);
    let start = Instant::now();
    let outcome = std::thread::scope(|scope| {
        let service = &service;
        let executor: &dyn Executor = &*pool;
        let stop_exporter = &stop_exporter;
        let exporter = exporter_listener.as_ref().map(|exporter_listener| {
            let obs = obs.expect("exporter requires observability");
            let refresh = move || obs.set_executor_stats(&executor.stats());
            scope.spawn(move || serve_metrics(exporter_listener, obs, &refresh, stop_exporter))
        });
        // Any early error below must still stop the exporter before the
        // scope exit joins its thread, so the serving half runs in an inner
        // closure and the stop flag is set unconditionally afterwards.
        let serve_run = || -> Result<_, ServerError> {
            let server = scope.spawn(move || match tier {
                Tier::Pool => serve_pool_observed(
                    &listener,
                    service,
                    &PoolOptions::new(clients, SERVICE_WINDOW),
                    obs,
                )
                .map(|r| (r.answered, 0, 0)),
                Tier::Poll => serve_poll_observed(
                    &listener,
                    service,
                    &PollOptions {
                        workers: poll_threads,
                        accept: clients,
                        max_pending: MAX_PENDING,
                    },
                    obs,
                )
                .map(|r| (r.answered, r.suspensions, r.batches)),
            });
            // Soak client counts outgrow the listener backlog, so clients
            // connect while the server accepts.
            let client_run = scope.spawn(move || {
                let transports = connect_tcp_clients(addr, clients as u64)?;
                run_tcp_clients(transports, base, CLIENT_WINDOW, true)
                    .into_iter()
                    .collect::<Result<Vec<_>, _>>()
            });
            // Scrape the sidecar while the clients stream: the endpoint
            // must be reachable and render the registry under live traffic.
            let mid_scrape = match &exporter_listener {
                Some(l) => {
                    let scrape_addr = l.local_addr().map_err(ServerError::Io)?;
                    Some(scrape_metrics(scrape_addr).map_err(ServerError::Io)?)
                }
                None => None,
            };
            let reports = client_run.join().expect("client threads");
            let (answered, suspensions, batches) = server.join().expect("server thread")?;
            Ok((reports?, answered, suspensions, batches, mid_scrape))
        };
        let served = serve_run();
        stop_exporter.store(true, Ordering::Release);
        if let Some(exporter) = exporter {
            exporter
                .join()
                .expect("exporter thread")
                .map_err(ServerError::Io)?;
        }
        let (reports, answered, suspensions, batches, mid_scrape) = served?;
        let elapsed = start.elapsed();
        let completed = reports.iter().map(|r| r.acked - r.panicked).sum();
        service.flush();
        Ok(SoakOutcome {
            aggregate: service.aggregate(completed),
            elapsed,
            latencies_ns: reports.into_iter().flat_map(|r| r.latencies_ns).collect(),
            answered,
            suspensions,
            batches,
            mid_scrape,
            stats: executor.stats(),
        })
    });
    pool.shutdown();
    Some(outcome)
}

/// Reads environment variable `name` as a count in `1..=max`, `default`
/// when unset.
fn env_count(name: &str, default: usize, max: usize) -> Result<usize, String> {
    let raw = std::env::var(name).ok();
    Ok(parse_env_value(name, raw.as_deref(), 1, max)?.unwrap_or(default))
}

/// `text` as a quoted JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    push_json_string(&mut out, text);
    out
}

/// One percentile compared across the client-side capture (send → ack,
/// network included) and the server-side histogram (decode → ack encode).
/// Both samples are queue-dominated at soak intensity, so they must land
/// in the same log2 latency bucket give or take one.
struct PercentileAgreement {
    label: &'static str,
    client_ns: u64,
    server_ns: u64,
    client_bucket: usize,
    server_bucket: usize,
}

impl PercentileAgreement {
    fn compare(
        label: &'static str,
        sorted_client: &[u64],
        server: &HistogramSnapshot,
        p: f64,
    ) -> Self {
        let client_ns = percentile(sorted_client, p);
        let server_bucket = server.quantile_bucket(p);
        Self {
            label,
            client_ns,
            server_ns: server.quantile(p),
            client_bucket: bucket_index(client_ns),
            server_bucket,
        }
    }

    fn within_one_bucket(&self) -> bool {
        self.client_bucket.abs_diff(self.server_bucket) <= 1
    }
}

fn main() -> ExitCode {
    let mut tier = Tier::Poll;
    let mut clients = 256usize;
    let mut total_events = 1_000_000usize;
    let mut executor = "sharded-pdq".to_string();
    let mut json_path: Option<String> = None;
    let mut reference_json_path: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut report_json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tier" => match args.next().as_deref() {
                Some("pool") => tier = Tier::Pool,
                Some("poll") => tier = Tier::Poll,
                _ => {
                    eprintln!("--tier needs pool|poll");
                    return ExitCode::from(2);
                }
            },
            "--clients" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => clients = n,
                _ => {
                    eprintln!("--clients needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--events" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => total_events = n,
                _ => {
                    eprintln!("--events needs a positive integer (total across clients)");
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
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--reference-json" => match args.next() {
                Some(path) => reference_json_path = Some(path),
                None => {
                    eprintln!("--reference-json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--metrics-addr" => match args.next() {
                Some(addr) => metrics_addr = Some(addr),
                None => {
                    eprintln!("--metrics-addr needs a bind address (e.g. 127.0.0.1:9464)");
                    return ExitCode::from(2);
                }
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace needs a path");
                    return ExitCode::from(2);
                }
            },
            "--report-json" => match args.next() {
                Some(path) => report_json_path = Some(path),
                None => {
                    eprintln!("--report-json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: soak [--tier pool|poll] [--clients N] [--events TOTAL] \
                     [--executor NAME|all] [--json PATH] [--reference-json PATH] \
                     [--metrics-addr ADDR] [--trace PATH] [--report-json PATH]\n\
                     NAME is one of {EXECUTOR_NAMES:?}. PDQ_WORKERS sets the executor \
                     worker count, PDQ_POLL_THREADS the poll tier's thread count (1..=8).\n\
                     --metrics-addr binds a sidecar scrape endpoint, --trace writes a \
                     JSONL event log, --report-json writes the observability run report."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let (workers, poll_threads) = match (
        env_count("PDQ_WORKERS", 4, 512),
        env_count("PDQ_POLL_THREADS", 4, 8),
    ) {
        (Ok(workers), Ok(poll_threads)) => (workers, poll_threads),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let per_client = (total_events / clients).max(1);
    let base = ServerConfig::new().events(per_client);
    let total = per_client * clients;
    let names: Vec<&str> = if executor == "all" {
        EXECUTOR_NAMES.to_vec()
    } else {
        vec![executor.as_str()]
    };

    println!(
        "soak: {clients} clients x {per_client} events = {total} total, tier {}, \
         {workers} executor workers{}\n",
        tier.name(),
        match tier {
            Tier::Poll => format!(", {poll_threads} poll threads"),
            Tier::Pool => String::new(),
        }
    );

    let observe = metrics_addr.is_some() || trace_path.is_some() || report_json_path.is_some();
    let reference = merged_reference_aggregate(&base, clients as u64);
    let mut merged: Vec<ServerAggregate> = Vec::new();
    let mut report_runs: Vec<String> = Vec::new();
    for name in &names {
        // A fresh registry per run: counters must reflect this executor's
        // run alone, not accumulate across the `all` sweep.
        let obs = observe.then(|| {
            if trace_path.is_some() {
                Observability::with_default_trace()
            } else {
                Observability::new()
            }
        });
        match run_soak(
            name,
            workers,
            poll_threads,
            tier,
            &base,
            clients,
            obs.as_ref().map(|o| (o, metrics_addr.as_deref())),
        ) {
            Some(Ok(outcome)) => {
                let mut lat = outcome.latencies_ns;
                lat.sort_unstable();
                let throughput = total as f64 / outcome.elapsed.as_secs_f64().max(f64::EPSILON);
                println!(
                    "[{name}/{}] {total} events from {clients} clients in {:.2?}: \
                     {throughput:.0} events/sec",
                    tier.name(),
                    outcome.elapsed,
                );
                println!(
                    "    reply latency p50 {:.1} us, p95 {:.1} us, p99 {:.1} us \
                     ({} samples, {} acks)",
                    percentile(&lat, 0.50) as f64 / 1e3,
                    percentile(&lat, 0.95) as f64 / 1e3,
                    percentile(&lat, 0.99) as f64 / 1e3,
                    lat.len(),
                    outcome.answered,
                );
                if let Some(mid) = &outcome.mid_scrape {
                    if !mid.contains("pdq_replies_total") {
                        eprintln!("[{name}] mid-run scrape did not render the registry:\n{mid}");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "    metrics endpoint live mid-run ({} bytes scraped)",
                        mid.len()
                    );
                }
                if let Some(obs) = &obs {
                    let snapshot = obs.reply_latency().snapshot();
                    if snapshot.total() != outcome.answered {
                        eprintln!(
                            "[{name}] histogram recorded {} replies but the server acked {}",
                            snapshot.total(),
                            outcome.answered
                        );
                        return ExitCode::FAILURE;
                    }
                    let agreements = [
                        PercentileAgreement::compare("p50", &lat, &snapshot, 0.50),
                        PercentileAgreement::compare("p95", &lat, &snapshot, 0.95),
                        PercentileAgreement::compare("p99", &lat, &snapshot, 0.99),
                    ];
                    for a in &agreements {
                        println!(
                            "    {}: client {:.1} us (bucket {}), server histogram <= {:.1} us \
                             (bucket {}){}",
                            a.label,
                            a.client_ns as f64 / 1e3,
                            a.client_bucket,
                            a.server_ns as f64 / 1e3,
                            a.server_bucket,
                            if a.within_one_bucket() {
                                ""
                            } else {
                                "  ** DISAGREES by more than one bucket"
                            },
                        );
                    }
                    if agreements.iter().any(|a| !a.within_one_bucket()) {
                        eprintln!(
                            "[{name}] client and server latency percentiles disagree by more \
                             than one log2 bucket"
                        );
                        return ExitCode::FAILURE;
                    }
                    let mut trace_status = String::from("off");
                    if let (Some(path), Some(trace)) = (&trace_path, obs.trace()) {
                        let path = if names.len() > 1 {
                            format!("{path}.{name}")
                        } else {
                            path.clone()
                        };
                        let text: String = trace.lines().iter().map(|l| format!("{l}\n")).collect();
                        if let Err(e) = validate_jsonl(&text) {
                            eprintln!("[{name}] trace log is not valid JSONL: {e}");
                            return ExitCode::FAILURE;
                        }
                        if let Err(e) = std::fs::write(&path, &text) {
                            eprintln!("could not write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        trace_status = format!(
                            "{} events, {} dropped, wrote {path}",
                            trace.len(),
                            trace.dropped()
                        );
                        eprintln!("wrote {path}");
                    }
                    if report_json_path.is_some() {
                        let metrics_text = obs.render();
                        let agreement_json: Vec<String> = agreements
                            .iter()
                            .map(|a| {
                                format!(
                                    "{{\"percentile\": \"{}\", \"client_ns\": {}, \
                                     \"server_ns\": {}, \"client_bucket\": {}, \
                                     \"server_bucket\": {}, \"within_one_bucket\": {}}}",
                                    a.label,
                                    a.client_ns,
                                    a.server_ns,
                                    a.client_bucket,
                                    a.server_bucket,
                                    a.within_one_bucket()
                                )
                            })
                            .collect();
                        report_runs.push(format!(
                            "    {{\n      \"executor\": \"{}\",\n      \"tier\": \"{}\",\n      \
                             \"clients\": {},\n      \"events\": {},\n      \
                             \"throughput_events_per_sec\": {:.0},\n      \
                             \"latency_agreement\": [{}],\n      \"trace\": {},\n      \
                             \"executor_stats\": {},\n      \"metrics\": {}\n    }}",
                            name,
                            tier.name(),
                            clients,
                            total,
                            throughput,
                            agreement_json.join(", "),
                            json_string(&trace_status),
                            outcome.stats.to_json_string().trim_end(),
                            json_string(&metrics_text)
                        ));
                    }
                }
                if tier == Tier::Poll {
                    println!(
                        "    admission: {} events over {} batch passes ({:.1} events/pass), \
                         {} read suspensions (executor WouldBlock -> TCP pushback)",
                        total,
                        outcome.batches,
                        total as f64 / (outcome.batches.max(1)) as f64,
                        outcome.suspensions,
                    );
                }
                if outcome.aggregate != reference {
                    eprintln!(
                        "[{name}/{}] merged aggregate DIVERGED from the sequential \
                         reference fold!",
                        tier.name()
                    );
                    return ExitCode::FAILURE;
                }
                println!("    merged aggregate == sequential reference fold (byte-identical)");
                merged.push(outcome.aggregate);
            }
            Some(Err(e)) => {
                eprintln!("[{name}/{}] soak failed: {e}", tier.name());
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("unknown executor `{name}` (one of {EXECUTOR_NAMES:?} or `all`)");
                return ExitCode::from(2);
            }
        }
    }
    let first = merged[0];
    if merged.iter().any(|a| *a != first) {
        eprintln!("executors disagree on the merged aggregate!");
        return ExitCode::FAILURE;
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, first.to_json_string()) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = reference_json_path {
        if let Err(e) = std::fs::write(&path, reference.to_json_string()) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = report_json_path {
        let report = format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", report_runs.join(",\n"));
        if let Err(e) = std::fs::write(&path, report) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
