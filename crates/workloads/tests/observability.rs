//! Integration tests for the live observability subsystem: the determinism
//! contract (aggregates are byte-identical with observability on and off,
//! on every registry executor and both server tiers), the in-band metrics
//! probe, the sidecar scrape endpoint under live traffic, and the trace
//! log's JSONL well-formedness end to end.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use pdq_core::executor::{build_executor, ExecutorSpec, EXECUTOR_NAMES};
use pdq_metrics::validate_jsonl;
use pdq_workloads::{
    connect_tcp_clients, generate_events, merged_reference_aggregate, run_client_events,
    run_metrics_probe, run_tcp_clients, scrape_metrics, serve_metrics, serve_poll_observed,
    serve_pool_observed, ExecutorService, Observability, PollOptions, PoolOptions, ServerConfig,
    ServerError,
};

mod common;
use common::merged_run;

/// Observability records, it never steers: with metrics and tracing on, the
/// merged aggregate of a concurrent run is byte-identical to the
/// uninstrumented run and to the sequential reference fold — on all four
/// registry executors and both server tiers.
#[test]
fn aggregates_are_byte_identical_with_observability_on() {
    let base = ServerConfig::quick().events(150);
    let clients = 2u64;
    let reference = merged_reference_aggregate(&base, clients).to_json_string();
    let spec = ExecutorSpec::new(2).capacity(64);
    for name in EXECUTOR_NAMES {
        for poll in [false, true] {
            let obs = Observability::with_default_trace();
            let run = |obs| merged_run(name, &spec, &base, clients, poll, obs).to_json_string();
            let plain = run(None);
            let observed = run(Some(&obs));
            assert_eq!(
                plain, observed,
                "aggregate diverged with observability on ({name}, poll={poll})"
            );
            assert_eq!(
                plain, reference,
                "aggregate diverged from reference ({name})"
            );
            // The instrumented run actually recorded: every ack landed in
            // the latency histogram, and the trace is well-formed JSONL.
            let text = obs.render();
            let total = clients * base.events as u64;
            assert!(
                text.contains(&format!("pdq_replies_total {total}")),
                "missing reply count in ({name}, poll={poll}):\n{text}"
            );
            assert!(text.contains(&format!("pdq_reply_latency_ns_count {total}")));
            assert!(text.contains(&format!("pdq_conn_opened_total {clients}")));
            assert!(text.contains(&format!("pdq_conn_closed_total {clients}")));
            let trace = obs.trace().expect("trace attached");
            let lines = trace.lines().join("\n");
            assert_eq!(validate_jsonl(&lines).expect("valid JSONL"), trace.len());
            assert!(lines.contains("conn_open") && lines.contains("conn_close"));
        }
    }
}

/// A `REQ_METRICS` frame on a live protocol connection answers with the
/// rendered registry on both tiers (and with an empty payload when the
/// server is unobserved).
#[test]
fn in_band_metrics_probe_answers_on_both_tiers() {
    let cfg = ServerConfig::quick().events(80);
    let events = generate_events(&cfg);
    for poll in [false, true] {
        let obs = Observability::new();
        let executor = build_executor("sharded-pdq", &ExecutorSpec::new(2).capacity(64))
            .expect("registry executor");
        let service = ExecutorService::new(executor.as_ref(), cfg.blocks);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let text = std::thread::scope(|scope| {
            let service = &service;
            let obs = &obs;
            let events = &events;
            let server = scope.spawn(move || {
                if poll {
                    serve_poll_observed(&listener, service, &PollOptions::new(1, 1), Some(obs))
                        .map(|_| ())
                } else {
                    serve_pool_observed(&listener, service, &PoolOptions::new(1, 8), Some(obs))
                        .map(|_| ())
                }
            });
            let text = scope
                .spawn(move || {
                    let stream = TcpStream::connect(addr).map_err(ServerError::Io)?;
                    stream.set_nodelay(true).map_err(ServerError::Io)?;
                    let mut transport =
                        pdq_workloads::TcpTransport::new(stream).map_err(ServerError::Io)?;
                    run_client_events(&mut transport, events, 16, false)?;
                    // Probe after the drain: no acks are outstanding.
                    run_metrics_probe(&mut transport)
                })
                .join()
                .expect("client thread")
                .expect("probe ok");
            server.join().expect("server thread").expect("server ok");
            text
        });
        let expected_tier = if poll { "poll" } else { "pool" };
        assert!(
            text.contains(&format!("pdq_server{{tier=\"{expected_tier}\"}} 1")),
            "missing tier marker (poll={poll}):\n{text}"
        );
        assert!(text.contains(&format!("pdq_replies_total {}", events.len())));
    }
}

/// The sidecar endpoint serves scrapes concurrently with live traffic, and
/// the refresh hook runs per scrape (executor gauges are current).
#[test]
fn sidecar_endpoint_scrapes_while_serving() {
    let cfg = ServerConfig::quick().events(200);
    let executor =
        build_executor("pdq", &ExecutorSpec::new(2).capacity(64)).expect("registry executor");
    let service = ExecutorService::new(executor.as_ref(), cfg.blocks);
    let obs = Observability::new();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let metrics_listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let metrics_addr = metrics_listener.local_addr().expect("metrics addr");
    let transports = connect_tcp_clients(addr, 1).expect("connect");
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let service = &service;
        let obs = &obs;
        let stop = &stop;
        let exporter = {
            let executor = executor.as_ref();
            let refresh = move || obs.set_executor_stats(&executor.stats());
            let metrics_listener = &metrics_listener;
            scope.spawn(move || serve_metrics(metrics_listener, obs, &refresh, stop))
        };
        let server = scope.spawn(move || {
            serve_poll_observed(&listener, service, &PollOptions::new(1, 1), Some(obs))
        });
        let cfg = &cfg;
        let client = scope.spawn(move || run_tcp_clients(transports, cfg, 16, false));
        // Scrape while (or shortly after) the client streams.
        let mid = scrape_metrics(metrics_addr).expect("mid-run scrape");
        assert!(
            mid.contains("pdq_executor_executed"),
            "no gauges in:\n{mid}"
        );
        for client in client.join().expect("client thread") {
            client.expect("client ok");
        }
        server.join().expect("server thread").expect("server ok");
        let end = scrape_metrics(metrics_addr).expect("final scrape");
        assert!(end.contains(&format!("pdq_replies_total {}", cfg.events)));
        assert!(
            end.contains("pdq_queue_enqueued"),
            "no queue gauges in:\n{end}"
        );
        stop.store(true, Ordering::Release);
        let scrapes = exporter.join().expect("exporter").expect("io ok");
        assert_eq!(scrapes, 2);
    });
}
