//! Server-path throughput: what the multi-connection front end costs on top
//! of the raw executor.
//!
//! Two questions, matching the two mechanisms the server added:
//!
//! * `admission`: per-frame submission (one `try_admit` pass per event, the
//!   naive decode-then-submit loop) against batched admission (every frame
//!   drained from a wakeup admitted through one pass), on the service layer
//!   alone — no sockets, so the difference is pure dispatch-lock
//!   amortization.
//! * `tier`: the thread-per-connection pool against the readiness-polled
//!   event loop at 1, 8, and 64 concurrent TCP connections over loopback.
//!
//! Caveat for single-CPU hosts: with every client, server worker, and
//! executor worker time-slicing one core, the tier comparison measures
//! handoff and syscall cost per event, not parallel capacity — the pool
//! tier's per-connection threads pay a context switch per window, which is
//! exactly the overhead the poll tier exists to remove, so the ordering is
//! still meaningful.

use std::net::TcpListener;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdq_core::executor::{build_executor, ExecutorSpec};
use pdq_dsm::ProtocolEvent;
use pdq_workloads::{
    connect_tcp_clients, generate_events, run_tcp_clients, serve_poll, serve_pool, BatchService,
    ExecutorService, PollOptions, PoolOptions, ProtocolService, ServerConfig,
};

const TOTAL_EVENTS: usize = 2_000;
const WORKERS: usize = 2;
const CLIENT_WINDOW: usize = 16;

fn service_config() -> ServerConfig {
    ServerConfig::quick().events(TOTAL_EVENTS)
}

fn build_service(capacity: usize) -> (Box<dyn pdq_core::executor::Executor>, u64) {
    let cfg = service_config();
    let executor = build_executor(
        "sharded-pdq",
        &ExecutorSpec::new(WORKERS).capacity(capacity),
    )
    .expect("registry executor");
    (executor, cfg.blocks)
}

/// One `try_admit` pass per event: the decode-then-submit loop a server
/// without frame draining would run.
fn drive_per_frame(service: &ExecutorService, events: &[ProtocolEvent]) {
    let mut handles = Vec::with_capacity(events.len());
    let mut batch = pdq_core::executor::SubmitBatch::new();
    for event in events {
        let (key, job, handle) = service.prepare(*event);
        batch.push(key, job);
        while !batch.is_empty() {
            service.try_admit(&mut batch).expect("executor running");
        }
        handles.push(handle);
    }
    service.flush();
    for handle in handles {
        handle.wait().expect("job completed");
    }
}

/// Every drained frame admitted through one pass — the poll-tier sweep rule.
fn drive_batched(service: &ExecutorService, events: &[ProtocolEvent], batch_size: usize) {
    let mut handles = Vec::with_capacity(events.len());
    let mut batch = pdq_core::executor::SubmitBatch::new();
    for event in events {
        let (key, job, handle) = service.prepare(*event);
        batch.push(key, job);
        handles.push(handle);
        if batch.len() >= batch_size {
            while !batch.is_empty() {
                service.try_admit(&mut batch).expect("executor running");
            }
        }
    }
    while !batch.is_empty() {
        service.try_admit(&mut batch).expect("executor running");
    }
    service.flush();
    for handle in handles {
        handle.wait().expect("job completed");
    }
}

fn bench_admission(c: &mut Criterion) {
    const BATCH: usize = 64;
    let events = generate_events(&service_config());
    let mut group = c.benchmark_group("server_admission");
    group.sample_size(10);
    for (mode, batched) in [("per_frame", false), ("batch64", true)] {
        group.bench_function(BenchmarkId::new(mode, TOTAL_EVENTS), |b| {
            b.iter_batched(
                // Capacity covers the whole run so neither mode measures
                // backpressure stalls — only submission overhead differs.
                || build_service(TOTAL_EVENTS),
                |(executor, blocks)| {
                    let service = ExecutorService::new(executor.as_ref(), blocks);
                    if batched {
                        drive_batched(&service, &events, BATCH);
                    } else {
                        drive_per_frame(&service, &events);
                    }
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Full server round trip over loopback TCP: `conns` clients split
/// [`TOTAL_EVENTS`] between them, served by the requested tier.
fn drive_tier(poll: bool, conns: usize) {
    let (executor, blocks) = build_service(512);
    let service = ExecutorService::new(executor.as_ref(), blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let base = service_config().events((TOTAL_EVENTS / conns).max(1));
    let transports = connect_tcp_clients(addr, conns as u64).expect("connect");
    std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || {
            if poll {
                serve_poll(&listener, service, &PollOptions::new(conns, WORKERS)).map(|_| ())
            } else {
                serve_pool(&listener, service, &PoolOptions::new(conns, CLIENT_WINDOW)).map(|_| ())
            }
        });
        for client in run_tcp_clients(transports, &base, CLIENT_WINDOW, false) {
            client.expect("client completes");
        }
        server
            .join()
            .expect("server thread")
            .expect("server completes");
    });
    service.flush();
}

fn bench_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("server_tier");
    group.sample_size(10);
    for conns in [1usize, 8, 64] {
        for (tier, poll) in [("pool", false), ("poll", true)] {
            group.bench_function(BenchmarkId::new(tier, conns), |b| {
                b.iter(|| drive_tier(poll, conns))
            });
        }
    }
    group.finish();
}

fn bench_server(c: &mut Criterion) {
    bench_admission(c);
    bench_tiers(c);
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
