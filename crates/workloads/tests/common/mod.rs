//! Helpers shared by the server integration suites.

use std::net::TcpListener;

use pdq_core::executor::{build_executor, ExecutorSpec};
use pdq_workloads::{
    connect_tcp_clients, run_tcp_clients, serve_poll_observed, serve_pool_observed,
    ExecutorService, Observability, PollOptions, PoolOptions, ProtocolService, ServerAggregate,
    ServerConfig,
};

/// Runs `clients` concurrent TCP clients against the poll tier (`poll`) or
/// the pool tier, over registry executor `name` built from `spec` and
/// recording into `obs`, and returns the merged aggregate (driver-side fold
/// after every connection drains).
pub fn merged_run(
    name: &str,
    spec: &ExecutorSpec,
    base: &ServerConfig,
    clients: u64,
    poll: bool,
    obs: Option<&Observability>,
) -> ServerAggregate {
    let executor = build_executor(name, spec).expect("registry executor");
    let service = ExecutorService::new(executor.as_ref(), base.blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let accept = clients as usize;
    let transports = connect_tcp_clients(addr, clients).expect("connect");
    let completed = std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || {
            if poll {
                serve_poll_observed(&listener, service, &PollOptions::new(accept, 2), obs)
                    .map(|r| r.completed)
            } else {
                serve_pool_observed(&listener, service, &PoolOptions::new(accept, 8), obs)
                    .map(|r| r.answered)
            }
        });
        for client in run_tcp_clients(transports, base, 16, false) {
            client.expect("client ok");
        }
        server.join().expect("server thread").expect("server ok")
    });
    service.flush();
    service.aggregate(completed)
}
