//! One measured phase: build an executor and a server tier, connect the
//! generator, run a schedule, tear down, and check the result against the
//! sequential reference fold. Also the WAL recovery pass.

use std::fs::File;
use std::io::BufWriter;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdq_core::executor::{build_executor, Executor, ExecutorSpec, ExecutorStats};
use pdq_workloads::service::serve_durable;
use pdq_workloads::wal::{wal_path, WalSink};
use pdq_workloads::{
    pool_wal_dir, recover_dir, reference_aggregate, replay, scan_bytes_full, serve_poll,
    serve_pool, BatchService, Durability, ExecutorService, PollOptions, PollReport, PoolOptions,
    PoolWal, ProtocolService, ServerError, ServerState, TcpTransport, WalWriter,
};

use crate::client::{self, ClientReport, Schedule};
use crate::gen::{conn_of, ConnStream, CONNS};
use crate::stats::{machine_steal, process_cpu};
use crate::trace::{Recorder, Traced, TracedSink};

/// Executor worker threads (`nproc` = 2).
pub const WORKERS: usize = 2;
/// Executor queue bound per queue or shard, as the soak driver uses.
pub const CAPACITY: usize = 512;
/// Poll-tier cap on in-flight calls per connection.
const MAX_PENDING: usize = 128;
/// Pool-tier reply window per connection.
const SERVER_WINDOW: usize = 128;
/// WAL cadence of the durable workload.
pub const SYNC_EVERY: u64 = 64;
pub const SNAPSHOT_EVERY: u64 = 16_384;

/// Which server tier serves a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `serve_poll`, one poll thread.
    Poll,
    /// `serve_pool` with a per-connection WAL under a work directory.
    PoolWal,
}

/// What a phase runs.
pub struct PhaseSpec<'a> {
    pub executor: &'static str,
    pub tier: Tier,
    pub blocks: u64,
    pub traffic: &'a [ConnStream],
    pub schedule: Schedule,
    pub warm: Duration,
    pub epoch: Instant,
    /// WAL root for the pool tier.
    pub wal_root: Option<PathBuf>,
    /// Records the phase when set.
    pub rec: Option<Arc<Recorder>>,
}

/// What a phase produced.
pub struct PhaseOut {
    pub setup: Duration,
    pub wall: Duration,
    pub cpu: Duration,
    /// CPU time the host took from the machine during the phase.
    pub steal: Duration,
    pub client: ClientReport,
    pub stats: ExecutorStats,
    pub poll: Option<PollReport>,
    /// Events the WAL writers appended (traced pool tier only).
    pub wal_appended: Option<u64>,
    pub aggregate_json: String,
    /// Everything that did not check out.
    pub problems: Vec<String>,
}

enum Served {
    Poll(PollReport),
    Pool,
    PoolTraced(u64),
}

/// The pool tier's per-connection serve loop (as `serve_pool` runs it),
/// with each connection's WAL writing through a `TracedSink`.
fn serve_pool_traced(
    listener: &TcpListener,
    service: &dyn ProtocolService,
    rec: &Arc<Recorder>,
    root: &Path,
    blocks: u64,
) -> Result<u64, ServerError> {
    std::thread::scope(|scope| {
        let mut conns = Vec::with_capacity(CONNS);
        for index in 0..CONNS {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut transport = TcpTransport::new(stream)?;
            let rec = Arc::clone(rec);
            conns.push(scope.spawn(move || -> Result<u64, ServerError> {
                let dir = pool_wal_dir(root, index);
                std::fs::create_dir_all(&dir)?;
                let file = BufWriter::new(File::create(wal_path(&dir))?);
                let mut wal = WalWriter::new(TracedSink::new(file, rec, index), blocks)?;
                serve_durable(
                    service,
                    &mut transport,
                    SERVER_WINDOW,
                    Durability::LogSnapshot {
                        wal: &mut wal,
                        sync_every: SYNC_EVERY,
                        snapshot_every: SNAPSHOT_EVERY,
                    },
                )?;
                Ok(wal.events())
            }));
        }
        let mut appended = 0;
        for conn in conns {
            appended += conn.join().expect("pool connection thread panicked")?;
        }
        Ok(appended)
    })
}

fn connect(addr: std::net::SocketAddr) -> std::io::Result<Vec<TcpStream>> {
    // One after the other, so the server accepts them in client order.
    (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        })
        .collect()
}

pub fn spec() -> ExecutorSpec {
    ExecutorSpec::new(WORKERS).capacity(CAPACITY)
}

/// Runs one phase end to end. Set-up time covers building the executor and
/// the service state, creating the WAL root, binding, and connecting.
pub fn run(p: &PhaseSpec<'_>) -> PhaseOut {
    let setup_start = Instant::now();
    let executor = build_executor(p.executor, &spec()).expect("registered executor name");
    let plain;
    let traced;
    let service: &dyn BatchService = match &p.rec {
        None => {
            plain = ExecutorService::new(&*executor, p.blocks);
            &plain
        }
        Some(rec) => {
            traced = Traced {
                inner: ExecutorService::new(&*executor, p.blocks),
                executor: &*executor,
                rec: Arc::clone(rec),
            };
            &traced
        }
    };
    if let Some(root) = &p.wal_root {
        std::fs::create_dir_all(root).expect("create the WAL root");
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    let (setup, wall, cpu, steal, client, served) = std::thread::scope(|scope| {
        let server = scope.spawn(|| -> Result<Served, ServerError> {
            match (p.tier, &p.rec) {
                (Tier::Poll, _) => serve_poll(
                    &listener,
                    service,
                    &PollOptions {
                        workers: 1,
                        accept: CONNS,
                        max_pending: MAX_PENDING,
                    },
                )
                .map(Served::Poll),
                (Tier::PoolWal, None) => {
                    let root = p.wal_root.clone().expect("pool tier has a WAL root");
                    let opts = PoolOptions {
                        window: SERVER_WINDOW,
                        accept: CONNS,
                        wal: Some(PoolWal {
                            root,
                            blocks: p.blocks,
                            sync_every: SYNC_EVERY,
                            snapshot_every: SNAPSHOT_EVERY,
                            crash_after: None,
                        }),
                    };
                    serve_pool(&listener, service, &opts).map(|_| Served::Pool)
                }
                (Tier::PoolWal, Some(rec)) => serve_pool_traced(
                    &listener,
                    service,
                    rec,
                    p.wal_root.as_deref().expect("pool tier has a WAL root"),
                    p.blocks,
                )
                .map(Served::PoolTraced),
            }
        });
        let streams = connect(addr).expect("connect to the loopback server");
        let setup = setup_start.elapsed();
        let cpu0 = process_cpu();
        let steal0 = machine_steal();
        let t0 = Instant::now();
        let client = client::run(streams, p.traffic, p.schedule, p.epoch, p.warm);
        let wall = t0.elapsed();
        let cpu = process_cpu().saturating_sub(cpu0);
        let steal = machine_steal().saturating_sub(steal0);
        let served = server.join().expect("server thread panicked");
        (setup, wall, cpu, steal, client, served)
    });
    let mut out = PhaseOut {
        setup,
        wall,
        cpu,
        steal,
        stats: ExecutorStats::default(),
        poll: None,
        wal_appended: None,
        aggregate_json: String::new(),
        problems: Vec::new(),
        client,
    };
    let sent = out.client.sent_total();
    let problems = &mut out.problems;
    if let Some(e) = &out.client.error {
        problems.push(format!("client: {e}"));
    }
    match served {
        Err(e) => problems.push(format!("server: {e}")),
        Ok(Served::Poll(report)) => {
            if report.failed != 0 || report.events != sent || report.completed != sent {
                problems.push(format!("poll report {report:?} for {sent} requests sent"));
            }
            out.poll = Some(report);
        }
        Ok(Served::Pool) => {}
        Ok(Served::PoolTraced(appended)) => out.wal_appended = Some(appended),
    }
    service.flush();
    let acked: u64 = out.client.acked.iter().sum();
    out.aggregate_json = service.aggregate(acked).to_json_string();
    let want = reference_aggregate(
        (0..CONNS).flat_map(|c| p.traffic[c].sent(out.client.sent[c])),
        p.blocks,
    );
    if out.aggregate_json != want.to_json_string() {
        problems.push(format!(
            "aggregate differs from the reference fold of the {sent} requests sent"
        ));
    }
    out.stats = executor.stats();
    if out.stats.executed != sent {
        problems.push(format!(
            "executor ran {} jobs for {sent} requests",
            out.stats.executed
        ));
    }
    out
}

/// Checks every connection log under `root` against the stream of the
/// connection that wrote it: the full log (snapshots ignored) must hold
/// exactly the requests sent, in order, and replay to their reference fold.
pub fn check_pool_logs(
    root: &Path,
    traffic: &[ConnStream],
    sent: &[u64; CONNS],
    blocks: u64,
    checker: &dyn Executor,
) -> Vec<String> {
    let mut problems = Vec::new();
    for index in 0..CONNS {
        let dir = pool_wal_dir(root, index);
        let bytes = match std::fs::read(wal_path(&dir)) {
            Ok(b) => b,
            Err(e) => {
                problems.push(format!("{}: {e}", dir.display()));
                continue;
            }
        };
        let full = scan_bytes_full(&bytes);
        let Some(first) = full.suffix.first() else {
            problems.push(format!("{}: log holds no events", dir.display()));
            continue;
        };
        let c = conn_of(first);
        let expected: Vec<_> = traffic[c].sent(sent[c]).copied().collect();
        if full.torn || full.suffix != expected {
            problems.push(format!(
                "{}: log holds {} events (torn: {}), connection {c} sent {}",
                dir.display(),
                full.suffix.len(),
                full.torn,
                sent[c]
            ));
            continue;
        }
        match replay(&full, checker) {
            Ok(agg) if agg == reference_aggregate(&expected, blocks) => {}
            Ok(_) => problems.push(format!("{}: replay differs from the fold", dir.display())),
            Err(e) => problems.push(format!("{}: replay failed: {e}", dir.display())),
        }
    }
    problems
}

/// Writes the log a durable server would write for `events`: an event
/// record each, a sync every `SYNC_EVERY` events and a snapshot of this
/// connection's own state every `SNAPSHOT_EVERY`.
pub fn write_log<S: WalSink + 'static>(
    sink: S,
    events: &[pdq_dsm::ProtocolEvent],
    blocks: u64,
) -> std::io::Result<()> {
    let mut wal = WalWriter::new(sink, blocks)?;
    let state = ServerState::new(blocks);
    for event in events {
        let n = wal.append_event(event)?;
        state.handle(event);
        if n % SNAPSHOT_EVERY == 0 {
            wal.append_snapshot(&state.snapshot_words())?;
        } else if n % SYNC_EVERY == 0 {
            wal.sync()?;
        }
    }
    wal.sync()
}

/// One timed recovery: `recover_dir` then `replay` through a fresh pdq
/// executor, for every log in `dirs`. Checks each result: the recovered
/// events are exactly the connection's requests, and without a snapshot
/// the replay equals their reference fold. (A pool connection's snapshot
/// holds the state the connections share, so only its event count can be
/// checked here; `check_pool_logs` checks the full logs.)
pub fn time_recovery(
    dirs: &[PathBuf],
    traffic: &[ConnStream],
    sent: &[u64; CONNS],
    blocks: u64,
) -> (Duration, Duration, Vec<String>) {
    let executor = build_executor("pdq", &spec()).expect("pdq is registered");
    let mut scan = Duration::ZERO;
    let mut replayed = Duration::ZERO;
    let mut problems = Vec::new();
    for dir in dirs {
        let t0 = Instant::now();
        let r = match recover_dir(dir) {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("{}: {e}", dir.display()));
                continue;
            }
        };
        let t1 = Instant::now();
        let agg = replay(&r, &*executor);
        replayed += t1.elapsed();
        scan += t1 - t0;
        let agg = match agg {
            Ok(agg) => agg,
            Err(e) => {
                problems.push(format!("{}: replay failed: {e}", dir.display()));
                continue;
            }
        };
        let skipped = r.snapshot.as_ref().map_or(0, |s| s.events) as usize;
        // A log whose events all sit behind its snapshot names no
        // connection; match it by length.
        let conn = r
            .suffix
            .first()
            .map(conn_of)
            .or_else(|| (0..CONNS).find(|&c| sent[c] == r.total_events));
        let Some(c) = conn else {
            problems.push(format!("{}: recovered nothing", dir.display()));
            continue;
        };
        let expected: Vec<_> = traffic[c].sent(sent[c]).copied().collect();
        if r.torn || r.total_events != sent[c] || r.suffix[..] != expected[skipped..] {
            problems.push(format!(
                "{}: recovered {} events, connection {c} sent {}",
                dir.display(),
                r.total_events,
                sent[c]
            ));
        } else if agg.completed != sent[c]
            || (r.snapshot.is_none() && agg != reference_aggregate(&expected, blocks))
        {
            problems.push(format!("{}: replay differs from the fold", dir.display()));
        }
    }
    (scan, replayed, problems)
}
