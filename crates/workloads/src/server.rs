//! Multi-connection protocol server: the network edge of the PDQ pipeline.
//!
//! The paper's point is parallelizing fine-grain protocol *dispatch*; this
//! module turns the protocol service into a real network server in two
//! tiers:
//!
//! * [`serve_pool`] — **thread-per-connection pool**. Every accepted
//!   connection gets a scoped thread running the existing
//!   [`serve_durable`](crate::serve_durable) loop against the *shared*
//!   service, so all connections feed one executor. Optionally, each
//!   connection write-ahead-logs its events into its own directory
//!   (`conn-NNNN` under a shared root), so durability works over real
//!   sockets.
//! * [`serve_poll`] — **readiness-polled event loop**. A small bounded set of
//!   worker threads multiplexes hundreds of non-blocking connections
//!   (`set_nonblocking(true)` over `std::net`), resuming partial
//!   reads/writes with the staged frame codec
//!   ([`FrameDecoder`] /
//!   [`FrameEncoder`]). On the hot path a
//!   readiness wakeup drains *every* buffered frame and admits the decoded
//!   events through **one** [`BatchService::try_admit`] call (one amortized
//!   `try_submit_batch` pass) instead of a per-frame `service.call`.
//!
//! # Flow control (poll tier)
//!
//! Executor backpressure becomes TCP pushback instead of unbounded buffers.
//! A connection is read **only** while all of these hold:
//!
//! ```text
//!   parked admission queue empty        (executor accepted everything)
//!   in-flight handles < max_pending     (reply window not exhausted)
//!   encoder backlog < write watermark   (peer is draining its replies)
//!   stream not at EOF
//! ```
//!
//! When `try_admit` refuses entries (executor queue full), the leftovers stay
//! in a per-connection parked batch, read interest drops, and the kernel's
//! receive buffer fills until TCP pushes back on the client. Each such
//! suspension is counted ([`PollReport::suspensions`]) so backpressure is
//! observable, not inferred.
//!
//! # Determinism
//!
//! Handler effects are commutative, so the merged aggregate of an N-client
//! run is a pure function of the *multiset* of delivered events: byte-
//! identical to [`reference_aggregate`](crate::reference_aggregate) over the
//! concatenated per-client streams, whatever the executor, tier, or
//! interleaving. [`client_config`] derives per-client seeds via
//! `DetRng::stream`, and [`merged_reference_aggregate`] is the sequential
//! fold the drivers compare against, and [`connect_tcp_clients`] with
//! [`run_tcp_clients`] is the matching multi-client TCP driver.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use pdq_core::executor::{JobError, SubmitBatch, TypedHandle};
use pdq_sim::DetRng;

use crate::metrics::{ConnObs, Observability};
use crate::protocol_server::{generate_events, ServerAggregate, ServerConfig, ServerError};
use crate::service::{
    decode_request, encode_ack, encode_aggregate_reply, encode_metrics_reply, run_client_events,
    serve_observed, Ack, BatchService, ClientReport, Durability, ProtocolService, Reply,
    WireRequest, ACK_DONE, ACK_PANICKED,
};
use crate::transport::{FrameDecoder, FrameEncoder, TcpTransport};
use crate::wal::WalWriter;

/// Encoder backlog (bytes staged and unaccepted by the socket) above which
/// the poll loop stops reading a connection: a peer that sends requests but
/// never drains replies must not grow the outgoing buffer without bound.
const ENCODER_WRITE_WATERMARK: usize = 64 * 1024;

/// How long an idle poll worker sleeps when a full sweep over its
/// connections made no progress (no bytes moved, no jobs admitted, no acks
/// resolved). Small enough to keep added reply latency in the hundreds of
/// microseconds, large enough not to spin a core per worker.
const IDLE_BACKOFF: Duration = Duration::from_micros(200);

/// Per-connection write-ahead-log configuration for [`serve_pool`]: each
/// accepted connection logs into its own `conn-NNNN` directory under
/// [`root`](Self::root), so recovery can replay each connection's stream
/// independently ([`pool_wal_dir`] names the directories).
#[derive(Debug, Clone)]
pub struct PoolWal {
    /// Directory that holds one `conn-NNNN` subdirectory per connection.
    pub root: PathBuf,
    /// Cache-block count recorded in each log header.
    pub blocks: u64,
    /// Events between sync points (clamped to at least 1).
    pub sync_every: u64,
    /// Events between snapshot records; `0` disables snapshots.
    pub snapshot_every: u64,
    /// Fault injection: arm every connection's log to die with a torn
    /// half-record after this many appended events (the crash-recovery
    /// smoke). `None` in production use.
    pub crash_after: Option<u64>,
}

/// Options for the thread-per-connection pool tier ([`serve_pool`]).
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// The server reply window each connection's serve loop runs with
    /// (clients must drive a strictly larger window, as with
    /// [`serve_durable`](crate::serve_durable)). One accepted connection
    /// with this window is the single-connection TCP server.
    pub window: usize,
    /// How many connections to accept before the server stops accepting and
    /// waits for the accepted ones to finish.
    pub accept: usize,
    /// Optional per-connection write-ahead logging.
    pub wal: Option<PoolWal>,
}

impl PoolOptions {
    /// A pool serving `accept` connections with reply window `window`, no
    /// durability.
    pub fn new(accept: usize, window: usize) -> Self {
        Self {
            window,
            accept,
            wal: None,
        }
    }
}

/// What a [`serve_pool`] run did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolReport {
    /// Connections accepted and served.
    pub connections: u64,
    /// Event acks sent, summed over all connections.
    pub answered: u64,
}

/// Name prefix of the per-connection WAL directories.
const POOL_WAL_PREFIX: &str = "conn-";

/// The WAL directory [`serve_pool`] uses for connection `index` under
/// `root` — `root/conn-NNNN`. Recovery tooling lists these to replay each
/// connection's log.
pub fn pool_wal_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("{POOL_WAL_PREFIX}{index:04}"))
}

/// The per-connection WAL directories ([`pool_wal_dir`]) present under
/// `root`, in connection order; empty when there are none (or `root` cannot
/// be read), e.g. when `root` itself holds a single log.
pub fn pool_wal_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .filter(|entry| {
            entry
                .file_name()
                .to_string_lossy()
                .starts_with(POOL_WAL_PREFIX)
        })
        .map(|entry| entry.path())
        .filter(|path| path.is_dir())
        .collect();
    dirs.sort();
    dirs
}

fn serve_pool_conn(
    stream: TcpStream,
    service: &dyn ProtocolService,
    opts: &PoolOptions,
    index: usize,
    obs: Option<&Observability>,
) -> Result<u64, ServerError> {
    stream.set_nodelay(true).map_err(ServerError::Io)?;
    let mut transport = TcpTransport::new(stream).map_err(ServerError::Io)?;
    let conn = obs.map(|o| o.conn(index as u64));
    if let Some(conn) = &conn {
        conn.opened();
    }
    let mut wal = match &opts.wal {
        None => None,
        Some(w) => {
            let mut wal = WalWriter::create(&pool_wal_dir(&w.root, index), w.blocks)
                .map_err(ServerError::Io)?;
            if let Some(n) = w.crash_after {
                wal.arm_crash_after_events(n);
            }
            if let Some(o) = obs {
                wal.set_metrics(o.wal_metrics(index as u64));
            }
            Some((wal, w))
        }
    };
    let durability = match &mut wal {
        None => Durability::Off,
        Some((wal, w)) => Durability::LogSnapshot {
            wal,
            sync_every: w.sync_every,
            snapshot_every: w.snapshot_every,
        },
    };
    let served = serve_observed(
        service,
        &mut transport,
        opts.window,
        durability,
        conn.as_ref(),
    );
    if let Some(conn) = &conn {
        conn.closed(*served.as_ref().unwrap_or(&0));
    }
    served
}

/// Serves `opts.accept` connections from `listener`, one scoped thread per
/// connection, all against the shared `service` (and therefore one shared
/// executor and one shared aggregate). Returns once every accepted
/// connection has been served to completion.
///
/// Connections are accepted sequentially but served concurrently: the accept
/// loop spawns each connection's serve thread immediately, so earlier
/// clients stream while later ones are still connecting.
///
/// The aggregate of a multi-client run is fetched by the *driver*, once,
/// after this returns (`service.flush()` + `service.aggregate(..)`) — a
/// per-connection aggregate snapshot of shared state would be racy, which is
/// why multi-client clients end with a drain request
/// ([`run_client_events`]) instead of an aggregate
/// request.
///
/// # Errors
///
/// The first error any connection hit (accept/socket-configuration failures
/// included), after all other connections have finished serving. Durability
/// faults on one connection therefore do not abort the others mid-stream.
pub fn serve_pool(
    listener: &TcpListener,
    service: &dyn ProtocolService,
    opts: &PoolOptions,
) -> Result<PoolReport, ServerError> {
    serve_pool_observed(listener, service, opts, None)
}

/// [`serve_pool`] with optional observability: connection lifecycle and WAL
/// counters/trace events flow into `obs`, per-connection serve loops record
/// reply latency, and a [`WireRequest::Metrics`] frame on any connection
/// answers with the rendered registry. Pass `None` for the uninstrumented
/// behaviour (identical to [`serve_pool`]).
///
/// # Errors
///
/// As [`serve_pool`].
pub fn serve_pool_observed(
    listener: &TcpListener,
    service: &dyn ProtocolService,
    opts: &PoolOptions,
    obs: Option<&Observability>,
) -> Result<PoolReport, ServerError> {
    if let Some(o) = obs {
        o.set_tier("pool");
    }
    let accept = opts.accept.max(1);
    let answered = AtomicU64::new(0);
    let connections = AtomicU64::new(0);
    let first_err: Mutex<Option<ServerError>> = Mutex::new(None);
    let record_err = |e: ServerError| {
        let mut slot = first_err.lock().unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(e);
    };
    std::thread::scope(|scope| {
        for index in 0..accept {
            match listener.accept() {
                Ok((stream, _)) => {
                    connections.fetch_add(1, Ordering::Relaxed);
                    let answered = &answered;
                    let record_err = &record_err;
                    scope.spawn(
                        move || match serve_pool_conn(stream, service, opts, index, obs) {
                            Ok(n) => {
                                answered.fetch_add(n, Ordering::Relaxed);
                            }
                            Err(e) => record_err(e),
                        },
                    );
                }
                Err(e) => {
                    record_err(ServerError::Io(e));
                    break;
                }
            }
        }
    });
    match first_err
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some(e) => Err(e),
        None => Ok(PoolReport {
            connections: connections.into_inner(),
            answered: answered.into_inner(),
        }),
    }
}

/// Options for the readiness-polled tier ([`serve_poll`]).
#[derive(Debug, Clone, Copy)]
pub struct PollOptions {
    /// Worker threads multiplexing the connections (clamped to at least 1).
    /// Hundreds of connections on single-digit workers is the intended
    /// regime.
    pub workers: usize,
    /// How many connections to accept before the server stops accepting and
    /// drains the accepted ones.
    pub accept: usize,
    /// Per-connection cap on in-flight (admitted or parked) calls; reaching
    /// it drops read interest until acks drain it below the cap.
    pub max_pending: usize,
}

impl PollOptions {
    /// `accept` connections on `workers` threads with a default in-flight
    /// cap of 128 calls per connection.
    pub fn new(accept: usize, workers: usize) -> Self {
        Self {
            workers,
            accept,
            max_pending: 128,
        }
    }
}

/// What a [`serve_poll`] run did. The counters that matter for the flow-
/// control contract are [`suspensions`](Self::suspensions) (executor
/// `WouldBlock` observably suspended socket reads) and
/// [`batches`](Self::batches) vs [`events`](Self::events) (events admitted
/// per amortized dispatch pass).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PollReport {
    /// Connections accepted.
    pub connections: u64,
    /// Connections torn down by a per-connection protocol/I/O failure
    /// (the rest of the server keeps serving).
    pub failed: u64,
    /// Event acks sent.
    pub answered: u64,
    /// Handler calls that resolved `Ok` (the aggregate's `completed`).
    pub completed: u64,
    /// Event frames decoded and prepared for admission.
    pub events: u64,
    /// `try_admit` passes that admitted at least one entry.
    pub batches: u64,
    /// Times a refused admission left entries parked and suspended a
    /// connection's socket reads (executor backpressure → TCP pushback).
    pub suspensions: u64,
}

impl PollReport {
    fn merge(&mut self, other: &PollReport) {
        self.connections += other.connections;
        self.failed += other.failed;
        self.answered += other.answered;
        self.completed += other.completed;
        self.events += other.events;
        self.batches += other.batches;
        self.suspensions += other.suspensions;
    }
}

/// Per-connection state of the poll loop: the resumable codec halves, the
/// FIFO of reply handles, and the parked (admission-refused) tail.
///
/// Invariant: `parked` entries are always the **suffix** of the calls whose
/// handles sit at the back of `inflight` — `try_admit` admits from the
/// front and refuses a tail, and new frames append to both. Handles are
/// resolved front-first, so acks go out in request order even though
/// admission is batched.
struct PollConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    encoder: FrameEncoder,
    inflight: VecDeque<TypedHandle<Reply>>,
    parked: SubmitBatch,
    agg_requested: bool,
    eof: bool,
    completed: u64,
    report: PollReport,
    /// Observability handle; `None` leaves the sweep uninstrumented.
    obs: Option<ConnObs>,
    /// Decode timestamps, index-parallel to `inflight` (only maintained
    /// when `obs` is set).
    stamps: VecDeque<Instant>,
    /// Whether the connection is currently read-suspended by a parked
    /// admission tail (tracked so the trace logs transitions, not sweeps).
    suspended: bool,
    /// Whether the encoder backlog is currently above the write watermark.
    write_blocked: bool,
}

impl PollConn {
    fn new(stream: TcpStream, obs: Option<ConnObs>) -> Self {
        if let Some(obs) = &obs {
            obs.opened();
        }
        Self {
            stream,
            decoder: FrameDecoder::new(),
            encoder: FrameEncoder::new(),
            inflight: VecDeque::new(),
            parked: SubmitBatch::new(),
            agg_requested: false,
            eof: false,
            completed: 0,
            report: PollReport::default(),
            obs,
            stamps: VecDeque::new(),
            suspended: false,
            write_blocked: false,
        }
    }

    /// Records the connection's end (called once, when the worker retires
    /// it — served to completion or torn down by an error).
    fn finish(&self) {
        if let Some(obs) = &self.obs {
            obs.closed(self.report.answered);
        }
    }

    fn read_interest(&self, max_pending: usize) -> bool {
        !self.eof
            && self.parked.is_empty()
            && self.inflight.len() < max_pending
            && self.encoder.staged() < ENCODER_WRITE_WATERMARK
    }

    fn done(&self) -> bool {
        self.eof
            && self.inflight.is_empty()
            && self.parked.is_empty()
            && self.encoder.is_empty()
            && !self.agg_requested
    }

    /// One sweep: flush pending writes, ack finished calls, retry parked
    /// admissions, and (interest permitting) read + decode + batch-admit new
    /// frames. Returns whether any progress was made.
    fn sweep(
        &mut self,
        service: &dyn BatchService,
        max_pending: usize,
    ) -> Result<bool, ServerError> {
        let mut progress = false;

        // 1. Push staged reply bytes while the socket accepts them. After
        //    EOF the peer is gone: drop the backlog instead of writing into
        //    a closed stream (mirrors `serve` abandoning pending replies).
        if !self.encoder.is_empty() {
            if self.eof {
                let _ = self.encoder.write_to(&mut io::sink());
            } else {
                progress |= self.encoder.write_to(&mut self.stream).map_err(io_error)? > 0;
            }
        }

        // 2. Resolve finished calls front-first (request order). Parked
        //    (never-admitted) entries correspond to the *back* of
        //    `inflight`, so a finished front handle is always an admitted
        //    call.
        while self.inflight.front().is_some_and(TypedHandle::is_finished) {
            let handle = self.inflight.pop_front().expect("front was checked");
            let ack = match handle.wait() {
                Ok(reply) => {
                    self.completed += 1;
                    self.report.completed += 1;
                    Ack {
                        status: ACK_DONE,
                        reply,
                    }
                }
                Err(JobError::Panicked) => Ack {
                    status: ACK_PANICKED,
                    reply: Reply {
                        class: 0xFF,
                        digest: 0,
                    },
                },
                Err(JobError::Aborted) => return Err(ServerError::Shutdown),
            };
            self.encoder
                .push_frame(&encode_ack(ack))
                .map_err(ServerError::Io)?;
            self.report.answered += 1;
            if let (Some(obs), Some(stamp)) = (&self.obs, self.stamps.pop_front()) {
                let latency = stamp.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                obs.reply(latency);
            }
            progress = true;
        }

        // Encoder-watermark backpressure: the peer stopped draining acks,
        // so `read_interest` below goes false until the backlog shrinks.
        // Observability logs the transition, not every blocked sweep.
        if let Some(obs) = &self.obs {
            let blocked = self.encoder.staged() >= ENCODER_WRITE_WATERMARK;
            if blocked && !self.write_blocked {
                obs.write_blocked(self.encoder.staged() as u64);
            }
            self.write_blocked = blocked;
        }

        // 3. One admission pass per sweep: either retry the parked tail or
        //    (below) admit freshly decoded frames — never both, so executor
        //    pressure throttles intake instead of racing it.
        if !self.parked.is_empty() {
            let admitted = service.try_admit(&mut self.parked)?;
            progress |= admitted > 0;
            if admitted > 0 {
                self.report.batches += 1;
                if let Some(obs) = &self.obs {
                    obs.admitted(admitted as u64);
                }
            }
            if self.parked.is_empty() && self.suspended {
                self.suspended = false;
                if let Some(obs) = &self.obs {
                    obs.resumed();
                }
            }
        } else if self.read_interest(max_pending) {
            let status = self.decoder.fill_from(&mut self.stream).map_err(io_error)?;
            self.eof |= status.eof;
            progress |= status.read > 0;
            while let Some(frame) = self.decoder.next_frame().map_err(io_error)? {
                match decode_request(&frame)? {
                    WireRequest::Event(event) => {
                        let (key, job, handle) = service.prepare(event);
                        self.parked.push(key, job);
                        self.inflight.push_back(handle);
                        if self.obs.is_some() {
                            self.stamps.push_back(Instant::now());
                        }
                        self.report.events += 1;
                    }
                    // The poll tier acks eagerly as handles finish, so a
                    // drain request needs no action: the client's
                    // outstanding acks are already on their way.
                    WireRequest::Drain => {}
                    WireRequest::Metrics => {
                        let text = self.obs.as_ref().map(ConnObs::render).unwrap_or_default();
                        self.encoder
                            .push_frame(&encode_metrics_reply(&text))
                            .map_err(ServerError::Io)?;
                        progress = true;
                    }
                    WireRequest::Aggregate => self.agg_requested = true,
                }
            }
            if self.eof && self.decoder.has_partial() {
                return Err(ServerError::Protocol("stream ended mid-frame".into()));
            }
            if !self.parked.is_empty() {
                let admitted = service.try_admit(&mut self.parked)?;
                if admitted > 0 {
                    self.report.batches += 1;
                    if let Some(obs) = &self.obs {
                        obs.admitted(admitted as u64);
                    }
                    progress = true;
                }
                if !self.parked.is_empty() {
                    // Executor refused part of the batch: the leftover tail
                    // stays parked and `read_interest` goes false, so the
                    // kernel buffer fills and TCP pushes back on the peer.
                    self.report.suspensions += 1;
                    if !self.suspended {
                        self.suspended = true;
                        if let Some(obs) = &self.obs {
                            obs.suspended(self.parked.len() as u64);
                        }
                    }
                }
            }
        }

        // 4. An aggregate answer waits until this connection's own calls
        //    have drained, then flushes the *shared* service so the fold is
        //    quiescent. (Multi-client runs use drain + a driver-side
        //    aggregate instead; see `serve_pool`.)
        if self.agg_requested && self.inflight.is_empty() && self.parked.is_empty() {
            service.flush();
            let agg = service.aggregate(self.completed);
            self.encoder
                .push_frame(&encode_aggregate_reply(&agg))
                .map_err(ServerError::Io)?;
            self.agg_requested = false;
            progress = true;
        }

        Ok(progress)
    }
}

/// Maps poll-loop stream failures exactly as the blocking server loop does:
/// truncation/malformed-data are the peer's protocol violations, the rest
/// are I/O faults.
fn io_error(e: io::Error) -> ServerError {
    match e.kind() {
        io::ErrorKind::UnexpectedEof => ServerError::Protocol(format!("truncated frame: {e}")),
        io::ErrorKind::InvalidData => ServerError::Protocol(format!("malformed frame: {e}")),
        _ => ServerError::Io(e),
    }
}

fn poll_worker(
    rx: &mpsc::Receiver<(TcpStream, u64)>,
    service: &dyn BatchService,
    max_pending: usize,
    obs: Option<&Observability>,
) -> Result<PollReport, ServerError> {
    let mut report = PollReport::default();
    let mut conns: Vec<PollConn> = Vec::new();
    let mut disconnected = false;
    let accept = |(stream, id): (TcpStream, u64)| PollConn::new(stream, obs.map(|o| o.conn(id)));
    loop {
        if conns.is_empty() {
            if disconnected {
                return Ok(report);
            }
            match rx.recv() {
                Ok(dealt) => {
                    report.connections += 1;
                    conns.push(accept(dealt));
                }
                Err(_) => return Ok(report),
            }
        }
        loop {
            match rx.try_recv() {
                Ok(dealt) => {
                    report.connections += 1;
                    conns.push(accept(dealt));
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let mut progress = false;
        let mut index = 0;
        while index < conns.len() {
            match conns[index].sweep(service, max_pending) {
                Ok(p) => {
                    progress |= p;
                    if conns[index].done() {
                        let conn = conns.swap_remove(index);
                        conn.finish();
                        report.merge(&conn.report);
                    } else {
                        index += 1;
                    }
                }
                // Executor shutdown is fatal for the whole server; anything
                // else (peer reset, torn frame, protocol garbage) tears down
                // this one connection and the rest keep serving.
                Err(ServerError::Shutdown) => return Err(ServerError::Shutdown),
                Err(_) => {
                    let conn = conns.swap_remove(index);
                    conn.finish();
                    report.merge(&conn.report);
                    report.failed += 1;
                    progress = true;
                }
            }
        }
        if !progress {
            std::thread::sleep(IDLE_BACKOFF);
        }
    }
}

/// Serves `opts.accept` connections from `listener` on `opts.workers`
/// readiness-polling threads — the tier that holds hundreds of connections
/// on single-digit threads. The accept loop (calling thread) configures each
/// socket non-blocking and deals it round-robin to a worker; each worker
/// sweeps its connections, resuming partial frames with the staged codec and
/// admitting each wakeup's decoded events through one amortized
/// [`BatchService::try_admit`] pass.
///
/// Per-connection failures (peer reset, torn or malformed frames) tear down
/// that connection only ([`PollReport::failed`]); the run keeps serving.
///
/// # Errors
///
/// [`ServerError::Io`] if accepting or configuring a socket fails,
/// [`ServerError::Shutdown`] if the executor shuts down while calls are in
/// flight (fatal: retrying admission can never succeed).
pub fn serve_poll(
    listener: &TcpListener,
    service: &dyn BatchService,
    opts: &PollOptions,
) -> Result<PollReport, ServerError> {
    serve_poll_observed(listener, service, opts, None)
}

/// [`serve_poll`] with optional observability: each worker's sweep records
/// admission batches, backpressure transitions, and reply latency into
/// `obs`, and a [`WireRequest::Metrics`] frame on any connection answers
/// with the rendered registry. Pass `None` for the uninstrumented behaviour
/// (identical to [`serve_poll`]).
///
/// # Errors
///
/// As [`serve_poll`].
pub fn serve_poll_observed(
    listener: &TcpListener,
    service: &dyn BatchService,
    opts: &PollOptions,
    obs: Option<&Observability>,
) -> Result<PollReport, ServerError> {
    if let Some(o) = obs {
        o.set_tier("poll");
    }
    let workers = opts.workers.max(1);
    let accept = opts.accept.max(1);
    let max_pending = opts.max_pending.max(1);
    std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<(TcpStream, u64)>();
            txs.push(tx);
            handles.push(scope.spawn(move || poll_worker(&rx, service, max_pending, obs)));
        }
        let mut accept_err = None;
        for index in 0..accept {
            let accepted = listener
                .accept()
                .and_then(|(stream, _)| {
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(true)?;
                    Ok(stream)
                })
                .map_err(ServerError::Io);
            match accepted {
                Ok(stream) => {
                    // A send only fails if the worker died; surface that as
                    // the worker's own error after the join below.
                    let _ = txs[index % workers].send((stream, index as u64));
                }
                Err(e) => {
                    accept_err = Some(e);
                    break;
                }
            }
        }
        drop(txs);
        let mut report = PollReport::default();
        let mut first_err = accept_err;
        for handle in handles {
            match handle.join().expect("poll worker must not panic") {
                Ok(worker_report) => report.merge(&worker_report),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    })
}

/// The configuration client `client` of a multi-client run drives: client 0
/// replays `base` exactly (so a 1-client run is byte-for-byte the
/// single-client run), later clients get independent seeds derived through
/// `DetRng::stream` — deterministic in (`base.seed`, `client`), uncorrelated
/// across clients.
pub fn client_config(base: &ServerConfig, client: u64) -> ServerConfig {
    if client == 0 {
        *base
    } else {
        base.seed(DetRng::stream(base.seed, 0xc11e_4700 ^ client).next_u64())
    }
}

/// The sequential reference fold for an N-client run: every client's
/// deterministic stream ([`client_config`]), concatenated and folded through
/// one fresh state on the calling thread. Because handler effects are
/// commutative, any server tier × executor combination that delivers
/// exactly these events must produce this aggregate byte for byte.
pub fn merged_reference_aggregate(base: &ServerConfig, clients: u64) -> ServerAggregate {
    let mut events = Vec::with_capacity(base.events * clients.max(1) as usize);
    for client in 0..clients.max(1) {
        events.extend(generate_events(&client_config(base, client)));
    }
    crate::protocol_server::reference_aggregate(&events, base.blocks)
}

/// Connects `clients` TCP clients to the server at `addr`, in client order
/// (so a pool server accepts client `c` as connection `c`), each with
/// `TCP_NODELAY` set. The listener's backlog holds the connections, so
/// calling this before the server starts accepting makes a connect failure
/// an error instead of a server blocked in `accept()` — for as many clients
/// as that backlog holds.
///
/// # Errors
///
/// [`ServerError::Io`] if connecting or configuring a socket fails: a socket
/// the client could not configure would silently run with different latency
/// behaviour.
pub fn connect_tcp_clients(
    addr: SocketAddr,
    clients: u64,
) -> Result<Vec<TcpTransport>, ServerError> {
    (0..clients)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            TcpTransport::new(stream)
        })
        .collect::<io::Result<Vec<_>>>()
        .map_err(ServerError::Io)
}

/// Runs one client per connected transport ([`connect_tcp_clients`]),
/// concurrently: client `c` streams the events of
/// [`client_config`]`(base, c)` through [`run_client_events`] with client
/// window `window`. Returns each client's own result, in client order, once
/// all of them have finished.
pub fn run_tcp_clients(
    transports: Vec<TcpTransport>,
    base: &ServerConfig,
    window: usize,
    record_latency: bool,
) -> Vec<Result<ClientReport, ServerError>> {
    std::thread::scope(|scope| {
        let running: Vec<_> = (0..)
            .zip(transports)
            .map(|(client, mut transport)| {
                scope.spawn(move || {
                    let events = generate_events(&client_config(base, client));
                    run_client_events(&mut transport, &events, window, record_latency)
                })
            })
            .collect();
        running
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::wire_aggregate;
    use pdq_core::executor::{build_executor, ExecutorSpec, TypedFuture, EXECUTOR_NAMES};
    use pdq_core::ShutdownError;
    use std::sync::atomic::AtomicUsize;

    /// Connects `clients` TCP clients streaming `base` (client window
    /// `window`), serves them with `serve` on a fresh listener, and returns
    /// the server's report with every client's.
    fn serve_clients<R: Send>(
        base: &ServerConfig,
        clients: u64,
        window: usize,
        serve: impl FnOnce(&TcpListener) -> Result<R, ServerError> + Send,
    ) -> (R, Vec<ClientReport>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let transports = connect_tcp_clients(addr, clients).expect("connect");
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve(&listener));
            let reports = run_tcp_clients(transports, base, window, false)
                .into_iter()
                .map(|r| r.expect("client ok"))
                .collect();
            (
                server.join().expect("server thread").expect("server ok"),
                reports,
            )
        })
    }

    /// A refused connect is an error from the connect step, which runs
    /// before any server is blocked in `accept()` waiting for it.
    #[test]
    fn connect_failure_is_an_error_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        drop(listener);
        assert!(matches!(
            connect_tcp_clients(addr, 2),
            Err(ServerError::Io(_))
        ));
    }

    /// N pool clients over one shared executor merge to the sequential
    /// reference fold, on every registry executor.
    #[test]
    fn pool_merges_concurrent_clients_to_the_reference_fold() {
        let base = ServerConfig::quick().events(400);
        let clients = 4u64;
        let reference = merged_reference_aggregate(&base, clients);
        for name in EXECUTOR_NAMES {
            let executor = build_executor(name, &ExecutorSpec::new(2).capacity(64))
                .expect("registry executor");
            let service = crate::ExecutorService::new(executor.as_ref(), base.blocks);
            let (report, clients_done) = serve_clients(&base, clients, 16, |listener| {
                serve_pool(listener, &service, &PoolOptions::new(4, 8))
            });
            let acked: u64 = clients_done.iter().map(|r| r.acked).sum();
            assert_eq!(report.answered, acked);
            assert_eq!(report.connections, clients);
            service.flush();
            let merged = service.aggregate(report.answered);
            assert_eq!(merged, reference, "pool aggregate diverged on {name}");
        }
    }

    /// A single poll-tier connection answers the windowed client exactly
    /// like the blocking serve loop: same acks, same aggregate.
    #[test]
    fn poll_single_connection_matches_blocking_serve() {
        let cfg = ServerConfig::quick().events(500);
        for name in EXECUTOR_NAMES {
            let executor = build_executor(name, &ExecutorSpec::new(2).capacity(64))
                .expect("registry executor");
            let service = crate::ExecutorService::new(executor.as_ref(), cfg.blocks);
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("local addr");
            let aggregate = std::thread::scope(|scope| {
                let service = &service;
                let server =
                    scope.spawn(move || serve_poll(&listener, service, &PollOptions::new(1, 1)));
                let client = scope.spawn(move || {
                    let stream = TcpStream::connect(addr).map_err(ServerError::Io)?;
                    let mut transport = TcpTransport::new(stream).map_err(ServerError::Io)?;
                    wire_aggregate(&mut transport, &cfg, 16)
                });
                let aggregate = client.join().expect("client thread").expect("client ok");
                let report = server.join().expect("server thread").expect("server ok");
                assert_eq!(report.events, cfg.events as u64);
                assert_eq!(report.failed, 0);
                aggregate
            });
            let reference = crate::reference_aggregate(&generate_events(&cfg), cfg.blocks);
            assert_eq!(aggregate, reference, "poll aggregate diverged on {name}");
        }
    }

    /// Many poll connections on few workers still merge to the reference
    /// fold, and admission is genuinely batched (fewer passes than events).
    #[test]
    fn poll_multiplexes_many_connections_on_few_workers() {
        let base = ServerConfig::quick().events(200);
        let clients = 12u64;
        let executor =
            build_executor("sharded-pdq", &ExecutorSpec::new(2).capacity(256)).expect("executor");
        let service = crate::ExecutorService::new(executor.as_ref(), base.blocks);
        let (report, _) = serve_clients(&base, clients, 32, |listener| {
            serve_poll(listener, &service, &PollOptions::new(clients as usize, 2))
        });
        assert_eq!(report.connections, clients);
        assert_eq!(report.failed, 0);
        assert_eq!(report.events, clients * base.events as u64);
        assert!(
            report.batches < report.events,
            "admission was not batched: {} passes for {} events",
            report.batches,
            report.events
        );
        service.flush();
        let merged = service.aggregate(report.completed);
        assert_eq!(merged, merged_reference_aggregate(&base, clients));
    }

    /// A service whose admission refuses for a while: the poll loop must
    /// count a read suspension (executor backpressure became flow control)
    /// and still deliver every event once admission recovers.
    struct RefusingService<'a> {
        inner: crate::ExecutorService<'a>,
        refusals: AtomicUsize,
    }

    impl ProtocolService for RefusingService<'_> {
        fn call(&self, request: pdq_dsm::ProtocolEvent) -> TypedFuture<Reply> {
            self.inner.call(request)
        }
        fn flush(&self) {
            self.inner.flush();
        }
        fn aggregate(&self, completed: u64) -> ServerAggregate {
            self.inner.aggregate(completed)
        }
    }

    impl BatchService for RefusingService<'_> {
        fn prepare(
            &self,
            request: pdq_dsm::ProtocolEvent,
        ) -> (
            pdq_core::SyncKey,
            pdq_core::executor::Job,
            TypedHandle<Reply>,
        ) {
            self.inner.prepare(request)
        }
        fn try_admit(&self, batch: &mut SubmitBatch) -> Result<usize, ShutdownError> {
            let remaining = self.refusals.load(Ordering::Relaxed);
            if remaining > 0 {
                self.refusals.store(remaining - 1, Ordering::Relaxed);
                return Ok(0);
            }
            self.inner.try_admit(batch)
        }
    }

    #[test]
    fn refused_admission_suspends_reads_and_recovers() {
        let cfg = ServerConfig::quick().events(300);
        let executor =
            build_executor("pdq", &ExecutorSpec::new(1).capacity(512)).expect("executor");
        let service = RefusingService {
            inner: crate::ExecutorService::new(executor.as_ref(), cfg.blocks),
            refusals: AtomicUsize::new(50),
        };
        let events = generate_events(&cfg);
        let (report, clients_done) = serve_clients(&cfg, 1, 16, |listener| {
            serve_poll(listener, &service, &PollOptions::new(1, 1))
        });
        assert_eq!(clients_done[0].acked, cfg.events as u64);
        assert!(
            report.suspensions > 0,
            "refused admission never suspended socket reads"
        );
        assert_eq!(report.events, cfg.events as u64);
        service.flush();
        assert_eq!(
            service.aggregate(report.completed),
            crate::reference_aggregate(&events, cfg.blocks)
        );
    }

    /// Client 0 replays the base config and later clients diverge — the
    /// contract the CI single-client byte-diffs rely on.
    #[test]
    fn client_config_keeps_client_zero_identical() {
        let base = ServerConfig::quick();
        assert_eq!(client_config(&base, 0), base);
        let one = client_config(&base, 1);
        assert_ne!(one.seed, base.seed);
        assert_eq!(one.events, base.events);
        assert_eq!(client_config(&base, 1), one, "derivation must be pure");
        assert_ne!(client_config(&base, 2).seed, one.seed);
    }
}
