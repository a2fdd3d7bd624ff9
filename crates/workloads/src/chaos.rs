//! Adversarial traffic and fault injection for the protocol server.
//!
//! Everything the well-behaved drivers in [`service`](crate::service) never
//! do to the server, done deliberately and **deterministically**: Zipfian
//! hot-key skew, bursty open-loop arrivals, corrupted and truncated frames,
//! oversized length prefixes, mid-stream client disconnects, abrupt
//! transport closes, short reads, and poisoned events whose handlers panic.
//! Each attack is seeded through [`DetRng`] streams, so a scenario is a pure
//! function of its [`ChaosConfig`] — the same seed produces byte-identical
//! [`ChaosReport`]s across runs, worker counts, and all four executors,
//! which is exactly what the property tests and CI pin.
//!
//! The module provides three layers:
//!
//! * **Generators** — [`Zipf`], [`adversarial_events`], [`poison_schedule`]:
//!   deterministic hostile traffic.
//! * **Fault injection** — [`FaultPlan`] / [`FaultTransport`]: a wrapper
//!   over any [`Transport`] that corrupts, truncates, closes, or
//!   short-reads at seeded points. [`FaultPlan::action`] is a pure function
//!   of the frame index, so a driver can replay the plan and predict
//!   exactly what the wire carried.
//! * **Scenarios** — [`run_chaos`] drives one [`Scenario`] against an
//!   executor-backed [`ChaosService`] and *verifies* the surviving state
//!   against the sequential [`reference_aggregate`] fold: survival is not
//!   "did not crash" but "every dispatched event is accounted for and no
//!   other key lost anything".
//!
//! The invariants each scenario pins:
//!
//! | scenario     | hostile input                         | pinned invariant |
//! |--------------|---------------------------------------|------------------|
//! | `zipf`       | hot-key skew (tunable `s`)            | aggregate equals the reference fold; every ack digest verifies |
//! | `burst`      | open-loop bursts, acks read late      | serve holds ≤ `window` calls in flight; nothing lost |
//! | `malformed`  | corrupt/truncated frames, wire blobs  | typed `Protocol` errors per connection; decodable prefix still counted; clean reconnect works |
//! | `disconnect` | mid-stream drops, injected closes     | abandoned replies never poison state; later aggregate sees every dispatched event |
//! | `panic`      | poisoned handlers at a seeded rate    | `ACK_PANICKED` for poisoned events only; all other keys' aggregates intact |
//! | `recover`    | injected close kills a WAL-logged server, then a seeded torn cut | recovery replays an exact prefix, never behind a sync point; snapshot+suffix replay equals full-log replay |

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pdq_core::executor::{Executor, ExecutorExt, TypedFuture};
use pdq_dsm::{BlockAddr, ProtocolEvent};
use pdq_sim::DetRng;

use crate::protocol_server::{
    mixed_events, reference_aggregate, ServerAggregate, ServerError, ServerState,
};
use crate::server::{serve_pool, PoolOptions};
use crate::service::{
    decode_request, encode_aggregate_request, encode_event_request, run_window, serve_durable,
    Client, Durability, Expect, Finish, ProtocolService, Reply, WireRequest,
};
use crate::transport::{loopback_pair, LoopbackTransport, Transport, MAX_FRAME_LEN};
use crate::wal::{replay, scan_bytes, scan_bytes_full, SharedSink, WalFaultPlan, WalWriter};

/// `DetRng` stream id for adversarial event generation.
const EVENT_STREAM: u64 = 0xc4a0_5e7e;
/// `DetRng` stream id for the poison schedule.
const POISON_STREAM: u64 = 0x7071_50ed;
/// `DetRng` stream id base for per-frame fault decisions.
const FAULT_STREAM: u64 = 0xfa17_0b57;
/// `DetRng` stream id for the recover scenario's torn-cut byte.
const RECOVER_STREAM: u64 = 0x4ec0_fa17;

// ---------------------------------------------------------------------------
// Traffic generators
// ---------------------------------------------------------------------------

/// A Zipfian sampler over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1/(k+1)^s`. At `s = 0` it degenerates to uniform; the
/// larger `s`, the hotter rank 0 — the hot-key regime where dispatch-time
/// synchronization on the hot block serializes a growing share of the
/// stream.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Normalized cumulative weights; `cdf[k]` is `P(rank <= k)`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with skew parameter `s`.
    pub fn new(n: u64, s: f64) -> Self {
        let n = n.max(1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u);
        rank.min(self.cdf.len() - 1) as u64
    }
}

/// Generates `cfg.events` protocol events whose block references follow a
/// Zipfian distribution of parameter `cfg.zipf_s` (rank 0 is the hottest
/// block), with the same event-kind mix as
/// [`generate_events`](crate::generate_events): half access faults, most of
/// the rest incoming coherence messages of every kind, and an occasional
/// `Sequential`-keyed page operation.
pub fn adversarial_events(cfg: &ChaosConfig) -> Vec<ProtocolEvent> {
    let zipf = Zipf::new(cfg.blocks.max(1), cfg.zipf_s);
    let rng = DetRng::stream(cfg.seed, EVENT_STREAM);
    mixed_events(rng, cfg.events, cfg.blocks.max(1), cfg.nodes, |rng| {
        zipf.sample(rng)
    })
}

/// The seeded poison schedule: `true` at index `i` means the handler for the
/// `i`-th dispatched call panics before touching server state.
pub fn poison_schedule(seed: u64, events: usize, rate: f64) -> Vec<bool> {
    let mut rng = DetRng::stream(seed, POISON_STREAM);
    (0..events).map(|_| rng.chance(rate)).collect()
}

// ---------------------------------------------------------------------------
// Fault injection at the transport layer
// ---------------------------------------------------------------------------

/// What a [`FaultPlan`] decided to do with one outbound frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the payload unchanged.
    Deliver,
    /// Deliver this mutated copy instead (one flipped bit, or a truncated
    /// tail).
    Mutate(Vec<u8>),
    /// Fail the send as an abrupt close; every later operation on the
    /// transport fails too.
    Close,
}

/// A seeded plan of transport-level faults: byte corruption and payload
/// truncation at per-frame seeded probabilities, an abrupt close after a
/// fixed number of sends, and an injected short read after a fixed number of
/// receives.
///
/// Decisions are a pure function of `(seed, frame index)` — independent of
/// call timing — so a driver holding the same plan can predict exactly which
/// frames the wire carried and in what shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-frame fault decisions.
    pub seed: u64,
    /// Probability that a sent frame has one bit flipped.
    pub corrupt_rate: f64,
    /// Probability that a sent frame's payload is truncated (checked only
    /// when the frame was not corrupted).
    pub truncate_rate: f64,
    /// After this many successful sends, the next send fails as an abrupt
    /// close and the transport stays dead.
    pub close_after_sends: Option<u64>,
    /// After this many successful receives, the next receive fails as a
    /// short read ([`io::ErrorKind::UnexpectedEof`]) and the transport stays
    /// dead.
    pub fail_recv_after: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing: the identity wrapper.
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            close_after_sends: None,
            fail_recv_after: None,
        }
    }

    /// Decides the fate of the `index`-th sent frame. Pure: the same plan,
    /// index, and payload always produce the same action.
    pub fn action(&self, index: u64, payload: &[u8]) -> FaultAction {
        if let Some(n) = self.close_after_sends {
            if index >= n {
                return FaultAction::Close;
            }
        }
        let mut rng = DetRng::stream(self.seed, FAULT_STREAM ^ index.wrapping_mul(0x9e37));
        if !payload.is_empty() && rng.chance(self.corrupt_rate) {
            let mut mutated = payload.to_vec();
            let at = rng.next_below(mutated.len() as u64) as usize;
            mutated[at] ^= 1 << rng.next_below(8);
            return FaultAction::Mutate(mutated);
        }
        if !payload.is_empty() && rng.chance(self.truncate_rate) {
            let mut mutated = payload.to_vec();
            let keep = rng.next_below(mutated.len() as u64) as usize;
            mutated.truncate(keep);
            return FaultAction::Mutate(mutated);
        }
        FaultAction::Deliver
    }
}

/// A [`Transport`] wrapper executing a [`FaultPlan`]: frames pass through
/// `inner` unless the plan corrupts, truncates, or closes; receives succeed
/// until the plan injects a short read. Once a close or short read fires the
/// transport stays dead — every later operation is a typed I/O error, like a
/// real broken socket.
#[derive(Debug)]
pub struct FaultTransport<T> {
    inner: T,
    plan: FaultPlan,
    sends: u64,
    recvs: u64,
    closed: bool,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            sends: 0,
            recvs: 0,
            closed: false,
        }
    }

    /// Frames offered for sending so far (including the failing one).
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Frames received successfully so far.
    pub fn recvs(&self) -> u64 {
        self.recvs
    }

    fn dead(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "fault injection: transport closed",
        )
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.closed {
            return Err(self.dead());
        }
        let index = self.sends;
        self.sends += 1;
        match self.plan.action(index, payload) {
            FaultAction::Deliver => self.inner.send(payload),
            FaultAction::Mutate(mutated) => self.inner.send(&mutated),
            FaultAction::Close => {
                self.closed = true;
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "fault injection: abrupt close on send",
                ))
            }
        }
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.closed {
            return Err(self.dead());
        }
        if let Some(n) = self.plan.fail_recv_after {
            if self.recvs >= n {
                self.closed = true;
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "fault injection: short read",
                ));
            }
        }
        let frame = self.inner.recv()?;
        self.recvs += 1;
        Ok(frame)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.closed {
            return Err(self.dead());
        }
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// The chaos service
// ---------------------------------------------------------------------------

/// Records the order in which block-keyed handlers actually ran, one log per
/// block, for the per-key FIFO property tests.
#[derive(Debug)]
pub struct KeyOrderRecorder {
    orders: Vec<Mutex<Vec<u64>>>,
}

impl KeyOrderRecorder {
    /// Creates empty logs for `blocks` blocks.
    pub fn new(blocks: u64) -> Self {
        Self {
            orders: (0..blocks.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Appends dispatch sequence number `seq` to `block`'s log. Called from
    /// the handler, so entries land in actual execution order.
    pub fn record(&self, block: BlockAddr, seq: u64) {
        let idx = (block.0 % self.orders.len() as u64) as usize;
        self.orders[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(seq);
    }

    /// The execution-order log for `block`.
    pub fn order(&self, block: u64) -> Vec<u64> {
        let idx = (block % self.orders.len() as u64) as usize;
        self.orders[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A [`ProtocolService`] over any [`Executor`] with fault hooks: a seeded
/// poison schedule makes selected handlers panic *before* touching server
/// state (so every non-poisoned key's aggregate stays exact), and an
/// optional [`KeyOrderRecorder`] logs actual per-key execution order.
///
/// Unlike [`ExecutorService`](crate::ExecutorService), the aggregate uses an
/// *internal* completion counter rather than the driver-observed count:
/// adversarial connections abandon in-flight replies, whose handlers still
/// complete — the service is the only party that can still count them.
pub struct ChaosService<'a> {
    executor: &'a dyn Executor,
    state: Arc<ServerState>,
    poison: Arc<Vec<bool>>,
    recorder: Option<Arc<KeyOrderRecorder>>,
    calls: AtomicU64,
    completed: Arc<AtomicU64>,
}

impl std::fmt::Debug for ChaosService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosService")
            .field("executor", &self.executor.name())
            .field("calls", &self.calls.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'a> ChaosService<'a> {
    /// Creates a service over `executor` with fresh state for `blocks`
    /// blocks and no faults armed.
    pub fn new(executor: &'a dyn Executor, blocks: u64) -> Self {
        Self {
            executor,
            state: Arc::new(ServerState::new(blocks)),
            poison: Arc::new(Vec::new()),
            recorder: None,
            calls: AtomicU64::new(0),
            completed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Arms the poison schedule: call `i` panics when `poison[i]` is true.
    #[must_use]
    pub fn with_poison(mut self, poison: Vec<bool>) -> Self {
        self.poison = Arc::new(poison);
        self
    }

    /// Attaches an execution-order recorder.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<KeyOrderRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Total calls dispatched through this service, across all connections.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Handlers that ran to completion (not poisoned, not abandoned before
    /// execution).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }
}

impl ProtocolService for ChaosService<'_> {
    fn call(&self, request: ProtocolEvent) -> TypedFuture<Reply> {
        // The serve loop is single-threaded per connection and scenarios run
        // connections sequentially, so this sequence number equals the
        // arrival order of the event — which is what the poison schedule and
        // the FIFO assertions are indexed by.
        let seq = self.calls.fetch_add(1, Ordering::SeqCst);
        let poisoned = self.poison.get(seq as usize).copied().unwrap_or(false);
        let state = Arc::clone(&self.state);
        let completed = Arc::clone(&self.completed);
        let recorder = self.recorder.clone();
        self.executor
            .submit_async_returning(request.sync_key(), move || {
                if let Some(rec) = &recorder {
                    match &request {
                        ProtocolEvent::AccessFault { block, .. } => rec.record(*block, seq),
                        ProtocolEvent::Incoming { msg, .. } => rec.record(msg.block(), seq),
                        ProtocolEvent::PageOp { .. } => {}
                    }
                }
                if poisoned {
                    panic!("chaos: poisoned event {seq}");
                }
                state.handle(&request);
                completed.fetch_add(1, Ordering::Relaxed);
                Reply::for_event(&request)
            })
    }

    fn flush(&self) {
        self.executor.flush();
    }

    fn aggregate(&self, _driver_completed: u64) -> ServerAggregate {
        self.state.aggregate(self.completed.load(Ordering::SeqCst))
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        Some(self.state.snapshot_words())
    }
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// One adversarial scenario of the chaos harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Zipfian hot-key skew through the windowed client.
    Zipf,
    /// Open-loop bursts that read acks only between bursts.
    Burst,
    /// Corrupted/truncated frames and hostile wire blobs.
    Malformed,
    /// Mid-stream client disconnects and injected transport failures.
    Disconnect,
    /// Poisoned events whose handlers panic under load.
    Panic,
    /// A mid-stream kill of a WAL-logged server followed by a torn-cut
    /// recovery replay.
    Recover,
}

impl Scenario {
    /// Every scenario, in the order `--scenario all` runs them.
    pub const ALL: [Scenario; 6] = [
        Scenario::Zipf,
        Scenario::Burst,
        Scenario::Malformed,
        Scenario::Disconnect,
        Scenario::Panic,
        Scenario::Recover,
    ];

    /// Parses a scenario name as used by `examples/chaos.rs --scenario`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "zipf" => Some(Self::Zipf),
            "burst" => Some(Self::Burst),
            "malformed" => Some(Self::Malformed),
            "disconnect" => Some(Self::Disconnect),
            "panic" => Some(Self::Panic),
            "recover" => Some(Self::Recover),
            _ => None,
        }
    }

    /// The scenario's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Zipf => "zipf",
            Self::Burst => "burst",
            Self::Malformed => "malformed",
            Self::Disconnect => "disconnect",
            Self::Panic => "panic",
            Self::Recover => "recover",
        }
    }
}

/// Configuration of one chaos run: the scenario's traffic, faults, and
/// outcome are a pure function of this value (plus the executor's key
/// contract, which is the thing under test).
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Which scenario to run.
    pub scenario: Scenario,
    /// Seed for traffic, poison, and fault streams.
    pub seed: u64,
    /// Number of protocol events in the scenario's stream.
    pub events: usize,
    /// Nodes appearing as message sources.
    pub nodes: usize,
    /// Distinct cache blocks (synchronization keys).
    pub blocks: u64,
    /// Zipf skew parameter for block references.
    pub zipf_s: f64,
    /// Frames per open-loop burst (burst scenario).
    pub burst: usize,
    /// Poison probability per event (panic scenario).
    pub poison_rate: f64,
    /// The server's reply window.
    pub window: usize,
}

impl ChaosConfig {
    /// The default chaos configuration for `scenario`: 4 000 events over 64
    /// blocks with strong skew (`s = 1.2`), a reply window of 32, bursts of
    /// 96 frames, and a 5% poison rate.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            seed: 0x0dd5_eed5,
            events: 4_000,
            nodes: 8,
            blocks: 64,
            zipf_s: 1.2,
            burst: 96,
            poison_rate: 0.05,
            window: 32,
        }
    }

    /// A test-sized configuration (600 events).
    pub fn quick(scenario: Scenario) -> Self {
        Self {
            events: 600,
            ..Self::new(scenario)
        }
    }

    /// Replaces the seed, keeping everything else.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the event count, keeping everything else.
    #[must_use]
    pub fn events(mut self, events: usize) -> Self {
        self.events = events.max(1);
        self
    }

    /// Replaces the reply window, keeping everything else.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(2);
        self
    }

    /// Replaces the Zipf skew parameter, keeping everything else.
    #[must_use]
    pub fn zipf_s(mut self, s: f64) -> Self {
        self.zipf_s = s;
        self
    }

    /// Replaces the burst length, keeping everything else.
    #[must_use]
    pub fn burst(mut self, burst: usize) -> Self {
        self.burst = burst.max(1);
        self
    }

    /// Replaces the poison rate, keeping everything else.
    #[must_use]
    pub fn poison_rate(mut self, rate: f64) -> Self {
        self.poison_rate = rate;
        self
    }
}

/// Outcome of one chaos scenario on one executor. Deliberately contains no
/// executor name, worker count, or timing: equal configurations must render
/// byte-identical JSON whatever ran them, and CI diffs exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The scenario that ran.
    pub scenario: &'static str,
    /// Frames offered to the server, including hostile ones.
    pub frames_sent: u64,
    /// Events the server actually dispatched (the aggregate's event count).
    pub handled: u64,
    /// Handlers that ran to completion.
    pub completed: u64,
    /// Handlers that panicked on poisoned events.
    pub panicked: u64,
    /// Connections torn down with a typed [`ServerError::Protocol`].
    pub protocol_errors: u64,
    /// Connections torn down with a typed [`ServerError::Io`].
    pub io_errors: u64,
    /// Client-initiated disconnects the server survived cleanly.
    pub disconnects: u64,
    /// The surviving aggregate, verified against the sequential reference.
    pub aggregate: ServerAggregate,
}

impl ChaosReport {
    /// The report of a run of `scenario` that offered `frames_sent` frames
    /// and ended with `aggregate`, with no hostile outcome counted yet.
    fn new(scenario: Scenario, frames_sent: u64, aggregate: ServerAggregate) -> Self {
        Self {
            scenario: scenario.name(),
            frames_sent,
            handled: aggregate.events,
            completed: aggregate.completed,
            panicked: 0,
            protocol_errors: 0,
            io_errors: 0,
            disconnects: 0,
            aggregate,
        }
    }

    /// The report as a JSON document with a stable field order, so equal
    /// reports render byte-identically (CI diffs these files across
    /// executors, and the determinism tests across runs and worker counts).
    pub fn to_json_string(&self) -> String {
        let agg = self.aggregate.to_json_string();
        let agg = agg.trim_end().replace('\n', "\n  ");
        format!(
            "{{\n  \"scenario\": \"{}\",\n  \"frames_sent\": {},\n  \"handled\": {},\n  \
             \"completed\": {},\n  \"panicked\": {},\n  \"protocol_errors\": {},\n  \
             \"io_errors\": {},\n  \"disconnects\": {},\n  \"aggregate\": {}\n}}\n",
            self.scenario,
            self.frames_sent,
            self.handled,
            self.completed,
            self.panicked,
            self.protocol_errors,
            self.io_errors,
            self.disconnects,
            agg,
        )
    }
}

/// The ack a chaos client expects for event `index`: `ACK_PANICKED` where
/// `poison` marks the event, otherwise exactly the event's reply — a
/// panicked ack where nothing was poisoned is a mismatch.
fn expect_ack(poison: &[bool]) -> impl Fn(usize, &ProtocolEvent) -> Expect + '_ {
    |index, event| {
        if poison.get(index).copied().unwrap_or(false) {
            Expect::Panic
        } else {
            Expect::Done(Reply::for_event(event))
        }
    }
}

/// Streams `events` in bursts of `burst` through the shared windowed client
/// ([`run_window`]), verifying every ack, then fetches the aggregate.
/// Returns the aggregate and the number of panicked acks.
fn fetch_run(
    transport: &mut dyn Transport,
    events: &[ProtocolEvent],
    poison: &[bool],
    window: usize,
    burst: usize,
) -> Result<(ServerAggregate, u64), ServerError> {
    let expect = expect_ack(poison);
    let (report, aggregate) =
        run_window(transport, events, expect, window, burst, Finish::Aggregate)?;
    let aggregate = aggregate.expect("an aggregate run returns the aggregate");
    Ok((aggregate, report.panicked))
}

/// Serves one loopback connection with reply window `window` on a scoped
/// thread (behind a [`FaultTransport`] when `server_fault` is set) while
/// `client` drives the other end on this thread. Returns both outcomes, so
/// each side's error is charged to that side: the server's end is dropped
/// when it returns, so a client send after the server died fails in the
/// client, never in the server's result.
fn over_loopback<T>(
    service: &dyn ProtocolService,
    window: usize,
    server_fault: Option<FaultPlan>,
    client: impl FnOnce(LoopbackTransport) -> Result<T, ServerError>,
) -> (Result<u64, ServerError>, Result<T, ServerError>) {
    let (client_end, server_end) = loopback_pair();
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            // `FaultPlan::clean` is the identity wrapper.
            let plan = server_fault.unwrap_or(FaultPlan::clean(0));
            let mut server_end = FaultTransport::new(server_end, plan);
            serve_durable(service, &mut server_end, window, Durability::Off)
        });
        let client = client(client_end);
        (server.join().expect("server thread"), client)
    })
}

/// Writes `blob` raw over a fresh TCP connection to a pool server (reply
/// window `window`, one accepted connection) and hangs up. The server must
/// tear the connection down with a typed [`ServerError::Protocol`];
/// anything else fails the scenario, naming `what` was sent.
fn hostile_tcp_blob(
    service: &dyn ProtocolService,
    window: usize,
    blob: &[u8],
    what: &str,
) -> Result<(), ServerError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(ServerError::Io)?;
    let addr = listener.local_addr().map_err(ServerError::Io)?;
    let served = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_pool(&listener, service, &PoolOptions::new(1, window)));
        let sent = TcpStream::connect(addr).and_then(|mut stream| stream.write_all(blob));
        sent.map_err(ServerError::Io)
            .and(server.join().expect("server thread"))
    });
    match served {
        Err(ServerError::Protocol(_)) => Ok(()),
        other => Err(ServerError::Protocol(format!(
            "{what} yielded {other:?} instead of a protocol error"
        ))),
    }
}

/// Fails the scenario if the surviving aggregate does not equal the
/// sequential reference fold.
fn expect_reference(
    scenario: Scenario,
    got: &ServerAggregate,
    want: &ServerAggregate,
) -> Result<(), ServerError> {
    if got == want {
        Ok(())
    } else {
        Err(ServerError::Protocol(format!(
            "{}: surviving aggregate diverged from the sequential reference \
             (got {} events / checksum {:#x}, want {} events / checksum {:#x})",
            scenario.name(),
            got.events,
            got.block_checksum,
            want.events,
            want.block_checksum,
        )))
    }
}

/// Runs one chaos scenario against `executor` and returns its report.
///
/// Every scenario *verifies* its outcome before returning: ack digests are
/// checked in order, hostile connections must fail with the typed error the
/// driver predicted, and the surviving aggregate must equal the sequential
/// [`reference_aggregate`] fold of exactly the events the server dispatched.
/// The report is a pure function of `cfg` — independent of the executor,
/// its worker count, and scheduling — so chaos reports can be byte-diffed
/// across all four executors.
///
/// # Errors
///
/// Any unexpected outcome: a connection that should have failed but did
/// not, an ack that does not verify, an aggregate that diverged from the
/// reference, or a transport error outside the injected faults.
pub fn run_chaos(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    // The sliding-window client sizes its window off the server's, so the
    // pipeline never deadlocks.
    let sliding = cfg.window * 2 + 8;
    match cfg.scenario {
        Scenario::Zipf => run_streamed(executor, cfg, &[], sliding, 1),
        Scenario::Burst => run_streamed(executor, cfg, &[], cfg.window, cfg.burst),
        Scenario::Malformed => run_malformed(executor, cfg),
        Scenario::Disconnect => run_disconnect(executor, cfg),
        Scenario::Panic => {
            let poison = poison_schedule(cfg.seed, cfg.events, cfg.poison_rate);
            run_streamed(executor, cfg, &poison, sliding, 1)
        }
        Scenario::Recover => run_recover(executor, cfg),
    }
}

/// The scenarios that stream the whole event stream through the shared
/// windowed client in bursts of `burst`, reading acks whenever `window` are
/// unanswered, and verify the aggregate against the reference fold of the
/// events `poison` leaves alone:
///
/// * **zipf** — Zipfian hot-key skew through the well-behaved sliding-window
///   client (one frame per burst): the baseline adversarial load. Pins that
///   extreme same-key contention loses nothing and reorders nothing
///   observably.
/// * **burst** — open-loop bursty arrivals: the client fires `cfg.burst`
///   frames at a time without reading, then drains only the acks the server
///   was *forced* to emit (the serve loop acks the oldest call exactly when
///   its window fills, so a client window equal to the server's leaves
///   `window - 1` unread). Pins the serve loop's bounded buffering: the
///   flood lands in transport buffers, never in unbounded server state, and
///   nothing is lost.
/// * **panic** — poisoned events whose handlers panic at the seeded rate,
///   under the full windowed load. Pins panic containment: poisoned events
///   ack as `ACK_PANICKED` in order, and the aggregate equals the reference
///   fold of exactly the non-poisoned events — no other key loses anything.
fn run_streamed(
    executor: &dyn Executor,
    cfg: &ChaosConfig,
    poison: &[bool],
    window: usize,
    burst: usize,
) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks).with_poison(poison.to_vec());
    let (served, client) = over_loopback(&service, cfg.window, None, |mut t| {
        fetch_run(&mut t, &events, poison, window, burst)
    });
    served?;
    let (aggregate, panicked) = client?;
    let expected_panics = poison.iter().filter(|&&p| p).count() as u64;
    if panicked != expected_panics {
        return Err(ServerError::Protocol(format!(
            "{}: {panicked} handlers panicked, poison schedule has {expected_panics}",
            cfg.scenario.name()
        )));
    }
    let survivors = events
        .iter()
        .enumerate()
        .filter(|&(i, _)| !poison.get(i).copied().unwrap_or(false))
        .map(|(_, e)| e);
    let reference = reference_aggregate(survivors, cfg.blocks);
    expect_reference(cfg.scenario, &aggregate, &reference)?;
    Ok(ChaosReport {
        panicked,
        ..ChaosReport::new(cfg.scenario, events.len() as u64 + 1, aggregate)
    })
}

/// The hostile raw byte streams thrown at a TCP connection in the malformed
/// scenario, each expected to tear down its connection with a typed
/// [`ServerError::Protocol`].
fn hostile_wire_blobs() -> Vec<(&'static str, Vec<u8>)> {
    let frame = |payload: &[u8]| {
        let mut v = (payload.len() as u32).to_le_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    };
    vec![
        (
            "oversized length prefix",
            (MAX_FRAME_LEN + 1).to_le_bytes().to_vec(),
        ),
        ("16 MiB claim, 3 bytes delivered", {
            let mut v = MAX_FRAME_LEN.to_le_bytes().to_vec();
            v.extend_from_slice(&[1, 2, 3]);
            v
        }),
        ("partial length prefix", vec![0x2A, 0x00]),
        ("unknown request tag", frame(&[0x7F, 1, 2, 3, 4])),
        (
            "trailing bytes after aggregate request",
            frame(&[0x02, 0x00]),
        ),
    ]
}

/// Corrupted and truncated frames (via [`FaultTransport`] on the client
/// side) plus raw hostile wire blobs over TCP, then a clean reconnect. Pins
/// per-frame rejection with clean connection teardown: the decodable prefix
/// of the faulted stream still counts, every hostile blob yields a typed
/// protocol error, and a well-behaved client afterwards sees exact state.
fn run_malformed(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks);
    let mut frames_sent = 0u64;
    let mut protocol_errors = 0u64;

    // Phase A — the event stream through a corrupting/truncating transport.
    // Replay the plan to predict exactly what the server will decode: the
    // prefix of frames that still decode as events is dispatched; the first
    // undecodable frame tears the connection down.
    let plan = FaultPlan {
        seed: cfg.seed,
        corrupt_rate: 0.06,
        truncate_rate: 0.04,
        close_after_sends: None,
        fail_recv_after: None,
    };
    let frames: Vec<Vec<u8>> = events.iter().map(encode_event_request).collect();
    let mut dispatched: Vec<ProtocolEvent> = Vec::new();
    let mut expect_error = false;
    for (i, frame) in frames.iter().enumerate() {
        let wire = match plan.action(i as u64, frame) {
            FaultAction::Deliver => frame.clone(),
            FaultAction::Mutate(mutated) => mutated,
            FaultAction::Close => break,
        };
        match decode_request(&wire) {
            Ok(WireRequest::Event(event)) => dispatched.push(event),
            // A one-bit flip cannot turn REQ_EVENT (0x01) into REQ_AGGREGATE
            // (0x02) or REQ_METRICS (0x04) — both differ in two bits — and a
            // flip to REQ_DRAIN (0x03) leaves the event body as trailing
            // bytes (a decode error), so these arms are unreachable for the
            // plan above; treat them as a driver bug.
            Ok(WireRequest::Aggregate | WireRequest::Drain | WireRequest::Metrics) => {
                return Err(ServerError::Protocol(
                    "malformed: mutation produced a control request".into(),
                ))
            }
            Err(_) => {
                expect_error = true;
                break;
            }
        }
    }
    // A window larger than the stream: the server never acks mid-stream, so
    // the faulted client reads nothing. The server tears the connection down
    // at the first bad frame; the client still offers (and counts) every
    // frame.
    let (served, client) = over_loopback(&service, events.len() + 2, None, |t| {
        let mut faulted = FaultTransport::new(t, plan);
        let expect = expect_ack(&[]);
        run_window(
            &mut faulted,
            &events,
            expect,
            usize::MAX,
            usize::MAX,
            Finish::Vanish,
        )
    });
    frames_sent += client?.0.sent;
    match (expect_error, served) {
        (true, Err(ServerError::Protocol(_))) => protocol_errors += 1,
        (false, Ok(_)) => {}
        (want_err, other) => {
            return Err(ServerError::Protocol(format!(
                "malformed: faulted stream outcome {other:?} (expected error: {want_err})"
            )))
        }
    }

    // Phase B — raw hostile byte blobs over real TCP connections. Every one
    // must surface as a typed protocol violation, never a panic or a hang.
    for (label, blob) in hostile_wire_blobs() {
        frames_sent += 1;
        hostile_tcp_blob(
            &service,
            cfg.window,
            &blob,
            &format!("malformed: blob `{label}`"),
        )?;
        protocol_errors += 1;
    }

    // Phase C — clean reconnect: the full event stream through a
    // well-behaved windowed client. The aggregate must account for the
    // faulted phase's decodable prefix plus this clean stream, exactly.
    let (served, client) = over_loopback(&service, cfg.window, None, |mut t| {
        fetch_run(&mut t, &events, &[], cfg.window * 2 + 8, 1)
    });
    served?;
    let (aggregate, _) = client?;
    frames_sent += events.len() as u64 + 1;
    let reference = reference_aggregate(dispatched.iter().chain(events.iter()), cfg.blocks);
    expect_reference(cfg.scenario, &aggregate, &reference)?;
    Ok(ChaosReport {
        protocol_errors,
        ..ChaosReport::new(cfg.scenario, frames_sent, aggregate)
    })
}

/// Acks the disconnect scenario's injected close lets escape: the server's
/// transport closes on its third send, after two acks.
const ESCAPED_ACKS: u64 = 2;

/// Sub-case 1 of the disconnect scenario: floods `flood` at a server whose
/// sending side closes abruptly after [`ESCAPED_ACKS`] acks. The flood may
/// still be arriving when the server dies, so the client keeps offering every
/// frame, reads the acks that escaped until the server closes, and verifies
/// them. `wrap` wraps the client's end of the connection (the identity in
/// the scenario). Returns the frames the client offered.
fn flood_into_injected_close<T: Transport>(
    service: &dyn ProtocolService,
    flood: &[ProtocolEvent],
    window: usize,
    seed: u64,
    wrap: impl FnOnce(LoopbackTransport) -> T,
) -> Result<u64, ServerError> {
    let plan = FaultPlan {
        close_after_sends: Some(ESCAPED_ACKS),
        ..FaultPlan::clean(seed)
    };
    let (served, client) = over_loopback(service, window, Some(plan), |t| {
        let mut client_end = wrap(t);
        let expect = expect_ack(&[]);
        run_window(
            &mut client_end,
            flood,
            expect,
            usize::MAX,
            usize::MAX,
            Finish::Close,
        )
    });
    let (report, _) = client?;
    if report.acked != ESCAPED_ACKS {
        return Err(ServerError::Protocol(format!(
            "disconnect: {} acks escaped the injected close, expected {ESCAPED_ACKS}",
            report.acked
        )));
    }
    match served {
        Err(ServerError::Io(_)) => Ok(report.sent),
        other => Err(ServerError::Protocol(format!(
            "disconnect: injected close yielded {other:?} instead of an I/O error"
        ))),
    }
}

/// Mid-stream client disconnects plus injected transport failures on the
/// server side. Pins that abandoned in-flight replies never poison state:
/// every event the server dispatched before each disconnect is present in
/// the final aggregate, fetched over a fresh connection.
fn run_disconnect(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks);
    let w = cfg.window.max(2);
    let mut frames_sent = 0u64;
    let mut disconnects = 0u64;
    let mut protocol_errors = 0u64;

    // Partition the stream: a flood segment for the injected-close
    // connection, a tail for the ack-then-drop connection, and the rest for
    // plain send-and-vanish connections.
    let flood_len = (w + 10).min(events.len());
    let (flood, rest) = events.split_at(flood_len);
    let tail_len = (w + 5).min(rest.len());
    let (tail, dropped) = rest.split_at(tail_len);

    // Sub-case 1 — abrupt close injected on the server's sending side. The
    // server dispatches exactly window + 2 events before the failure (one
    // new frame per ack after the window first fills).
    let expected_flood_dispatch = (w + ESCAPED_ACKS as usize).min(flood.len());
    frames_sent += flood_into_injected_close(&service, flood, w, cfg.seed, |t| t)?;

    // Sub-case 2 — ack-then-drop: the client streams the tail as one burst,
    // blocks until it has read every ack the server was forced to emit (so
    // the server has consumed the whole tail), then vanishes without
    // draining the window. The abandoned in-flight replies must still
    // execute.
    //
    // Sub-case 3 — send-and-vanish: each connection streams fewer frames
    // than the window (so no ack is ever due) and drops. The server sees a
    // clean EOF with the whole slice in flight and abandons the replies.
    for slice in std::iter::once(tail).chain(dropped.chunks(w - 1)) {
        let (served, client) = over_loopback(&service, w, None, |mut t| {
            let expect = expect_ack(&[]);
            run_window(&mut t, slice, expect, w, slice.len(), Finish::Vanish)
        });
        served?;
        frames_sent += client?.0.sent;
        disconnects += 1;
    }

    // Sub-case 4 — mid-frame TCP disconnect: two bytes of a length prefix,
    // then gone. A typed protocol violation, zero events dispatched.
    frames_sent += 1;
    hostile_tcp_blob(&service, w, &[0x08, 0x00], "disconnect: mid-frame close")?;
    protocol_errors += 1;

    // Final connection — nothing but an aggregate request. Its serve path
    // flushes the service first, so every abandoned in-flight handler from
    // the connections above has completed before the fold is read.
    let (served, client) =
        over_loopback(&service, w, None, |mut t| fetch_run(&mut t, &[], &[], w, 1));
    served?;
    let (aggregate, _) = client?;
    frames_sent += 1;
    let reference = reference_aggregate(
        flood[..expected_flood_dispatch]
            .iter()
            .chain(tail.iter())
            .chain(dropped.iter()),
        cfg.blocks,
    );
    expect_reference(cfg.scenario, &aggregate, &reference)?;
    Ok(ChaosReport {
        protocol_errors,
        io_errors: 1,
        disconnects,
        ..ChaosReport::new(cfg.scenario, frames_sent, aggregate)
    })
}

/// Kills a WAL-logged server mid-stream with an injected transport close,
/// cuts the log image at a seeded byte inside the unsynced tail (a torn
/// write, possibly mid-record), recovers, and replays. Pins the durability
/// contract end to end: the recovered aggregate equals the sequential
/// reference fold of an *exact prefix* of the appended events, the prefix is
/// never shorter than the last sync point, and a snapshot+suffix replay is
/// byte-identical to replaying the full log.
fn run_recover(executor: &dyn Executor, cfg: &ChaosConfig) -> Result<ChaosReport, ServerError> {
    let events = adversarial_events(cfg);
    let service = ChaosService::new(executor, cfg.blocks);
    let window = cfg.window.max(2);
    let sink = SharedSink::new();
    let mut wal = WalWriter::new(sink.clone(), cfg.blocks).map_err(ServerError::Io)?;

    // Queue the whole stream up front (the loopback channel is unbounded),
    // so the serve loop runs inline on this thread and dies at a point that
    // is a pure function of the config. The trailing aggregate requests
    // force replies even when the stream is shorter than the reply window,
    // so the close always fires.
    let (mut client_end, server_end) = loopback_pair();
    let mut client = Client::new(Finish::Close, false);
    client.stream(
        &mut client_end,
        &events,
        expect_ack(&[]),
        usize::MAX,
        usize::MAX,
    )?;
    for _ in 0..3 {
        client_end
            .send(&encode_aggregate_request())
            .map_err(ServerError::Io)?;
    }
    let frames_sent = events.len() as u64 + 3;
    let plan = FaultPlan {
        close_after_sends: Some(2),
        ..FaultPlan::clean(cfg.seed)
    };
    let mut hostile = FaultTransport::new(server_end, plan);
    let outcome = serve_durable(
        &service,
        &mut hostile,
        window,
        Durability::LogSnapshot {
            wal: &mut wal,
            sync_every: 8,
            snapshot_every: 16,
        },
    );
    drop(hostile);
    match outcome {
        Err(ServerError::Io(_)) => {}
        other => {
            return Err(ServerError::Protocol(format!(
                "recover: the injected close must kill the server mid-stream, got {other:?}"
            )))
        }
    }
    // The replies that escaped before the close (at most two, possibly an
    // aggregate reply when the stream is short) must still verify in order;
    // anything owed after them died with the server.
    client.finish(&mut client_end)?;

    // Cut the image at a seeded byte inside the unsynced tail: never behind
    // the last sync point (everything up to it is durable), possibly in the
    // middle of a record (a torn write the scan must truncate).
    let mut rng = DetRng::stream(cfg.seed, RECOVER_STREAM);
    let tail = wal.bytes() - wal.synced_bytes();
    let cut = wal.synced_bytes() + rng.next_below(tail + 1);
    let image = WalFaultPlan {
        cut_at: Some(cut),
        flip: None,
    }
    .apply(&sink.image());
    let recovery = scan_bytes(&image);
    if recovery.blocks != cfg.blocks
        || recovery.total_events < wal.synced_events()
        || recovery.total_events > wal.events()
    {
        return Err(ServerError::Protocol(format!(
            "recover: scan kept {} events of {} appended ({} synced), header blocks {}",
            recovery.total_events,
            wal.events(),
            wal.synced_events(),
            recovery.blocks,
        )));
    }
    let recovered = replay(&recovery, executor)?;
    let full = replay(&scan_bytes_full(&image), executor)?;
    if recovered != full {
        return Err(ServerError::Protocol(
            "recover: snapshot+suffix replay diverged from full-log replay".into(),
        ));
    }
    let prefix = &events[..recovery.total_events as usize];
    let reference = reference_aggregate(prefix.iter(), cfg.blocks);
    expect_reference(cfg.scenario, &recovered, &reference)?;
    Ok(ChaosReport {
        io_errors: 1,
        ..ChaosReport::new(cfg.scenario, frames_sent, recovered)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_core::executor::{build_executor, ExecutorSpec};

    #[test]
    fn zipf_skew_concentrates_on_low_ranks() {
        let zipf = Zipf::new(64, 1.2);
        let mut rng = DetRng::stream(7, 1);
        let mut hits = [0u64; 64];
        for _ in 0..20_000 {
            hits[zipf.sample(&mut rng) as usize] += 1;
        }
        assert!(
            hits[0] > hits[10] && hits[10] > 0,
            "rank 0 ({}) should dominate rank 10 ({})",
            hits[0],
            hits[10]
        );
        // s = 0 degenerates to uniform-ish: rank 0 no longer dominates 8x.
        let flat = Zipf::new(64, 0.0);
        let mut rng = DetRng::stream(7, 2);
        let mut hits = [0u64; 64];
        for _ in 0..20_000 {
            hits[flat.sample(&mut rng) as usize] += 1;
        }
        assert!(hits[0] < hits[32] * 3, "s=0 should be near uniform");
    }

    #[test]
    fn fault_plan_actions_are_pure_and_seeded() {
        let plan = FaultPlan {
            seed: 42,
            corrupt_rate: 0.3,
            truncate_rate: 0.3,
            close_after_sends: Some(5),
            fail_recv_after: None,
        };
        let payload = vec![0xAAu8; 40];
        for i in 0..5 {
            assert_eq!(plan.action(i, &payload), plan.action(i, &payload));
            match plan.action(i, &payload) {
                FaultAction::Deliver => {}
                FaultAction::Mutate(m) => {
                    assert!(m.len() <= payload.len());
                    assert_ne!(m, payload);
                }
                FaultAction::Close => panic!("close before close_after_sends"),
            }
        }
        assert_eq!(plan.action(5, &payload), FaultAction::Close);
        assert_eq!(plan.action(9, &payload), FaultAction::Close);
    }

    #[test]
    fn fault_transport_stays_dead_after_close() {
        let (client_end, _server_end) = loopback_pair();
        let plan = FaultPlan {
            close_after_sends: Some(0),
            ..FaultPlan::clean(1)
        };
        let mut t = FaultTransport::new(client_end, plan);
        assert_eq!(
            t.send(b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(t.send(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    /// A client end that, before its `stall_at`-th send, reads everything
    /// the server sends until the server closes (buffering it for later
    /// `recv`s) — so the rest of the flood is offered to a dead peer.
    struct StallUntilClosed {
        inner: LoopbackTransport,
        stall_at: u64,
        sends: u64,
        buffered: std::collections::VecDeque<Vec<u8>>,
    }

    impl Transport for StallUntilClosed {
        fn send(&mut self, payload: &[u8]) -> io::Result<()> {
            if self.sends == self.stall_at {
                while let Some(frame) = self.inner.recv()? {
                    self.buffered.push_back(frame);
                }
            }
            self.sends += 1;
            self.inner.send(payload)
        }

        fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
            match self.buffered.pop_front() {
                Some(frame) => Ok(Some(frame)),
                None => self.inner.recv(),
            }
        }
    }

    /// The disconnect scenario's injected close, with the server forced to
    /// die before the flood is finished: the client's failing sends are its
    /// own, every frame still counts, and the two escaped acks still verify.
    #[test]
    fn injected_close_before_the_flood_ends_is_counted_deterministically() {
        let cfg = ChaosConfig::quick(Scenario::Disconnect);
        let events = adversarial_events(&cfg);
        let w = cfg.window;
        let flood = &events[..w + 10];
        let pool = build_executor("pdq", &ExecutorSpec::new(2).capacity(64)).expect("builds");
        let service = ChaosService::new(&*pool, cfg.blocks);
        // The server dies once it has read w + 2 frames and sent two acks.
        let stall_at = (w + ESCAPED_ACKS as usize) as u64;
        let sent =
            flood_into_injected_close(&service, flood, w, cfg.seed, |inner| StallUntilClosed {
                inner,
                stall_at,
                sends: 0,
                buffered: std::collections::VecDeque::new(),
            })
            .expect("the injected close is the server's I/O error");
        assert_eq!(sent, flood.len() as u64);
        service.flush();
        assert_eq!(service.calls(), stall_at);
    }

    #[test]
    fn every_scenario_survives_on_one_executor() {
        let mut pool =
            build_executor("sharded-pdq", &ExecutorSpec::new(2).capacity(64)).expect("builds");
        for scenario in Scenario::ALL {
            let cfg = ChaosConfig::quick(scenario);
            let report = run_chaos(&*pool, &cfg).unwrap_or_else(|e| {
                panic!("scenario {} failed: {e}", scenario.name());
            });
            assert_eq!(report.scenario, scenario.name());
            assert!(
                report.handled > 0,
                "{}: nothing dispatched",
                report.scenario
            );
            let json = report.to_json_string();
            assert!(json.contains(&format!("\"scenario\": \"{}\"", scenario.name())));
            assert!(json.contains("\"block_checksum\""));
        }
        pool.shutdown();
    }
}
