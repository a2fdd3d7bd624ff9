//! A network-server style workload over the executor trait: a deterministic
//! stream of fine-grain DSM protocol events (the `pdq-dsm` message types)
//! driven through any [`Executor`] via the async submission frontend.
//!
//! This is the shape of workload the paper's abstraction targets — a server
//! receiving a firehose of tiny protocol messages, each handled by a
//! fine-grain handler keyed by the cache block it touches — recast as a
//! runtime workload instead of a simulation: handlers actually execute on
//! executor worker threads, submissions flow through `submit_async` against
//! a bounded queue (so a slow executor exerts backpressure on the intake
//! loop), and the per-block server state is mutated without any lock beyond
//! the per-block cell that Rust requires.
//!
//! Every handler effect is *commutative* (counters and order-independent
//! checksums), so the final [`ServerAggregate`] depends only on the event
//! multiset — not on scheduling. That makes the aggregate byte-identical
//! across all four executors, which CI exploits: the `protocol_server`
//! example runs the same stream on every executor and diffs the JSON.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pdq_core::executor::{block_on, Executor, ExecutorExt, JobStatus, SubmitFuture};
use pdq_dsm::{BlockAddr, Message, PageAddr, ProtocolEvent, Request};
use pdq_sim::DetRng;

/// Why a protocol-server run could not produce an aggregate.
///
/// Shared by the in-process driver ([`run_server`]) and the transport-backed
/// service layer ([`serve_durable`](crate::serve_durable) /
/// [`run_client_events`](crate::run_client_events)).
#[derive(Debug)]
pub enum ServerError {
    /// The executor shut down while events were still in flight, so part of
    /// the stream was dropped unprocessed.
    Shutdown,
    /// A transport or I/O failure (transport-backed runs only).
    Io(std::io::Error),
    /// A malformed, unexpected, or mismatching frame (transport-backed runs
    /// only).
    Protocol(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Shutdown => {
                f.write_str("executor shut down while protocol events were in flight")
            }
            ServerError::Io(e) => write!(f, "transport failure: {e}"),
            ServerError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<pdq_core::ShutdownError> for ServerError {
    fn from(_: pdq_core::ShutdownError) -> Self {
        ServerError::Shutdown
    }
}

/// Configuration of a protocol-server run: the event stream is a pure
/// function of this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Number of nodes that appear as message sources/requesters.
    pub nodes: usize,
    /// Number of distinct cache blocks (synchronization keys).
    pub blocks: u64,
    /// Number of events in the stream.
    pub events: usize,
    /// Workload generation seed.
    pub seed: u64,
}

impl ServerConfig {
    /// A small default configuration: 8 nodes, 64 blocks, 20 000 events.
    pub fn new() -> Self {
        Self {
            nodes: 8,
            blocks: 64,
            events: 20_000,
            seed: 0x5eed_cafe,
        }
    }

    /// A test-sized configuration (2 000 events).
    pub fn quick() -> Self {
        Self {
            events: 2_000,
            ..Self::new()
        }
    }

    /// Replaces the event count, keeping everything else.
    #[must_use]
    pub fn events(mut self, events: usize) -> Self {
        self.events = events;
        self
    }

    /// Replaces the seed, keeping everything else.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Generates the deterministic protocol-event stream for `cfg`: a skewed mix
/// of access faults, incoming coherence messages of every kind, and the
/// occasional `Sequential`-keyed page operation. Roughly 70% of block
/// references land on a hot eighth of the blocks, so same-key conflicts are
/// frequent — the regime where dispatch-time synchronization matters.
pub fn generate_events(cfg: &ServerConfig) -> Vec<ProtocolEvent> {
    let blocks = cfg.blocks.max(1);
    let hot = (blocks / 8).max(1);
    let rng = DetRng::stream(cfg.seed, 0x70c0_5e1f);
    mixed_events(rng, cfg.events, blocks, cfg.nodes, |rng| {
        if rng.chance(0.7) {
            rng.next_below(hot)
        } else {
            rng.next_below(blocks)
        }
    })
}

/// The event-kind mix every generated stream shares: half access faults,
/// most of the rest incoming coherence messages of every kind from `nodes`
/// nodes, and an occasional `Sequential`-keyed page operation over the pages
/// of `blocks` blocks. `block` draws each event's block reference from `rng`
/// before the rest of the event is drawn.
pub(crate) fn mixed_events(
    mut rng: DetRng,
    events: usize,
    blocks: u64,
    nodes: usize,
    mut block: impl FnMut(&mut DetRng) -> u64,
) -> Vec<ProtocolEvent> {
    let nodes = nodes.max(1) as u64;
    let mut out = Vec::with_capacity(events);
    for i in 0..events {
        let block = BlockAddr(block(&mut rng));
        let kind = rng.weighted_index(&[0.50, 0.45, 0.05]);
        let event = match kind {
            0 => ProtocolEvent::AccessFault {
                block,
                write: rng.chance(0.4),
                token: i as u64,
            },
            1 => {
                let src = rng.next_below(nodes) as usize;
                let home = rng.next_below(nodes) as usize;
                let value = rng.next_below(1 << 16);
                let msg = match rng.next_below(10) {
                    0 => Message::Req {
                        request: Request::GetShared,
                        requester: src,
                        block,
                    },
                    1 => Message::Req {
                        request: Request::GetExclusive,
                        requester: src,
                        block,
                    },
                    2 => Message::Invalidate { block, home },
                    3 => Message::InvalAck { block, from: src },
                    4 => Message::RecallShared { block, home },
                    5 => Message::RecallExclusive { block, home },
                    6 => Message::WritebackShared {
                        block,
                        from: src,
                        value,
                    },
                    7 => Message::WritebackExclusive {
                        block,
                        from: src,
                        value,
                    },
                    8 => Message::DataShared { block, value },
                    _ => Message::DataExclusive { block, value },
                };
                ProtocolEvent::Incoming { src, msg }
            }
            _ => ProtocolEvent::PageOp {
                page: PageAddr(rng.next_below(blocks / 16 + 1)),
            },
        };
        out.push(event);
    }
    out
}

/// Per-block server counters, protected by the block's synchronization key:
/// handlers for the same block never run concurrently, so the inner mutex is
/// never contended (it exists because safe Rust requires one).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BlockCounters {
    faults: u64,
    write_faults: u64,
    requests: u64,
    invalidations: u64,
    acks: u64,
    recalls: u64,
    writebacks: u64,
    grants: u64,
    /// Commutative value accumulator (wrapping sums of tokens and message
    /// values), so the final value is order-independent.
    value: u64,
}

/// Counter words exported per block by [`ServerState::snapshot_words`].
pub const BLOCK_SNAPSHOT_WORDS: usize = 9;

/// Shared state of the protocol server: one counter cell per block plus
/// global accumulators for `Sequential` page operations.
#[derive(Debug)]
pub struct ServerState {
    blocks: Vec<Mutex<BlockCounters>>,
    page_ops: AtomicU64,
    /// XOR of page addresses seen by page operations: commutative, so it is
    /// identical for any execution order.
    page_checksum: AtomicU64,
}

impl ServerState {
    /// Creates empty state for `blocks` cache blocks.
    pub fn new(blocks: u64) -> Self {
        Self {
            blocks: (0..blocks.max(1)).map(|_| Mutex::default()).collect(),
            page_ops: AtomicU64::new(0),
            page_checksum: AtomicU64::new(0),
        }
    }

    /// The handler body for one event. Runs on an executor worker under the
    /// event's synchronization key; every effect is commutative.
    pub fn handle(&self, event: &ProtocolEvent) {
        match *event {
            ProtocolEvent::AccessFault {
                block,
                write,
                token,
            } => {
                let mut c = self.cell(block);
                c.faults += 1;
                if write {
                    c.write_faults += 1;
                }
                c.value = c.value.wrapping_add(token);
            }
            ProtocolEvent::Incoming { msg, .. } => {
                let mut c = self.cell(msg.block());
                match msg {
                    Message::Req { .. } => c.requests += 1,
                    Message::Invalidate { .. } => c.invalidations += 1,
                    Message::InvalAck { .. } => c.acks += 1,
                    Message::RecallShared { .. } | Message::RecallExclusive { .. } => {
                        c.recalls += 1
                    }
                    Message::WritebackShared { value, .. }
                    | Message::WritebackExclusive { value, .. } => {
                        c.writebacks += 1;
                        c.value = c.value.wrapping_add(value);
                    }
                    Message::DataShared { value, .. } | Message::DataExclusive { value, .. } => {
                        c.grants += 1;
                        c.value = c.value.wrapping_add(value);
                    }
                }
            }
            ProtocolEvent::PageOp { page } => {
                self.page_ops.fetch_add(1, Ordering::Relaxed);
                // page + 1 so that page 0 still perturbs the checksum.
                self.page_checksum.fetch_xor(
                    (page.0 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    Ordering::Relaxed,
                );
            }
        }
    }

    fn cell(&self, block: BlockAddr) -> std::sync::MutexGuard<'_, BlockCounters> {
        let idx = (block.0 % self.blocks.len() as u64) as usize;
        // A panicking handler (contained by the executor) may have poisoned
        // the cell; the counters are plain integers that are always in a
        // consistent state, so recover the guard instead of cascading the
        // panic into every later handler for this block.
        self.blocks[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Exports the full counter state as a flat word vector for the
    /// write-ahead log's snapshot records ([`crate::wal`]): the block count,
    /// then [`BLOCK_SNAPSHOT_WORDS`] counters per block in block order, then
    /// the two page accumulators. [`ServerState::from_snapshot_words`] is
    /// the exact inverse.
    pub fn snapshot_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(1 + self.blocks.len() * BLOCK_SNAPSHOT_WORDS + 2);
        words.push(self.blocks.len() as u64);
        for cell in &self.blocks {
            let c = *cell.lock().unwrap_or_else(PoisonError::into_inner);
            words.extend_from_slice(&[
                c.faults,
                c.write_faults,
                c.requests,
                c.invalidations,
                c.acks,
                c.recalls,
                c.writebacks,
                c.grants,
                c.value,
            ]);
        }
        words.push(self.page_ops.load(Ordering::Relaxed));
        words.push(self.page_checksum.load(Ordering::Relaxed));
        words
    }

    /// Restores a state from a [`ServerState::snapshot_words`] export.
    /// Returns `None` if the vector is not shaped like one (wrong length for
    /// its claimed block count, or zero blocks).
    pub fn from_snapshot_words(words: &[u64]) -> Option<Self> {
        let blocks = usize::try_from(*words.first()?).ok()?;
        if blocks == 0 || words.len() != 1 + blocks * BLOCK_SNAPSHOT_WORDS + 2 {
            return None;
        }
        let cells = (0..blocks)
            .map(|i| {
                let w = &words[1 + i * BLOCK_SNAPSHOT_WORDS..1 + (i + 1) * BLOCK_SNAPSHOT_WORDS];
                Mutex::new(BlockCounters {
                    faults: w[0],
                    write_faults: w[1],
                    requests: w[2],
                    invalidations: w[3],
                    acks: w[4],
                    recalls: w[5],
                    writebacks: w[6],
                    grants: w[7],
                    value: w[8],
                })
            })
            .collect();
        Some(Self {
            blocks: cells,
            page_ops: AtomicU64::new(words[words.len() - 2]),
            page_checksum: AtomicU64::new(words[words.len() - 1]),
        })
    }

    /// Folds the per-block state into the order-independent aggregate.
    pub fn aggregate(&self, completed: u64) -> ServerAggregate {
        let mut agg = ServerAggregate {
            completed,
            page_ops: self.page_ops.load(Ordering::Relaxed),
            page_checksum: self.page_checksum.load(Ordering::Relaxed),
            ..ServerAggregate::default()
        };
        let mut checksum = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for cell in &self.blocks {
            let c = *cell.lock().unwrap_or_else(PoisonError::into_inner);
            agg.faults += c.faults;
            agg.write_faults += c.write_faults;
            agg.requests += c.requests;
            agg.invalidations += c.invalidations;
            agg.acks += c.acks;
            agg.recalls += c.recalls;
            agg.writebacks += c.writebacks;
            agg.grants += c.grants;
            for word in [
                c.faults,
                c.write_faults,
                c.requests,
                c.invalidations,
                c.acks,
                c.recalls,
                c.writebacks,
                c.grants,
                c.value,
            ] {
                checksum ^= word;
                checksum = checksum.wrapping_mul(0x0000_0100_0000_01b3); // FNV prime
            }
        }
        agg.events = agg.faults
            + agg.requests
            + agg.invalidations
            + agg.acks
            + agg.recalls
            + agg.writebacks
            + agg.grants
            + agg.page_ops;
        agg.block_checksum = checksum;
        agg
    }
}

/// Folds `events` through a fresh [`ServerState`] sequentially on the
/// calling thread and returns the aggregate, with `completed` set to the
/// number of events folded.
///
/// This is the sequential reference the adversarial harness
/// ([`chaos`](crate::chaos)) and the property tests compare executor-driven
/// aggregates against: because every handler effect is commutative, any
/// executor that dispatches exactly this multiset of events — in any order,
/// on any number of workers — must produce this exact aggregate.
pub fn reference_aggregate<'a, I>(events: I, blocks: u64) -> ServerAggregate
where
    I: IntoIterator<Item = &'a ProtocolEvent>,
{
    let state = ServerState::new(blocks);
    let mut completed = 0u64;
    for event in events {
        state.handle(event);
        completed += 1;
    }
    state.aggregate(completed)
}

/// Executor-independent result of a protocol-server run: pure event
/// accounting plus order-independent checksums over the final server state.
/// Two runs of the same [`ServerConfig`] produce identical aggregates on any
/// executor that honours the key contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerAggregate {
    /// Total events handled.
    pub events: u64,
    /// Access-fault events.
    pub faults: u64,
    /// Access faults that were writes.
    pub write_faults: u64,
    /// Incoming coherence requests.
    pub requests: u64,
    /// Incoming invalidations.
    pub invalidations: u64,
    /// Incoming invalidation acknowledgements.
    pub acks: u64,
    /// Incoming recalls (shared or exclusive).
    pub recalls: u64,
    /// Incoming writebacks (shared or exclusive).
    pub writebacks: u64,
    /// Incoming data grants (shared or exclusive).
    pub grants: u64,
    /// `Sequential`-keyed page operations.
    pub page_ops: u64,
    /// FNV fold of every block's final counters, in block order.
    pub block_checksum: u64,
    /// XOR fold of the pages touched by page operations.
    pub page_checksum: u64,
    /// Submissions whose futures resolved as successfully completed.
    pub completed: u64,
}

impl ServerAggregate {
    /// Renders the aggregate as a small text table.
    pub fn render(&self) -> String {
        format!(
            "events          {:>12}\n\
             faults          {:>12}  (writes {})\n\
             requests        {:>12}\n\
             invalidations   {:>12}  (acks {})\n\
             recalls         {:>12}\n\
             writebacks      {:>12}\n\
             grants          {:>12}\n\
             page_ops        {:>12}\n\
             completed       {:>12}\n\
             block_checksum  {:>#18x}\n\
             page_checksum   {:>#18x}\n",
            self.events,
            self.faults,
            self.write_faults,
            self.requests,
            self.invalidations,
            self.acks,
            self.recalls,
            self.writebacks,
            self.grants,
            self.page_ops,
            self.completed,
            self.block_checksum,
            self.page_checksum,
        )
    }

    /// The aggregate as a JSON document with a stable field order, so equal
    /// aggregates render byte-identically (CI diffs these files across
    /// executors).
    pub fn to_json_string(&self) -> String {
        format!(
            "{{\n  \"events\": {},\n  \"faults\": {},\n  \"write_faults\": {},\n  \
             \"requests\": {},\n  \"invalidations\": {},\n  \"acks\": {},\n  \
             \"recalls\": {},\n  \"writebacks\": {},\n  \"grants\": {},\n  \
             \"page_ops\": {},\n  \"block_checksum\": {},\n  \"page_checksum\": {},\n  \
             \"completed\": {}\n}}\n",
            self.events,
            self.faults,
            self.write_faults,
            self.requests,
            self.invalidations,
            self.acks,
            self.recalls,
            self.writebacks,
            self.grants,
            self.page_ops,
            self.block_checksum,
            self.page_checksum,
            self.completed,
        )
    }
}

/// Drives the event stream of `cfg` through `executor` with at most `window`
/// submissions in flight, using the async frontend: each event becomes a
/// `submit_async` future keyed by the event's block (page operations use the
/// `Sequential` key), and the intake loop awaits the oldest future whenever
/// the window is full — so a bounded executor queue pushes back on intake
/// instead of buffering without limit.
///
/// # Errors
///
/// [`ServerError::Shutdown`] if the executor shuts down while events are in
/// flight (a submission is refused or an admitted event is dropped
/// undispatched) — previously a panic deep in the drain loop. A *panicking
/// handler* is not an error: its event simply does not count as completed.
pub fn run_server(
    executor: &dyn Executor,
    cfg: &ServerConfig,
    window: usize,
) -> Result<ServerAggregate, ServerError> {
    let window = window.max(1);
    let state = Arc::new(ServerState::new(cfg.blocks));
    let mut pending: VecDeque<SubmitFuture> = VecDeque::with_capacity(window);
    let mut completed = 0u64;
    let drain = |fut: SubmitFuture, completed: &mut u64| -> Result<(), ServerError> {
        match block_on(fut) {
            Ok(JobStatus::Done) => {
                *completed += 1;
                Ok(())
            }
            Ok(JobStatus::Panicked) => Ok(()),
            Ok(JobStatus::Aborted) | Err(_) => Err(ServerError::Shutdown),
        }
    };
    for event in generate_events(cfg) {
        let state = Arc::clone(&state);
        let fut = executor.submit_async(event.sync_key(), move || state.handle(&event));
        pending.push_back(fut);
        if pending.len() >= window {
            if let Some(fut) = pending.pop_front() {
                drain(fut, &mut completed)?;
            }
        }
    }
    for fut in pending {
        drain(fut, &mut completed)?;
    }
    executor.flush();
    Ok(state.aggregate(completed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_core::executor::{build_executor, ExecutorSpec, EXECUTOR_NAMES};

    #[test]
    fn event_stream_is_deterministic_and_mixed() {
        let cfg = ServerConfig::quick();
        let a = generate_events(&cfg);
        let b = generate_events(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.events);
        let faults = a
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::AccessFault { .. }))
            .count();
        let pages = a
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::PageOp { .. }))
            .count();
        assert!(faults > 0 && pages > 0, "stream should mix event kinds");
        // A different seed produces a different stream.
        assert_ne!(generate_events(&cfg.seed(1)), a);
    }

    #[test]
    fn aggregates_are_byte_identical_across_all_executors() {
        let cfg = ServerConfig::quick();
        let mut reference: Option<ServerAggregate> = None;
        for name in EXECUTOR_NAMES {
            let mut pool = build_executor(name, &ExecutorSpec::new(4).capacity(32))
                .expect("registry name builds");
            let aggregate = run_server(&*pool, &cfg, 64).expect("pool is running");
            assert_eq!(aggregate.events, cfg.events as u64, "{name} lost events");
            assert_eq!(
                aggregate.completed, cfg.events as u64,
                "{name} futures did not all resolve Done"
            );
            match &reference {
                None => reference = Some(aggregate),
                Some(r) => {
                    assert_eq!(&aggregate, r, "{name} aggregate diverged");
                    assert_eq!(
                        aggregate.to_json_string(),
                        r.to_json_string(),
                        "{name} JSON diverged"
                    );
                }
            }
            pool.shutdown();
        }
    }

    #[test]
    fn executor_runs_match_the_sequential_reference_fold() {
        let cfg = ServerConfig::quick();
        let events = generate_events(&cfg);
        let reference = reference_aggregate(events.iter(), cfg.blocks);
        let pool = build_executor("pdq", &ExecutorSpec::new(4).capacity(32)).expect("pdq builds");
        let aggregate = run_server(&*pool, &cfg, 64).expect("pool is running");
        assert_eq!(aggregate, reference);
    }

    #[test]
    fn run_server_reports_shutdown_as_an_error_not_a_panic() {
        let mut pool = build_executor("pdq", &ExecutorSpec::new(1)).expect("pdq builds");
        pool.shutdown();
        let outcome = run_server(&*pool, &ServerConfig::quick().events(10), 4);
        assert!(matches!(outcome, Err(ServerError::Shutdown)));
        let err = outcome.unwrap_err();
        assert!(err.to_string().contains("shut down"));
    }

    #[test]
    fn snapshot_words_roundtrip_exactly() {
        let cfg = ServerConfig::quick().events(500);
        let state = ServerState::new(cfg.blocks);
        let mut handled = 0u64;
        for event in generate_events(&cfg) {
            state.handle(&event);
            handled += 1;
        }
        let words = state.snapshot_words();
        assert_eq!(
            words.len(),
            1 + cfg.blocks as usize * BLOCK_SNAPSHOT_WORDS + 2
        );
        let restored = ServerState::from_snapshot_words(&words).expect("valid export");
        assert_eq!(restored.aggregate(handled), state.aggregate(handled));
        assert_eq!(restored.snapshot_words(), words);
        // Malformed exports are rejected, not misread.
        assert!(ServerState::from_snapshot_words(&[]).is_none());
        assert!(ServerState::from_snapshot_words(&[0]).is_none());
        assert!(ServerState::from_snapshot_words(&words[..words.len() - 1]).is_none());
    }

    #[test]
    fn aggregate_renders_text_and_json() {
        let cfg = ServerConfig::quick().events(500);
        let pool = build_executor("pdq", &ExecutorSpec::new(2)).expect("pdq builds");
        let aggregate = run_server(&*pool, &cfg, 16).expect("pool is running");
        let text = aggregate.render();
        assert!(text.contains("events"));
        assert!(text.contains("block_checksum"));
        let json = aggregate.to_json_string();
        assert!(json.contains("\"events\": 500"));
        assert!(json.contains("\"page_checksum\""));
    }
}
