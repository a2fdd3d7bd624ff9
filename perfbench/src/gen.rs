//! The benchmark's own traffic: seeded protocol-event streams, one per
//! connection, built from `pdq_dsm::ProtocolEvent` values with a private
//! PRNG, so that edits to the program's own generator cannot move the
//! traffic.
//!
//! Every event names the connection that carries it (the access-fault token,
//! the message source node, the page number), so a decorator inside the
//! server can attribute each request to its connection without any change
//! to the wire protocol. Per connection, requests arrive in stream order, so
//! connection plus arrival count is the request id.

use pdq_dsm::{BlockAddr, Message, PageAddr, ProtocolEvent, Request};
use pdq_workloads::service::encode_event_request;
use pdq_workloads::Reply;

/// Connections every workload drives (one generator thread, `nproc` = 2).
pub const CONNS: usize = 2;
/// Nodes that appear as message sources; connection `c` owns the nodes
/// `n` with `n % CONNS == c`.
const NODES: u64 = 8;
/// Bit position of the connection index inside an access-fault token.
const TOKEN_CONN_SHIFT: u32 = 56;

/// SplitMix64: small, fast, and good enough to draw traffic.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`), by multiply-shift.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// The traffic properties a workload varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mix {
    /// Distinct cache blocks (synchronization keys).
    pub blocks: u64,
    /// Share of block references that land on the hot eighth of the blocks.
    pub hot_share: f64,
    /// Share of events that are `Sequential`-keyed page operations.
    pub page_ops: f64,
}

impl Mix {
    /// 64 blocks, 70% of references on the hot eighth, 5% page operations.
    pub const HOT: Mix = Mix {
        blocks: 64,
        hot_share: 0.7,
        page_ops: 0.05,
    };
    /// Uniform over 65,536 blocks, no page operations.
    pub const SPREAD: Mix = Mix {
        blocks: 65_536,
        hot_share: 0.0,
        page_ops: 0.0,
    };
}

/// Draws `len` events for connection `conn` of a run seeded with `seed`.
/// Half the non-page events are access faults, half incoming coherence
/// messages spread evenly over the ten message kinds.
pub fn stream(mix: Mix, seed: u64, conn: usize, len: usize) -> Vec<ProtocolEvent> {
    let mut rng = Rng::new(seed, 0x7e57_0000 + conn as u64);
    let conn64 = conn as u64;
    let hot = (mix.blocks / 8).max(1);
    let local_nodes = NODES / CONNS as u64;
    let pages = (mix.blocks / 16 / CONNS as u64).max(1);
    (0..len)
        .map(|i| {
            let block = BlockAddr(if rng.chance(mix.hot_share) {
                rng.below(hot)
            } else {
                rng.below(mix.blocks)
            });
            if rng.chance(mix.page_ops) {
                return ProtocolEvent::PageOp {
                    page: PageAddr(rng.below(pages) * CONNS as u64 + conn64),
                };
            }
            if rng.chance(0.5) {
                return ProtocolEvent::AccessFault {
                    block,
                    write: rng.chance(0.4),
                    token: (conn64 << TOKEN_CONN_SHIFT) | i as u64,
                };
            }
            let src = (rng.below(local_nodes) * CONNS as u64 + conn64) as usize;
            let home = rng.below(NODES) as usize;
            let value = rng.below(1 << 16);
            let msg = match rng.below(10) {
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
        })
        .collect()
}

/// The connection that carries `event` (see the module docs).
pub fn conn_of(event: &ProtocolEvent) -> usize {
    let tag = match *event {
        ProtocolEvent::AccessFault { token, .. } => token >> TOKEN_CONN_SHIFT,
        ProtocolEvent::Incoming { src, .. } => src as u64,
        ProtocolEvent::PageOp { page } => page.0,
    };
    (tag % CONNS as u64) as usize
}

/// One connection's traffic, ready to send: the events, their framed wire
/// encodings back to back, and the reply each one must get. Phases replay
/// the stream cyclically, so request `j` carries event `j % len`.
#[derive(Debug)]
pub struct ConnStream {
    pub events: Vec<ProtocolEvent>,
    pub frames: Vec<u8>,
    /// `offsets[i]..offsets[i + 1]` is the frame of event `i`.
    pub offsets: Vec<usize>,
    pub replies: Vec<Reply>,
}

impl ConnStream {
    pub fn new(events: Vec<ProtocolEvent>) -> Self {
        let mut frames = Vec::with_capacity(events.len() * 36);
        let mut offsets = Vec::with_capacity(events.len() + 1);
        offsets.push(0);
        for event in &events {
            let payload = encode_event_request(event);
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&payload);
            offsets.push(frames.len());
        }
        let replies = events.iter().map(Reply::for_event).collect();
        Self {
            events,
            frames,
            offsets,
            replies,
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The framed request `j` (cyclic).
    pub fn frame(&self, j: u64) -> &[u8] {
        let i = (j % self.len() as u64) as usize;
        &self.frames[self.offsets[i]..self.offsets[i + 1]]
    }

    pub fn event(&self, j: u64) -> &ProtocolEvent {
        &self.events[(j % self.len() as u64) as usize]
    }

    pub fn reply(&self, j: u64) -> Reply {
        self.replies[(j % self.len() as u64) as usize]
    }

    /// The first `n` requests of the cyclic stream.
    pub fn sent(&self, n: u64) -> impl Iterator<Item = &ProtocolEvent> {
        (0..n).map(move |j| self.event(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for mix in [Mix::HOT, Mix::SPREAD] {
            for conn in 0..CONNS {
                let a = stream(mix, 7, conn, 4096);
                assert_eq!(a, stream(mix, 7, conn, 4096));
                assert_ne!(a, stream(mix, 8, conn, 4096));
            }
            assert_ne!(stream(mix, 7, 0, 4096), stream(mix, 7, 1, 4096));
        }
    }

    #[test]
    fn every_event_names_its_connection() {
        for mix in [Mix::HOT, Mix::SPREAD] {
            for conn in 0..CONNS {
                assert!(stream(mix, 3, conn, 8192)
                    .iter()
                    .all(|e| conn_of(e) == conn));
            }
        }
    }

    #[test]
    fn mixes_have_the_stated_shape() {
        let hot = stream(Mix::HOT, 11, 0, 100_000);
        let pages = hot
            .iter()
            .filter(|e| matches!(e, ProtocolEvent::PageOp { .. }))
            .count();
        assert!((4_000..6_000).contains(&pages), "page ops {pages}");
        let spread = stream(Mix::SPREAD, 11, 0, 100_000);
        assert!(spread
            .iter()
            .all(|e| !matches!(e, ProtocolEvent::PageOp { .. })));
        let distinct: std::collections::HashSet<u64> = spread
            .iter()
            .map(|e| match e {
                ProtocolEvent::AccessFault { block, .. } => block.0,
                ProtocolEvent::Incoming { msg, .. } => msg.block().0,
                ProtocolEvent::PageOp { .. } => unreachable!(),
            })
            .collect();
        assert!(
            distinct.len() > 50_000,
            "distinct blocks {}",
            distinct.len()
        );
    }

    #[test]
    fn frames_decode_back_to_their_events() {
        let s = ConnStream::new(stream(Mix::HOT, 5, 1, 512));
        for j in 0..1024u64 {
            let frame = s.frame(j);
            let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, frame.len());
            match pdq_workloads::service::decode_request(&frame[4..]).unwrap() {
                pdq_workloads::service::WireRequest::Event(e) => assert_eq!(&e, s.event(j)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
