//! Property and integration tests for the multi-connection server layer:
//! concurrent-client determinism across every registry executor (ring fast
//! path on and off), resumable-codec chunking under arbitrary frame/chunk
//! sizes, crash recovery of per-connection WALs over real TCP, and poll-tier
//! robustness to a peer that dies mid-frame.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use pdq_core::executor::{build_executor, ExecutorSpec, EXECUTOR_NAMES};
use pdq_workloads::{
    client_config, connect_tcp_clients, generate_events, merged_reference_aggregate, pool_wal_dir,
    pool_wal_dirs, recover_dir, reference_aggregate, replay, run_tcp_clients, serve_poll,
    serve_pool, ExecutorService, FrameDecoder, FrameEncoder, PollOptions, PoolOptions, PoolWal,
    ProtocolService, ServerConfig,
};
use proptest::prelude::*;

mod common;
use common::merged_run;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// N concurrent clients x all four registry executors x ring on/off:
    /// the merged aggregate is byte-identical to the sequential
    /// `reference_aggregate` fold of the concatenated client streams —
    /// whatever the interleaving the kernel and scheduler pick.
    #[test]
    fn concurrent_clients_merge_deterministically(
        clients in 2u64..=4,
        events in 60usize..=160,
        seed in 0u64..1000,
        ring in any::<bool>(),
    ) {
        let base = ServerConfig::quick().events(events).seed(seed);
        let reference = merged_reference_aggregate(&base, clients);
        let spec = ExecutorSpec::new(2).capacity(64).ring(ring);
        for name in EXECUTOR_NAMES {
            let pool = merged_run(name, &spec, &base, clients, false, None);
            prop_assert_eq!(pool, reference, "pool tier diverged on {} (ring={})", name, ring);
        }
        let poll = merged_run("sharded-pdq", &spec, &base, clients, true, None);
        prop_assert_eq!(poll, reference, "poll tier diverged (ring={})", ring);
    }

    /// The resumable decoder reassembles any frame sequence delivered in
    /// arbitrary chunk sizes, and the resumable encoder produces the same
    /// byte stream under any per-write acceptance window — the staged codec
    /// state machine is chunking-invariant.
    #[test]
    fn resumable_codec_is_chunking_invariant(
        payload_lens in proptest::collection::vec(0usize..300, 1..8),
        read_chunk in 1usize..17,
        write_chunk in 1usize..17,
        seed in 0u64..1000,
    ) {
        // Deterministic payload bytes from the seed.
        let payloads: Vec<Vec<u8>> = payload_lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                (0..len).map(|j| (seed as usize + i * 31 + j) as u8).collect()
            })
            .collect();

        // Encode through a writer that accepts at most `write_chunk` bytes
        // per call and interleaves WouldBlock refusals.
        struct Dribble<'a> {
            out: &'a mut Vec<u8>,
            chunk: usize,
            block_next: bool,
        }
        impl Write for Dribble<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if std::mem::replace(&mut self.block_next, false) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.block_next = true;
                let n = buf.len().min(self.chunk);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut wire = Vec::new();
        let mut encoder = FrameEncoder::new();
        {
            let mut w = Dribble { out: &mut wire, chunk: write_chunk, block_next: false };
            for payload in &payloads {
                encoder.push_frame(payload).unwrap();
            }
            while !encoder.is_empty() {
                encoder.write_to(&mut w).unwrap();
            }
        }

        // Decode through a reader that yields at most `read_chunk` bytes per
        // call with WouldBlock interleaved.
        struct Trickle<'a> {
            data: &'a [u8],
            pos: usize,
            chunk: usize,
            block_next: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if std::mem::replace(&mut self.block_next, false) {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.block_next = true;
                let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut r = Trickle { data: &wire, pos: 0, chunk: read_chunk, block_next: false };
        let mut decoder = FrameDecoder::new();
        let mut decoded: Vec<Vec<u8>> = Vec::new();
        loop {
            let status = decoder.fill_from(&mut r).unwrap();
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
            if status.eof {
                break;
            }
        }
        prop_assert!(!decoder.has_partial(), "stream must end on a frame boundary");
        prop_assert_eq!(decoded, payloads);
    }
}

/// Crash-recovery smoke over real TCP: every connection of a pool server
/// write-ahead-logs into its own `conn-NNNN` directory with an armed torn
/// crash; each recovered log replays to the reference fold of a prefix of
/// exactly one client's stream.
#[test]
fn pool_wal_crash_recovery_over_tcp() {
    let clients = 3u64;
    let base = ServerConfig::quick().events(400);
    let tmp = std::env::temp_dir().join(format!("pdq-server-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let executor = build_executor("pdq", &ExecutorSpec::new(2).capacity(64)).expect("executor");
    let service = ExecutorService::new(executor.as_ref(), base.blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let opts = PoolOptions {
        window: 8,
        accept: clients as usize,
        wal: Some(PoolWal {
            root: tmp.clone(),
            blocks: base.blocks,
            sync_every: 16,
            snapshot_every: 0,
            crash_after: Some(100),
        }),
    };
    let transports = connect_tcp_clients(addr, clients).expect("connect");
    let server_outcome = std::thread::scope(|scope| {
        let service = &service;
        let opts = &opts;
        let server = scope.spawn(move || serve_pool(&listener, service, opts));
        for client in run_tcp_clients(transports, &base, 16, false) {
            // Every client must die: its server connection crashed mid-log.
            assert!(
                client.is_err(),
                "a client survived its server's armed WAL crash"
            );
        }
        server.join().expect("server thread")
    });
    assert!(
        server_outcome.is_err(),
        "serve_pool must surface the armed WAL crash"
    );

    // Each per-connection log recovers a synced prefix of exactly one
    // client's deterministic stream, and replays to that prefix's reference
    // fold. The check does not lean on accept order: each log is matched
    // against all client streams, and each stream must match exactly once.
    let streams: Vec<Vec<pdq_dsm::ProtocolEvent>> = (0..clients)
        .map(|c| generate_events(&client_config(&base, c)))
        .collect();
    let mut matched = vec![false; streams.len()];
    let dirs = pool_wal_dirs(&tmp);
    let expected_dirs: Vec<_> = (0..clients as usize)
        .map(|c| pool_wal_dir(&tmp, c))
        .collect();
    assert_eq!(dirs, expected_dirs, "one log directory per connection");
    for (conn, dir) in dirs.iter().enumerate() {
        let recovery = recover_dir(dir).expect("per-connection log must exist");
        assert!(recovery.total_events > 0, "conn {conn} recovered nothing");
        let owner = streams
            .iter()
            .position(|s| recovery.suffix.as_slice() == &s[..recovery.suffix.len()])
            .unwrap_or_else(|| panic!("conn {conn} log is not a prefix of any client stream"));
        assert!(
            !std::mem::replace(&mut matched[owner], true),
            "two connection logs recovered the same client stream"
        );
        let replay_executor =
            build_executor("multiqueue", &ExecutorSpec::new(2).capacity(64)).expect("executor");
        let recovered = replay(&recovery, replay_executor.as_ref()).expect("replay");
        let reference = reference_aggregate(
            &streams[owner][..recovery.total_events as usize],
            base.blocks,
        );
        assert_eq!(
            recovered, reference,
            "conn {conn} replay diverged from its prefix reference"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A peer that sends half a frame and vanishes must cost the poll server
/// exactly one torn connection: the well-behaved client on the same worker
/// still completes, and the failure is counted.
#[test]
fn poll_survives_a_mid_frame_disconnect() {
    let cfg = ServerConfig::quick().events(200);
    let executor =
        build_executor("sharded-pdq", &ExecutorSpec::new(2).capacity(64)).expect("executor");
    let service = ExecutorService::new(executor.as_ref(), cfg.blocks);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let events = generate_events(&cfg);
    let report = std::thread::scope(|scope| {
        let service = &service;
        let server = scope.spawn(move || serve_poll(&listener, service, &PollOptions::new(2, 1)));
        // The saboteur: a length prefix promising 40 bytes, then 3 bytes,
        // then a hard close.
        let saboteur = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(&[40u8, 0, 0, 0, 0x01, 0xAA, 0xBB])
                .expect("partial frame");
            drop(stream);
        });
        let good = scope.spawn(move || {
            let transports = connect_tcp_clients(addr, 1)?;
            run_tcp_clients(transports, &cfg, 16, false).remove(0)
        });
        saboteur.join().expect("saboteur thread");
        let good_report = good.join().expect("client thread").expect("good client ok");
        assert_eq!(good_report.acked, cfg.events as u64);
        server.join().expect("server thread").expect("server ok")
    });
    assert_eq!(report.connections, 2);
    assert_eq!(
        report.failed, 1,
        "the torn peer must cost exactly one connection"
    );
    assert_eq!(report.events, cfg.events as u64);
    service.flush();
    assert_eq!(
        service.aggregate(report.completed),
        reference_aggregate(&events, cfg.blocks)
    );
}
