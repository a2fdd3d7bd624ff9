//! Property tests for the chaos harness: per-key FIFO under adversarial
//! traffic, byte-identical aggregates across all four executors for every
//! scenario, typed errors for arbitrary hostile bytes, and purity of the
//! seeded fault plans.
//!
//! These are the proof burden of the adversarial-traffic issue: the paper's
//! dispatch-time synchronization argument says per-address ordering and
//! atomic handler execution survive *any* arrival process, so the same
//! invariants the well-behaved suites pin must hold verbatim under hot-key
//! skew, bursts, corruption, disconnects, and handler panics.

use std::sync::Arc;

use pdq_core::executor::{build_executor, ExecutorSpec, EXECUTOR_NAMES};
use pdq_dsm::ProtocolEvent;
use pdq_workloads::chaos::{
    adversarial_events, poison_schedule, run_chaos, ChaosConfig, ChaosReport, ChaosService,
    FaultAction, FaultPlan, KeyOrderRecorder, Scenario,
};
use pdq_workloads::service::{decode_request, encode_event_request};
use pdq_workloads::transport::{loopback_pair, read_frame, write_frame};
use pdq_workloads::{run_client_events, serve_durable, Durability, ServerError};
use proptest::prelude::*;

/// Runs one scenario on every registry executor and returns the reports,
/// one per executor, in registry order.
fn reports_across_executors(cfg: &ChaosConfig, workers: usize) -> Vec<ChaosReport> {
    EXECUTOR_NAMES
        .iter()
        .map(|name| {
            let mut spec = ExecutorSpec::new(workers).capacity(64);
            if *name == "sharded-pdq" {
                spec = spec.shards(4);
            }
            let mut pool = build_executor(name, &spec).expect("registry executor builds");
            let report = run_chaos(&*pool, cfg)
                .unwrap_or_else(|e| panic!("{name}: scenario {} failed: {e}", cfg.scenario.name()));
            pool.shutdown();
            report
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `decode_request` is total over arbitrary bytes: hostile frames decode
    /// or fail with a typed protocol error, never a panic.
    #[test]
    fn decode_request_is_total_over_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        match decode_request(&bytes) {
            Ok(_) => {}
            Err(ServerError::Protocol(msg)) => prop_assert!(!msg.is_empty()),
            Err(other) => prop_assert!(false, "non-protocol error for raw bytes: {other:?}"),
        }
    }

    /// A frame stream cut at an arbitrary byte either ends cleanly on a
    /// frame boundary or fails with a typed truncation error — never an
    /// allocation proportional to the cut-off claim, never a panic.
    #[test]
    fn truncated_streams_end_cleanly_or_with_typed_errors(
        seed in 0u64..1_000,
        frames in 1usize..6,
        cut_salt in 0usize..10_000,
    ) {
        let cfg = ChaosConfig::quick(Scenario::Malformed).seed(seed).events(frames);
        let mut wire = Vec::new();
        let mut boundaries = vec![0usize];
        for event in adversarial_events(&cfg) {
            write_frame(&mut wire, &encode_event_request(&event)).unwrap();
            boundaries.push(wire.len());
        }
        let cut = cut_salt % (wire.len() + 1);
        let mut r = std::io::Cursor::new(&wire[..cut]);
        loop {
            match read_frame(&mut r) {
                Ok(Some(_)) => {}
                Ok(None) => {
                    prop_assert!(boundaries.contains(&cut), "clean EOF off a frame boundary");
                    break;
                }
                Err(e) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                    prop_assert!(!boundaries.contains(&cut), "typed error on a frame boundary");
                    break;
                }
            }
        }
    }

    /// Fault plans are pure functions of (seed, index): decisions replay
    /// identically, mutations never grow the frame, and the injected close
    /// fires at exactly the configured send count.
    #[test]
    fn fault_plans_are_pure_and_bounded(
        seed in 0u64..10_000,
        corrupt in 0u32..10,
        truncate in 0u32..10,
        close_after in 0u64..8,
        len in 1usize..128,
    ) {
        let plan = FaultPlan {
            seed,
            corrupt_rate: f64::from(corrupt) / 10.0,
            truncate_rate: f64::from(truncate) / 10.0,
            close_after_sends: Some(close_after),
            fail_recv_after: None,
        };
        let payload = vec![0x5Au8; len];
        for index in 0..close_after + 4 {
            let action = plan.action(index, &payload);
            prop_assert_eq!(&action, &plan.action(index, &payload), "replay diverged");
            match action {
                FaultAction::Close => prop_assert!(index >= close_after),
                FaultAction::Deliver => prop_assert!(index < close_after),
                FaultAction::Mutate(m) => {
                    prop_assert!(index < close_after);
                    prop_assert!(m.len() <= payload.len());
                    prop_assert!(m != payload, "a mutation must change the frame");
                }
            }
        }
    }
}

proptest! {
    // Scenario runs spawn four executor pools each; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Zipfian hot-key skew: whatever the skew parameter and seed, all four
    /// executors render byte-identical reports — the hot key serializes at
    /// dispatch, it does not corrupt.
    #[test]
    fn zipf_reports_are_identical_across_executors(
        seed in 0u64..1_000,
        s_tenths in 0u32..25,
        workers in 1usize..5,
    ) {
        let cfg = ChaosConfig::quick(Scenario::Zipf)
            .seed(seed)
            .events(250)
            .zipf_s(f64::from(s_tenths) / 10.0);
        let reports = reports_across_executors(&cfg, workers);
        for (name, report) in EXECUTOR_NAMES.iter().zip(&reports) {
            prop_assert_eq!(
                report.to_json_string(),
                reports[0].to_json_string(),
                "{} diverged from {}", name, EXECUTOR_NAMES[0]
            );
        }
    }

    /// Bursty open-loop arrivals and mid-stream disconnects: reports stay
    /// byte-identical across executors, so abandoned in-flight replies and
    /// transport-buffer floods lose nothing on any of them.
    #[test]
    fn burst_and_disconnect_reports_are_identical_across_executors(
        seed in 0u64..1_000,
        burst in 8usize..96,
    ) {
        for scenario in [Scenario::Burst, Scenario::Disconnect] {
            let cfg = ChaosConfig::quick(scenario).seed(seed).events(250).burst(burst);
            let reports = reports_across_executors(&cfg, 3);
            for (name, report) in EXECUTOR_NAMES.iter().zip(&reports) {
                prop_assert_eq!(
                    report.to_json_string(),
                    reports[0].to_json_string(),
                    "{}: {} diverged", scenario.name(), name
                );
            }
        }
    }

    /// Poisoned handlers: the panic count equals the seeded schedule's
    /// popcount on every executor, and the surviving aggregate (already
    /// checked against the reference fold inside the scenario) is
    /// byte-identical across executors — a panic on one key never leaks
    /// into another key's state.
    #[test]
    fn panicking_handlers_leave_other_keys_intact_on_every_executor(
        seed in 0u64..1_000,
        rate_tenths in 1u32..6,
    ) {
        let cfg = ChaosConfig::quick(Scenario::Panic)
            .seed(seed)
            .events(250)
            .poison_rate(f64::from(rate_tenths) / 10.0);
        let expected = poison_schedule(cfg.seed, cfg.events, cfg.poison_rate)
            .iter()
            .filter(|&&p| p)
            .count() as u64;
        let mut first: Option<String> = None;
        for name in EXECUTOR_NAMES {
            let mut spec = ExecutorSpec::new(2).capacity(64);
            if name == "sharded-pdq" {
                spec = spec.shards(4);
            }
            let mut pool = build_executor(name, &spec).expect("registry executor builds");
            let report = run_chaos(&*pool, &cfg)
                .unwrap_or_else(|e| panic!("{name}: panic scenario failed: {e}"));
            pool.shutdown();
            prop_assert_eq!(report.panicked, expected, "{}: panic count", name);
            prop_assert_eq!(
                report.handled + expected,
                cfg.events as u64,
                "{}: survivors + panics must cover the stream", name
            );
            let json = report.to_json_string();
            match &first {
                None => first = Some(json),
                Some(reference) => prop_assert_eq!(&json, reference, "{} diverged", name),
            }
        }
    }

    /// Per-key FIFO under the adversarial mix: on the dispatch-ordered
    /// executors every block's handlers run in arrival order; the spinlock
    /// baseline guarantees only mutual exclusion and completeness, so its
    /// log is checked as a set.
    #[test]
    fn per_key_fifo_holds_under_adversarial_traffic(
        seed in 0u64..1_000,
        workers in 2usize..5,
    ) {
        let cfg = ChaosConfig::quick(Scenario::Zipf).seed(seed).events(300);
        let events = adversarial_events(&cfg);

        // Arrival order per block: the indices of the block-keyed events.
        let mut expected: Vec<Vec<u64>> = (0..cfg.blocks).map(|_| Vec::new()).collect();
        for (i, event) in events.iter().enumerate() {
            match event {
                ProtocolEvent::AccessFault { block, .. } => {
                    expected[block.0 as usize].push(i as u64);
                }
                ProtocolEvent::Incoming { msg, .. } => {
                    expected[msg.block().0 as usize].push(i as u64);
                }
                ProtocolEvent::PageOp { .. } => {}
            }
        }

        for name in EXECUTOR_NAMES {
            let mut spec = ExecutorSpec::new(workers).capacity(64);
            if name == "sharded-pdq" {
                spec = spec.shards(4);
            }
            let mut pool = build_executor(name, &spec).expect("registry executor builds");
            let recorder = Arc::new(KeyOrderRecorder::new(cfg.blocks));
            let service =
                ChaosService::new(&*pool, cfg.blocks).with_recorder(Arc::clone(&recorder));
            let (mut client_end, mut server_end) = loopback_pair();
            // A window wider than the stream: no mid-stream acks. The
            // closing drain acks every event once its handler has run.
            let window = events.len() + 2;
            std::thread::scope(|scope| {
                let server = scope.spawn(|| {
                    serve_durable(&service, &mut server_end, window, Durability::Off)
                });
                let report = run_client_events(&mut client_end, &events, window + 1, false)
                    .expect("every ack verifies");
                assert_eq!(report.acked, events.len() as u64, "{name}: acks lost");
                drop(client_end);
                server.join().expect("server thread").expect("serve succeeds");
            });
            pool.shutdown();

            for (block, want) in expected.iter().enumerate() {
                let got = recorder.order(block as u64);
                if name == "spinlock" {
                    let mut sorted = got.clone();
                    sorted.sort_unstable();
                    prop_assert_eq!(
                        &sorted, want,
                        "{}: block {} lost or duplicated events", name, block
                    );
                } else {
                    prop_assert_eq!(
                        &got, want,
                        "{}: block {} violated per-key FIFO", name, block
                    );
                }
            }
        }
    }

    /// The malformed scenario — corrupted frames, hostile wire blobs, clean
    /// reconnect — ends with byte-identical reports across executors: frame
    /// rejection and connection teardown are deterministic, not schedule
    /// dependent.
    #[test]
    fn malformed_streams_tear_down_identically_across_executors(
        seed in 0u64..1_000,
    ) {
        let cfg = ChaosConfig::quick(Scenario::Malformed).seed(seed).events(200);
        let reports = reports_across_executors(&cfg, 2);
        for (name, report) in EXECUTOR_NAMES.iter().zip(&reports) {
            prop_assert_eq!(
                report.to_json_string(),
                reports[0].to_json_string(),
                "{} diverged", name
            );
        }
        // Five hostile wire blobs always tear down their connections; the
        // corrupted event stream adds a sixth when (as with these rates over
        // 200 frames it virtually always does) it hits an undecodable frame.
        prop_assert!(
            reports[0].protocol_errors >= 5,
            "hostile blobs must all surface as protocol errors, got {}",
            reports[0].protocol_errors
        );
    }
}
