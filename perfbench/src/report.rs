//! Turning phases into metrics: the end-to-end numbers, the per-layer
//! numbers of the traced phases, the count checks, the span file, and the
//! printed report.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

use pdq_core::executor::EXECUTOR_NAMES;

use crate::client::{ClientReport, BUCKET};
use crate::gen::CONNS;
use crate::phase::{PhaseOut, Tier, WORKERS};
use crate::stats::{better_mean, median, median_and_tail, self_time};
use crate::trace::{Recorder, WalSpan};

/// A latency phase whose generator ran later than this at its tail says so.
const LATE_LIMIT_US: f64 = 1_000.0;
/// A phase during which the host stole more than this share of the
/// machine's CPU time is left out of the end-to-end statistics...
const STEAL_LIMIT: f64 = 0.05;
/// ...except that an executor always keeps its this many least-stolen
/// phases.
const MIN_PHASES: usize = 10;

/// Requests per latency window: its 99th percentile (`tail_rank`) leaves
/// ten samples beyond.
const LAT_WINDOW: usize = 1_000;

/// The executors with a dispatch queue to report on.
const PDQ_FAMILY: [&str; 2] = ["pdq", "sharded-pdq"];

/// End-to-end metrics: name, unit, better. Those with `.x` are reported per
/// executor. (The report prints them in this order.)
#[cfg(test)]
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("throughput_eps.x", "1/s", "higher"),
    ("p50_us.x", "us", "lower"),
    ("p99_us.x", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("recover_s", "s", "lower"),
];

/// End-to-end metrics that are printed but left out of the result and of
/// `BENCHMARK.json`, so no bound applies: the spinning baseline's tail on
/// `hot-keys` moves between runs by more than the largest bound a benchmark
/// may set (IQR / median 0.26 over 10 seeds on a quiet host), because its
/// workers stall for milliseconds at random on contended block locks.
pub const UNBOUNDED: [&str; 1] = ["p99_us.spinlock"];

/// Per-layer metrics: name, unit, better. `.x` is per executor, `.pdq` per
/// executor of the PDQ family.
pub const PER_LAYER: [(&str, &str, &str); 27] = [
    ("queue.key_conflicts_per_kevent.pdq", "1/kevent", "lower"),
    (
        "queue.sequential_stalls_per_kevent.pdq",
        "1/kevent",
        "lower",
    ),
    ("queue.empty_dispatch_ratio.pdq", "ratio", "lower"),
    ("queue.max_queue_len.pdq", "count", "lower"),
    ("executor.queue_wait_p50_us.x", "us", "lower"),
    ("executor.queue_wait_p99_us.x", "us", "lower"),
    ("executor.job_ns.x", "ns", "lower"),
    ("executor.busy_ratio.x", "ratio", "higher"),
    (
        "executor.spurious_wakeups_per_kevent.x",
        "1/kevent",
        "lower",
    ),
    ("service.prepare_ns.x", "ns", "lower"),
    ("service.admit_pass_ns.x", "ns", "lower"),
    ("service.events_per_admit.x", "count", "higher"),
    ("service.admit_refused_ratio.x", "ratio", "lower"),
    ("service.call_ns.x", "ns", "lower"),
    ("poll.events_per_batch.x", "count", "higher"),
    ("poll.suspensions_per_kevent.x", "1/kevent", "lower"),
    ("reply.ack_us.x", "us", "lower"),
    ("wal.write_ns", "ns", "lower"),
    ("wal.persist_p50_us", "us", "lower"),
    ("wal.persist_p99_us", "us", "lower"),
    ("wal.bytes_per_event", "B", "lower"),
    ("wal.scan_ms", "ms", "lower"),
    ("wal.replay_ms", "ms", "lower"),
    ("proc.cpu_us_per_event.x", "us", "lower"),
    ("proc.cpu_util.x", "ratio", "lower"),
    ("gen.late_p99_us.x", "us", "lower"),
    ("trace.overhead_ratio.x", "ratio", "lower"),
];

/// Expands the `.x` / `.pdq` templates into concrete metric names.
pub fn expand(
    table: &[(&'static str, &'static str, &'static str)],
) -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for &(name, unit, better) in table {
        if let Some(base) = name.strip_suffix(".x") {
            for x in EXECUTOR_NAMES {
                out.push((format!("{base}.{x}"), unit, better));
            }
        } else if let Some(base) = name.strip_suffix(".pdq") {
            for x in PDQ_FAMILY {
                out.push((format!("{base}.{x}"), unit, better));
            }
        } else {
            out.push((name.to_string(), unit, better));
        }
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer values, one per traced phase (or recovery), medianed at the end.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.values.entry(name.into()).or_default().push(value);
    }

    /// WAL write-path numbers from a recorder whose sinks logged `events`.
    pub fn wal_from(&mut self, rec: &Recorder, events: u64) {
        let events = events as f64;
        self.push(
            "wal.write_ns",
            ratio(rec.wal_write_ns.load(Relaxed) as f64, events),
        );
        self.push(
            "wal.bytes_per_event",
            ratio(rec.wal_bytes.load(Relaxed) as f64, events),
        );
        let mut persists: Vec<u64> = rec
            .wal
            .lock()
            .expect("wal span lock")
            .iter()
            .filter(|s| s.persist)
            .map(|s| s.end - s.start)
            .collect();
        if let Some((p50, tail)) = median_and_tail(&mut persists) {
            self.push("wal.persist_p50_us", p50 as f64 / 1e3);
            self.push("wal.persist_p99_us", tail as f64 / 1e3);
        }
    }

    pub fn recovery(&mut self, scan: Duration, replay: Duration) {
        self.push("wal.scan_ms", scan.as_secs_f64() * 1e3);
        self.push("wal.replay_ms", replay.as_secs_f64() * 1e3);
    }

    /// Layer costs behind the capacity phase's delivered rate.
    pub fn capacity(&mut self, x: &str, out: &PhaseOut, rec: &Recorder, tier: Tier) {
        let n = out.client.sent_total() as f64;
        let (mut prep, mut prep_n, mut job, mut job_n) = (0u64, 0u64, 0u64, 0u64);
        let (mut call, mut call_self, mut call_n) = (0u64, 0u64, 0u64);
        for c in 0..CONNS {
            for slot in rec.conns[c].slots.iter().take(rec.prepared(c) as usize) {
                let (ps, pe) = (slot.prep_s.load(Relaxed), slot.prep_e.load(Relaxed));
                if pe > 0 {
                    prep += pe - ps;
                    prep_n += 1;
                }
                let (js, je) = (slot.job_s.load(Relaxed), slot.job_e.load(Relaxed));
                if je > 0 {
                    job += je - js;
                    job_n += 1;
                }
                let (cs, ce) = (slot.call_s.load(Relaxed), slot.call_e.load(Relaxed));
                if ce > 0 {
                    call += ce - cs;
                    call_self += self_time(cs, ce, &[(ps, pe)]);
                    call_n += 1;
                }
            }
        }
        let prepare_ns = ratio(prep as f64, prep_n as f64);
        self.push(format!("service.prepare_ns.{x}"), prepare_ns);
        let admitted = rec.admitted.load(Relaxed) as f64;
        match tier {
            Tier::Poll => {
                let passes = rec.passes.load(Relaxed) as f64;
                let pass_ns = rec.pass_ns.load(Relaxed) as f64;
                let offered = rec.offered.load(Relaxed) as f64;
                self.push(format!("service.admit_pass_ns.{x}"), ratio(pass_ns, passes));
                self.push(
                    format!("service.events_per_admit.{x}"),
                    ratio(admitted, passes),
                );
                self.push(
                    format!("service.admit_refused_ratio.{x}"),
                    ratio(offered - admitted, offered),
                );
                self.push(
                    format!("service.call_ns.{x}"),
                    prepare_ns + ratio(pass_ns, n),
                );
            }
            Tier::PoolWal => {
                // One submission per call: the call's self time beside its
                // prepare is the admission.
                let calls = rec.calls.load(Relaxed) as f64;
                self.push(
                    format!("service.admit_pass_ns.{x}"),
                    ratio(call_self as f64, call_n as f64),
                );
                self.push(
                    format!("service.events_per_admit.{x}"),
                    ratio(admitted, calls),
                );
                self.push(format!("service.admit_refused_ratio.{x}"), 0.0);
                self.push(
                    format!("service.call_ns.{x}"),
                    ratio(call as f64, call_n as f64),
                );
                self.wal_from(rec, out.wal_appended.unwrap_or(0));
            }
        }
        self.push(
            format!("executor.job_ns.{x}"),
            ratio(job as f64, job_n as f64),
        );
        let busy = job as f64 / (out.wall.as_nanos() as f64 * WORKERS as f64);
        self.push(format!("executor.busy_ratio.{x}"), busy);
        self.push(
            format!("executor.spurious_wakeups_per_kevent.{x}"),
            ratio(out.stats.spurious_wakeups as f64 * 1e3, n),
        );
        if let Some(q) = &out.stats.queue {
            self.push(
                format!("queue.key_conflicts_per_kevent.{x}"),
                ratio(q.key_conflicts as f64 * 1e3, n),
            );
            self.push(
                format!("queue.sequential_stalls_per_kevent.{x}"),
                ratio(q.sequential_stalls as f64 * 1e3, n),
            );
            self.push(
                format!("queue.empty_dispatch_ratio.{x}"),
                ratio(q.empty_dispatches as f64, q.dispatched as f64),
            );
            self.push(format!("queue.max_queue_len.{x}"), q.max_queue_len as f64);
        }
        let (per_batch, suspensions) = match &out.poll {
            Some(p) => (
                ratio(p.events as f64, p.batches as f64),
                ratio(p.suspensions as f64 * 1e3, p.events as f64),
            ),
            None => (0.0, 0.0),
        };
        self.push(format!("poll.events_per_batch.{x}"), per_batch);
        self.push(format!("poll.suspensions_per_kevent.{x}"), suspensions);
    }

    /// Waiting behind the latency phase's percentiles.
    pub fn latency(&mut self, x: &str, out: &PhaseOut, rec: &Recorder) {
        let mut waits = Vec::new();
        let mut replies = Vec::new();
        for c in 0..CONNS {
            let acked = out.client.stamps.get(c).map_or(&[][..], |s| &s.acked[..]);
            for (k, slot) in rec.conns[c]
                .slots
                .iter()
                .enumerate()
                .take(rec.prepared(c) as usize)
            {
                let (admit, js, je) = (
                    slot.admit.load(Relaxed),
                    slot.job_s.load(Relaxed),
                    slot.job_e.load(Relaxed),
                );
                if admit > 0 && js >= admit {
                    waits.push(js - admit);
                }
                if let (true, Some(&ack)) = (je > 0, acked.get(k)) {
                    replies.push(ack.saturating_sub(je));
                }
            }
        }
        if let Some((p50, tail)) = median_and_tail(&mut waits) {
            self.push(format!("executor.queue_wait_p50_us.{x}"), p50 as f64 / 1e3);
            self.push(format!("executor.queue_wait_p99_us.{x}"), tail as f64 / 1e3);
        }
        if let Some((p50, _)) = median_and_tail(&mut replies) {
            self.push(format!("reply.ack_us.{x}"), p50 as f64 / 1e3);
        }
    }

    /// Untraced over traced delivered rate of the same round.
    pub fn overhead(&mut self, x: &str, untraced: &PhaseOut, traced: &PhaseOut) {
        self.push(
            format!("trace.overhead_ratio.{x}"),
            ratio(
                untraced.client.bucket_acks() as f64,
                traced.client.bucket_acks() as f64,
            ),
        );
    }

    pub fn process(&mut self, x: &str, cpu_us_per_event: f64, cpu_util: f64, late_p99_us: f64) {
        self.push(format!("proc.cpu_us_per_event.{x}"), cpu_us_per_event);
        self.push(format!("proc.cpu_util.{x}"), cpu_util);
        self.push(format!("gen.late_p99_us.{x}"), late_p99_us);
    }
}

/// The run's report: comment lines, metric lines, checks, and the result.
pub struct Report {
    trace: bool,
    lines: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    setup: Vec<f64>,
    recover: Vec<f64>,
    nproc: usize,
    throughput: BTreeMap<String, Vec<PhaseWindows>>,
    p50: BTreeMap<String, Vec<PhaseWindows>>,
    p99: BTreeMap<String, Vec<PhaseWindows>>,
    behind: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(trace: bool, nproc: usize) -> Self {
        Self {
            trace,
            nproc,
            lines: Vec::new(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            setup: Vec::new(),
            recover: Vec::new(),
            throughput: BTreeMap::new(),
            p50: BTreeMap::new(),
            p99: BTreeMap::new(),
            behind: 0,
            metrics: Vec::new(),
        }
    }

    pub fn comment(&mut self, text: String) {
        self.lines.push(format!("# {text}"));
    }

    pub fn problem(&mut self, text: String) {
        self.lines.push(format!("# FAILED {text}"));
        self.problems.push(text);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Accounts one phase: requests attempted and failed, set-up time, and
    /// every problem the phase found.
    pub fn phase(&mut self, x: &str, round: usize, name: &str, out: &PhaseOut) {
        let sent = out.client.sent_total();
        let failed = out.client.failed();
        self.attempted += sent;
        self.failed += failed;
        self.setup.push(out.setup.as_secs_f64());
        self.comment(format!(
            "phase {name} {x} round {round}: attempted={sent} failed={failed} wall_s={:.3} setup_ms={:.3} cpu_s={:.2} steal_s={:.2}",
            out.wall.as_secs_f64(),
            out.setup.as_secs_f64() * 1e3,
            out.cpu.as_secs_f64(),
            out.steal.as_secs_f64()
        ));
        for p in &out.problems {
            self.problem(format!("{x} round {round} {name}: {p}"));
        }
    }

    /// The delivered rate of every ack bucket of a capacity phase.
    pub fn capacity(&mut self, x: &str, out: &PhaseOut) {
        let rates: Vec<f64> = out
            .client
            .ack_buckets
            .iter()
            .map(|&acks| acks as f64 / BUCKET.as_secs_f64())
            .collect();
        if rates.is_empty() {
            self.problem(format!(
                "{x}: capacity phase too short for a {BUCKET:?} bucket"
            ));
            return;
        }
        self.comment(format!(
            "capacity {x}: buckets={} median_eps={:.0}",
            rates.len(),
            median(&rates)
        ));
        let stolen = self.stolen(out);
        self.throughput
            .entry(x.to_string())
            .or_default()
            .push(PhaseWindows {
                stolen,
                values: rates,
            });
    }

    /// The share of the machine's CPU time the host took during the phase.
    fn stolen(&self, out: &PhaseOut) -> f64 {
        out.steal.as_secs_f64() / (out.wall.as_secs_f64() * self.nproc as f64)
    }

    /// Latency from each request's intended send time to its verified ack,
    /// per window of `LAT_WINDOW` requests due after the warm-up; also the
    /// generator's lateness and the process's CPU use.
    pub fn latency(
        &mut self,
        x: &str,
        out: &PhaseOut,
        warm: Duration,
        nproc: usize,
        layers: &mut Layers,
    ) {
        let stamps = &out.client.stamps;
        let Some(start) = stamps
            .iter()
            .filter_map(|s| s.intended.first())
            .min()
            .copied()
        else {
            self.problem(format!("{x}: latency phase sent nothing"));
            return;
        };
        let cutoff = start + warm.as_nanos() as u64;
        // (intended, latency, lateness) in send order.
        let mut requests: Vec<(u64, u64, u64)> = stamps
            .iter()
            .flat_map(|s| {
                s.acked.iter().enumerate().map(|(k, &ack)| {
                    let due = s.intended[k];
                    (due, ack.saturating_sub(due), s.sent[k].saturating_sub(due))
                })
            })
            .filter(|r| r.0 >= cutoff)
            .collect();
        requests.sort_unstable();
        let mut late: Vec<u64> = requests.iter().map(|r| r.2).collect();
        let mut all: Vec<u64> = requests.iter().map(|r| r.1).collect();
        let (Some((p50, p99)), Some((_, late_tail))) =
            (median_and_tail(&mut all), median_and_tail(&mut late))
        else {
            self.problem(format!(
                "{x}: {} latency samples are too few for a tail",
                requests.len()
            ));
            return;
        };
        let (mut w50s, mut w99s) = (Vec::new(), Vec::new());
        for window in requests.chunks_exact(LAT_WINDOW) {
            let mut lat: Vec<u64> = window.iter().map(|r| r.1).collect();
            let (w50, w99) = median_and_tail(&mut lat).expect("a window supports a tail");
            w50s.push(w50 as f64 / 1e3);
            w99s.push(w99 as f64 / 1e3);
        }
        let windows = w50s.len();
        let stolen = self.stolen(out);
        for (map, values) in [(&mut self.p50, w50s), (&mut self.p99, w99s)] {
            map.entry(x.to_string())
                .or_default()
                .push(PhaseWindows { stolen, values });
        }
        let late_us = late_tail as f64 / 1e3;
        self.comment(format!(
            "latency {x}: n={} windows={windows} p50_us={:.1} p99_us={:.1} late_p99_us={late_us:.1}",
            requests.len(),
            p50 as f64 / 1e3,
            p99 as f64 / 1e3
        ));
        if late_us > LATE_LIMIT_US {
            self.behind += 1;
            self.comment(format!(
                "note: {x} latency phase: generator behind schedule, late p99 = {late_us:.0} us, max = {:.0} us",
                late.last().copied().unwrap_or(0) as f64 / 1e3
            ));
        }
        let sent = out.client.sent_total() as f64;
        let cpu = out.cpu.as_secs_f64();
        layers.process(
            x,
            cpu * 1e6 / sent,
            cpu / (out.wall.as_secs_f64() * nproc as f64),
            late_us,
        );
    }

    pub fn recovery(&mut self, scan: Duration, replay: Duration, layers: &mut Layers) {
        self.recover.push((scan + replay).as_secs_f64());
        layers.recovery(scan, replay);
    }

    /// A traced phase must account for every request at every layer:
    /// prepared = admitted = executed = acked = sent, and on the pool tier
    /// WAL appends = sent.
    pub fn check_counts(
        &mut self,
        x: &str,
        round: usize,
        name: &str,
        out: &PhaseOut,
        rec: &Recorder,
        tier: Tier,
    ) {
        let c: &ClientReport = &out.client;
        let sent = c.sent_total();
        let acked: u64 = c.acked.iter().sum();
        let prepared: Vec<u64> = (0..CONNS).map(|i| rec.prepared(i)).collect();
        let admitted = rec.admitted.load(Relaxed);
        let executed = rec.executed.load(Relaxed);
        let unmatched = rec.unmatched.load(Relaxed);
        let appended = out.wal_appended;
        self.comment(format!(
            "counts {name} {x} round {round}: sent={:?} prepared={prepared:?} admitted={admitted} executed={executed} acked={acked} wal_appended={appended:?} unmatched_passes={unmatched}",
            c.sent
        ));
        let wal_ok = tier != Tier::PoolWal || appended == Some(sent);
        if prepared[..] != c.sent[..]
            || admitted != sent
            || executed != sent
            || acked != sent
            || unmatched != 0
            || !wal_ok
        {
            self.problem(format!("{x} round {round} {name}: layer counts disagree"));
        }
    }

    fn metric(
        &mut self,
        in_json: bool,
        name: String,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        if !value.is_finite() {
            self.problem(format!("{name} is not a finite number"));
            return;
        }
        let unbounded = if UNBOUNDED.contains(&name.as_str()) {
            " bound=none"
        } else {
            ""
        };
        self.lines.push(
            format!("{name} {value} {unit} {note}{unbounded}")
                .trim_end()
                .to_string(),
        );
        if in_json && !UNBOUNDED.contains(&name.as_str()) {
            self.metrics.push((name, value, unit));
        }
    }

    /// Computes the medians and emits every metric line.
    pub fn finish(&mut self, layers: &Layers) {
        let e2e = !self.trace;
        for x in EXECUTOR_NAMES {
            let (tp, tp_phases) = pick(self.throughput.get(x));
            let (p50, lat_phases) = pick(self.p50.get(x));
            let (p99, _) = pick(self.p99.get(x));
            if tp.is_empty() || p50.is_empty() {
                self.problem(format!("no measurements for {x}"));
                continue;
            }
            // Interference from outside the program only ever slows it:
            // phases the host stole from and the worst quarter of the
            // windows are left out. A mean, not a quantile, of the rest
            // moves smoothly when the program itself mixes fast and slow
            // windows (spinning workers on contended locks).
            let bucket_ms = BUCKET.as_millis();
            self.metric(
                e2e,
                format!("throughput_eps.{x}"),
                better_mean(&tp, false),
                "1/s",
                format!(
                    "n={} phases={tp_phases} stat=mean_of_best_3/4_of_{bucket_ms}ms_buckets median={}",
                    tp.len(),
                    median(&tp)
                ),
            );
            self.metric(
                e2e,
                format!("p50_us.{x}"),
                better_mean(&p50, true),
                "us",
                format!(
                    "n={}x{LAT_WINDOW} phases={lat_phases} stat=mean_of_best_3/4_of_window_medians median={}",
                    p50.len(),
                    median(&p50)
                ),
            );
            self.metric(
                e2e,
                format!("p99_us.{x}"),
                better_mean(&p99, true),
                "us",
                format!(
                    "n={}x{LAT_WINDOW} phases={lat_phases} percentile=99 stat=mean_of_best_3/4_of_window_tails median={}",
                    p99.len(),
                    median(&p99)
                ),
            );
        }
        let setup = self.setup.clone();
        let recover = self.recover.clone();
        if setup.is_empty() || recover.is_empty() {
            self.problem("no set-up or recovery measurements".into());
        } else {
            self.metric(
                e2e,
                "setup_s".into(),
                median(&setup),
                "s",
                format!("n={} stat=median_of_phases", setup.len()),
            );
            self.metric(
                e2e,
                "recover_s".into(),
                median(&recover),
                "s",
                format!("n={} stat=median_of_recoveries", recover.len()),
            );
        }
        if self.behind > 0 {
            let behind = self.behind;
            self.comment(format!(
                "{behind} latency phase(s) ran with the generator behind schedule (see notes)"
            ));
        }
        if self.trace {
            for (name, unit, _) in expand(&PER_LAYER) {
                match layers.values.get(&name) {
                    Some(v) if !v.is_empty() => {
                        let value = median(v);
                        self.metric(true, name, value, unit, format!("n={}", v.len()));
                    }
                    _ => self.problem(format!("per-layer metric {name} was not measured")),
                }
            }
        }
    }

    pub fn print(&self) {
        let mut out = std::io::stdout().lock();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// One phase's bucket or window values.
struct PhaseWindows {
    /// The share of the machine's CPU time the host stole during it.
    stolen: f64,
    values: Vec<f64>,
}

/// The values of an executor's phases the host stole at most `STEAL_LIMIT`
/// from, or of its `MIN_PHASES` least-stolen phases if that is more; with
/// `kept/total` phases.
fn pick(phases: Option<&Vec<PhaseWindows>>) -> (Vec<f64>, String) {
    let mut phases: Vec<&PhaseWindows> = phases.map_or(Vec::new(), |p| p.iter().collect());
    let total = phases.len();
    phases.sort_by(|a, b| a.stolen.total_cmp(&b.stolen));
    let calm = phases.iter().filter(|p| p.stolen <= STEAL_LIMIT).count();
    phases.truncate(calm.max(MIN_PHASES));
    let values = phases
        .iter()
        .flat_map(|p| p.values.iter().copied())
        .collect();
    (values, format!("{}/{total}", phases.len()))
}

/// Writes the spans of every `sample`-th request of a traced latency phase
/// as JSON lines: name, start, end, parent and self time, with the request
/// id `conn:index` shared by all spans of one request.
pub fn write_spans(
    file: &mut impl Write,
    x: &str,
    out: &PhaseOut,
    rec: &Recorder,
    sample: u64,
) -> std::io::Result<()> {
    let mut wal: HashMap<(usize, u64), Vec<WalSpan>> = HashMap::new();
    for s in rec.wal.lock().expect("wal span lock").iter() {
        if s.req % sample == 0 {
            wal.entry((s.conn, s.req)).or_default().push(*s);
        }
    }
    for c in 0..CONNS {
        let Some(st) = out.client.stamps.get(c) else {
            continue;
        };
        for k in (0..st.acked.len() as u64).step_by(sample as usize) {
            let Some(slot) = rec.slot(c, k) else { break };
            let i = k as usize;
            let get = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed);
            let (ps, pe, admit) = (get(&slot.prep_s), get(&slot.prep_e), get(&slot.admit));
            let (cs, ce, js, je) = (
                get(&slot.call_s),
                get(&slot.call_e),
                get(&slot.job_s),
                get(&slot.job_e),
            );
            let mut children: Vec<(&str, u64, u64)> = vec![
                ("client.send", st.intended[i], st.sent[i]),
                ("executor.queue_wait", admit, js),
                ("executor.job", js, je),
                ("reply", je, st.acked[i]),
            ];
            if ce > 0 {
                children.push(("service.call", cs, ce));
            } else {
                children.push(("service.prepare", ps, pe));
            }
            for w in wal.get(&(c, k)).into_iter().flatten() {
                children.push((
                    if w.persist {
                        "wal.persist"
                    } else {
                        "wal.write"
                    },
                    w.start,
                    w.end,
                ));
            }
            children.retain(|&(_, s, e)| s > 0 && e >= s);
            let id = format!("{c}:{k}");
            let (rs, re) = (st.intended[i], st.acked[i]);
            let covered: Vec<(u64, u64)> = children.iter().map(|&(_, s, e)| (s, e)).collect();
            let line = |name: &str, parent: &str, s: u64, e: u64, own: u64| {
                format!(
                    "{{\"exec\": \"{x}\", \"req\": \"{id}\", \"span\": \"{name}\", \"parent\": {parent}, \"start_ns\": {s}, \"end_ns\": {e}, \"self_ns\": {own}}}"
                )
            };
            writeln!(
                file,
                "{}",
                line("request", "null", rs, re, self_time(rs, re, &covered))
            )?;
            for &(name, s, e) in &children {
                let own = if name == "service.call" {
                    self_time(s, e, &[(ps, pe)])
                } else {
                    e - s
                };
                writeln!(file, "{}", line(name, "\"request\"", s, e, own))?;
            }
            if ce > 0 && pe > 0 {
                writeln!(
                    file,
                    "{}",
                    line("service.prepare", "\"service.call\"", ps, pe, pe - ps)
                )?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every printed metric line must read as `name value unit`, with a
    /// name and unit the result contract accepts.
    fn check_line(line: &str) {
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("a name");
        let value = parts.next().expect("a value");
        let unit = parts.next().expect("a unit");
        assert!(
            name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric(),
            "{line}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{line}"
        );
        assert!(value.parse::<f64>().unwrap().is_finite(), "{line}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{line}"
        );
        for extra in parts {
            assert!(extra.contains('='), "{line}");
        }
    }

    #[test]
    fn output_lines_parse_as_name_value_unit() {
        let mut report = Report::new(false, 2);
        report.comment("context nproc=2".into());
        for (name, unit, _) in expand(&END_TO_END) {
            report.metric(
                true,
                name,
                1234.5678,
                unit,
                "n=5 stat=median_of_rounds".into(),
            );
        }
        report.metric(true, "setup_s2".into(), 0.000123456789, "s", String::new());
        assert_eq!(
            report.metrics.len(),
            3 * EXECUTOR_NAMES.len() + 3 - UNBOUNDED.len()
        );
        for line in &report.lines {
            if !line.starts_with('#') {
                check_line(line);
            }
        }
        for (name, unit, better) in expand(&PER_LAYER) {
            check_line(&format!("{name} 0.5 {unit}"));
            assert!(better == "higher" || better == "lower");
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let flat: String = text.split_whitespace().collect();
        let all: Vec<_> = expand(&END_TO_END)
            .into_iter()
            .chain(expand(&PER_LAYER))
            .filter(|m| !UNBOUNDED.contains(&m.0.as_str()))
            .collect();
        for name in UNBOUNDED {
            assert!(!flat.contains(&format!("\"{name}\"")), "{name} has a bound");
        }
        for (name, unit, better) in &all {
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
            assert!(flat.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(flat.matches("\"better\":").count(), all.len());
    }

    #[test]
    fn phases_the_host_stole_from_are_left_out_down_to_a_floor() {
        let phases = |stolen: &[f64]| -> Vec<PhaseWindows> {
            stolen
                .iter()
                .enumerate()
                .map(|(i, &stolen)| PhaseWindows {
                    stolen,
                    values: vec![i as f64],
                })
                .collect()
        };
        // 15 calm phases of 20: the calm ones.
        let mut shares = vec![0.0; 15];
        shares.extend([0.2; 5]);
        let (values, kept) = pick(Some(&phases(&shares)));
        assert_eq!(kept, "15/20");
        assert!(values.iter().all(|&v| v < 15.0));
        // 4 calm phases of 20: the 10 least stolen.
        let shares: Vec<f64> = (0..20).map(|i| 0.01 * f64::from(20 - i)).collect();
        let (mut values, kept) = pick(Some(&phases(&shares)));
        values.sort_by(f64::total_cmp);
        assert_eq!(kept, "10/20");
        assert_eq!(values, (10..20).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut names: Vec<String> = expand(&END_TO_END).into_iter().map(|m| m.0).collect();
        names.extend(expand(&PER_LAYER).into_iter().map(|m| m.0));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(expand(&PER_LAYER).len() <= 128);
        assert_eq!(expand(&END_TO_END).len(), 14);
    }
}
