//! The load generator: one thread driving every connection non-blocking.
//!
//! A closed-loop schedule keeps a fixed window of unanswered requests per
//! connection until a deadline; an open-loop schedule sends request `g` at
//! its intended time `g / rate` after the phase start whatever the server
//! does, alternating connections. Every ack is decoded here (the 11-byte
//! ack frame: tag `0x81`, status, class, digest) and checked against
//! `Reply::for_event` of the request it answers.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use pdq_workloads::service::encode_drain_request;

use crate::gen::{ConnStream, CONNS};

const REP_ACK: u8 = 0x81;
const ACK_DONE: u8 = 0;
const ACK_FRAME_LEN: usize = 11;
/// How long the generator waits for the acks of a finished phase.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest sleep when a pass over the connections moved nothing.
const IDLE_SLEEP: Duration = Duration::from_micros(50);
/// Width of the buckets a closed-loop phase counts acks in.
pub const BUCKET: Duration = Duration::from_millis(20);

/// When requests are sent.
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// Keep `window` requests unanswered per connection until `until`
    /// elapses from the phase start; never send more than `cap` requests on
    /// one connection.
    Closed {
        window: u64,
        until: Duration,
        cap: u64,
    },
    /// Send `count` requests in all, request `g` due `g / rate` seconds
    /// after the phase start, on connection `g % CONNS`.
    Open { rate: f64, count: u64 },
}

impl Schedule {
    fn due(&self, g: u64) -> Duration {
        match *self {
            Schedule::Open { rate, .. } => Duration::from_secs_f64(g as f64 / rate),
            Schedule::Closed { .. } => Duration::ZERO,
        }
    }
}

/// Per-request client stamps of an open-loop phase, in ns since the epoch.
#[derive(Debug, Default, Clone)]
pub struct Stamps {
    pub intended: Vec<u64>,
    pub sent: Vec<u64>,
    pub acked: Vec<u64>,
}

/// What one phase saw from the client side.
#[derive(Debug, Default)]
pub struct ClientReport {
    pub sent: [u64; CONNS],
    pub acked: [u64; CONNS],
    /// Acks that arrived with the wrong status, class or digest.
    pub mismatched: u64,
    /// The first thing that went wrong, if anything did.
    pub error: Option<String>,
    /// Closed loop: acks received per `BUCKET` after the warm-up, over the
    /// whole buckets that end by the deadline.
    pub ack_buckets: Vec<u64>,
    /// Open loop: per-request stamps, per connection.
    pub stamps: Vec<Stamps>,
}

impl ClientReport {
    /// Acks counted in `ack_buckets`.
    pub fn bucket_acks(&self) -> u64 {
        self.ack_buckets.iter().sum()
    }

    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Requests without a verified ack: missing, mismatched, or lost with
    /// their connection.
    pub fn failed(&self) -> u64 {
        let missing: u64 = (0..CONNS).map(|c| self.sent[c] - self.acked[c]).sum();
        missing + self.mismatched
    }
}

struct Conn<'s> {
    stream: TcpStream,
    traffic: &'s ConnStream,
    out: Vec<u8>,
    out_pos: usize,
    inb: Vec<u8>,
    sent: u64,
    acked: u64,
    closed: bool,
}

impl Conn<'_> {
    /// Writes as much of the staged requests as the socket takes; returns
    /// whether a byte went.
    fn flush(&mut self) -> std::io::Result<bool> {
        let mut moved = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(moved)
    }

    /// Reads whatever the socket has buffered; returns whether a byte came.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let mut moved = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(moved);
                }
                Ok(n) => {
                    self.inb.extend_from_slice(&chunk[..n]);
                    moved = true;
                    if n < chunk.len() {
                        return Ok(moved);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(moved),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Checks one ack frame payload against the reply request `j` must get.
/// Returns a description of the mismatch, if any.
pub fn check_ack(frame: &[u8], traffic: &ConnStream, j: u64) -> Result<(), String> {
    if frame.len() != ACK_FRAME_LEN || frame[0] != REP_ACK {
        return Err(format!("request {j}: not an ack frame: {frame:02x?}"));
    }
    let want = traffic.reply(j);
    let digest = u64::from_le_bytes(frame[3..11].try_into().expect("eight digest bytes"));
    if frame[1] != ACK_DONE || frame[2] != want.class || digest != want.digest {
        return Err(format!(
            "request {j}: ack status {} class {} digest {digest:#x}, expected class {} digest {:#x}",
            frame[1], frame[2], want.class, want.digest
        ));
    }
    Ok(())
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Runs one phase over connected, non-blocking `streams`, then sends a
/// drain request, waits for every ack and half-closes each connection so
/// the server sees the end of the stream. `warm` is the stretch after the
/// phase start that a closed-loop phase leaves out of `ack_buckets`.
pub fn run(
    streams: Vec<TcpStream>,
    traffic: &[ConnStream],
    schedule: Schedule,
    epoch: Instant,
    warm: Duration,
) -> ClientReport {
    let mut conns: Vec<Conn<'_>> = streams
        .into_iter()
        .zip(traffic)
        .map(|(stream, traffic)| Conn {
            stream,
            traffic,
            out: Vec::with_capacity(64 * 1024),
            out_pos: 0,
            inb: Vec::with_capacity(64 * 1024),
            sent: 0,
            acked: 0,
            closed: false,
        })
        .collect();
    let mut report = ClientReport::default();
    if let Schedule::Closed { until, .. } = schedule {
        let whole = (until.saturating_sub(warm).as_nanos() / BUCKET.as_nanos()) as usize;
        report.ack_buckets = vec![0; whole];
    }
    if let Schedule::Open { count, .. } = schedule {
        let per_conn = count.div_ceil(CONNS as u64) as usize;
        report.stamps = (0..CONNS)
            .map(|_| Stamps {
                intended: Vec::with_capacity(per_conn),
                sent: Vec::with_capacity(per_conn),
                acked: Vec::with_capacity(per_conn),
            })
            .collect();
    }
    let start = Instant::now();
    let mut next = 0u64; // next open-loop request, over all connections
    let mut drained_at: Option<Instant> = None;
    let drain = {
        let payload = encode_drain_request();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        frame
    };
    let result: Result<(), String> = 'run: loop {
        let now = Instant::now();
        let elapsed = now - start;
        // 1. Stage the requests that are due.
        if drained_at.is_none() {
            let done = match schedule {
                Schedule::Closed { window, until, cap } => {
                    if elapsed < until {
                        for c in &mut conns {
                            while c.sent - c.acked < window && c.sent < cap {
                                c.out.extend_from_slice(c.traffic.frame(c.sent));
                                c.sent += 1;
                            }
                        }
                        false
                    } else {
                        true
                    }
                }
                Schedule::Open { count, .. } => {
                    let stamp = ns_since(epoch, now);
                    while next < count && schedule.due(next) <= elapsed {
                        let c = &mut conns[(next % CONNS as u64) as usize];
                        let st = &mut report.stamps[(next % CONNS as u64) as usize];
                        st.intended
                            .push(ns_since(epoch, start + schedule.due(next)));
                        st.sent.push(stamp);
                        c.out.extend_from_slice(c.traffic.frame(c.sent));
                        c.sent += 1;
                        next += 1;
                    }
                    next == count
                }
            };
            if done {
                for c in &mut conns {
                    c.out.extend_from_slice(&drain);
                }
                drained_at = Some(now);
            }
        }
        // 2. Write and read every connection.
        let mut progress = false;
        for (ci, c) in conns.iter_mut().enumerate() {
            match c.flush() {
                Ok(moved) => progress |= moved,
                Err(e) => break 'run Err(format!("connection {ci}: send failed: {e}")),
            }
            match c.fill() {
                Ok(moved) => progress |= moved,
                Err(e) => break 'run Err(format!("connection {ci}: receive failed: {e}")),
            }
            if c.inb.is_empty() {
                continue;
            }
            let ack_ns = ns_since(epoch, Instant::now());
            let mut pos = 0;
            while c.inb.len() - pos >= 4 {
                let len = u32::from_le_bytes(c.inb[pos..pos + 4].try_into().expect("four bytes"))
                    as usize;
                if c.inb.len() - pos - 4 < len {
                    break;
                }
                let frame = &c.inb[pos + 4..pos + 4 + len];
                pos += 4 + len;
                if c.acked >= c.sent {
                    break 'run Err(format!("connection {ci}: ack for a request never sent"));
                }
                if let Err(e) = check_ack(frame, c.traffic, c.acked) {
                    report.mismatched += 1;
                    report.error.get_or_insert(format!("connection {ci}: {e}"));
                }
                if let Some(st) = report.stamps.get_mut(ci) {
                    st.acked.push(ack_ns);
                } else if let Some(since) = elapsed.checked_sub(warm) {
                    let bucket = (since.as_nanos() / BUCKET.as_nanos()) as usize;
                    if let Some(count) = report.ack_buckets.get_mut(bucket) {
                        *count += 1;
                    }
                }
                c.acked += 1;
            }
            c.inb.drain(..pos);
            if c.closed && c.acked < c.sent {
                break 'run Err(format!("connection {ci}: server closed with acks missing"));
            }
        }
        // 3. Done once every request of a drained phase is answered.
        if let Some(at) = drained_at {
            if conns.iter().all(|c| c.acked == c.sent && c.out.is_empty()) {
                break Ok(());
            }
            if at.elapsed() > DRAIN_TIMEOUT {
                break Err("acks still missing after the drain timeout".to_string());
            }
        }
        if !progress {
            let wait = match schedule {
                Schedule::Open { count, .. } if next < count => {
                    schedule.due(next).saturating_sub(start.elapsed())
                }
                _ => IDLE_SLEEP,
            };
            if !wait.is_zero() {
                std::thread::sleep(wait.min(IDLE_SLEEP));
            }
        }
    };
    for (ci, c) in conns.iter().enumerate() {
        report.sent[ci] = c.sent;
        report.acked[ci] = c.acked.min(c.sent);
        // The server reads the end of the stream as the client leaving.
        let _ = c.stream.shutdown(Shutdown::Write);
    }
    if let Err(e) = result {
        report.error.get_or_insert(e);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{stream, Mix};

    fn ack(status: u8, class: u8, digest: u64) -> Vec<u8> {
        let mut f = vec![REP_ACK, status, class];
        f.extend_from_slice(&digest.to_le_bytes());
        f
    }

    #[test]
    fn acks_are_checked_against_the_expected_reply() {
        let traffic = ConnStream::new(stream(Mix::HOT, 1, 0, 64));
        let want = traffic.reply(70);
        assert!(check_ack(&ack(0, want.class, want.digest), &traffic, 70).is_ok());
        assert!(check_ack(&ack(1, want.class, want.digest), &traffic, 70).is_err());
        assert!(check_ack(&ack(0, want.class, want.digest ^ 1), &traffic, 70).is_err());
        assert!(check_ack(&ack(0, want.class ^ 1, want.digest), &traffic, 70).is_err());
        assert!(check_ack(&ack(0, want.class, want.digest)[..10], &traffic, 70).is_err());
    }
}
