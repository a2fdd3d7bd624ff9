//! The traced run's instruments: a decorator over `ExecutorService` and a
//! wrapper around the WAL's sink. Both sit outside the program and only
//! time the calls into its public API; neither changes what is dispatched
//! or replied, so aggregates stay byte-identical with tracing on and off.
//!
//! Stamps are nanoseconds since a shared epoch, kept in preallocated
//! per-request slots (the request id is connection plus arrival index,
//! see `gen`) and turned into spans and per-layer numbers after the phase.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pdq_core::executor::{Executor, ExecutorExt, Job, SubmitBatch, TypedFuture, TypedHandle};
use pdq_core::{ShutdownError, SyncKey};
use pdq_dsm::ProtocolEvent;
use pdq_workloads::wal::WalSink;
use pdq_workloads::{BatchService, ExecutorService, ProtocolService, Reply, ServerAggregate};

use crate::gen::{conn_of, CONNS};

/// Server-side stamps of one request (0 = never stamped).
#[derive(Debug, Default)]
pub struct Slot {
    pub prep_s: AtomicU64,
    pub prep_e: AtomicU64,
    /// Start of the admission (the `try_admit` pass, or the submission
    /// inside `call`) that handed the job to the executor.
    pub admit: AtomicU64,
    pub call_s: AtomicU64,
    pub call_e: AtomicU64,
    pub job_s: AtomicU64,
    pub job_e: AtomicU64,
}

#[derive(Debug)]
pub struct ConnSlots {
    /// Requests prepared so far: the next request's index.
    prepared: AtomicU64,
    /// Prepared requests not yet admitted, oldest first.
    pending: Mutex<VecDeque<u64>>,
    pub slots: Vec<Slot>,
}

/// One WAL sink operation, attributed to the request the serve loop was
/// logging when it happened.
#[derive(Debug, Clone, Copy)]
pub struct WalSpan {
    pub persist: bool,
    pub conn: usize,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

/// Everything a traced phase records.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub conns: Vec<ConnSlots>,
    last_conn: AtomicUsize,
    pub passes: AtomicU64,
    pub pass_ns: AtomicU64,
    pub offered: AtomicU64,
    pub admitted: AtomicU64,
    pub calls: AtomicU64,
    pub executed: AtomicU64,
    /// Admission passes whose batch could not be matched to a connection.
    pub unmatched: AtomicU64,
    pub wal_write_ns: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub wal: Mutex<Vec<WalSpan>>,
}

impl Recorder {
    /// A recorder with room for `cap` requests per connection.
    pub fn new(epoch: Instant, cap: usize) -> Self {
        Self {
            epoch,
            conns: (0..CONNS)
                .map(|_| ConnSlots {
                    prepared: AtomicU64::new(0),
                    pending: Mutex::new(VecDeque::new()),
                    slots: (0..cap).map(|_| Slot::default()).collect(),
                })
                .collect(),
            last_conn: AtomicUsize::new(0),
            passes: AtomicU64::new(0),
            pass_ns: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            unmatched: AtomicU64::new(0),
            wal_write_ns: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            wal: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn prepared(&self, conn: usize) -> u64 {
        self.conns[conn].prepared.load(Relaxed)
    }

    pub fn slot(&self, conn: usize, req: u64) -> Option<&Slot> {
        self.conns[conn].slots.get(req as usize)
    }

    fn wrap(self: &Arc<Self>, conn: usize, req: u64, job: Job) -> Job {
        let rec = Arc::clone(self);
        Box::new(move || {
            let start = rec.now();
            job();
            let end = rec.now();
            rec.executed.fetch_add(1, Relaxed);
            if let Some(slot) = rec.slot(conn, req) {
                slot.job_s.store(start, Relaxed);
                slot.job_e.store(end, Relaxed);
            }
        })
    }
}

/// `ExecutorService` with every entry point timed.
///
/// On the pool tier `call` is re-expressed as `prepare` plus the same
/// `submit_async_returning` the service itself uses, so that the job can be
/// stamped; the key, the handler and the reply are unchanged.
pub struct Traced<'a> {
    pub inner: ExecutorService<'a>,
    pub executor: &'a dyn Executor,
    pub rec: Arc<Recorder>,
}

impl Traced<'_> {
    fn prepare_stamped(
        &self,
        request: ProtocolEvent,
    ) -> (SyncKey, Job, TypedHandle<Reply>, usize, u64) {
        let start = self.rec.now();
        let (key, job, handle) = self.inner.prepare(request);
        let end = self.rec.now();
        let conn = conn_of(&request);
        let req = self.rec.conns[conn].prepared.fetch_add(1, Relaxed);
        if let Some(slot) = self.rec.slot(conn, req) {
            slot.prep_s.store(start, Relaxed);
            slot.prep_e.store(end, Relaxed);
        }
        (key, self.rec.wrap(conn, req, job), handle, conn, req)
    }
}

impl ProtocolService for Traced<'_> {
    fn call(&self, request: ProtocolEvent) -> TypedFuture<Reply> {
        let start = self.rec.now();
        let (key, job, handle, conn, req) = self.prepare_stamped(request);
        let admit = self.rec.now();
        let fut = self.executor.submit_async_returning(key, move || {
            job();
            handle
                .wait()
                .unwrap_or_else(|e| panic!("traced handler failed: {e:?}"))
        });
        let end = self.rec.now();
        self.rec.calls.fetch_add(1, Relaxed);
        self.rec.admitted.fetch_add(1, Relaxed);
        if let Some(slot) = self.rec.slot(conn, req) {
            slot.admit.store(admit, Relaxed);
            slot.call_s.store(start, Relaxed);
            slot.call_e.store(end, Relaxed);
        }
        fut
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn aggregate(&self, completed: u64) -> ServerAggregate {
        self.inner.aggregate(completed)
    }

    fn snapshot_words(&self) -> Option<Vec<u64>> {
        self.inner.snapshot_words()
    }
}

impl BatchService for Traced<'_> {
    fn prepare(&self, request: ProtocolEvent) -> (SyncKey, Job, TypedHandle<Reply>) {
        let (key, job, handle, conn, req) = self.prepare_stamped(request);
        self.rec.conns[conn]
            .pending
            .lock()
            .expect("pending list lock")
            .push_back(req);
        self.rec.last_conn.store(conn, Relaxed);
        (key, job, handle)
    }

    fn try_admit(&self, batch: &mut SubmitBatch) -> Result<usize, ShutdownError> {
        let offered = batch.len();
        let start = self.rec.now();
        let admitted = self.inner.try_admit(batch)?;
        let end = self.rec.now();
        let rec = &self.rec;
        rec.passes.fetch_add(1, Relaxed);
        rec.pass_ns.fetch_add(end - start, Relaxed);
        rec.offered.fetch_add(offered as u64, Relaxed);
        rec.admitted.fetch_add(admitted as u64, Relaxed);
        // The batch is one connection's prepared, unadmitted suffix: the
        // connection that just prepared, or the only one whose backlog has
        // the batch's length.
        let pending_len = |c: usize| rec.conns[c].pending.lock().expect("pending lock").len();
        let last = rec.last_conn.load(Relaxed);
        let conn = if pending_len(last) == offered {
            Some(last)
        } else {
            let mut matching = (0..CONNS).filter(|&c| pending_len(c) == offered);
            match (matching.next(), matching.next()) {
                (Some(c), None) => Some(c),
                _ => None,
            }
        };
        match conn {
            Some(c) => {
                let mut pending = rec.conns[c].pending.lock().expect("pending lock");
                for req in pending.drain(..admitted) {
                    if let Some(slot) = rec.slot(c, req) {
                        slot.admit.store(start, Relaxed);
                    }
                }
            }
            None => {
                rec.unmatched.fetch_add(1, Relaxed);
            }
        }
        Ok(admitted)
    }
}

/// A WAL sink that times every write and durability barrier of the sink it
/// wraps. `calls` counts the requests the serve loop has dispatched on this
/// connection; the loop logs request `k` before dispatching it, so sink
/// work happens while `calls == k`.
pub struct TracedSink<W: WalSink> {
    pub inner: W,
    pub rec: Arc<Recorder>,
    pub conn: usize,
    spans: Vec<WalSpan>,
    write_ns: u64,
    bytes: u64,
}

impl<W: WalSink> TracedSink<W> {
    pub fn new(inner: W, rec: Arc<Recorder>, conn: usize) -> Self {
        Self {
            inner,
            rec,
            conn,
            spans: Vec::new(),
            write_ns: 0,
            bytes: 0,
        }
    }

    fn record(&mut self, persist: bool, start: u64, end: u64) {
        let req = self.rec.prepared(self.conn);
        self.spans.push(WalSpan {
            persist,
            conn: self.conn,
            req,
            start,
            end,
        });
    }
}

impl<W: WalSink> Write for TracedSink<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let start = self.rec.now();
        let n = self.inner.write(data)?;
        let end = self.rec.now();
        self.write_ns += end - start;
        self.bytes += n as u64;
        self.record(false, start, end);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<W: WalSink> WalSink for TracedSink<W> {
    fn persist(&mut self) -> io::Result<()> {
        let start = self.rec.now();
        self.inner.persist()?;
        let end = self.rec.now();
        self.record(true, start, end);
        Ok(())
    }
}

impl<W: WalSink> Drop for TracedSink<W> {
    fn drop(&mut self) {
        self.rec.wal_write_ns.fetch_add(self.write_ns, Relaxed);
        self.rec.wal_bytes.fetch_add(self.bytes, Relaxed);
        if let Ok(mut wal) = self.rec.wal.lock() {
            wal.append(&mut self.spans);
        }
    }
}
