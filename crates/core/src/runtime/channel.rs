//! Runtime FIFO queues with overflow policies and occupancy statistics.
//!
//! Two families live here:
//!
//! * [`RuntimeChannel`] — the single-threaded executor's queue, mutated
//!   in place by the event loop;
//! * the federated channel ([`fed_channel`]) — a bounded SPSC queue
//!   between two OS threads with credit-style backpressure (the capacity
//!   *is* the credit: a producer out of space blocks until the consumer's
//!   pop returns one), disconnect-aware blocking on both ends, and
//!   lock-free [`ChannelTelemetry`] counters an RTI can sample while the
//!   federation runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use polysig_tagged::{SigName, Value};

use crate::policy::ChannelPolicy;

/// What happened to a pushed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued.
    Stored,
    /// Dropped (lossy policy, queue full).
    Dropped,
    /// Rejected; the producer must retry later (blocking policy).
    WouldBlock,
}

/// Occupancy and traffic statistics of one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Values enqueued.
    pub pushes: usize,
    /// Values dequeued.
    pub pops: usize,
    /// Values lost to the lossy policy.
    pub drops: usize,
    /// Pushes rejected with [`PushOutcome::WouldBlock`].
    pub blocks: usize,
    /// Highest occupancy ever observed.
    pub max_occupancy: usize,
}

/// A bounded or unbounded FIFO queue between two GALS components.
///
/// ```
/// use polysig_gals::runtime::RuntimeChannel;
/// use polysig_gals::ChannelPolicy;
/// use polysig_tagged::Value;
///
/// let mut ch = RuntimeChannel::new("x".into(), Some(1), ChannelPolicy::Lossy);
/// ch.push(Value::Int(1));
/// ch.push(Value::Int(2)); // dropped
/// assert_eq!(ch.pop(), Some(Value::Int(1)));
/// assert_eq!(ch.stats().drops, 1);
/// ```
#[derive(Debug, Clone)]
pub struct RuntimeChannel {
    name: SigName,
    capacity: Option<usize>,
    policy: ChannelPolicy,
    queue: VecDeque<Value>,
    stats: ChannelStats,
}

impl RuntimeChannel {
    /// Creates a channel. `capacity` is ignored (unbounded) under
    /// [`ChannelPolicy::Unbounded`].
    ///
    /// # Panics
    ///
    /// Panics if a bounded policy is given no capacity or a zero capacity.
    pub fn new(name: SigName, capacity: Option<usize>, policy: ChannelPolicy) -> Self {
        if policy != ChannelPolicy::Unbounded {
            let c = capacity.expect("bounded channel needs a capacity");
            assert!(c > 0, "capacity must be positive");
        }
        RuntimeChannel {
            name,
            capacity: if policy == ChannelPolicy::Unbounded { None } else { capacity },
            policy,
            queue: VecDeque::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The carried signal's name.
    pub fn name(&self) -> &SigName {
        &self.name
    }

    /// The overflow policy.
    pub fn policy(&self) -> ChannelPolicy {
        self.policy
    }

    /// Current queue length.
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// `true` iff a push would not store the value.
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.queue.len() >= c)
    }

    /// Pushes a value according to the policy.
    pub fn push(&mut self, value: Value) -> PushOutcome {
        if self.is_full() {
            match self.policy {
                ChannelPolicy::Unbounded => unreachable!("unbounded channels are never full"),
                ChannelPolicy::Lossy => {
                    self.stats.drops += 1;
                    return PushOutcome::Dropped;
                }
                ChannelPolicy::Blocking => {
                    self.stats.blocks += 1;
                    return PushOutcome::WouldBlock;
                }
            }
        }
        self.queue.push_back(value);
        self.stats.pushes += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.queue.len());
        PushOutcome::Stored
    }

    /// Pops the oldest value, if any.
    pub fn pop(&mut self) -> Option<Value> {
        let v = self.queue.pop_front();
        if v.is_some() {
            self.stats.pops += 1;
        }
        v
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }
}

// ---------------------------------------------------------------------------
// the federated channel: bounded SPSC with credit backpressure + telemetry
// ---------------------------------------------------------------------------

/// What a blocking federated send did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Enqueued (possibly after stalling for credit).
    Sent,
    /// The consumer endpoint is gone; the value was discarded. The producer
    /// should stop sending on this link (it has become `/dev/null`).
    ConsumerGone,
    /// The shutdown flag was raised while stalled; the value was discarded.
    Interrupted,
}

/// What a blocking federated receive did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A value arrived (possibly after waiting).
    Value(Value),
    /// The queue is drained and the producer endpoint is gone.
    ProducerGone,
    /// The shutdown flag was raised while waiting.
    Interrupted,
}

/// Monotonic counters one federated channel streams while it runs.
///
/// All fields are relaxed atomics: single-writer per counter (pushes and
/// stalls by the producer, pops by the consumer), read concurrently by the
/// RTI's sampler. A sampled occupancy may be transiently off by one — fine
/// for monitoring, and the post-join snapshot is exact.
#[derive(Debug, Default)]
pub struct ChannelTelemetry {
    pushes: AtomicU64,
    pops: AtomicU64,
    stall_events: AtomicU64,
    stalled_ns: AtomicU64,
    max_occupancy: AtomicU64,
    producer_waiting: AtomicBool,
    consumer_waiting: AtomicBool,
}

impl ChannelTelemetry {
    /// Values enqueued so far.
    pub fn pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Values dequeued so far.
    pub fn pops(&self) -> u64 {
        self.pops.load(Ordering::Relaxed)
    }

    /// Current queue occupancy (pushes − pops; transiently approximate
    /// while both ends are live).
    pub fn occupancy(&self) -> u64 {
        self.pushes().saturating_sub(self.pops())
    }

    /// How many endpoints of this channel are blocked *right now*: the
    /// producer inside a stalled [`FedSender::send`], the consumer inside a
    /// waiting [`FedReceiver::recv`] (0, 1 or 2). The flags are set while
    /// the endpoint is inside its wait loop and cleared before the call
    /// returns, so a permanently deadlocked endpoint reads as permanently
    /// waiting — the signal the RTI's stall watchdog keys on.
    pub fn waiting_ends(&self) -> usize {
        usize::from(self.producer_waiting.load(Ordering::Relaxed))
            + usize::from(self.consumer_waiting.load(Ordering::Relaxed))
    }

    /// One-shot copy of every counter.
    pub fn snapshot(&self) -> ChannelCounters {
        ChannelCounters {
            pushes: self.pushes(),
            pops: self.pops(),
            stall_events: self.stall_events.load(Ordering::Relaxed),
            stalled: Duration::from_nanos(self.stalled_ns.load(Ordering::Relaxed)),
            max_occupancy: self.max_occupancy.load(Ordering::Relaxed) as usize,
        }
    }
}

/// A point-in-time copy of one channel's [`ChannelTelemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Values enqueued.
    pub pushes: u64,
    /// Values dequeued.
    pub pops: u64,
    /// Sends that had to stall for credit at least once.
    pub stall_events: u64,
    /// Total wall-clock time sends spent stalled.
    pub stalled: Duration,
    /// Highest occupancy ever reached.
    pub max_occupancy: usize,
}

impl ChannelCounters {
    /// Occupancy at snapshot time (pushes − pops).
    pub fn occupancy_now(&self) -> u64 {
        self.pushes.saturating_sub(self.pops)
    }

    /// `true` iff every value pushed was also popped.
    pub fn drained(&self) -> bool {
        self.pushes == self.pops
    }
}

struct FedState {
    queue: VecDeque<Value>,
    producer_gone: bool,
    consumer_gone: bool,
}

struct FedShared {
    state: Mutex<FedState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    telemetry: ChannelTelemetry,
}

/// Producer endpoint of a federated channel. Dropping it marks the
/// producer gone and wakes a blocked consumer.
pub struct FedSender {
    shared: Arc<FedShared>,
}

/// Consumer endpoint of a federated channel. Dropping it marks the
/// consumer gone and wakes a blocked producer.
pub struct FedReceiver {
    shared: Arc<FedShared>,
}

/// Creates a bounded federated channel of the given capacity (the credit
/// pool: at most `capacity` values in flight).
///
/// # Panics
///
/// Panics when `capacity` is zero.
pub fn fed_channel(capacity: usize) -> (FedSender, FedReceiver) {
    assert!(capacity > 0, "a federated channel needs at least one credit");
    let shared = Arc::new(FedShared {
        state: Mutex::new(FedState {
            queue: VecDeque::with_capacity(capacity),
            producer_gone: false,
            consumer_gone: false,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity,
        telemetry: ChannelTelemetry::default(),
    });
    (FedSender { shared: shared.clone() }, FedReceiver { shared })
}

/// A coordinator-side handle to one federated channel's telemetry that
/// outlives both endpoints: the RTI keeps monitors while the endpoints move
/// into federate threads, samples occupancy during the run, and snapshots
/// the exact totals after every thread is joined.
#[derive(Clone)]
pub struct ChannelMonitor {
    shared: Arc<FedShared>,
}

impl ChannelMonitor {
    /// Current queue occupancy (transiently approximate while live).
    pub fn occupancy(&self) -> u64 {
        self.shared.telemetry.occupancy()
    }

    /// Endpoints blocked in a send/recv wait loop right now (0..=2) — the
    /// stall watchdog's input (see [`ChannelTelemetry::waiting_ends`]).
    pub fn waiting_ends(&self) -> usize {
        self.shared.telemetry.waiting_ends()
    }

    /// Values moved through the channel so far (pushes + pops): frozen
    /// totals across a watchdog window mean no token moved.
    pub fn traffic(&self) -> u64 {
        self.shared.telemetry.pushes() + self.shared.telemetry.pops()
    }

    /// One-shot copy of every counter.
    pub fn snapshot(&self) -> ChannelCounters {
        self.shared.telemetry.snapshot()
    }
}

impl FedSender {
    /// The channel's streaming counters (shared with the receiver).
    pub fn telemetry(&self) -> &ChannelTelemetry {
        &self.shared.telemetry
    }

    /// A telemetry handle that survives both endpoints being moved away.
    pub fn monitor(&self) -> ChannelMonitor {
        ChannelMonitor { shared: self.shared.clone() }
    }

    /// Sends `value`, blocking while the channel is out of credit.
    ///
    /// The wait is sliced into `poll`-long waits so the producer notices a
    /// raised `shutdown` flag promptly; a consumer endpoint dropping wakes
    /// the call immediately (disconnect-aware, no timeout needed). Stall
    /// time is accounted on the channel's telemetry: one stall event per
    /// send that had to wait, plus the summed wall-clock wait. A send to an
    /// already-gone consumer returns at once and is not a stall.
    pub fn send(&self, value: Value, poll: Duration, shutdown: &AtomicBool) -> SendOutcome {
        let sh = &*self.shared;
        let mut st = sh.state.lock().expect("federated channel poisoned");
        if st.consumer_gone {
            return SendOutcome::ConsumerGone;
        }
        if st.queue.len() < sh.capacity {
            return Self::commit(sh, &mut st, value);
        }
        // slow path: out of credit — stall with the clock running
        sh.telemetry.stall_events.fetch_add(1, Ordering::Relaxed);
        sh.telemetry.producer_waiting.store(true, Ordering::Relaxed);
        let stalled_from = Instant::now();
        let outcome = loop {
            if st.consumer_gone {
                break SendOutcome::ConsumerGone;
            }
            if st.queue.len() < sh.capacity {
                break Self::commit(sh, &mut st, value);
            }
            if shutdown.load(Ordering::Relaxed) {
                break SendOutcome::Interrupted;
            }
            let (guard, _) =
                sh.not_full.wait_timeout(st, poll).expect("federated channel poisoned");
            st = guard;
        };
        sh.telemetry.producer_waiting.store(false, Ordering::Relaxed);
        sh.telemetry
            .stalled_ns
            .fetch_add(stalled_from.elapsed().as_nanos() as u64, Ordering::Relaxed);
        outcome
    }

    fn commit(sh: &FedShared, st: &mut FedState, value: Value) -> SendOutcome {
        st.queue.push_back(value);
        let occ = st.queue.len() as u64;
        sh.telemetry.pushes.fetch_add(1, Ordering::Relaxed);
        sh.telemetry.max_occupancy.fetch_max(occ, Ordering::Relaxed);
        sh.not_empty.notify_one();
        SendOutcome::Sent
    }
}

impl FedReceiver {
    /// The channel's streaming counters (shared with the sender).
    pub fn telemetry(&self) -> &ChannelTelemetry {
        &self.shared.telemetry
    }

    /// Pops the oldest value without blocking, returning a credit to the
    /// producer.
    pub fn try_recv(&self) -> Option<Value> {
        let sh = &*self.shared;
        let mut st = sh.state.lock().expect("federated channel poisoned");
        let v = st.queue.pop_front()?;
        drop(st);
        sh.telemetry.pops.fetch_add(1, Ordering::Relaxed);
        sh.not_full.notify_one();
        Some(v)
    }

    /// Pops the oldest value, blocking while the channel is empty (the
    /// data-driven activation mode). Queued values are drained before a
    /// gone producer is reported, so nothing in flight is lost; the wait is
    /// sliced by `poll` to notice the `shutdown` flag.
    pub fn recv(&self, poll: Duration, shutdown: &AtomicBool) -> RecvOutcome {
        let sh = &*self.shared;
        let mut st = sh.state.lock().expect("federated channel poisoned");
        let mut waited = false;
        let outcome = loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                sh.telemetry.pops.fetch_add(1, Ordering::Relaxed);
                sh.not_full.notify_one();
                break RecvOutcome::Value(v);
            }
            if st.producer_gone {
                break RecvOutcome::ProducerGone;
            }
            if shutdown.load(Ordering::Relaxed) {
                break RecvOutcome::Interrupted;
            }
            if !waited {
                waited = true;
                sh.telemetry.consumer_waiting.store(true, Ordering::Relaxed);
            }
            let (guard, _) =
                sh.not_empty.wait_timeout(st, poll).expect("federated channel poisoned");
            st = guard;
        };
        if waited {
            sh.telemetry.consumer_waiting.store(false, Ordering::Relaxed);
        }
        outcome
    }
}

impl Drop for FedSender {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("federated channel poisoned");
        st.producer_gone = true;
        drop(st);
        self.shared.not_empty.notify_all();
    }
}

impl Drop for FedReceiver {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("federated channel poisoned");
        st.consumer_gone = true;
        drop(st);
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut ch = RuntimeChannel::new("x".into(), None, ChannelPolicy::Unbounded);
        for i in 0..5 {
            assert_eq!(ch.push(Value::Int(i)), PushOutcome::Stored);
        }
        for i in 0..5 {
            assert_eq!(ch.pop(), Some(Value::Int(i)));
        }
        assert_eq!(ch.pop(), None);
        assert_eq!(ch.stats().max_occupancy, 5);
    }

    #[test]
    fn lossy_drops_on_overflow() {
        let mut ch = RuntimeChannel::new("x".into(), Some(2), ChannelPolicy::Lossy);
        assert_eq!(ch.push(Value::Int(1)), PushOutcome::Stored);
        assert_eq!(ch.push(Value::Int(2)), PushOutcome::Stored);
        assert_eq!(ch.push(Value::Int(3)), PushOutcome::Dropped);
        assert_eq!(ch.stats().drops, 1);
        // the dropped value never appears
        assert_eq!(ch.pop(), Some(Value::Int(1)));
        assert_eq!(ch.pop(), Some(Value::Int(2)));
        assert_eq!(ch.pop(), None);
    }

    #[test]
    fn blocking_rejects_and_counts() {
        let mut ch = RuntimeChannel::new("x".into(), Some(1), ChannelPolicy::Blocking);
        assert_eq!(ch.push(Value::Int(1)), PushOutcome::Stored);
        assert_eq!(ch.push(Value::Int(2)), PushOutcome::WouldBlock);
        assert_eq!(ch.stats().blocks, 1);
        ch.pop();
        assert_eq!(ch.push(Value::Int(2)), PushOutcome::Stored);
    }

    #[test]
    #[should_panic(expected = "needs a capacity")]
    fn bounded_policy_requires_capacity() {
        let _ = RuntimeChannel::new("x".into(), None, ChannelPolicy::Lossy);
    }

    #[test]
    fn unbounded_never_fills() {
        let mut ch = RuntimeChannel::new("x".into(), Some(1), ChannelPolicy::Unbounded);
        for i in 0..100 {
            assert_eq!(ch.push(Value::Int(i)), PushOutcome::Stored);
        }
        assert!(!ch.is_full());
    }
}

#[cfg(test)]
mod fed_tests {
    use super::*;
    use std::thread;

    const POLL: Duration = Duration::from_millis(2);

    fn no_shutdown() -> AtomicBool {
        AtomicBool::new(false)
    }

    #[test]
    fn capacity_is_the_credit_pool() {
        let (tx, rx) = fed_channel(2);
        let stop = no_shutdown();
        assert_eq!(tx.send(Value::Int(1), POLL, &stop), SendOutcome::Sent);
        assert_eq!(tx.send(Value::Int(2), POLL, &stop), SendOutcome::Sent);
        // third send must stall until the consumer returns a credit
        let producer = thread::spawn(move || {
            let stop = no_shutdown();
            let out = tx.send(Value::Int(3), POLL, &stop);
            (out, tx.telemetry().snapshot())
        });
        thread::sleep(Duration::from_millis(15));
        assert_eq!(rx.try_recv(), Some(Value::Int(1)));
        let (out, counters) = producer.join().unwrap();
        assert_eq!(out, SendOutcome::Sent);
        assert_eq!(counters.stall_events, 1, "exactly the blocked send stalls");
        assert!(counters.stalled >= Duration::from_millis(5), "stall time is accounted");
        assert_eq!(counters.max_occupancy, 2);
        assert_eq!(rx.try_recv(), Some(Value::Int(2)));
        assert_eq!(rx.try_recv(), Some(Value::Int(3)));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn consumer_drop_wakes_a_stalled_producer() {
        let (tx, rx) = fed_channel(1);
        let stop = no_shutdown();
        assert_eq!(tx.send(Value::Int(1), Duration::from_secs(10), &stop), SendOutcome::Sent);
        let producer = thread::spawn(move || {
            let stop = no_shutdown();
            // a 10s poll slice: only the disconnect wake can finish this
            // test promptly
            tx.send(Value::Int(2), Duration::from_secs(10), &stop)
        });
        thread::sleep(Duration::from_millis(10));
        drop(rx);
        assert_eq!(producer.join().unwrap(), SendOutcome::ConsumerGone);
    }

    #[test]
    fn send_to_a_gone_consumer_is_not_a_stall() {
        let (tx, rx) = fed_channel(1);
        drop(rx);
        assert_eq!(tx.send(Value::Int(1), POLL, &no_shutdown()), SendOutcome::ConsumerGone);
        let counters = tx.telemetry().snapshot();
        assert_eq!(counters.stall_events, 0, "no credit wait happened");
        assert_eq!(counters.stalled, Duration::ZERO);
        assert_eq!(counters.pushes, 0);
        assert_eq!(tx.telemetry().waiting_ends(), 0);
    }

    #[test]
    fn shutdown_interrupts_a_stalled_producer() {
        let (tx, _rx) = fed_channel(1);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        assert_eq!(tx.send(Value::Int(1), POLL, &stop), SendOutcome::Sent);
        let producer = thread::spawn(move || tx.send(Value::Int(2), POLL, &flag));
        thread::sleep(Duration::from_millis(10));
        stop.store(true, Ordering::Relaxed);
        assert_eq!(producer.join().unwrap(), SendOutcome::Interrupted);
    }

    #[test]
    fn blocking_recv_drains_before_reporting_gone() {
        let (tx, rx) = fed_channel(4);
        let stop = no_shutdown();
        for i in 0..3 {
            assert_eq!(tx.send(Value::Int(i), POLL, &stop), SendOutcome::Sent);
        }
        drop(tx);
        for i in 0..3 {
            assert_eq!(rx.recv(POLL, &stop), RecvOutcome::Value(Value::Int(i)));
        }
        assert_eq!(rx.recv(POLL, &stop), RecvOutcome::ProducerGone);
        let counters = rx.telemetry().snapshot();
        assert_eq!((counters.pushes, counters.pops), (3, 3));
        assert_eq!(counters.occupancy_now(), 0);
    }

    #[test]
    fn telemetry_streams_while_both_ends_run() {
        let (tx, rx) = fed_channel(8);
        let stop = no_shutdown();
        for i in 0..5 {
            assert_eq!(tx.send(Value::Int(i), POLL, &stop), SendOutcome::Sent);
        }
        assert_eq!(tx.telemetry().occupancy(), 5);
        assert_eq!(rx.try_recv(), Some(Value::Int(0)));
        assert_eq!(tx.telemetry().occupancy(), 4);
        assert_eq!(tx.telemetry().snapshot().max_occupancy, 5);
    }

    #[test]
    #[should_panic(expected = "at least one credit")]
    fn zero_capacity_rejected() {
        let _ = fed_channel(0);
    }
}
