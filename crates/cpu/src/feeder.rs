//! Op generation ahead of the simulation thread.
//!
//! An op stream never depends on simulation state, so it can be
//! generated before a core asks for it. Every live stream sits behind
//! a *feed*: its generator plus a short queue of batches generated
//! ahead. An [`OpFeeder`] (one per simulated machine) runs a helper
//! thread that keeps every registered feed topped up, emptiest first,
//! and sleeps on a condition variable once all of them are full.
//!
//! The simulation thread never waits for the helper. When its current
//! batch runs out it takes the oldest ready batch; if none is ready it
//! generates the next batch itself, under the same lock. Generation
//! always happens under the feed's lock and always appends, so the
//! generator stands at the end of the last ready batch at every
//! moment, and whichever thread generates a batch continues the one
//! sequence: the ops a core sees are the same under every
//! interleaving, with the helper running, starved, or absent.
//!
//! Lookahead is bounded: at most [`FEED_DEPTH`] ready batches of
//! [`FEED_BATCH`] ops per stream, in three recycled buffers (12 KB),
//! so a machine of 16 streams holds about 200 KB of generated ops.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;

use mmm_workload::{MicroOp, OpSource};

use crate::context::ExecContext;

/// Ops per batch: the unit handed from the helper to the simulation
/// thread, about 8 µs of generation. Batches of 256 ran no faster and
/// held twice the buffer memory.
pub const FEED_BATCH: usize = 128;

/// Ready batches the helper keeps queued per feed: the lookahead
/// bound.
pub const FEED_DEPTH: usize = 2;

/// Name of the helper thread.
const FEEDER_THREAD: &str = "mmm-op-feeder";

/// Locks `m`. A poisoned lock means a generator panicked mid-batch,
/// leaving its stream position unknown, so it is fatal.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("op feed lock poisoned: a generator panicked")
}

/// One stream's generator and the batches generated ahead of it.
/// Invariant: `source` stands at the end of the last batch in
/// `ready`.
#[derive(Debug)]
struct FeedState {
    source: OpSource,
    ready: VecDeque<Vec<MicroOp>>,
    /// Consumed batch buffers, reused by the next generation.
    spare: Vec<Vec<MicroOp>>,
}

impl FeedState {
    /// Generates the next batch of the sequence.
    fn generate(&mut self) -> Vec<MicroOp> {
        let mut batch = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(FEED_BATCH));
        batch.clear();
        self.source.next_ops(FEED_BATCH as u64, |op| batch.push(op));
        batch
    }
}

/// Generates one batch ahead on `feed` unless it is full by now.
fn top_up(feed: &Mutex<FeedState>) {
    let mut state = lock(feed);
    if state.ready.len() < FEED_DEPTH {
        let batch = state.generate();
        state.ready.push_back(batch);
    }
}

/// The consuming end of a feed, owned by the context (or fork pair)
/// reading the stream. Only the simulation thread touches it.
#[derive(Debug)]
pub(crate) struct Feed {
    state: Arc<Mutex<FeedState>>,
    /// The batch being consumed, and the next op in it.
    batch: Vec<MicroOp>,
    pos: usize,
    /// The feeder generating ahead, once registered.
    feeder: Option<Arc<Shared>>,
}

impl Feed {
    pub(crate) fn new(source: OpSource) -> Self {
        Feed {
            state: Arc::new(Mutex::new(FeedState {
                source,
                ready: VecDeque::with_capacity(FEED_DEPTH),
                // Enough buffers for a full queue plus the consumer's
                // batch, allocated here so the helper never allocates:
                // a helper that did would get an allocator arena of
                // its own, and the memory it holds.
                spare: (0..=FEED_DEPTH)
                    .map(|_| Vec::with_capacity(FEED_BATCH))
                    .collect(),
            })),
            batch: Vec::new(),
            pos: 0,
            feeder: None,
        }
    }

    /// Produces the next `n` ops of the stream through `sink`.
    pub(crate) fn next_ops(&mut self, n: u64, mut sink: impl FnMut(MicroOp)) {
        let mut n = n as usize;
        while n > 0 {
            if self.pos == self.batch.len() {
                self.pull();
            }
            let end = self.batch.len().min(self.pos + n);
            for &op in &self.batch[self.pos..end] {
                sink(op);
            }
            n -= end - self.pos;
            self.pos = end;
        }
    }

    /// Replaces the consumed batch with the oldest ready one, or with
    /// a batch generated here when the helper has none ready. Wakes a
    /// sleeping helper once the queue runs dry.
    fn pull(&mut self) {
        let mut state = lock(&self.state);
        let (next, emptied) = match state.ready.pop_front() {
            Some(batch) => (batch, state.ready.is_empty()),
            None => (state.generate(), false),
        };
        let done = std::mem::replace(&mut self.batch, next);
        if done.capacity() > 0 {
            state.spare.push(done);
        }
        // Never wake the helper while holding a feed lock: it scans
        // the feeds while holding its control lock.
        drop(state);
        self.pos = 0;
        if emptied {
            if let Some(feeder) = &self.feeder {
                feeder.nudge();
            }
        }
    }

    /// Hands this feed to `feeder`, returning the handle it scans.
    /// `None` when the feed is already registered or replays a trace
    /// (replay is a copy, not worth a thread).
    fn attach(&mut self, feeder: &Arc<Shared>) -> Option<Weak<Mutex<FeedState>>> {
        if self.feeder.is_some() || !matches!(lock(&self.state).source, OpSource::Stream(_)) {
            return None;
        }
        self.feeder = Some(Arc::clone(feeder));
        Some(Arc::downgrade(&self.state))
    }
}

impl Clone for Feed {
    /// Deep copy at the same stream position, unregistered: the clone
    /// generates inline until a feeder adopts it.
    fn clone(&self) -> Self {
        let state = lock(&self.state);
        Feed {
            state: Arc::new(Mutex::new(FeedState {
                source: state.source.clone(),
                ready: state.ready.clone(),
                spare: Vec::new(),
            })),
            batch: self.batch.clone(),
            pos: self.pos,
            feeder: None,
        }
    }
}

/// What the helper and the feeds' consumers share.
#[derive(Debug, Default)]
struct Shared {
    ctl: Mutex<Control>,
    wake: Condvar,
    /// Set by the helper before its last look at the feeds ahead of a
    /// wait. A consumer that empties a feed while it is set wakes the
    /// helper.
    sleeping: AtomicBool,
}

#[derive(Debug, Default)]
struct Control {
    feeds: Vec<Weak<Mutex<FeedState>>>,
    stop: bool,
}

impl Shared {
    /// Wakes the helper if it is asleep.
    fn nudge(&self) {
        if self.sleeping.load(Ordering::SeqCst) {
            let _ctl = lock(&self.ctl);
            self.sleeping.store(false, Ordering::SeqCst);
            self.wake.notify_one();
        }
    }

    /// The live feed with the fewest ready batches, if any is below
    /// [`FEED_DEPTH`]. Forgets feeds whose stream has been dropped.
    fn neediest(ctl: &mut Control) -> Option<Arc<Mutex<FeedState>>> {
        let mut best = None;
        let mut best_len = FEED_DEPTH;
        ctl.feeds.retain(|weak| {
            let Some(feed) = weak.upgrade() else {
                return false;
            };
            let len = lock(&feed).ready.len();
            if len < best_len {
                best_len = len;
                best = Some(feed);
            }
            true
        });
        best
    }

    /// The helper thread's loop: top up the neediest feed, or sleep
    /// until a consumer empties one.
    fn run(&self) {
        let mut ctl = lock(&self.ctl);
        loop {
            if ctl.stop {
                return;
            }
            let mut next = Self::neediest(&mut ctl);
            if next.is_none() {
                // Every feed is full. Announce the sleep, then look
                // once more: a consumer that emptied a feed after the
                // first look but before the announcement did not wake
                // us, and this look sees its take.
                self.sleeping.store(true, Ordering::SeqCst);
                next = Self::neediest(&mut ctl);
                if next.is_none() {
                    while self.sleeping.load(Ordering::SeqCst) && !ctl.stop {
                        ctl = self
                            .wake
                            .wait(ctl)
                            .expect("op feeder lock poisoned: a generator panicked");
                    }
                    continue;
                }
                self.sleeping.store(false, Ordering::SeqCst);
            }
            drop(ctl);
            if let Some(feed) = next {
                top_up(&feed);
            }
            ctl = lock(&self.ctl);
        }
    }
}

/// Generates the op streams of one machine ahead of its simulation
/// thread, on a named helper thread started by [`OpFeeder::start`] and
/// joined on drop. What the simulation computes does not depend on
/// whether, when, or how far the helper runs.
#[derive(Debug, Default)]
pub struct OpFeeder {
    shared: Arc<Shared>,
    started: bool,
    helper: Option<JoinHandle<()>>,
    /// Dead once the helper thread has exited.
    alive: Weak<()>,
}

impl OpFeeder {
    /// A feeder with no streams and no helper thread yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the live stream `ctx` reads, so the helper generates
    /// it ahead. A fork pair shares one stream, so registering either
    /// side covers both; a stream registers once, and trace replays
    /// are skipped.
    pub fn register(&mut self, ctx: &ExecContext) {
        if let Some(feed) = ctx.with_feed(|feed| feed.attach(&self.shared)) {
            let mut ctl = lock(&self.shared.ctl);
            ctl.feeds.push(feed);
            self.shared.sleeping.store(false, Ordering::SeqCst);
            self.shared.wake.notify_one();
        }
    }

    /// Starts the helper thread on the first call, if any stream is
    /// registered; later calls cost one branch. If the thread cannot
    /// be spawned, every batch is generated inline instead.
    #[inline]
    pub fn start(&mut self) {
        if !self.started {
            self.spawn();
        }
    }

    #[cold]
    fn spawn(&mut self) {
        self.started = true;
        if self.feeds() == 0 {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let alive = Arc::new(());
        self.alive = Arc::downgrade(&alive);
        self.helper = std::thread::Builder::new()
            .name(FEEDER_THREAD.into())
            .spawn(move || {
                let _alive = alive;
                shared.run();
            })
            .ok();
    }

    /// Whether the helper thread has been started (and not yet
    /// stopped by drop).
    pub fn is_running(&self) -> bool {
        self.helper.is_some()
    }

    /// A handle that upgrades only while the helper thread exists. It
    /// outlives the feeder, so a caller can check that dropping the
    /// feeder joined the helper.
    pub fn helper_probe(&self) -> Weak<()> {
        self.alive.clone()
    }

    /// Live registered streams, forgetting dropped ones.
    pub fn feeds(&self) -> usize {
        let mut ctl = lock(&self.shared.ctl);
        ctl.feeds.retain(|weak| weak.strong_count() > 0);
        ctl.feeds.len()
    }

    /// Does the helper's work on the calling thread: tops every
    /// registered stream up to the lookahead bound. Lets a test put
    /// the feeds fully ahead of their consumers without a thread.
    #[cfg(test)]
    fn top_up_all(&self) {
        loop {
            let next = Shared::neediest(&mut lock(&self.shared.ctl));
            match next {
                Some(feed) => top_up(&feed),
                None => return,
            }
        }
    }
}

impl Drop for OpFeeder {
    /// Stops the helper and joins it.
    fn drop(&mut self) {
        if let Some(helper) = self.helper.take() {
            {
                // `Drop` must not panic: stopping needs only the flag.
                let mut ctl = self
                    .shared
                    .ctl
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                ctl.stop = true;
                self.shared.sleeping.store(false, Ordering::SeqCst);
                self.shared.wake.notify_one();
            }
            // A helper panic has already been reported on its thread.
            let _ = helper.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmm_types::{VcpuId, VmId};
    use mmm_workload::{Benchmark, OpStream, Trace};

    fn stream(vcpu: u16) -> OpStream {
        OpStream::new(Benchmark::Pmake.profile(), VmId(0), VcpuId(vcpu), 11)
    }

    fn ctx(vcpu: u16) -> ExecContext {
        ExecContext::new(stream(vcpu))
    }

    /// Takes `n` ops from `ctx` and checks them against `expect`.
    fn check(ctx: &mut ExecContext, expect: &mut OpStream, n: usize) {
        for i in 0..n {
            let (seq, op) = ctx.take();
            assert_eq!(op, expect.next_op(), "op {i} (seq {seq})");
        }
    }

    fn ready(ctx: &ExecContext) -> usize {
        ctx.with_feed(|f| lock(&f.state).ready.len())
    }

    #[test]
    fn inline_generation_alone_reproduces_the_stream() {
        let mut c = ctx(3);
        let mut expect = stream(3);
        check(&mut c, &mut expect, 5 * FEED_BATCH + 17);
        assert_eq!(ready(&c), 0, "nothing generates ahead without a feeder");
    }

    #[test]
    fn a_feed_topped_up_ahead_reproduces_the_stream() {
        let mut feeder = OpFeeder::new();
        let mut c = ctx(4);
        feeder.register(&c);
        let mut expect = stream(4);
        // Alternate: fully ahead, then drained past the queue into the
        // inline fallback, then ahead again.
        for _ in 0..4 {
            feeder.top_up_all();
            assert_eq!(ready(&c), FEED_DEPTH);
            check(&mut c, &mut expect, (FEED_DEPTH + 1) * FEED_BATCH + 5);
        }
    }

    #[test]
    fn fork_sides_share_a_feed_that_runs_ahead() {
        let mut feeder = OpFeeder::new();
        let mut a = ctx(5);
        let mut b = a.fork();
        feeder.register(&a);
        feeder.register(&b);
        assert_eq!(feeder.feeds(), 1, "a fork pair is one stream");
        let (mut ea, mut eb) = (stream(5), stream(5));
        for round in 0..6 {
            feeder.top_up_all();
            let (na, nb) = if round % 2 == 0 { (300, 40) } else { (40, 300) };
            check(&mut a, &mut ea, na);
            check(&mut b, &mut eb, nb);
        }
        assert_eq!(a.seq(), b.seq());
    }

    #[test]
    fn a_dropped_context_leaves_the_feeder() {
        let mut feeder = OpFeeder::new();
        let a = ctx(6);
        let mut b = ctx(7);
        feeder.register(&a);
        feeder.register(&b);
        feeder.top_up_all();
        assert_eq!(feeder.feeds(), 2);
        // Dropped with two batches still queued.
        drop(a);
        feeder.top_up_all();
        assert_eq!(feeder.feeds(), 1);
        check(&mut b, &mut stream(7), 3 * FEED_BATCH);
    }

    #[test]
    fn replays_and_repeats_do_not_register() {
        let mut feeder = OpFeeder::new();
        let c = ctx(8);
        feeder.register(&c);
        feeder.register(&c);
        let trace = Trace::record(&mut stream(9), 64);
        feeder.register(&ExecContext::from_replay(trace.replay()));
        assert_eq!(feeder.feeds(), 1);
    }

    #[test]
    fn the_helper_runs_ahead_and_is_joined_on_drop() {
        let mut feeder = OpFeeder::new();
        let mut contexts: Vec<ExecContext> = (0..4).map(ctx).collect();
        for c in &contexts {
            feeder.register(c);
        }
        feeder.start();
        assert!(feeder.is_running());
        let probe = feeder.helper_probe();
        assert!(probe.upgrade().is_some());
        // Whatever the helper has or has not generated, every context
        // reads its own stream.
        for (i, c) in contexts.iter_mut().enumerate() {
            check(c, &mut stream(i as u16), 4 * FEED_BATCH + 3);
        }
        drop(feeder);
        assert!(probe.upgrade().is_none(), "drop joins the helper");
        for (i, c) in contexts.iter_mut().enumerate() {
            let mut expect = stream(i as u16);
            for _ in 0..4 * FEED_BATCH + 3 {
                expect.next_op();
            }
            check(c, &mut expect, FEED_BATCH);
        }
    }

    #[test]
    fn a_feeder_without_streams_starts_no_thread() {
        let mut feeder = OpFeeder::new();
        feeder.start();
        assert!(!feeder.is_running());
    }
}
