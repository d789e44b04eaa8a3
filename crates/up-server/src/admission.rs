//! Admission control: a bounded MPMC queue with blocking consumers.
//!
//! The server's front door. Producers (`submit`) never block — a full
//! queue is an immediate, explicit rejection so callers can back off —
//! while consumers (the worker pool) park on a condvar until work or
//! shutdown arrives. This is the load-shedding discipline a GPU service
//! needs: the device has a fixed service rate, so an unbounded queue only
//! converts overload into unbounded latency.
//!
//! [`DrrQueue`] keeps one FIFO lane per session and dequeues by weighted
//! deficit round-robin, so a chatty session cannot starve the others.
//! With one session it is a plain FIFO.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Returned by [`DrrQueue::push`] when the queue is at capacity or
/// closed; hands the rejected item back to the caller.
#[derive(Debug)]
pub struct QueueFull<T>(pub T);

/// One session's lane: its FIFO of queued items and its deficit
/// round-robin state.
struct Lane<T> {
    id: u64,
    weight: f64,
    deficit: f64,
    items: VecDeque<T>,
}

/// Weighted deficit round-robin over session lanes.
///
/// Each lane accrues `weight` units of deficit per scheduling round and
/// pays one unit per grant, so over time session *i* receives
/// `wᵢ / Σw` of the grants — a wide analytic session cannot starve short
/// interactive ones. A lane with no queued work forfeits its accumulated
/// deficit (classic DRR), which keeps the scheduler work-conserving:
/// grants never idle waiting for an empty lane to "catch up".
struct DrrInner<T> {
    /// Lanes in registration order; they persist (empty) across bursts
    /// so the round-robin cursor math stays cheap and stable.
    lanes: Vec<Lane<T>>,
    cursor: usize,
    /// Whether the lane at `cursor` still needs its per-round deficit
    /// replenishment (set when the cursor arrives there).
    fresh: bool,
    len: usize,
    closed: bool,
    max_depth: usize,
}

impl<T> DrrInner<T> {
    /// `id`'s lane, registered with the default weight (1) if unknown.
    fn lane(&mut self, id: u64) -> &mut Lane<T> {
        let pos = match self.lanes.iter().position(|l| l.id == id) {
            Some(pos) => pos,
            None => {
                let items = VecDeque::new();
                self.lanes.push(Lane { id, weight: 1.0, deficit: 0.0, items });
                self.lanes.len() - 1
            }
        };
        &mut self.lanes[pos]
    }

    /// Takes the next item. The cursor visits lanes round-robin; on
    /// arrival a lane's deficit is topped up by its weight, each grant
    /// costs one unit, and the cursor stays put while the deficit lasts
    /// (so weight-3 lanes get ~3 grants per round). Empty lanes are
    /// skipped. Returns `None` when every lane is empty.
    fn grant(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.cursor >= self.lanes.len() {
                self.cursor = 0;
                self.fresh = true;
            }
            let lane = &mut self.lanes[self.cursor];
            if lane.items.is_empty() {
                lane.deficit = 0.0;
                self.cursor += 1;
                self.fresh = true;
                continue;
            }
            if self.fresh {
                lane.deficit += lane.weight;
                self.fresh = false;
            }
            if lane.deficit >= 1.0 {
                lane.deficit -= 1.0;
                self.len -= 1;
                return lane.items.pop_front();
            }
            self.cursor += 1;
            self.fresh = true;
        }
    }
}

/// A bounded multi-producer multi-consumer queue that dequeues by
/// per-session weighted deficit round-robin.
///
/// `push` is non-blocking and rejects at capacity with [`QueueFull`];
/// `pop_blocking` parks until an item or [`close`](DrrQueue::close)
/// arrives, and a closed queue drains before it returns `None`. Each
/// session gets its own FIFO lane and consumers pick the next lane by
/// deficit round-robin, so grant share tracks session weight while order
/// *within* a session stays submission order.
pub struct DrrQueue<T> {
    inner: Mutex<DrrInner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> DrrQueue<T> {
    /// New queue holding at most `capacity` items total (clamped to ≥ 1).
    pub fn new(capacity: usize) -> DrrQueue<T> {
        DrrQueue {
            inner: Mutex::new(DrrInner {
                lanes: Vec::new(),
                cursor: 0,
                fresh: true,
                len: 0,
                closed: false,
                max_depth: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Capacity (shared across all sessions).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items queued right now, across all sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").len
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has ever been.
    pub fn max_depth(&self) -> usize {
        self.inner.lock().expect("queue poisoned").max_depth
    }

    /// Sets a session's scheduling weight (share of dequeue grants),
    /// registering its lane if unknown. Weights are clamped to
    /// `[0.01, 100]`; non-finite weights fall back to 1.
    pub fn set_weight(&self, session: u64, weight: f64) {
        let weight = if weight.is_finite() { weight.clamp(0.01, 100.0) } else { 1.0 };
        self.inner.lock().expect("queue poisoned").lane(session).weight = weight;
    }

    /// Enqueues `item` on `session`'s lane, returning the total depth
    /// after the push, or the item back inside [`QueueFull`] when at
    /// capacity (or closed).
    pub fn push(&self, session: u64, item: T) -> Result<usize, QueueFull<T>> {
        let mut g = self.inner.lock().expect("queue poisoned");
        if g.closed || g.len >= self.capacity {
            return Err(QueueFull(item));
        }
        g.lane(session).items.push_back(item);
        g.len += 1;
        let depth = g.len;
        g.max_depth = g.max_depth.max(depth);
        drop(g);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Dequeues the next item by deficit round-robin over non-empty
    /// session lanes, blocking while the queue is empty. Returns `None`
    /// once the queue is closed *and* drained.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = g.grant() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.ready.wait(g).expect("queue poisoned");
        }
    }

    /// Closes the queue: future pushes fail, blocked consumers drain the
    /// remaining items and then observe `None`.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Tears down a session's lane: returns its queued items (submission
    /// order) and forgets the lane's round-robin state entirely, so
    /// disconnected sessions stop costing the DRR cursor anything.
    pub fn remove_session(&self, session: u64) -> Vec<T> {
        let mut g = self.inner.lock().expect("queue poisoned");
        let Some(pos) = g.lanes.iter().position(|l| l.id == session) else {
            return Vec::new();
        };
        let lane = g.lanes.remove(pos);
        if g.cursor > pos {
            g.cursor -= 1;
        } else if g.cursor == pos {
            g.fresh = true;
        }
        g.len -= lane.items.len();
        lane.items.into()
    }

    /// Lanes currently tracked (connected sessions that queued work or
    /// were given a weight).
    pub fn lanes(&self) -> usize {
        self.inner.lock().expect("queue poisoned").lanes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Which session lane an item goes to: every test below runs once
    /// with all items on one session (the queue is a plain FIFO) and
    /// once spread over several.
    type Lanes = fn(i32) -> u64;
    const ONE: Lanes = |_| 7;
    const SEVERAL: Lanes = |v| v.rem_euclid(3) as u64;

    #[test]
    fn drr_splits_grants_by_weight_without_starvation() {
        // Each item is its session's id. 3:1 weights grant in rounds of
        // three from session 1 and one from session 2, so 300 + 100 items
        // keep both lanes backlogged for the first 400 grants.
        let q: DrrQueue<u64> = DrrQueue::new(1024);
        q.set_weight(1, 3.0);
        q.set_weight(2, 1.0);
        for id in std::iter::repeat_n(1, 300).chain(std::iter::repeat_n(2, 110)) {
            q.push(id, id).unwrap();
        }
        let mut grants = [0u32; 3];
        for _ in 0..400 {
            let id = q.pop_blocking().expect("both backlogged");
            grants[id as usize] += 1;
        }
        // 3:1 weights → ~300/100 grants; allow slack for round phase.
        assert!((295..=305).contains(&grants[1]), "{grants:?}");
        assert!((95..=105).contains(&grants[2]), "{grants:?}");

        // A session with no queued work is skipped and forfeits deficit.
        for _ in 0..10 {
            assert_eq!(q.pop_blocking(), Some(2));
        }
        // Nothing queued → None, not a spin.
        assert_eq!(q.inner.lock().unwrap().grant(), None);
        let empty: DrrQueue<u64> = DrrQueue::new(1);
        assert_eq!(empty.inner.lock().unwrap().grant(), None);

        // Removal keeps the cursor consistent.
        q.push(7, 7).unwrap();
        assert!(q.remove_session(1).is_empty());
        assert_eq!(q.pop_blocking(), Some(7));
    }

    #[test]
    fn push_reports_depth_and_rejects_at_capacity() {
        for lane in [ONE, SEVERAL] {
            let q = DrrQueue::new(2);
            assert_eq!(q.push(lane(1), 1).unwrap(), 1);
            assert_eq!(q.push(lane(2), 2).unwrap(), 2);
            let QueueFull(rejected) = q.push(lane(3), 3).unwrap_err();
            assert_eq!(rejected, 3);
            assert_eq!(q.len(), 2);
            assert_eq!(q.max_depth(), 2);
        }
    }

    #[test]
    fn pop_returns_fifo_then_blocks_until_close() {
        for lane in [ONE, SEVERAL] {
            let q = Arc::new(DrrQueue::new(4));
            q.push(lane(10), 10).unwrap();
            q.push(lane(20), 20).unwrap();
            assert_eq!(q.pop_blocking(), Some(10));
            assert_eq!(q.pop_blocking(), Some(20));
            let q2 = Arc::clone(&q);
            let h = std::thread::spawn(move || q2.pop_blocking());
            // The consumer parks; closing wakes it with None.
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn close_drains_remaining_items_before_none() {
        for lane in [ONE, SEVERAL] {
            let q = DrrQueue::new(4);
            q.push(lane(1), 1).unwrap();
            q.close();
            assert!(q.push(lane(2), 2).is_err(), "closed queue rejects");
            assert_eq!(q.pop_blocking(), Some(1));
            assert_eq!(q.pop_blocking(), None);
        }
    }

    #[test]
    fn removed_session_leaves_survivors_in_order() {
        // The evens sit on a session of their own; the survivors sit on
        // one other session, or on several.
        let one: Lanes = |v| if v % 2 == 0 { 0 } else { 1 };
        let several: Lanes = |v| if v % 2 == 0 { 0 } else { v as u64 };
        for lane in [one, several] {
            let q = DrrQueue::new(8);
            for i in 0..6 {
                q.push(lane(i), i).unwrap();
            }
            let evens = q.remove_session(0);
            assert_eq!(evens, vec![0, 2, 4]);
            assert_eq!(q.len(), 3);
            assert_eq!(q.pop_blocking(), Some(1), "survivors keep FIFO order");
        }
    }

    #[test]
    fn drr_queue_is_fifo_within_a_session_and_fair_across() {
        let q: DrrQueue<(u64, i32)> = DrrQueue::new(64);
        q.set_weight(1, 3.0);
        q.set_weight(2, 1.0);
        for i in 0..6 {
            q.push(1, (1, i)).unwrap();
            q.push(2, (2, i)).unwrap();
        }
        let mut by_session: HashMap<u64, Vec<i32>> = HashMap::new();
        let mut first_eight_from_1 = 0;
        for k in 0..12 {
            let (s, i) = q.pop_blocking().unwrap();
            if k < 8 && s == 1 {
                first_eight_from_1 += 1;
            }
            by_session.entry(s).or_default().push(i);
        }
        // Within a session, submission order is preserved.
        assert_eq!(by_session[&1], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(by_session[&2], vec![0, 1, 2, 3, 4, 5]);
        // Across sessions, the 3:1 weight shows up early: of the first
        // 8 grants, session 1 gets ~6 (3 per round vs 1).
        assert!(first_eight_from_1 >= 5, "{first_eight_from_1}");
        assert!(q.is_empty());
        assert_eq!(q.max_depth(), 12);
    }

    #[test]
    fn drr_queue_rejects_at_capacity_and_drains_on_close() {
        let q: DrrQueue<i32> = DrrQueue::new(2);
        assert_eq!(q.push(7, 10).unwrap(), 1);
        assert_eq!(q.push(8, 20).unwrap(), 2);
        let QueueFull(rejected) = q.push(7, 30).unwrap_err();
        assert_eq!(rejected, 30);
        q.close();
        assert!(q.push(8, 40).is_err(), "closed queue rejects");
        let mut got = vec![q.pop_blocking().unwrap(), q.pop_blocking().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn remove_session_releases_queued_work_and_lanes() {
        let d: DrrQueue<(u64, i32)> = DrrQueue::new(16);
        d.push(1, (1, 0)).unwrap();
        d.push(1, (1, 1)).unwrap();
        d.push(2, (2, 0)).unwrap();
        assert_eq!(d.lanes(), 2);
        let gone = d.remove_session(1);
        assert_eq!(gone, vec![(1, 0), (1, 1)], "lane drains in submission order");
        assert_eq!(d.len(), 1);
        assert_eq!(d.lanes(), 1, "lane state is forgotten, not just emptied");
        assert!(d.remove_session(999).is_empty(), "unknown session is a no-op");
        assert_eq!(d.pop_blocking(), Some((2, 0)));
    }

    #[test]
    fn drr_queue_wakes_blocked_consumers() {
        let q: Arc<DrrQueue<i32>> = Arc::new(DrrQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_blocking());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(1, 42).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        for lane in [ONE, SEVERAL] {
            let q = Arc::new(DrrQueue::new(1024));
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop_blocking() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..100 {
                            q.push(lane(p), p * 100 + i).unwrap();
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let mut all: Vec<i32> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..400).collect::<Vec<i32>>());
        }
    }
}
