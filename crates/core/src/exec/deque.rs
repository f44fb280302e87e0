//! A bounded Chase–Lev work-stealing deque for boxed items.
//!
//! One *owner* thread pushes and pops at the bottom (LIFO — the freshest
//! fiber is the cache-warm one); any number of *thief* threads steal from
//! the top (FIFO — the oldest fiber has the coldest cache anyway). The
//! index orderings follow Lê, Pop, Cohen & Zappa Nardelli, *Correct and
//! Efficient Work-Stealing for Weak Memory Models* (PPoPP '13), minus the
//! dynamic buffer growth: capacity is fixed and [`WorkDeque::push`] hands
//! the item back on overflow so the scheduler can spill it to its global
//! injector instead.
//!
//! Items cross the deque as raw `Box` pointers held in `AtomicUsize`
//! slots. This sidesteps the classic Chase–Lev wrinkle where a thief
//! speculatively reads a slot the owner may concurrently overwrite: here
//! that read is an atomic load of a word, the `top` CAS validates
//! ownership, and a loser simply discards its copied word — never
//! materializing a `Box` it does not own. Every access is atomic, so the
//! algorithm is clean under ThreadSanitizer and Miri, not just in
//! practice.
//!
//! The owner-only contract for `push`/`pop` is not expressible in the type
//! system here (the scheduler calls everything through `&self`); it is an
//! invariant of the pooled executor, which routes those two calls
//! exclusively through the slot-owning worker.

use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicI64, AtomicUsize, Ordering};

/// Outcome of a [`WorkDeque::steal`] attempt.
#[derive(Debug)]
pub(crate) enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Stole one item.
    Success(T),
}

/// Fixed-capacity work-stealing deque of `Box<T>` (see module docs).
pub(crate) struct WorkDeque<T> {
    /// Next slot the owner pushes into; only the owner writes it (thieves
    /// read it to bound their scan).
    bottom: AtomicI64,
    /// Oldest live slot; thieves advance it by CAS, the owner CASes it in
    /// the last-item race of `pop`.
    top: AtomicI64,
    slots: Box<[AtomicUsize]>,
    mask: i64,
    _owns: PhantomData<Box<T>>,
}

// `Send` needs no impl: `_owns` makes the deque `Send` exactly when a
// `Box<T>` is.
// SAFETY: sharing the deque shares no `T`. Items move in and out whole,
// one `Box` pointer per atomic slot, and each is taken by exactly one
// thread — the owner's `pop` or the thief whose `top` CAS wins — so no two
// threads ever reach one item. Handing items between threads needs
// `T: Send`; `T: Sync` is never called on.
unsafe impl<T: Send> Sync for WorkDeque<T> {}

impl<T> WorkDeque<T> {
    /// Creates a deque holding at most `capacity` items (rounded up to a
    /// power of two).
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|_| AtomicUsize::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        WorkDeque {
            bottom: AtomicI64::new(0),
            top: AtomicI64::new(0),
            slots,
            mask: cap as i64 - 1,
            _owns: PhantomData,
        }
    }

    fn slot(&self, index: i64) -> &AtomicUsize {
        &self.slots[(index & self.mask) as usize]
    }

    /// Approximate number of queued items. Exact when called by the owner
    /// with no concurrent steal in flight; otherwise a snapshot.
    pub(crate) fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Approximate emptiness check (same caveats as [`WorkDeque::len`]).
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner-only: push `item` at the bottom. Returns `Err(item)` when the
    /// deque is full (the caller spills to the injector).
    pub(crate) fn push(&self, item: Box<T>) -> Result<(), Box<T>> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            return Err(item);
        }
        self.slot(b)
            .store(Box::into_raw(item) as usize, Ordering::Relaxed);
        // The Release store of the new bottom publishes the slot write to
        // thieves reading bottom with Acquire.
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Owner-only: pop the most recently pushed item.
    pub(crate) fn pop(&self) -> Option<Box<T>> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // Order the bottom decrement against thieves' top read: either a
        // concurrent thief sees the shrunken bottom, or we see its top
        // increment below.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Already empty; restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let ptr = self.slot(b).load(Ordering::Relaxed);
        if t == b {
            // Last item: race thieves for it via top. Only the CAS winner
            // turns the word back into a Box.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            if !won {
                return None;
            }
        }
        // SAFETY: index `b` is this owner's alone: with `t < b` a thief
        // claims only `top`, which the decremented bottom and the fence keep
        // below `b`; with `t == b` the owner won the CAS a thief must win.
        // The word is the `Box::into_raw` pointer `push` stored for `b`,
        // turned back into a `Box` once, here.
        Some(unsafe { Box::from_raw(ptr as *mut T) })
    }

    /// Thief: steal the oldest item.
    pub(crate) fn steal(&self) -> Steal<Box<T>> {
        let t = self.top.load(Ordering::Acquire);
        // Pair with the owner's pop fence: see either its decremented
        // bottom or its top CAS.
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Speculatively copy the word, then claim it by advancing top. If
        // the owner has since overwritten the slot (the buffer wrapped),
        // top moved past `t` first, so the CAS fails and the stale word is
        // discarded — a loser never owns the item.
        let ptr = self.slot(t).load(Ordering::Relaxed);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        // SAFETY: the CAS moved `top` from `t`, so this thief alone claimed
        // index `t`. The word read before it is what `push` stored for `t`
        // (made visible by the Acquire load of `bottom`): the owner reuses
        // slot `t` only once `top` has passed it, which would have failed
        // the CAS.
        Steal::Success(unsafe { Box::from_raw(ptr as *mut T) })
    }
}

impl<T> Drop for WorkDeque<T> {
    fn drop(&mut self) {
        // Exclusive access here: drain live slots so queued items drop.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        for i in t..b {
            let ptr = self.slot(i).load(Ordering::Relaxed);
            // SAFETY: with `&mut self` no owner or thief runs; indices
            // `top..bottom` hold the pointers of items pushed and never
            // taken, each turned back into its `Box` once, here.
            drop(unsafe { Box::from_raw(ptr as *mut T) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let d = WorkDeque::new(8);
        for i in 0..4 {
            d.push(Box::new(i)).unwrap();
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.pop().as_deref(), Some(&3), "owner pops the freshest");
        match d.steal() {
            Steal::Success(v) => assert_eq!(*v, 0, "thief steals the oldest"),
            other => panic!("expected steal success, got {other:?}"),
        }
        assert_eq!(d.pop().as_deref(), Some(&2));
        assert_eq!(d.pop().as_deref(), Some(&1));
        assert!(d.pop().is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn overflow_returns_item() {
        let d = WorkDeque::new(2);
        d.push(Box::new(1)).unwrap();
        d.push(Box::new(2)).unwrap();
        assert_eq!(*d.push(Box::new(3)).unwrap_err(), 3, "full deque refuses");
        assert_eq!(d.pop().as_deref(), Some(&2));
        d.push(Box::new(3)).unwrap();
    }

    #[test]
    fn drop_drains_queued_items() {
        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let d = WorkDeque::new(8);
            for _ in 0..5 {
                d.push(Box::new(Counted(drops.clone()))).unwrap();
            }
            drop(d.pop()); // one dropped here
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    /// Owner pushes/pops while thieves steal; every item must be delivered
    /// exactly once. Iteration counts shrink under Miri. Item indices run
    /// past several buffer wraps so the speculative-read ABA window gets
    /// exercised, not just the steady state.
    #[test]
    fn concurrent_steal_delivers_each_item_once() {
        const THIEVES: usize = 3;
        #[cfg(miri)]
        const ITEMS: usize = 200;
        #[cfg(not(miri))]
        const ITEMS: usize = 20_000;

        let d = Arc::new(WorkDeque::new(32));
        let seen = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicUsize::new(0));
        let thieves: Vec<_> = (0..THIEVES)
            .map(|_| {
                let (d, seen, stop) = (d.clone(), seen.clone(), stop.clone());
                std::thread::spawn(move || loop {
                    match d.steal() {
                        Steal::Success(_) => {
                            seen.fetch_add(1, Ordering::SeqCst);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if stop.load(Ordering::SeqCst) == 1 {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut pushed = 0usize;
        while pushed < ITEMS {
            if d.push(Box::new(pushed)).is_ok() {
                pushed += 1;
            } else if d.pop().is_some() {
                seen.fetch_add(1, Ordering::SeqCst);
            }
            if pushed.is_multiple_of(7) && d.pop().is_some() {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        }
        while d.pop().is_some() {
            seen.fetch_add(1, Ordering::SeqCst);
        }
        stop.store(1, Ordering::SeqCst);
        for t in thieves {
            t.join().unwrap();
        }
        assert_eq!(seen.load(Ordering::SeqCst), ITEMS);
    }
}
