//! Growable ring buffer of bytes backing local channels.
//!
//! Channels in the paper are byte FIFOs (§3.1): "the individual bytes
//! passing through a Channel correspond naturally to the data elements of
//! the mathematical representation of streams". This buffer is the
//! in-memory equivalent of the `Piped{Input,Output}Stream` pair, with one
//! addition: the capacity can be *grown in place* while data is buffered,
//! which is what the bounded-scheduling monitor does to resolve artificial
//! deadlock (§3.5).

use crate::error::{Error, Result};
use std::alloc::Layout;

/// A FIFO ring buffer of bytes with an explicit soft capacity.
///
/// The backing allocation always matches the capacity, so `len == capacity`
/// means "full" — writers must block. [`RingBuffer::grow`] raises the
/// capacity while preserving content order.
#[derive(Debug)]
pub struct RingBuffer {
    data: Box<[u8]>,
    /// Index of the oldest byte.
    head: usize,
    /// Number of buffered bytes.
    len: usize,
}

impl RingBuffer {
    /// Creates an empty buffer with the given capacity (min 1), or an
    /// [`Error::Graph`] naming a capacity the allocator cannot supply — the
    /// capacity may come from a spec a peer shipped, and a refused
    /// allocation must not abort the process.
    ///
    /// The bytes come zeroed from the allocator, as `vec![0u8; n]` takes
    /// them: a large buffer costs address space until it is written, not
    /// memory. Reserving and then filling a `Vec` would write every byte.
    pub fn try_with_capacity(capacity: usize) -> Result<Self> {
        let capacity = capacity.max(1);
        let refused = || {
            Error::Graph(format!(
                "a channel of capacity {capacity} bytes cannot be allocated"
            ))
        };
        let layout = Layout::array::<u8>(capacity).map_err(|_| refused())?;
        // SAFETY: `layout` is not zero-sized: `capacity` is at least 1.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            return Err(refused());
        }
        // SAFETY: `ptr` is a live allocation from the global allocator of
        // `capacity` zeroed, hence initialised, bytes, made with the layout
        // of a `[u8]` of that length, which is the one the box frees it
        // with; nothing else refers to it.
        let data = unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, capacity)) };
        Ok(RingBuffer {
            data,
            head: 0,
            len: 0,
        })
    }

    #[cfg(test)]
    fn with_capacity(capacity: usize) -> Self {
        Self::try_with_capacity(capacity).unwrap()
    }

    /// Current capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Number of buffered bytes.
    #[allow(dead_code)] // part of the buffer API; exercised by tests
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `len == capacity`; writers must block.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.data.len()
    }

    /// Free space available for writing.
    #[inline]
    pub fn free(&self) -> usize {
        self.data.len() - self.len
    }

    /// The buffered bytes as up to two contiguous spans in FIFO order.
    /// Consumers may copy straight out of these and then [`consume`] what
    /// they took — the batch read half of the span API.
    ///
    /// [`consume`]: RingBuffer::consume
    pub fn as_slices(&self) -> (&[u8], &[u8]) {
        let cap = self.data.len();
        let first = self.len.min(cap - self.head);
        (
            &self.data[self.head..self.head + first],
            &self.data[..self.len - first],
        )
    }

    /// Discards the oldest `n` buffered bytes (they were copied out via
    /// [`as_slices`]). `n` must not exceed [`len`].
    ///
    /// [`as_slices`]: RingBuffer::as_slices
    /// [`len`]: RingBuffer::len
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head = (self.head + n) % self.data.len();
        self.len -= n;
        if self.len == 0 {
            self.head = 0; // keep future transfers contiguous
        }
    }

    /// The free space as up to two contiguous writable spans, in the order
    /// bytes must be written. Producers copy straight into these and then
    /// [`commit`] what they wrote — the batch write half of the span API.
    ///
    /// [`commit`]: RingBuffer::commit
    pub fn free_slices(&mut self) -> (&mut [u8], &mut [u8]) {
        let cap = self.data.len();
        let tail = (self.head + self.len) % cap;
        let free = cap - self.len;
        if tail + free <= cap {
            let (_, rest) = self.data.split_at_mut(tail);
            (&mut rest[..free], &mut [])
        } else {
            let wrapped = free - (cap - tail);
            let (lo, hi) = self.data.split_at_mut(tail);
            (hi, &mut lo[..wrapped])
        }
    }

    /// Marks `n` bytes (written via [`free_slices`]) as buffered. `n` must
    /// not exceed [`free`].
    ///
    /// [`free_slices`]: RingBuffer::free_slices
    /// [`free`]: RingBuffer::free
    pub fn commit(&mut self, n: usize) {
        debug_assert!(n <= self.free());
        self.len += n;
    }

    /// Appends as many bytes from `src` as fit; returns how many were taken.
    /// One or two `memcpy`s via the span API — never byte-at-a-time.
    pub fn push(&mut self, src: &[u8]) -> usize {
        let n = src.len().min(self.free());
        if n == 0 {
            return 0;
        }
        let (a, b) = self.free_slices();
        let first = n.min(a.len());
        a[..first].copy_from_slice(&src[..first]);
        let rest = n - first;
        if rest > 0 {
            b[..rest].copy_from_slice(&src[first..n]);
        }
        self.commit(n);
        n
    }

    /// Removes up to `dst.len()` bytes into `dst`; returns how many.
    pub fn pop(&mut self, dst: &mut [u8]) -> usize {
        let n = dst.len().min(self.len);
        if n == 0 {
            return 0;
        }
        let (a, b) = self.as_slices();
        let first = n.min(a.len());
        dst[..first].copy_from_slice(&a[..first]);
        let rest = n - first;
        if rest > 0 {
            dst[first..n].copy_from_slice(&b[..rest]);
        }
        self.consume(n);
        n
    }

    /// Grows the capacity to `new_capacity` (no-op if not larger),
    /// preserving buffered bytes in order. Used by the deadlock monitor.
    pub fn grow(&mut self, new_capacity: usize) {
        if new_capacity <= self.data.len() {
            return;
        }
        let mut fresh = vec![0u8; new_capacity].into_boxed_slice();
        let mut copied = 0;
        let cap = self.data.len();
        if self.len > 0 {
            let first = self.len.min(cap - self.head);
            fresh[..first].copy_from_slice(&self.data[self.head..self.head + first]);
            copied = first;
            let rest = self.len - first;
            if rest > 0 {
                fresh[copied..copied + rest].copy_from_slice(&self.data[..rest]);
                copied += rest;
            }
        }
        debug_assert_eq!(copied, self.len);
        self.data = fresh;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_simple() {
        let mut rb = RingBuffer::with_capacity(8);
        assert_eq!(rb.push(b"hello"), 5);
        let mut out = [0u8; 5];
        assert_eq!(rb.pop(&mut out), 5);
        assert_eq!(&out, b"hello");
        assert!(rb.is_empty());
    }

    #[test]
    fn push_respects_capacity() {
        let mut rb = RingBuffer::with_capacity(4);
        assert_eq!(rb.push(b"abcdef"), 4);
        assert!(rb.is_full());
        assert_eq!(rb.push(b"x"), 0);
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut rb = RingBuffer::with_capacity(4);
        assert_eq!(rb.push(b"abc"), 3);
        let mut two = [0u8; 2];
        assert_eq!(rb.pop(&mut two), 2);
        assert_eq!(&two, b"ab");
        // head is now at 2; this push wraps.
        assert_eq!(rb.push(b"def"), 3);
        let mut out = [0u8; 4];
        assert_eq!(rb.pop(&mut out), 4);
        assert_eq!(&out, b"cdef");
    }

    #[test]
    fn pop_partial() {
        let mut rb = RingBuffer::with_capacity(8);
        rb.push(b"xyz");
        let mut big = [0u8; 8];
        assert_eq!(rb.pop(&mut big), 3);
        assert_eq!(&big[..3], b"xyz");
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let rb = RingBuffer::with_capacity(0);
        assert_eq!(rb.capacity(), 1);
    }

    #[test]
    fn grow_preserves_contiguous_content() {
        let mut rb = RingBuffer::with_capacity(4);
        rb.push(b"abcd");
        rb.grow(8);
        assert_eq!(rb.capacity(), 8);
        assert_eq!(rb.len(), 4);
        assert_eq!(rb.push(b"efgh"), 4);
        let mut out = [0u8; 8];
        rb.pop(&mut out);
        assert_eq!(&out, b"abcdefgh");
    }

    #[test]
    fn grow_preserves_wrapped_content() {
        let mut rb = RingBuffer::with_capacity(4);
        rb.push(b"abcd");
        let mut two = [0u8; 2];
        rb.pop(&mut two);
        rb.push(b"ef"); // wraps: buffer holds c d | e f with head=2
        rb.grow(10);
        let mut out = [0u8; 4];
        assert_eq!(rb.pop(&mut out), 4);
        assert_eq!(&out, b"cdef");
    }

    #[test]
    fn grow_smaller_is_noop() {
        let mut rb = RingBuffer::with_capacity(8);
        rb.push(b"abc");
        rb.grow(4);
        assert_eq!(rb.capacity(), 8);
        assert_eq!(rb.len(), 3);
    }

    #[test]
    fn span_api_round_trips_across_wrap() {
        let mut rb = RingBuffer::with_capacity(4);
        // Fill via free_slices/commit.
        {
            let (a, b) = rb.free_slices();
            assert_eq!(a.len() + b.len(), 4);
            a[..2].copy_from_slice(b"ab");
        }
        rb.commit(2);
        // Drain one byte to move head, then wrap the tail.
        let mut one = [0u8; 1];
        rb.pop(&mut one);
        assert_eq!(&one, b"a");
        {
            let (a, b) = rb.free_slices();
            assert_eq!(a.len() + b.len(), 3);
            let n = a.len().min(3);
            a.copy_from_slice(&b"cde"[..n]);
            b[..3 - n].copy_from_slice(&b"cde"[n..]);
        }
        rb.commit(3);
        assert!(rb.is_full());
        let (x, y) = rb.as_slices();
        let mut got = x.to_vec();
        got.extend_from_slice(y);
        assert_eq!(got, b"bcde");
        rb.consume(4);
        assert!(rb.is_empty());
    }

    #[test]
    fn consume_on_empty_resets_head_for_contiguity() {
        let mut rb = RingBuffer::with_capacity(4);
        rb.push(b"abc");
        let mut out = [0u8; 3];
        rb.pop(&mut out);
        // After full drain the next fill should be one contiguous span.
        let (a, b) = rb.free_slices();
        assert_eq!(a.len(), 4);
        assert!(b.is_empty());
    }

    /// One operation of the span-vs-scalar equivalence harness.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push up to n bytes (deterministic contents from a counter).
        Push(usize),
        /// Pop up to n bytes.
        Pop(usize),
        /// Grow capacity by n bytes.
        Grow(usize),
    }

    /// Drives two ring buffers through the same operation sequence — one
    /// via the scalar `push`/`pop` path, one via the span API
    /// (`free_slices`+`commit` / `as_slices`+`consume`) — and asserts they
    /// observe identical bytes, lengths, and capacities throughout,
    /// matching a `VecDeque` model. This is the invariant the batched
    /// channel fast path relies on.
    fn check_span_equals_scalar(capacity: usize, ops: &[Op]) {
        use std::collections::VecDeque;
        let mut scalar = RingBuffer::with_capacity(capacity);
        let mut span = RingBuffer::with_capacity(capacity);
        let mut model: VecDeque<u8> = VecDeque::new();
        let mut counter: u8 = 0;
        for op in ops {
            match *op {
                Op::Push(n) => {
                    let src: Vec<u8> = (0..n)
                        .map(|_| {
                            counter = counter.wrapping_add(1);
                            counter
                        })
                        .collect();
                    let taken_scalar = scalar.push(&src);
                    // Span path: copy into free_slices, then commit.
                    let taken_span = {
                        let want = src.len().min(span.free());
                        let (a, b) = span.free_slices();
                        let first = want.min(a.len());
                        a[..first].copy_from_slice(&src[..first]);
                        if want > first {
                            b[..want - first].copy_from_slice(&src[first..want]);
                        }
                        span.commit(want);
                        want
                    };
                    assert_eq!(taken_scalar, taken_span, "push {n}");
                    model.extend(&src[..taken_scalar]);
                }
                Op::Pop(n) => {
                    let mut dst = vec![0u8; n];
                    let got_scalar = scalar.pop(&mut dst);
                    // Span path: copy out of as_slices, then consume.
                    let span_bytes = {
                        let want = n.min(span.len());
                        let (a, b) = span.as_slices();
                        let first = want.min(a.len());
                        let mut out = a[..first].to_vec();
                        out.extend_from_slice(&b[..want - first]);
                        span.consume(want);
                        out
                    };
                    assert_eq!(got_scalar, span_bytes.len(), "pop {n}");
                    assert_eq!(&dst[..got_scalar], &span_bytes[..], "pop bytes");
                    for byte in &span_bytes {
                        assert_eq!(*byte, model.pop_front().unwrap());
                    }
                }
                Op::Grow(n) => {
                    let new_cap = scalar.capacity() + n;
                    scalar.grow(new_cap);
                    span.grow(new_cap);
                }
            }
            assert_eq!(scalar.len(), span.len());
            assert_eq!(scalar.len(), model.len());
            assert_eq!(scalar.capacity(), span.capacity());
            // Full-content equality without disturbing state.
            let (sa, sb) = scalar.as_slices();
            let (pa, pb) = span.as_slices();
            let mut sc = sa.to_vec();
            sc.extend_from_slice(sb);
            let mut pc = pa.to_vec();
            pc.extend_from_slice(pb);
            assert_eq!(sc, pc);
            assert!(model.iter().copied().eq(sc.into_iter()));
        }
    }

    fn ops_from_seed(seed: u64, count: usize) -> Vec<Op> {
        // splitmix64 op stream: sizes 0..=9 bias toward wrap-around at the
        // small capacities the callers use; occasional growth.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..count)
            .map(|_| {
                let r = next();
                let n = (r % 10) as usize;
                match r % 16 {
                    0..=6 => Op::Push(n),
                    7..=13 => Op::Pop(n),
                    _ => Op::Grow(1 + n % 5),
                }
            })
            .collect()
    }

    #[test]
    fn span_api_matches_scalar_path_deterministic() {
        // Always-run companion to the proptest below: same harness, seeded
        // op streams over the capacities where wrap-around is constant.
        for capacity in [1, 2, 3, 5, 8] {
            for seed in 0..20 {
                check_span_equals_scalar(capacity, &ops_from_seed(seed, 400));
            }
        }
    }

    mod span_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Arbitrary op sequences: span and scalar paths agree on
            /// every byte, through wrap-around and growth.
            #[test]
            fn span_api_matches_scalar_path(
                capacity in 1usize..16,
                raw in proptest::collection::vec((0u8..3, 0usize..10), 1..300),
            ) {
                let ops: Vec<Op> = raw
                    .iter()
                    .map(|&(kind, n)| match kind {
                        0 => Op::Push(n),
                        1 => Op::Pop(n),
                        _ => Op::Grow(1 + n % 5),
                    })
                    .collect();
                check_span_equals_scalar(capacity, &ops);
            }
        }
    }

    #[test]
    fn interleaved_stress_matches_vecdeque() {
        use std::collections::VecDeque;
        let mut rb = RingBuffer::with_capacity(7);
        let mut model: VecDeque<u8> = VecDeque::new();
        let mut x: u32 = 0x2545_F491;
        for step in 0..2000 {
            // xorshift for deterministic pseudo-random sizes
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let n = (x % 9) as usize;
            if step % 2 == 0 {
                let src: Vec<u8> = (0..n).map(|i| (step + i) as u8).collect();
                let taken = rb.push(&src);
                assert_eq!(taken, src.len().min(7 - model.len()));
                model.extend(&src[..taken]);
            } else {
                let mut dst = vec![0u8; n];
                let got = rb.pop(&mut dst);
                assert_eq!(got, n.min(model.len()));
                for b in dst.iter().take(got) {
                    assert_eq!(*b, model.pop_front().unwrap());
                }
            }
            assert_eq!(rb.len(), model.len());
        }
    }
}
