//! A remote hop allocates nothing. A client relays `i64`s through an echo
//! thread and back, over two loopback remote channels: one frame each way
//! per round trip. The sink frames the caller's bytes in place; under a
//! resilient policy it also keeps each frame's payload for replay until
//! the reader acknowledges it, in one byte ring. After a warm-up, in which
//! the ring and the socket buffers reach their size, no round trip may
//! touch the heap, on plain TCP as under the resilient policy.
//!
//! The allocator counts every allocation in the process, so this file
//! holds one test: no other test's threads may allocate inside the counted
//! window.

use kpn::core::{ChannelWriter, DataReader, DataWriter};
use kpn::net::{remote_reader, Acceptor, NetProfile, ReconnectPolicy, RemoteSink, TcpFactory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds `GlobalAlloc`'s contract; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator (that is, by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: i64 = 2_000;
const COUNTED: i64 = 20_000;

/// Allocations per round trip of the relay under `policy`.
fn allocations_per_round_trip(policy: ReconnectPolicy) -> f64 {
    let profile = NetProfile::new(Arc::new(TcpFactory), policy);
    let bind = || Acceptor::bind_with("127.0.0.1:0", profile.clone()).unwrap();
    let (echo_side, client_side) = (bind(), bind());
    let connect = |to: &Acceptor, token| {
        let addr = to.local_addr().to_string();
        let sink = RemoteSink::connect_with(&addr, token, profile.clone()).unwrap();
        DataWriter::new(ChannelWriter::from_sink(Box::new(sink)))
    };
    let (there, back) = (0xA110_0001, 0xA110_0002);
    let mut out = connect(&echo_side, there);
    let mut ins = DataReader::new(remote_reader(&client_side, back));
    let (echo_in, echo_out) = (
        remote_reader(&echo_side, there),
        connect(&client_side, back),
    );
    let echo = std::thread::spawn(move || {
        let (mut r, mut w) = (DataReader::new(echo_in), echo_out);
        while let Ok(v) = r.read_i64() {
            w.write_i64(v).unwrap();
            w.flush().unwrap();
        }
    });
    let mut round_trip = |v: i64| {
        out.write_i64(v).unwrap();
        out.flush().unwrap();
        assert_eq!(ins.read_i64().unwrap(), v);
    };
    for v in 0..WARM_UP {
        round_trip(v);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for v in WARM_UP..WARM_UP + COUNTED {
        round_trip(v);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(out);
    echo.join().unwrap();
    (after - before) as f64 / COUNTED as f64
}

#[test]
fn a_remote_hop_allocates_nothing() {
    for (name, policy) in [
        ("plain", ReconnectPolicy::default()),
        ("resilient", ReconnectPolicy::resilient()),
    ] {
        let per = allocations_per_round_trip(policy);
        eprintln!("{name}: {per:.3} allocations per round trip");
        assert!(
            per < 0.01,
            "{name}: {per:.3} allocations per round trip, want none"
        );
    }
}
