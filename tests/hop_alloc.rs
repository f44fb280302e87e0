//! A blocking hop allocates nothing. On the `relay_local` graph every read
//! blocks, so each round trip is three parks, three unparks, three monitor
//! registrations and a publish-before-wait. After a warm-up none of them
//! may touch the heap, on the pool (where a parked process is a fiber filed
//! in the wait table) as on the thread executor (a condvar wait).
//!
//! The allocator counts every allocation in the process, so this file
//! holds one test: no other test's threads may allocate inside the counted
//! window.

use kpn::core::stdlib::Identity;
use kpn::core::{DataReader, DataWriter, ExecMode, Network, NetworkConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

const WARM_UP: i64 = 100;
const COUNTED: i64 = 20_000;

/// Allocations per round trip of the `relay_local` graph on `mode`, the
/// client a process of the network: it counts from inside the run.
fn allocations_per_round_trip(mode: ExecMode) -> f64 {
    let net = Network::with_config(NetworkConfig {
        mode,
        ..NetworkConfig::default()
    });
    let (w_in, r_in) = net.channel();
    let (w_mid, r_mid) = net.channel();
    let (w_back, r_back) = net.channel();
    net.add(Identity::new(r_in, w_mid));
    net.add(Identity::new(r_mid, w_back));
    let (tx, counted) = std::sync::mpsc::channel();
    net.add_fn("client", move |_| {
        let (mut w, mut r) = (DataWriter::new(w_in), DataReader::new(r_back));
        let mut round_trip = |v: i64| -> kpn::core::Result<()> {
            w.write_i64(v)?;
            assert_eq!(r.read_i64()?, v);
            Ok(())
        };
        for v in 0..WARM_UP {
            round_trip(v)?;
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for v in WARM_UP..WARM_UP + COUNTED {
            round_trip(v)?;
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        let _ = tx.send(after - before);
        Ok(())
    });
    net.run().unwrap();
    let allocations = counted.recv().expect("the client counted");
    allocations as f64 / COUNTED as f64
}

#[test]
fn a_blocking_hop_allocates_nothing() {
    for mode in [
        ExecMode::Pooled { workers: 1 },
        ExecMode::Pooled { workers: 2 },
        ExecMode::Thread,
    ] {
        let per = allocations_per_round_trip(mode.clone());
        eprintln!("{mode:?}: {per:.3} allocations per round trip");
        assert!(
            per < 0.01,
            "{mode:?}: {per:.3} allocations per round trip, want none"
        );
    }
}
