//! A buffered writer handed from one task to another mid-stream. Its state
//! is claimed by one task at a time (`kpn_core::flush`, "Mechanism"): the
//! new owner takes the claim over with its first write, while the former
//! owner's next wait sweeps a registration that has gone stale. The sweep
//! either enters first and publishes the former owner's bytes, the new
//! owner waiting it out, or finds the sink taken and skips it; either way
//! every byte arrives once, in order.

use kpn::core::{DataReader, DataWriter, ExecMode, Network, NetworkConfig, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ITERATIONS: usize = 200;
/// Tokens each owner writes: fewer than a chunk holds, so the former
/// owner's are still private when it hands the writer over.
const EACH: i64 = 16;

/// Spins until `ready` answers; now and then it lets the worker run the
/// other task, should the two share it.
fn poll<T>(mut ready: impl FnMut() -> Option<T>) -> T {
    for looks in 1u64.. {
        if let Some(v) = ready() {
            return v;
        }
        if looks % 1024 == 0 {
            kpn::core::exec::sleep(Duration::from_micros(20));
        }
    }
    unreachable!()
}

/// One handover on `mode`: `a` writes, hands the writer to `b` and blocks
/// on a read at once, so its publish-before-wait races `b`'s first write.
/// Returns what the reader read.
fn handover(mode: ExecMode) -> Vec<i64> {
    let net = Network::with_config(NetworkConfig {
        mode,
        ..NetworkConfig::default()
    });
    let (w_data, r_data) = net.channel();
    let (w_sig, r_sig) = net.channel();
    let slot: Arc<Mutex<Option<DataWriter>>> = Arc::default();
    let got: Arc<Mutex<Vec<i64>>> = Arc::default();
    let polling = Arc::new(AtomicBool::new(false));
    let (a_slot, a_polling) = (slot.clone(), polling.clone());
    net.add_fn("a", move |_| {
        let mut out = DataWriter::new(w_data);
        for v in 0..EACH {
            out.write_i64(v)?;
        }
        // Handed over only once `b` polls for it, so `b` writes at once.
        poll(|| a_polling.load(Ordering::SeqCst).then_some(()));
        *a_slot.lock().unwrap() = Some(out);
        // The wait sweeps `out`'s registration, stale since the handover.
        DataReader::new(r_sig).read_u8().map(drop)
    });
    net.add_fn("b", move |_| {
        polling.store(true, Ordering::SeqCst);
        let mut out = poll(|| slot.lock().unwrap().take());
        for v in EACH..2 * EACH {
            out.write_i64(v)?;
        }
        DataWriter::unbuffered(w_sig).write_u8(1)?;
        out.close();
        Ok(())
    });
    let sink = got.clone();
    net.add_fn("reader", move |_| -> Result<()> {
        let mut r = DataReader::new(r_data);
        loop {
            match r.read_i64() {
                Ok(v) => sink.lock().unwrap().push(v),
                Err(kpn::core::Error::Eof) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    });
    net.run().unwrap();
    let got = got.lock().unwrap().clone();
    got
}

#[test]
fn a_handed_over_writer_delivers_every_byte_in_order() {
    let expect: Vec<i64> = (0..2 * EACH).collect();
    for mode in [ExecMode::Thread, ExecMode::Pooled { workers: 2 }] {
        for i in 0..ITERATIONS {
            assert_eq!(handover(mode.clone()), expect, "{mode:?}, iteration {i}");
        }
    }
}
