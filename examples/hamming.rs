//! The Hamming-number network (Figure 12): computes the ordered sequence
//! of integers `2^k · 3^m · 5^n` through a feedback loop of Scale
//! processes and an ordered merge.
//!
//! Under Kahn semantics this network's channels grow without bound; with
//! bounded channels it artificially deadlocks (§3.5). Run with tiny
//! channel capacities to watch Parks' bounded scheduling resolve the
//! deadlocks by growing the smallest full channel.
//!
//! ```text
//! cargo run --example hamming [-- COUNT [CAPACITY_BYTES]]
//! ```

use kpn::core::graphs::{hamming, GraphOptions};
use kpn::core::{Network, Result};

fn main() -> Result<()> {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let count = args.first().copied().unwrap_or(30);
    let capacity = args.get(1).copied().unwrap_or(16) as usize;

    println!("first {count} Hamming numbers with {capacity}-byte channels:");
    let net = Network::new();
    let opts = GraphOptions {
        channel_capacity: capacity,
        ..Default::default()
    };
    let out = hamming(&net, count, &opts);
    let report = net.run()?;
    let values = out.lock().expect("collector");
    for chunk in values.chunks(10) {
        println!(
            "  {}",
            chunk
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "deadlock monitor grew channels {} times to keep the graph running",
        report.monitor.capacity_grows
    );
    Ok(())
}
