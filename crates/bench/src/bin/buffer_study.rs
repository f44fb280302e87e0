//! Buffer-management study (§3.5 / §6.2): runs the two graphs the paper
//! uses to motivate bounded scheduling — the Hamming network (Figure 12,
//! unbounded growth) and the mod/merge DAG (Figure 13, asymmetric rates) —
//! with deliberately starved channels, and reports what Parks' procedure
//! discovered: which channels had to grow, to what capacity, and the
//! final per-channel traffic/occupancy profile.
//!
//! ```text
//! cargo run -p kpn-bench --release --bin buffer_study [-- COUNT]
//! ```

use kpn_core::graphs::{hamming, mod_merge_dag, GraphOptions};
use kpn_core::Network;
use std::collections::BTreeMap;

fn report(label: &str, net: &Network, produced: usize) {
    println!("== {label}");
    println!("   output length: {produced}");
    let stats = net.monitor().stats();
    println!(
        "   artificial deadlocks resolved: {} growth events",
        stats.capacity_grows
    );
    if stats.growth_log.is_empty() {
        println!("   no channel ever needed to grow");
    } else {
        let mut finals: BTreeMap<u64, (usize, usize, u32)> = BTreeMap::new();
        for (chan, old, new) in &stats.growth_log {
            let e = finals.entry(*chan).or_insert((*old, *new, 0));
            e.1 = (*new).max(e.1);
            e.2 += 1;
        }
        println!("   channel | initial -> settled capacity (growths)");
        for (chan, (initial, settled, growths)) in &finals {
            println!("   {chan:>7} | {initial:>7} -> {settled:>7}  ({growths})");
        }
    }
    println!("   per-channel I/O — bytes, write-blocks, read-blocks, peak/capacity:");
    for (id, st) in net.channel_report() {
        println!(
            "   {id:>7} | {:>9}  wb {:>6}  rb {:>6}  peak {:>6}/{}",
            st.bytes_written, st.write_blocks, st.read_blocks, st.peak_occupancy, st.capacity
        );
    }
    println!();
}

fn main() {
    let count: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("numeric count"))
        .unwrap_or(500);

    println!("Buffer-management study: starved channels healed by bounded scheduling\n");

    let net = Network::new();
    let opts = GraphOptions {
        channel_capacity: 16, // two i64 per channel
        ..Default::default()
    };
    let out = hamming(&net, count, &opts);
    net.start();
    net.join().expect("hamming run");
    report(
        &format!("Hamming (Figure 12), {count} values, 16-byte channels"),
        &net,
        out.lock().unwrap().len(),
    );

    let net = Network::new();
    let out = mod_merge_dag(&net, 10, count, 8);
    net.start();
    net.join().expect("dag run");
    report(
        &format!("mod/merge DAG (Figure 13), divisor 10, {count} values, 8-byte starved branch"),
        &net,
        out.lock().unwrap().len(),
    );
    println!(
        "note: in the Figure 13 study the single grown channel is the 'others'\n\
         branch the paper identifies; it settles once its capacity fits the\n\
         divisor-1 = 9 queued values."
    );
}
