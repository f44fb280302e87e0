//! Synchronous dataflow: a multirate sample-rate converter scheduled
//! statically and executed on the KPN runtime.
//!
//! The paper (§1) treats dataflow as the analyzable special case of
//! process networks. This example shows what the analysis buys: the 2:3
//! then 7:5 rate-conversion chain gets a repetition vector, a periodic
//! schedule, and *exact* channel capacities — and then runs on the same
//! channels and threads as every other example, with the deadlock monitor
//! confirming that the static bounds were never exceeded (zero growths).
//!
//! ```text
//! cargo run --example sdf_rate_converter
//! ```

use kpn::core::Result;
use kpn::sdf::{execute, Schedule, SdfActor, SdfGraph};
use std::sync::{Arc, Mutex};

fn main() -> Result<()> {
    // src produces 2 samples per firing; `up` consumes 3 and produces 7
    // (fractional upsampling); `down` consumes 5 and produces 1 (decimated
    // measurement); sink consumes 1.
    let mut g = SdfGraph::new();
    let src = g.actor("src");
    let up = g.actor("up(3:7)");
    let down = g.actor("down(5:1)");
    let sink = g.actor("sink");
    g.edge(src, up, 2, 3);
    g.edge(up, down, 7, 5);
    g.edge(down, sink, 1, 1);

    let q = g.repetition_vector().expect("consistent graph");
    println!("repetition vector:");
    for (&actor, count) in [src, up, down, sink].iter().zip(&q) {
        println!("  {:<10} fires {count}x per period", g.name(actor));
    }
    let schedule = Schedule::build(&g).expect("schedulable");
    println!(
        "schedule ({} firings/period): {}",
        schedule.period_length(),
        schedule.looped(&g)
    );
    println!(
        "exact channel bounds (tokens): {:?}\n",
        schedule.channel_capacities()
    );

    let results = Arc::new(Mutex::new(Vec::new()));
    let out = results.clone();
    let mut t = 0i64;
    let report = execute(
        &g,
        &schedule,
        vec![
            SdfActor::new(src, move |_ins, outs| {
                outs[0].push(t);
                outs[0].push(t + 1);
                t += 2;
                Ok(())
            }),
            SdfActor::new(up, |ins, outs| {
                // Linear-ish interpolation: repeat samples 7/3.
                for k in 0..7 {
                    outs[0].push(ins[0][(k * 3 / 7) as usize]);
                }
                Ok(())
            }),
            SdfActor::new(down, |ins, outs| {
                outs[0].push(ins[0].iter().sum::<i64>() / 5);
                Ok(())
            }),
            SdfActor::new(sink, move |ins, _| {
                out.lock().unwrap().push(ins[0][0]);
                Ok(())
            }),
        ],
        6, // periods
    )?;

    let results = results.lock().unwrap();
    println!(
        "decimated output ({} values): {:?}",
        results.len(),
        &results[..]
    );
    println!(
        "\nmonitor growths: {} (static SDF bounds provably sufficed)",
        report.monitor.capacity_grows
    );
    assert_eq!(report.monitor.capacity_grows, 0);
    Ok(())
}
