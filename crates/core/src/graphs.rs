//! Ready-made example networks from the paper, used by the examples, the
//! integration tests, the determinacy property tests, and the benchmarks.
//!
//! Each builder wires processes into a supplied [`Network`] and returns the
//! collector that will receive the observable output once the network runs.

use crate::network::Network;
use crate::stdlib::Collect;
use crate::stdlib::{
    Average, CollectF64, Cons, Constant, ConstantF64, Divide, Duplicate, Equal, Guard, ModRouter,
    OrderedMerge, Scale, Sequence, Sift,
};
use std::sync::{Arc, Mutex};

/// Options controlling how the example graphs are wired — varied by the
/// determinacy property tests to perturb scheduling without changing
/// semantics.
#[derive(Debug, Clone)]
pub struct GraphOptions {
    /// Capacity for every channel created by the builder.
    pub channel_capacity: usize,
    /// Use self-removing `Cons` processes (Figures 9/10) where possible.
    pub self_removing_cons: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            channel_capacity: crate::channel::DEFAULT_CAPACITY,
            self_removing_cons: false,
        }
    }
}

/// Builds the Fibonacci network of Figures 2/6: the first `count` Fibonacci
/// numbers (1, 1, 2, 3, 5, …) are delivered to the returned collector.
pub fn fibonacci(net: &Network, count: u64, opts: &GraphOptions) -> Arc<Mutex<Vec<i64>>> {
    let cap = opts.channel_capacity;
    // Channel names follow Figure 6.
    let (ab_w, ab_r) = net.channel_with_capacity(cap);
    let (be_w, be_r) = net.channel_with_capacity(cap);
    let (cd_w, cd_r) = net.channel_with_capacity(cap);
    let (df_w, df_r) = net.channel_with_capacity(cap);
    let (ed_w, ed_r) = net.channel_with_capacity(cap);
    let (eg_w, eg_r) = net.channel_with_capacity(cap);
    let (fg_w, fg_r) = net.channel_with_capacity(cap);
    let (fh_w, fh_r) = net.channel_with_capacity(cap);
    let (gb_w, gb_r) = net.channel_with_capacity(cap);

    let cons1 = Cons::new(ab_r, gb_r, be_w);
    let cons2 = Cons::new(cd_r, ed_r, df_w);
    let (cons1, cons2) = if opts.self_removing_cons {
        (cons1.removing_self(), cons2.removing_self())
    } else {
        (cons1, cons2)
    };

    net.add(Constant::new(1, ab_w).with_limit(1));
    net.add(cons1);
    net.add(Duplicate::two(be_r, ed_w, eg_w));
    net.add(Add::new(eg_r, fg_r, gb_w));
    net.add(Constant::new(1, cd_w).with_limit(1));
    net.add(cons2);
    net.add(Duplicate::two(df_r, fh_w, fg_w));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(fh_r, out.clone()).with_limit(count));
    out
}

use crate::stdlib::Add;

/// Builds the Hamming-number network of Figure 12: the ordered sequence of
/// integers of the form `2^k · 3^m · 5^n` (1, 2, 3, 4, 5, 6, 8, …). The
/// channels of this graph grow without bound under Kahn semantics, so with
/// bounded channels it exercises the deadlock monitor's growth policy.
pub fn hamming(net: &Network, count: u64, opts: &GraphOptions) -> Arc<Mutex<Vec<i64>>> {
    let cap = opts.channel_capacity;
    let (init_w, init_r) = net.channel_with_capacity(cap);
    let (merged_w, merged_r) = net.channel_with_capacity(cap);
    let (h_w, h_r) = net.channel_with_capacity(cap);
    let (out_w, out_r) = net.channel_with_capacity(cap);
    let (in2_w, in2_r) = net.channel_with_capacity(cap);
    let (in3_w, in3_r) = net.channel_with_capacity(cap);
    let (in5_w, in5_r) = net.channel_with_capacity(cap);
    let (m2_w, m2_r) = net.channel_with_capacity(cap);
    let (m3_w, m3_r) = net.channel_with_capacity(cap);
    let (m5_w, m5_r) = net.channel_with_capacity(cap);

    net.add(Constant::new(1, init_w).with_limit(1));
    let cons = Cons::new(init_r, merged_r, h_w);
    net.add(if opts.self_removing_cons {
        cons.removing_self()
    } else {
        cons
    });
    net.add(Duplicate::new(h_r, vec![out_w, in2_w, in3_w, in5_w]));
    net.add(Scale::new(2, in2_r, m2_w));
    net.add(Scale::new(3, in3_r, m3_w));
    net.add(Scale::new(5, in5_r, m5_w));
    net.add(OrderedMerge::new(vec![m2_r, m3_r, m5_r], merged_w));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(out_r, out.clone()).with_limit(count));
    out
}

/// Builds the Sieve of Eratosthenes (Figure 7) producing all primes `< n`
/// by limiting the Sequence process (§3.4, first termination mode: every
/// produced datum is consumed before the graph winds down).
pub fn primes_below(net: &Network, n: i64, opts: &GraphOptions) -> Arc<Mutex<Vec<i64>>> {
    let cap = opts.channel_capacity;
    let (seq_w, seq_r) = net.channel_with_capacity(cap);
    let (out_w, out_r) = net.channel_with_capacity(cap);
    net.add(Sequence::new(2, (n - 2).max(0) as u64, seq_w));
    net.add(Sift::new(seq_r, out_w));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(out_r, out.clone()));
    out
}

/// Builds the Sieve of Eratosthenes producing the first `k` primes by
/// limiting the sink (§3.4, second termination mode: the cascade of
/// `WriteClosed` exceptions terminates all processes "almost immediately").
pub fn first_primes(net: &Network, k: u64, opts: &GraphOptions) -> Arc<Mutex<Vec<i64>>> {
    let cap = opts.channel_capacity;
    let (seq_w, seq_r) = net.channel_with_capacity(cap);
    let (out_w, out_r) = net.channel_with_capacity(cap);
    net.add(Sequence::unbounded(2, seq_w));
    net.add(Sift::new(seq_r, out_w));
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(out_r, out.clone()).with_limit(k));
    out
}

/// Builds the Newton square-root network of Figure 11: iterates
/// `r_n = (x/r_{n-1} + r_{n-1}) / 2` until the estimate stops changing,
/// then the Guard passes exactly one value (√x) and the graph terminates.
pub fn newton_sqrt(net: &Network, x: f64, opts: &GraphOptions) -> Arc<Mutex<Vec<f64>>> {
    let cap = opts.channel_capacity;
    let (x_w, x_r) = net.channel_with_capacity(cap);
    let (r0_w, r0_r) = net.channel_with_capacity(cap);
    let (fb_w, fb_r) = net.channel_with_capacity(cap);
    let (r_w, r_r) = net.channel_with_capacity(cap);
    let (rdiv_w, rdiv_r) = net.channel_with_capacity(cap);
    let (ravg_w, ravg_r) = net.channel_with_capacity(cap);
    let (req_w, req_r) = net.channel_with_capacity(cap);
    let (q_w, q_r) = net.channel_with_capacity(cap);
    let (rn_w, rn_r) = net.channel_with_capacity(cap);
    let (rnfb_w, rnfb_r) = net.channel_with_capacity(cap);
    let (rneq_w, rneq_r) = net.channel_with_capacity(cap);
    let (rndata_w, rndata_r) = net.channel_with_capacity(cap);
    let (ctrl_w, ctrl_r) = net.channel_with_capacity(cap);
    let (res_w, res_r) = net.channel_with_capacity(cap);

    // Stream of the constant x (one per iteration).
    net.add(ConstantF64::new(x, x_w));
    // r = cons(r0, feedback) — Cons is byte-level, so it works for f64 too.
    net.add(ConstantF64::new(1.0, r0_w).with_limit(1));
    net.add(Cons::new(r0_r, fb_r, r_w));
    net.add(Duplicate::new(r_r, vec![rdiv_w, ravg_w, req_w]));
    net.add(Divide::new(x_r, rdiv_r, q_w));
    net.add(Average::new(q_r, ravg_r, rn_w));
    net.add(Duplicate::new(rn_r, vec![rnfb_w, rneq_w, rndata_w]));
    // Feedback r_{n} into the cons tail.
    net.add(crate::stdlib::Identity::new(rnfb_r, fb_w));
    net.add(Equal::new(req_r, rneq_r, ctrl_w));
    net.add(Guard::new(rndata_r, ctrl_r, res_w).stopping_after_first());
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(CollectF64::new(res_r, out.clone()).with_limit(1));
    out
}

/// Builds the directed-acyclic deadlock example of Figure 13: a router that
/// emits `divisor - 1` values on one branch for every value on the other,
/// feeding an ordered merge. When the busy branch's channel is smaller than
/// `(divisor - 1)` values, the graph artificially deadlocks and only the
/// monitor's buffer growth lets it finish.
pub fn mod_merge_dag(
    net: &Network,
    divisor: i64,
    count: u64,
    others_capacity: usize,
) -> Arc<Mutex<Vec<i64>>> {
    let (src_w, src_r) = net.channel();
    let (mult_w, mult_r) = net.channel();
    // The deliberately-undersized channel from Figure 13.
    let (other_w, other_r) = net.channel_with_capacity(others_capacity);
    let (out_w, out_r) = net.channel();
    net.add(Sequence::new(1, count, src_w));
    net.add(ModRouter::new(divisor, src_r, mult_w, other_w));
    net.add(OrderedMerge::new(vec![mult_r, other_r], out_w).keeping_duplicates());
    let out = Arc::new(Mutex::new(Vec::new()));
    net.add(Collect::new(out_r, out.clone()));
    out
}

/// Reference Hamming sequence computed directly (for assertions).
pub fn hamming_reference(count: usize) -> Vec<i64> {
    let mut vals = vec![1i64];
    let (mut i2, mut i3, mut i5) = (0usize, 0usize, 0usize);
    while vals.len() < count {
        let (c2, c3, c5) = (vals[i2] * 2, vals[i3] * 3, vals[i5] * 5);
        let next = c2.min(c3).min(c5);
        if next == c2 {
            i2 += 1;
        }
        if next == c3 {
            i3 += 1;
        }
        if next == c5 {
            i5 += 1;
        }
        vals.push(next);
    }
    vals.truncate(count);
    vals
}

/// Reference Fibonacci sequence as produced by the Figure 2 network
/// (1, 1, 2, 3, 5, …).
pub fn fibonacci_reference(count: usize) -> Vec<i64> {
    let mut vals = Vec::with_capacity(count);
    let (mut a, mut b) = (1i64, 1i64);
    for _ in 0..count {
        vals.push(a);
        let next = a + b;
        a = b;
        b = next;
    }
    vals
}

/// Reference prime sieve (for assertions).
pub fn primes_reference(below: i64) -> Vec<i64> {
    let mut out = Vec::new();
    'outer: for n in 2..below {
        for p in &out {
            if p * p > n {
                break;
            }
            if n % p == 0 {
                continue 'outer;
            }
        }
        out.push(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fibonacci_network_matches_reference() {
        let net = Network::new();
        let out = fibonacci(&net, 20, &GraphOptions::default());
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), fibonacci_reference(20));
    }

    #[test]
    fn fibonacci_with_self_removing_cons_is_identical() {
        // Figure 9: reconfiguration must not change the channel history.
        let net = Network::new();
        let opts = GraphOptions {
            self_removing_cons: true,
            ..Default::default()
        };
        let out = fibonacci(&net, 30, &opts);
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), fibonacci_reference(30));
    }

    #[test]
    fn hamming_network_matches_reference() {
        let net = Network::new();
        let out = hamming(&net, 50, &GraphOptions::default());
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), hamming_reference(50));
    }

    #[test]
    fn hamming_first_values_match_paper() {
        // §3.5 lists 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20.
        let net = Network::new();
        let out = hamming(&net, 14, &GraphOptions::default());
        net.run().unwrap();
        assert_eq!(
            *out.lock().unwrap(),
            vec![1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20]
        );
    }

    #[test]
    fn hamming_with_tiny_channels_self_heals() {
        // Bounded channels deadlock artificially; the monitor must grow
        // them (§3.5) and the run must still produce the right answer.
        let net = Network::new();
        let opts = GraphOptions {
            channel_capacity: 16, // two i64s per channel
            ..Default::default()
        };
        let out = hamming(&net, 100, &opts);
        let report = net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), hamming_reference(100));
        assert!(
            report.monitor.capacity_grows > 0,
            "expected the monitor to grow at least one channel"
        );
    }

    #[test]
    fn newton_sqrt_converges() {
        let net = Network::new();
        let out = newton_sqrt(&net, 2.0, &GraphOptions::default());
        net.run().unwrap();
        let got = out.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert!((got[0] - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn newton_sqrt_of_large_value() {
        let net = Network::new();
        let out = newton_sqrt(&net, 1.0e6, &GraphOptions::default());
        net.run().unwrap();
        assert!((out.lock().unwrap()[0] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn primes_below_100_matches_reference() {
        let net = Network::new();
        let out = primes_below(&net, 100, &GraphOptions::default());
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), primes_reference(100));
    }

    #[test]
    fn first_primes_matches_reference() {
        let net = Network::new();
        let out = first_primes(&net, 25, &GraphOptions::default());
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), primes_reference(100));
    }

    #[test]
    fn mod_merge_dag_deadlocks_artificially_and_recovers() {
        // Figure 13: channel holds one i64 while the router must emit
        // divisor-1 = 9 values on that branch before the merge can drain.
        let net = Network::new();
        let out = mod_merge_dag(&net, 10, 100, 8);
        let report = net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), (1..=100).collect::<Vec<i64>>());
        assert!(report.monitor.capacity_grows > 0);
    }

    #[test]
    fn mod_merge_dag_large_buffer_needs_no_growth() {
        let net = Network::new();
        let out = mod_merge_dag(&net, 10, 100, 8192);
        let report = net.run().unwrap();
        assert_eq!(out.lock().unwrap().len(), 100);
        assert_eq!(report.monitor.capacity_grows, 0);
    }

    #[test]
    fn references_are_sane() {
        assert_eq!(fibonacci_reference(6), vec![1, 1, 2, 3, 5, 8]);
        assert_eq!(hamming_reference(7), vec![1, 2, 3, 4, 5, 6, 8]);
        assert_eq!(primes_reference(12), vec![2, 3, 5, 7, 11]);
    }
}
