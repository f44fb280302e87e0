//! The paper's central claim (§2): a Kahn network's channel histories are
//! determined by the graph alone — "the results of a computation are
//! unique and correct whether the program is executed on a computer with a
//! single processor, a computer with multiple processors, or many
//! computers distributed across a network."
//!
//! These property tests perturb everything the model says must not matter
//! — channel capacities (scheduling pressure), worker speeds (timing),
//! self-reconfiguration — and require byte-identical outputs.

use kpn::core::graphs::{
    fibonacci, fibonacci_reference, first_primes, hamming, hamming_reference, primes_reference,
    GraphOptions,
};
use kpn::core::Network;
use kpn::parallel::{
    meta_dynamic, meta_static, register_stock_tasks, synthetic_task_stream, Consumer, Producer,
    TaskEnvelope, TaskTypeRegistry,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

fn opts(capacity: usize, self_removing: bool) -> GraphOptions {
    GraphOptions {
        channel_capacity: capacity,
        self_removing_cons: self_removing,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fibonacci output is independent of channel capacities and of the
    /// Figure 9 reconfiguration.
    #[test]
    fn fibonacci_is_determinate(
        capacity in 16usize..4096,
        self_removing in any::<bool>(),
        count in 1u64..40,
    ) {
        let net = Network::new();
        let out = fibonacci(&net, count, &opts(capacity, self_removing));
        net.run().unwrap();
        prop_assert_eq!(&*out.lock().unwrap(), &fibonacci_reference(count as usize));
    }

    /// Hamming output is independent of capacities, even when tiny buffers
    /// force the monitor to grow channels mid-run.
    #[test]
    fn hamming_is_determinate(
        capacity in 16usize..2048,
        count in 1u64..80,
    ) {
        let net = Network::new();
        let out = hamming(&net, count, &opts(capacity, false));
        net.run().unwrap();
        prop_assert_eq!(&*out.lock().unwrap(), &hamming_reference(count as usize));
    }

    /// The self-reconfiguring sieve always produces the primes, regardless
    /// of buffer pressure.
    #[test]
    fn sieve_is_determinate(capacity in 64usize..2048, k in 1usize..30) {
        let net = Network::new();
        let out = first_primes(&net, k as u64, &opts(capacity, false));
        net.run().unwrap();
        let reference: Vec<i64> = primes_reference(200).into_iter().take(k).collect();
        prop_assert_eq!(&*out.lock().unwrap(), &reference);
    }

    /// §5: the MetaDynamic schema is "well behaved" — its input-output
    /// relation is independent of the (timing-dependent) index stream.
    /// Randomized worker speeds change arrival order; the output must not
    /// change, and must equal the MetaStatic output.
    #[test]
    fn meta_schemas_are_determinate(
        speeds in proptest::collection::vec(0.25f64..4.0, 1..6),
        tasks in 1u64..24,
    ) {
        let run = |dynamic: bool| -> Vec<u64> {
            let mut reg = TaskTypeRegistry::new();
            register_stock_tasks(&mut reg);
            let reg = reg.into_shared();
            let net = Network::new();
            let (tw, tr) = net.channel();
            let (rw, rr) = net.channel();
            net.add(Producer::new(synthetic_task_stream(tasks, 1.0), tw));
            if dynamic {
                meta_dynamic(&net, reg, &speeds, tr, rw);
            } else {
                meta_static(&net, reg, &speeds, tr, rw);
            }
            let out = Arc::new(Mutex::new(Vec::new()));
            let sink = out.clone();
            net.add(Consumer::new(rr, move |env: TaskEnvelope| {
                sink.lock().unwrap().push(env.unpack::<u64>()?);
                Ok(true)
            }));
            net.run().unwrap();
            let v = out.lock().unwrap().clone();
            v
        };
        let expected: Vec<u64> = (0..tasks).collect();
        prop_assert_eq!(run(false), expected.clone());
        prop_assert_eq!(run(true), expected);
    }
}

/// Repeated identical runs must agree exactly (scheduling noise only).
#[test]
fn repeated_runs_are_identical() {
    let mut baseline: Option<Vec<i64>> = None;
    for _ in 0..10 {
        let net = Network::new();
        let out = hamming(&net, 60, &opts(64, false));
        net.run().unwrap();
        let got = out.lock().unwrap().clone();
        match &baseline {
            None => baseline = Some(got),
            Some(b) => assert_eq!(&got, b),
        }
    }
}

/// The paper's title claim: the same program graph produces identical
/// results "whether the program is executed on a computer with a single
/// processor ... or many computers distributed across a network". Deploy
/// Fibonacci under four different partitionings — all-local, one server,
/// and two different three-server cuts — and require identical streams.
#[test]
fn output_is_independent_of_partitioning() {
    use kpn::core::DataReader;
    use kpn::net::{GraphBuilder, Node, ServerHandle};

    fn deploy_and_collect(assignment: [usize; 7]) -> Vec<i64> {
        let client = Node::serve("127.0.0.1:0").unwrap();
        let servers: Vec<_> = (0..3)
            .map(|_| Node::serve("127.0.0.1:0").unwrap())
            .collect();
        let handles: Vec<ServerHandle> = servers
            .iter()
            .map(|s| ServerHandle::new(s.addr().to_string()))
            .collect();
        let mut g = GraphBuilder::new();
        let ab = g.channel();
        let be = g.channel();
        let cd = g.channel();
        let df = g.channel();
        let ed = g.channel();
        let eg = g.channel();
        let fg = g.channel();
        let fh = g.channel();
        let gb = g.channel();
        let [p0, p1, p2, p3, p4, p5, p6] = assignment;
        g.add(p0, "Constant", &(1i64, Some(1u64)), &[], &[ab])
            .unwrap();
        g.add(p1, "Cons", &false, &[ab, gb], &[be]).unwrap();
        g.add(p2, "Duplicate", &(), &[be], &[ed, eg]).unwrap();
        g.add(p3, "Add", &(), &[eg, fg], &[gb]).unwrap();
        g.add(p4, "Constant", &(1i64, Some(1u64)), &[], &[cd])
            .unwrap();
        g.add(p5, "Cons", &false, &[cd, ed], &[df]).unwrap();
        g.add(p6, "Duplicate", &(), &[df], &[fh, fg]).unwrap();
        g.claim_reader(fh).unwrap();
        let mut dep = g.deploy(&client, &handles).unwrap();
        let mut r = DataReader::new(dep.readers.remove(&fh).unwrap());
        let got: Vec<i64> = (0..30).map(|_| r.read_i64().unwrap()).collect();
        drop(r);
        dep.join().unwrap();
        got
    }

    let all_on_one = deploy_and_collect([0; 7]);
    let three_way_a = deploy_and_collect([0, 0, 2, 0, 0, 0, 1]);
    let three_way_b = deploy_and_collect([1, 2, 0, 1, 2, 0, 2]);
    let reference = kpn::core::graphs::fibonacci_reference(30);
    assert_eq!(all_on_one, reference);
    assert_eq!(three_way_a, reference);
    assert_eq!(three_way_b, reference);
}
