//! Pins of where a graph is cut. `GraphBuilder::specs` and
//! `kpn_dist::partition_specs` (what `kpn-dist export` writes) are the
//! static face of the one cut in `kpn_net::spec` (DESIGN.md §4d): which
//! channels stay local and under which index, which become tokens, in which
//! order processes land in their partition. The pinned values are the codec
//! bytes of the whole plan (length and FNV-1a), recorded at 424ddaa — before
//! `specs`, `deploy` and `redistribute` shared a cut — so a refactor that
//! moves a placement, renumbers a local channel or draws tokens in another
//! order fails here. A deliberate change of placement re-records them and
//! says so.

use kpn::dist::graph::grid;
use kpn::dist::spec::partition_specs;
use kpn::net::{GraphBuilder, CLIENT};
use kpn::parallel::meta_dynamic_distributed;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, FNV-1a)` of the plan's codec bytes.
fn pin<T: serde::Serialize>(plan: &T) -> (usize, u64) {
    let bytes = kpn::codec::to_bytes(plan).unwrap();
    (bytes.len(), fnv1a(&bytes))
}

fn plan(b: &GraphBuilder) -> (usize, u64) {
    pin(&b.specs(|p| format!("node-{p}:7000")).unwrap())
}

/// `chaos::sieve_history`'s graph with the claimed reader replaced by a
/// client-side sink (a static plan has no claimed endpoints).
#[test]
fn sieve_shaped_plan_is_pinned() {
    let mut b = GraphBuilder::new();
    let candidates = b.channel();
    let primes = b.channel();
    b.add(0, "Sequence", &(2i64, Some(98u64)), &[], &[candidates])
        .unwrap();
    b.add(1, "Sift", &(), &[candidates], &[primes]).unwrap();
    b.add(CLIENT, "Print", &(), &[primes], &[]).unwrap();
    assert_eq!(plan(&b), (315, 8122118358919260366));
}

/// `chaos::hamming_history`'s graph: the feedback loop whole on partition
/// 0 (seven local channels), two cuts on the way out.
#[test]
fn hamming_shaped_plan_is_pinned() {
    let mut b = GraphBuilder::new();
    let [init, merged, h, mid, relay, in2, in3, in5, m2, m3, m5] = [(); 11].map(|_| b.channel());
    b.add(0, "Constant", &(1i64, Some(1u64)), &[], &[init])
        .unwrap();
    b.add(0, "Cons", &false, &[init, merged], &[h]).unwrap();
    b.add(0, "Duplicate", &(), &[h], &[mid, in2, in3, in5])
        .unwrap();
    b.add(0, "Scale", &2i64, &[in2], &[m2]).unwrap();
    b.add(0, "Scale", &3i64, &[in3], &[m3]).unwrap();
    b.add(0, "Scale", &5i64, &[in5], &[m5]).unwrap();
    b.add(0, "OrderedMerge", &true, &[m2, m3, m5], &[merged])
        .unwrap();
    b.add(1, "Identity", &(), &[mid], &[relay]).unwrap();
    b.add(CLIENT, "Print", &(), &[relay], &[]).unwrap();
    assert_eq!(plan(&b), (865, 15603074987362083660));
}

/// The §5.2 composite as `factor_2node` deploys it: routing on the client,
/// four workers alternating over two servers, so every worker channel is
/// cut and the index plumbing stays local to the client.
#[test]
fn meta_dynamic_plan_is_pinned() {
    let mut b = GraphBuilder::new();
    let (task_in, result_out) =
        meta_dynamic_distributed(&mut b, CLIENT, &[0, 1, 0, 1], 1.0).unwrap();
    b.add(CLIENT, "Sequence", &(0i64, Some(8u64)), &[], &[task_in])
        .unwrap();
    b.add(CLIENT, "Print", &(), &[result_out], &[]).unwrap();
    assert_eq!(plan(&b), (1322, 4466310079371221406));
}

/// What `kpn-dist export` writes for a 4×4 grid in one, two and three
/// contiguous blocks.
#[test]
fn grid_partition_plans_are_pinned() {
    let g = grid(4, 4).unwrap();
    let inputs: Vec<u64> = (0..g.n() as u64).collect();
    let pins: Vec<(usize, u64)> = [1, 2, 3]
        .iter()
        .map(|&parts| pin(&partition_specs(&g, "mvc3", parts, 16, &inputs, 64).unwrap()))
        .collect();
    assert_eq!(
        pins,
        [
            (2805, 8875017496859436888),
            (2938, 13300453532166231554),
            (3123, 3635317981069301391)
        ]
    );
}
