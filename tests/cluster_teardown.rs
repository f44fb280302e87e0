//! A dropped faulted `ChaosCluster` returns the process to the thread count
//! it had before it was built: its nodes' executors retire, and the
//! watchdog of the cluster's profile — a task on the executor of whoever
//! connected its first resilient sink — exits once no resilient sink is
//! left, instead of living as long as the process. One test per file: the
//! count is process-wide. Run it under each executor (`KPN_EXEC=thread`,
//! `KPN_EXEC=pooled:2`).

#![cfg(target_os = "linux")]

use kpn::net::chaos::{chaos_policy, relay_history, ChaosCluster};
use kpn::net::FaultProfile;
use std::time::{Duration, Instant};

fn threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn a_dropped_chaos_cluster_leaves_no_thread_behind() {
    let baseline = threads().len();
    {
        let profile = FaultProfile {
            mean_ops_between_faults: 12,
            refuse_connects: 1,
            max_faults: 10,
            ..FaultProfile::default()
        };
        let cluster = ChaosCluster::with_faults(2, 0xC0FFEE, profile, chaos_policy()).unwrap();
        assert_eq!(relay_history(&cluster, 48).unwrap(), (0..48).collect::<Vec<_>>());
        assert!(cluster.injected() > 0, "fault schedule never fired");
    }
    // Thread exit is asynchronous to the drop that requested it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads().len() > baseline {
        assert!(
            Instant::now() < deadline,
            "threads left over a baseline of {baseline}: {:?}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
