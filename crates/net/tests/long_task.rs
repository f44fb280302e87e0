//! A `RunTask` body is opaque: it may take as long as it likes, or block.
//! It runs on a thread of its own while its control session parks, so on a
//! node whose pool has one worker a long task leaves the accept loop and
//! the other sessions free. One test per file: the node's executor comes
//! from `KPN_EXEC`, which the test sets for the whole process.

use kpn_net::{Node, ProcessRegistry, ServerHandle, TaskRegistry};
use std::time::{Duration, Instant};

const TASK: Duration = Duration::from_millis(500);
const PROMPT: Duration = Duration::from_millis(100);

#[test]
fn a_long_task_leaves_a_one_worker_node_answering() {
    std::env::set_var("KPN_EXEC", "pooled:1");
    let mut tasks = TaskRegistry::new();
    tasks.register("nap", |ms: u64| {
        std::thread::sleep(Duration::from_millis(ms));
        Ok(ms)
    });
    let node = Node::serve_with("127.0.0.1:0", ProcessRegistry::with_defaults(), tasks).unwrap();
    let handle = ServerHandle::new(node.addr().to_string());
    let long = std::thread::spawn({
        let handle = handle.clone();
        move || handle.run_task::<_, u64>("nap", &(TASK.as_millis() as u64))
    });
    let started = Instant::now();
    // Under way by now, with most of its time to go.
    std::thread::sleep(TASK / 5);
    let ping = Instant::now();
    handle.ping().unwrap();
    let took = ping.elapsed();
    assert!(took < PROMPT, "a ping beside a long task took {took:?}");
    assert!(
        started.elapsed() < TASK,
        "the ping was not concurrent with the task"
    );
    assert_eq!(long.join().unwrap().unwrap(), TASK.as_millis() as u64);
}
