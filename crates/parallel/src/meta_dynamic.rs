//! MetaDynamic: parallel workers with on-demand load balancing
//! (Figures 17/18).
//!
//! A new task is sent to a worker for every result collected from it, so
//! fast workers process more tasks and slow workers never hold the others
//! back (§5.2). The composite is made of:
//!
//! * [`Direct`] (`d`) — reads the next worker index from the shared index
//!   stream and forwards one task envelope to that worker;
//! * [`Turnstile`] (`t`) — passes results through *in the order they
//!   become available* and emits the index stream recording that order.
//!   This is the one deliberately nondeterminate component (its arrival
//!   order depends on execution speeds);
//! * [`Select`] (`s`) — consumes the same index stream and restores *task
//!   order*, so the consumer sees exactly the single-worker/static-schema
//!   output. Despite the Turnstile, the composition is determinate in its
//!   input-output relation — the "well behaved" MetaDynamic schema.
//!
//! The initial index sequence `0..N-1` (the `(n)` of Figure 18) is
//! prepended with a stock `Cons` process, and the stream is fanned out to
//! Direct and Select with a stock `Duplicate` — byte-level processes from
//! `kpn-core`.

use crate::generic::Worker;
use crate::task::TaskTypeRegistry;
use kpn_codec::{ObjectReader, ObjectWriter};
use kpn_core::stdlib::{Cons, Duplicate, Sequence};
use kpn_core::{
    ChannelReader, ChannelWriter, DataReader, DataWriter, Error, Exec, Iterative, Network, Process,
    ProcessCtx, Result,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Figure 17's `d`: task dispatch driven by the index stream.
///
/// When the task stream is exhausted, `Direct` closes its worker outputs
/// (so the workers drain and finish) but keeps *consuming* the index
/// stream until it ends. Dropping the index reader immediately would
/// cascade a close through the index `Duplicate`/`Cons` into the
/// Turnstile's index output and could kill the Turnstile before the last
/// in-flight results reach the Select — losing data the Kahn semantics
/// say must be delivered.
pub struct Direct {
    tasks: Option<ObjectReader>,
    index: DataReader,
    outputs: Vec<ObjectWriter>,
}

impl Direct {
    /// A dispatcher over `outputs.len()` workers.
    pub fn new(tasks: ChannelReader, index: ChannelReader, outputs: Vec<ChannelWriter>) -> Self {
        assert!(!outputs.is_empty(), "Direct needs at least one output");
        Direct {
            tasks: Some(ObjectReader::new(tasks)),
            index: DataReader::new(index),
            outputs: outputs.into_iter().map(ObjectWriter::new).collect(),
        }
    }
}

impl Iterative for Direct {
    fn name(&self) -> String {
        format!("Direct(x{})", self.outputs.len())
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let Some(tasks) = self.tasks.as_mut() else {
            // Draining: keep the index path alive until it ends naturally
            // (the Turnstile closes it once every worker stream ended).
            self.index.read_i64()?;
            return Ok(());
        };
        // Task first: when the producer is exhausted we stop dispatching
        // without waiting for another completion.
        match tasks.read_raw() {
            Ok(record) => {
                let w = self.index.read_i64()? as usize;
                let out = self
                    .outputs
                    .get_mut(w)
                    .ok_or_else(|| Error::Graph(format!("index stream named worker {w}")))?;
                out.write_raw(&record)
            }
            Err(Error::Eof) => {
                // Let the workers see EOF and finish their queues.
                self.tasks = None;
                self.outputs.clear();
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

/// The arrival-order queue between a [`Turnstile`]'s pumps and the
/// turnstile itself. The turnstile waits through its executor's
/// `park_token`/`park` protocol, like a channel read — a pooled fiber
/// parks instead of pinning its worker, so the pumps it is waiting for can
/// run even on a one-worker pool.
struct Merge {
    exec: Arc<dyn Exec>,
    state: Mutex<MergeState>,
}

struct MergeState {
    queue: VecDeque<(usize, Vec<u8>)>,
    /// The turnstile is parked (or about to be): the next push wakes it.
    waiting: bool,
    /// Pumps still running; the merged stream ends when it reaches zero.
    pumps: usize,
    /// The turnstile is gone: pumps retire instead of queueing.
    closed: bool,
}

impl Merge {
    fn key(&self) -> usize {
        self as *const Merge as usize
    }

    /// Queues one arrival; `false` once the turnstile is gone.
    fn push(&self, item: (usize, Vec<u8>)) -> bool {
        let mut st = self.state.lock();
        if st.closed {
            return false;
        }
        st.queue.push_back(item);
        let wake = std::mem::take(&mut st.waiting);
        drop(st);
        if wake {
            self.exec.unpark_all(self.key());
        }
        true
    }

    /// The next arrival, or `None` once every pump has ended.
    fn pop(&self) -> Result<Option<(usize, Vec<u8>)>> {
        if self.state.lock().queue.is_empty() {
            // About to wait on something that is not a channel (only this
            // call takes arrivals out, so an empty queue here is the one
            // case that parks below): publish the turnstile's buffered
            // output first, as every channel wait does. The index token of
            // the last arrival may be all that `Direct` needs to hand a
            // worker its next task — and the workers are who fills this
            // queue. Not under the lock: a flush can block.
            kpn_core::flush::flush_before_block();
        }
        loop {
            let mut st = self.state.lock();
            if let Some(item) = st.queue.pop_front() {
                return Ok(Some(item));
            }
            if st.pumps == 0 {
                return Ok(None);
            }
            st.waiting = true;
            let token = self.exec.park_token(self.key());
            drop(st);
            self.exec.park(self.key(), token, None)?;
        }
    }

    /// Marks one end of the queue gone (a pump ended, or the turnstile
    /// did) and wakes the other.
    fn hang_up(&self, update: impl FnOnce(&mut MergeState)) {
        update(&mut self.state.lock());
        self.exec.unpark_all(self.key());
    }
}

/// A pump's handle on the queue; dropping it (return, error or panic)
/// counts the pump out.
struct PumpEnd(Arc<Merge>);

impl Drop for PumpEnd {
    fn drop(&mut self) {
        self.0.hang_up(|st| st.pumps -= 1);
    }
}

/// Figure 18's `t`: merges worker results in arrival order and reports
/// that order on the index stream. Internally one pump process per input
/// feeds a shared queue — the queue's arrival order is the sanctioned
/// nondeterminism.
pub struct Turnstile {
    inputs: Option<Vec<ChannelReader>>,
    data_out: ObjectWriter,
    index_out: DataWriter,
    merged: Option<Arc<Merge>>,
}

impl Drop for Turnstile {
    fn drop(&mut self) {
        if let Some(merge) = &self.merged {
            merge.hang_up(|st| st.closed = true);
        }
    }
}

impl Turnstile {
    /// A turnstile over the given worker-result channels.
    pub fn new(
        inputs: Vec<ChannelReader>,
        data_out: ChannelWriter,
        index_out: ChannelWriter,
    ) -> Self {
        assert!(!inputs.is_empty(), "Turnstile needs at least one input");
        Turnstile {
            inputs: Some(inputs),
            data_out: ObjectWriter::new(data_out),
            index_out: DataWriter::new(index_out),
            merged: None,
        }
    }
}

impl Iterative for Turnstile {
    fn name(&self) -> String {
        "Turnstile".into()
    }

    fn on_start(&mut self, ctx: &ProcessCtx) -> Result<()> {
        let inputs = self.inputs.take().expect("started twice");
        let merge = Arc::new(Merge {
            exec: kpn_core::exec::current_exec().expect("process runs on a live executor"),
            state: Mutex::new(MergeState {
                queue: VecDeque::new(),
                waiting: false,
                pumps: inputs.len(),
                closed: false,
            }),
        });
        for (w, input) in inputs.into_iter().enumerate() {
            let tx = PumpEnd(merge.clone());
            ctx.spawn(Box::new(kpn_core::FnProcess::new(
                format!("turnstile-pump-{w}"),
                move |_| {
                    let mut reader = ObjectReader::new(input);
                    loop {
                        match reader.read_raw() {
                            Ok(record) => {
                                if !tx.0.push((w, record)) {
                                    // Turnstile gone (downstream closed):
                                    // retire; dropping `reader` cancels the
                                    // worker upstream.
                                    return Ok(());
                                }
                            }
                            Err(Error::Eof) => return Ok(()),
                            Err(e) => return Err(e),
                        }
                    }
                },
            )));
        }
        self.merged = Some(merge);
        Ok(())
    }

    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let merge = self.merged.as_ref().expect("on_start ran");
        match merge.pop()? {
            Some((w, record)) => {
                self.index_out.write_i64(w as i64)?;
                self.data_out.write_raw(&record)
            }
            // All pumps ended: every worker stream hit EOF.
            None => Err(Error::Eof),
        }
    }
}

/// Figure 18's `s`: restores task order. The `k`-th index value names the
/// worker of task `k`; for `k ≥ N` it equally records the worker of
/// arrival `k − N`, which is how arrivals are demultiplexed into
/// per-worker queues without extra tagging.
pub struct Select {
    data: ObjectReader,
    index: DataReader,
    out: ObjectWriter,
    n_workers: usize,
    /// All index values read so far (position-addressed).
    indices: Vec<usize>,
    /// Per-worker queues of results not yet emitted.
    queues: Vec<VecDeque<Vec<u8>>>,
    /// Next task to emit.
    k: usize,
    /// Arrivals pulled from the turnstile so far.
    arrivals: usize,
}

impl Select {
    /// A select stage over `n_workers` workers.
    pub fn new(
        data: ChannelReader,
        index: ChannelReader,
        out: ChannelWriter,
        n_workers: usize,
    ) -> Self {
        assert!(n_workers > 0);
        Select {
            data: ObjectReader::new(data),
            index: DataReader::new(index),
            out: ObjectWriter::new(out),
            n_workers,
            indices: Vec::new(),
            queues: vec![VecDeque::new(); n_workers],
            k: 0,
            arrivals: 0,
        }
    }

    /// The index value at stream position `p`, reading forward as needed.
    /// Values up to position `N + arrivals` are guaranteed to have been
    /// produced (the turnstile emits one index value per arrival, after
    /// the initial injected sequence).
    fn index_at(&mut self, p: usize) -> Result<usize> {
        while self.indices.len() <= p {
            let v = self.index.read_i64()?;
            if v < 0 || v as usize >= self.n_workers {
                return Err(Error::Graph(format!("index stream value {v} out of range")));
            }
            self.indices.push(v as usize);
        }
        Ok(self.indices[p])
    }
}

impl Iterative for Select {
    fn name(&self) -> String {
        "Select".into()
    }

    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let w_k = self.index_at(self.k)?;
        while self.queues[w_k].is_empty() {
            let record = self.data.read_raw()?; // Eof here ends the stage
            let tag = self.index_at(self.n_workers + self.arrivals)?;
            self.queues[tag].push_back(record);
            self.arrivals += 1;
        }
        let record = self.queues[w_k].pop_front().expect("nonempty");
        self.out.write_raw(&record)?;
        self.k += 1;
        Ok(())
    }
}

/// Builds the MetaDynamic composite between `task_in` and `result_out`
/// with a caller-supplied worker factory.
pub fn meta_dynamic_with<F>(
    net: &Network,
    n_workers: usize,
    task_in: ChannelReader,
    result_out: ChannelWriter,
    mut worker: F,
) where
    F: FnMut(usize, ChannelReader, ChannelWriter) -> Box<dyn Process>,
{
    assert!(n_workers > 0);
    let mut to_w = Vec::with_capacity(n_workers);
    let mut from_w = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let (tw, tr) = net.channel();
        let (rw, rr) = net.channel();
        net.add_process(worker(i, tr, rw));
        to_w.push(tw);
        from_w.push(rr);
    }
    // Index plumbing: cons(0..N-1, turnstile index) duplicated to Direct
    // and Select (Figure 18).
    let (init_w, init_r) = net.channel();
    let (t_idx_w, t_idx_r) = net.channel();
    let (idx_full_w, idx_full_r) = net.channel();
    let (idx_direct_w, idx_direct_r) = net.channel();
    let (idx_select_w, idx_select_r) = net.channel();
    let (t_data_w, t_data_r) = net.channel();
    net.add(Sequence::new(0, n_workers as u64, init_w));
    net.add(Cons::new(init_r, t_idx_r, idx_full_w));
    net.add(Duplicate::two(idx_full_r, idx_direct_w, idx_select_w));
    net.add(Direct::new(task_in, idx_direct_r, to_w));
    net.add(Turnstile::new(from_w, t_data_w, t_idx_w));
    net.add(Select::new(t_data_r, idx_select_r, result_out, n_workers));
}

/// Builds MetaDynamic with generic [`Worker`]s at the given speeds.
pub fn meta_dynamic(
    net: &Network,
    registry: Arc<TaskTypeRegistry>,
    speeds: &[f64],
    task_in: ChannelReader,
    result_out: ChannelWriter,
) {
    let speeds = speeds.to_vec();
    meta_dynamic_with(net, speeds.len(), task_in, result_out, move |i, r, w| {
        Box::new(kpn_core::IterativeProcess::new(
            Worker::new(registry.clone(), r, w).with_speed(speeds[i]),
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::{Consumer, Producer};
    use crate::task::{TaskEnv, TaskEnvelope, WorkTask};
    use parking_lot::Mutex;
    use serde::{Deserialize, Serialize};
    use std::time::Duration;

    /// Sleeps `millis`, then echoes its sequence number — slow enough to
    /// force genuine interleaving, small enough to keep tests quick.
    #[derive(Serialize, Deserialize)]
    struct SleepEcho {
        seq: i64,
        millis: u64,
    }

    impl WorkTask for SleepEcho {
        fn run(self: Box<Self>, env: &TaskEnv) -> Result<TaskEnvelope> {
            let scaled = (self.millis as f64 / env.speed).round() as u64;
            kpn_core::exec::sleep(Duration::from_millis(scaled));
            TaskEnvelope::pack("result", &self.seq)
        }
    }

    fn registry() -> Arc<TaskTypeRegistry> {
        let mut reg = TaskTypeRegistry::new();
        reg.register::<SleepEcho>("SleepEcho");
        reg.into_shared()
    }

    fn run_dynamic(speeds: &[f64], task_millis: Vec<u64>) -> Vec<i64> {
        let net = Network::new();
        let (task_w, task_r) = net.channel();
        let (res_w, res_r) = net.channel();
        let mut it = task_millis.into_iter().enumerate();
        net.add(Producer::new(
            move || match it.next() {
                Some((seq, millis)) => Ok(Some(TaskEnvelope::pack(
                    "SleepEcho",
                    &SleepEcho {
                        seq: seq as i64,
                        millis,
                    },
                )?)),
                None => Ok(None),
            },
            task_w,
        ));
        meta_dynamic(&net, registry(), speeds, task_r, res_w);
        let results = Arc::new(Mutex::new(Vec::new()));
        let sink = results.clone();
        net.add(Consumer::new(res_r, move |env: TaskEnvelope| {
            sink.lock().push(env.unpack::<i64>()?);
            Ok(true)
        }));
        net.run().unwrap();
        let r = results.lock().clone();
        r
    }

    #[test]
    fn merge_pop_publishes_buffered_output_before_it_parks() {
        // The `factor_2node` hang in one deterministic test: the turnstile
        // has written an index token nobody is parked on (so no step
        // boundary publishes it) and goes to wait for the next arrival —
        // which only comes once `Direct` has seen that token.
        struct Recording(Arc<Mutex<Vec<u8>>>);
        impl kpn_core::Sink for Recording {
            fn write_all(&mut self, buf: &[u8]) -> Result<()> {
                self.0.lock().extend_from_slice(buf);
                Ok(())
            }
            fn close(&mut self) {}
            fn reader_waiting(&self) -> kpn_core::ReaderState {
                kpn_core::ReaderState::Busy
            }
        }
        let merge = Arc::new(Merge {
            exec: kpn_core::exec::current_exec().expect("thread executor"),
            state: Mutex::new(MergeState {
                queue: VecDeque::new(),
                waiting: false,
                pumps: 1,
                closed: false,
            }),
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (m, sink) = (merge.clone(), Recording(seen.clone()));
        let turnstile = std::thread::spawn(move || {
            let mut index_out = DataWriter::new(ChannelWriter::from_sink(Box::new(sink)));
            index_out.write_i64(3).unwrap();
            let arrival = m.pop().unwrap();
            drop(index_out);
            arrival
        });
        // `waiting` goes up under the lock, after the publish and before
        // the park: once it is up, the token must be out.
        while !merge.state.lock().waiting {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*seen.lock(), 3i64.to_be_bytes());
        assert!(merge.push((0, vec![9])));
        assert_eq!(turnstile.join().unwrap(), Some((0, vec![9])));
    }

    #[test]
    fn results_restored_to_task_order() {
        // Uneven task durations force out-of-order arrivals at the
        // turnstile; Select must still emit 0,1,2,… (§5: output identical
        // to the static schema).
        let millis = vec![30, 1, 1, 25, 1, 1, 20, 1, 1, 15, 1, 1];
        let n = millis.len() as i64;
        let got = run_dynamic(&[1.0, 1.0, 1.0], millis);
        assert_eq!(got, (0..n).collect::<Vec<i64>>());
    }

    #[test]
    fn heterogeneous_speeds_preserve_order() {
        let millis = vec![10; 16];
        let got = run_dynamic(&[2.0, 0.5, 1.0, 0.25], millis);
        assert_eq!(got, (0..16).collect::<Vec<i64>>());
    }

    #[test]
    fn single_worker_degenerates_to_pipeline() {
        let got = run_dynamic(&[1.0], vec![1, 1, 1, 1]);
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn fewer_tasks_than_workers() {
        let got = run_dynamic(&[1.0, 1.0, 1.0, 1.0, 1.0], vec![5, 5]);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn fast_workers_take_more_tasks() {
        // Instrument by counting per-worker tasks via the index stream:
        // run the schema manually with a tapped index channel.
        let net = Network::new();
        let (task_w, task_r) = net.channel();
        let (res_w, res_r) = net.channel();
        let n_tasks = 24;
        let mut seq = 0i64;
        net.add(Producer::new(
            move || {
                if seq < n_tasks {
                    let t = SleepEcho { seq, millis: 8 };
                    seq += 1;
                    Ok(Some(TaskEnvelope::pack("SleepEcho", &t)?))
                } else {
                    Ok(None)
                }
            },
            task_w,
        ));
        // Worker 0 is 8x faster than worker 1.
        let counts = Arc::new(Mutex::new(vec![0usize; 2]));
        let counts_in = counts.clone();
        let reg = registry();
        meta_dynamic_with(&net, 2, task_r, res_w, move |i, r, w| {
            let speed = if i == 0 { 8.0 } else { 1.0 };
            let counts = counts_in.clone();
            let reg = reg.clone();
            Box::new(kpn_core::FnProcess::new(
                format!("countingworker-{i}"),
                move |_| {
                    let mut input = ObjectReader::new(r);
                    let mut out = ObjectWriter::new(w);
                    let env = TaskEnv { speed };
                    loop {
                        let envelope: TaskEnvelope = match input.read() {
                            Ok(e) => e,
                            Err(Error::Eof) => return Ok(()),
                            Err(e) => return Err(e),
                        };
                        counts.lock()[i] += 1;
                        let task = reg.decode(&envelope)?;
                        out.write(&task.run(&env)?)?;
                    }
                },
            ))
        });
        let results = Arc::new(Mutex::new(Vec::new()));
        let sink = results.clone();
        net.add(Consumer::new(res_r, move |env: TaskEnvelope| {
            sink.lock().push(env.unpack::<i64>()?);
            Ok(true)
        }));
        net.run().unwrap();
        assert_eq!(*results.lock(), (0..n_tasks).collect::<Vec<i64>>());
        let counts = counts.lock();
        assert!(
            counts[0] > counts[1],
            "fast worker should process more tasks: {counts:?}"
        );
    }

    #[test]
    fn early_consumer_stop_terminates_all() {
        let net = Network::new();
        let (task_w, task_r) = net.channel();
        let (res_w, res_r) = net.channel();
        let mut seq = 0i64;
        net.add(Producer::new(
            move || {
                // Effectively unbounded task stream.
                let t = SleepEcho { seq, millis: 1 };
                seq += 1;
                Ok(Some(TaskEnvelope::pack("SleepEcho", &t)?))
            },
            task_w,
        ));
        meta_dynamic(&net, registry(), &[1.0, 1.0, 1.0], task_r, res_w);
        let results = Arc::new(Mutex::new(Vec::new()));
        let sink = results.clone();
        net.add(Consumer::new(res_r, move |env: TaskEnvelope| {
            let mut r = sink.lock();
            r.push(env.unpack::<i64>()?);
            Ok(r.len() < 10)
        }));
        net.run().unwrap();
        assert_eq!(*results.lock(), (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn zero_tasks_terminate_cleanly() {
        // Producer produces nothing: the whole composite must wind down
        // without a single task flowing.
        let got = run_dynamic(&[1.0, 1.0, 1.0], vec![]);
        assert!(got.is_empty());
    }

    #[test]
    fn many_tasks_few_workers_stress() {
        let got = run_dynamic(&[1.0, 2.0], vec![0; 200]);
        assert_eq!(got, (0..200).collect::<Vec<i64>>());
    }
}
