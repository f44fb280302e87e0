//! Executing an SDF graph on the KPN runtime.
//!
//! Each actor becomes one KPN process whose `step` is one firing: read
//! `cons` tokens from every input edge, call the actor function, write
//! `prod` tokens to every output edge. Channels get the **exact**
//! capacities computed by the static schedule, so the run is provably
//! deadlock-free with zero monitor interventions — the static complement
//! of Parks' dynamic buffer growth (validated by the tests below).

use crate::graph::{ActorId, SdfGraph};
use crate::schedule::Schedule;
use kpn_core::{
    ChannelReader, ChannelWriter, DataReader, DataWriter, Error, Iterative, Network, NetworkReport,
    ProcessCtx, Result,
};
use std::collections::HashMap;

/// One firing of an SDF actor: `inputs[i]` holds exactly the consumed
/// tokens of the i-th connected input edge (in graph insertion order);
/// push produced tokens for each output edge into `outputs`.
pub type FireFn = Box<dyn FnMut(&[Vec<i64>], &mut [Vec<i64>]) -> Result<()> + Send + 'static>;

/// A runnable actor body bound to an [`ActorId`].
pub struct SdfActor {
    /// The actor this body implements.
    pub id: ActorId,
    /// The firing function.
    pub fire: FireFn,
}

impl SdfActor {
    /// Binds a firing closure to an actor.
    pub fn new(
        id: ActorId,
        fire: impl FnMut(&[Vec<i64>], &mut [Vec<i64>]) -> Result<()> + Send + 'static,
    ) -> Self {
        SdfActor {
            id,
            fire: Box::new(fire),
        }
    }
}

struct ActorProcess {
    name: String,
    inputs: Vec<(DataReader, u64)>,
    outputs: Vec<(DataWriter, u64)>,
    fire: FireFn,
    firings: Option<u64>,
    in_buf: Vec<Vec<i64>>,
    out_buf: Vec<Vec<i64>>,
}

impl Iterative for ActorProcess {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn limit(&self) -> Option<u64> {
        self.firings
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        for (slot, (reader, rate)) in self.in_buf.iter_mut().zip(self.inputs.iter_mut()) {
            slot.clear();
            for _ in 0..*rate {
                slot.push(reader.read_i64()?);
            }
        }
        for slot in &mut self.out_buf {
            slot.clear();
        }
        (self.fire)(&self.in_buf, &mut self.out_buf)?;
        for (slot, (writer, rate)) in self.out_buf.iter().zip(self.outputs.iter_mut()) {
            if slot.len() != *rate as usize {
                return Err(Error::Graph(format!(
                    "{}: produced {} tokens, rate is {rate}",
                    self.name,
                    slot.len()
                )));
            }
            for v in slot {
                writer.write_i64(*v)?;
            }
        }
        Ok(())
    }
}

/// Runs the SDF graph for `periods` schedule periods on a KPN network with
/// the schedule's exact buffer bounds. Returns the network report — the
/// caller can assert `report.monitor.capacity_grows == 0` to confirm the static
/// bounds sufficed.
pub fn execute(
    graph: &SdfGraph,
    schedule: &Schedule,
    actors: Vec<SdfActor>,
    periods: u64,
) -> Result<NetworkReport> {
    let n = graph.actor_count();
    if actors.len() != n {
        return Err(Error::Graph(format!(
            "need {n} actor bodies, got {}",
            actors.len()
        )));
    }
    let mut bodies: HashMap<usize, FireFn> = HashMap::new();
    for a in actors {
        if bodies.insert(a.id.index(), a.fire).is_some() {
            return Err(Error::Graph(format!(
                "duplicate body for actor {}",
                a.id.index()
            )));
        }
    }

    let net = Network::new();
    // One channel per edge, capacity = bound (tokens) × 8 bytes, plus the
    // initial delay tokens (value 0, the SDF convention).
    let mut edge_writers: Vec<Option<ChannelWriter>> = Vec::new();
    let mut edge_readers: Vec<Option<ChannelReader>> = Vec::new();
    for (i, e) in graph.edges().iter().enumerate() {
        let capacity = (schedule.edge_bounds[i].max(1) as usize) * 8;
        let (mut w, r) = net.channel_with_capacity(capacity);
        for _ in 0..e.delays {
            w.write_all(&0i64.to_be_bytes())?;
        }
        edge_writers.push(Some(w));
        edge_readers.push(Some(r));
    }

    for actor in graph.actors() {
        let a = actor.index();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for (i, e) in graph.edges().iter().enumerate() {
            if e.to == a {
                inputs.push((
                    DataReader::new(edge_readers[i].take().expect("single consumer")),
                    e.cons,
                ));
            }
        }
        for (i, e) in graph.edges().iter().enumerate() {
            if e.from == a {
                outputs.push((
                    DataWriter::new(edge_writers[i].take().expect("single producer")),
                    e.prod,
                ));
            }
        }
        let in_buf = vec![Vec::new(); inputs.len()];
        let out_buf = vec![Vec::new(); outputs.len()];
        net.add(ActorProcess {
            name: graph.name(actor).to_string(),
            inputs,
            outputs,
            fire: bodies.remove(&a).expect("validated above"),
            firings: Some(schedule.repetitions[a] * periods),
            in_buf,
            out_buf,
        });
    }
    net.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn upsampler_chain_runs_with_exact_bounds() {
        // src -2/3-> interp -1/1-> sink, 4 periods.
        let mut g = SdfGraph::new();
        let src = g.actor("src");
        let interp = g.actor("interp");
        let sink = g.actor("sink");
        g.edge(src, interp, 2, 3);
        g.edge(interp, sink, 1, 1);
        let s = Schedule::build(&g).unwrap();
        assert_eq!(s.repetitions, vec![3, 2, 2]);

        let collected = Arc::new(Mutex::new(Vec::new()));
        let sink_out = collected.clone();
        let mut next = 0i64;
        let report = execute(
            &g,
            &s,
            vec![
                SdfActor::new(src, move |_ins, outs| {
                    outs[0].push(next);
                    outs[0].push(next + 1);
                    next += 2;
                    Ok(())
                }),
                SdfActor::new(interp, |ins, outs| {
                    // Average the 3 consumed tokens into 1.
                    let sum: i64 = ins[0].iter().sum();
                    outs[0].push(sum / 3);
                    Ok(())
                }),
                SdfActor::new(sink, move |ins, _outs| {
                    sink_out.lock().unwrap().extend_from_slice(&ins[0]);
                    Ok(())
                }),
            ],
            4,
        )
        .unwrap();
        // src fired 12 times → 24 tokens → interp fired 8 → 8 results.
        let got = collected.lock().unwrap();
        assert_eq!(got.len(), 8);
        // Averages of consecutive triples of 0,1,2,...
        assert_eq!(got[0], 1); // avg(0,1,2)
        assert_eq!(got[1], 4); // avg(3,4,5)
        // The static bounds must have sufficed: no monitor growth.
        assert_eq!(report.monitor.capacity_grows, 0, "static bounds violated");
    }

    #[test]
    fn feedback_accumulator() {
        // acc -1/1-> acc (self-loop with 1 delay) models an accumulator;
        // tap the running sum via a side edge to a sink.
        let mut g = SdfGraph::new();
        let acc = g.actor("acc");
        let sink = g.actor("sink");
        g.edge_with_delays(acc, acc, 1, 1, 1);
        g.edge(acc, sink, 1, 1);
        let s = Schedule::build(&g).unwrap();
        let sums = Arc::new(Mutex::new(Vec::new()));
        let out = sums.clone();
        let report = execute(
            &g,
            &s,
            vec![
                SdfActor::new(acc, |ins, outs| {
                    let state = ins[0][0];
                    let next = state + 1; // count firings
                    outs[0].push(next); // back around the loop
                    outs[1].push(next); // tap
                    Ok(())
                }),
                SdfActor::new(sink, move |ins, _| {
                    out.lock().unwrap().push(ins[0][0]);
                    Ok(())
                }),
            ],
            10,
        )
        .unwrap();
        assert_eq!(*sums.lock().unwrap(), (1..=10).collect::<Vec<i64>>());
        assert_eq!(report.monitor.capacity_grows, 0);
    }

    #[test]
    fn wrong_production_rate_is_reported() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 2, 2);
        let s = Schedule::build(&g).unwrap();
        let result = execute(
            &g,
            &s,
            vec![
                SdfActor::new(a, |_, outs| {
                    outs[0].push(1); // rate says 2!
                    Ok(())
                }),
                SdfActor::new(b, |_, _| Ok(())),
            ],
            1,
        );
        assert!(result.is_err());
    }

    #[test]
    fn missing_bodies_rejected() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 1, 1);
        let s = Schedule::build(&g).unwrap();
        assert!(execute(&g, &s, vec![SdfActor::new(a, |_, _| Ok(()))], 1).is_err());
    }

    #[test]
    fn multirate_diamond_end_to_end() {
        //        ┌-2/1-> up ─3/1─┐
        // src ───┤               ├-> join -> (counts checked)
        //        └-1/1-> thru ─1/2┘
        // Rates chosen so q = [1, 2, 1, ...]: verify via schedule, then run.
        let mut g = SdfGraph::new();
        let src = g.actor("src");
        let up = g.actor("up");
        let thru = g.actor("thru");
        let join = g.actor("join");
        g.edge(src, up, 2, 1); // src:2 out, up consumes 1 → q_up = 2 q_src
        g.edge(src, thru, 2, 2); // thru consumes 2 → q_thru = q_src
        g.edge(up, join, 1, 2); // join consumes 2 → q_join = q_up/2 = q_src
        g.edge(thru, join, 1, 1); // consistency: q_thru = q_join ✓
        let s = Schedule::build(&g).unwrap();
        assert_eq!(s.repetitions, vec![1, 2, 1, 1]);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let out = seen.clone();
        let report = execute(
            &g,
            &s,
            vec![
                SdfActor::new(src, |_, outs| {
                    outs[0].extend_from_slice(&[10, 20]);
                    outs[1].extend_from_slice(&[1, 2]);
                    Ok(())
                }),
                SdfActor::new(up, |ins, outs| {
                    outs[0].push(ins[0][0] * 2);
                    Ok(())
                }),
                SdfActor::new(thru, |ins, outs| {
                    outs[0].push(ins[0][0] + ins[0][1]);
                    Ok(())
                }),
                SdfActor::new(join, move |ins, _| {
                    out.lock().unwrap().push((ins[0].to_vec(), ins[1].to_vec()));
                    Ok(())
                }),
            ],
            3,
        )
        .unwrap();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], (vec![20, 40], vec![3]));
        assert_eq!(report.monitor.capacity_grows, 0);
    }
}
