//! The Sieve of Eratosthenes processes (§3.3, Figures 7/8): the canonical
//! *self-modifying* process network, treated by Kahn and MacQueen \[11\].
//!
//! `Sift` reads a prime from its input, emits it, then inserts a new
//! `Modulo` filter **ahead of itself** in the running graph: the Modulo
//! takes over Sift's previous input channel (reading "precisely where the
//! Sift process left off; data elements are neither lost nor repeated") and
//! Sift continues from a freshly created channel fed by the Modulo. This is
//! the iterative definition of Figure 8.

use crate::channel::{ChannelReader, ChannelWriter};
use crate::error::Result;
use crate::process::{Iterative, ProcessCtx};
use crate::stream::{DataReader, DataWriter};
use crate::topology::ProcessTag;

/// Filters out multiples of a constant from an `i64` stream (Figure 7).
pub struct Modulo {
    divisor: i64,
    input: DataReader,
    out: DataWriter,
    tag: ProcessTag,
}

impl Modulo {
    /// Passes through values not divisible by `divisor`.
    pub fn new(divisor: i64, input: ChannelReader, out: ChannelWriter) -> Self {
        let tag = ProcessTag::new(format!("Modulo({divisor})"));
        input.attach(&tag);
        input.declare_item::<i64>(8);
        out.attach(&tag);
        out.declare_item::<i64>(8);
        // No rate annotations: Modulo's output rate is data-dependent
        // (multiples of the divisor are dropped), so it is not SDF.
        Modulo {
            divisor,
            input: DataReader::new(input),
            out: DataWriter::new(out),
            tag,
        }
    }
}

impl Iterative for Modulo {
    fn name(&self) -> String {
        format!("Modulo({})", self.divisor)
    }
    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }
    fn step(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        let v = self.input.read_i64()?;
        if v % self.divisor != 0 {
            self.out.write_i64(v)?;
        }
        Ok(())
    }
}

/// The self-modifying sieve head (Figure 8). Each step:
///
/// 1. reads the next prime from its current input,
/// 2. writes it to the output,
/// 3. creates a fresh channel, spawns `Modulo(prime)` between the old input
///    and that channel, and adopts the channel's read end as its new input.
pub struct Sift {
    input: Option<ChannelReader>,
    out: DataWriter,
    tag: ProcessTag,
}

impl Sift {
    /// A sieve head reading candidates from `input` and emitting primes on
    /// `out`.
    pub fn new(input: ChannelReader, out: ChannelWriter) -> Self {
        let tag = ProcessTag::new("Sift");
        input.attach(&tag);
        input.declare_item::<i64>(8);
        out.attach(&tag);
        out.declare_item::<i64>(8);
        Sift {
            input: Some(input),
            out: DataWriter::new(out),
            tag,
        }
    }
}

impl Iterative for Sift {
    fn name(&self) -> String {
        "Sift".into()
    }

    fn lint_tag(&self) -> Option<&ProcessTag> {
        Some(&self.tag)
    }

    fn step(&mut self, ctx: &ProcessCtx) -> Result<()> {
        let mut current = DataReader::new(self.input.take().expect("input present"));
        let prime = match current.read_i64() {
            Ok(p) => p,
            Err(e) => {
                // Put the (exhausted) input back so on_stop closes it.
                self.input = Some(current.into_inner());
                return Err(e);
            }
        };
        self.out.write_i64(prime)?;
        // Insert Modulo(prime) ahead of ourselves (Figure 8's step method).
        let (fresh_w, fresh_r) = ctx.channel();
        // Adopt the fresh read end before the spawn-time lint re-check, so
        // the reconfigured topology is fully attributed when it runs.
        fresh_r.attach(&self.tag);
        fresh_r.declare_item::<i64>(8);
        ctx.spawn_iterative(Modulo::new(prime, current.into_inner(), fresh_w));
        self.input = Some(fresh_r);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::stdlib::{Collect, Sequence};
    use std::sync::{Arc, Mutex};

    const PRIMES_UNDER_100: [i64; 25] = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89,
        97,
    ];

    #[test]
    fn modulo_filters_multiples() {
        let net = Network::new();
        let (iw, ir) = net.channel();
        let (ow, or) = net.channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add(Sequence::new(1, 10, iw));
        net.add(Modulo::new(3, ir, ow));
        net.add(Collect::new(or, out.clone()));
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), vec![1, 2, 4, 5, 7, 8, 10]);
    }

    #[test]
    fn sieve_all_primes_below_100() {
        // §3.4 mode 1: limit the Sequence; every datum is consumed, all
        // processes terminate after draining.
        let net = Network::new();
        let (sw, sr) = net.channel();
        let (pw, pr) = net.channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add(Sequence::new(2, 99, sw)); // 2..=100
        net.add(Sift::new(sr, pw));
        net.add(Collect::new(pr, out.clone()));
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), PRIMES_UNDER_100.to_vec());
    }

    #[test]
    fn sieve_first_25_primes() {
        // §3.4 mode 2: limit the sink; the cascade terminates upstream
        // processes "almost immediately" via WriteClosed exceptions.
        let net = Network::new();
        let (sw, sr) = net.channel_with_capacity(256);
        let (pw, pr) = net.channel_with_capacity(256);
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add(Sequence::unbounded(2, sw));
        net.add(Sift::new(sr, pw));
        net.add(Collect::new(pr, out.clone()).with_limit(25));
        net.run().unwrap();
        assert_eq!(*out.lock().unwrap(), PRIMES_UNDER_100.to_vec());
    }

    #[test]
    fn sieve_spawns_one_modulo_per_prime() {
        let net = Network::new();
        let (sw, sr) = net.channel();
        let (pw, pr) = net.channel();
        let out = Arc::new(Mutex::new(Vec::new()));
        net.add(Sequence::new(2, 29, sw)); // up to 30: primes 2..29 (10 of them)
        net.add(Sift::new(sr, pw));
        net.add(Collect::new(pr, out.clone()));
        let report = net.run().unwrap();
        let primes = out.lock().unwrap().len();
        assert_eq!(primes, 10);
        // Sequence + Sift + Collect + one Modulo per prime.
        assert_eq!(report.processes_run, 3 + primes);
    }
}
