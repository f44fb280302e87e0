//! Stock task types: the factorization tasks of §5.2 and the synthetic
//! calibrated tasks the evaluation harness uses to model the paper's
//! heterogeneous cluster.

use crate::task::{TaskEnv, TaskEnvelope, WorkTask};
use kpn_bignum::{search_range, BigUint};
use kpn_core::Result;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Registry names for the stock tasks.
pub const FACTOR_TASK: &str = "kpn.FactorTask";
/// Registry name for [`SyntheticTask`].
pub const SYNTHETIC_TASK: &str = "kpn.SyntheticTask";
/// Registry name result envelopes use (results are plain payloads).
pub const RESULT: &str = "kpn.Result";

/// One unit of the weak-RSA-key search (§5.2): test the even differences
/// in `[d_start, d_end)` against `n` — the paper's tasks cover 32 even
/// values each.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FactorTask {
    /// The modulus being attacked.
    pub n: BigUint,
    /// First difference to test.
    pub d_start: u64,
    /// One past the last difference to test.
    pub d_end: u64,
}

impl WorkTask for FactorTask {
    fn run(self: Box<Self>, _env: &TaskEnv) -> Result<TaskEnvelope> {
        let outcome = search_range(&self.n, self.d_start, self.d_end);
        TaskEnvelope::pack(RESULT, &outcome)
    }
}

/// Splits the search for `n`'s factor into `task_count` tasks of
/// `batch` even differences each (the paper: 2048 tasks × 32 differences).
pub fn factor_task_stream(
    n: BigUint,
    task_count: u64,
    batch: u64,
) -> impl FnMut() -> Result<Option<TaskEnvelope>> + Send + 'static {
    let mut next = 0u64;
    move || {
        if next >= task_count {
            return Ok(None);
        }
        let d_start = next * 2 * batch;
        let d_end = d_start + 2 * batch;
        next += 1;
        Ok(Some(TaskEnvelope::pack(
            FACTOR_TASK,
            &FactorTask {
                n: n.clone(),
                d_start,
                d_end,
            },
        )?))
    }
}

/// A calibrated task that occupies a worker for `cost_units / speed`
/// milliseconds of wall-clock time. This is the substitution (documented
/// in DESIGN.md) for running the real factorization on the paper's 34
/// physical CPUs: because the tasks are sleep-bound, one machine can
/// faithfully emulate many virtual CPUs of different speeds, and the
/// *scheduling* behaviour under static vs dynamic load balancing — the
/// object of Table 2 and Figures 19/20 — is preserved exactly. The sleep
/// is the executor's (`kpn_core::exec::sleep`): on a pool it parks the
/// task, not the pool thread, so one thread emulates many virtual CPUs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticTask {
    /// Task sequence number (returned in the result envelope).
    pub seq: u64,
    /// Work amount in milliseconds-at-speed-1.
    pub cost_units: f64,
}

impl WorkTask for SyntheticTask {
    fn run(self: Box<Self>, env: &TaskEnv) -> Result<TaskEnvelope> {
        let millis = self.cost_units / env.speed;
        if millis > 0.0 {
            kpn_core::exec::sleep(Duration::from_secs_f64(millis / 1000.0));
        }
        TaskEnvelope::pack(RESULT, &self.seq)
    }
}

/// A stream of `count` synthetic tasks of uniform cost.
pub fn synthetic_task_stream(
    count: u64,
    cost_units: f64,
) -> impl FnMut() -> Result<Option<TaskEnvelope>> + Send + 'static {
    let mut next = 0u64;
    move || {
        if next >= count {
            return Ok(None);
        }
        let seq = next;
        next += 1;
        Ok(Some(TaskEnvelope::pack(
            SYNTHETIC_TASK,
            &SyntheticTask { seq, cost_units },
        )?))
    }
}

/// Registers the stock task types.
pub fn register_stock_tasks(registry: &mut crate::task::TaskTypeRegistry) {
    registry.register::<FactorTask>(FACTOR_TASK);
    registry.register::<SyntheticTask>(SYNTHETIC_TASK);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskTypeRegistry;
    use kpn_bignum::{make_weak_key, SearchOutcome};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn factor_task_finds_planted_factor() {
        let mut rng = StdRng::seed_from_u64(7);
        // d = 200 lands in task 3 when batch = 32 (d range [192, 256)).
        let key = make_weak_key(64, 200, &mut rng);
        let task = Box::new(FactorTask {
            n: key.n.clone(),
            d_start: 192,
            d_end: 256,
        });
        let result = task.run(&TaskEnv::default()).unwrap();
        match result.unpack::<SearchOutcome>().unwrap() {
            SearchOutcome::Found { p, d } => {
                assert_eq!(p, key.p);
                assert_eq!(d, 200);
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn factor_stream_covers_contiguous_ranges() {
        let mut rng = StdRng::seed_from_u64(8);
        let key = make_weak_key(64, 0, &mut rng);
        let mut stream = factor_task_stream(key.n, 4, 32);
        let mut expected_start = 0;
        let mut produced = 0;
        while let Some(env) = stream().unwrap() {
            let t: FactorTask = env.unpack().unwrap();
            assert_eq!(t.d_start, expected_start);
            assert_eq!(t.d_end - t.d_start, 64); // 32 even differences
            expected_start = t.d_end;
            produced += 1;
        }
        assert_eq!(produced, 4);
    }

    #[test]
    fn synthetic_task_scales_with_speed() {
        let t = Box::new(SyntheticTask {
            seq: 1,
            cost_units: 20.0,
        });
        let start = std::time::Instant::now();
        t.run(&TaskEnv { speed: 2.0 }).unwrap();
        let took = start.elapsed();
        assert!(took >= Duration::from_millis(9), "took {took:?}");
        assert!(took < Duration::from_millis(100), "took {took:?}");
    }

    #[test]
    fn stock_registration() {
        let mut reg = TaskTypeRegistry::new();
        register_stock_tasks(&mut reg);
        let env = TaskEnvelope::pack(
            SYNTHETIC_TASK,
            &SyntheticTask {
                seq: 0,
                cost_units: 0.0,
            },
        )
        .unwrap();
        assert!(reg.decode(&env).is_ok());
    }
}
