//! Deterministic fault injection: a seeded plan that decides, per invocation
//! attempt, whether to crash the worker.
//!
//! The harness's fault-tolerance machinery (retry, quarantine, checkpointing)
//! is itself code that can rot; [`FaultPlan`] exists so that machinery is
//! exercised on demand — in tests and in the CLI's `self-test` subcommand —
//! without depending on a workload that happens to misbehave. Decisions are
//! a pure function of `(plan seed, benchmark, invocation, attempt)`, so a
//! faulty experiment is as reproducible as a clean one: the same plan
//! injects the same faults at the same places every run, which is exactly
//! what makes checkpoint/resume testable under fire.

use minipy::invocation_seed;

/// A seeded, deterministic fault-injection plan: each invocation attempt
/// panics its worker (exercising the panic guard and the retry path) with
/// probability `panic_rate`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the plan's decision stream (independent of workload seeds).
    pub seed: u64,
    /// Probability in `[0, 1]` that an attempt panics.
    pub panic_rate: f64,
}

impl FaultPlan {
    /// A plan with the given seed that injects nothing.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_rate: 0.0,
        }
    }

    /// Sets the panic rate (builder style).
    pub fn with_panic_rate(mut self, rate: f64) -> FaultPlan {
        self.panic_rate = rate;
        self
    }

    /// Whether one invocation attempt panics. Pure and deterministic: same
    /// arguments, same decision, every time.
    pub fn panics(&self, benchmark: &str, invocation: u32, attempt: u32) -> bool {
        // Domain-separate the plan stream from workload seed derivation so a
        // fault plan never correlates with the timings it perturbs.
        let h = invocation_seed(self.seed ^ 0xFA01_7E57_FA01_7E57, benchmark, invocation);
        let mut z = h ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        u < self.panic_rate
    }
}

/// What, if anything, to inject into one network exchange with the shared
/// archive service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Serve the exchange normally.
    None,
    /// Refuse the connection outright (close before reading the request).
    Refuse,
    /// Read the request, then drop the connection without responding —
    /// the client cannot know whether the server applied the write, which
    /// is exactly why uploads must be idempotent.
    Drop,
    /// Accept the request but stall before responding, long enough to trip
    /// the client's per-request read timeout.
    Stall,
    /// Respond with HTTP 500 (a healthy transport, a degraded server).
    ServerError,
    /// Respond with bytes that are not HTTP at all (a confused proxy, a
    /// port collision) — exercises the client's response validation.
    Garbage,
}

/// A seeded, deterministic *network*-fault plan, the transport-layer twin
/// of [`FaultPlan`].
///
/// Decisions are a pure function of `(plan seed, exchange index)`, where
/// the exchange index counts connections accepted by the fault-injecting
/// listener — so a flaky-server scenario replays the same faults at the
/// same exchanges every run. Rates are evaluated in order
/// refuse → drop → stall → 5xx → garbage against a single uniform draw.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Seed of the plan's decision stream.
    pub seed: u64,
    /// Probability a connection is refused.
    pub refuse_rate: f64,
    /// Probability a connection is dropped after the request is read.
    pub drop_rate: f64,
    /// Probability a response is stalled past the client timeout.
    pub stall_rate: f64,
    /// Probability of an HTTP 500 response.
    pub error_rate: f64,
    /// Probability of a non-HTTP garbage response.
    pub garbage_rate: f64,
}

impl NetFaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn new(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            refuse_rate: 0.0,
            drop_rate: 0.0,
            stall_rate: 0.0,
            error_rate: 0.0,
            garbage_rate: 0.0,
        }
    }

    /// Sets the connection-refused rate (builder style).
    pub fn with_refuse_rate(mut self, rate: f64) -> NetFaultPlan {
        self.refuse_rate = rate;
        self
    }

    /// Sets the dropped-connection rate (builder style).
    pub fn with_drop_rate(mut self, rate: f64) -> NetFaultPlan {
        self.drop_rate = rate;
        self
    }

    /// Sets the stalled-response rate (builder style).
    pub fn with_stall_rate(mut self, rate: f64) -> NetFaultPlan {
        self.stall_rate = rate;
        self
    }

    /// Sets the HTTP-500 rate (builder style).
    pub fn with_error_rate(mut self, rate: f64) -> NetFaultPlan {
        self.error_rate = rate;
        self
    }

    /// Sets the garbage-response rate (builder style).
    pub fn with_garbage_rate(mut self, rate: f64) -> NetFaultPlan {
        self.garbage_rate = rate;
        self
    }

    /// The plan's decision for one exchange. Pure and deterministic: same
    /// seed, same exchange index, same fault, every time.
    pub fn decide(&self, exchange: u64) -> NetFault {
        // A distinct domain-separation constant keeps the network stream
        // independent of both workload seeds and the invocation-fault plan.
        let mut z =
            self.seed ^ 0x5E4E_7FA0_17E5_75E4 ^ exchange.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = self.refuse_rate;
        if u < edge {
            return NetFault::Refuse;
        }
        edge += self.drop_rate;
        if u < edge {
            return NetFault::Drop;
        }
        edge += self.stall_rate;
        if u < edge {
            return NetFault::Stall;
        }
        edge += self.error_rate;
        if u < edge {
            return NetFault::ServerError;
        }
        edge += self.garbage_rate;
        if u < edge {
            return NetFault::Garbage;
        }
        NetFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(7).with_panic_rate(0.2);
        for inv in 0..10 {
            for attempt in 0..3 {
                assert_eq!(
                    plan.panics("sieve", inv, attempt),
                    plan.panics("sieve", inv, attempt)
                );
            }
        }
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::new(1);
        for inv in 0..50 {
            assert!(!plan.panics("x", inv, 0));
        }
    }

    #[test]
    fn full_panic_rate_always_panics() {
        let plan = FaultPlan::new(1).with_panic_rate(1.0);
        for inv in 0..50 {
            assert!(plan.panics("x", inv, 0));
        }
    }

    #[test]
    fn rates_roughly_match_frequencies() {
        let plan = FaultPlan::new(3).with_panic_rate(0.5);
        let panics = (0..1000).filter(|&i| plan.panics("bench", i, 0)).count();
        assert!(
            (350..=650).contains(&panics),
            "expected ~500 panics, got {panics}"
        );
    }

    #[test]
    fn attempts_get_independent_decisions() {
        // A fault on attempt 0 must not force the same fault on attempt 1,
        // otherwise retries could never succeed under injection.
        let plan = FaultPlan::new(9).with_panic_rate(0.5);
        let differs = (0..100).any(|i| plan.panics("b", i, 0) != plan.panics("b", i, 1));
        assert!(differs);
    }

    #[test]
    fn net_decisions_are_deterministic_and_zero_rates_pass() {
        let plan = NetFaultPlan::new(11)
            .with_refuse_rate(0.2)
            .with_drop_rate(0.2)
            .with_garbage_rate(0.2);
        for x in 0..50 {
            assert_eq!(plan.decide(x), plan.decide(x));
        }
        let clean = NetFaultPlan::new(11);
        assert!((0..50).all(|x| clean.decide(x) == NetFault::None));
    }

    #[test]
    fn net_rates_roughly_match_frequencies() {
        let plan = NetFaultPlan::new(5).with_drop_rate(0.5);
        let drops = (0..1000)
            .filter(|&x| plan.decide(x) == NetFault::Drop)
            .count();
        assert!(
            (350..=650).contains(&drops),
            "expected ~500 drops, got {drops}"
        );
    }

    #[test]
    fn net_rates_are_evaluated_in_order() {
        // With rates summing to 1, every exchange gets *some* fault, and a
        // full refuse rate shadows the rest.
        let all = NetFaultPlan::new(2)
            .with_refuse_rate(0.25)
            .with_drop_rate(0.25)
            .with_stall_rate(0.25)
            .with_error_rate(0.25);
        assert!((0..100).all(|x| all.decide(x) != NetFault::None));
        let refuse = NetFaultPlan::new(2)
            .with_refuse_rate(1.0)
            .with_drop_rate(1.0);
        assert!((0..100).all(|x| refuse.decide(x) == NetFault::Refuse));
    }

    #[test]
    fn net_streams_differ_across_seeds() {
        let a = NetFaultPlan::new(1).with_drop_rate(0.5);
        let b = NetFaultPlan::new(2).with_drop_rate(0.5);
        assert!((0..100).any(|x| a.decide(x) != b.decide(x)));
    }
}
