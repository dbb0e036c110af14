//! The virtual clock.
//!
//! Every observable cost in MiniPy — opcode execution, allocation, dict probe
//! work, GC pauses, JIT compilation, injected OS jitter — advances this clock.
//! Experiments therefore measure *virtual nanoseconds*: fully reproducible
//! given the seeds, yet statistically shaped like real Python timings.

/// A monotonically increasing virtual clock, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VirtualClock {
    ns: f64,
}

impl VirtualClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        VirtualClock { ns: 0.0 }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.ns
    }

    /// Advances the clock by `delta_ns` (negative deltas are ignored).
    pub fn advance(&mut self, delta_ns: f64) {
        if delta_ns > 0.0 {
            self.ns += delta_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut c = VirtualClock::new();
        c.advance(10.0);
        c.advance(5.5);
        assert!((c.now_ns() - 15.5).abs() < 1e-12);
    }

    #[test]
    fn negative_deltas_ignored() {
        let mut c = VirtualClock::new();
        c.advance(10.0);
        c.advance(-100.0);
        assert_eq!(c.now_ns(), 10.0);
    }
}
