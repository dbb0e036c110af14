//! Shared helpers for the experiment bench targets (`benches/*.rs`).
//!
//! Each bench target regenerates one table or figure of the reconstructed
//! evaluation (see `DESIGN.md` and `EXPERIMENTS.md` at the repo root). The
//! helpers here pin the standard experiment parameters so every target reads
//! the same underlying configuration.

use rigor::ExperimentConfig;
use rigor_workloads::Size;

/// Standard invocation count for full-suite experiments.
pub const EVAL_INVOCATIONS: u32 = 12;

/// Standard iteration count per invocation.
pub const EVAL_ITERATIONS: u32 = 60;

/// Master seed for every experiment (reproducible end-to-end).
pub const EVAL_SEED: u64 = 0x2020_115C; // IISWC'20

/// The interpreter-side standard configuration.
pub fn interp_config() -> ExperimentConfig {
    ExperimentConfig::interp()
        .with_invocations(EVAL_INVOCATIONS)
        .with_iterations(EVAL_ITERATIONS)
        .with_seed(EVAL_SEED)
        .with_size(Size::Default)
}

/// The JIT-side standard configuration.
pub fn jit_config() -> ExperimentConfig {
    ExperimentConfig::jit()
        .with_invocations(EVAL_INVOCATIONS)
        .with_iterations(EVAL_ITERATIONS)
        .with_seed(EVAL_SEED)
        .with_size(Size::Default)
}

/// Builds a runner for a fixed harness config (shape validity asserted).
pub fn runner(cfg: &ExperimentConfig) -> rigor::Runner {
    rigor::Runner::new(cfg.clone()).expect("valid config")
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, what: &str) {
    println!();
    println!("=== {id}: {what} ===");
    println!(
        "(invocations={EVAL_INVOCATIONS}, iterations={EVAL_ITERATIONS}, seed={EVAL_SEED:#x}, size=default)"
    );
    println!();
}

/// A fixed-width ASCII bar for in-terminal "figures".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if !(value.is_finite() && max > 0.0) {
        return String::new();
    }
    let filled = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_share_seed_and_shape() {
        let a = interp_config();
        let b = jit_config();
        assert_eq!(a.experiment_seed, b.experiment_seed);
        assert_eq!(a.invocations, b.invocations);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(f64::NAN, 10.0, 10), "");
    }
}
