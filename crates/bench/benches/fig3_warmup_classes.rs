//! Figure 3 — Warmup-class breakdown per engine.
//!
//! Classifies every per-invocation iteration series of every benchmark
//! (flat / warmup / slowdown / no-steady-state) and prints the per-engine
//! histogram plus the per-benchmark verdicts. Expected shape: the interpreter
//! is overwhelmingly flat; the JIT is mostly warmup with a no-steady-state
//! tail driven by the adversarial workloads.

use rigor::{aggregate_classes, Table, WarmupClass, WarmupClassifier};
use rigor_bench::{banner, bar, interp_config, jit_config, runner};
use rigor_workloads::suite;

fn main() {
    banner("Figure 3", "warmup classification breakdown per engine");
    let classifier = WarmupClassifier::default();
    let interp_cfg = interp_config().with_iterations(50);
    let jit_cfg = jit_config().with_iterations(50);

    let mut table = Table::new(vec!["benchmark", "interp verdict", "jit verdict"]);
    let mut hist: Vec<(&str, [usize; 4])> = vec![("interp", [0; 4]), ("jit", [0; 4])];
    let idx = |c: WarmupClass| match c {
        WarmupClass::Flat => 0,
        WarmupClass::Warmup => 1,
        WarmupClass::Slowdown => 2,
        WarmupClass::NoSteadyState => 3,
    };

    for w in suite() {
        let mut verdicts = Vec::new();
        for (engine_ix, cfg) in [&interp_cfg, &jit_cfg].into_iter().enumerate() {
            let m = runner(cfg).measure(&w).expect("run");
            let classes: Vec<WarmupClass> = m.series().map(|s| classifier.classify(s)).collect();
            for &c in &classes {
                hist[engine_ix].1[idx(c)] += 1;
            }
            verdicts.push(aggregate_classes(&classes).expect("non-empty").label());
        }
        table.row(vec![
            w.name.to_string(),
            verdicts[0].clone(),
            verdicts[1].clone(),
        ]);
    }
    println!("{table}");

    println!("Per-invocation class histogram (each cell = invocation series):");
    for (engine, counts) in &hist {
        let total: usize = counts.iter().sum();
        println!("  {engine}:");
        for (i, label) in ["flat", "warmup", "slowdown", "no-steady-state"]
            .iter()
            .enumerate()
        {
            let frac = counts[i] as f64 / total as f64;
            println!(
                "    {label:<16} {:>5.1}%  {}",
                frac * 100.0,
                bar(frac, 1.0, 40)
            );
        }
    }
}
