//! `gate_history`: single thread, local, no network. One operation is one
//! gate decision, made the way `rigor check --baseline segment` and
//! `rigor trend` make it but without measuring: `Store::open` of a fixed
//! generated archive of suite-shaped runs, the segment baseline, the
//! regression gate against a generated current run, and the trend report
//! over every benchmark. Level shifts planted at known runs make the
//! verdict known in advance.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rigor_store::{parse_record_line, record_line, Store};

use super::{
    gate_decision, history_points, journal_mib, remove_dir, traced, Decision, Env, OpLog, Workload,
};
use crate::gen::{gate_input, GateInput};
use crate::trace::Tracer;

/// Suite runs in the archive.
const RUNS: usize = 12;

/// Warm-up decisions run in set-up.
const WARMUP_OPS: usize = 2;

/// The set-up workload.
pub struct GateHistory {
    input: GateInput,
    expected: Decision,
    dir: PathBuf,
    work: PathBuf,
    ops: u64,
}

impl GateHistory {
    /// Generates and archives the history, then runs the warm-up decisions.
    ///
    /// # Errors
    ///
    /// Store failures, or a warm-up decision that misses the planted shifts.
    pub fn setup(env: &Env) -> Result<GateHistory, String> {
        let input = gate_input(env.seed, RUNS);
        let dir = env.work.join("history-store");
        let mut store = Store::open(&dir).map_err(|e| e.to_string())?;
        for run in &input.runs {
            store
                .append_record(run.clone())
                .map_err(|e| e.to_string())?;
        }
        drop(store);
        let expected = Decision {
            regressed: input.regressed.clone(),
            alerts: input.alerts.clone(),
            changepoints: input.changepoints,
        };
        let mut gate = GateHistory {
            input,
            expected,
            dir,
            work: env.work.clone(),
            ops: 0,
        };
        for _ in 0..WARMUP_OPS {
            gate.decide(None).map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(gate)
    }

    /// One gate decision, checked against the planted shifts.
    fn decide(&mut self, tracer: Option<&Tracer>) -> Result<Store, String> {
        let op = self.ops;
        self.ops += 1;
        let store = traced(tracer, "store.open", op, || Store::open(&self.dir))
            .map_err(|e| e.to_string())?;
        if store.len() != RUNS {
            return Err(format!(
                "archive holds {} runs, expected {RUNS}",
                store.len()
            ));
        }
        let decision = gate_decision(&store, &self.input.current, tracer, op)?;
        if decision != self.expected {
            return Err(format!("decided {decision:?}, planted {:?}", self.expected));
        }
        Ok(store)
    }

    /// Replays the decision just made through the inner public functions:
    /// every archived run through `parse_record_line` under the
    /// `store.open` span (`Store::open` parses every line), and every
    /// benchmark's history points under the `trend.report` span. Encoding
    /// the lines to parse is no part of a decision; it is timed outside.
    fn inner_pass(&self, tracer: &Tracer, store: &Store, log: &mut OpLog) {
        let op = self.ops - 1;
        let open = tracer.last("store.open");
        for run in store.runs() {
            let line = tracer.outside("record.encode", op, |_| record_line(run));
            tracer.count("record.bytes", line.len() as f64);
            tracer.count("record.lines", 1.0);
            let parsed = tracer.replay("record.parse", open, op, |_| parse_record_line(&line));
            if parsed.as_ref().map(|r| &r.id) != Ok(&run.id) {
                log.fail(format!("run {} does not round-trip", run.seq));
            }
        }
        history_points(store, tracer, op, tracer.last("trend.report"));
    }
}

impl Workload for GateHistory {
    fn run(
        &mut self,
        deadline: Instant,
        log: &mut OpLog,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<(), String> {
        let t = tracer.map(|t| t.as_ref());
        while Instant::now() < deadline {
            let started = Instant::now();
            let decided = self.decide(t);
            let latency = started.elapsed();
            log.op(latency, decided.is_ok());
            match (decided, t) {
                (Err(e), _) => log.fail(e),
                (Ok(store), Some(t)) => {
                    t.count("trace.outer_ns", latency.as_nanos() as f64);
                    let mib = journal_mib(&store.journal_path());
                    t.set("store.archive_mib", mib);
                    t.set("store.opened_mib", mib);
                    self.inner_pass(t, &store, log);
                }
                (Ok(_), None) => {}
            }
        }
        Ok(())
    }

    fn finish(self: Box<Self>) {
        remove_dir(&self.work);
    }
}
