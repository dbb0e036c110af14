//! # MiniPy — a simulated Python for benchmarking-methodology research
//!
//! MiniPy is the workload substrate of the `rigor` workspace: a from-scratch
//! dynamic language with Python-like syntax and semantics, executed by two
//! engines over a **virtual clock**:
//!
//! * an **interpreter engine** shaped like CPython (switch dispatch, constant
//!   pools, local slots, global dict, mark-sweep GC), and
//! * a **tracing-JIT engine** shaped like PyPy (back-edge profiling, hot-loop
//!   trace compilation with visible compile pauses, type guards and
//!   deoptimization).
//!
//! Every cost — opcode execution, allocation, dict probe, GC pause, JIT
//! compile, injected OS jitter — advances the virtual clock, so measured
//! "times" are reproducible given the seeds while exhibiting the statistical
//! phenomena real Python benchmarking must contend with: JIT warmup, hash-seed
//! and layout (ASLR-like) inter-invocation variation, autocorrelated GC noise.
//!
//! ## Quick example
//!
//! ```rust
//! use minipy::{Session, VmConfig};
//!
//! # fn main() -> Result<(), minipy::MpError> {
//! let source = "\
//! N = 100
//! def run():
//!     s = 0
//!     for i in range(N):
//!         s += i * i
//!     return s
//! ";
//! let mut session = Session::start(source, /* seed */ 1, VmConfig::interp())?;
//! let iteration = session.run_iteration()?;
//! assert!(iteration.virtual_ns > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod bytecode;
pub mod clock;
pub mod compiler;
pub mod cost;
pub mod dict;
pub mod error;
pub mod frame;
pub mod gc;
pub mod heap;
mod interp;
pub mod jit;
pub mod noise;
pub mod parser;
pub mod session;
pub mod token;
pub mod value;
pub mod vm;

pub use bytecode::Program;
pub use compiler::compile;
pub use cost::CostModel;
pub use error::{MpError, MpResult, RuntimeErrorKind};
pub use frame::DynCounters;
pub use jit::{JitConfig, JitMode};
pub use noise::NoiseConfig;
pub use parser::parse;
pub use session::{
    check_engines_agree, measure, CompiledProgram, IterationResult, Session, VmEventDeltas,
    RUN_FUNCTION,
};
pub use value::{Handle, TypeTag, Value};
pub use vm::{invocation_seed, EngineKind, Vm, VmConfig};
