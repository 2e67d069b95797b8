//! Trace-backend execution of compiled programs — a thin wrapper over the
//! unified dataflow scheduler ([`crate::backend::run_program`]) with the
//! [`TraceBackend`] engine and the [`Counting`] decorator.
//!
//! Values are computed exactly (reference semantics + fitted polynomial
//! activations), levels/bootstraps follow the placement policy, and every
//! operation is tallied with its modeled latency — regenerating the
//! paper's reporting columns for networks far too large to run through
//! 64-bit modular arithmetic in CI (see the `orion_sim` crate docs and
//! README "Architecture: the `EvalBackend` layer").

use crate::backend::{run_program, Counting};
use crate::backends::TraceBackend;
use crate::compile::Compiled;
use orion_ckks::precision::precision_bits;
use orion_sim::OpCounter;
use orion_tensor::Tensor;

/// Result of a trace run.
pub struct TraceRun {
    /// The network output.
    pub output: Tensor,
    /// Operation statistics with modeled latency.
    pub counter: OpCounter,
}

impl TraceRun {
    /// Output precision in bits against a reference output.
    pub fn precision_vs(&self, reference: &Tensor) -> f64 {
        precision_bits(self.output.data(), reference.data())
    }
}

/// Runs a compiled program on the trace backend.
pub fn run_trace(c: &Compiled, input: &Tensor) -> TraceRun {
    let backend = Counting::new(TraceBackend::new(c), c.opts.cost.clone(), c.opts.l_eff);
    let run = run_program(c, &backend, input);
    TraceRun {
        output: run.output,
        counter: backend.into_parts().1,
    }
}
