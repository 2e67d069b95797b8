//! The unified execution layer: one dataflow scheduler, pluggable engines.
//!
//! A compiled Orion program (`compile::Step` list + placement policy) used
//! to be interpreted three separate times — once for the cleartext trace
//! model, once for real CKKS, and once for the plain rotation-algebra
//! oracle. [`EvalBackend`] abstracts the engine behind associated
//! `Ciphertext`/`Plaintext` types plus the primitive homomorphic
//! instruction set (add / pmult / hmult / rotate / rescale / bootstrap)
//! and the scale-schedule-aware composite steps (linear layer, activation
//! stages). Engines are **`&self`**: keys, encoders, and evaluators are
//! read-only at run time, and what little per-run state exists (injected
//! request ciphertexts, drift counters) lives behind interior mutability —
//! which is what lets [`run_program`] execute a program as a wire-level
//! parallel dataflow plan ([`crate::sched`]) instead of a one-step-at-a-
//! time loop. Three engines implement the trait (see [`crate::backends`]):
//!
//! * [`crate::backends::CkksBackend`] — real RNS-CKKS through
//!   `Evaluator`/`FheSession`,
//! * [`crate::backends::TraceBackend`] — exact cleartext semantics with
//!   FHE-legality enforcement (levels, pending rescales),
//! * [`crate::backends::PlainBackend`] — the cleartext rotation-algebra
//!   oracle (`orion_linear::exec_plain_with`), validating the packing
//!   math itself.
//!
//! Op-counting is a *decorator*: [`Counting`] wraps any backend and
//! tallies every instruction into an [`OpCounter`] with modeled latency,
//! so the paper's "# Rots" / "# Boots" columns are produced identically
//! for every engine. Tallies are sharded per scheduled unit and merged in
//! plan order, so a parallel run's counter — including its accumulated
//! `f64` model seconds — is bit-identical to the sequential run's. Adding
//! a GPU, multi-party, or sharded engine is one trait impl — the
//! scheduler, the counting, and the placement logic are shared.

use crate::compile::{stage_mult_estimate, Compiled, Step};
use crate::sched::{run_plan, ExecPlan, SchedMode};
use orion_linear::{
    BiasValues, ConvDiagSource, ConvSpec, DenseDiagSource, DiagSource, LinearPlan, TensorLayout,
};
use orion_sim::counter::OpKind;
use orion_sim::{CostModel, OpCounter};
use orion_tensor::Tensor;
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// A borrowed view of one linear layer's parameters (conv or dense),
/// handed to [`EvalBackend::linear_layer`]. `step` is the program node id,
/// the key engines use to find the layer's setup-time artifacts in a
/// `PreparedProgram`.
pub enum LinearRef<'a> {
    /// A packed convolution (also pooling / folded batch-norm).
    Conv {
        /// Program step id.
        step: usize,
        /// The BSGS packing plan.
        plan: &'a LinearPlan,
        /// Convolution geometry.
        spec: &'a ConvSpec,
        /// Folded weights.
        weight: &'a Tensor,
        /// Folded bias.
        bias: &'a [f64],
        /// Input layout.
        in_l: &'a TensorLayout,
        /// Output layout.
        out_l: &'a TensorLayout,
    },
    /// A packed fully-connected layer.
    Dense {
        /// Program step id.
        step: usize,
        /// The BSGS packing plan.
        plan: &'a LinearPlan,
        /// Weights `(n_out, features)`.
        weight: &'a Tensor,
        /// Bias.
        bias: &'a [f64],
        /// Input layout (pre-flatten).
        in_l: &'a TensorLayout,
        /// Output width.
        n_out: usize,
    },
}

impl<'a> LinearRef<'a> {
    /// The linear layer of program step `id`, or `None` if the step is not
    /// a conv or dense layer.
    pub fn from_step(id: usize, step: &'a Step) -> Option<Self> {
        match step {
            Step::Conv {
                plan,
                spec,
                weight,
                bias,
                in_l,
                out_l,
            } => Some(LinearRef::Conv {
                step: id,
                plan,
                spec,
                weight,
                bias,
                in_l,
                out_l,
            }),
            Step::Dense {
                plan,
                weight,
                bias,
                in_l,
                n_out,
            } => Some(LinearRef::Dense {
                step: id,
                plan,
                weight,
                bias,
                in_l,
                n_out: *n_out,
            }),
            _ => None,
        }
    }

    /// The layer's weight diagonals and its bias values, one slot vector
    /// per output ciphertext block — what the BSGS executors consume.
    pub fn diags(&self, slots: usize) -> (Box<dyn DiagSource + Sync + 'a>, Vec<Vec<f64>>) {
        match *self {
            LinearRef::Conv {
                spec,
                weight,
                bias,
                in_l,
                out_l,
                ..
            } => (
                Box::new(ConvDiagSource {
                    in_l: *in_l,
                    out_l: *out_l,
                    spec: *spec,
                    weights: weight,
                }),
                BiasValues::conv(out_l, bias, slots),
            ),
            LinearRef::Dense {
                weight,
                bias,
                in_l,
                n_out,
                ..
            } => (
                Box::new(DenseDiagSource::new(weight.clone(), in_l)),
                BiasValues::dense(n_out, bias, slots),
            ),
        }
    }

    /// The layer's packing plan.
    pub fn plan(&self) -> &LinearPlan {
        match self {
            LinearRef::Conv { plan, .. } | LinearRef::Dense { plan, .. } => plan,
        }
    }

    /// The program step id.
    pub fn step(&self) -> usize {
        match self {
            LinearRef::Conv { step, .. } | LinearRef::Dense { step, .. } => *step,
        }
    }
}

/// A homomorphic-evaluation engine a compiled program can run on.
///
/// Primitive methods mirror the CKKS instruction set; composite methods
/// own the scale schedule of one program step (real CKKS needs exact-Δ
/// bookkeeping a generic recipe cannot express, and modeled engines need
/// to model at the step granularity). Levels passed in are the placement
/// policy's assignments — inputs have already been dropped to the stated
/// level by the scheduler.
///
/// All methods take `&self`: the scheduler calls them concurrently from
/// the shared pool, and every operation must be a pure, deterministic
/// function of its arguments (engines keep incidental state — injected
/// ciphertext queues, drift counters — behind atomics or mutexes).
pub trait EvalBackend {
    /// The engine's ciphertext representation (`Send + Sync`: the
    /// scheduler moves values between pool threads and shares them across
    /// concurrent consumer units).
    type Ciphertext: Clone + Send + Sync;
    /// The engine's plaintext representation.
    type Plaintext;
    /// The engine's shared baby-step rotation artifact (cross-wire
    /// rotation CSE, see [`crate::opt`]): everything
    /// [`EvalBackend::linear_layer`] needs to skip its private
    /// per-consumer rotation fan-out. Engines with no rotation algebra
    /// use `()`.
    type SharedRot: Send + Sync;

    /// Engine name, for diagnostics.
    fn name(&self) -> &'static str;
    /// Slots per ciphertext.
    fn slots(&self) -> usize;
    /// Current level of a ciphertext.
    fn level_of(&self, ct: &Self::Ciphertext) -> usize;
    /// log₂ of the ciphertext's current scale, for the telemetry
    /// level/scale-drift trajectories. Engines without a real scale
    /// report 0.
    fn scale_log2_of(&self, ct: &Self::Ciphertext) -> f64 {
        let _ = ct;
        0.0
    }

    /// Encrypts one ciphertext's worth of slot values at `level`.
    fn encrypt(&self, vals: &[f64], level: usize) -> Self::Ciphertext;
    /// Decrypts and decodes one ciphertext.
    fn decrypt(&self, ct: &Self::Ciphertext) -> Vec<f64>;
    /// Encodes slot values at the standard scale Δ and `level`.
    fn encode(&self, vals: &[f64], level: usize) -> Self::Plaintext;

    /// `HAdd`: ciphertext + ciphertext.
    fn add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext;
    /// `PAdd`: ciphertext + plaintext.
    fn add_plain(&self, a: &Self::Ciphertext, p: &Self::Plaintext) -> Self::Ciphertext;
    /// `PMult`: ciphertext × plaintext (unrescaled).
    fn pmult(&self, a: &Self::Ciphertext, p: &Self::Plaintext) -> Self::Ciphertext;
    /// `HMult`: ciphertext × ciphertext with relinearization (unrescaled).
    fn hmult(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext;
    /// `HRot`: rotates slots up by `k`.
    fn rotate(&self, a: &Self::Ciphertext, k: isize) -> Self::Ciphertext;
    /// Rescale: divides by the top prime, consuming a level.
    fn rescale(&self, a: &Self::Ciphertext) -> Self::Ciphertext;
    /// Free drop to a lower level.
    fn drop_to_level(&self, a: &Self::Ciphertext, level: usize) -> Self::Ciphertext;
    /// Bootstrap: refreshes to the engine's effective level. Must be a
    /// deterministic function of the input ciphertext — the scheduler
    /// bootstraps independent ciphertexts concurrently, and scheduler
    /// order must not change results.
    fn bootstrap(&self, a: &Self::Ciphertext) -> Self::Ciphertext;

    /// Whether the linear layer at program step `step` encodes
    /// weight/bias plaintexts **per inference** (the on-the-fly path).
    /// Engines serving that step from a prepared cache return `false`, and
    /// the [`Counting`] decorator then moves the encode cost out of the
    /// per-inference tally (see `OpCounter::encodes`). Queried per step so
    /// a partially prepared cache is tallied honestly.
    fn linear_encodes_per_inference(&self, step: usize) -> bool {
        let _ = step;
        true
    }

    /// Whether the poly stage at program step `step` encodes its constant
    /// plaintexts (Chebyshev coefficients, alignment constants) **per
    /// inference**. Engines replaying a setup-time recording return
    /// `false`; the [`Counting`] decorator then skips the stage's
    /// per-inference encode tally (`orion_poly::eval::stage_const_count`).
    fn activation_encodes_per_inference(&self, step: usize) -> bool {
        let _ = step;
        true
    }

    /// Advisory: the scheduler announces that the linear layer at `step`
    /// has become ready, so a paging engine can start faulting its
    /// prepared artifacts into residency off the critical path. Default
    /// no-op; must not affect results.
    fn prefetch_linear(&self, step: usize) {
        let _ = step;
    }

    /// One packed linear layer over all input ciphertexts at `level`;
    /// returns the output wire one level lower at exactly scale Δ. With
    /// `shared`, the layer reads its non-zero baby-step rotations from that
    /// artifact instead of rotating privately — bit-identical output.
    fn linear_layer(
        &self,
        layer: &LinearRef<'_>,
        inputs: &[Self::Ciphertext],
        level: usize,
        shared: Option<&Self::SharedRot>,
    ) -> Vec<Self::Ciphertext>;

    /// Computes the distinct **non-zero** baby-step rotations `rots`
    /// (`(input block, amount)` pairs) of a wire's ciphertexts — already
    /// dropped to `level` — once, for every linear consumer the plan
    /// optimizer wired to the shared unit. Must be a deterministic pure
    /// function of the inputs: consumers reading the artifact must compute
    /// bit-identical results to consumers rotating privately.
    fn hoist_rotations(
        &self,
        cts: &[Self::Ciphertext],
        level: usize,
        rots: &[(u32, usize)],
    ) -> Self::SharedRot;

    /// Multiplies by `factor ≤ 1` and rescales (activation normalization).
    fn scale_down(&self, ct: &Self::Ciphertext, factor: f64, level: usize) -> Self::Ciphertext;

    /// [`EvalBackend::scale_down`] fused with a drop to `out_level`
    /// (rescale/mod-switch chain fusion). Must be bit-identical to
    /// `drop_to_level(scale_down(ct, factor, level), out_level)` — the
    /// default is exactly that; engines with a fused kernel (CKKS) override
    /// it so the intermediate limbs never materialize.
    fn scale_down_to(
        &self,
        ct: &Self::Ciphertext,
        factor: f64,
        level: usize,
        out_level: usize,
    ) -> Self::Ciphertext {
        self.drop_to_level(&self.scale_down(ct, factor, level), out_level)
    }

    /// [`EvalBackend::bootstrap`] fused with a drop to `out_level` (the
    /// refreshed ciphertext's consumers all read at or below `out_level`).
    /// Must be bit-identical to `drop_to_level(bootstrap(ct), out_level)`.
    fn bootstrap_to(&self, ct: &Self::Ciphertext, out_level: usize) -> Self::Ciphertext {
        self.drop_to_level(&self.bootstrap(ct), out_level)
    }
    /// One Chebyshev stage; `normalize` re-aligns the output to exact Δ at
    /// +1 depth. `step` is the program node id, the key engines use to
    /// find the stage's recorded constants in a prepared cache.
    fn poly_stage(
        &self,
        ct: &Self::Ciphertext,
        coeffs: &[f64],
        normalize: bool,
        level: usize,
        step: usize,
    ) -> Self::Ciphertext;
    /// The final ReLU product `m·u·(s+1)/2` (`u` at `level`, `sign` at
    /// `level − 1`); depth 2.
    fn relu_final(
        &self,
        u: &Self::Ciphertext,
        sign: &Self::Ciphertext,
        magnitude: f64,
        level: usize,
    ) -> Self::Ciphertext;
    /// The `x²` activation (depth 2 including exact-Δ alignment).
    fn square_activation(&self, ct: &Self::Ciphertext, level: usize) -> Self::Ciphertext;
}

/// Result of interpreting a compiled program on some backend.
pub struct ProgramRun<Ct> {
    /// The decoded network output.
    pub output: Tensor,
    /// The raw output wire (still "encrypted" in the engine's terms).
    pub output_wire: Vec<Ct>,
    /// Ciphertext bootstraps performed (per ciphertext, as the placement
    /// policy's `boot_count` counts them).
    pub bootstraps: u64,
}

/// Runs a compiled program on `backend` through the dataflow scheduler —
/// THE execution entry point, shared by every engine. Builds the program's
/// [`ExecPlan`] and walks it in parallel when the shared pool has more
/// than one thread, sequentially otherwise; both walks follow the
/// placement policy exactly (drop wires to their assigned level, bootstrap
/// where the policy says) and produce bit-identical results and counters.
pub fn run_program<B: EvalBackend + Sync>(
    c: &Compiled,
    backend: &B,
    input: &Tensor,
) -> ProgramRun<B::Ciphertext> {
    let mode = if rayon::current_num_threads() > 1 {
        SchedMode::Parallel
    } else {
        SchedMode::Sequential
    };
    run_program_mode(c, backend, input, mode)
}

/// [`run_program`] with an explicit scheduling mode — the equivalence
/// suite runs both and asserts bit-exact, counter-identical results.
pub fn run_program_mode<B: EvalBackend + Sync>(
    c: &Compiled,
    backend: &B,
    input: &Tensor,
    mode: SchedMode,
) -> ProgramRun<B::Ciphertext> {
    let plan = ExecPlan::build(c);
    run_plan(&plan, c, backend, input, mode)
}

/// [`run_program_mode`] through the plan optimizer (`crate::opt`): builds
/// the plan, rewrites it under the program's cost model with the given
/// per-pass toggles, and executes the optimized DAG. Returns the run plus
/// the optimizer's per-pass stats. Bit-identical to the unoptimized run on
/// every engine — the rewrites only share, fuse or reorder work.
pub fn run_program_opt<B: EvalBackend + Sync>(
    c: &Compiled,
    backend: &B,
    input: &Tensor,
    mode: SchedMode,
    cfg: crate::opt::OptConfig,
) -> (ProgramRun<B::Ciphertext>, crate::opt::OptStats) {
    let mut plan = ExecPlan::build(c);
    let stats = crate::opt::PlanOptimizer::new(cfg, c.opts.cost.clone()).optimize(&mut plan, c);
    (run_plan(&plan, c, backend, input, mode), stats)
}

/// Packs an input tensor into ciphertext-sized slot chunks exactly as the
/// `Input` step consumes them. Shared by the scheduler and the
/// client-side `FheSession::encrypt_input`, so the two packings cannot
/// drift (pre-encrypted requests are only checked for count and level).
pub fn input_slot_chunks(c: &Compiled, slots: usize, input: &Tensor) -> Vec<Vec<f64>> {
    let packed = c.input_layout.pack(input.data());
    (0..c.input_layout.num_ciphertexts(slots))
        .map(|b| {
            let lo = b * slots;
            let hi = ((b + 1) * slots).min(packed.len());
            let mut chunk = packed[lo..hi].to_vec();
            chunk.resize(slots, 0.0);
            chunk
        })
        .collect()
}

/// The op-counting decorator: wraps any engine and tallies every
/// instruction into an [`OpCounter`] with modeled latency, reproducing the
/// paper's reporting columns uniformly. Composite steps are tallied from
/// their static structure (plan counts, Chebyshev stage estimates), so the
/// numbers are identical no matter which engine runs underneath.
///
/// Thread safety: tallies go into per-scheduled-unit shards (keyed by the
/// unit id the scheduler pins to the calling thread) and
/// [`Counting::counter`] merges them in ascending unit order. Counts are
/// exact under any interleaving; the deterministic merge order makes the
/// accumulated `f64` model seconds bit-identical between sequential and
/// parallel runs as well — no counter drift.
pub struct Counting<B> {
    /// The wrapped engine.
    pub inner: B,
    shards: Mutex<BTreeMap<usize, OpCounter>>,
    cost: CostModel,
    l_eff: usize,
}

impl<B> Counting<B> {
    /// Wraps `inner`, tallying with `cost` (bootstraps modeled at `l_eff`).
    pub fn new(inner: B, cost: CostModel, l_eff: usize) -> Self {
        Self {
            inner,
            shards: Mutex::new(BTreeMap::new()),
            cost,
            l_eff,
        }
    }

    /// The merged statistics so far (shards merged in plan-unit order —
    /// deterministic, scheduler-independent).
    pub fn counter(&self) -> OpCounter {
        let shards = self.shards.lock();
        let mut total = OpCounter::new();
        for c in shards.values() {
            total.merge(c);
        }
        total
    }

    /// Unwraps into the engine and the final merged counter.
    pub fn into_parts(self) -> (B, OpCounter) {
        let mut total = OpCounter::new();
        for c in self.shards.into_inner().values() {
            total.merge(c);
        }
        (self.inner, total)
    }

    /// Runs `f` on the calling unit's tally shard.
    fn shard<R>(&self, f: impl FnOnce(&mut OpCounter) -> R) -> R {
        let unit = crate::sched::current_unit();
        let mut shards = self.shards.lock();
        f(shards.entry(unit).or_default())
    }
}

impl<B: EvalBackend> Counting<B> {
    fn tally(&self, kind: OpKind, n: u64, secs: f64) {
        self.shard(|c| c.record(kind, n, secs));
    }

    /// Tallies one linear layer's plan at the evaluation level (the static
    /// op mix of the double-hoisted BSGS matvec). On-the-fly engines also
    /// pay one slot-vector encode per diagonal pmult plus one per output
    /// block (bias); steps served from a prepared cache pay none per
    /// inference.
    fn tally_linear(&self, plan: &LinearPlan, step: usize, level: usize) {
        let encodes = if self.inner.linear_encodes_per_inference(step) {
            (plan.counts.pmults + plan.out_blocks) as u64
        } else {
            0
        };
        let c = self.cost.clone();
        let counts = &plan.counts;
        self.shard(|ctr| {
            ctr.record_encodes(encodes);
            ctr.record(
                OpKind::Hoist,
                counts.hoists as u64,
                counts.hoists as f64 * c.ks_decompose(level),
            );
            ctr.record(
                OpKind::HRotHoisted,
                counts.baby_rots as u64,
                counts.baby_rots as f64 * c.hrot_hoisted(level),
            );
            ctr.record(
                OpKind::HRot,
                counts.giant_rots as u64,
                counts.giant_rots as f64 * c.hrot(level),
            );
            ctr.record(
                OpKind::PMult,
                counts.pmults as u64,
                counts.pmults as f64 * c.pmult(level),
            );
            ctr.record(
                OpKind::ModDown,
                counts.moddowns as u64,
                counts.moddowns as f64 * c.ks_moddown(level),
            );
            ctr.record(
                OpKind::Rescale,
                counts.rescales as u64,
                counts.rescales as f64 * c.rescale(level),
            );
            ctr.linear_seconds += plan.latency(&c, level);
        });
    }

    /// Tallies a linear layer whose non-zero baby-step rotations come from
    /// a shared unit: the layer itself pays **no** hoists and **no** baby
    /// rotations (they were tallied once at the shared unit), only its
    /// giant steps, pmults, ModDowns, and rescales. Encodes are unchanged
    /// — sharing rotations shares no plaintexts.
    fn tally_linear_shared(&self, plan: &LinearPlan, step: usize, level: usize) {
        let encodes = if self.inner.linear_encodes_per_inference(step) {
            (plan.counts.pmults + plan.out_blocks) as u64
        } else {
            0
        };
        let c = self.cost.clone();
        let counts = &plan.counts;
        let remaining = c.linear_layer(
            level,
            0,
            0,
            counts.giant_rots,
            counts.pmults,
            counts.moddowns,
            counts.rescales,
        );
        self.shard(|ctr| {
            ctr.record_encodes(encodes);
            ctr.record(
                OpKind::HRot,
                counts.giant_rots as u64,
                counts.giant_rots as f64 * c.hrot(level),
            );
            ctr.record(
                OpKind::PMult,
                counts.pmults as u64,
                counts.pmults as f64 * c.pmult(level),
            );
            ctr.record(
                OpKind::ModDown,
                counts.moddowns as u64,
                counts.moddowns as f64 * c.ks_moddown(level),
            );
            ctr.record(
                OpKind::Rescale,
                counts.rescales as u64,
                counts.rescales as f64 * c.rescale(level),
            );
            ctr.linear_seconds += remaining;
        });
    }
}

impl<B: EvalBackend> EvalBackend for Counting<B> {
    type Ciphertext = B::Ciphertext;
    type Plaintext = B::Plaintext;
    type SharedRot = B::SharedRot;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn level_of(&self, ct: &Self::Ciphertext) -> usize {
        self.inner.level_of(ct)
    }

    fn scale_log2_of(&self, ct: &Self::Ciphertext) -> f64 {
        self.inner.scale_log2_of(ct)
    }

    fn encrypt(&self, vals: &[f64], level: usize) -> Self::Ciphertext {
        self.inner.encrypt(vals, level)
    }

    fn decrypt(&self, ct: &Self::Ciphertext) -> Vec<f64> {
        self.inner.decrypt(ct)
    }

    fn encode(&self, vals: &[f64], level: usize) -> Self::Plaintext {
        self.shard(|c| c.record_encodes(1));
        self.inner.encode(vals, level)
    }

    fn linear_encodes_per_inference(&self, step: usize) -> bool {
        self.inner.linear_encodes_per_inference(step)
    }

    fn activation_encodes_per_inference(&self, step: usize) -> bool {
        self.inner.activation_encodes_per_inference(step)
    }

    fn prefetch_linear(&self, step: usize) {
        // advisory — never tallied, so prefetching cannot drift counters
        self.inner.prefetch_linear(step);
    }

    fn add(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext {
        let lv = self.inner.level_of(a);
        self.tally(OpKind::HAdd, 1, self.cost.hadd(lv));
        self.inner.add(a, b)
    }

    fn add_plain(&self, a: &Self::Ciphertext, p: &Self::Plaintext) -> Self::Ciphertext {
        let lv = self.inner.level_of(a);
        self.tally(OpKind::PAdd, 1, self.cost.hadd(lv));
        self.inner.add_plain(a, p)
    }

    fn pmult(&self, a: &Self::Ciphertext, p: &Self::Plaintext) -> Self::Ciphertext {
        let lv = self.inner.level_of(a);
        self.tally(OpKind::PMult, 1, self.cost.pmult(lv));
        self.inner.pmult(a, p)
    }

    fn hmult(&self, a: &Self::Ciphertext, b: &Self::Ciphertext) -> Self::Ciphertext {
        let lv = self.inner.level_of(a);
        self.tally(OpKind::HMult, 1, self.cost.hmult(lv));
        self.inner.hmult(a, b)
    }

    fn rotate(&self, a: &Self::Ciphertext, k: isize) -> Self::Ciphertext {
        let lv = self.inner.level_of(a);
        self.tally(OpKind::HRot, 1, self.cost.hrot(lv));
        self.inner.rotate(a, k)
    }

    fn rescale(&self, a: &Self::Ciphertext) -> Self::Ciphertext {
        let lv = self.inner.level_of(a);
        self.tally(OpKind::Rescale, 1, self.cost.rescale(lv));
        self.inner.rescale(a)
    }

    fn drop_to_level(&self, a: &Self::Ciphertext, level: usize) -> Self::Ciphertext {
        self.inner.drop_to_level(a, level)
    }

    fn bootstrap(&self, a: &Self::Ciphertext) -> Self::Ciphertext {
        self.tally(OpKind::Bootstrap, 1, self.cost.bootstrap(self.l_eff));
        self.inner.bootstrap(a)
    }

    fn linear_layer(
        &self,
        layer: &LinearRef<'_>,
        inputs: &[Self::Ciphertext],
        level: usize,
        shared: Option<&Self::SharedRot>,
    ) -> Vec<Self::Ciphertext> {
        match shared {
            Some(_) => self.tally_linear_shared(layer.plan(), layer.step(), level),
            None => self.tally_linear(layer.plan(), layer.step(), level),
        }
        self.inner.linear_layer(layer, inputs, level, shared)
    }

    fn hoist_rotations(
        &self,
        cts: &[Self::Ciphertext],
        level: usize,
        rots: &[(u32, usize)],
    ) -> Self::SharedRot {
        // One digit decomposition per distinct input block, one hoisted
        // rotation per distinct (block, amount) — the exact ops the
        // consumers no longer pay privately (see `tally_linear_shared`).
        let blocks: std::collections::BTreeSet<u32> =
            rots.iter().map(|&(j_blk, _)| j_blk).collect();
        let c = &self.cost;
        self.tally(
            OpKind::Hoist,
            blocks.len() as u64,
            blocks.len() as f64 * c.ks_decompose(level),
        );
        self.tally(
            OpKind::HRotHoisted,
            rots.len() as u64,
            rots.len() as f64 * c.hrot_hoisted(level),
        );
        self.inner.hoist_rotations(cts, level, rots)
    }

    fn scale_down(&self, ct: &Self::Ciphertext, factor: f64, level: usize) -> Self::Ciphertext {
        self.tally(OpKind::PMult, 1, self.cost.pmult(level));
        self.tally(OpKind::Rescale, 1, self.cost.rescale(level));
        self.inner.scale_down(ct, factor, level)
    }

    fn scale_down_to(
        &self,
        ct: &Self::Ciphertext,
        factor: f64,
        level: usize,
        out_level: usize,
    ) -> Self::Ciphertext {
        // Count-neutral by construction: the fused kernel is tallied
        // exactly like `scale_down` at the same level (the drop was always
        // free). Delegates to the inner engine's override so the fused
        // kernel actually runs.
        self.tally(OpKind::PMult, 1, self.cost.pmult(level));
        self.tally(OpKind::Rescale, 1, self.cost.rescale(level));
        self.inner.scale_down_to(ct, factor, level, out_level)
    }

    fn bootstrap_to(&self, ct: &Self::Ciphertext, out_level: usize) -> Self::Ciphertext {
        // Count-neutral: one Bootstrap at l_eff, same as `bootstrap`.
        self.tally(OpKind::Bootstrap, 1, self.cost.bootstrap(self.l_eff));
        self.inner.bootstrap_to(ct, out_level)
    }

    fn poly_stage(
        &self,
        ct: &Self::Ciphertext,
        coeffs: &[f64],
        normalize: bool,
        level: usize,
        step: usize,
    ) -> Self::Ciphertext {
        // On-the-fly engines pay one FFT-free constant encode per stage
        // constant; engines replaying a prepared recording pay none. The
        // count is a level-only replay of the evaluation recursion, so it
        // is identical for every engine.
        if self.inner.activation_encodes_per_inference(step) {
            let n = orion_poly::eval::stage_const_count(coeffs, normalize, level);
            self.shard(|c| c.record_encodes(n));
        }
        let d = coeffs.len() - 1;
        let mults = stage_mult_estimate(d);
        self.tally(
            OpKind::HMult,
            mults as u64,
            mults as f64 * self.cost.hmult(level),
        );
        self.tally(OpKind::PMult, d as u64, d as f64 * self.cost.pmult(level));
        self.tally(
            OpKind::Rescale,
            mults as u64,
            mults as f64 * self.cost.rescale(level),
        );
        self.inner.poly_stage(ct, coeffs, normalize, level, step)
    }

    fn relu_final(
        &self,
        u: &Self::Ciphertext,
        sign: &Self::Ciphertext,
        magnitude: f64,
        level: usize,
    ) -> Self::Ciphertext {
        self.tally(OpKind::HMult, 1, self.cost.hmult(level));
        self.inner.relu_final(u, sign, magnitude, level)
    }

    fn square_activation(&self, ct: &Self::Ciphertext, level: usize) -> Self::Ciphertext {
        self.tally(OpKind::HMult, 1, self.cost.hmult(level));
        self.inner.square_activation(ct, level)
    }
}
