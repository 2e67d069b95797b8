//! Cost model, operation counters, and the cleartext trace backend.
//!
//! The Orion paper drives its bootstrap-placement objective with "an
//! analytical model" of operation latencies (§5.2) whose shapes are shown
//! in Figure 1: `PMult`/`HAdd` linear in the ciphertext level, `HRot`
//! super-linear (the key-switch digit count grows with level), and
//! bootstrapping super-linear in `L_eff`. [`cost::CostModel`] reproduces
//! those curves.
//!
//! [`trace::TraceEngine`] executes compiled FHE programs on cleartext slot
//! vectors while enforcing FHE legality (level budgets, scale matching,
//! bootstrapping) and tallying every operation in a [`counter::OpCounter`].
//! It is how the ImageNet-scale rows of Table 2 are regenerated without
//! hours of 64-bit modular arithmetic — the *plans* are identical to the
//! real backend's (see README "Architecture: the `EvalBackend` layer").

pub mod cost;
pub mod counter;
pub mod trace;

pub use cost::CostModel;
pub use counter::{OpCounter, OpKind};
pub use trace::{TraceCiphertext, TraceEngine};
