//! The compiler-part timings and static counts the serve workloads'
//! traced runs report, and the check that those counts repeat.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::median;
use crate::RunOpts;
use orion_nn::compile::{compile, CompileOptions, Compiled};
use orion_nn::fit::fit_robust;
use orion_nn::network::Network;
use orion_nn::{verify_compiled, ExecPlan, OptStats, PlanOptimizer, VerifyConfig};
use orion_tensor::Tensor;

/// Repetitions of the millisecond-scale plan build and optimizer calls.
const PLAN_REPS: usize = 5;
/// `fit_robust` iterations, as `Orion::compile` uses.
const FIT_ITERATIONS: usize = 4;

/// Static counts of one compiled program; they must repeat exactly for a
/// fixed seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CompileCounts {
    /// `placement.boot_count`.
    pub bootstraps: u64,
    /// `planned_rotations()`.
    pub rotations: u64,
    /// `rotation_steps().len()`: rotation keys a session generates.
    pub rotation_keys: u64,
}

impl CompileCounts {
    /// The counts of `c`.
    pub fn of(c: &Compiled) -> Self {
        Self {
            bootstraps: c.placement.boot_count,
            rotations: c.planned_rotations() as u64,
            rotation_keys: c.rotation_steps().len() as u64,
        }
    }

    /// Writes the `compile.*` metrics.
    pub fn report(self, r: &mut Report) {
        r.set("compile.bootstraps", self.bootstraps as f64);
        r.set("compile.rotations", self.rotations as f64);
        r.set("compile.rotation_keys", self.rotation_keys as f64);
    }
}

/// Wall time of each compiler stage, called one by one from outside.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompilerParts {
    /// `fit_robust`.
    pub fit_s: f64,
    /// `orion_nn::compile::compile` (lowering, including placement).
    pub lower_s: f64,
    /// `placement.placement_seconds`, as the compiler measured it.
    pub placement_s: f64,
    /// `verify_compiled`.
    pub certify_s: f64,
    /// `ExecPlan::build` (median of repeats).
    pub plan_s: f64,
    /// `PlanOptimizer::optimize` (median of repeats).
    pub optimize_s: f64,
    /// Stats of the last optimizer run.
    pub opt: OptStats,
}

impl CompilerParts {
    /// Runs the stages `Orion::compile` runs, timing each, then the plan
    /// build and optimizer every served request runs. Also returns
    /// whether certification drew errors.
    pub fn measure(
        net: &Network,
        calib: &[Tensor],
        opts: &CompileOptions,
        spans: &Spans,
    ) -> (Self, bool) {
        let (fitres, fit_s) = spans.timed("nn.fit_robust", None, || {
            fit_robust(net, calib, FIT_ITERATIONS)
        });
        let (compiled, lower_s) = spans.timed("nn.compile", None, || compile(net, &fitres, opts));
        let (report, certify_s) = spans.timed("nn.verify_compiled", None, || {
            verify_compiled(&compiled, &VerifyConfig::default())
        });
        let mut plan_times = Vec::new();
        let mut opt_times = Vec::new();
        let mut opt = OptStats::default();
        for _ in 0..PLAN_REPS {
            let (mut plan, t) =
                spans.timed("sched.ExecPlan::build", None, || ExecPlan::build(&compiled));
            plan_times.push(t);
            let (stats, t) = spans.timed("opt.PlanOptimizer::optimize", None, || {
                PlanOptimizer::for_compiled(&compiled).optimize(&mut plan, &compiled)
            });
            opt_times.push(t);
            opt = stats;
        }
        let parts = Self {
            fit_s,
            lower_s,
            placement_s: compiled.placement.placement_seconds,
            certify_s,
            plan_s: median(&plan_times).unwrap_or(0.0),
            optimize_s: median(&opt_times).unwrap_or(0.0),
            opt,
        };
        (parts, report.has_errors())
    }

    /// Writes the compiler per-module metrics.
    pub fn report(&self, r: &mut Report) {
        r.set("nn.fit_s", self.fit_s);
        r.set("nn.lower_s", self.lower_s);
        r.set("graph.placement_s", self.placement_s);
        r.set("verify.certify_s", self.certify_s);
        r.set("sched.plan_s", self.plan_s);
        r.set("opt.optimize_s", self.optimize_s);
        r.set(
            "opt.fused_bootstraps",
            self.opt.level_fusion.fused_bootstraps as f64,
        );
        r.set(
            "opt.bootstraps_moved",
            self.opt.boot_sink.bootstraps_moved as f64,
        );
        r.set("opt.rejected_passes", self.opt.rejected_passes as f64);
    }
}

/// The within-run half of the repeat check: the first fingerprint is
/// kept in `seen`, later ones must equal it. A mismatch is described in
/// the returned error.
pub fn check_repeat(seen: &mut Option<String>, now: String, what: &str) -> Result<(), String> {
    match seen {
        Some(prev) if *prev != now => Err(format!(
            "{what} changed between repetitions: {prev} then {now}"
        )),
        Some(_) => Ok(()),
        None => {
            *seen = Some(now);
            Ok(())
        }
    }
}

/// The cross-run half of the repeat check: the first run of a
/// (source, workload, seed) stores its fingerprint under the output
/// directory, later runs of the same sources must match it. Changed code
/// may legitimately change the counts, so it starts a fingerprint of its
/// own; without a source id there is nothing to key on and the check is
/// skipped.
pub fn check_repeat_across_runs(opts: &RunOpts, fingerprint: &str) -> Result<(), String> {
    let Some(source) = fingerprint_key(&opts.source_id) else {
        return Ok(());
    };
    let dir = opts.out_dir.join("counts").join(source);
    let path = dir.join(format!("{}-seed{}.txt", opts.workload, opts.seed));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == fingerprint => Ok(()),
        Ok(prev) => Err(format!(
            "counts differ from an earlier run of this seed on the same sources ({}): {} then {fingerprint}",
            path.display(),
            prev.trim()
        )),
        Err(_) => {
            let written =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, fingerprint));
            if let Err(e) = written {
                eprintln!(
                    "warning: cannot store count fingerprint {}: {e}",
                    path.display()
                );
            }
            Ok(())
        }
    }
}

/// The directory name a source id is filed under: the id itself when it
/// is a safe file name, `None` when it is missing or unsafe.
pub fn fingerprint_key(source_id: &str) -> Option<&str> {
    let safe = |c: char| c.is_ascii_alphanumeric() || "._+-".contains(c);
    (!source_id.is_empty()
        && source_id != "unknown"
        && !source_id.starts_with('.')
        && source_id.len() <= 128
        && source_id.chars().all(safe))
    .then_some(source_id)
}
