//! Diagonal-structure planning for packed linear layers.
//!
//! A plan records, for every `(output block, input block)` ciphertext pair,
//! the set of non-zero generalized diagonals of the (row-permuted) Toeplitz
//! matrix, plus the BSGS split that minimizes ciphertext rotations. Plans
//! are built **without materializing the matrix**: under the multiplexed
//! layout the slot-index difference between an output row and the input
//! column it reads is constant along each row segment (see
//! [`for_each_conv_segment`]), so a
//! convolution contributes `O(c_o·c_i·k_h·k_w·h_o)` segments regardless of
//! width — ImageNet-scale plans build in milliseconds.

use crate::layout::TensorLayout;
use orion_sim::CostModel;
use std::collections::{BTreeMap, BTreeSet};

/// Convolution hyper-parameters for planning (mirrors
/// `orion_tensor::Conv2dParams` plus channel counts).
#[derive(Clone, Copy, Debug)]
pub struct ConvSpec {
    /// Output channels.
    pub co: usize,
    /// Input channels.
    pub ci: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Dilation.
    pub dilation: usize,
    /// Channel groups.
    pub groups: usize,
}

impl ConvSpec {
    /// Output spatial size given input size `n` and kernel extent `k`.
    fn out_size(&self, n: usize, k: usize) -> usize {
        (n + 2 * self.padding - (self.dilation * (k - 1) + 1)) / self.stride + 1
    }

    /// Output `(h, w)` for an input `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (self.out_size(h, self.kh), self.out_size(w, self.kw))
    }
}

/// Operation counts of a plan (feed [`CostModel::linear_layer`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Digit decompositions (one per input ciphertext that rotates).
    pub hoists: usize,
    /// Hoisted baby-step rotations.
    pub baby_rots: usize,
    /// Full giant-step rotations.
    pub giant_rots: usize,
    /// Plaintext multiplications (one per non-zero block diagonal).
    pub pmults: usize,
    /// Deferred ModDowns (one per giant-step group).
    pub moddowns: usize,
    /// Rescales (one per output ciphertext).
    pub rescales: usize,
}

impl PlanCounts {
    /// Total ciphertext rotations (the paper's "# Rots" accounting).
    pub fn rotations(&self) -> usize {
        self.baby_rots + self.giant_rots
    }

    /// Key-switch digit decompositions the executor performs: one hoist
    /// per rotating input block, plus one *fresh* decomposition inside
    /// every giant-step rotation (a giant rotation is a full `HRot` — its
    /// key-switch cannot reuse the input's hoisted digits). This is the
    /// quantity the hoisting-aware split chooser drives down.
    pub fn decompositions(&self) -> usize {
        self.hoists + self.giant_rots
    }
}

/// The packed evaluation plan of one linear layer.
#[derive(Clone, Debug)]
pub struct LinearPlan {
    /// Slots per ciphertext.
    pub slots: usize,
    /// Input ciphertext count.
    pub in_blocks: usize,
    /// Output ciphertext count.
    pub out_blocks: usize,
    /// Baby-step size of the BSGS split.
    pub n1: usize,
    /// `(out_block, in_block) → sorted non-zero diagonal indices`.
    pub blocks: BTreeMap<(u32, u32), Vec<u32>>,
    /// Operation counts under the chosen split.
    pub counts: PlanCounts,
}

impl LinearPlan {
    /// Modeled latency at evaluation level `level`.
    pub fn latency(&self, cost: &CostModel, level: usize) -> f64 {
        cost.linear_layer(
            level,
            self.counts.hoists,
            self.counts.baby_rots,
            self.counts.giant_rots,
            self.counts.pmults,
            self.counts.moddowns,
            self.counts.rescales,
        )
    }

    /// The distinct **non-zero** baby-step rotations the executor performs,
    /// as `(input block, rotation amount)` pairs. The amount is an absolute
    /// slot rotation (`k mod n1`), so the sets of two plans over the same
    /// input wire are directly comparable even when their BSGS splits
    /// differ — the basis of cross-wire rotation CSE: consumers sharing a
    /// pair can share one hoisted key-switch inner product.
    pub fn baby_rotations(&self) -> BTreeSet<(u32, usize)> {
        let mut rots = BTreeSet::new();
        for (&(_, j_blk), diags) in &self.blocks {
            for &k in diags {
                let i = (k as usize) % self.n1;
                if i != 0 {
                    rots.insert((j_blk, i));
                }
            }
        }
        rots
    }

    /// Every rotation step the executor will perform (for rotation-key
    /// generation): baby steps `i` and giant steps `j·n1`.
    pub fn rotation_steps(&self) -> Vec<isize> {
        let mut steps = BTreeSet::new();
        for diags in self.blocks.values() {
            for &k in diags {
                let i = (k as usize) % self.n1;
                let j = (k as usize) / self.n1;
                if i != 0 {
                    steps.insert(i as isize);
                }
                if j != 0 {
                    steps.insert((j * self.n1) as isize);
                }
            }
        }
        steps.into_iter().collect()
    }
}

/// Builds the diagonal structure from per-entry segments and chooses the
/// BSGS split.
#[derive(Default)]
pub struct PlanBuilder {
    blocks: BTreeMap<(u32, u32), BTreeSet<u32>>,
}

impl PlanBuilder {
    /// Records a run of `count` matrix entries starting at `(row, row+delta)`
    /// advancing by `step` slots per entry, splitting at ciphertext-block
    /// boundaries.
    pub fn add_segment(
        &mut self,
        slots: usize,
        mut row: usize,
        delta: i64,
        step: usize,
        mut count: usize,
    ) {
        while count > 0 {
            let col = (row as i64 + delta) as usize;
            let i_blk = (row / slots) as u32;
            let j_blk = (col / slots) as u32;
            let r0 = row % slots;
            let c0 = col % slots;
            let k = ((c0 + slots - r0) % slots) as u32;
            // steps until row or col crosses into the next block
            let sr = (slots - 1 - r0) / step + 1;
            let sc = (slots - 1 - c0) / step + 1;
            let take = count.min(sr).min(sc);
            self.blocks.entry((i_blk, j_blk)).or_default().insert(k);
            row += take * step;
            count -= take;
        }
    }

    /// Weighted NTT-count proxies for the split chooser, per operation.
    /// A *giant* rotation is a full `HRot`: fresh digit decomposition +
    /// key inner product + two ModDowns — an order of magnitude more NTTs
    /// than a hoisted baby rotation (permutation + inner product against
    /// already-decomposed digits). `W_KEY` charges each distinct rotation
    /// step for its rotation key (generation time and resident memory), so
    /// dense layers with hundreds of diagonals keep a classic two-level
    /// BSGS instead of hoisting every diagonal into its own key.
    const W_BABY: usize = 2;
    const W_GIANT: usize = 18;
    const W_MODDOWN: usize = 3;
    const W_HOIST: usize = 10;
    const W_KEY: usize = 2;

    /// Finishes the plan: chooses the power-of-two `n1` minimizing a
    /// key-switch-aware cost (not raw rotation count — giant-step
    /// rotations pay their hidden digit decompositions, so splits that
    /// hoist *all* rotations of a sparse layer win even with a few more
    /// total rotations). Ties prefer the smaller `n1`.
    pub fn finish(self, slots: usize, in_blocks: usize, out_blocks: usize) -> LinearPlan {
        let blocks: BTreeMap<(u32, u32), Vec<u32>> = self
            .blocks
            .into_iter()
            .map(|(key, set)| (key, set.into_iter().collect()))
            .collect();
        let mut best: Option<(usize, PlanCounts, usize)> = None; // (cost, counts, n1)
        let mut n1 = 1usize;
        while n1 <= slots {
            let counts = Self::counts_for(&blocks, slots, n1, in_blocks, out_blocks);
            let cost = Self::weighted_cost(&blocks, n1, &counts);
            if best.as_ref().map(|(c, _, _)| cost < *c).unwrap_or(true) {
                best = Some((cost, counts, n1));
            }
            n1 *= 2;
        }
        let (_, counts, n1) = best.expect("slots must be >= 1");
        LinearPlan {
            slots,
            in_blocks,
            out_blocks,
            n1,
            blocks,
            counts,
        }
    }

    /// Distinct rotation steps (= rotation keys) a split needs.
    fn distinct_steps(blocks: &BTreeMap<(u32, u32), Vec<u32>>, n1: usize) -> usize {
        let mut steps = BTreeSet::new();
        for diags in blocks.values() {
            for &k in diags {
                let i = (k as usize) % n1;
                let j = (k as usize) / n1;
                if i != 0 {
                    steps.insert(i);
                }
                if j != 0 {
                    steps.insert(j * n1);
                }
            }
        }
        steps.len()
    }

    fn weighted_cost(
        blocks: &BTreeMap<(u32, u32), Vec<u32>>,
        n1: usize,
        counts: &PlanCounts,
    ) -> usize {
        counts.hoists * Self::W_HOIST
            + counts.baby_rots * Self::W_BABY
            + counts.giant_rots * Self::W_GIANT
            + counts.moddowns * Self::W_MODDOWN
            + Self::distinct_steps(blocks, n1) * Self::W_KEY
    }

    fn counts_for(
        blocks: &BTreeMap<(u32, u32), Vec<u32>>,
        _slots: usize,
        n1: usize,
        _in_blocks: usize,
        out_blocks: usize,
    ) -> PlanCounts {
        use std::collections::HashMap;
        let mut babies: HashMap<u32, BTreeSet<usize>> = HashMap::new();
        let mut giants: HashMap<u32, BTreeSet<usize>> = HashMap::new();
        let mut pmults = 0usize;
        for (&(i_blk, j_blk), diags) in blocks {
            pmults += diags.len();
            for &k in diags {
                let i = (k as usize) % n1;
                let j = (k as usize) / n1;
                if i != 0 {
                    babies.entry(j_blk).or_default().insert(i);
                }
                giants.entry(i_blk).or_default().insert(j);
            }
        }
        let hoists = babies.len();
        let baby_rots: usize = babies.values().map(|s| s.len()).sum();
        let giant_rots: usize = giants
            .values()
            .map(|s| s.iter().filter(|&&j| j != 0).count())
            .sum();
        let moddowns: usize = giants.values().map(|s| s.len()).sum();
        PlanCounts {
            hoists,
            baby_rots,
            giant_rots,
            pmults,
            moddowns,
            rescales: out_blocks,
        }
    }
}

/// Iterates the Toeplitz entries of a convolution as row segments:
/// `f(co, ci, ky, kx, row, delta, count)` where the segment's entries are
/// `(row + m·t_out, row + m·t_out + delta)` for `m < count`.
pub fn for_each_conv_segment<F>(
    in_l: &TensorLayout,
    out_l: &TensorLayout,
    spec: &ConvSpec,
    mut f: F,
) where
    F: FnMut(usize, usize, usize, usize, usize, i64, usize),
{
    assert_eq!(
        out_l.t,
        in_l.t * spec.stride,
        "output gap must be stride × input gap"
    );
    assert_eq!(in_l.c, spec.ci);
    assert_eq!(out_l.c, spec.co);
    let (ho, wo) = (out_l.h, out_l.w);
    let (hi, wi) = (in_l.h, in_l.w);
    let co_per_g = spec.co / spec.groups;
    let ci_per_g = spec.ci / spec.groups;
    let s = spec.stride;
    let d = spec.dilation;
    let p = spec.padding as isize;
    let step = out_l.t;
    for g in 0..spec.groups {
        for oc in 0..co_per_g {
            let co = g * co_per_g + oc;
            for ic in 0..ci_per_g {
                let ci = g * ci_per_g + ic;
                for ky in 0..spec.kh {
                    for kx in 0..spec.kw {
                        // valid ox range (independent of oy)
                        let off_x = (kx * d) as isize - p;
                        let ox_lo = if off_x < 0 {
                            ((-off_x) as usize).div_ceil(s)
                        } else {
                            0
                        };
                        let hi_x = wi as isize - 1 - off_x;
                        if hi_x < 0 {
                            continue;
                        }
                        let ox_hi = ((hi_x as usize) / s).min(wo - 1);
                        if ox_lo > ox_hi {
                            continue;
                        }
                        let count = ox_hi - ox_lo + 1;
                        let off_y = (ky * d) as isize - p;
                        for oy in 0..ho {
                            let iy = oy as isize * s as isize + off_y;
                            if iy < 0 || iy >= hi as isize {
                                continue;
                            }
                            let ix0 = ox_lo as isize * s as isize + off_x;
                            let row = out_l.slot_of(co, oy, ox_lo);
                            let col = in_l.slot_of(ci, iy as usize, ix0 as usize);
                            let delta = col as i64 - row as i64;
                            f(co, ci, ky, kx, row, delta, count);
                            // sanity: the per-ox slot steps agree
                            debug_assert_eq!(in_l.t * s, step);
                        }
                    }
                }
            }
        }
    }
}

/// Builds the single-shot multiplexed plan of a convolution; returns the
/// plan and the output layout. One multiplicative level, any stride.
pub fn conv_plan(in_l: &TensorLayout, spec: &ConvSpec, slots: usize) -> (LinearPlan, TensorLayout) {
    let (ho, wo) = spec.out_hw(in_l.h, in_l.w);
    let out_l = in_l.after_conv(spec.co, ho, wo, spec.stride);
    let mut b = PlanBuilder::default();
    for_each_conv_segment(
        in_l,
        &out_l,
        spec,
        |_co, _ci, _ky, _kx, row, delta, count| {
            b.add_segment(slots, row, delta, out_l.t, count);
        },
    );
    let plan = b.finish(
        slots,
        in_l.num_ciphertexts(slots),
        out_l.num_ciphertexts(slots),
    );
    (plan, out_l)
}

/// Builds the plan of a dense fully-connected layer reading a (possibly
/// multiplexed) input layout. Diagonal sets are computed analytically — a
/// dense matrix touches a contiguous cyclic band of diagonals per block.
pub fn dense_plan(in_l: &TensorLayout, n_out: usize, slots: usize) -> (LinearPlan, TensorLayout) {
    let cols = in_l.total_slots();
    let out_l = TensorLayout::raster(n_out, 1, 1);
    let in_blocks = cols.div_ceil(slots);
    let out_blocks = n_out.div_ceil(slots);
    let mut b = PlanBuilder::default();
    for i_blk in 0..out_blocks {
        let rb = slots.min(n_out - i_blk * slots);
        for j_blk in 0..in_blocks {
            let cb = slots.min(cols - j_blk * slots);
            let set = b.blocks.entry((i_blk as u32, j_blk as u32)).or_default();
            if rb + cb > slots {
                for k in 0..slots {
                    set.insert(k as u32);
                }
            } else {
                // k = (c0 - r0) mod slots for r0 < rb, c0 < cb.
                for k in 0..cb {
                    set.insert(k as u32);
                }
                for k in (slots - rb + 1)..slots {
                    set.insert(k as u32);
                }
            }
        }
    }
    let plan = b.finish(slots, in_blocks, out_blocks);
    (plan, out_l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn siso_same() -> (TensorLayout, ConvSpec) {
        (
            TensorLayout::raster(1, 8, 8),
            ConvSpec {
                co: 1,
                ci: 1,
                kh: 3,
                kw: 3,
                stride: 1,
                padding: 1,
                dilation: 1,
                groups: 1,
            },
        )
    }

    #[test]
    fn siso_same_conv_has_at_most_f_diagonals() {
        // Paper Figure 3: a same-style SISO 3×3 convolution has exactly
        // f_h·f_w = 9 generalized diagonals.
        let (l, spec) = siso_same();
        let (plan, out_l) = conv_plan(&l, &spec, 64);
        assert_eq!(out_l.h, 8);
        let total: usize = plan.blocks.values().map(|d| d.len()).sum();
        assert_eq!(total, 9);
        assert_eq!(plan.counts.rescales, 1);
    }

    #[test]
    fn bsgs_reduces_rotations_on_dense_matvec() {
        // Dense n×n in one block: diagonal method needs n−1 rotations; BSGS
        // stays O(√n) (paper §3.2). The key-switch-aware chooser may shift
        // the split one notch toward fewer giant steps, so allow 3√n.
        let n = 256;
        let (plan, _) = dense_plan(&TensorLayout::raster(n, 1, 1), n, n);
        assert!(plan.n1 > 1 && plan.n1 < n, "dense must keep a real split");
        let rots = plan.counts.rotations();
        assert!(rots <= 3 * ((n as f64).sqrt() as usize), "rots = {rots}");
        assert!(rots < n - 1);
        assert_eq!(plan.counts.pmults, n);
        // The chooser's whole point: fewer digit decompositions than the
        // raw rotation-minimizing split (n1 = 16 → 1 + 15 decompositions).
        assert!(
            plan.counts.decompositions() <= 16,
            "decompositions = {}",
            plan.counts.decompositions()
        );
    }

    #[test]
    fn sparse_conv_hoists_all_rotations() {
        // A SISO 3×3 conv has ≤ 9 diagonals: hoisting every one of them as
        // a baby step (n1 = slots) costs at most 8 keys but eliminates the
        // giant-step rotations — and with them all per-rotation digit
        // decompositions. One hoist per layer remains.
        let (l, spec) = siso_same();
        let (plan, _) = conv_plan(&l, &spec, 64);
        assert_eq!(plan.counts.giant_rots, 0, "n1 = {}", plan.n1);
        assert_eq!(plan.counts.decompositions(), plan.counts.hoists);
        assert_eq!(plan.counts.hoists, 1);
        assert_eq!(plan.counts.moddowns, 1);
    }

    #[test]
    fn chooser_never_loses_to_rotation_min_on_decompositions() {
        // Against the old rotation-count objective, the weighted chooser
        // must never *increase* decompositions, and must strictly reduce
        // them on sparse conv structure.
        let shapes = {
            let (l, spec) = siso_same();
            let (conv, _) = conv_plan(&l, &spec, 64);
            let (dense, _) = dense_plan(&TensorLayout::raster(256, 1, 1), 256, 256);
            vec![(conv.blocks, 64usize), (dense.blocks, 256usize)]
        };
        for (blocks, slots) in shapes {
            let chosen = {
                let b = PlanBuilder {
                    blocks: blocks
                        .iter()
                        .map(|(k, v)| (*k, v.iter().copied().collect()))
                        .collect(),
                };
                b.finish(slots, 1, 1).counts
            };
            // Re-derive the rotation-minimizing split by hand.
            let mut rotmin: Option<PlanCounts> = None;
            let mut n1 = 1usize;
            while n1 <= slots {
                let c = PlanBuilder::counts_for(&blocks, slots, n1, 1, 1);
                if rotmin
                    .map(|r| c.rotations() < r.rotations())
                    .unwrap_or(true)
                {
                    rotmin = Some(c);
                }
                n1 *= 2;
            }
            let rotmin = rotmin.unwrap();
            assert!(
                chosen.decompositions() <= rotmin.decompositions(),
                "chosen {chosen:?} vs rotation-min {rotmin:?}"
            );
        }
    }

    #[test]
    fn strided_conv_stays_dense() {
        // Stride-2 single-shot multiplexed conv: diagonal count stays
        // O(f·c) — NOT O(c·h·w) as the naive Toeplitz would (Figure 5).
        let l = TensorLayout::raster(4, 8, 8);
        let spec = ConvSpec {
            co: 8,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let (plan, out_l) = conv_plan(&l, &spec, 512);
        assert_eq!(out_l.t, 2);
        assert_eq!(out_l.h, 4);
        let total: usize = plan.blocks.values().map(|d| d.len()).sum();
        // combos = co·ci·kh·kw = 288 is a hard upper bound; boundary rows
        // may split a few, but we must be far from ci·hi·wi·… scale.
        assert!(total <= 8 * 4 * 9 * 2, "diagonals exploded: {total}");
    }

    #[test]
    fn multi_block_plan_covers_all_blocks() {
        // Force multiple ciphertexts: 4×8×8 = 256 slots with 128-slot cts.
        let l = TensorLayout::raster(4, 8, 8);
        let spec = ConvSpec {
            co: 4,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let (plan, _) = conv_plan(&l, &spec, 128);
        assert_eq!(plan.in_blocks, 2);
        assert_eq!(plan.out_blocks, 2);
        let i_blocks: std::collections::BTreeSet<u32> =
            plan.blocks.keys().map(|&(i, _)| i).collect();
        assert_eq!(i_blocks.len(), 2);
    }

    #[test]
    fn grouped_conv_has_fewer_diagonals() {
        let l = TensorLayout::raster(8, 8, 8);
        let full = ConvSpec {
            co: 8,
            ci: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let depthwise = ConvSpec { groups: 8, ..full };
        let (plan_full, _) = conv_plan(&l, &full, 1024);
        let (plan_dw, _) = conv_plan(&l, &depthwise, 1024);
        let full_diags: usize = plan_full.blocks.values().map(|d| d.len()).sum();
        let dw_diags: usize = plan_dw.blocks.values().map(|d| d.len()).sum();
        assert!(dw_diags < full_diags / 4, "{dw_diags} vs {full_diags}");
    }

    #[test]
    fn rotation_steps_cover_plan() {
        let (l, spec) = siso_same();
        let (plan, _) = conv_plan(&l, &spec, 64);
        let steps = plan.rotation_steps();
        assert!(!steps.is_empty());
        for &s in &steps {
            assert!(s > 0 && (s as usize) < 64);
        }
    }

    #[test]
    fn plan_latency_increases_with_level() {
        let (l, spec) = siso_same();
        let (plan, _) = conv_plan(&l, &spec, 64);
        let cost = CostModel::paper();
        assert!(plan.latency(&cost, 8) > plan.latency(&cost, 2));
    }
}
