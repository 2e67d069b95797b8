//! Plan executors.
//!
//! [`exec_plain`] runs a plan on cleartext slot vectors using exactly the
//! executor's rotation algebra (hoisted baby steps, pre-rotated diagonals,
//! giant-step group rotations) — it is the correctness oracle for the
//! packing math, compared against reference convolutions in tests.
//!
//! [`exec_prepared`] is the real thing: double-hoisted BSGS over CKKS
//! ciphertexts (paper Equation (1)) from a [`PreparedLayer`]. Baby-step
//! rotations share one digit decomposition per input ciphertext (or come
//! from a caller's [`SharedRotations`]); giant-step groups accumulate in the
//! extended basis through the fused lazy kernel
//! ([`ExtAccumulator::add_groups`]) with one deferred ModDown each. Weights
//! are encoded at prime scale so each linear layer consumes exactly one
//! level and returns the ciphertext scale to precisely Δ. Running a layer
//! on the fly ([`exec_fhe`]) is preparing it, then running it.

use crate::plan::LinearPlan;
use crate::prepared::PreparedLayer;
use crate::values::DiagSource;
use orion_ckks::encoder::Encoder;
use orion_ckks::encrypt::{Ciphertext, Plaintext};
use orion_ckks::eval::Evaluator;
use orion_ckks::hoist::{ExtAccumulator, HoistedDigits, RotatedExt, Term};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The panic message of a linear consumer whose rotation is missing from
/// the shared set it was handed — identical for the CKKS and plain paths.
const MISSING_SHARED: &str = "linear consumer needs a rotation missing from the shared unit";

/// Rotates a cleartext slot vector "up" by `k` (CKKS `HRot` semantics).
fn rot_plain(v: &[f64], k: usize) -> Vec<f64> {
    let n = v.len();
    let k = k % n;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&v[k..]);
    out.extend_from_slice(&v[..k]);
    out
}

/// Executes a plan on cleartext slot blocks (see [`exec_plain_with`]).
pub fn exec_plain(
    plan: &LinearPlan,
    source: &(dyn DiagSource + Sync),
    inputs: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    exec_plain_with(plan, source, inputs, None)
}

/// Executes a plan on cleartext slot blocks, one job per output block on
/// the shared rayon pool (paper §4.3: "each block performs independent
/// work and is well-suited for parallel execution across multiple
/// threads"). With `shared` (see [`shared_rot_plain`]) every non-zero
/// baby-step rotation is read from that map, and a missing entry panics
/// exactly like [`SharedRotations::get`]. Within an output block, terms
/// accumulate per giant step in plan order and the giant steps are summed
/// in ascending order, so the result does not depend on the pool.
pub fn exec_plain_with(
    plan: &LinearPlan,
    source: &(dyn DiagSource + Sync),
    inputs: &[Vec<f64>],
    shared: Option<&HashMap<(u32, usize), Vec<f64>>>,
) -> Vec<Vec<f64>> {
    assert_eq!(inputs.len(), plan.in_blocks);
    let slots = plan.slots;
    let n1 = plan.n1;
    let mut out = vec![vec![0.0; slots]; plan.out_blocks];
    out.par_iter_mut()
        .enumerate()
        .for_each(|(i_out, out_block)| {
            let i_out = i_out as u32;
            let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
            for (&(i_blk, j_blk), diags) in plan.blocks.range((i_out, 0)..=(i_out, u32::MAX)) {
                let vals = source.block_diags(plan, i_blk, j_blk);
                let input = &inputs[j_blk as usize];
                for &k in diags {
                    let Some(d) = vals.get(&k) else { continue };
                    let i = (k as usize) % n1;
                    let j = (k as usize) / n1;
                    let rotated: Cow<'_, [f64]> = match shared {
                        _ if i == 0 => Cow::Borrowed(input),
                        Some(map) => Cow::Borrowed(map.get(&(j_blk, i)).expect(MISSING_SHARED)),
                        None => Cow::Owned(rot_plain(input, i)),
                    };
                    let acc = groups.entry(j).or_insert_with(|| vec![0.0; slots]);
                    for ((a, &dv), &xv) in acc.iter_mut().zip(d).zip(rotated.iter()) {
                        *a += dv * xv;
                    }
                }
            }
            for (j, acc) in groups {
                let part = rot_plain(&acc, (j * n1) % slots);
                for (o, p) in out_block.iter_mut().zip(&part) {
                    *o += p;
                }
            }
        });
    out
}

/// Handles bundling the CKKS evaluator and encoder for FHE execution.
pub struct FheLinearContext<'a> {
    /// The evaluator (must hold rotation keys for `plan.rotation_steps()`).
    pub eval: &'a Evaluator,
    /// The encoder.
    pub enc: &'a Encoder,
}

/// Executes a plan homomorphically with its weights encoded on the fly:
/// builds the layer's [`PreparedLayer`] at the inputs' level, then runs it
/// through [`exec_prepared`]. Inputs must share one level and scale Δ;
/// outputs are one level lower at exactly scale Δ (single-shot: even
/// strided convolutions consume one level — paper §4).
pub fn exec_fhe(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    source: &(dyn DiagSource + Sync),
    bias: Option<&[Vec<f64>]>,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    let level = input_level(ctx, plan, inputs);
    let prepared = PreparedLayer::build(ctx.enc, plan, source, bias, level);
    exec_prepared(ctx, plan, &prepared, inputs, None)
}

/// Baby-step rotations of one wire's ciphertexts, computed once and shared
/// by every linear consumer of the wire (cross-wire rotation CSE). Each
/// entry is the double-hoisted key-switch inner product
/// [`HoistedDigits::rotate_ext`] would produce — a deterministic pure
/// function of the (dropped) ciphertext and the rotation amount, so a
/// consumer reading the shared entry computes bit-identical results to one
/// that hoisted privately.
pub struct SharedRotations {
    rotations: HashMap<(u32, usize), RotatedExt>,
}

impl SharedRotations {
    /// Hoists each input block named in `rots` once and computes every
    /// listed `(input block, amount)` rotation in the extended basis, in
    /// parallel on the shared pool. Amounts must be non-zero (rotation by
    /// 0 never touches the key-switch — consumers build those locally from
    /// the ciphertexts they already hold).
    pub fn build(ctx: &FheLinearContext<'_>, inputs: &[Ciphertext], rots: &[(u32, usize)]) -> Self {
        let blocks: Vec<u32> = rots
            .iter()
            .map(|&(j_blk, _)| j_blk)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let hoisted: HashMap<u32, HoistedDigits> = blocks
            .par_iter()
            .map(|&j_blk| {
                (
                    j_blk,
                    HoistedDigits::new(ctx.eval.context(), &inputs[j_blk as usize]),
                )
            })
            .collect();
        let rotations: HashMap<(u32, usize), RotatedExt> = rots
            .par_iter()
            .map(|&(j_blk, i)| {
                assert_ne!(i, 0, "shared rotations are non-zero by construction");
                ((j_blk, i), hoisted[&j_blk].rotate_ext(ctx.eval, i as isize))
            })
            .collect();
        Self { rotations }
    }

    /// The shared inner product for `(input block, amount)`.
    pub fn get(&self, j_blk: u32, i: usize) -> &RotatedExt {
        self.rotations.get(&(j_blk, i)).expect(MISSING_SHARED)
    }

    /// Number of shared rotations.
    pub fn len(&self) -> usize {
        self.rotations.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rotations.is_empty()
    }
}

/// [`exec_prepared`] reading its non-zero baby-step rotations from a
/// [`SharedRotations`] — the consumer side of cross-wire rotation CSE.
pub fn exec_fhe_prepared_shared(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    prepared: &PreparedLayer,
    inputs: &[Ciphertext],
    shared: &SharedRotations,
) -> Vec<Ciphertext> {
    exec_prepared(ctx, plan, prepared, inputs, Some(shared))
}

/// Cleartext counterpart of [`SharedRotations`]: pre-rotated slot vectors
/// per `(input block, amount)`, shared across every plain consumer of the
/// wire. `rot_plain` is deterministic, so sharing is trivially exact.
pub fn shared_rot_plain(
    inputs: &[Vec<f64>],
    rots: &[(u32, usize)],
) -> HashMap<(u32, usize), Vec<f64>> {
    rots.iter()
        .map(|&(j_blk, i)| ((j_blk, i), rot_plain(&inputs[j_blk as usize], i)))
        .collect()
}

/// `(output block, giant step)`: one giant-step group.
type GroupKey = (u32, usize);

/// `(input block, baby step)`: one baby-step rotation.
type RotKey = (u32, usize);

/// Every giant-step group's work list in plan order: `(rotation, encoded
/// diagonal)` per term.
type Groups<'p> = BTreeMap<GroupKey, Vec<(RotKey, &'p Plaintext)>>;

/// The level the inputs share, after checking them against the plan.
fn input_level(ctx: &FheLinearContext<'_>, plan: &LinearPlan, inputs: &[Ciphertext]) -> usize {
    assert_eq!(inputs.len(), plan.in_blocks);
    assert_eq!(
        plan.slots,
        ctx.eval.context().slots(),
        "plan/context slot mismatch"
    );
    inputs[0].level()
}

/// The baby-step rotations one executor call reads: the non-zero ones from
/// a [`SharedRotations`] (the caller's, or a private one hoisted here),
/// rotation by 0 as a local view of the input (no key-switch involved).
struct BabySteps<'a> {
    identities: HashMap<u32, RotatedExt>,
    borrowed: Option<&'a SharedRotations>,
    owned: Option<SharedRotations>,
}

impl<'a> BabySteps<'a> {
    fn new(
        ctx: &FheLinearContext<'_>,
        inputs: &[Ciphertext],
        groups: &Groups<'_>,
        shared: Option<&'a SharedRotations>,
    ) -> Self {
        let used: BTreeSet<RotKey> = groups.values().flatten().map(|(rk, _)| *rk).collect();
        let identities = used
            .iter()
            .filter(|&&(_, i)| i == 0)
            .map(|&(j_blk, _)| (j_blk, RotatedExt::identity(&inputs[j_blk as usize])))
            .collect();
        let owned = shared.is_none().then(|| {
            let rots: Vec<RotKey> = used.into_iter().filter(|&(_, i)| i != 0).collect();
            SharedRotations::build(ctx, inputs, &rots)
        });
        Self {
            identities,
            borrowed: shared,
            owned,
        }
    }

    fn get(&self, (j_blk, i): RotKey) -> &RotatedExt {
        if i == 0 {
            &self.identities[&j_blk]
        } else {
            let shared = self.borrowed.or(self.owned.as_ref());
            shared
                .expect("private rotations are built when none are shared")
                .get(j_blk, i)
        }
    }
}

/// Runs giant-step groups: accumulates every term through the fused
/// kernel in one [`ExtAccumulator::add_groups`] batch (limb × element
/// slice jobs, on the shared pool from N = 2¹², so layers with few groups
/// still use every core), then each group's deferred ModDown and giant
/// rotation in parallel. Returns each group's partial sum tagged with its
/// output block, in group order.
fn giant_step_parts(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    level: usize,
    steps: &BabySteps<'_>,
    groups: &Groups<'_>,
) -> Vec<(u32, Ciphertext)> {
    let terms: Vec<Vec<Term<'_>>> = groups
        .values()
        .map(|ts| ts.iter().map(|&(rk, pt)| (steps.get(rk), pt)).collect())
        .collect();
    let slices: Vec<&[Term<'_>]> = terms.iter().map(Vec::as_slice).collect();
    let mut accs: Vec<ExtAccumulator> = groups
        .keys()
        .map(|_| ExtAccumulator::new(ctx.eval.context(), level))
        .collect();
    ExtAccumulator::add_groups(&mut accs, ctx.eval, &slices);
    let jobs: Vec<(GroupKey, ExtAccumulator)> = groups.keys().copied().zip(accs).collect();
    jobs.into_par_iter()
        .map(|((i_blk, j), acc)| {
            let mut part = acc.finalize(ctx.eval);
            let g = (j * plan.n1) % plan.slots;
            if g != 0 {
                part = ctx.eval.rotate(&part, g as isize);
            }
            (i_blk, part)
        })
        .collect()
}

/// The FHE linear executor: every diagonal, bias block, and the zero
/// plaintext come from `prepared`; non-zero baby-step rotations come from
/// `shared` when given, else from one private hoist per input block. The
/// expensive per-request stages fan out on the shared rayon pool:
///
/// 1. the distinct baby-step `rotate_ext` key-switch inner products
///    (independent per `(input block, baby step)`),
/// 2. the fused giant-step accumulation of every `(output block, giant
///    step)` group, split into (limb × element slice) jobs, and
/// 3. each group's deferred ModDown and giant rotation.
///
/// The group parts are then summed per output block in group order,
/// rescaled and biased. An output block no diagonal touches is an input
/// times the zero plaintext (encrypt-free). Modular arithmetic is exact, so
/// the result is the same bits whichever rotation source is used.
pub fn exec_prepared(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    prepared: &PreparedLayer,
    inputs: &[Ciphertext],
    shared: Option<&SharedRotations>,
) -> Vec<Ciphertext> {
    let level = input_level(ctx, plan, inputs);
    assert_eq!(
        level, prepared.level,
        "inputs must arrive at the prepared level"
    );
    let mut groups: Groups<'_> = BTreeMap::new();
    for (&(i_blk, j_blk), diags) in &plan.blocks {
        let Some(block) = prepared.diags.get(&(i_blk, j_blk)) else {
            continue;
        };
        for &k in diags {
            let Some(pt) = block.get(&k) else { continue };
            let (i, j) = ((k as usize) % plan.n1, (k as usize) / plan.n1);
            groups.entry((i_blk, j)).or_default().push(((j_blk, i), pt));
        }
    }
    let steps = BabySteps::new(ctx, inputs, &groups, shared);
    let mut out: Vec<Option<Ciphertext>> = vec![None; plan.out_blocks];
    for (i_blk, part) in giant_step_parts(ctx, plan, level, &steps, &groups) {
        let slot_ref = &mut out[i_blk as usize];
        *slot_ref = Some(match slot_ref.take() {
            None => part,
            Some(prev) => ctx.eval.add(&prev, &part),
        });
    }
    out.into_iter()
        .enumerate()
        .map(|(i_blk, o)| {
            let mut ct = o.unwrap_or_else(|| ctx.eval.mul_plain(&inputs[0], &prepared.zero));
            ctx.eval.rescale_assign(&mut ct);
            match &prepared.bias {
                Some(b) => ctx.eval.add_plain(&ct, &b[i_blk]),
                None => ct,
            }
        })
        .collect()
}

/// [`exec_prepared`] with privately hoisted baby-step rotations — the
/// serving path, with zero per-request plaintext encodes.
pub fn exec_fhe_prepared(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    prepared: &PreparedLayer,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    exec_prepared(ctx, plan, prepared, inputs, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TensorLayout;
    use crate::plan::{conv_plan, dense_plan, ConvSpec};
    use crate::values::{BiasValues, ConvDiagSource, DenseDiagSource};
    use orion_ckks::keys::KeyGenerator;
    use orion_ckks::params::{CkksParams, Context};
    use orion_ckks::{Decryptor, Encryptor};
    use orion_tensor::{conv2d, linear, Conv2dParams, Tensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// Runs one conv config through exec_plain and compares with the
    /// reference convolution.
    fn check_conv_plain(c_in: usize, h: usize, w: usize, spec: ConvSpec, slots: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_l = TensorLayout::raster(c_in, h, w);
        let input = random_tensor(&[c_in, h, w], &mut rng);
        let weights = random_tensor(
            &[spec.co, spec.ci / spec.groups, spec.kh, spec.kw],
            &mut rng,
        );
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &weights,
        };

        // pack input into blocks
        let packed = in_l.pack(input.data());
        let mut blocks = vec![vec![0.0; slots]; plan.in_blocks];
        for (i, &v) in packed.iter().enumerate() {
            blocks[i / slots][i % slots] = v;
        }
        let out_blocks = exec_plain(&plan, &src, &blocks);
        let mut out_slots = Vec::new();
        for b in &out_blocks {
            out_slots.extend_from_slice(b);
        }
        let got = out_l.unpack(&out_slots[..]);

        let p = Conv2dParams {
            stride: spec.stride,
            padding: spec.padding,
            dilation: spec.dilation,
            groups: spec.groups,
        };
        let expect = conv2d(&input, &weights, &[], p);
        assert_eq!(got.len(), expect.len());
        for (idx, (a, b)) in got.iter().zip(expect.data()).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "mismatch at {idx}: {a} vs {b} (spec {spec:?})"
            );
        }
    }

    #[test]
    fn plain_same_conv_matches_reference() {
        let spec = ConvSpec {
            co: 4,
            ci: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        check_conv_plain(3, 8, 8, spec, 512, 1);
    }

    #[test]
    fn plain_strided_conv_matches_reference() {
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
        check_conv_plain(4, 8, 8, spec, 512, 2);
    }

    #[test]
    fn plain_stride3_valid_conv_matches_reference() {
        let spec = ConvSpec {
            co: 2,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 3,
            padding: 0,
            dilation: 1,
            groups: 1,
        };
        check_conv_plain(2, 9, 9, spec, 256, 3);
    }

    #[test]
    fn plain_dilated_conv_matches_reference() {
        let spec = ConvSpec {
            co: 3,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 2,
            dilation: 2,
            groups: 1,
        };
        check_conv_plain(2, 8, 8, spec, 256, 4);
    }

    #[test]
    fn plain_grouped_conv_matches_reference() {
        let spec = ConvSpec {
            co: 8,
            ci: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 4,
        };
        check_conv_plain(8, 6, 6, spec, 512, 5);
    }

    #[test]
    fn plain_depthwise_strided_matches_reference() {
        let spec = ConvSpec {
            co: 4,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 4,
        };
        check_conv_plain(4, 8, 8, spec, 512, 6);
    }

    #[test]
    fn plain_multi_block_conv_matches_reference() {
        // Input spans 2 ciphertexts, output spans 2.
        let spec = ConvSpec {
            co: 8,
            ci: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        check_conv_plain(8, 8, 8, spec, 256, 7);
    }

    #[test]
    fn plain_1x1_downsample_matches_reference() {
        // ResNet shortcut: 1×1 stride-2.
        let spec = ConvSpec {
            co: 8,
            ci: 4,
            kh: 1,
            kw: 1,
            stride: 2,
            padding: 0,
            dilation: 1,
            groups: 1,
        };
        check_conv_plain(4, 8, 8, spec, 256, 8);
    }

    #[test]
    fn plain_cascaded_strided_convs_match_reference() {
        // Two strided convolutions back to back: the multiplexed layout of
        // the first output (t = 2) feeds the second (t = 4).
        let mut rng = StdRng::seed_from_u64(9);
        let in_l = TensorLayout::raster(2, 8, 8);
        let s1 = ConvSpec {
            co: 4,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let s2 = ConvSpec {
            co: 8,
            ci: 4,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let input = random_tensor(&[2, 8, 8], &mut rng);
        let w1 = random_tensor(&[4, 2, 3, 3], &mut rng);
        let w2 = random_tensor(&[8, 4, 3, 3], &mut rng);
        let slots = 256;
        let (p1, l1) = conv_plan(&in_l, &s1, slots);
        let (p2, l2) = conv_plan(&l1, &s2, slots);
        let src1 = ConvDiagSource {
            in_l,
            out_l: l1,
            spec: s1,
            weights: &w1,
        };
        let src2 = ConvDiagSource {
            in_l: l1,
            out_l: l2,
            spec: s2,
            weights: &w2,
        };
        let packed = in_l.pack(input.data());
        let mut blocks = vec![vec![0.0; slots]; p1.in_blocks];
        for (i, &v) in packed.iter().enumerate() {
            blocks[i / slots][i % slots] = v;
        }
        let mid = exec_plain(&p1, &src1, &blocks);
        let out = exec_plain(&p2, &src2, &mid);
        let mut out_slots = Vec::new();
        for b in &out {
            out_slots.extend_from_slice(b);
        }
        let got = l2.unpack(&out_slots);
        let params = |s: &ConvSpec| Conv2dParams {
            stride: s.stride,
            padding: s.padding,
            dilation: s.dilation,
            groups: s.groups,
        };
        let expect = conv2d(
            &conv2d(&input, &w1, &[], params(&s1)),
            &w2,
            &[],
            params(&s2),
        );
        for (a, b) in got.iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn plain_dense_matches_reference() {
        let mut rng = StdRng::seed_from_u64(10);
        let in_l = TensorLayout {
            c: 8,
            h: 2,
            w: 2,
            t: 2,
        }; // multiplexed input
        let n_out = 10;
        let w = random_tensor(&[n_out, 32], &mut rng);
        let input: Vec<f64> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let slots = 64;
        let (plan, _) = dense_plan(&in_l, n_out, slots);
        let src = DenseDiagSource::new(w.clone(), &in_l);
        let packed = in_l.pack(&input);
        let mut blocks = vec![vec![0.0; slots]; plan.in_blocks];
        for (i, &v) in packed.iter().enumerate() {
            blocks[i / slots][i % slots] = v;
        }
        let out = exec_plain(&plan, &src, &blocks);
        let expect = linear(&input, &w, &[]);
        for (i, e) in expect.iter().enumerate() {
            assert!(
                (out[0][i] - e).abs() < 1e-9,
                "row {i}: {} vs {e}",
                out[0][i]
            );
        }
    }

    /// The headline single-shot claim, on real FHE: a stride-2 convolution
    /// consumes exactly ONE level and matches the reference.
    #[test]
    fn fhe_strided_conv_one_level() {
        let ctx = Context::new(CkksParams::tiny());
        let slots = ctx.slots(); // 512
        let mut rng = StdRng::seed_from_u64(11);
        let in_l = TensorLayout::raster(2, 8, 8);
        let spec = ConvSpec {
            co: 4,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let input = random_tensor(&[2, 8, 8], &mut rng);
        let weights = random_tensor(&[4, 2, 3, 3], &mut rng);
        let bias = vec![0.1, -0.2, 0.3, 0.05];
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        assert_eq!(plan.in_blocks, 1);

        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(12));
        let pk = std::sync::Arc::new(kg.gen_public_key());
        let keys = std::sync::Arc::new(kg.gen_eval_keys(&plan.rotation_steps()));
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_public_key(ctx.clone(), pk);
        let dec = Decryptor::new(ctx.clone(), sk);
        let eval = Evaluator::new(ctx.clone(), keys);

        let packed = in_l.pack(input.data());
        let level = 2;
        let ct = encryptor.encrypt(&enc.encode(&packed, ctx.scale(), level, false), &mut rng);
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &weights,
        };
        let bias_blocks = BiasValues::conv(&out_l, &bias, slots);
        let fhe_ctx = FheLinearContext {
            eval: &eval,
            enc: &enc,
        };
        let out = exec_fhe(&fhe_ctx, &plan, &src, Some(&bias_blocks), &[ct]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].level(), level - 1, "single-shot: exactly one level");
        assert_eq!(out[0].scale, ctx.scale(), "errorless: scale returns to Δ");

        let got_slots = enc.decode(&dec.decrypt(&out[0]));
        let got = out_l.unpack(&got_slots);
        let p = Conv2dParams {
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let expect = conv2d(&input, &weights, &bias, p);
        for (i, (a, b)) in got.iter().zip(expect.data()).enumerate() {
            assert!((a - b).abs() < 1e-2, "slot {i}: {a} vs {b}");
        }
    }

    #[test]
    fn fhe_dense_layer_matches_reference() {
        let ctx = Context::new(CkksParams::tiny());
        let slots = ctx.slots();
        let mut rng = StdRng::seed_from_u64(13);
        let in_l = TensorLayout::raster(16, 4, 4); // 256 features
        let n_out = 10;
        let w = random_tensor(&[n_out, 256], &mut rng);
        let input: Vec<f64> = (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (plan, _) = dense_plan(&in_l, n_out, slots);
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(14));
        let pk = std::sync::Arc::new(kg.gen_public_key());
        let keys = std::sync::Arc::new(kg.gen_eval_keys(&plan.rotation_steps()));
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_public_key(ctx.clone(), pk);
        let dec = Decryptor::new(ctx.clone(), sk);
        let eval = Evaluator::new(ctx.clone(), keys);
        let packed = in_l.pack(&input);
        let ct = encryptor.encrypt(&enc.encode(&packed, ctx.scale(), 1, false), &mut rng);
        let src = DenseDiagSource::new(w.clone(), &in_l);
        let fhe_ctx = FheLinearContext {
            eval: &eval,
            enc: &enc,
        };
        let out = exec_fhe(&fhe_ctx, &plan, &src, None, &[ct]);
        let got = enc.decode(&dec.decrypt(&out[0]));
        let expect = linear(&input, &w, &[]);
        for (i, e) in expect.iter().enumerate() {
            assert!((got[i] - e).abs() < 5e-2, "row {i}: {} vs {e}", got[i]);
        }
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::layout::TensorLayout;
    use crate::plan::{conv_plan, ConvSpec};
    use crate::values::ConvDiagSource;
    use orion_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A 3×3 conv spanning 4 input and 4 output blocks at 128 slots, and
    /// its packed input blocks.
    fn multi_block_conv(weights: &Tensor) -> (LinearPlan, ConvDiagSource<'_>, Vec<Vec<f64>>) {
        let in_l = TensorLayout::raster(8, 8, 8);
        let spec = ConvSpec {
            co: 8,
            ci: 8,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let slots = 128;
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        assert!(plan.out_blocks > 1, "test needs multiple output blocks");
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights,
        };
        let packed = in_l.pack(&(0..512).map(|i| (i % 17) as f64 * 0.1).collect::<Vec<_>>());
        let mut blocks = vec![vec![0.0; slots]; plan.in_blocks];
        for (i, &v) in packed.iter().enumerate() {
            blocks[i / slots][i % slots] = v;
        }
        (plan, src, blocks)
    }

    fn random_weights() -> Tensor {
        let mut rng = StdRng::seed_from_u64(77);
        Tensor::from_vec(
            &[8, 8, 3, 3],
            (0..576).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn parallel_blocks_match_sequential() {
        let weights = random_weights();
        let (plan, src, blocks) = multi_block_conv(&weights);
        let private = exec_plain(&plan, &src, &blocks);
        let rots: Vec<(u32, usize)> = plan.baby_rotations().into_iter().collect();
        let shared = shared_rot_plain(&blocks, &rots);
        let from_shared = exec_plain_with(&plan, &src, &blocks, Some(&shared));
        assert_eq!(private, from_shared);
    }

    #[test]
    #[should_panic(expected = "linear consumer needs a rotation missing from the shared unit")]
    fn plain_shared_miss_panics_like_ckks() {
        let weights = random_weights();
        let (plan, src, blocks) = multi_block_conv(&weights);
        let mut rots: Vec<(u32, usize)> = plan.baby_rotations().into_iter().collect();
        rots.pop().expect("the conv rotates");
        let shared = shared_rot_plain(&blocks, &rots);
        exec_plain_with(&plan, &src, &blocks, Some(&shared));
    }
}
