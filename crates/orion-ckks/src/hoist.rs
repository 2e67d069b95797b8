//! Hoisted rotations and the lazy-ModDown accumulator (double-hoisting).
//!
//! Hoisting (paper §3.3) reuses the expensive digit decomposition of a
//! ciphertext across many rotations of that same ciphertext — exactly the
//! baby-step pattern of BSGS matrix–vector products. Double-hoisting
//! additionally keeps the inner-product accumulation in the extended basis
//! `Q·p`, performing a single ModDown per giant-step group instead of one
//! per rotation (Bossuat et al., Algorithm 6).

use crate::encrypt::{Ciphertext, Plaintext};
use crate::eval::Evaluator;
use crate::params::Context;
use crate::poly::{Form, RnsPoly};
use orion_math::simd::Kernels;
use orion_telemetry::{time_class, OpClass};

/// Decomposes `c` (evaluation form, no special limb) into per-limb digits
/// extended to the full basis `{q_0…q_ℓ, p}`, NTT'd and ready for
/// key-switch inner products.
///
/// Because each digit is a *single-limb* value (`< q_i`), basis extension
/// is exact integer reduction — no approximate CRT is needed.
pub fn decompose_digits(ctx: &Context, c: &RnsPoly) -> Vec<RnsPoly> {
    assert_eq!(c.form, Form::Eval);
    assert!(!c.has_special());
    let level = c.level();
    let p = ctx.special;
    // Each digit's basis extension performs `level + 2` NTTs and digits are
    // independent, so this is the key-switch hot loop the shared rayon pool
    // attacks first.
    let par = orion_math::parallel::ntt_parallel(ctx.degree(), level + 1);
    let n = ctx.degree();
    orion_math::parallel::map_indexed(level + 1, par, |i| {
        // Bring limb i to coefficient form (arena scratch, lazy NTT).
        let mut digit = orion_math::arena::scratch_u64_raw(n);
        digit.copy_from_slice(&c.limbs[i]);
        ctx.ntt[i].inverse_lazy(&mut digit);
        // Extend to every chain modulus and the special prime.
        let k = orion_math::simd::kernels();
        let extend = |q: u64, table: &orion_math::NttTable| -> Vec<u64> {
            let mut l = orion_math::arena::take_u64_raw(n);
            (k.mod_reduce)(&mut l, &digit, q);
            table.forward_lazy(&mut l);
            l
        };
        let limbs: Vec<Vec<u64>> = (0..=level)
            .map(|j| extend(ctx.moduli[j], &ctx.ntt[j]))
            .collect();
        let sp = extend(p, &ctx.ntt_special);
        RnsPoly {
            limbs,
            special: Some(sp),
            form: Form::Eval,
        }
    })
}

/// A ciphertext with its key-switch digit decomposition precomputed, ready
/// for cheap repeated rotations.
pub struct HoistedDigits {
    /// Extended, NTT'd digits of `c1`.
    digits: Vec<RnsPoly>,
    /// Original `c0` (evaluation form).
    c0: RnsPoly,
    /// Original `c1` (needed for the rotation-by-zero fast path).
    c1: RnsPoly,
    /// Ciphertext scale.
    scale: f64,
}

impl HoistedDigits {
    /// Precomputes the decomposition of `ct` (the "hoisted" part).
    pub fn new(ctx: &Context, ct: &Ciphertext) -> Self {
        Self {
            digits: decompose_digits(ctx, &ct.c1),
            c0: ct.c0.clone(),
            c1: ct.c1.clone(),
            scale: ct.scale,
        }
    }

    /// Ciphertext level.
    pub fn level(&self) -> usize {
        self.c0.level()
    }

    /// Ciphertext scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Rotates by `k` using the precomputed digits (one automorphism
    /// permutation + key inner product + ModDown; no per-rotation NTTs
    /// except inside ModDown).
    pub fn rotate(&self, eval: &Evaluator, k: isize) -> Ciphertext {
        let ctx = eval.context();
        if k == 0 {
            return Ciphertext {
                c0: self.c0.clone(),
                c1: self.c1.clone(),
                scale: self.scale,
            };
        }
        let g = ctx.galois_element(k);
        let perm = ctx.galois_permutation(g);
        // Typed key lookup: a miss panics here with the MissingRotationKey
        // message — statically unreachable on verified plans (the
        // orion_nn::verify key-coverage pass checks every hoisted rotation).
        let key = eval
            .keys()
            .try_rotation(g)
            .unwrap_or_else(|e| panic!("{e}"));
        let pds: Vec<RnsPoly> = self
            .digits
            .iter()
            .map(|d| d.automorphism_eval(&perm))
            .collect();
        let (mut acc_b, mut acc_a) = key.inner_product(ctx, &pds);
        for pd in pds {
            pd.recycle();
        }
        acc_b.mod_down_special_assign(ctx);
        acc_a.mod_down_special_assign(ctx);
        let mut c0 = self.c0.automorphism_eval(&perm);
        c0.add_assign(&acc_b, ctx);
        Ciphertext {
            c0,
            c1: acc_a,
            scale: self.scale,
        }
    }
}

/// A rotation of a hoisted ciphertext kept in the extended basis — the
/// shareable unit of double-hoisting: computed once per distinct rotation
/// step, then multiplied by many plaintext diagonals.
pub struct RotatedExt {
    /// `(ks_b, ks_a)` in the extended basis, or `None` for rotation by 0.
    ext: Option<(RnsPoly, RnsPoly)>,
    /// `σ(c0)` (base basis).
    c0: RnsPoly,
    /// Original `c1` (only for rotation by 0).
    c1: Option<RnsPoly>,
    /// Source ciphertext scale.
    scale: f64,
}

impl RotatedExt {
    /// The rotation-by-0 view of a ciphertext — bit-identical to
    /// `HoistedDigits::rotate_ext(eval, 0)` but without paying the digit
    /// decomposition (rotation by 0 never touches the key-switch, so a
    /// consumer holding the ciphertext itself can build this directly).
    pub fn identity(ct: &Ciphertext) -> Self {
        RotatedExt {
            ext: None,
            c0: ct.c0.clone(),
            c1: Some(ct.c1.clone()),
            scale: ct.scale,
        }
    }
}

impl HoistedDigits {
    /// Computes the rotation's key-switch inner product once, leaving the
    /// result in the extended basis for reuse across many diagonals.
    pub fn rotate_ext(&self, eval: &Evaluator, k: isize) -> RotatedExt {
        let ctx = eval.context();
        if k == 0 {
            return RotatedExt {
                ext: None,
                c0: self.c0.clone(),
                c1: Some(self.c1.clone()),
                scale: self.scale,
            };
        }
        let g = ctx.galois_element(k);
        let perm = ctx.galois_permutation(g);
        // Typed key lookup: a miss panics here with the MissingRotationKey
        // message — statically unreachable on verified plans (the
        // orion_nn::verify key-coverage pass checks every hoisted rotation).
        let key = eval
            .keys()
            .try_rotation(g)
            .unwrap_or_else(|e| panic!("{e}"));
        let pds: Vec<RnsPoly> = self
            .digits
            .iter()
            .map(|d| d.automorphism_eval(&perm))
            .collect();
        let (ks_b, ks_a) = key.inner_product(ctx, &pds);
        for pd in pds {
            pd.recycle();
        }
        RotatedExt {
            ext: Some((ks_b, ks_a)),
            c0: self.c0.automorphism_eval(&perm),
            c1: None,
            scale: self.scale,
        }
    }
}

/// One term of a giant-step group: the rotated ciphertext and the
/// plaintext diagonal it is multiplied by.
pub type Term<'a> = (&'a RotatedExt, &'a Plaintext);

/// Lazy-ModDown accumulator: sums `pt_k ⊙ HRot_k(ct)` terms while keeping
/// the key-switch parts in the extended basis; a single ModDown happens in
/// [`ExtAccumulator::finalize`]. This is the double-hoisting inner loop of
/// the BSGS matvec (paper §3.3, Equation 1).
pub struct ExtAccumulator {
    acc_b_ext: RnsPoly,
    acc_a_ext: RnsPoly,
    acc_b_base: RnsPoly,
    acc_a_base: RnsPoly,
    any_ext: bool,
    scale: Option<f64>,
}

/// Elements per job of [`ExtAccumulator::add_groups`]: small enough that
/// one layer's rotation operands for the slice (≈ 46 rotations × 3
/// streams × 4 KiB) stay cache-resident while every group reads them.
const JOB_ELEMS: usize = 512;

/// One group's accumulator slices in a job of
/// [`ExtAccumulator::add_groups`].
enum LimbDst<'a> {
    /// A chain limb: `[b_ext, a_ext, b_base, a_base]`.
    Chain([&'a mut [u64]; 4]),
    /// The special-prime limb, which only the key-switch parts carry:
    /// `[b_ext, a_ext]`.
    Special([&'a mut [u64]; 2]),
}

/// One job of [`ExtAccumulator::add_groups`]: elements `start..` of limb
/// `j` (`None` for the special prime) in every group's accumulators.
struct SliceJob<'a> {
    j: Option<usize>,
    start: usize,
    dsts: Vec<(usize, LimbDst<'a>)>,
}

impl ExtAccumulator {
    /// Creates an empty accumulator at `level`.
    pub fn new(ctx: &Context, level: usize) -> Self {
        Self {
            acc_b_ext: RnsPoly::zero(ctx, level, Form::Eval, true),
            acc_a_ext: RnsPoly::zero(ctx, level, Form::Eval, true),
            acc_b_base: RnsPoly::zero(ctx, level, Form::Eval, false),
            acc_a_base: RnsPoly::zero(ctx, level, Form::Eval, false),
            any_ext: false,
            scale: None,
        }
    }

    /// Checks a term's scale against the group's and its plaintext's
    /// basis against the rotation.
    fn admit(&mut self, (rot, pt): &Term<'_>) {
        let term_scale = rot.scale * pt.scale;
        match self.scale {
            None => self.scale = Some(term_scale),
            Some(prev) => assert!(
                crate::eval::scales_close(prev, term_scale),
                "accumulator terms must share one scale"
            ),
        }
        assert!(pt.poly.limbs.len() >= self.acc_b_base.limbs.len());
        if rot.ext.is_some() {
            assert!(
                pt.poly.has_special(),
                "double-hoisting needs extended-basis plaintexts"
            );
            self.any_ext = true;
        }
    }

    /// Accumulates each group's `Σ pt ⊙ rot` into the matching accumulator
    /// through
    /// the fused [`orion_math::simd::Kernels::diag_accum`] kernel, which
    /// reads every plaintext limb once and reduces every accumulator
    /// element once. For a rotated term the plaintext must carry a special
    /// limb (encode with `with_special = true`); the key-switch output is
    /// consumed lazily in the extended basis. The jobs are (limb × element
    /// slice) with the groups inside, so a rotation shared by many groups
    /// is read from cache after its first use; at rings the pool gate
    /// admits (N ≥ 2¹²) they fan out on the shared pool, so layers with
    /// few groups still use every core. Modular sums are exact, so the
    /// result is bit-identical to adding the terms one `add_mul` at a time.
    pub fn add_groups(accs: &mut [ExtAccumulator], eval: &Evaluator, groups: &[&[Term<'_>]]) {
        assert_eq!(accs.len(), groups.len(), "one term list per accumulator");
        let ctx = eval.context();
        for (acc, terms) in accs.iter_mut().zip(groups) {
            for term in terms.iter() {
                acc.admit(term);
            }
        }
        let Some(first) = accs.first() else {
            return;
        };
        let n = ctx.degree();
        let chain = first.acc_b_base.limbs.len();
        let slices = n.div_ceil(JOB_ELEMS);
        let mut jobs: Vec<SliceJob<'_>> = (0..=chain)
            .flat_map(|j| {
                (0..slices).map(move |c| SliceJob {
                    j: (j < chain).then_some(j),
                    start: c * JOB_ELEMS,
                    dsts: Vec::new(),
                })
            })
            .collect();
        for (g, acc) in accs.iter_mut().enumerate() {
            assert_eq!(acc.acc_b_base.limbs.len(), chain, "groups share one level");
            let limbs = acc
                .acc_b_ext
                .limbs
                .iter_mut()
                .zip(acc.acc_a_ext.limbs.iter_mut())
                .zip(acc.acc_b_base.limbs.iter_mut())
                .zip(acc.acc_a_base.limbs.iter_mut());
            for (j, (((b_ext, a_ext), b_base), a_base)) in limbs.enumerate() {
                let parts = b_ext
                    .chunks_mut(JOB_ELEMS)
                    .zip(a_ext.chunks_mut(JOB_ELEMS))
                    .zip(b_base.chunks_mut(JOB_ELEMS))
                    .zip(a_base.chunks_mut(JOB_ELEMS));
                for (c, (((be, ae), bb), ab)) in parts.enumerate() {
                    jobs[j * slices + c]
                        .dsts
                        .push((g, LimbDst::Chain([be, ae, bb, ab])));
                }
            }
            let b_ext = acc.acc_b_ext.special.as_mut().expect("extended basis");
            let a_ext = acc.acc_a_ext.special.as_mut().expect("extended basis");
            let parts = b_ext.chunks_mut(JOB_ELEMS).zip(a_ext.chunks_mut(JOB_ELEMS));
            for (c, (be, ae)) in parts.enumerate() {
                jobs[chain * slices + c]
                    .dsts
                    .push((g, LimbDst::Special([be, ae])));
            }
        }
        let k = orion_math::simd::kernels();
        // Gated like every other pointwise loop, by the vectors written
        // (four accumulators per limb): the tiny ring stays sequential, so
        // its latency does not hang on fine-grained joins with whatever
        // else shares the pool (e.g. a pager's prefetch units).
        let par = orion_math::parallel::pointwise_parallel(n, 4 * (chain + 1));
        time_class(OpClass::Pointwise, || {
            orion_math::parallel::for_each_mut(&mut jobs, par, |_, job| {
                let q = job.j.map_or(ctx.special, |j| ctx.moduli[j]);
                for (g, dst) in job.dsts.iter_mut() {
                    accumulate_slice(k, q, job.j, job.start, groups[*g], dst);
                }
            });
        });
    }

    /// Performs the deferred ModDown and returns the accumulated
    /// ciphertext. A group without rotated terms skips both ModDowns and
    /// adds: its extended-basis sums are zero, and ModDown(0) = 0.
    pub fn finalize(self, eval: &Evaluator) -> Ciphertext {
        let ctx = eval.context();
        let Self {
            mut acc_b_ext,
            mut acc_a_ext,
            acc_b_base: mut c0,
            acc_a_base: mut c1,
            any_ext,
            scale,
        } = self;
        if any_ext {
            acc_b_ext.mod_down_special_assign(ctx);
            acc_a_ext.mod_down_special_assign(ctx);
            c0.add_assign(&acc_b_ext, ctx);
            c1.add_assign(&acc_a_ext, ctx);
        }
        acc_b_ext.recycle();
        acc_a_ext.recycle();
        Ciphertext {
            c0,
            c1,
            scale: scale.expect("empty accumulator"),
        }
    }
}

/// Elements `start..start + len` of limb `j` of `p` (its special limb for
/// `None`).
fn limb(p: &RnsPoly, j: Option<usize>, start: usize, len: usize) -> &[u64] {
    let l = match j {
        Some(j) => &p.limbs[j],
        None => p.special.as_deref().expect("extended-basis operand"),
    };
    &l[start..start + len]
}

/// One group's share of a job of [`ExtAccumulator::add_groups`]: the
/// rotated terms feed `ks_b, ks_a, σ(c0)` into the extended- and
/// base-basis sums in one kernel pass, the rotation-by-0 terms feed
/// `c0, c1` into the base sums in another (their plaintexts' special limbs
/// are never read).
fn accumulate_slice(
    k: &Kernels,
    q: u64,
    j: Option<usize>,
    start: usize,
    terms: &[Term<'_>],
    dst: &mut LimbDst<'_>,
) {
    let (rotated, identity): (Vec<Term<'_>>, Vec<Term<'_>>) =
        terms.iter().partition(|(rot, _)| rot.ext.is_some());
    fn ext(rot: &RotatedExt) -> &(RnsPoly, RnsPoly) {
        rot.ext.as_ref().expect("rotated term")
    }
    let (b_ext, a_ext, mut base) = match dst {
        LimbDst::Chain([b_ext, a_ext, b_base, a_base]) => (b_ext, a_ext, Some((b_base, a_base))),
        LimbDst::Special([b_ext, a_ext]) => (b_ext, a_ext, None),
    };
    let len = b_ext.len();
    let at = |p| limb(p, j, start, len);
    if !rotated.is_empty() {
        let pts: Vec<&[u64]> = rotated.iter().map(|t| at(&t.1.poly)).collect();
        let ks_b: Vec<&[u64]> = rotated.iter().map(|t| at(&ext(t.0).0)).collect();
        let ks_a: Vec<&[u64]> = rotated.iter().map(|t| at(&ext(t.0).1)).collect();
        match &mut base {
            Some((b_base, _)) => {
                let sc0: Vec<&[u64]> = rotated.iter().map(|t| at(&t.0.c0)).collect();
                (k.diag_accum)(&mut [b_ext, a_ext, b_base], &pts, &[&ks_b, &ks_a, &sc0], q);
            }
            None => (k.diag_accum)(&mut [b_ext, a_ext], &pts, &[&ks_b, &ks_a], q),
        }
    }
    if let Some((b_base, a_base)) = base.filter(|_| !identity.is_empty()) {
        let pts: Vec<&[u64]> = identity.iter().map(|t| at(&t.1.poly)).collect();
        let c0: Vec<&[u64]> = identity.iter().map(|t| at(&t.0.c0)).collect();
        let c1: Vec<&[u64]> = identity
            .iter()
            .map(|t| at(t.0.c1.as_ref().expect("zero rotation keeps c1")))
            .collect();
        (k.diag_accum)(&mut [b_base, a_base], &pts, &[&c0, &c1], q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    struct H {
        ctx: Arc<Context>,
        enc: Encoder,
        encryptor: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        rng: StdRng,
    }

    fn setup(rotations: &[isize]) -> H {
        setup_at(CkksParams::tiny(), rotations)
    }

    fn setup_at(params: CkksParams, rotations: &[isize]) -> H {
        let ctx = Context::new(params);
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(31));
        let pk = Arc::new(kg.gen_public_key());
        let keys = Arc::new(kg.gen_eval_keys(rotations));
        let sk = kg.secret_key();
        H {
            ctx: ctx.clone(),
            enc: Encoder::new(ctx.clone()),
            encryptor: Encryptor::with_public_key(ctx.clone(), pk),
            dec: Decryptor::new(ctx.clone(), sk),
            eval: Evaluator::new(ctx, keys),
            rng: StdRng::seed_from_u64(32),
        }
    }

    #[test]
    fn hoisted_rotation_matches_plain_rotation() {
        let mut h = setup(&[1, 7]);
        let n = h.ctx.slots();
        let a: Vec<f64> = (0..n).map(|i| ((i * 3) % 11) as f64 * 0.2).collect();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), 2, false), &mut h.rng);
        let hd = HoistedDigits::new(&h.ctx, &ct);
        for k in [0isize, 1, 7] {
            let via_hoist = h.enc.decode(&h.dec.decrypt(&hd.rotate(&h.eval, k)));
            let via_plain = h.enc.decode(&h.dec.decrypt(&h.eval.rotate(&ct, k)));
            for i in (0..n).step_by(23) {
                assert!(
                    (via_hoist[i] - via_plain[i]).abs() < 1e-2,
                    "k={k} slot {i}: {} vs {}",
                    via_hoist[i],
                    via_plain[i]
                );
            }
        }
    }

    #[test]
    fn double_hoisted_inner_sum_matches_naive() {
        // sum_k pt_k ⊙ rot_k(ct), k in {0, 1, 2}.
        let mut h = setup(&[1, 2]);
        let n = h.ctx.slots();
        let level = 2;
        let a: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) * 0.3 - 1.0).collect();
        let ct = h
            .encryptor
            .encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut h.rng);
        let weights: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..n).map(|i| (((i + k) % 5) as f64) * 0.15).collect())
            .collect();

        // Naive computation.
        let mut naive = vec![0.0f64; n];
        for (k, w) in weights.iter().enumerate() {
            for i in 0..n {
                naive[i] += w[i] * a[(i + k) % n];
            }
        }

        let hd = HoistedDigits::new(&h.ctx, &ct);
        let rots: Vec<RotatedExt> = (0..3).map(|k| hd.rotate_ext(&h.eval, k)).collect();
        let pts: Vec<Plaintext> = weights
            .iter()
            .map(|w| h.enc.encode_at_prime_scale_ws(w, level))
            .collect();
        let terms: Vec<Term<'_>> = rots.iter().zip(&pts).collect();
        let mut acc = ExtAccumulator::new(&h.ctx, level);
        ExtAccumulator::add_groups(std::slice::from_mut(&mut acc), &h.eval, &[&terms[..]]);
        let mut out_ct = acc.finalize(&h.eval);
        h.eval.rescale_assign(&mut out_ct);
        assert_eq!(out_ct.scale, h.ctx.scale());
        let out = h.enc.decode(&h.dec.decrypt(&out_ct));
        for i in (0..n).step_by(31) {
            assert!(
                (out[i] - naive[i]).abs() < 2e-2,
                "slot {i}: {} vs {}",
                out[i],
                naive[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "share one scale")]
    fn accumulator_rejects_mixed_scales() {
        let mut h = setup(&[1]);
        let level = 1;
        let ct = h.encryptor.encrypt(
            &h.enc.encode(&[1.0], h.ctx.scale(), level, false),
            &mut h.rng,
        );
        let rot = HoistedDigits::new(&h.ctx, &ct).rotate_ext(&h.eval, 1);
        let mut acc = ExtAccumulator::new(&h.ctx, level);
        let p1 = h.enc.encode(&[1.0], h.ctx.scale(), level, true);
        let p2 = h.enc.encode(&[1.0], h.ctx.scale() * 4.0, level, true);
        let terms = [(&rot, &p1), (&rot, &p2)];
        ExtAccumulator::add_groups(std::slice::from_mut(&mut acc), &h.eval, &[&terms[..]]);
    }

    /// Builds the reference accumulator the way the per-term path did:
    /// three (rotated) or two (rotation by 0) `add_mul_assign` sweeps per
    /// term, then the deferred ModDown.
    fn reference_group(h: &H, level: usize, terms: &[Term<'_>]) -> Ciphertext {
        let mut acc = ExtAccumulator::new(&h.ctx, level);
        for &(rot, pt) in terms {
            acc.scale = Some(rot.scale * pt.scale);
            let base = RnsPoly {
                limbs: pt.poly.limbs.clone(),
                special: None,
                form: Form::Eval,
            };
            match &rot.ext {
                Some((ks_b, ks_a)) => {
                    acc.acc_b_ext.add_mul_assign(ks_b, &pt.poly, &h.ctx);
                    acc.acc_a_ext.add_mul_assign(ks_a, &pt.poly, &h.ctx);
                    acc.acc_b_base.add_mul_assign(&rot.c0, &base, &h.ctx);
                }
                None => {
                    let c1 = rot.c1.as_ref().unwrap();
                    acc.acc_b_base.add_mul_assign(&rot.c0, &base, &h.ctx);
                    acc.acc_a_base.add_mul_assign(c1, &base, &h.ctx);
                }
            }
        }
        acc.acc_b_ext.mod_down_special_assign(&h.ctx);
        acc.acc_a_ext.mod_down_special_assign(&h.ctx);
        acc.acc_b_base.add_assign(&acc.acc_b_ext, &h.ctx);
        acc.acc_a_base.add_assign(&acc.acc_a_ext, &h.ctx);
        Ciphertext {
            c0: acc.acc_b_base,
            c1: acc.acc_a_base,
            scale: acc.scale.unwrap(),
        }
    }

    #[test]
    fn batched_groups_match_per_term_add_mul() {
        check_batched_groups(CkksParams::tiny());
    }

    #[test]
    fn batched_groups_match_per_term_add_mul_on_the_pool() {
        // N = 2¹² clears the pointwise gate: the slice jobs fan out on the
        // shared pool whenever it has more than one thread.
        check_batched_groups(CkksParams::small());
    }

    fn check_batched_groups(params: CkksParams) {
        // Two input ciphertexts; a group mixing identity and rotated terms
        // of both (one rotation used twice), two rotated-only groups, and
        // an identity-only group (which skips the ModDowns), all
        // accumulated in one batch against the per-term reference.
        let mut h = setup_at(params, &[1, 3, 5]);
        let n = h.ctx.slots();
        let level = 2;
        let cts: Vec<Ciphertext> = (0..2)
            .map(|c| {
                let a: Vec<f64> = (0..n).map(|i| ((i * (c + 2)) % 7) as f64 * 0.1).collect();
                h.encryptor
                    .encrypt(&h.enc.encode(&a, h.ctx.scale(), level, false), &mut h.rng)
            })
            .collect();
        let rots: Vec<RotatedExt> = cts
            .iter()
            .flat_map(|ct| {
                let hd = HoistedDigits::new(&h.ctx, ct);
                let mut r = vec![RotatedExt::identity(ct)];
                r.extend([1, 3, 5].map(|k| hd.rotate_ext(&h.eval, k)));
                r
            })
            .collect();
        let pts: Vec<Plaintext> = (0..8)
            .map(|d| {
                let w: Vec<f64> = (0..n).map(|i| (((i + d) % 5) as f64) * 0.2 - 0.4).collect();
                h.enc.encode_at_prime_scale_ws(&w, level)
            })
            .collect();
        let groups: Vec<Vec<Term<'_>>> = vec![
            vec![
                (&rots[0], &pts[0]),
                (&rots[1], &pts[1]),
                (&rots[6], &pts[2]),
                (&rots[4], &pts[3]),
                (&rots[1], &pts[4]),
            ],
            vec![(&rots[2], &pts[5]), (&rots[7], &pts[6])],
            vec![(&rots[0], &pts[7]), (&rots[4], &pts[0])],
            vec![(&rots[3], &pts[1])],
        ];
        let slices: Vec<&[Term<'_>]> = groups.iter().map(Vec::as_slice).collect();
        let mut accs: Vec<ExtAccumulator> = groups
            .iter()
            .map(|_| ExtAccumulator::new(&h.ctx, level))
            .collect();
        ExtAccumulator::add_groups(&mut accs, &h.eval, &slices);
        for (acc, terms) in accs.into_iter().zip(&groups) {
            let got = acc.finalize(&h.eval);
            let expect = reference_group(&h, level, terms);
            assert_eq!(got.c0, expect.c0);
            assert_eq!(got.c1, expect.c1);
            assert_eq!(got.scale, expect.scale);
        }
    }
}
