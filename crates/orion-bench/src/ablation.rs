//! The unhoisted BSGS baseline for the hoisting ablation
//! (`benches/ablation.rs`): the same plan, diagonals and rotation counts as
//! the library executor, with neither hoisting nor plaintext
//! precomputation.

use orion_ckks::encrypt::Ciphertext;
use orion_linear::exec::FheLinearContext;
use orion_linear::plan::LinearPlan;
use orion_linear::values::DiagSource;
use std::collections::{BTreeMap, HashMap};

/// Executes a plan homomorphically **without** hoisting or lazy ModDown —
/// every baby-step rotation pays a full key-switch and diagonals are
/// encoded on the fly. This is the ablation baseline for the paper's
/// Table 4 mechanism ("our convolutional runtime is 11.2× faster …
/// all ciphertext rotations in Orion are performed with double-hoisting").
pub fn exec_fhe_unhoisted(
    ctx: &FheLinearContext<'_>,
    plan: &LinearPlan,
    source: &dyn DiagSource,
    inputs: &[Ciphertext],
) -> Vec<Ciphertext> {
    assert_eq!(inputs.len(), plan.in_blocks);
    let level = inputs[0].level();
    let slots = ctx.eval.context().slots();
    let n1 = plan.n1;
    // Rotated inputs computed with full key-switches, cached per (J, i).
    let mut rotated: HashMap<(u32, usize), Ciphertext> = HashMap::new();
    let mut groups: BTreeMap<(u32, usize), Ciphertext> = BTreeMap::new();
    for (&(i_blk, j_blk), diags) in &plan.blocks {
        let vals = source.block_diags(plan, i_blk, j_blk);
        for &k in diags {
            let Some(d) = vals.get(&k) else { continue };
            let i = (k as usize) % n1;
            let j = (k as usize) / n1;
            // borrow the cached rotation straight from the map — a full
            // ciphertext clone per diagonal would dwarf the mul_plain
            let rot = rotated
                .entry((j_blk, i))
                .or_insert_with(|| ctx.eval.rotate(&inputs[j_blk as usize], i as isize));
            // on-the-fly encoding (the ablation's point)
            let pt = ctx.enc.encode_at_prime_scale(d, level, false);
            let term = ctx.eval.mul_plain(rot, &pt);
            groups
                .entry((i_blk, j))
                .and_modify(|acc| *acc = ctx.eval.add(acc, &term))
                .or_insert(term);
        }
    }
    let mut out: Vec<Option<Ciphertext>> = vec![None; plan.out_blocks];
    for ((i_blk, j), part) in groups {
        let g = (j * n1) % slots;
        let part = if g != 0 {
            ctx.eval.rotate(&part, g as isize)
        } else {
            part
        };
        let slot_ref = &mut out[i_blk as usize];
        *slot_ref = Some(match slot_ref.take() {
            None => part,
            Some(prev) => ctx.eval.add(&prev, &part),
        });
    }
    out.into_iter()
        .map(|o| {
            let mut ct = o.expect("unhoisted path expects every block populated");
            ctx.eval.rescale_assign(&mut ct);
            ct
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_ckks::keys::KeyGenerator;
    use orion_ckks::params::{CkksParams, Context};
    use orion_ckks::{Decryptor, Encoder, Encryptor, Evaluator};
    use orion_linear::exec::exec_fhe;
    use orion_linear::plan::{conv_plan, ConvSpec};
    use orion_linear::values::ConvDiagSource;
    use orion_linear::TensorLayout;
    use orion_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn fhe_unhoisted_matches_hoisted() {
        // The ablation path must compute the same function.
        let ctx = Context::new(CkksParams::tiny());
        let slots = ctx.slots();
        let mut rng = StdRng::seed_from_u64(21);
        let in_l = TensorLayout::raster(2, 8, 8);
        let spec = ConvSpec {
            co: 2,
            ci: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let input = random_tensor(&[2, 8, 8], &mut rng);
        let weights = random_tensor(&[2, 2, 3, 3], &mut rng);
        let (plan, out_l) = conv_plan(&in_l, &spec, slots);
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(22));
        let pk = std::sync::Arc::new(kg.gen_public_key());
        let keys = std::sync::Arc::new(kg.gen_eval_keys(&plan.rotation_steps()));
        let sk = kg.secret_key();
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_public_key(ctx.clone(), pk);
        let dec = Decryptor::new(ctx.clone(), sk);
        let eval = Evaluator::new(ctx.clone(), keys);
        let packed = in_l.pack(input.data());
        let ct = encryptor.encrypt(&enc.encode(&packed, ctx.scale(), 2, false), &mut rng);
        let src = ConvDiagSource {
            in_l,
            out_l,
            spec,
            weights: &weights,
        };
        let fhe_ctx = FheLinearContext {
            eval: &eval,
            enc: &enc,
        };
        let hoisted = exec_fhe(&fhe_ctx, &plan, &src, None, std::slice::from_ref(&ct));
        let unhoisted = exec_fhe_unhoisted(&fhe_ctx, &plan, &src, &[ct]);
        let a = enc.decode(&dec.decrypt(&hoisted[0]));
        let b = enc.decode(&dec.decrypt(&unhoisted[0]));
        for i in (0..slots).step_by(37) {
            assert!((a[i] - b[i]).abs() < 2e-2, "slot {i}: {} vs {}", a[i], b[i]);
        }
        assert_eq!(hoisted[0].level(), unhoisted[0].level());
    }
}
