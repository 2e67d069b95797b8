//! Kernel-layer micro-measurements shared by `benches/kernels.rs` and the
//! `bench_matrix` binary: NTT strict vs lazy reduction, limb-scratch
//! allocation vs arena recycling, the fused giant-step accumulation
//! against the per-term MACs it replaced, and the two composite kernels
//! they feed (rescale, rotation key-switch).
//!
//! Everything here is single-ciphertext work; the interesting ratios are
//! thread-independent, which is why `bench_matrix` runs them once in the
//! parent process rather than inside the thread sweep.

use criterion::Criterion;
use orion_ckks::encrypt::Encryptor;
use orion_ckks::eval::Evaluator;
use orion_ckks::keys::KeyGenerator;
use orion_ckks::params::{CkksParams, Context};
use orion_ckks::Encoder;
use orion_math::arena;
use orion_math::modular::shoup_precompute;
use orion_math::ntt::NttTable;
use orion_math::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::sync::Arc;

/// Degrees the NTT / scratch benches sweep. The acceptance bar for the
/// lazy path is set at the largest one (≥ 2¹³).
pub const NTT_DEGREES: [usize; 2] = [1 << 12, 1 << 13];

/// A 59-bit NTT-friendly prime for degree `n` (`q ≡ 1 mod 2n`).
fn ntt_prime(n: usize) -> u64 {
    orion_math::primes::generate_ntt_primes(n, 59, 1, &[])[0]
}

fn ntt_benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x7771);
    for n in NTT_DEGREES {
        let q = ntt_prime(n);
        let t = NttTable::new(n, q);
        t.inverse(&mut vec![0u64; n]); // force the lazy inverse tables
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut buf = data.clone();
        let mut g = c.benchmark_group("ntt");
        g.sample_size(10);
        g.bench_function(&format!("strict/{n}"), |b| {
            b.iter(|| {
                buf.copy_from_slice(&data);
                t.forward(&mut buf);
                t.inverse(&mut buf);
                buf[0]
            })
        });
        g.bench_function(&format!("lazy/{n}"), |b| {
            b.iter(|| {
                buf.copy_from_slice(&data);
                t.forward_lazy(&mut buf);
                t.inverse_lazy(&mut buf);
                buf[0]
            })
        });
        g.finish();
    }
}

fn scratch_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("scratch");
    g.sample_size(10);
    for n in NTT_DEGREES {
        g.bench_function(&format!("alloc/{n}"), |b| {
            b.iter(|| {
                let v = vec![0u64; n];
                criterion::black_box(v.as_ptr() as usize)
            })
        });
        g.bench_function(&format!("arena/{n}"), |b| {
            b.iter(|| {
                let v = arena::take_u64(n);
                let p = criterion::black_box(v.as_ptr() as usize);
                arena::recycle_u64(v);
                p
            })
        });
        // The raw take skips the zero-fill — valid when every element is
        // overwritten, which is how the rescale / pointwise-product /
        // automorphism paths use it.
        g.bench_function(&format!("arena_raw/{n}"), |b| {
            b.iter(|| {
                let v = arena::take_u64_raw(n);
                let p = criterion::black_box(v.as_ptr() as usize);
                arena::recycle_u64(v);
                p
            })
        });
    }
    g.finish();
}

/// SIMD-vs-scalar kernel comparison: every dispatch variant reachable on
/// this host (`simd::variants()`) runs the same lazy NTT roundtrip,
/// pointwise product, and fused key-switch accumulation, so the summary
/// can report honest per-host `simd_vs_scalar` ratios regardless of what
/// `ORION_SIMD` selected for the rest of the process.
fn simd_benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x51bd);
    const KS_DIGITS: usize = 3;
    for n in NTT_DEGREES {
        let q = ntt_prime(n);
        let t = NttTable::new(n, q);
        t.inverse(&mut vec![0u64; n]); // force the lazy inverse tables
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let other: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let shoup: Vec<u64> = other.iter().map(|&x| shoup_precompute(x, q)).collect();
        let mut buf = data.clone();
        let mut out = vec![0u64; n];
        let digit_refs: Vec<&[u64]> = (0..KS_DIGITS).map(|_| data.as_slice()).collect();
        let key_refs: Vec<&[u64]> = (0..KS_DIGITS).map(|_| other.as_slice()).collect();
        let shoup_refs: Vec<&[u64]> = (0..KS_DIGITS).map(|_| shoup.as_slice()).collect();
        for k in simd::variants() {
            let mut g = c.benchmark_group("simd");
            g.sample_size(10);
            g.bench_function(&format!("ntt/{}/{n}", k.name), |b| {
                b.iter(|| {
                    buf.copy_from_slice(&data);
                    t.forward_lazy_with(k, &mut buf);
                    t.inverse_lazy_with(k, &mut buf);
                    buf[0]
                })
            });
            g.bench_function(&format!("pointwise/{}/{n}", k.name), |b| {
                b.iter(|| {
                    (k.mul_pointwise)(&mut out, &data, &other, q);
                    out[0]
                })
            });
            g.bench_function(&format!("ks_accum/{}/{n}", k.name), |b| {
                b.iter(|| {
                    buf.copy_from_slice(&data);
                    (k.ks_accum)(&mut buf, &digit_refs, &key_refs, &shoup_refs, q);
                    buf[0]
                })
            });
            g.finish();
        }
    }
}

/// Rotated terms per giant-step group in `serve-mlp`'s dense layers.
pub const GROUP_TERMS: usize = 46;

/// One limb of a giant-step group: the plaintext diagonals, the three
/// operand streams (`ks_b`, `ks_a`, `σ(c0)`) and their accumulators.
struct GroupLimb {
    q: u64,
    pts: Vec<Vec<u64>>,
    streams: [Vec<Vec<u64>>; 3],
    acc: [Vec<u64>; 3],
}

/// The giant-step group shape of `serve-mlp` (N = 2¹², the 9 chain limbs
/// of `CkksParams::small()` plus the special prime, [`GROUP_TERMS`] rotated
/// terms): the fused `diag_accum` kernel against the three per-term
/// `add_mul` sweeps it replaced, per dispatch variant. The operands total
/// ~60 MB, so both paths stream from memory as they do when serving.
fn giant_step_benches(c: &mut Criterion) {
    let ctx = Context::new(CkksParams::small());
    let n = ctx.degree();
    let mut rng = StdRng::seed_from_u64(0x9a11);
    let mut draw = |q: u64, count: usize| -> Vec<Vec<u64>> {
        (0..count)
            .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
            .collect()
    };
    let mut limbs: Vec<GroupLimb> = ctx
        .moduli
        .iter()
        .copied()
        .chain([ctx.special])
        .map(|q| GroupLimb {
            q,
            pts: draw(q, GROUP_TERMS),
            streams: std::array::from_fn(|_| draw(q, GROUP_TERMS)),
            acc: std::array::from_fn(|_| vec![0u64; n]),
        })
        .collect();
    for k in simd::variants() {
        let mut g = c.benchmark_group("giant_step");
        g.sample_size(10);
        g.bench_function(&format!("fused/{}/{n}", k.name), |b| {
            b.iter(|| {
                for limb in limbs.iter_mut() {
                    let pts: Vec<&[u64]> = limb.pts.iter().map(Vec::as_slice).collect();
                    let xs: Vec<Vec<&[u64]>> = limb
                        .streams
                        .iter()
                        .map(|s| s.iter().map(Vec::as_slice).collect())
                        .collect();
                    let xs: Vec<&[&[u64]]> = xs.iter().map(Vec::as_slice).collect();
                    let [b_ext, a_ext, b_base] = &mut limb.acc;
                    (k.diag_accum)(&mut [b_ext, a_ext, b_base], &pts, &xs, limb.q);
                }
                limbs[0].acc[0][0]
            })
        });
        g.bench_function(&format!("add_mul/{}/{n}", k.name), |b| {
            b.iter(|| {
                for limb in limbs.iter_mut() {
                    for t in 0..GROUP_TERMS {
                        for (acc, s) in limb.acc.iter_mut().zip(&limb.streams) {
                            (k.add_mul)(acc, &s[t], &limb.pts[t], limb.q);
                        }
                    }
                }
                limbs[0].acc[0][0]
            })
        });
        g.finish();
    }
}

fn composite_benches(c: &mut Criterion) {
    // Rescale at N = 2¹³ (the degree the lazy bar is set at): dominated by
    // one inverse NTT + per-limb correction + forward NTTs.
    {
        let ctx = Context::new(CkksParams::medium());
        let enc = Encoder::new(ctx.clone());
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i % 13) as f64 * 0.05).collect();
        let level = ctx.moduli.len() - 1;
        let pt = enc.encode(&vals, ctx.scale(), level, false);
        let mut g = c.benchmark_group("rescale");
        g.sample_size(10);
        g.bench_function("n8192", |b| {
            b.iter(|| {
                let mut p = pt.poly.clone();
                p.rescale_assign(&ctx);
                p.level()
            })
        });
        g.finish();
    }
    // Rotation key-switch at tiny params: digit decomposition + key inner
    // product + two ModDowns — the hoisting unit of account.
    {
        let ctx = Context::new(CkksParams::tiny());
        let mut kg = KeyGenerator::new(ctx.clone(), StdRng::seed_from_u64(0xbe9c));
        let pk = Arc::new(kg.gen_public_key());
        let keys = Arc::new(kg.gen_eval_keys(&[1]));
        let eval = Evaluator::new(ctx.clone(), keys);
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::with_public_key(ctx.clone(), pk);
        let mut rng = StdRng::seed_from_u64(0x6e7a);
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i % 7) as f64 * 0.1).collect();
        let ct = encryptor.encrypt(&enc.encode(&vals, ctx.scale(), 2, false), &mut rng);
        let mut g = c.benchmark_group("keyswitch");
        g.sample_size(10);
        g.bench_function("rotate1_n1024", |b| b.iter(|| eval.rotate(&ct, 1).level()));
        g.finish();
    }
}

/// Runs the full kernel suite into `c`.
pub fn measure_kernels(c: &mut Criterion) {
    ntt_benches(c);
    simd_benches(c);
    giant_step_benches(c);
    scratch_benches(c);
    composite_benches(c);
}

fn median(c: &Criterion, name: &str) -> f64 {
    c.measurements
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.median_ns)
        .unwrap_or(f64::NAN)
}

/// Summarizes the kernel measurements as JSON fields: raw medians plus the
/// ratios the PR claims (lazy vs strict NTT, arena vs allocator scratch).
pub fn kernel_summary(c: &Criterion) -> Vec<(String, Value)> {
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let mut fields = Vec::new();
    for n in NTT_DEGREES {
        let strict = median(c, &format!("ntt/strict/{n}"));
        let lazy = median(c, &format!("ntt/lazy/{n}"));
        fields.push((format!("ntt_strict_ns_{n}"), Value::Num(strict)));
        fields.push((format!("ntt_lazy_ns_{n}"), Value::Num(lazy)));
        fields.push((
            format!("ntt_lazy_speedup_{n}"),
            Value::Num(round2(strict / lazy)),
        ));
        let alloc = median(c, &format!("scratch/alloc/{n}"));
        let arena = median(c, &format!("scratch/arena/{n}"));
        let raw = median(c, &format!("scratch/arena_raw/{n}"));
        fields.push((format!("scratch_alloc_ns_{n}"), Value::Num(alloc)));
        fields.push((format!("scratch_arena_ns_{n}"), Value::Num(arena)));
        fields.push((format!("scratch_arena_raw_ns_{n}"), Value::Num(raw)));
        fields.push((
            format!("scratch_arena_speedup_{n}"),
            Value::Num(round2(alloc / arena)),
        ));
        fields.push((
            format!("scratch_arena_raw_speedup_{n}"),
            Value::Num(round2(alloc / raw)),
        ));
    }
    // Per-variant kernel medians and the simd-vs-scalar ratios the PR
    // claims. On hosts without a vector unit only the scalar variant runs
    // and every ratio reports 1.0 (honest, not aspirational).
    fields.push((
        "simd_dispatch".to_string(),
        Value::Str(simd::dispatch_name().to_string()),
    ));
    let variants = simd::variants();
    for n in NTT_DEGREES {
        for kernel in ["ntt", "pointwise", "ks_accum"] {
            for k in &variants {
                let ns = median(c, &format!("simd/{kernel}/{}/{n}", k.name));
                fields.push((format!("{kernel}_{}_ns_{n}", k.name), Value::Num(ns)));
            }
            let scalar_ns = median(c, &format!("simd/{kernel}/scalar/{n}"));
            let best_simd = variants
                .iter()
                .filter(|k| k.name != "scalar")
                .map(|k| median(c, &format!("simd/{kernel}/{}/{n}", k.name)))
                .fold(f64::NAN, f64::min);
            let ratio = if best_simd.is_nan() {
                1.0
            } else {
                scalar_ns / best_simd
            };
            fields.push((
                format!("simd_vs_scalar_{kernel}_{n}"),
                Value::Num(round2(ratio)),
            ));
        }
    }
    // The fused giant-step kernel at the serve-mlp group shape: per-term
    // cost (all limbs) of each path, the fused-vs-add_mul ratio per
    // variant, and the fused kernel's simd-vs-scalar ratio.
    let n = 1 << 12;
    for k in &variants {
        let fused = median(c, &format!("giant_step/fused/{}/{n}", k.name));
        let add_mul = median(c, &format!("giant_step/add_mul/{}/{n}", k.name));
        let per_term = |ns: f64| Value::Num(round2(ns / GROUP_TERMS as f64));
        fields.push((
            format!("giant_step_fused_{}_ns_per_term_{n}", k.name),
            per_term(fused),
        ));
        fields.push((
            format!("giant_step_add_mul_{}_ns_per_term_{n}", k.name),
            per_term(add_mul),
        ));
        fields.push((
            format!("giant_step_fused_vs_add_mul_{}_{n}", k.name),
            Value::Num(round2(add_mul / fused)),
        ));
    }
    let scalar_fused = median(c, &format!("giant_step/fused/scalar/{n}"));
    let best_fused = variants
        .iter()
        .filter(|k| k.name != "scalar")
        .map(|k| median(c, &format!("giant_step/fused/{}/{n}", k.name)))
        .fold(f64::NAN, f64::min);
    fields.push((
        format!("simd_vs_scalar_giant_step_{n}"),
        Value::Num(if best_fused.is_nan() {
            1.0
        } else {
            round2(scalar_fused / best_fused)
        }),
    ));
    fields.push((
        "rescale_ns_8192".to_string(),
        Value::Num(median(c, "rescale/n8192")),
    ));
    fields.push((
        "keyswitch_rotate_ns_1024".to_string(),
        Value::Num(median(c, "keyswitch/rotate1_n1024")),
    ));
    fields
}
