//! SIMD-vs-scalar bit-exactness properties.
//!
//! Every kernel variant reachable on this host (`simd::variants()`) must be
//! bit-identical to the strict scalar reference for random primes across
//! the full supported size range (30–62 bits), all transform degrees, and
//! buffer lengths that are not multiples of the vector lane count (tail
//! handling). These run regardless of `ORION_SIMD`, so the vector paths
//! are exercised even when dispatch is forced off.

use orion_math::modular::{
    add_mod, is_prime, mul_mod, neg_mod, reduce_i128, shoup_precompute, sub_mod,
};
use orion_math::ntt::NttTable;
use orion_math::primes::generate_ntt_primes;
use orion_math::simd;
use proptest::prelude::*;

fn random_prime(n: usize, bits_off: u32, seed: u64) -> u64 {
    // Prime size in [30, 62): the full range the kernels support.
    let bits = 30 + bits_off % 32;
    generate_ntt_primes(n.max(16), bits, 1, &[seed % 2])[0]
}

/// A modulus for the elementwise kernels: an NTT prime of 30–61 bits, or
/// (`bits_off >= 32`) a prime just below 2⁶², the top of the supported
/// range, where `diag_accum` folds its high word every 3 terms.
fn pointwise_prime(bits_off: u32, seed: u64) -> u64 {
    if bits_off < 32 {
        return random_prime(16, bits_off, seed);
    }
    let mut q = (1u64 << 62) - 1 - 2 * (seed % 4096);
    while !is_prime(q) {
        q -= 2;
    }
    q
}

fn fill(rng: &mut impl rand::Rng, len: usize, bound: u64) -> Vec<u64> {
    (0..len).map(|_| rng.gen_range(0..bound)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whole-transform lazy NTT kernels (every variant) are bit-exact
    /// against the strict per-butterfly path, both directions, for all
    /// degrees 4..2048 — including the sub-vector sizes that take the
    /// scalar fallback inside the AVX2 table.
    #[test]
    fn ntt_kernels_match_strict(log_n in 2usize..12, bits_off in 0u32..32, seed in 0u64..1_000_000) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 1usize << log_n;
        let q = random_prime(n, bits_off, seed);
        let table = NttTable::new(n, q);
        let mut rng = StdRng::seed_from_u64(seed);
        let orig: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut strict = orig.clone();
        table.forward(&mut strict);
        for k in simd::variants() {
            let mut v = orig.clone();
            table.forward_lazy_with(k, &mut v);
            prop_assert_eq!(&v, &strict, "forward mismatch for {}", k.name);
        }
        let mut inv_strict = strict.clone();
        table.inverse(&mut inv_strict);
        prop_assert_eq!(&inv_strict, &orig);
        for k in simd::variants() {
            let mut v = strict.clone();
            table.inverse_lazy_with(k, &mut v);
            prop_assert_eq!(&v, &orig, "inverse mismatch for {}", k.name);
        }
    }

    /// Elementwise kernels match the strict modular reference on lengths
    /// that are not multiples of the 4-lane width (tail handling), for
    /// random primes across the supported size range.
    #[test]
    fn pointwise_kernels_match_reference(len in 1usize..130, bits_off in 0u32..32, seed in 0u64..1_000_000) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let q = random_prime(16, bits_off, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let a = fill(&mut rng, len, q);
        let b = fill(&mut rng, len, q);
        let d = fill(&mut rng, len, q);
        let s = rng.gen_range(0..q);
        let s_sh = shoup_precompute(s, q);
        let raw = fill(&mut rng, len, u64::MAX);
        for k in simd::variants() {
            let mut v = a.clone();
            (k.add_assign)(&mut v, &b, q);
            for i in 0..len {
                prop_assert_eq!(v[i], add_mod(a[i], b[i], q), "{} add[{}]", k.name, i);
            }
            let mut v = a.clone();
            (k.sub_assign)(&mut v, &b, q);
            for i in 0..len {
                prop_assert_eq!(v[i], sub_mod(a[i], b[i], q), "{} sub[{}]", k.name, i);
            }
            let mut v = a.clone();
            (k.neg_assign)(&mut v, q);
            for i in 0..len {
                prop_assert_eq!(v[i], neg_mod(a[i], q), "{} neg[{}]", k.name, i);
            }
            let mut v = vec![0u64; len];
            (k.mul_pointwise)(&mut v, &a, &b, q);
            for i in 0..len {
                prop_assert_eq!(v[i], mul_mod(a[i], b[i], q), "{} mul[{}]", k.name, i);
            }
            let mut v = d.clone();
            (k.add_mul)(&mut v, &a, &b, q);
            for i in 0..len {
                prop_assert_eq!(v[i], add_mod(d[i], mul_mod(a[i], b[i], q), q), "{} mac[{}]", k.name, i);
            }
            let mut v = a.clone();
            (k.scalar_mul_assign)(&mut v, s, s_sh, q);
            for i in 0..len {
                prop_assert_eq!(v[i], mul_mod(a[i], s, q), "{} smul[{}]", k.name, i);
            }
            let mut v = a.clone();
            (k.sub_mul_assign)(&mut v, &b, s, s_sh, q);
            for i in 0..len {
                prop_assert_eq!(v[i], mul_mod(sub_mod(a[i], b[i], q), s, q), "{} submul[{}]", k.name, i);
            }
            let mut v = vec![0u64; len];
            (k.mod_reduce)(&mut v, &raw, q);
            for i in 0..len {
                prop_assert_eq!(v[i], raw[i] % q, "{} modred[{}]", k.name, i);
            }
        }
    }

    /// The centered base-change kernel matches the `i128` centered lift it
    /// replaced, bit for bit, including values straddling `src_q / 2`.
    #[test]
    fn centered_reduce_matches_i128_lift(len in 1usize..70, bits_off in 0u32..32, seed in 0u64..1_000_000) {
        use rand::SeedableRng;
        let src_q = random_prime(16, bits_off, seed);
        let dst_q = random_prime(16, (bits_off + 7) % 32, seed ^ 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xce17);
        let mut src = fill(&mut rng, len, src_q);
        // Force boundary coverage around the centering threshold.
        if len > 2 {
            src[0] = src_q / 2;
            src[1] = src_q / 2 + 1;
            src[2] = src_q - 1;
        }
        let expect: Vec<u64> = src
            .iter()
            .map(|&x| {
                let c = if x > src_q / 2 { x as i128 - src_q as i128 } else { x as i128 };
                reduce_i128(c, dst_q)
            })
            .collect();
        for k in simd::variants() {
            let mut v = vec![0u64; len];
            (k.centered_reduce)(&mut v, &src, src_q, dst_q);
            prop_assert_eq!(&v, &expect, "{} centered_reduce", k.name);
        }
    }

    /// The fused key-switch accumulator equals the strict per-digit
    /// multiply-accumulate for any digit count, including digit counts
    /// large enough to exercise the lazy-accumulator reduction sweeps.
    #[test]
    fn ks_accum_matches_strict_inner_product(
        len in 1usize..70,
        digits in 1usize..9,
        bits_off in 0u32..32,
        seed in 0u64..1_000_000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let q = random_prime(16, bits_off, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5);
        let acc0 = fill(&mut rng, len, q);
        let ds: Vec<Vec<u64>> = (0..digits).map(|_| fill(&mut rng, len, q)).collect();
        let ks: Vec<Vec<u64>> = (0..digits).map(|_| fill(&mut rng, len, q)).collect();
        let kss: Vec<Vec<u64>> = ks
            .iter()
            .map(|kv| kv.iter().map(|&x| shoup_precompute(x, q)).collect())
            .collect();
        let mut expect = acc0.clone();
        for d in 0..digits {
            for i in 0..len {
                expect[i] = add_mod(expect[i], mul_mod(ds[d][i], ks[d][i], q), q);
            }
        }
        let dsl: Vec<&[u64]> = ds.iter().map(|v| v.as_slice()).collect();
        let ksl: Vec<&[u64]> = ks.iter().map(|v| v.as_slice()).collect();
        let kssl: Vec<&[u64]> = kss.iter().map(|v| v.as_slice()).collect();
        for k in simd::variants() {
            let mut v = acc0.clone();
            (k.ks_accum)(&mut v, &dsl, &ksl, &kssl, q);
            prop_assert_eq!(&v, &expect, "{} ks_accum", k.name);
        }
    }

    /// The fused giant-step accumulator equals the per-term `add_mul`
    /// sequence it replaces, on every dispatch variant: 1–64 terms, with
    /// and without the third operand stream, lengths that straddle the
    /// kernel's element block and the 4-lane width, and primes up to just
    /// below 2⁶² (where the lazy `u128` sum folds every 3 terms). In half
    /// the cases the operands come from the top quarter of `[0, q)`, where
    /// 64 unfolded products at 2⁶² overflow a `u128`.
    #[test]
    fn diag_accum_matches_add_mul_sequence(
        len in 1usize..300,
        terms in 1usize..65,
        streams in 2usize..4,
        bits_off in 0u32..40,
        top in 0u32..2,
        seed in 0u64..1_000_000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let q = pointwise_prime(bits_off, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1a6);
        let lo = if top == 1 { q - q / 4 } else { 0 };
        let draw = |rng: &mut StdRng| -> Vec<u64> {
            (0..len).map(|_| rng.gen_range(lo..q)).collect()
        };
        let pts: Vec<Vec<u64>> = (0..terms).map(|_| draw(&mut rng)).collect();
        let xs: Vec<Vec<Vec<u64>>> = (0..streams)
            .map(|_| (0..terms).map(|_| draw(&mut rng)).collect())
            .collect();
        let d0: Vec<Vec<u64>> = (0..streams).map(|_| fill(&mut rng, len, q)).collect();
        let pref: Vec<&[u64]> = pts.iter().map(|v| v.as_slice()).collect();
        let xref: Vec<Vec<&[u64]>> = xs
            .iter()
            .map(|st| st.iter().map(|v| v.as_slice()).collect())
            .collect();
        let sref: Vec<&[&[u64]]> = xref.iter().map(|v| v.as_slice()).collect();
        for k in simd::variants() {
            let mut expect = d0.clone();
            for t in 0..terms {
                for s in 0..streams {
                    (k.add_mul)(&mut expect[s], &xs[s][t], &pts[t], q);
                }
            }
            let mut got = d0.clone();
            let mut dsts: Vec<&mut [u64]> = got.iter_mut().map(|v| v.as_mut_slice()).collect();
            (k.diag_accum)(&mut dsts, &pref, &sref, q);
            prop_assert_eq!(&got, &expect, "{} diag_accum q={} terms={}", k.name, q, terms);
        }
    }
}
