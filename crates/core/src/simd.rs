//! Hand-written x86-64 register kernels at the eqs. (8)–(11) optimum of
//! the host's register file (Section IV-A applied to the machine the
//! library runs on, not to the X-Gene).
//!
//! The solver in `perfmodel::regblock` maps a register file
//! `(nf, vreg_bytes)` to a register block; this module holds one
//! kernel per x86 register file it targets:
//!
//! | kernel | ISA | register file | registers used | γ |
//! |--------|-----|---------------|----------------|---|
//! | 24×8   | `avx512f`    | 32 × 64 B zmm | 24 C + 3 A + 1 B = 28 | 12 |
//! | 12×4   | `avx2`,`fma` | 16 × 32 B ymm | 12 C + 3 A + 1 B = 16 | 6  |
//!
//! Each rank-1 update loads `mr/lanes` vectors of the packed A sliver,
//! broadcasts the `nr` values of the B sliver one at a time, and issues
//! `mr·nr/lanes` fused multiply-adds into an accumulator tile that stays
//! in registers for the whole `kc` loop (Figure 3).
//!
//! **Soundness.** The `#[target_feature]` bodies are reachable only
//! through the safe wrappers `kernel_24x8` and `kernel_12x4`, which
//! re-check CPU support on every call; on a CPU without the feature (or
//! on another architecture) they run the portable `kernel_fixed` of the
//! same shape instead. Operand slices are walked with `chunks_exact`, so
//! every vector load reads a sub-slice of exactly one vector's length,
//! and C is reached only through [`TileMut::col_seg_mut`]'s bounds-checked
//! column segments.
//!
//! **Rounding.** Accumulation uses FMA, so the k-sum rounds differently
//! from the portable kernel; the kernel in use is chosen once per
//! process ([`crate::microkernel::MicroKernelKind::host`]), and every C
//! element receives the same kernel calls in every runtime, so Serial
//! and Pool results stay bit-identical. The write-back is
//! `c += α·acc` as a separate multiply and add, for full tiles
//! (vectorised) and edge tiles (scalar, masked to `m_eff×n_eff`) alike.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::microkernel::kernel_fixed;
use crate::tile::TileMut;

/// Whether the running CPU can execute the AVX-512 24×8 kernel.
#[must_use]
pub(crate) fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU can execute the AVX2 12×4 kernel.
#[must_use]
pub(crate) fn has_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The 24×8 kernel: AVX-512 when the CPU has it, else the portable
/// 24×8 kernel. Same argument contract as
/// [`crate::microkernel::run_microkernel`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn kernel_24x8(
    kc: usize,
    a: &[f64],
    b: &[f64],
    alpha: f64,
    c: &mut TileMut<'_>,
    m_eff: usize,
    n_eff: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: the CPU supports avx512f, checked just above.
        unsafe { x86::zmm_24x8(kc, a, b, alpha, c, m_eff, n_eff) };
        return;
    }
    kernel_fixed::<f64, 24, 8>(kc, a, b, alpha, c, m_eff, n_eff);
}

/// The 12×4 kernel: AVX2+FMA when the CPU has them, else the portable
/// 12×4 kernel. Same argument contract as
/// [`crate::microkernel::run_microkernel`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn kernel_12x4(
    kc: usize,
    a: &[f64],
    b: &[f64],
    alpha: f64,
    c: &mut TileMut<'_>,
    m_eff: usize,
    n_eff: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        // SAFETY: the CPU supports avx2 and fma, checked just above.
        unsafe { x86::ymm_12x4(kc, a, b, alpha, c, m_eff, n_eff) };
        return;
    }
    kernel_fixed::<f64, 12, 4>(kc, a, b, alpha, c, m_eff, n_eff);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::tile::TileMut;
    use core::arch::x86_64::*;

    /// Emit one register kernel for a vector type: `$mv` vectors of
    /// `$lanes` f64 form the `mr = $mv·$lanes` rows, `$nr` broadcasts
    /// the columns.
    macro_rules! register_kernel {
        (
            $(#[$doc:meta])*
            $name:ident, $feature:literal, $lanes:literal, $mv:literal, $nr:literal,
            $zero:ident, $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident, $mul:ident,
            $add:ident
        ) => {
            $(#[$doc])*
            ///
            /// # Safety
            ///
            /// The running CPU must support every feature in
            #[doc = concat!("`", $feature, "`.")]
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
            pub(super) unsafe fn $name(
                kc: usize,
                a: &[f64],
                b: &[f64],
                alpha: f64,
                c: &mut TileMut<'_>,
                m_eff: usize,
                n_eff: usize,
            ) {
                const MR: usize = $lanes * $mv;
                const NR: usize = $nr;
                let mut acc = [[$zero(); NR]; $mv];
                for (ac, bc) in a.chunks_exact(MR).zip(b.chunks_exact(NR)).take(kc) {
                    let mut av = [$zero(); $mv];
                    for (v, x) in av.iter_mut().zip(ac.chunks_exact($lanes)) {
                        // SAFETY: `x` holds exactly one vector's `$lanes`
                        // f64s; the load is unaligned.
                        *v = unsafe { $loadu(x.as_ptr()) };
                    }
                    for j in 0..NR {
                        let bj = $set1(bc[j]);
                        for i in 0..$mv {
                            acc[i][j] = $fmadd(av[i], bj, acc[i][j]);
                        }
                    }
                }
                let alpha_v = $set1(alpha);
                if m_eff == MR && n_eff == NR {
                    for j in 0..NR {
                        let col = c.col_seg_mut(j, 0, MR);
                        for (i, x) in col.chunks_exact_mut($lanes).enumerate() {
                            let p = x.as_mut_ptr();
                            // SAFETY: `x` is exactly one vector's `$lanes`
                            // f64s of this tile's column segment.
                            unsafe { $storeu(p, $add($loadu(p), $mul(alpha_v, acc[i][j]))) };
                        }
                    }
                } else {
                    let mut spill = [[0.0f64; MR]; NR];
                    for j in 0..NR {
                        for (i, x) in spill[j].chunks_exact_mut($lanes).enumerate() {
                            // SAFETY: `x` is exactly one vector's `$lanes`
                            // f64s of the spill buffer.
                            unsafe { $storeu(x.as_mut_ptr(), acc[i][j]) };
                        }
                    }
                    for j in 0..n_eff {
                        let col = c.col_seg_mut(j, 0, m_eff);
                        for (dst, v) in col.iter_mut().zip(&spill[j]) {
                            *dst += alpha * v;
                        }
                    }
                }
            }
        };
    }

    register_kernel!(
        /// 24×8 with 24 zmm accumulators, 3 zmm A loads and 1 zmm B
        /// broadcast per rank-1 update.
        zmm_24x8, "avx512f", 8, 3, 8,
        _mm512_setzero_pd, _mm512_loadu_pd, _mm512_storeu_pd, _mm512_set1_pd,
        _mm512_fmadd_pd, _mm512_mul_pd, _mm512_add_pd
    );

    register_kernel!(
        /// 12×4 with 12 ymm accumulators, 3 ymm A loads and 1 ymm B
        /// broadcast per rank-1 update.
        ymm_12x4, "avx2,fma", 4, 3, 4,
        _mm256_setzero_pd, _mm256_loadu_pd, _mm256_storeu_pd, _mm256_set1_pd,
        _mm256_fmadd_pd, _mm256_mul_pd, _mm256_add_pd
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::{run_microkernel, MicroKernelKind};
    use crate::util::{gamma, SplitMix64};
    use perfmodel::regblock::optimize_register_block;
    use perfmodel::MachineDesc;
    use proptest::prelude::*;

    /// Each SIMD kernel with the register file `(nf, vreg_bytes)` of
    /// its ISA.
    const REGISTER_FILES: [(MicroKernelKind, usize, usize); 2] = [
        (MicroKernelKind::Mk24x8Avx512, 32, 64),
        (MicroKernelKind::Mk12x4Avx2, 16, 32),
    ];

    /// The SIMD kernels this CPU runs natively (the ones worth testing
    /// against the portable kernel; the others *are* the portable one).
    fn native() -> Vec<MicroKernelKind> {
        MicroKernelKind::SIMD
            .into_iter()
            .filter(MicroKernelKind::is_native)
            .collect()
    }

    /// The portable kernel of `kind`'s shape.
    #[allow(clippy::too_many_arguments)]
    fn portable(
        kind: MicroKernelKind,
        kc: usize,
        a: &[f64],
        b: &[f64],
        alpha: f64,
        c: &mut TileMut<'_>,
        m_eff: usize,
        n_eff: usize,
    ) {
        match kind {
            MicroKernelKind::Mk24x8Avx512 => {
                kernel_fixed::<f64, 24, 8>(kc, a, b, alpha, c, m_eff, n_eff);
            }
            MicroKernelKind::Mk12x4Avx2 => {
                kernel_fixed::<f64, 12, 4>(kc, a, b, alpha, c, m_eff, n_eff);
            }
            other => panic!("{} is not a SIMD kernel", other.label()),
        }
    }

    /// One kernel problem: packed slivers and a C tile with leading
    /// dimension `mr + 3`, each stored one element past the start of
    /// its buffer so every vector load and store is unaligned.
    struct Case {
        kind: MicroKernelKind,
        kc: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        c: Vec<f64>,
    }

    impl Case {
        fn new(kind: MicroKernelKind, kc: usize, seed: u64) -> Self {
            let mut rng = SplitMix64::new(seed);
            let mut fill = |len: usize| -> Vec<f64> {
                (0..=len).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
            };
            let (mr, nr) = (kind.mr(), kind.nr());
            Case {
                kind,
                kc,
                a: fill(mr * kc),
                b: fill(nr * kc),
                c: fill((mr + 3) * nr),
            }
        }

        fn ld(&self) -> usize {
            self.kind.mr() + 3
        }

        /// C after one kernel call: the SIMD kernel (through
        /// `run_microkernel`) when `simd`, else the portable one.
        fn run(&self, alpha: f64, m_eff: usize, n_eff: usize, simd: bool) -> Vec<f64> {
            let (mr, nr, kc) = (self.kind.mr(), self.kind.nr(), self.kc);
            let mut c = self.c.clone();
            let mut tile = TileMut::from_slice(mr, nr, self.ld(), &mut c[1..]);
            let (a, b) = (&self.a[1..], &self.b[1..]);
            if simd {
                run_microkernel(self.kind, kc, a, b, alpha, &mut tile, m_eff, n_eff);
            } else {
                portable(self.kind, kc, a, b, alpha, &mut tile, m_eff, n_eff);
            }
            c
        }

        /// `Σ_k |a_ik|·|b_kj|` for tile entry `(i, j)`.
        fn abs_dot(&self, i: usize, j: usize) -> f64 {
            let (mr, nr) = (self.kind.mr(), self.kind.nr());
            (0..self.kc)
                .map(|k| (self.a[1 + k * mr + i] * self.b[1 + k * nr + j]).abs())
                .sum()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Each native SIMD kernel agrees with the portable kernel of its
        /// shape entry by entry. Both results lie within
        /// `γ_{k+2}·(|α|·|A||B| + |C₀|)` of the exact `C₀ + α·A·B`, so
        /// they differ by at most twice that; entries outside the
        /// `m_eff×n_eff` mask (and the buffer's padding) stay untouched.
        #[test]
        fn simd_matches_portable_within_componentwise_bound(
            kc in 0usize..701,
            m_pick in 0usize..1000,
            n_pick in 0usize..1000,
            alpha in prop::sample::select(vec![0.0, -2.5, 1.0]),
            seed in 0u64..u64::MAX,
        ) {
            for kind in native() {
                let (mr, nr) = (kind.mr(), kind.nr());
                let (m_eff, n_eff) = (m_pick % (mr + 1), n_pick % (nr + 1));
                let case = Case::new(kind, kc, seed);
                let got = case.run(alpha, m_eff, n_eff, true);
                let want = case.run(alpha, m_eff, n_eff, false);
                for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    let (i, j) = ((idx.max(1) - 1) % case.ld(), (idx.max(1) - 1) / case.ld());
                    if idx == 0 || i >= m_eff || j >= n_eff {
                        prop_assert_eq!(g.to_bits(), case.c[idx].to_bits(), "{} wrote outside the mask at {idx}", kind.label());
                        continue;
                    }
                    let bound = 2.0 * gamma(kc + 2) * (alpha.abs() * case.abs_dot(i, j) + case.c[idx].abs());
                    prop_assert!(
                        (g - w).abs() <= bound,
                        "{} kc={kc} alpha={alpha} ({i},{j}): |{g} - {w}| > {bound}",
                        kind.label()
                    );
                }
            }
        }

        /// Full and edge tiles share one rounding rule: an edge call's
        /// masked entries are bit-identical to the full-tile call's.
        #[test]
        fn edge_tiles_round_like_full_tiles(
            kc in 0usize..701,
            m_pick in 0usize..1000,
            n_pick in 0usize..1000,
            alpha in prop::sample::select(vec![0.0, -2.5, 1.0]),
            seed in 0u64..u64::MAX,
        ) {
            for kind in native() {
                let (mr, nr) = (kind.mr(), kind.nr());
                let (m_eff, n_eff) = (m_pick % (mr + 1), n_pick % (nr + 1));
                let case = Case::new(kind, kc, seed);
                let full = case.run(alpha, mr, nr, true);
                let edge = case.run(alpha, m_eff, n_eff, true);
                for j in 0..n_eff {
                    for i in 0..m_eff {
                        let idx = 1 + i + j * case.ld();
                        prop_assert_eq!(edge[idx].to_bits(), full[idx].to_bits(), "{} ({i},{j})", kind.label());
                    }
                }
            }
        }

        /// A NaN or an infinity in A or B poisons exactly the C entries
        /// it poisons under the portable kernel, with the same class.
        #[test]
        fn non_finite_operands_poison_like_portable(
            kc in 1usize..701,
            pos in 0usize..1_000_000,
            in_a in prop::bool::ANY,
            bad in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
            alpha in prop::sample::select(vec![0.0, -2.5, 1.0]),
            seed in 0u64..u64::MAX,
        ) {
            for kind in native() {
                let (mr, nr) = (kind.mr(), kind.nr());
                let mut case = Case::new(kind, kc, seed);
                let operand = if in_a { &mut case.a } else { &mut case.b };
                let len = operand.len() - 1;
                operand[1 + pos % len] = bad;
                let got = case.run(alpha, mr, nr, true);
                let want = case.run(alpha, mr, nr, false);
                let class = |x: f64| (x.is_nan(), x.is_infinite() && x > 0.0, x.is_infinite() && x < 0.0);
                for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(class(g), class(w), "{} entry {idx}: {g} vs {w}", kind.label());
                }
            }
        }
    }

    /// The shapes are the eqs. 8–11 optimum of their ISA's register
    /// file, not hand picks.
    #[test]
    fn shapes_are_the_register_file_optimum() {
        for (kind, nf, vreg_bytes) in REGISTER_FILES {
            let machine = MachineDesc {
                nf,
                vreg_bytes,
                ..MachineDesc::xgene()
            };
            let best = optimize_register_block(&machine);
            assert_eq!(
                (kind.mr(), kind.nr()),
                (best.mr, best.nr),
                "{}",
                kind.label()
            );
            assert!((kind.gamma() - best.gamma).abs() < 1e-12);
        }
        assert_eq!(MicroKernelKind::Mk24x8Avx512.label(), "AVX512-24x8");
        assert_eq!(MicroKernelKind::Mk12x4Avx2.label(), "AVX2-12x4");
        assert!((MicroKernelKind::Mk24x8Avx512.gamma() - 12.0).abs() < 1e-12);
        assert!((MicroKernelKind::Mk12x4Avx2.gamma() - 6.0).abs() < 1e-12);
    }

    /// `host()` is stable, runs natively, and is a SIMD kernel whenever
    /// the CPU supports one; the paper's set is unchanged.
    #[test]
    fn host_picks_the_widest_native_kernel() {
        let host = MicroKernelKind::host();
        assert_eq!(host, MicroKernelKind::host());
        assert!(host.is_native());
        let expected = native().first().copied().unwrap_or(MicroKernelKind::Mk8x6);
        assert_eq!(host, expected);
        assert_eq!(MicroKernelKind::ALL.len(), 4);
        assert!(MicroKernelKind::ALL.iter().all(MicroKernelKind::is_native));
        let available = MicroKernelKind::available();
        assert_eq!(available[..4], MicroKernelKind::ALL);
        assert_eq!(available[4..], native()[..]);
    }
}
