//! Property tests of the allocation-free kernel contract: every `_into` /
//! scratch-taking kernel must be **bit-identical** to its allocating wrapper
//! on the same input. The serving engines rely on this — swapping the warm
//! per-worker scratch path in for the allocating path must never change a
//! single output bit, or the batch/stream/wire bit-identity suites (and the
//! committed goldens) would drift with engine internals.

use bcc_linalg::{cg, chebyshev, vector, CsrMatrix, DenseMatrix, FactoredPsd, SolveScratch};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random triplets on an `n × n` system, deliberately including duplicate
/// coordinates (they exercise the summing path of the CSR builder).
fn random_triplets(n: usize, entries: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..entries)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen::<f64>() * 2.0 - 1.0,
            )
        })
        .collect()
}

/// A random SPD system: a symmetrized random sparse matrix made diagonally
/// dominant, in both CSR and dense form, with a random right-hand side.
fn spd_system(n: usize, seed: u64) -> (CsrMatrix, DenseMatrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dense = DenseMatrix::zeros(n, n);
    for _ in 0..(3 * n) {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        let w = rng.gen::<f64>() * 2.0 - 1.0;
        dense.add_to(i, j, w);
        dense.add_to(j, i, w);
    }
    // Diagonal dominance: row sums of absolute values plus one.
    for i in 0..n {
        let row_abs: f64 = (0..n).map(|j| dense.get(i, j).abs()).sum();
        dense.add_to(i, i, row_abs + 1.0);
    }
    let mut triplets = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let v = dense.get(i, j);
            if v != 0.0 {
                triplets.push((i, j, v));
            }
        }
    }
    let csr = CsrMatrix::from_triplets(n, n, &triplets);
    let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    (csr, dense, b)
}

/// A sparse random square matrix whose dominant entries sit off the
/// diagonal, in a random row permutation: partial pivoting swaps rows, and
/// the zeros leave exact-zero elimination multipliers for the replay to skip.
fn pivoting_matrix(n: usize, seed: u64) -> DenseMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rows.swap(i, rng.gen_range(0..i + 1));
    }
    let mut dense = DenseMatrix::zeros(n, n);
    for (col, &row) in rows.iter().enumerate() {
        for j in 0..n {
            if rng.gen::<f64>() < 0.3 {
                dense.add_to(row, j, rng.gen::<f64>() * 2.0 - 1.0);
            }
        }
        dense.add_to(row, col, n as f64 + 1.0 + rng.gen::<f64>());
    }
    dense
}

/// `matrix` with a seeded third of its zero entries replaced by `−0.0`.
fn with_negative_zeros(matrix: &DenseMatrix, seed: u64) -> DenseMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut signed = matrix.clone();
    for i in 0..matrix.rows() {
        for j in 0..matrix.cols() {
            if matrix.get(i, j) == 0.0 && rng.gen::<f64>() < 0.3 {
                signed.set(i, j, -0.0);
            }
        }
    }
    signed
}

/// Two independent diagonally dominant blocks, their rows and columns
/// interleaved by a seeded split or split at a seeded cut (`true` marks the
/// first block). `U` holds exact `+0.0`s between the blocks, so a
/// right-hand side on one block leaves the other block's rows at exactly
/// `±0`, and a non-finite value in one block meets only skipped entries in
/// the other. After a cut, the first block's last row of `U` lists nothing.
fn two_block_matrix(n: usize, seed: u64) -> (DenseMatrix, Vec<bool>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cut = if rng.gen() {
        Some(rng.gen_range(0..n + 1))
    } else {
        None
    };
    let first: Vec<bool> = (0..n)
        .map(|i| cut.map_or_else(|| rng.gen(), |cut| i < cut))
        .collect();
    let mut dense = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if first[i] == first[j] && rng.gen::<f64>() < 0.5 {
                let w = rng.gen::<f64>() * 2.0 - 1.0;
                dense.add_to(i, j, w);
                dense.add_to(j, i, w);
            }
        }
    }
    for i in 0..n {
        let row_abs: f64 = (0..n).map(|j| dense.get(i, j).abs()).sum();
        dense.add_to(i, i, row_abs + 1.0);
    }
    (dense, first)
}

/// One right-hand side that stresses the exactness rule of the compressed
/// replay, drawn on the split `first` of [`two_block_matrix`]: all `−0.0`;
/// finite on the first block and `±0` on the second; entries from
/// `{±0, NaN, ±∞, ±1e-300, finite}`; or finite with one NaN or `±∞` on the
/// second block.
fn adversarial_rhs(first: &[bool], rng: &mut ChaCha8Rng) -> Vec<f64> {
    let signed_zero = |rng: &mut ChaCha8Rng| if rng.gen() { 0.0 } else { -0.0 };
    let finite =
        |rng: &mut ChaCha8Rng| (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-8i32..9));
    let n = first.len();
    match rng.gen_range(0..4) {
        0 => vec![-0.0; n],
        1 => first
            .iter()
            .map(|&on| if on { finite(rng) } else { signed_zero(rng) })
            .collect(),
        2 => (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 | 1 => signed_zero(rng),
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => f64::NEG_INFINITY,
                5 => {
                    if rng.gen() {
                        1e-300
                    } else {
                        -1e-300
                    }
                }
                _ => finite(rng),
            })
            .collect(),
        _ => {
            let mut b: Vec<f64> = (0..n).map(|_| finite(rng)).collect();
            let second: Vec<usize> = (0..n).filter(|&i| !first[i]).collect();
            if !second.is_empty() {
                b[second[rng.gen_range(0..second.len())]] =
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
            }
            b
        }
    }
}

/// The vectors interleaved as one block: entry `i` of lane `j` at
/// `i·lanes + j`.
fn interleave(vectors: &[Vec<f64>], n: usize) -> Vec<f64> {
    let lanes = vectors.len();
    let mut block = vec![0.0; n * lanes];
    for (j, lane) in vectors.iter().enumerate() {
        for (i, &v) in lane.iter().enumerate() {
            block[i * lanes + j] = v;
        }
    }
    block
}

/// `lanes` random vectors of length `n`, one of them all `−0.0`.
fn random_lanes(n: usize, lanes: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut vectors: Vec<Vec<f64>> = (0..lanes)
        .map(|_| {
            let scale = 10f64.powi(rng.gen_range(-8i32..9));
            (0..n).map(|_| (rng.gen::<f64>() - 0.5) * scale).collect()
        })
        .collect();
    vectors[rng.gen_range(0..lanes)] = vec![-0.0; n];
    vectors
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// `kernel` run on the vectors `L` at a time, interleaved as one block, a
/// short last group padded with copies of its last vector; the bits of each
/// vector's lane of the result.
fn in_groups<const L: usize>(
    vectors: &[Vec<f64>],
    kernel: impl Fn(&mut Vec<f64>),
) -> Vec<Vec<u64>> {
    let n = vectors[0].len();
    let mut lanes = Vec::new();
    for group in vectors.chunks(L) {
        let padded: Vec<Vec<f64>> = (0..L)
            .map(|j| group[j.min(group.len() - 1)].clone())
            .collect();
        let mut block = interleave(&padded, n);
        kernel(&mut block);
        lanes.extend((0..group.len()).map(|j| bits(&block[j..]).into_iter().step_by(L).collect()));
    }
    lanes
}

/// Every vector solved by the `L`-lane replay, `L` at a time.
fn replay_in_groups<const L: usize>(
    factored: &FactoredPsd,
    vectors: &[Vec<f64>],
    zero_mean: bool,
) -> Vec<Vec<u64>> {
    in_groups::<L>(vectors, |block| {
        // A dirty output buffer: the kernel must overwrite every entry.
        let mut out = vec![f64::NAN; block.len()];
        factored.solve_lanes_into::<L>(block, &mut out, zero_mean);
        *block = out;
    })
}

/// The replay at every lane width a solver runs (`L = 1`, 2, 4 and 10),
/// every vector of `vectors`, gives the bits of `solve_psd` on `matrix`.
fn assert_replays_match_solve_psd(matrix: &DenseMatrix, vectors: &[Vec<f64>]) {
    let factored = matrix.factor_psd().expect("non-singular systems factor");
    for zero_mean in [false, true] {
        let reference: Vec<Vec<u64>> = vectors
            .iter()
            .map(|b| {
                bits(
                    &matrix
                        .solve_psd(b, zero_mean)
                        .expect("non-singular systems solve"),
                )
            })
            .collect();
        for (width, replayed) in [
            (1, replay_in_groups::<1>(&factored, vectors, zero_mean)),
            (2, replay_in_groups::<2>(&factored, vectors, zero_mean)),
            (4, replay_in_groups::<4>(&factored, vectors, zero_mean)),
            (10, replay_in_groups::<10>(&factored, vectors, zero_mean)),
        ] {
            for (j, expected) in reference.iter().enumerate() {
                assert_eq!(
                    &replayed[j], expected,
                    "L = {width}, vector {j}, zero_mean {zero_mean}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_lane_replay_is_bit_identical_to_per_lane_solve_psd(
        n in 1usize..14,
        lanes in 1usize..24,
        seed in any::<u64>(),
    ) {
        let vectors = random_lanes(n, lanes, seed ^ 0xB10C);
        for matrix in [pivoting_matrix(n, seed), spd_system(n, seed).1] {
            assert_replays_match_solve_psd(&matrix, &vectors);
        }
    }

    #[test]
    fn lane_mean_removal_is_bit_identical_to_per_lane_remove_mean(
        n in 1usize..40,
        lanes in 1usize..40,
        seed in any::<u64>(),
    ) {
        let vectors = random_lanes(n, lanes, seed);
        for (width, centered) in [
            (1, in_groups::<1>(&vectors, |block| vector::remove_lane_means_in_place::<1>(block))),
            (2, in_groups::<2>(&vectors, |block| vector::remove_lane_means_in_place::<2>(block))),
            (4, in_groups::<4>(&vectors, |block| vector::remove_lane_means_in_place::<4>(block))),
            (10, in_groups::<10>(&vectors, |block| vector::remove_lane_means_in_place::<10>(block))),
        ] {
            for (j, lane) in vectors.iter().enumerate() {
                let reference = bits(&vector::remove_mean(lane));
                prop_assert_eq!(&centered[j], &reference, "L = {}, lane {}", width, j);
            }
        }
    }

    #[test]
    fn matvec_into_is_bit_identical_to_matvec(
        n in 2usize..24,
        entries in 1usize..96,
        seed in any::<u64>(),
    ) {
        let triplets = random_triplets(n, entries, seed);
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();

        let allocated = a.matvec(&x);
        // A dirty warm buffer: `_into` must fully overwrite it.
        let mut reused = vec![f64::NAN; n];
        a.matvec_into(&x, &mut reused);
        prop_assert_eq!(&allocated, &reused);

        let allocated_t = a.matvec_transpose(&x);
        let mut reused_t = vec![f64::NAN; n];
        a.matvec_transpose_into(&x, &mut reused_t);
        prop_assert_eq!(&allocated_t, &reused_t);
    }

    #[test]
    fn cg_scratch_path_is_bit_identical_to_the_allocating_wrapper(
        n in 2usize..16,
        seed in any::<u64>(),
    ) {
        let (a, _, b) = spd_system(n, seed);
        let allocated = cg::conjugate_gradient(|x| a.matvec(x), &b, None, 1e-10, 200);

        let mut scratch = SolveScratch::new();
        // Two runs over the same scratch: the warm second run must agree
        // bit-for-bit with the cold first one and with the wrapper.
        for _ in 0..2 {
            let stats = cg::conjugate_gradient_with(
                |x, out| a.matvec_into(x, out),
                &b,
                None,
                1e-10,
                200,
                &mut scratch,
            );
            prop_assert_eq!(&allocated.solution, &scratch.x);
            prop_assert_eq!(allocated.iterations, stats.iterations);
            prop_assert_eq!(allocated.residual_norm.to_bits(), stats.residual_norm.to_bits());
            prop_assert_eq!(allocated.converged, stats.converged);
        }
    }

    #[test]
    fn preconditioned_cg_scratch_path_is_bit_identical(
        n in 2usize..16,
        seed in any::<u64>(),
    ) {
        let (a, dense, b) = spd_system(n, seed);
        let diag: Vec<f64> = (0..n).map(|i| dense.get(i, i)).collect();
        let precond = |r: &[f64]| -> Vec<f64> {
            r.iter().zip(&diag).map(|(v, d)| v / d).collect()
        };
        let allocated =
            cg::conjugate_gradient(|x| a.matvec(x), &b, Some(&precond), 1e-10, 200);

        let mut scratch = SolveScratch::new();
        let mut jacobi = |r: &[f64], z: &mut [f64]| {
            for ((zi, ri), di) in z.iter_mut().zip(r).zip(&diag) {
                *zi = ri / di;
            }
        };
        let stats = cg::conjugate_gradient_with(
            |x, out| a.matvec_into(x, out),
            &b,
            Some(&mut jacobi),
            1e-10,
            200,
            &mut scratch,
        );
        prop_assert_eq!(&allocated.solution, &scratch.x);
        prop_assert_eq!(allocated.iterations, stats.iterations);
        prop_assert_eq!(allocated.residual_norm.to_bits(), stats.residual_norm.to_bits());
    }

    #[test]
    fn chebyshev_scratch_path_is_bit_identical_to_the_allocating_wrapper(
        n in 2usize..24,
        iterations in 1usize..40,
        seed in any::<u64>(),
    ) {
        // Diagonal test pair A = diag(d), B = κ·I with d in [1, κ].
        let kappa = 8.0;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let diag: Vec<f64> = (0..n)
            .map(|_| 1.0 + (kappa - 1.0) * rng.gen::<f64>())
            .collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();

        let allocated = chebyshev::preconditioned_chebyshev_fixed(
            |x| x.iter().zip(&diag).map(|(v, d)| v * d).collect(),
            |r| r.iter().map(|v| v / kappa).collect(),
            kappa,
            &b,
            iterations,
        );

        let mut scratch = SolveScratch::new();
        for _ in 0..2 {
            let stats = chebyshev::preconditioned_chebyshev_fixed_with(
                |x, out| {
                    for ((o, v), d) in out.iter_mut().zip(x).zip(&diag) {
                        *o = v * d;
                    }
                },
                |r, out| {
                    for (o, v) in out.iter_mut().zip(r) {
                        *o = v / kappa;
                    }
                },
                kappa,
                &b,
                iterations,
                &mut scratch,
            );
            prop_assert_eq!(&allocated.solution, &scratch.x);
            prop_assert_eq!(allocated.iterations, stats.iterations);
            prop_assert_eq!(
                allocated.residual_norm.to_bits(),
                stats.residual_norm.to_bits()
            );
        }
    }

    #[test]
    fn factored_psd_solve_into_is_bit_identical_to_solve_psd(
        n in 2usize..14,
        rhs_count in 1usize..4,
        seed in any::<u64>(),
    ) {
        for dense in [spd_system(n, seed).1, pivoting_matrix(n, seed)] {
            let factored = dense.factor_psd().expect("non-singular systems factor");
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFAC7);
            let mut out = vec![f64::NAN; n];
            for _ in 0..rhs_count {
                let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
                for zero_mean in [false, true] {
                    let reference = dense
                        .solve_psd(&b, zero_mean)
                        .expect("non-singular systems solve");
                    factored.solve_into(&b, &mut out, zero_mean);
                    prop_assert_eq!(bits(&reference), bits(&out));
                    let allocated = factored.solve(&b, zero_mean);
                    prop_assert_eq!(bits(&reference), bits(&allocated));
                }
            }
        }
    }

    #[test]
    fn both_replay_kernels_match_solve_psd_on_adversarial_inputs(
        n in 1usize..40,
        lanes in 1usize..40,
        seed in any::<u64>(),
    ) {
        // Pivoting, `−0.0` entries, rows ending at exactly `±0` (the blocks),
        // and right-hand sides with `±0`, NaN, `±∞` or an all-`−0.0` lane;
        // more than 10 lanes take several groups of the ten-lane replay, and
        // a short last group is padded. Lines of 16 entries or more are
        // listed when the blocks keep them sparse, and kept whole when they
        // fill up.
        let (blocks, first) = two_block_matrix(n, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAD5E);
        let mut vectors: Vec<Vec<f64>> =
            (0..lanes).map(|_| adversarial_rhs(&first, &mut rng)).collect();
        vectors[rng.gen_range(0..lanes)] = vec![-0.0; n];
        for matrix in [
            pivoting_matrix(n, seed),
            with_negative_zeros(&pivoting_matrix(n, seed), seed),
            with_negative_zeros(&blocks, seed),
            blocks,
        ] {
            assert_replays_match_solve_psd(&matrix, &vectors);
        }
    }

    #[test]
    fn in_place_vector_kernels_are_bit_identical(
        n in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 10.0 - 5.0).collect();
        let alpha = rng.gen::<f64>() * 4.0 - 2.0;

        let scaled = vector::scale(&x, alpha);
        let mut in_place = x.clone();
        vector::scale_in_place(&mut in_place, alpha);
        prop_assert_eq!(&scaled, &in_place);
    }
}
