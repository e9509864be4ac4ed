//! Property-based tests of the matrix kernels: algebraic identities that
//! must hold for any shapes and values.

use proptest::prelude::*;

use pelican_tensor::{argmax, softmax, top_k, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Every 8-row remainder of the blocked `x·Wᵀ` kernel and both sides of
/// its 4-row crossover (0–40), and both sides of the 64-sparse-row one.
const ROW_COUNTS: [std::ops::RangeInclusive<usize>; 2] = [0..=40, 60..=70];
/// Input widths: below, at and above a 4-hot row's gather threshold, and
/// the two the models use.
const COLS: [usize; 6] = [1, 3, 4, 12, 64, 119];
/// Weight rows: every remainder of the kernel's four-row pass.
const OUTS: [usize; 4] = [1, 6, 11, 16];

/// A splitmix64 stream: everything a case draws is a function of its seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A non-zero value in ±[0.25, 2.25).
    fn value(&mut self) -> f32 {
        let v = 0.25 + (self.next() >> 40) as f32 / (1u64 << 23) as f32;
        if self.next() & 1 == 0 {
            v
        } else {
            -v
        }
    }

    /// A finite weight: mostly ordinary, sometimes `±0.0` or subnormal.
    fn weight(&mut self) -> f32 {
        match self.below(16) {
            0 => -0.0,
            1 => 0.0,
            2 => f32::from_bits(1 + self.below(0x7f_ffff) as u32) * self.value().signum(),
            _ => self.value() * 0.5,
        }
    }
}

/// One input row of the given kind: all zero (some of it `-0.0`),
/// one-hot, 4-hot, dense, or dense with `-0.0` and subnormal entries.
fn fill_row(row: &mut [f32], kind: usize, s: &mut Stream) {
    let cols = row.len();
    match kind {
        0 => row.iter_mut().for_each(|v| *v = if s.below(2) == 0 { -0.0 } else { 0.0 }),
        1 => row[s.below(cols)] = s.value(),
        2 => (0..4).for_each(|_| row[s.below(cols)] = s.value()),
        3 => row.iter_mut().for_each(|v| *v = s.value()),
        _ => row.iter_mut().for_each(|v| {
            *v = match s.below(4) {
                0 => -0.0,
                1 => f32::from_bits(1 + s.below(0x7f_ffff) as u32) * s.value().signum(),
                _ => s.value(),
            }
        }),
    }
}

/// `rows × cols` inputs mixing every kind, or — when `sparse_only` —
/// only one- and 4-hot rows, so every row a width lets gather is sparse.
fn inputs(rows: usize, cols: usize, sparse_only: bool, s: &mut Stream) -> Matrix {
    let mut x = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let kind = if sparse_only { 1 + s.below(2) } else { s.below(5) };
        fill_row(x.row_mut(r), kind, s);
    }
    x
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Asserts every row of `product(x, w)` has the bits of `w.matvec(row)`.
fn assert_rows_are_matvecs(
    x: &Matrix,
    w: &Matrix,
    name: &str,
    product: fn(&Matrix, &Matrix) -> Matrix,
) {
    let got = product(x, w);
    let (m, k, n) = (x.rows(), x.cols(), w.rows());
    assert_eq!(got.shape(), (m, n));
    for r in 0..m {
        assert_eq!(
            bits(got.row(r)),
            bits(&w.matvec(x.row(r))),
            "{name} row {r} of {m}x{k} · ({n}x{k})ᵀ diverged from matvec"
        );
    }
}

/// `outs × cols` finite weights.
fn weights(outs: usize, cols: usize, s: &mut Stream) -> Matrix {
    Matrix::from_vec(outs, cols, (0..outs * cols).map(|_| s.weight()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_products_have_the_bits_of_matvec(
        seed in 0u64..u64::MAX,
        sparse_only in 0u8..2,
    ) {
        let s = &mut Stream(seed);
        for rows in ROW_COUNTS.into_iter().flatten() {
            for cols in COLS {
                for outs in OUTS {
                    let x = inputs(rows, cols, sparse_only == 1, s);
                    let w = weights(outs, cols, s);
                    assert_rows_are_matvecs(&x, &w, "matmul_transpose", Matrix::matmul_transpose);
                    assert_rows_are_matvecs(
                        &x,
                        &w,
                        "matmul_transpose_sparse",
                        Matrix::matmul_transpose_sparse,
                    );
                }
            }
        }
    }

    /// One class of non-finite weight per matrix — NaN, or ±∞: a sum that
    /// met both a NaN weight and an invalid `∞ · 0` would hold two NaN
    /// payloads, and which one an addition keeps is the compiler's operand
    /// order, not anything a kernel decides.
    #[test]
    fn non_finite_weights_surface_in_the_dense_product(seed in 0u64..u64::MAX) {
        let s = &mut Stream(seed);
        for rows in ROW_COUNTS.into_iter().flatten() {
            for cols in COLS {
                let outs = OUTS[s.below(OUTS.len())];
                let x = inputs(rows, cols, false, s);
                let mut w = weights(outs, cols, s);
                let nan = s.below(2) == 0;
                for _ in 0..1 + s.below(3) {
                    let bad = if nan { f32::NAN } else { f32::INFINITY * s.value().signum() };
                    w[(s.below(outs), s.below(cols))] = bad;
                }
                assert_rows_are_matvecs(&x, &w, "matmul_transpose", Matrix::matmul_transpose);
            }
        }
    }
}

proptest! {
    #[test]
    fn matmul_identity_left_and_right(m in (1usize..6, 1usize..6).prop_flat_map(|(r, c)| matrix(r, c))) {
        let left = Matrix::identity(m.rows()).matmul(&m);
        let right = m.matmul(&Matrix::identity(m.cols()));
        prop_assert_eq!(&left, &m);
        prop_assert_eq!(&right, &m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        dims in (1usize..5, 1usize..5, 1usize..5),
        seed in 0u64..100,
    ) {
        let (r, k, c) = dims;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = pelican_tensor::xavier_uniform(r, k, &mut rng);
        let mut b = pelican_tensor::xavier_uniform(k, c, &mut rng);
        let c2 = pelican_tensor::xavier_uniform(k, c, &mut rng);
        // a·(b + c) == a·b + a·c
        let mut ab = a.matmul(&b);
        let ac = a.matmul(&c2);
        ab.axpy(1.0, &ac);
        b.axpy(1.0, &c2);
        let combined = a.matmul(&b);
        for (x, y) in combined.as_slice().iter().zip(ab.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4, "distributivity violated: {x} vs {y}");
        }
    }

    #[test]
    fn transpose_swaps_matmul_order(
        dims in (1usize..5, 1usize..5, 1usize..5),
        seed in 0u64..100,
    ) {
        let (r, k, c) = dims;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = pelican_tensor::xavier_uniform(r, k, &mut rng);
        let b = pelican_tensor::xavier_uniform(k, c, &mut rng);
        // (a·b)ᵀ == bᵀ·aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_agrees_with_matmul(
        dims in (1usize..6, 1usize..6),
        seed in 0u64..100,
    ) {
        let (r, c) = dims;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let w = pelican_tensor::xavier_uniform(r, c, &mut rng);
        let x = pelican_tensor::xavier_uniform(c, 1, &mut rng);
        let via_matvec = w.matvec(x.as_slice());
        let via_matmul = w.matmul(&x);
        for (a, b) in via_matvec.iter().zip(via_matmul.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn matvec_transpose_is_adjoint(
        dims in (1usize..6, 1usize..6),
        seed in 0u64..100,
    ) {
        // <W·x, y> == <x, Wᵀ·y> — the adjoint identity backprop relies on.
        let (r, c) = dims;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let w = pelican_tensor::xavier_uniform(r, c, &mut rng);
        let x: Vec<f32> = pelican_tensor::xavier_uniform(c, 1, &mut rng).into_vec();
        let y: Vec<f32> = pelican_tensor::xavier_uniform(r, 1, &mut rng).into_vec();
        let wx = w.matvec(&x);
        let wty = w.matvec_transpose(&y);
        let lhs: f32 = wx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&wty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3, "adjoint identity violated: {lhs} vs {rhs}");
    }

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-20.0f32..20.0, 1..40)) {
        let p = softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // argmax preserved
        prop_assert_eq!(argmax(&p), argmax(&logits));
    }

    #[test]
    fn top_k_is_sorted_prefix(values in prop::collection::vec(-100.0f32..100.0, 0..30), k in 0usize..35) {
        let idx = top_k(&values, k);
        prop_assert_eq!(idx.len(), k.min(values.len()));
        for pair in idx.windows(2) {
            prop_assert!(values[pair[0]] >= values[pair[1]]);
        }
        // every non-selected value is <= the k-th selected value
        if let Some(&last) = idx.last() {
            for (i, &v) in values.iter().enumerate() {
                if !idx.contains(&i) {
                    prop_assert!(v <= values[last] + 1e-6);
                }
            }
        }
    }

    #[test]
    fn rank_one_update_is_additive(
        dims in (1usize..5, 1usize..5),
        seed in 0u64..100,
    ) {
        let (r, c) = dims;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let row: Vec<f32> = pelican_tensor::xavier_uniform(r, 1, &mut rng).into_vec();
        let col: Vec<f32> = pelican_tensor::xavier_uniform(c, 1, &mut rng).into_vec();
        let mut once = Matrix::zeros(r, c);
        once.rank_one_update(2.0, &row, &col);
        let mut twice = Matrix::zeros(r, c);
        twice.rank_one_update(1.0, &row, &col);
        twice.rank_one_update(1.0, &row, &col);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn frobenius_norm_is_subadditive(
        dims in (1usize..5, 1usize..5),
        seed in 0u64..100,
    ) {
        let (r, c) = dims;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = pelican_tensor::xavier_uniform(r, c, &mut rng);
        let b = pelican_tensor::xavier_uniform(r, c, &mut rng);
        let mut sum = a.clone();
        sum.axpy(1.0, &b);
        prop_assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-4);
    }
}
