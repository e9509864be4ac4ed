//! A dense, row-major, `f32` matrix.
//!
//! [`Matrix`] is deliberately minimal: it provides exactly the kernels the
//! LSTM training and model-inversion code in the higher crates need, with
//! cache-friendly loop orderings, and nothing else.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32` values.
///
/// # Example
///
/// ```
/// use pelican_tensor::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(0, 1)] = 5.0;
/// assert_eq!(m.row(0), &[0.0, 5.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Sparse rows from which [`Matrix::matmul_transpose_sparse`] transposes
/// its weights. Measured at the shapes served (256 × 119, 256 × 64) on a
/// 2-core x86-64 host, the tiled transpose (21 and 11 µs) costs about six
/// blocked dense row products, and the loop it enables saves under a
/// microsecond per 4-hot row against the gather: served batches (≤ 32
/// rows) stay below, attack sweeps (72–960 candidates) above. Dense rows
/// never use it — the blocked kernel reads the row-major weights as they
/// are.
const SPARSE_TRANSPOSE_ROWS: usize = 64;

/// A row gathers its non-zeros when they number at most `cols / 4`: a
/// gathered term's strided read costs about two dense ones.
const SPARSE_ROW_GAIN: usize = 4;

/// Input rows one pass of the blocked `x·Wᵀ` kernel packs k-major: two
/// SSE2 vectors of lanes, so the kernel vectorises across a batch's rows.
const BLOCK_ROWS: usize = 8;

/// Dense rows from which a block goes through the blocked kernel (its
/// unused lanes are computed and dropped); fewer take [`Matrix::dot_rows`].
/// At 256 × 64 on a 2-core x86-64 host the blocked kernel runs at 0.3×
/// the row kernel's speed at one row, 0.6× at two, even at three, 1.3×
/// at four and 2.5× from eight.
const BLOCK_MIN_ROWS: usize = 4;

/// Weight rows one pass of the blocked kernel walks: 4 × 8 accumulators
/// fill half the SSE2 register file and leave the rest for operands.
const BLOCK_OUTS: usize = 4;

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix with every element set to `value`.
    #[cfg(test)]
    fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of {} elements cannot back a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The given rows, in the given order, as a matrix of their own.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix { rows: rows.len(), cols: self.cols, data }
    }

    /// Matrix product `self · rhs`.
    ///
    /// Uses an `i-k-j` loop ordering so the inner loop streams over
    /// contiguous rows of both operands (and vectorises across outputs).
    /// Every output element sums its `a·b` products in strict ascending
    /// `k` order, skipping the terms whose `self` entry is zero.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            rhs.add_scaled_rows(self.row(i), out.row_mut(i));
        }
        out
    }

    /// `out += Σ_k a[k] · self.row(k)` in ascending `k`, skipping the
    /// zero `a[k]` — one output row of [`Matrix::matmul`]'s `i-k-j` loop,
    /// vectorised across outputs.
    fn add_scaled_rows(&self, a: &[f32], out: &mut [f32]) {
        for (k, &a) in a.iter().enumerate() {
            if a == 0.0 {
                continue; // one-hot inputs make this branch very profitable
            }
            let b_row = &self.data[k * self.cols..(k + 1) * self.cols];
            for (o, &b) in out.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    ///
    /// From four rows up, the rows go through a register-blocked kernel
    /// that packs eight of them k-major and walks four `rhs` rows per
    /// pass: 32 independent accumulators, vectorised across the *batch's
    /// rows* rather than along `k`, against the row-major `rhs` as it is
    /// (no transposed copy). A remainder of fewer than four rows takes a
    /// row kernel with four independent accumulator chains, one per `rhs`
    /// row. Either way every output sums `self[i][k] · rhs[j][k]` from
    /// `+0.0` in strict ascending `k` with no term skipped, so each
    /// output row is bit-identical to a scalar [`Matrix::matvec`] of the
    /// same row, non-finite weights included.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        let rows: Vec<usize> = (0..self.rows).collect();
        self.dense_products(rhs, &rows, &mut out);
        out
    }

    /// `out.row(i) = rhs · self.row(i)` for every listed `i`, blocks of
    /// [`BLOCK_ROWS`] rows at a time and a remainder under
    /// [`BLOCK_MIN_ROWS`] row by row — the dense kernel behind
    /// [`Matrix::matmul_transpose`] and the dense rows of
    /// [`Matrix::matmul_transpose_sparse`].
    fn dense_products(&self, rhs: &Matrix, rows: &[usize], out: &mut Matrix) {
        let (k, n) = (self.cols, rhs.rows);
        if k == 0 {
            return; // every sum is empty: `out`'s `+0.0` stands
        }
        let mut packed = vec![[0.0f32; BLOCK_ROWS]; k];
        for block in rows.chunks(BLOCK_ROWS) {
            if block.len() < BLOCK_MIN_ROWS {
                for &i in block {
                    rhs.dot_rows(self.row(i), &mut out.data[i * n..(i + 1) * n]);
                }
                continue;
            }
            // Lanes past the block's end keep the previous block's rows:
            // they are multiplied like any other and never written out.
            for (lane, &i) in block.iter().enumerate() {
                for (p, &v) in packed.iter_mut().zip(self.row(i)) {
                    p[lane] = v;
                }
            }
            let groups = rhs.data.chunks_exact(BLOCK_OUTS * k);
            let tail = groups.remainder();
            for (g, group) in groups.enumerate() {
                let w: [&[f32]; BLOCK_OUTS] = std::array::from_fn(|r| &group[r * k..(r + 1) * k]);
                let acc = lane_dots(&packed, w);
                for (lane, &i) in block.iter().enumerate() {
                    let at = i * n + g * BLOCK_OUTS;
                    for (o, acc) in out.data[at..at + BLOCK_OUTS].iter_mut().zip(&acc) {
                        *o = acc[lane];
                    }
                }
            }
            let first = n - tail.len() / k;
            for (j, w) in (first..).zip(tail.chunks_exact(k)) {
                let [acc] = lane_dots(&packed, [w]);
                for (lane, &i) in block.iter().enumerate() {
                    out.data[i * n + j] = acc[lane];
                }
            }
        }
    }

    /// `out[j] = self.row(j) · x` on four accumulator chains, one per
    /// row of `self` — the kernel for the fewer than [`BLOCK_MIN_ROWS`]
    /// dense rows the blocked one leaves.
    #[inline]
    fn dot_rows(&self, x: &[f32], out: &mut [f32]) {
        let cols = self.cols;
        let x = &x[..cols]; // one check here lets the loops below go unchecked
        let mut j = 0;
        while j + 4 <= self.rows {
            let b0 = &self.data[j * cols..(j + 1) * cols];
            let b1 = &self.data[(j + 1) * cols..(j + 2) * cols];
            let b2 = &self.data[(j + 2) * cols..(j + 3) * cols];
            let b3 = &self.data[(j + 3) * cols..(j + 4) * cols];
            let (mut acc0, mut acc1, mut acc2, mut acc3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (k, &a) in x.iter().enumerate() {
                acc0 += a * b0[k];
                acc1 += a * b1[k];
                acc2 += a * b2[k];
                acc3 += a * b3[k];
            }
            out[j] = acc0;
            out[j + 1] = acc1;
            out[j + 2] = acc2;
            out[j + 3] = acc3;
            j += 4;
        }
        while j < self.rows {
            let b_row = &self.data[j * cols..(j + 1) * cols];
            let mut acc = 0.0;
            for (&a, &b) in x.iter().zip(b_row) {
                acc += a * b;
            }
            out[j] = acc;
            j += 1;
        }
    }

    /// Matrix product `self · rhsᵀ` for **finite** `rhs` that reads only
    /// what each `self` row makes it read — many [`Matrix::matvec`] calls
    /// against one weight matrix at O(non-zeros) per sparse row.
    ///
    /// Each row is routed by how many non-zeros it holds. An all-zero row
    /// never touches `rhs`. A row too dense to gain from skipping (more
    /// than `cols / 4` non-zeros — every hidden state) goes with the other
    /// dense rows through [`Matrix::matmul_transpose`]'s kernel: blocked
    /// across rows from four of them up, row by row below. The sparse rows (a 4-hot
    /// step) are answered one by one straight off the row-major `rhs`
    /// while they are few (a served batch): a row's non-zero `(k, x_k)`
    /// are collected and every output is `Σ x_k · rhs[j][k]` over them.
    /// From `SPARSE_TRANSPOSE_ROWS` sparse rows up (an attack sweep) one
    /// transpose of `rhs` is amortised and [`Matrix::matmul`]'s `i-k-j`
    /// loop applies: each non-zero adds one scaled row of `rhsᵀ` to the
    /// whole output row, vectorised across outputs. Which path a row takes
    /// is decided here from the rows alone.
    ///
    /// Every path sums each output's products in ascending `k` from
    /// `+0.0`, and a skipped `w · ±0.0` term could only have added `±0.0`
    /// to a sum that is never `-0.0`, so each output row has the bits of
    /// `rhs.matvec(row)`. That argument needs finite weights (`0 · NaN`
    /// and `0 · ∞` are NaN, not zero): the caller establishes
    /// [`Matrix::is_finite`] of `rhs` once per set of weights, not per
    /// product, and sends a non-finite `rhs` to
    /// [`Matrix::matmul_transpose`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose_sparse(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose_sparse dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let n = rhs.rows;
        let mut out = Matrix::zeros(self.rows, n);
        let (mut dense, mut sparse) = (Vec::new(), Vec::new());
        for i in 0..self.rows {
            let non_zeros = self.row(i).iter().filter(|&&v| v != 0.0).count();
            if non_zeros * SPARSE_ROW_GAIN > self.cols {
                dense.push(i);
            } else if non_zeros > 0 {
                sparse.push(i);
            }
        }
        self.dense_products(rhs, &dense, &mut out);
        if sparse.len() >= SPARSE_TRANSPOSE_ROWS {
            let rhs_t = rhs.transpose();
            for &i in &sparse {
                rhs_t.add_scaled_rows(self.row(i), &mut out.data[i * n..(i + 1) * n]);
            }
        } else {
            let mut non_zeros: Vec<(usize, f32)> = Vec::new();
            for &i in &sparse {
                non_zeros.clear();
                non_zeros
                    .extend(self.row(i).iter().copied().enumerate().filter(|&(_, v)| v != 0.0));
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, w) in out_row.iter_mut().zip(rhs.data.chunks_exact(rhs.cols)) {
                    let mut acc = 0.0;
                    for &(k, v) in &non_zeros {
                        acc += v * w[k];
                    }
                    *o = acc;
                }
            }
        }
        out
    }

    /// Whether every element is finite (neither NaN nor ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().fold(true, |ok, v| ok & v.is_finite())
    }

    /// Matrix-vector product `self · x`.
    ///
    /// A dense dot product per output row on one serial accumulation
    /// chain, summed in ascending `k` order: zero inputs are multiplied
    /// like any other, so a one-hot `x` costs as much as a dense one and
    /// a non-finite weight always surfaces. This is the oracle: the
    /// per-sample `forward` behind `input_gradient` and the reference
    /// loops of the equivalence suites use it, while training and
    /// inference go through [`Matrix::matmul_transpose_sparse`] (finite
    /// weights) or [`Matrix::matmul_transpose`], whose rows carry the
    /// same bits.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec dimension mismatch: {}x{} · vec[{}]",
            self.rows,
            self.cols,
            x.len()
        );
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = 0.0;
            for (&w, &xv) in row.iter().zip(x) {
                acc += w * xv;
            }
            *o = acc;
        }
        out
    }

    /// Matrix-vector product with the transpose, `selfᵀ · x`.
    ///
    /// Equivalent to `self.transpose().matvec(x)` without materializing the
    /// transpose; this is the backward-pass companion of [`Matrix::matvec`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transpose(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_transpose dimension mismatch: ({}x{})ᵀ · vec[{}]",
            self.rows,
            self.cols,
            x.len()
        );
        let mut out = vec![0.0; self.cols];
        for (i, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &w) in out.iter_mut().zip(row) {
                *o += w * xv;
            }
        }
        out
    }

    /// Returns the transpose of `self`.
    ///
    /// Copies 8 × 8 tiles through a fixed-size array, so both sides of the
    /// copy stay within a few cache lines and no element pays an index
    /// check of its own.
    pub fn transpose(&self) -> Matrix {
        const TILE: usize = 8;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        for i0 in (0..rows).step_by(TILE) {
            let height = TILE.min(rows - i0);
            for j0 in (0..cols).step_by(TILE) {
                let width = TILE.min(cols - j0);
                let mut tile = [[0.0f32; TILE]; TILE];
                for (di, t) in tile.iter_mut().enumerate().take(height) {
                    let at = (i0 + di) * cols + j0;
                    t[..width].copy_from_slice(&self.data[at..at + width]);
                }
                for dj in 0..width {
                    let at = (j0 + dj) * rows + i0;
                    for (o, t) in out.data[at..at + height].iter_mut().zip(&tile) {
                        *o = t[dj];
                    }
                }
            }
        }
        out
    }

    /// `self += alpha · other`, elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self += rowᵀ · col` scaled by `alpha` (a rank-1 update).
    ///
    /// `row` must have `self.rows()` elements and `col` must have
    /// `self.cols()` elements. Used to accumulate weight gradients from a
    /// single sample without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the matrix shape.
    pub fn rank_one_update(&mut self, alpha: f32, row: &[f32], col: &[f32]) {
        assert_eq!(row.len(), self.rows, "rank_one_update row-length mismatch");
        assert_eq!(col.len(), self.cols, "rank_one_update col-length mismatch");
        for (i, &r) in row.iter().enumerate() {
            if r == 0.0 {
                continue;
            }
            let s = alpha * r;
            let out_row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &c) in out_row.iter_mut().zip(col) {
                *o += s * c;
            }
        }
    }

    /// Applies a block of rank-1 updates in one fused pass — bit-identical
    /// to calling [`rank_one_update`](Self::rank_one_update) once per
    /// `(row, col)` pair in slice order.
    ///
    /// The fusion walks the output matrix row-major *once*, applying every
    /// contribution to a row while it is hot, instead of streaming the
    /// whole gradient matrix through cache once per contribution. Each
    /// output element still receives its `+= alpha·rowₚ[i]·colₚ[j]` terms
    /// in exactly the order the sequential calls would apply them (pair
    /// `0`, then pair `1`, …), and the same `rowₚ[i] == 0.0` skip applies,
    /// so the accumulated bits are identical. This is the backward-pass
    /// analogue of inference answering a timestep's rows in one product.
    ///
    /// # Panics
    ///
    /// Panics if any vector length does not match the matrix shape.
    pub fn rank_updates(&mut self, alpha: f32, updates: &[(&[f32], &[f32])]) {
        for &(row, col) in updates {
            assert_eq!(row.len(), self.rows, "rank_updates row-length mismatch");
            assert_eq!(col.len(), self.cols, "rank_updates col-length mismatch");
        }
        for i in 0..self.rows {
            let out_row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for &(row, col) in updates {
                let r = row[i];
                if r == 0.0 {
                    continue;
                }
                let s = alpha * r;
                for (o, &c) in out_row.iter_mut().zip(col) {
                    *o += s * c;
                }
            }
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Frobenius norm (`sqrt` of the sum of squared elements).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// The largest absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }
}

/// `acc[j][lane] = Σ_k packed[k][lane] · w[j][k]`, each sum from `+0.0`
/// in ascending `k` with no term skipped: the inner loop over lanes is
/// what vectorises, and the `J × BLOCK_ROWS` accumulators stay in
/// registers for the whole of `k`.
#[inline(always)]
fn lane_dots<const J: usize>(
    packed: &[[f32; BLOCK_ROWS]],
    w: [&[f32]; J],
) -> [[f32; BLOCK_ROWS]; J] {
    let w = w.map(|row| &row[..packed.len()]); // lets the loop below go unchecked
    let mut acc = [[0.0f32; BLOCK_ROWS]; J];
    for (k, x) in packed.iter().enumerate() {
        for (acc, w) in acc.iter_mut().zip(&w) {
            let wk = w[k];
            for (a, &xv) in acc.iter_mut().zip(x) {
                *a += xv * wk;
            }
        }
    }
    acc
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>9.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Matrix {
        /// Creates a matrix from a slice of equal-length rows.
        ///
        /// # Panics
        ///
        /// Panics if the rows have differing lengths or `rows` is empty.
        fn from_rows(rows: &[&[f32]]) -> Self {
            assert!(!rows.is_empty(), "from_rows requires at least one row");
            let cols = rows[0].len();
            let mut data = Vec::with_capacity(rows.len() * cols);
            for r in rows {
                assert_eq!(r.len(), cols, "all rows must have equal length");
                data.extend_from_slice(r);
            }
            Self { rows: rows.len(), cols, data }
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn select_rows_picks_repeats_and_reorders() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(
            a.select_rows(&[2, 0, 2]),
            Matrix::from_rows(&[&[5.0, 6.0], &[1.0, 2.0], &[5.0, 6.0]])
        );
        assert_eq!(a.select_rows(&[]).shape(), (0, 2));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_transpose_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -2.0, 0.25]]);
        assert_eq!(a.matmul_transpose(&b), a.matmul(&b.transpose()));
    }

    /// Rows with 0, 1, 4 and every entry non-zero, `-0.0` among the zeros.
    fn sparse_rows(cols: usize) -> Matrix {
        let mut x = Matrix::zeros(4, cols);
        x.row_mut(0)[2] = -0.0;
        x.row_mut(1)[3] = 1.0;
        for (n, k) in [0, 4, 5, cols - 1].into_iter().enumerate() {
            x.row_mut(2)[k] = 0.3 - 0.41 * n as f32;
        }
        x.row_mut(2)[1] = -0.0;
        for (k, v) in x.row_mut(3).iter_mut().enumerate() {
            *v = 0.17 + (k as f32 * 0.77).sin();
        }
        x
    }

    #[test]
    fn sparse_rows_product_has_the_bits_of_matvec() {
        let (cols, outs) = (11, 7);
        let w = Matrix::from_vec(
            outs,
            cols,
            (0..outs * cols).map(|i| (i as f32 * 1.37).cos() * 0.9).collect(),
        );
        // A few rows are answered row by row (skipped, gathered, dense);
        // the same rows repeated until the gathered ones pass the
        // threshold share one transpose, and the dense ones are blocked.
        let few = sparse_rows(cols);
        let mut many = Matrix::zeros(few.rows() * SPARSE_TRANSPOSE_ROWS + 3, cols);
        for r in 0..many.rows() {
            many.row_mut(r).copy_from_slice(few.row(r % few.rows()));
        }
        for x in [few, many] {
            let rows: Vec<Vec<f32>> = (0..x.rows()).map(|r| w.matvec(x.row(r))).collect();
            let fused = x.matmul_transpose_sparse(&w);
            for (r, row) in rows.iter().enumerate() {
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(fused.row(r)), bits(row), "row {r} diverged bitwise");
            }
        }
    }

    #[test]
    fn is_finite_sees_every_non_finite_element() {
        let w = Matrix::filled(3, 11, 0.5);
        assert!(w.is_finite());
        assert!(Matrix::zeros(0, 4).is_finite());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [(0, 0), (1, 6), (2, 10)] {
                let mut w = w.clone();
                w[at] = bad;
                assert!(!w.is_finite(), "{bad} at {at:?} went unseen");
            }
        }
    }

    #[test]
    fn rank_one_update_matches_outer_product() {
        let mut m = Matrix::zeros(2, 3);
        m.rank_one_update(2.0, &[1.0, 3.0], &[4.0, 5.0, 6.0]);
        assert_eq!(m, Matrix::from_rows(&[&[8.0, 10.0, 12.0], &[24.0, 30.0, 36.0]]));
    }

    #[test]
    fn rank_updates_bit_identical_to_sequential_calls() {
        // Irrational-ish values so any reassociation of the f32 sums
        // would change the bits, plus zeros to exercise the skip rule.
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|p| {
                (0..4)
                    .map(|i| {
                        if (p + i) % 3 == 0 {
                            0.0
                        } else {
                            0.1 + p as f32 * 0.37 + i as f32 * 0.113
                        }
                    })
                    .collect()
            })
            .collect();
        let cols: Vec<Vec<f32>> = (0..5)
            .map(|p| (0..3).map(|j| 0.05 + p as f32 * 0.29 + j as f32 * 0.071).collect())
            .collect();
        let updates: Vec<(&[f32], &[f32])> =
            rows.iter().zip(&cols).map(|(r, c)| (r.as_slice(), c.as_slice())).collect();

        let mut seq = Matrix::filled(4, 3, 0.25);
        for &(r, c) in &updates {
            seq.rank_one_update(0.7, r, c);
        }

        let mut fused = Matrix::filled(4, 3, 0.25);
        fused.rank_updates(0.7, &updates);

        assert_eq!(seq.data, fused.data, "fused rank updates diverged bitwise");
    }

    #[test]
    fn rank_updates_empty_is_noop() {
        let mut m = Matrix::filled(2, 2, 3.0);
        let before = m.clone();
        m.rank_updates(1.0, &[]);
        assert_eq!(m, before);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_adds_scaled() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 3.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::filled(2, 2, 2.5));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn frobenius_norm_of_unit_axes() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m}").is_empty());
    }
}
