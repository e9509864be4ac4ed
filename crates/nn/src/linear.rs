//! Fully-connected layer applied independently to each timestep.

use std::sync::OnceLock;

use pelican_tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::chunk::ChunkBatch;
use crate::{Sequence, Step};

/// A fully-connected layer, `y = W·x + b`, applied per timestep.
///
/// In the paper's architectures (Fig. 1) a single `Linear` maps the last
/// LSTM hidden state to location logits; the training loop only propagates
/// loss through the final timestep, so applying the layer to every timestep
/// costs nothing extra for the sequence lengths used here (`T = 2`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
    /// Whether the optimizer may update this layer's parameters.
    pub trainable: bool,
    #[serde(skip)]
    grad_w: Option<Matrix>,
    #[serde(skip)]
    grad_b: Vec<f32>,
    #[serde(skip)]
    cache_inputs: Sequence,
    /// Packed input cache written by [`Linear::forward_chunk_packed`].
    #[serde(skip)]
    chunk_inputs: Option<ChunkBatch>,
    /// Whether `w` is all finite; see [`Linear::infer_rows`].
    #[serde(skip)]
    finite: OnceLock<bool>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, output_dim: usize, rng: &mut R) -> Self {
        assert!(input_dim > 0 && output_dim > 0, "layer dimensions must be positive");
        Self {
            w: pelican_tensor::xavier_uniform(output_dim, input_dim, rng),
            b: vec![0.0; output_dim],
            trainable: true,
            grad_w: None,
            grad_b: Vec::new(),
            cache_inputs: Vec::new(),
            chunk_inputs: None,
            finite: OnceLock::new(),
        }
    }

    /// Reassembles a layer from raw parameters (e.g. from a decoded
    /// [`crate::ModelEnvelope`]).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != w.rows()`.
    pub fn from_parts(w: Matrix, b: Vec<f32>) -> Self {
        assert_eq!(b.len(), w.rows(), "bias length must equal output dimension");
        Self {
            w,
            b,
            trainable: true,
            grad_w: None,
            grad_b: Vec::new(),
            cache_inputs: Vec::new(),
            chunk_inputs: None,
            finite: OnceLock::new(),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output feature dimension.
    pub fn output_dim(&self) -> usize {
        self.w.rows()
    }

    /// Borrows the weight matrix (`output_dim × input_dim`).
    pub fn weight(&self) -> &Matrix {
        &self.w
    }

    /// Borrows the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    fn apply(&self, x: &Step) -> Step {
        let mut y = self.w.matvec(x);
        for (yv, &bv) in y.iter_mut().zip(&self.b) {
            *yv += bv;
        }
        y
    }

    /// Inference-mode forward pass (no caches are written).
    pub fn infer(&self, xs: &[Step]) -> Sequence {
        xs.iter().map(|x| self.apply(x)).collect()
    }

    /// `W·x + b` for every row of `x`, each output row with the bits of
    /// [`Linear::infer`] on it. Finite weights go through
    /// [`Matrix::matmul_transpose_sparse`] — hidden states are dense, so
    /// they take its dense kernel, blocked from four rows up — and
    /// non-finite ones through the dense product; finiteness
    /// is scanned once and kept until [`Linear::visit_params`] hands the
    /// weights out.
    fn infer_rows(&self, x: &Matrix) -> Matrix {
        let mut ys = if *self.finite.get_or_init(|| self.w.is_finite()) {
            x.matmul_transpose_sparse(&self.w)
        } else {
            x.matmul_transpose(&self.w)
        };
        for row in ys.as_mut_slice().chunks_exact_mut(self.b.len()) {
            for (yv, &bv) in row.iter_mut().zip(&self.b) {
                *yv += bv;
            }
        }
        ys
    }

    /// Batched inference: every timestep of every sequence is packed into
    /// one matrix and answered by one product — from four rows up a
    /// register-blocked kernel vectorised across the rows, below that
    /// four accumulator chains per row, instead of a matrix–vector
    /// product's one. Bit-identical to per-sequence [`Linear::infer`].
    pub fn infer_batch<S: AsRef<[Step]>>(&self, xs: &[S]) -> Vec<Sequence> {
        let total_steps: usize = xs.iter().map(|s| s.as_ref().len()).sum();
        let mut packed = Matrix::zeros(total_steps, self.input_dim());
        let mut r = 0;
        for seq in xs {
            for step in seq.as_ref() {
                packed.row_mut(r).copy_from_slice(step);
                r += 1;
            }
        }
        let ys = self.infer_rows(&packed);
        let mut rows = ys.as_slice().chunks_exact(self.b.len()).map(<[f32]>::to_vec);
        xs.iter().map(|seq| rows.by_ref().take(seq.as_ref().len()).collect()).collect()
    }

    /// Inference over the candidates of a sweep (see [`crate::sweep`]):
    /// a timestep every candidate shares is one row and answered once,
    /// each row bit-identical to [`Linear::infer`].
    pub(crate) fn infer_sweep(&self, xs: &[Matrix]) -> Vec<Matrix> {
        xs.iter().map(|x| self.infer_rows(x)).collect()
    }

    /// FLOPs one inference timestep costs: the weight matvec.
    pub(crate) fn infer_step_flops(&self) -> u64 {
        2 * self.w.len() as u64
    }

    /// Training-mode forward pass; caches inputs for [`Linear::backward`].
    pub fn forward(&mut self, xs: &Sequence) -> Sequence {
        self.cache_inputs = xs.clone();
        self.infer(xs)
    }

    /// Backpropagates `grad_out` (one gradient per timestep), accumulating
    /// parameter gradients when trainable and returning input gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Linear::forward`] or with a gradient whose
    /// length differs from the cached sequence length.
    pub fn backward(&mut self, grad_out: &Sequence) -> Sequence {
        assert_eq!(
            grad_out.len(),
            self.cache_inputs.len(),
            "backward called with {} grads but {} cached steps",
            grad_out.len(),
            self.cache_inputs.len()
        );
        if self.trainable {
            let gw = self.grad_w.get_or_insert_with(|| Matrix::zeros(self.w.rows(), self.w.cols()));
            if self.grad_b.len() != self.b.len() {
                self.grad_b = vec![0.0; self.b.len()];
            }
            for (g, x) in grad_out.iter().zip(&self.cache_inputs) {
                gw.rank_one_update(1.0, g, x);
                for (db, &gv) in self.grad_b.iter_mut().zip(g) {
                    *db += gv;
                }
            }
        }
        grad_out.iter().map(|g| self.w.matvec_transpose(g)).collect()
    }

    /// Training-mode forward pass over a packed chunk; keeps the packed
    /// inputs (by move — no clone) for [`Linear::backward_chunk_packed`].
    ///
    /// One GEMM over every timestep of every sample plus a per-row bias
    /// add — the [`Linear::infer_batch`] discipline — so outputs are
    /// bit-identical to calling [`Linear::forward`] per sample.
    pub(crate) fn forward_chunk_packed(&mut self, x: ChunkBatch) -> ChunkBatch {
        let mut ys = x.rows.matmul_transpose(&self.w);
        for r in 0..ys.rows() {
            for (yv, &bv) in ys.row_mut(r).iter_mut().zip(&self.b) {
                *yv += bv;
            }
        }
        let out = ChunkBatch { lens: x.lens.clone(), offsets: x.offsets.clone(), rows: ys };
        self.chunk_inputs = Some(x);
        out
    }

    /// Backward pass over a packed chunk.
    ///
    /// Weight-gradient accumulation runs as one fused
    /// [`Matrix::rank_updates`] with contributions in natural packed row
    /// order — exactly the order [`Linear::backward`] called once per
    /// sample in chunk order applies them (sample-major,
    /// timestep-ascending) — and the input gradients of every timestep of
    /// every sample, formed only if `want_input_grad`, come from a single
    /// GEMM. Bit-identical to the per-sample calls.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Linear::forward_chunk_packed`] or with
    /// mismatched gradient shapes.
    pub(crate) fn backward_chunk_packed(
        &mut self,
        grad: ChunkBatch,
        want_input_grad: bool,
    ) -> Option<ChunkBatch> {
        let cached = self.chunk_inputs.as_ref().expect("backward_chunk_packed before forward");
        assert_eq!(
            grad.lens, cached.lens,
            "backward_chunk_packed gradient lengths do not match cached chunk"
        );
        if self.trainable {
            let gw = self.grad_w.get_or_insert_with(|| Matrix::zeros(self.w.rows(), self.w.cols()));
            if self.grad_b.len() != self.b.len() {
                self.grad_b = vec![0.0; self.b.len()];
            }
            let total = grad.total();
            let mut updates = Vec::with_capacity(total);
            for r in 0..total {
                updates.push((grad.rows.row(r), cached.rows.row(r)));
            }
            gw.rank_updates(1.0, &updates);
            for r in 0..total {
                for (db, &gv) in self.grad_b.iter_mut().zip(grad.rows.row(r)) {
                    *db += gv;
                }
            }
        }
        // One GEMM for every timestep of every sample: `G · W` matches the
        // per-row bits of `matvec_transpose(g)` (same k order, same
        // zero-skip on the gradient element).
        want_input_grad.then(|| {
            let dx = grad.rows.matmul(&self.w);
            ChunkBatch { lens: grad.lens, offsets: grad.offsets, rows: dx }
        })
    }

    /// Visits `(param, grad)` pairs as flat slices; used by the optimizer.
    ///
    /// Does nothing if the layer is frozen or has no accumulated gradients.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        if !self.trainable {
            return;
        }
        self.finite = OnceLock::new();
        if let Some(gw) = self.grad_w.as_mut() {
            f(self.w.as_mut_slice(), gw.as_mut_slice());
        }
        if !self.grad_b.is_empty() {
            f(&mut self.b, &mut self.grad_b);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        if let Some(gw) = self.grad_w.as_mut() {
            gw.fill_zero();
        }
        self.grad_b.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer() -> Linear {
        Linear::new(3, 2, &mut StdRng::seed_from_u64(9))
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut l = layer();
        let xs = vec![vec![1.0, 0.0, -1.0]];
        let ys = l.forward(&xs);
        let w = l.weight();
        let expect = [w[(0, 0)] - w[(0, 2)], w[(1, 0)] - w[(1, 2)]];
        assert!((ys[0][0] - expect[0]).abs() < 1e-6);
        assert!((ys[0][1] - expect[1]).abs() < 1e-6);
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let mut l = layer();
        let xs = vec![vec![0.4, -0.2, 0.7]];
        let ys = l.forward(&xs);
        // Scalar objective: sum of outputs. dL/dy = ones.
        let grad = l.backward(&vec![vec![1.0; ys[0].len()]]);
        let eps = 1e-3;
        for j in 0..3 {
            let mut plus = xs.clone();
            plus[0][j] += eps;
            let mut minus = xs.clone();
            minus[0][j] -= eps;
            let f = |s: &Sequence| l.infer(s)[0].iter().sum::<f32>();
            let fd = (f(&plus) - f(&minus)) / (2.0 * eps);
            assert!(
                (grad[0][j] - fd).abs() < 1e-2,
                "input grad {j}: analytic {} vs fd {fd}",
                grad[0][j]
            );
        }
    }

    #[test]
    fn frozen_layer_accumulates_no_grads() {
        let mut l = layer();
        l.trainable = false;
        let xs = vec![vec![1.0, 2.0, 3.0]];
        l.forward(&xs);
        l.backward(&vec![vec![1.0, 1.0]]);
        let mut visited = 0;
        l.visit_params(&mut |_, _| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    fn param_count_is_w_plus_b() {
        assert_eq!(layer().param_count(), 3 * 2 + 2);
    }

    #[test]
    fn batched_inference_matches_sequential_exactly() {
        let l = layer();
        let seqs: Vec<Sequence> = vec![
            vec![vec![0.4, -0.2, 0.7]],
            vec![vec![1.0, 0.5, -1.5], vec![0.0, 0.25, 0.125]],
            vec![vec![-0.3, 0.9, 0.1], vec![0.2, 0.2, 0.2], vec![0.6, -0.6, 0.0]],
        ];
        let batched = l.infer_batch(&seqs);
        for (seq, got) in seqs.iter().zip(&batched) {
            assert_eq!(&l.infer(seq), got);
        }
    }
}
