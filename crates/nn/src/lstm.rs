//! Long short-term memory layer with full backpropagation through time.
//!
//! Implements the standard LSTM cell of Hochreiter & Schmidhuber —
//! the architecture the paper identifies as state of the art for human
//! mobility prediction (§II) — with a hand-written BPTT backward pass that
//! yields exact gradients with respect to both parameters and inputs. Input
//! gradients are what make the gradient-descent model-inversion attack of
//! §III-B possible.

use std::sync::OnceLock;

use pelican_tensor::{sigmoid, tanh, tanh_in_place, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::chunk::ChunkBatch;
use crate::sweep::shared_row;
use crate::{Sequence, Step};

/// Activations cached for one timestep during the forward pass.
#[derive(Debug, Clone)]
struct StepCache {
    x: Step,
    h_prev: Step,
    c_prev: Step,
    i: Step,
    f: Step,
    g: Step,
    o: Step,
    tanh_c: Step,
}

/// Flat activation caches for one whole chunk, written by
/// [`Lstm::forward_chunk_packed`] and consumed by
/// [`Lstm::backward_chunk_packed`].
///
/// Rows are packed sample-major (`offsets[i] + t` addresses sample `i`,
/// timestep `t`), so the entire chunk needs a handful of allocations
/// instead of one [`StepCache`] (eight heap vectors) per sample-step —
/// at mobile-scale hidden sizes the per-step allocation traffic costs
/// more than the gate arithmetic it books. `c`/`h` store *post*-step
/// state; the previous row (or zeros at `t == 0`) is the `c_prev` /
/// `h_prev` the backward pass needs.
#[derive(Debug, Clone)]
struct ChunkCache {
    /// Per-sample sequence lengths.
    lens: Vec<usize>,
    /// Row offset of each sample's `t = 0` (length `lens.len() + 1`;
    /// the final entry is the total row count).
    offsets: Vec<usize>,
    /// Inputs, `total × I` — also the operand of the fused input GEMM.
    x: Matrix,
    /// Gate activations `[i, f, g, o]` per row, `total × 4H`.
    gates: Vec<f32>,
    /// Cell state after each step, `total × H`.
    c: Vec<f32>,
    /// `tanh` of the cell state, `total × H`.
    tanh_c: Vec<f32>,
    /// Hidden state after each step, `total × H`.
    h: Vec<f32>,
}

impl Default for ChunkCache {
    fn default() -> Self {
        Self {
            lens: Vec::new(),
            offsets: vec![0],
            x: Matrix::zeros(0, 0),
            gates: Vec::new(),
            c: Vec::new(),
            tanh_c: Vec::new(),
            h: Vec::new(),
        }
    }
}

/// One row's cell update, for the batched paths: activates the gate
/// pre-activations `[i, f, g, o]` in place, then writes
/// `c = f·c_prev + i·g`, `tanh_c = tanh(c)` and `h = o·tanh_c`. Each
/// element keeps the per-sample `step`'s expression; running them as
/// element-wise passes lets each `tanh` take a whole block in
/// [`tanh_in_place`]'s lanes.
fn cell_update(
    gates: &mut [f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    let n = c.len();
    let (ifg, o) = gates.split_at_mut(3 * n);
    for v in ifg[..2 * n].iter_mut().chain(o.iter_mut()) {
        *v = sigmoid(*v);
    }
    tanh_in_place(&mut ifg[2 * n..]);
    let (i, fg) = ifg.split_at(n);
    let (f, g) = fg.split_at(n);
    for k in 0..n {
        c[k] = f[k] * c_prev[k] + i[k] * g[k];
    }
    tanh_c.copy_from_slice(c);
    tanh_in_place(tanh_c);
    for ((hv, &ov), &tc) in h.iter_mut().zip(&*o).zip(&*tanh_c) {
        *hv = ov * tc;
    }
}

/// An LSTM layer processing sequences step by step.
///
/// Gate layout in the packed `4H` pre-activation vector is `[i, f, g, o]`
/// (input, forget, cell candidate, output), matching PyTorch's `nn.LSTM`
/// so that hyperparameters transfer intuition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    /// Input-to-hidden weights, `4H × I`.
    w_ih: Matrix,
    /// Hidden-to-hidden weights, `4H × H`.
    w_hh: Matrix,
    /// Combined gate bias, length `4H`. Forget-gate slice initialized to 1.
    b: Vec<f32>,
    hidden: usize,
    /// Whether the optimizer may update this layer's parameters.
    pub trainable: bool,
    #[serde(skip)]
    grad_w_ih: Option<Matrix>,
    #[serde(skip)]
    grad_w_hh: Option<Matrix>,
    #[serde(skip)]
    grad_b: Vec<f32>,
    #[serde(skip)]
    cache: Vec<StepCache>,
    /// Flat chunk caches written by [`Lstm::forward_chunk_packed`].
    #[serde(skip)]
    chunk_cache: ChunkCache,
    /// Whether `w_ih` and `w_hh` are all finite; see [`Lstm::project`].
    #[serde(skip)]
    finite: OnceLock<bool>,
}

impl Lstm {
    /// Creates an LSTM with Xavier-uniform weights and the forget-gate bias
    /// set to 1 (the usual trick to avoid early vanishing of cell state).
    pub fn new<R: Rng + ?Sized>(input_dim: usize, hidden_dim: usize, rng: &mut R) -> Self {
        assert!(input_dim > 0 && hidden_dim > 0, "layer dimensions must be positive");
        let mut b = vec![0.0; 4 * hidden_dim];
        b[hidden_dim..2 * hidden_dim].fill(1.0);
        Self {
            w_ih: pelican_tensor::xavier_uniform(4 * hidden_dim, input_dim, rng),
            w_hh: pelican_tensor::xavier_uniform(4 * hidden_dim, hidden_dim, rng),
            b,
            hidden: hidden_dim,
            trainable: true,
            grad_w_ih: None,
            grad_w_hh: None,
            grad_b: Vec::new(),
            cache: Vec::new(),
            chunk_cache: ChunkCache::default(),
            finite: OnceLock::new(),
        }
    }

    /// Reassembles an LSTM from raw parameters (e.g. from a decoded
    /// [`crate::ModelEnvelope`]).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent: `w_ih` must be `4H × I`,
    /// `w_hh` must be `4H × H` and `b` must have length `4H`.
    pub fn from_parts(w_ih: Matrix, w_hh: Matrix, b: Vec<f32>) -> Self {
        let hidden = w_hh.cols();
        assert_eq!(w_ih.rows(), 4 * hidden, "w_ih must have 4H rows");
        assert_eq!(w_hh.rows(), 4 * hidden, "w_hh must have 4H rows");
        assert_eq!(b.len(), 4 * hidden, "bias must have 4H entries");
        Self {
            w_ih,
            w_hh,
            b,
            hidden,
            trainable: true,
            grad_w_ih: None,
            grad_w_hh: None,
            grad_b: Vec::new(),
            cache: Vec::new(),
            chunk_cache: ChunkCache::default(),
            finite: OnceLock::new(),
        }
    }

    /// Records whether `w_ih` and `w_hh` are all finite, as a decoder
    /// that converted every weight has seen, so [`Lstm::project`] need
    /// not scan them. `finite` must be `w_ih.is_finite() &&
    /// w_hh.is_finite()`; [`Lstm::visit_params`] forgets it.
    pub(crate) fn set_finite(&mut self, finite: bool) {
        debug_assert_eq!(finite, self.w_ih.is_finite() && self.w_hh.is_finite());
        self.finite = OnceLock::from(finite);
    }

    /// Borrows the input-to-hidden weights (`4H × I`).
    pub fn weight_ih(&self) -> &Matrix {
        &self.w_ih
    }

    /// Borrows the hidden-to-hidden weights (`4H × H`).
    pub fn weight_hh(&self) -> &Matrix {
        &self.w_hh
    }

    /// Borrows the combined gate bias (length `4H`).
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.w_ih.cols()
    }

    /// Hidden-state (output) dimension.
    pub fn output_dim(&self) -> usize {
        self.hidden
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w_ih.len() + self.w_hh.len() + self.b.len()
    }

    fn step(&self, x: &Step, h_prev: &Step, c_prev: &Step) -> (Step, Step, StepCache) {
        let h = self.hidden;
        let mut z = self.w_ih.matvec(x);
        let zh = self.w_hh.matvec(h_prev);
        for ((zv, &hv), &bv) in z.iter_mut().zip(&zh).zip(&self.b) {
            *zv += hv + bv;
        }
        let mut i = vec![0.0; h];
        let mut f = vec![0.0; h];
        let mut g = vec![0.0; h];
        let mut o = vec![0.0; h];
        for k in 0..h {
            i[k] = sigmoid(z[k]);
            f[k] = sigmoid(z[h + k]);
            g[k] = tanh(z[2 * h + k]);
            o[k] = sigmoid(z[3 * h + k]);
        }
        let mut c = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        let mut h_out = vec![0.0; h];
        for k in 0..h {
            c[k] = f[k] * c_prev[k] + i[k] * g[k];
            tanh_c[k] = tanh(c[k]);
            h_out[k] = o[k] * tanh_c[k];
        }
        let cache = StepCache {
            x: x.clone(),
            h_prev: h_prev.clone(),
            c_prev: c_prev.clone(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (h_out, c, cache)
    }

    /// `rows · wᵀ` for one of this layer's weight matrices, each output
    /// row with the bits of `w.matvec(row)`: finite weights are read only
    /// where a row is non-zero ([`Matrix::matmul_transpose_sparse`]), a
    /// non-finite layer takes the dense product so that `0 · NaN` and
    /// `0 · ∞` surface. Finiteness of `w_ih` and `w_hh` is scanned on
    /// first use — unless the envelope decoder already recorded it — and
    /// kept until [`Lstm::visit_params`] — the only place they change —
    /// hands them out, so a layer in training rescans once per optimizer
    /// step.
    fn project(&self, rows: &Matrix, w: &Matrix) -> Matrix {
        if *self.finite.get_or_init(|| self.w_ih.is_finite() && self.w_hh.is_finite()) {
            rows.matmul_transpose_sparse(w)
        } else {
            rows.matmul_transpose(w)
        }
    }

    /// One inference timestep for a set of sequences — the one place
    /// inference forms gate pre-activations, `z = W_ih·x + (W_hh·h + b)`
    /// in the grouping of the training-mode `step`, and applies the cell
    /// update. `x` and the state `(h, c)` hold one row per sequence, or a
    /// single row that every sequence shares (a sweep); the new state has
    /// one row per sequence unless everything was shared.
    ///
    /// What a served query is makes most of the nominal work vanish in
    /// [`Lstm::project`]: an encoded session step has four non-zeros, so
    /// its input projection reads four columns of `W_ih`, and at `t = 0`
    /// every `h` row is zero, so `W_hh` is not read at all — `+0.0 + b`
    /// and `f · 0 + i·g` are still evaluated, which keeps a `-0.0` bias
    /// and NaN gates bit-exact.
    fn infer_step(&self, x: &Matrix, h: &Matrix, c: &Matrix) -> (Matrix, Matrix) {
        let hd = self.hidden;
        let z_ih = self.project(x, &self.w_ih);
        let mut z_hh = self.project(h, &self.w_hh);
        for row in z_hh.as_mut_slice().chunks_exact_mut(4 * hd) {
            for (v, &bv) in row.iter_mut().zip(&self.b) {
                *v += bv;
            }
        }
        let rows = x.rows().max(h.rows());
        let mut h_new = Matrix::zeros(rows, hd);
        let mut c_new = Matrix::zeros(rows, hd);
        let mut gates = vec![0.0; 4 * hd];
        let mut tanh_c = vec![0.0; hd];
        for r in 0..rows {
            let (zi, zh) = (shared_row(&z_ih, r), shared_row(&z_hh, r));
            for ((g, &a), &b) in gates.iter_mut().zip(zi).zip(zh) {
                *g = a + b;
            }
            let (c_row, h_row) = (c_new.row_mut(r), h_new.row_mut(r));
            cell_update(&mut gates, shared_row(c, r), c_row, &mut tanh_c, h_row);
        }
        (h_new, c_new)
    }

    /// Inference over one matrix per timestep (see [`crate::sweep`]): row
    /// `r` of each is sequence `r`'s step, a 1-row matrix a step every
    /// sequence shares. Each timestep is one [`Lstm::infer_step`], and
    /// whatever no sequence has touched yet — the zero state before the
    /// first step, the state before a sweep's varied slot, the input of a
    /// known later step — stays one shared row, so each half of the gate
    /// pre-activation is computed once while its operand is shared. A
    /// sequence's hidden states are bit-identical to [`Lstm::forward`] of
    /// it alone.
    pub(crate) fn infer(&self, xs: &[Matrix]) -> Vec<Matrix> {
        let mut h = Matrix::zeros(1, self.hidden);
        let mut c = Matrix::zeros(1, self.hidden);
        xs.iter()
            .map(|x| {
                (h, c) = self.infer_step(x, &h, &c);
                h.clone()
            })
            .collect()
    }

    /// FLOPs one inference timestep costs per sequence: the two gate
    /// products at their nominal size.
    pub(crate) fn infer_step_flops(&self) -> u64 {
        2 * (self.w_ih.len() + self.w_hh.len()) as u64
    }

    /// Training-mode forward pass; caches activations for [`Lstm::backward`].
    pub fn forward(&mut self, xs: &Sequence) -> Sequence {
        let mut h = vec![0.0; self.hidden];
        let mut c = vec![0.0; self.hidden];
        let mut out = Vec::with_capacity(xs.len());
        self.cache.clear();
        for x in xs {
            let (h_new, c_new, cache) = self.step(x, &h, &c);
            h = h_new;
            c = c_new;
            self.cache.push(cache);
            out.push(h.clone());
        }
        out
    }

    /// Training-mode forward pass over a packed chunk.
    ///
    /// The fused-batch analogue of [`Lstm::forward`]: the input-to-hidden
    /// pre-activations of the whole chunk run as one product up front (the
    /// input side has no recurrent dependence on `t`), and per timestep
    /// only the recurrent half runs — one product over the active samples'
    /// previous hidden states, as in [`Lstm::infer`]. Both
    /// go through [`Lstm::project`], so what a training sample is pays off
    /// as it does for a served query: a 4-hot input row gathers four
    /// columns of `W_ih`, and the all-zero state at `t = 0` reads nothing
    /// of `W_hh`. Flat activation caches are written for
    /// [`Lstm::backward_chunk_packed`]. Hidden states and caches are
    /// bit-identical to calling [`Lstm::forward`] on each sequence alone.
    /// Sequences may be ragged;
    /// shorter ones drop out of the active set.
    pub(crate) fn forward_chunk_packed(&mut self, x: ChunkBatch) -> ChunkBatch {
        let ChunkBatch { lens, offsets, rows: x_all } = x;
        let b = lens.len();
        let h = self.hidden;
        let total = offsets[b];
        let max_t = lens.iter().copied().max().unwrap_or(0);

        // Each output row of the fused input product is the same
        // `x · W_ihᵀ` dot product the per-timestep path computes.
        let z_ih = self.project(&x_all, &self.w_ih);

        let mut gates = vec![0.0f32; total * 4 * h];
        let mut c_all = vec![0.0f32; total * h];
        let mut tanh_c_all = vec![0.0f32; total * h];
        let mut h_all = vec![0.0f32; total * h];
        let zero_c = vec![0.0f32; h];
        let mut active: Vec<usize> = Vec::with_capacity(b);
        for t in 0..max_t {
            active.clear();
            active.extend((0..b).filter(|&i| t < lens[i]));
            let rows = active.len();
            // Only the recurrent half still advances timestep by timestep:
            // pack the active samples' previous hidden states and run one
            // product against `W_hh`.
            let mut h_prev = Matrix::zeros(rows, h);
            if t > 0 {
                for (r, &i) in active.iter().enumerate() {
                    let prev = (offsets[i] + t - 1) * h;
                    h_prev.row_mut(r).copy_from_slice(&h_all[prev..prev + h]);
                }
            }
            let zh = self.project(&h_prev, &self.w_hh);
            for (r, &i) in active.iter().enumerate() {
                let row = offsets[i] + t;
                let gate_row = &mut gates[row * 4 * h..(row + 1) * 4 * h];
                // `zi + (zh + b)` — the per-sample `step`'s `z += zh + b`
                // grouping; f32 addition is not associative.
                for (((g, &zi), &zh), &bv) in
                    gate_row.iter_mut().zip(z_ih.row(row)).zip(zh.row(r)).zip(&self.b)
                {
                    *g = zi + (zh + bv);
                }
                let (c_done, c_rest) = c_all.split_at_mut(row * h);
                let c_prev = if t == 0 { &zero_c } else { &c_done[(row - 1) * h..] };
                cell_update(
                    gate_row,
                    c_prev,
                    &mut c_rest[..h],
                    &mut tanh_c_all[row * h..(row + 1) * h],
                    &mut h_all[row * h..(row + 1) * h],
                );
            }
        }
        let out = ChunkBatch {
            lens: lens.clone(),
            offsets: offsets.clone(),
            rows: Matrix::from_vec(total, h, h_all.clone()),
        };
        self.chunk_cache =
            ChunkCache { lens, offsets, x: x_all, gates, c: c_all, tanh_c: tanh_c_all, h: h_all };
        out
    }

    /// Backpropagation through time over a packed chunk.
    ///
    /// The fused-batch analogue of [`Lstm::backward`]: the per-timestep
    /// gate gradients of all active samples are packed into one `DZ_t`
    /// matrix so the hidden-gradient product runs as one GEMM per
    /// timestep — none at `t = 0`, whose result nothing reads — and the
    /// weight-gradient accumulation runs as one fused
    /// [`Matrix::rank_updates`] per weight matrix with contributions
    /// ordered exactly as per-sample calls apply them (sample-major,
    /// timestep-descending). The input gradients, one GEMM for the whole
    /// chunk, are formed only if `want_input_grad`: the lowest trainable
    /// layer of a model in training has no use for them. Parameter and
    /// input gradients are bit-identical to calling [`Lstm::backward`]
    /// once per sample in chunk order.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Lstm::forward_chunk_packed`] or with
    /// mismatched gradient shapes.
    pub(crate) fn backward_chunk_packed(
        &mut self,
        grad: ChunkBatch,
        want_input_grad: bool,
    ) -> Option<ChunkBatch> {
        let b = grad.samples();
        let cache = &self.chunk_cache;
        assert_eq!(
            grad.lens, cache.lens,
            "backward_chunk_packed gradient lengths do not match cached chunk"
        );
        let h = self.hidden;
        let total = cache.offsets[b];
        if self.trainable {
            self.grad_w_ih.get_or_insert_with(|| Matrix::zeros(4 * h, self.w_ih.cols()));
            self.grad_w_hh.get_or_insert_with(|| Matrix::zeros(4 * h, h));
            if self.grad_b.len() != self.b.len() {
                self.grad_b = vec![0.0; self.b.len()];
            }
        }
        let max_t = grad.lens.iter().copied().max().unwrap_or(0);
        // Gate gradients for the whole chunk, packed like the forward
        // caches (`offsets[i] + t` rows); filled timestep-descending, read
        // back sample-major by the input-gradient GEMM and weight-gradient
        // fusion below.
        let mut dz_all = Matrix::zeros(total, 4 * h);
        let mut dh_carry = Matrix::zeros(b, h);
        let mut dc_carry = Matrix::zeros(b, h);
        let mut active: Vec<usize> = Vec::with_capacity(b);
        let cache = &self.chunk_cache;
        for t in (0..max_t).rev() {
            active.clear();
            active.extend((0..b).filter(|&i| t < cache.lens[i]));
            let rows = active.len();
            let mut dz_t = Matrix::zeros(rows, 4 * h);
            for (r, &i) in active.iter().enumerate() {
                let row = cache.offsets[i] + t;
                let gate_row = &cache.gates[row * 4 * h..(row + 1) * 4 * h];
                let tanh_row = &cache.tanh_c[row * h..(row + 1) * h];
                let c_prev: &[f32] = if t == 0 { &[] } else { &cache.c[(row - 1) * h..row * h] };
                let dz = dz_t.row_mut(r);
                let dh_row = dh_carry.row_mut(i);
                let dc_row = dc_carry.row_mut(i);
                let g_row = grad.rows.row(row);
                for k in 0..h {
                    let (gi, gf, gg, go) =
                        (gate_row[k], gate_row[h + k], gate_row[2 * h + k], gate_row[3 * h + k]);
                    let dh = g_row[k] + dh_row[k];
                    let d_o = dh * tanh_row[k];
                    let mut dc = dh * go * (1.0 - tanh_row[k] * tanh_row[k]);
                    dc += dc_row[k];
                    let di = dc * gg;
                    let dg = dc * gi;
                    let df = dc * if t == 0 { 0.0 } else { c_prev[k] };
                    dz[k] = di * gi * (1.0 - gi);
                    dz[h + k] = df * gf * (1.0 - gf);
                    dz[2 * h + k] = dg * (1.0 - gg * gg);
                    dz[3 * h + k] = d_o * go * (1.0 - go);
                    dc_row[k] = dc * gf;
                }
            }
            // The hidden gradient is recurrent: `t - 1` reads it, so
            // `t = 0` does not form it. `DZ_t · W_hh` walks each row's
            // `k` ascending with the same zero-skip as
            // `matvec_transpose(dz)`, so the bits match the per-sample
            // products. The input gradients are deferred to
            // one chunk-wide GEMM after the loop.
            if t > 0 {
                let dh_t = dz_t.matmul(&self.w_hh);
                for (r, &i) in active.iter().enumerate() {
                    dh_carry.row_mut(i).copy_from_slice(dh_t.row(r));
                }
            }
            for (r, &i) in active.iter().enumerate() {
                dz_all.row_mut(cache.offsets[i] + t).copy_from_slice(dz_t.row(r));
            }
        }
        if self.trainable {
            // Per-sample calls apply rank-1 gradient updates sample by
            // sample, each with `t` descending; feed the fused kernel the
            // contributions in exactly that order.
            let zero_h = vec![0.0f32; h];
            let mut ih_updates = Vec::with_capacity(total);
            let mut hh_updates = Vec::with_capacity(total);
            for i in 0..b {
                for t in (0..cache.lens[i]).rev() {
                    let row = cache.offsets[i] + t;
                    let dz = dz_all.row(row);
                    ih_updates.push((dz, cache.x.row(row)));
                    let h_prev: &[f32] =
                        if t == 0 { &zero_h } else { &cache.h[(row - 1) * h..row * h] };
                    hh_updates.push((dz, h_prev));
                }
            }
            self.grad_w_ih
                .as_mut()
                .expect("grad buffer initialized above")
                .rank_updates(1.0, &ih_updates);
            self.grad_w_hh
                .as_mut()
                .expect("grad buffer initialized above")
                .rank_updates(1.0, &hh_updates);
            for i in 0..b {
                for t in (0..cache.lens[i]).rev() {
                    let row = cache.offsets[i] + t;
                    let dz = dz_all.row(row);
                    for (db, &dzv) in self.grad_b.iter_mut().zip(dz) {
                        *db += dzv;
                    }
                }
            }
        }
        // Input gradients for every timestep of every sample in a single
        // GEMM: row `offsets[i] + t` of `DZ · W_ih` is the same k-ascending
        // zero-skipping dot the per-sample `matvec_transpose(dz)` computes,
        // and the result lands already in packed order.
        want_input_grad.then(|| {
            let dx_all = dz_all.matmul(&self.w_ih);
            ChunkBatch { lens: grad.lens, offsets: grad.offsets, rows: dx_all }
        })
    }

    /// Backpropagation through time.
    ///
    /// Takes one output gradient per timestep (zero vectors for steps the
    /// loss ignores), accumulates parameter gradients when trainable, and
    /// returns the gradient with respect to each input step.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Lstm::forward`] or with a mismatched number
    /// of gradient steps.
    pub fn backward(&mut self, grad_out: &Sequence) -> Sequence {
        assert_eq!(
            grad_out.len(),
            self.cache.len(),
            "backward called with {} grads but {} cached steps",
            grad_out.len(),
            self.cache.len()
        );
        let h = self.hidden;
        if self.trainable {
            self.grad_w_ih.get_or_insert_with(|| Matrix::zeros(4 * h, self.w_ih.cols()));
            self.grad_w_hh.get_or_insert_with(|| Matrix::zeros(4 * h, h));
            if self.grad_b.len() != self.b.len() {
                self.grad_b = vec![0.0; self.b.len()];
            }
        }
        let mut dx_all = vec![Vec::new(); grad_out.len()];
        let mut dh_carry = vec![0.0; h];
        let mut dc_carry = vec![0.0; h];
        for t in (0..grad_out.len()).rev() {
            let cache = &self.cache[t];
            let mut dz = vec![0.0; 4 * h];
            for k in 0..h {
                let dh = grad_out[t][k] + dh_carry[k];
                let d_o = dh * cache.tanh_c[k];
                let mut dc = dh * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
                dc += dc_carry[k];
                let di = dc * cache.g[k];
                let dg = dc * cache.i[k];
                let df = dc * cache.c_prev[k];
                dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
                dz[h + k] = df * cache.f[k] * (1.0 - cache.f[k]);
                dz[2 * h + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
                dz[3 * h + k] = d_o * cache.o[k] * (1.0 - cache.o[k]);
                dc_carry[k] = dc * cache.f[k];
            }
            if self.trainable {
                self.grad_w_ih
                    .as_mut()
                    .expect("grad buffer initialized above")
                    .rank_one_update(1.0, &dz, &cache.x);
                self.grad_w_hh.as_mut().expect("grad buffer initialized above").rank_one_update(
                    1.0,
                    &dz,
                    &cache.h_prev,
                );
                for (db, &dzv) in self.grad_b.iter_mut().zip(&dz) {
                    *db += dzv;
                }
            }
            dx_all[t] = self.w_ih.matvec_transpose(&dz);
            dh_carry = self.w_hh.matvec_transpose(&dz);
        }
        dx_all
    }

    /// Visits `(param, grad)` pairs as flat slices; used by the optimizer.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        if !self.trainable {
            return;
        }
        self.finite = OnceLock::new();
        if let Some(g) = self.grad_w_ih.as_mut() {
            f(self.w_ih.as_mut_slice(), g.as_mut_slice());
        }
        if let Some(g) = self.grad_w_hh.as_mut() {
            f(self.w_hh.as_mut_slice(), g.as_mut_slice());
        }
        if !self.grad_b.is_empty() {
            f(&mut self.b, &mut self.grad_b);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        if let Some(g) = self.grad_w_ih.as_mut() {
            g.fill_zero();
        }
        if let Some(g) = self.grad_w_hh.as_mut() {
            g.fill_zero();
        }
        self.grad_b.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::infer_every_step;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lstm(input: usize, hidden: usize) -> Lstm {
        Lstm::new(input, hidden, &mut StdRng::seed_from_u64(17))
    }

    fn scalar_objective(l: &Lstm, xs: &Sequence) -> f32 {
        // Sum of the final hidden state: a simple scalar loss for checking
        // gradients by finite differences.
        l.clone().forward(xs).last().expect("nonempty sequence").iter().sum()
    }

    #[test]
    fn output_shape_matches_sequence() {
        let l = lstm(5, 7);
        let xs = vec![vec![0.1; 5]; 3];
        let hs = infer_every_step(l, &[xs]).pop().unwrap();
        assert_eq!(hs.len(), 3);
        assert!(hs.iter().all(|h| h.len() == 7));
    }

    #[test]
    fn hidden_states_are_bounded() {
        let l = lstm(4, 6);
        let xs = vec![vec![100.0; 4]; 4];
        for h in infer_every_step(l, &[xs]).pop().unwrap() {
            assert!(h.iter().all(|v| v.abs() <= 1.0), "tanh·sigmoid bounds |h| by 1");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut l = lstm(3, 4);
        let xs = vec![vec![0.5, -0.3, 0.8], vec![-0.1, 0.9, 0.2]];
        let hs = l.forward(&xs);
        let t_last = hs.len() - 1;
        let mut grads = vec![vec![0.0; 4]; xs.len()];
        grads[t_last] = vec![1.0; 4];
        let dx = l.backward(&grads);
        let eps = 1e-3;
        for t in 0..xs.len() {
            for j in 0..3 {
                let mut plus = xs.clone();
                plus[t][j] += eps;
                let mut minus = xs.clone();
                minus[t][j] -= eps;
                let fd = (scalar_objective(&l, &plus) - scalar_objective(&l, &minus)) / (2.0 * eps);
                assert!(
                    (dx[t][j] - fd).abs() < 5e-3,
                    "input grad t={t} j={j}: analytic {} vs fd {fd}",
                    dx[t][j]
                );
            }
        }
    }

    #[test]
    fn parameter_gradient_matches_finite_difference() {
        let mut l = lstm(2, 3);
        let xs = vec![vec![0.7, -0.4], vec![0.2, 0.1]];
        l.forward(&xs);
        let mut grads = vec![vec![0.0; 3]; 2];
        grads[1] = vec![1.0; 3];
        l.backward(&grads);

        // Probe a handful of w_ih entries by finite differences.
        let eps = 1e-3;
        let mut checked = 0;
        let mut analytic = Vec::new();
        l.visit_params(&mut |_, g| analytic.push(g.to_vec()));
        let ga = analytic[0].clone(); // w_ih grads, row-major 4H x I
        for idx in [0usize, 5, 11, 17, 23] {
            let (r, c) = (idx / 2, idx % 2);
            let probe = |delta: f32, l: &mut Lstm| {
                let mut w = l.w_ih.clone();
                w[(r, c)] += delta;
                std::mem::swap(&mut l.w_ih, &mut w);
                let v = scalar_objective(l, &xs);
                std::mem::swap(&mut l.w_ih, &mut w);
                v
            };
            let fd = (probe(eps, &mut l) - probe(-eps, &mut l)) / (2.0 * eps);
            assert!(
                (ga[idx] - fd).abs() < 5e-3,
                "param grad idx={idx}: analytic {} vs fd {fd}",
                ga[idx]
            );
            checked += 1;
        }
        assert_eq!(checked, 5);
    }

    #[test]
    fn frozen_lstm_accumulates_no_grads() {
        let mut l = lstm(2, 2);
        l.trainable = false;
        let xs = vec![vec![1.0, -1.0]];
        l.forward(&xs);
        let dx = l.backward(&vec![vec![1.0, 1.0]]);
        assert_eq!(dx.len(), 1, "input grads still flow through frozen layers");
        let mut visited = 0;
        l.visit_params(&mut |_, _| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let l = lstm(2, 4);
        assert!(l.b[4..8].iter().all(|&v| v == 1.0));
        assert!(l.b[0..4].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn batched_inference_is_bit_identical_to_sequential() {
        let l = lstm(4, 6);
        // Ragged lengths put the prefixes in groups of every size 1–5.
        let seqs: Vec<Sequence> = (0..5)
            .map(|i| {
                (0..=i).map(|t| (0..4).map(|j| ((i + t * 3 + j) as f32).sin()).collect()).collect()
            })
            .collect();
        let batched = infer_every_step(l.clone(), &seqs);
        for (seq, batch_out) in seqs.iter().zip(&batched) {
            let alone = l.clone().forward(seq);
            assert_eq!(&alone, batch_out, "batched hidden states must match exactly");
        }
    }

    #[test]
    fn empty_batch_yields_no_outputs() {
        let l = lstm(3, 4);
        assert!(infer_every_step(l, &[]).is_empty());
    }

    #[test]
    fn deterministic_construction() {
        let a = lstm(3, 5);
        let b = lstm(3, 5);
        assert_eq!(a.w_ih, b.w_ih);
        assert_eq!(a.w_hh, b.w_hh);
    }
}
