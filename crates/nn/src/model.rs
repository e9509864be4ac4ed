//! [`SequenceModel`]: an ordered stack of layers with a classification head.

use rand::{Rng, RngExt as _};
use serde::{Deserialize, Serialize};

use pelican_tensor::{softmax_temperature_in_place, Matrix};

use crate::defense::{add_noise, round_to};
use crate::sweep::PrefixTier;
use crate::{DefenseKind, Dropout, Layer, Linear, Lstm, Sequence, Step};

/// FNV-style fingerprint of a query sequence.
///
/// This is the identity [`DefenseKind::OutputNoise`] keys deterministic
/// per-query noise on, and the key callers can cache per-query *logits*
/// under: a defense only changes the logits→confidence mapping, never the
/// logits themselves, so a logit cached by query hash stays valid across
/// defense changes as long as the weights are untouched.
pub fn query_hash(xs: &[Step]) -> u64 {
    let mut h = QueryHasher::new();
    for step in xs {
        h.step(step);
    }
    h.finish()
}

/// [`query_hash`] one timestep at a time. The hash is a running fold
/// over the steps, so a copy taken after a shared prefix resumes it for
/// every query that continues that prefix without rehashing it. The same
/// fold over weights gives [`SequenceModel::prefix_identity`].
#[derive(Clone, Copy)]
struct QueryHasher(u64);

impl QueryHasher {
    /// The hash of the empty sequence.
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one word.
    fn word(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }

    /// Folds in the next timestep.
    fn step(&mut self, step: &[f32]) {
        for &v in step {
            self.word(v.to_bits() as u64);
        }
    }

    /// Folds in a weight matrix: its shape, then its bits.
    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        self.step(m.as_slice());
    }

    /// The [`query_hash`] of the steps folded in so far.
    fn finish(self) -> u64 {
        self.0
    }
}

/// [`query_hash`] of every query of a sweep — `template` with row `i` of
/// `candidates` at `slot` — hashing the shared prefix once.
///
/// Each hash is one serial chain of multiplies, so the candidates are
/// folded four at a time, their chains side by side over the same words:
/// four independent multiplies in flight where one waited on the last
/// (2.4–3× at a 119-wide 4-hot row on a 2-core x86-64 host). The
/// remainder rows fold alone. Every chain sees its own words in the same
/// order either way, so the bits are [`query_hash`]'s.
///
/// # Panics
///
/// Panics if `slot` is outside `template`.
pub fn sweep_query_hashes(template: &[Step], slot: usize, candidates: &Matrix) -> Vec<u64> {
    const LANES: usize = 4;
    let mut prefix = QueryHasher::new();
    for step in &template[..slot] {
        prefix.step(step);
    }
    let suffix = &template[slot + 1..];
    let mut keys = Vec::with_capacity(candidates.rows());
    // A zero-width matrix has no words to fold: every row is a remainder.
    let width = candidates.cols().max(1);
    for block in candidates.as_slice().chunks_exact(LANES * width) {
        let (a, rest) = block.split_at(width);
        let (b, rest) = rest.split_at(width);
        let (c, d) = rest.split_at(width);
        let mut h = [prefix; LANES];
        for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
            for (h, v) in h.iter_mut().zip([a, b, c, d]) {
                h.word(v.to_bits() as u64);
            }
        }
        for &v in suffix.iter().flatten() {
            for h in &mut h {
                h.word(v.to_bits() as u64);
            }
        }
        keys.extend(h.map(QueryHasher::finish));
    }
    for r in keys.len()..candidates.rows() {
        let mut h = prefix;
        h.step(candidates.row(r));
        for step in suffix {
            h.step(step);
        }
        keys.push(h.finish());
    }
    keys
}

/// A sequence classification model: stacked layers whose final timestep
/// output is interpreted as class logits.
///
/// This is the shape of every model in the paper (Fig. 1): LSTM layers
/// (optionally interleaved with dropout) followed by a linear head. The
/// model also carries one inference-time [`DefenseKind`] — the paper's
/// privacy layer (§V-B), a temperature that sharpens confidence scores
/// without changing their ranking, or one of the comparison defenses.
/// Without one it behaves like a plain softmax classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SequenceModel {
    layers: Vec<Layer>,
    defense: DefenseKind,
}

impl SequenceModel {
    /// Starts building a model layer by layer.
    pub fn builder() -> ModelBuilder {
        ModelBuilder { layers: Vec::new() }
    }

    /// Creates a model from an explicit layer stack.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn from_layers(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "a model needs at least one layer");
        Self { layers, defense: DefenseKind::None }
    }

    /// A model of `layers` carrying `defense`, which the caller has
    /// already passed through [`DefenseKind::checked`].
    pub(crate) fn from_checked_parts(layers: Vec<Layer>, defense: DefenseKind) -> Self {
        Self { layers, defense }
    }

    /// The paper's two-LSTM general architecture (Fig. 1a): two LSTM layers
    /// with dropout in between, then a linear head.
    pub fn general_lstm<R: Rng + ?Sized>(
        input_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        let dropout_seed = rng.random::<u64>();
        Self::builder()
            .lstm(input_dim, hidden_dim, rng)
            .dropout(dropout, dropout_seed)
            .lstm(hidden_dim, hidden_dim, rng)
            .linear(hidden_dim, num_classes, rng)
            .build()
    }

    /// A single-LSTM model — the paper's from-scratch personalization
    /// baseline ("LSTM" row of Table III).
    pub fn single_lstm<R: Rng + ?Sized>(
        input_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        let dropout_seed = rng.random::<u64>();
        Self::builder()
            .lstm(input_dim, hidden_dim, rng)
            .dropout(dropout, dropout_seed)
            .linear(hidden_dim, num_classes, rng)
            .build()
    }

    /// Number of input features per timestep.
    pub fn input_dim(&self) -> usize {
        match &self.layers[0] {
            Layer::Lstm(l) => l.input_dim(),
            Layer::Linear(l) => l.input_dim(),
            Layer::Dropout(_) => panic!("model starts with dropout; input dim undefined"),
        }
    }

    /// Number of output classes.
    pub fn output_dim(&self) -> usize {
        width_after(&self.layers).expect("model has at least one parameterized layer")
    }

    /// The deployed inference-time defense.
    pub fn defense(&self) -> DefenseKind {
        self.defense
    }

    /// Installs `defense`, replacing whatever the model carried. It
    /// changes inference only: the logits→confidence mapping, never the
    /// logits. `Temperature { 1.0 }` is stored as [`DefenseKind::None`].
    ///
    /// # Panics
    ///
    /// Panics on a [`DefenseKind::Temperature`] outside `(0, 1]`.
    pub fn set_defense(&mut self, defense: DefenseKind) {
        self.defense = defense
            .checked()
            .unwrap_or_else(|| panic!("privacy temperature must be in (0, 1], got {defense:?}"));
    }

    /// Borrows the layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutably borrows the layer stack (e.g. to freeze layers).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Inserts a layer immediately before the final layer (the linear head).
    ///
    /// This implements the feature-extraction flavour of transfer learning
    /// (Fig. 1b): freeze the pretrained stack, then stack a fresh LSTM
    /// before the output layer to learn user-specific patterns.
    pub fn insert_before_head(&mut self, layer: Layer) {
        let at = self.layers.len() - 1;
        self.layers.insert(at, layer);
    }

    /// Freezes every layer (no parameter updates anywhere).
    pub fn freeze_all(&mut self) {
        for l in &mut self.layers {
            l.set_trainable(false);
        }
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Number of parameters in trainable (unfrozen) layers.
    pub fn trainable_param_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_trainable()).map(Layer::param_count).sum()
    }

    /// FLOPs of answering `rows` queries of `steps` timesteps in all
    /// through [`SequenceModel::predict_proba`]: every layer's per-step
    /// products at their nominal size, whatever inference shares or skips,
    /// and `4·C` a row for the confidences, all that a cached logit costs.
    pub fn infer_cost(&self, steps: usize, rows: usize) -> u64 {
        let per_step: u64 = self.layers.iter().map(Layer::infer_step_flops).sum();
        steps as u64 * per_step + rows as u64 * 4 * self.output_dim() as u64
    }

    /// FLOPs of one training pass over `samples` samples of `steps`
    /// timesteps in all: every layer's forward, input-gradient and (if it
    /// trains) weight-gradient products, and the loss's `3·C` a sample.
    /// [`crate::fit`] costs `epochs ×` this, an input gradient one sample.
    pub fn train_cost(&self, steps: usize, samples: usize) -> u64 {
        let per_step: u64 = self.layers.iter().map(Layer::train_step_flops).sum();
        steps as u64 * per_step + samples as u64 * 3 * self.output_dim() as u64
    }

    /// Inference-mode forward pass returning raw logits for the final
    /// timestep. No dropout, no caches, no temperature: the one-row case
    /// of [`SequenceModel::logits_batch`].
    pub fn logits(&self, xs: &[Step]) -> Step {
        self.logits_batch(&[xs]).pop().expect("one sequence in, one logit row out")
    }

    /// Index of the first layer above the last LSTM. From there on no
    /// layer carries state between timesteps, so inference feeds those
    /// layers the final timestep alone — the only one the logits read.
    fn head_start(&self) -> usize {
        self.layers.iter().rposition(|l| matches!(l, Layer::Lstm(_))).map_or(0, |i| i + 1)
    }

    /// Batched [`SequenceModel::logits`]: one final-timestep logit vector
    /// per input sequence, all sequences advancing together through every
    /// layer (see [`Lstm::infer_batch`]); the layers above the last LSTM
    /// see only each sequence's final timestep. Bit-identical per row to
    /// the training-mode [`SequenceModel::forward`] without dropout; the
    /// logits cost [`SequenceModel::infer_cost`] of every timestep.
    pub fn logits_batch<S: AsRef<[Step]>>(&self, xs: &[S]) -> Vec<Step> {
        assert!(
            xs.iter().all(|s| !s.as_ref().is_empty()),
            "cannot run a model on an empty sequence"
        );
        let head = self.head_start();
        let mut cur: Vec<Sequence> = xs.iter().map(|s| s.as_ref().to_vec()).collect();
        for (i, layer) in self.layers.iter().enumerate() {
            if i == head {
                for seq in &mut cur {
                    seq.drain(..seq.len() - 1);
                }
            }
            cur = layer.infer_batch(&cur);
        }
        cur.into_iter()
            .map(|mut seq| seq.pop().expect("sequence length preserved by all layers"))
            .collect()
    }

    /// Number of leading layers a re-train of this model cannot change
    /// the inference-time answer of: the frozen layers below the first
    /// trainable one, up to the last of them that has weights and no
    /// further than the last LSTM (above it only the final timestep
    /// flows, which is not worth keeping). A [`Dropout`] is the identity
    /// at inference, so — unlike in [`crate::fit`], where an active one
    /// ends the run — it sits inside the prefix like any frozen layer.
    /// TL-FE gives `lstm₁ → dropout → lstm₂`, TL-FT `lstm₁`, a model
    /// trained from scratch nothing.
    fn frozen_prefix(&self) -> usize {
        let below_head = &self.layers[..self.head_start()];
        let frozen = below_head.iter().take_while(|l| !l.is_trainable()).count();
        below_head[..frozen].iter().rposition(|l| l.param_count() > 0).map_or(0, |i| i + 1)
    }

    /// Identity of the frozen prefix (see [`PrefixTier`]): a fold over
    /// the shapes and weight bits of its layers. Two models with equal
    /// identities answer every query identically up to the prefix's
    /// output — which is what versions of one user's transfer-learned
    /// model do, and what lets a [`PrefixTier`] outlive a re-train.
    /// Costs one pass over the prefix's weights.
    pub fn prefix_identity(&self) -> u64 {
        let mut h = QueryHasher::new();
        for layer in &self.layers[..self.frozen_prefix()] {
            match layer {
                Layer::Lstm(l) => {
                    h.matrix(l.weight_ih());
                    h.matrix(l.weight_hh());
                    h.step(l.bias());
                }
                Layer::Linear(l) => {
                    h.matrix(l.weight());
                    h.step(l.bias());
                }
                Layer::Dropout(_) => {}
            }
        }
        h.finish()
    }

    /// [`SequenceModel::logits`] of a *sweep*: one logit vector per row of
    /// `candidates`, answering `template` with that row at timestep
    /// `slot` (`template[slot]` itself is ignored). This is the query
    /// shape of the enumeration attacks — a thousand candidates for one
    /// hidden step around the same known steps — and it costs far less
    /// than the independent calls: the layer stack runs the shared prefix
    /// `template[..slot]` once, computes once every pre-activation half
    /// no candidate has influenced yet, projects the candidate rows at
    /// O(non-zeros) each, and carries all candidates through the
    /// remaining layers as one batch (the crate-private
    /// `Lstm::infer_sweep`). Layers above the last LSTM see only the final
    /// timestep, the only one the logits read.
    ///
    /// Row `i` is bit-identical to `logits` of the assembled sequence,
    /// and the sweep costs what the independent calls cost
    /// ([`SequenceModel::infer_cost`] of `n × template.len()` timesteps),
    /// whatever it shared or skipped. This is [`SequenceModel::logits_sweep_tiered`] with nothing
    /// remembered.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside `template`.
    pub fn logits_sweep(&self, template: &[Step], slot: usize, candidates: &Matrix) -> Vec<Step> {
        let logits = self.sweep(template, slot, candidates.clone(), None);
        (0..logits.rows()).map(|r| logits.row(r).to_vec()).collect()
    }

    /// [`SequenceModel::logits_sweep`] that runs the model's frozen
    /// prefix only for the candidates `tier` has not seen: `keys[i]` is
    /// the [`query_hash`] of candidate `i`'s assembled query
    /// ([`sweep_query_hashes`]). The prefix runs the steps before `slot`
    /// (one shared row) and the missing candidates; their activations
    /// from `slot` on go into the tier, every candidate's come back out
    /// of it, and the layers above the prefix run once over all of them.
    /// Answers are those of `logits_sweep`, bit for bit, one row per
    /// candidate, and so is the cost, whatever the tier held — a
    /// remembered answer is priced as a computed one. A model without a
    /// frozen prefix leaves the tier untouched.
    ///
    /// `tier` must be bound to this model ([`PrefixTier::bind`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is outside `template` or `keys` does not have one
    /// hash per candidate.
    pub fn logits_sweep_tiered(
        &self,
        template: &[Step],
        slot: usize,
        candidates: Matrix,
        keys: &[u64],
        tier: &mut PrefixTier,
    ) -> Matrix {
        assert_eq!(keys.len(), candidates.rows(), "one query hash per candidate");
        debug_assert!(tier.is_bound_to(self), "tier holds another prefix's activations");
        self.sweep(template, slot, candidates, Some((keys, tier)))
    }

    /// The one sweep body: the logits, one row per candidate. Without a
    /// tier (or without a frozen prefix) the prefix is empty, every
    /// candidate is missing and nothing is kept — the layer stack simply
    /// runs top to bottom.
    fn sweep(
        &self,
        template: &[Step],
        slot: usize,
        candidates: Matrix,
        tier: Option<(&[u64], &mut PrefixTier)>,
    ) -> Matrix {
        assert!(slot < template.len(), "slot {slot} outside a {}-step template", template.len());
        let n = candidates.rows();
        if n == 0 {
            return Matrix::zeros(0, self.output_dim());
        }
        let prefix = if tier.is_some() { self.frozen_prefix() } else { 0 };
        let kept = template.len() - slot;
        let width = width_after(&self.layers[..prefix]).unwrap_or(0);
        let mut tier = tier.filter(|_| prefix > 0).map(|(keys, tier)| {
            let (starts, missing) = tier.reserve(keys, kept, width);
            (tier, starts, missing)
        });
        let to_run = match &tier {
            Some((_, _, missing)) if missing.len() < n => candidates.select_rows(missing),
            _ => candidates,
        };

        let shared = |x: &Step| Matrix::from_vec(1, x.len(), x.clone());
        let mut cur: Vec<Matrix> = template[..slot].iter().map(shared).collect();
        if to_run.rows() > 0 {
            cur.push(to_run);
            cur.extend(template[slot + 1..].iter().map(shared));
        }
        for layer in &self.layers[..prefix] {
            cur = layer.infer_sweep(cur);
        }
        if let Some((tier, starts, missing)) = &mut tier {
            tier.store(starts, missing, &cur[slot..]);
            cur.truncate(slot);
            cur.extend(tier.gather(starts, kept, width));
        }
        let head = self.head_start();
        for (i, layer) in self.layers.iter().enumerate().skip(prefix) {
            if i == head {
                cur.drain(..cur.len() - 1);
            }
            cur = layer.infer_sweep(cur);
        }
        let logits = cur.pop().expect("sequence length preserved by all layers");
        if logits.rows() == n {
            return logits;
        }
        // Every candidate shares the last step's logits (no layer carries
        // the varied step to it): one row each.
        let row = logits.row(0);
        Matrix::from_vec(n, row.len(), row.repeat(n))
    }

    /// The confidence in `class` of every query of a sweep (see
    /// [`SequenceModel::logits_sweep`]): each candidate's logits go
    /// through the confidence pipeline under its own query's hash, so
    /// entry `i` is bit-identical to `predict_proba(assembled i)[class]`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not below [`SequenceModel::output_dim`].
    pub fn confidence_sweep(
        &self,
        template: &[Step],
        slot: usize,
        candidates: &Matrix,
        class: usize,
    ) -> Vec<f32> {
        let keys = sweep_query_hashes(template, slot, candidates);
        let logits = self.logits_sweep(template, slot, candidates);
        logits.into_iter().zip(keys).map(|(l, key)| self.proba_from_logits(l, key)[class]).collect()
    }

    /// Confidence scores for the final timestep: the defended softmax over
    /// [`SequenceModel::logits`]. This is the black-box interface the
    /// service provider (and therefore the adversary) sees.
    pub fn predict_proba(&self, xs: &[Step]) -> Step {
        let logits = self.logits(xs);
        self.proba_from_logits(logits, query_hash(xs))
    }

    /// Applies the inference-time confidence pipeline (the defense's
    /// softmax, then any noise keyed by `query_hash` or rounding) to raw
    /// logits. `predict_proba(xs)` ≡
    /// `proba_from_logits(logits(xs), query_hash(xs))`, bit for bit —
    /// which is what lets audit gates cache logits per query and replay
    /// them under a different deployed defense without re-running the
    /// forward pass.
    pub fn proba_from_logits(&self, mut logits: Step, query_hash: u64) -> Step {
        self.confide(&mut logits, || query_hash);
        logits
    }

    /// Batched [`SequenceModel::predict_proba`].
    ///
    /// The defense applies *per row* — each row is hashed and perturbed
    /// exactly as its unbatched query would be — so batched and unbatched
    /// answers are bit-identical.
    pub fn predict_proba_batch<S: AsRef<[Step]>>(&self, xs: &[S]) -> Vec<Step> {
        let mut rows = self.logits_batch(xs);
        for (row, seq) in rows.iter_mut().zip(xs) {
            self.confide(row, || query_hash(seq.as_ref()));
        }
        rows
    }

    /// The confidence pipeline on one row of logits, in place. Only the
    /// noise draws on the query's hash, so only it asks `key` for one.
    fn confide(&self, row: &mut [f32], key: impl FnOnce() -> u64) {
        softmax_temperature_in_place(row, self.defense.softmax_temperature());
        match self.defense {
            DefenseKind::OutputNoise { sigma, seed } => add_noise(row, sigma, seed, key()),
            DefenseKind::Rounding { decimals } => round_to(row, decimals),
            DefenseKind::None | DefenseKind::Temperature { .. } => {}
        }
    }

    /// Indices of the `k` most confident classes, descending. Ties order
    /// by class index, so results are stable across re-runs and identical
    /// between the batched and unbatched paths.
    pub fn predict_top_k(&self, xs: &[Step], k: usize) -> Vec<usize> {
        pelican_tensor::top_k(&self.logits(xs), k)
    }

    /// Training-mode forward pass of one sequence (dropout active, caches
    /// written). Returns the full output sequence of the last layer.
    ///
    /// [`crate::fit`] does not run this: it drives the packed chunk
    /// kernels, which produce the same bits. It stays as the per-sample
    /// half of [`SequenceModel::input_gradient`] and as the oracle the
    /// equivalence suites train and infer against.
    pub fn forward(&mut self, xs: &Sequence) -> Sequence {
        assert!(!xs.is_empty(), "cannot run a model on an empty sequence");
        let mut cur = self.layers[0].forward(xs);
        for layer in &mut self.layers[1..] {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Backward pass from a gradient on the final timestep's logits.
    ///
    /// Accumulates parameter gradients in trainable layers and returns the
    /// gradient with respect to every input timestep — the quantity the
    /// gradient-descent inversion attack consumes — so it runs through
    /// every layer, frozen or not, where [`crate::fit`] stops at the
    /// lowest trainable one.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SequenceModel::forward`] in this round.
    pub fn backward_from_logits(&mut self, seq_len: usize, dlogits: Step) -> Sequence {
        let zero_width = dlogits.len();
        let mut grads: Sequence = vec![vec![0.0; zero_width]; seq_len];
        let last = seq_len - 1;
        grads[last] = dlogits;
        for layer in self.layers.iter_mut().rev() {
            grads = layer.backward(&grads);
        }
        grads
    }

    /// Computes the gradient of the cross-entropy loss (toward `target`)
    /// with respect to the *input sequence*, leaving parameters untouched.
    ///
    /// Runs a cache-writing forward pass internally, so `&mut self`; the
    /// accumulated parameter gradients are zeroed afterwards to keep the
    /// model state clean for subsequent training. Costs
    /// [`SequenceModel::train_cost`] of one sample.
    pub fn input_gradient(&mut self, xs: &Sequence, target: usize) -> (f32, Sequence) {
        let out = self.infer_forward_cached(xs);
        let logits = out.last().expect("nonempty sequence").clone();
        let (loss, dlogits) = crate::softmax_cross_entropy(&logits, target);
        let grads = self.backward_from_logits(xs.len(), dlogits);
        self.zero_grad();
        (loss, grads)
    }

    /// Forward pass that writes caches but applies *inference* semantics to
    /// dropout (identity). Needed by attacks: the adversary interrogates the
    /// deployed model, which has dropout disabled, yet still needs caches
    /// for the backward pass.
    fn infer_forward_cached(&mut self, xs: &Sequence) -> Sequence {
        let mut cur = xs.clone();
        for layer in &mut self.layers {
            cur = match layer {
                Layer::Dropout(d) => d.forward_identity(&cur),
                other => other.forward(&cur),
            };
        }
        cur
    }

    /// Clears accumulated gradients in all layers.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// One-line architecture summary, e.g.
    /// `lstm(229->128) -> dropout(0.1) -> lstm(128->128) -> linear(128->150) @T=1`.
    pub fn describe(&self) -> String {
        let body: Vec<String> = self.layers.iter().map(Layer::describe).collect();
        format!("{} @T={}", body.join(" -> "), self.defense.softmax_temperature())
    }
}

/// Width of what a layer stack puts out: the output dimension of its
/// last layer that has one.
fn width_after(layers: &[Layer]) -> Option<usize> {
    layers.iter().rev().find_map(|l| match l {
        Layer::Lstm(l) => Some(l.output_dim()),
        Layer::Linear(l) => Some(l.output_dim()),
        Layer::Dropout(_) => None,
    })
}

/// Builder for [`SequenceModel`]; see [`SequenceModel::builder`].
#[derive(Debug)]
pub struct ModelBuilder {
    layers: Vec<Layer>,
}

impl ModelBuilder {
    /// Appends an LSTM layer.
    pub fn lstm<R: Rng + ?Sized>(
        mut self,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        self.layers.push(Lstm::new(input_dim, hidden_dim, rng).into());
        self
    }

    /// Appends a dropout layer.
    pub fn dropout(mut self, rate: f32, seed: u64) -> Self {
        self.layers.push(Dropout::new(rate, seed).into());
        self
    }

    /// Appends a linear layer.
    pub fn linear<R: Rng + ?Sized>(
        mut self,
        input_dim: usize,
        output_dim: usize,
        rng: &mut R,
    ) -> Self {
        self.layers.push(Linear::new(input_dim, output_dim, rng).into());
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added or adjacent layer dimensions mismatch.
    pub fn build(self) -> SequenceModel {
        assert!(!self.layers.is_empty(), "a model needs at least one layer");
        let mut prev_out: Option<usize> = None;
        for layer in &self.layers {
            let (i, o) = match layer {
                Layer::Lstm(l) => (Some(l.input_dim()), Some(l.output_dim())),
                Layer::Linear(l) => (Some(l.input_dim()), Some(l.output_dim())),
                Layer::Dropout(_) => (None, None),
            };
            if let (Some(expect), Some(got)) = (prev_out, i) {
                assert_eq!(
                    expect,
                    got,
                    "layer {} expects input {got} but previous layer outputs {expect}",
                    layer.describe()
                );
            }
            if o.is_some() {
                prev_out = o;
            }
        }
        SequenceModel::from_layers(self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(5);
        SequenceModel::general_lstm(6, 8, 4, 0.1, &mut rng)
    }

    #[test]
    fn a_sweep_whose_last_step_no_candidate_reaches_answers_every_candidate() {
        // No LSTM carries the varied first step to the last one, so every
        // candidate shares the logits.
        let mut rng = StdRng::seed_from_u64(6);
        let m = SequenceModel::from_layers(vec![Layer::Linear(Linear::new(6, 4, &mut rng))]);
        let template = vec![vec![0.0; 6], vec![0.25; 6]];
        let rows = Matrix::from_vec(3, 6, (0..18).map(|v| v as f32).collect());
        let expected = m.logits(&template);
        assert_eq!(m.logits_sweep(&template, 0, &rows), vec![expected.clone(); 3]);
        let keys = sweep_query_hashes(&template, 0, &rows);
        let mut tier = PrefixTier::new();
        tier.bind(&m);
        let tiered = m.logits_sweep_tiered(&template, 0, rows, &keys, &mut tier);
        assert_eq!(tiered.as_slice(), expected.repeat(3));
    }

    #[test]
    fn proba_is_a_distribution() {
        let m = tiny_model();
        let xs = vec![vec![0.5; 6], vec![-0.5; 6]];
        let p = m.predict_proba(&xs);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn temperature_does_not_change_top1() {
        let mut m = tiny_model();
        let xs = vec![vec![0.3; 6], vec![0.1; 6]];
        let before = m.predict_top_k(&xs, 1);
        m.set_defense(DefenseKind::Temperature { temperature: 1e-2 });
        let p = m.predict_proba(&xs);
        assert_eq!(pelican_tensor::argmax(&p), Some(before[0]));
    }

    #[test]
    fn builder_checks_dimensions() {
        let mut rng = StdRng::seed_from_u64(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SequenceModel::builder()
                .lstm(4, 8, &mut rng)
                .linear(9, 2, &mut rng) // mismatched: 8 != 9
                .build()
        }));
        assert!(result.is_err());
    }

    #[test]
    fn insert_before_head_grows_stack() {
        let mut m = tiny_model();
        let mut rng = StdRng::seed_from_u64(1);
        let n = m.layers().len();
        m.insert_before_head(Lstm::new(8, 8, &mut rng).into());
        assert_eq!(m.layers().len(), n + 1);
        assert!(matches!(m.layers()[n - 1], Layer::Lstm(_)));
        assert!(matches!(m.layers()[n], Layer::Linear(_)));
        // Model still runs end to end.
        let p = m.predict_proba(&vec![vec![0.0; 6]; 2]);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn freeze_all_zeroes_trainable_count() {
        let mut m = tiny_model();
        assert!(m.trainable_param_count() > 0);
        m.freeze_all();
        assert_eq!(m.trainable_param_count(), 0);
        assert!(m.param_count() > 0);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut m = tiny_model();
        let xs = vec![vec![0.2; 6], vec![-0.3; 6]];
        let target = 1;
        let (_, grads) = m.input_gradient(&xs, target);
        let eps = 1e-2;
        for t in 0..2 {
            for j in [0usize, 3, 5] {
                let mut plus = xs.clone();
                plus[t][j] += eps;
                let mut minus = xs.clone();
                minus[t][j] -= eps;
                let f = |s: &Sequence| crate::softmax_cross_entropy(&m.logits(s), target).0;
                let fd = (f(&plus) - f(&minus)) / (2.0 * eps);
                assert!(
                    (grads[t][j] - fd).abs() < 2e-2,
                    "t={t} j={j}: analytic {} vs fd {fd}",
                    grads[t][j]
                );
            }
        }
    }

    #[test]
    fn proba_from_logits_replays_predict_proba_under_every_defense() {
        let mut m = tiny_model();
        let xs = vec![vec![0.4; 6], vec![-0.2; 6]];
        let logits = m.logits(&xs);
        let key = query_hash(&xs);
        for defense in [
            DefenseKind::None,
            DefenseKind::Temperature { temperature: 1e-3 },
            DefenseKind::OutputNoise { sigma: 0.1, seed: 9 },
            DefenseKind::Rounding { decimals: 1 },
        ] {
            m.set_defense(defense);
            assert_eq!(
                m.proba_from_logits(logits.clone(), key),
                m.predict_proba(&xs),
                "cached-logit replay must be bit-identical under {defense:?}"
            );
        }
    }

    #[test]
    fn describe_mentions_every_layer() {
        let m = tiny_model();
        let d = m.describe();
        assert!(d.contains("lstm(6->8)"));
        assert!(d.contains("dropout(0.1)"));
        assert!(d.contains("linear(8->4)"));
        assert!(d.contains("@T=1"));
    }

    #[test]
    fn input_gradient_leaves_params_clean() {
        let mut m = tiny_model();
        let xs = vec![vec![0.1; 6]; 2];
        let _ = m.input_gradient(&xs, 0);
        let mut dirty = false;
        for l in m.layers_mut() {
            l.visit_params(&mut |_, g| {
                if g.iter().any(|&v| v != 0.0) {
                    dirty = true;
                }
            });
        }
        assert!(!dirty, "input_gradient must zero parameter grads");
    }
}
