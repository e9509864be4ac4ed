//! Optimizers: SGD with momentum/weight decay, and Adam.
//!
//! The paper trains with a learning rate of `1e-4` and weight decay of
//! `1e-6` (§IV-A); both optimizers here support decoupled L2 weight decay
//! so those hyperparameters carry over directly.

use serde::{Deserialize, Serialize};

use crate::SequenceModel;

/// A first-order optimizer stepping a [`SequenceModel`].
///
/// Gradients are expected to be *accumulated* (summed) over a minibatch via
/// the model's backward passes; [`Optimizer::step`] divides by `batch_size`
/// to apply the mean gradient, then zeroes the buffers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Optimizer {
    /// Stochastic gradient descent.
    Sgd(Sgd),
    /// Adam (Kingma & Ba).
    Adam(Adam),
}

impl Optimizer {
    /// Applies one update from the accumulated gradients and zeroes them.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn step(&mut self, model: &mut SequenceModel, batch_size: usize) {
        assert!(batch_size > 0, "batch size must be positive");
        match self {
            Optimizer::Sgd(o) => o.step(model, batch_size),
            Optimizer::Adam(o) => o.step(model, batch_size),
        }
    }
}

impl From<Sgd> for Optimizer {
    fn from(o: Sgd) -> Self {
        Optimizer::Sgd(o)
    }
}

impl From<Adam> for Optimizer {
    fn from(o: Adam) -> Self {
        Optimizer::Adam(o)
    }
}

/// SGD with optional momentum and L2 weight decay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    #[serde(skip)]
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the L2 weight-decay coefficient.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    fn step(&mut self, model: &mut SequenceModel, batch_size: usize) {
        let inv_b = 1.0 / batch_size as f32;
        let mut slot = 0usize;
        for layer in model.layers_mut() {
            layer.visit_params(&mut |param, grad| {
                if self.velocity.len() <= slot {
                    self.velocity.push(vec![0.0; param.len()]);
                }
                let vel = &mut self.velocity[slot];
                if vel.len() != param.len() {
                    *vel = vec![0.0; param.len()];
                }
                for ((p, g), v) in param.iter_mut().zip(grad.iter()).zip(vel.iter_mut()) {
                    let mut step = g * inv_b + self.weight_decay * *p;
                    if self.momentum != 0.0 {
                        *v = self.momentum * *v + step;
                        step = *v;
                    }
                    *p -= self.lr * step;
                }
                slot += 1;
            });
            layer.zero_grad();
        }
    }
}

/// Adam with bias correction and L2 weight decay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// Exponential-decay rate for the first moment.
    pub beta1: f32,
    /// Exponential-decay rate for the second moment.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    #[serde(skip)]
    m: Vec<Vec<f32>>,
    #[serde(skip)]
    v: Vec<Vec<f32>>,
    #[serde(skip)]
    t: u64,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Sets the L2 weight-decay coefficient.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    fn step(&mut self, model: &mut SequenceModel, batch_size: usize) {
        self.t += 1;
        let inv_b = 1.0 / batch_size as f32;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut slot = 0usize;
        for layer in model.layers_mut() {
            layer.visit_params(&mut |param, grad| {
                while self.m.len() <= slot {
                    self.m.push(Vec::new());
                    self.v.push(Vec::new());
                }
                if self.m[slot].len() != param.len() {
                    self.m[slot] = vec![0.0; param.len()];
                    self.v[slot] = vec![0.0; param.len()];
                }
                let (ms, vs) = (&mut self.m[slot], &mut self.v[slot]);
                for (((p, g), m), v) in
                    param.iter_mut().zip(grad.iter()).zip(ms.iter_mut()).zip(vs.iter_mut())
                {
                    let g = g * inv_b + self.weight_decay * *p;
                    *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                    *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
                }
                slot += 1;
            });
            layer.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{softmax_cross_entropy, SequenceModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> (SequenceModel, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(3);
        let model = SequenceModel::builder().linear(4, 3, &mut rng).build();
        (model, vec![1.0, -0.5, 0.25, 0.8])
    }

    fn train_once(opt: &mut Optimizer, steps: usize) -> f32 {
        let (mut model, x) = toy();
        let xs = vec![x];
        let mut loss = f32::NAN;
        for _ in 0..steps {
            let out = model.forward(&xs);
            let (l, dl) = softmax_cross_entropy(out.last().unwrap(), 2);
            loss = l;
            model.backward_from_logits(1, dl);
            opt.step(&mut model, 1);
        }
        loss
    }

    #[test]
    fn sgd_reduces_loss() {
        let mut opt: Optimizer = Sgd::new(0.5).into();
        let first = train_once(&mut opt, 1);
        let mut opt: Optimizer = Sgd::new(0.5).into();
        let last = train_once(&mut opt, 50);
        assert!(last < first * 0.5, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn adam_reduces_loss() {
        let mut opt: Optimizer = Adam::new(0.05).into();
        let first = train_once(&mut opt, 1);
        let mut opt: Optimizer = Adam::new(0.05).into();
        let last = train_once(&mut opt, 50);
        assert!(last < first * 0.5, "loss should drop: {first} -> {last}");
    }

    #[test]
    fn momentum_accelerates_descent() {
        let mut plain: Optimizer = Sgd::new(0.1).into();
        let mut heavy: Optimizer = Sgd::new(0.1).with_momentum(0.9).into();
        let plain_loss = train_once(&mut plain, 30);
        let heavy_loss = train_once(&mut heavy, 30);
        assert!(heavy_loss < plain_loss, "momentum {heavy_loss} vs plain {plain_loss}");
    }

    fn weight_norm(model: &mut SequenceModel) -> f32 {
        let mut sq = 0.0;
        for l in model.layers_mut() {
            l.visit_params(&mut |p, _| sq += p.iter().map(|v| v * v).sum::<f32>());
        }
        sq.sqrt()
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let (mut model, x) = toy();
        let xs = vec![x];
        // Backward with a zero logit gradient: the only force is decay.
        let out = model.forward(&xs);
        let zeros = vec![0.0; out.last().unwrap().len()];
        model.backward_from_logits(1, zeros);
        let before = weight_norm(&mut model);
        let mut opt: Optimizer = Sgd::new(0.1).with_weight_decay(0.9).into();
        // Re-accumulate zero grads (weight_norm consumed none, but step zeroes).
        let out = model.forward(&xs);
        let zeros = vec![0.0; out.last().unwrap().len()];
        model.backward_from_logits(1, zeros);
        opt.step(&mut model, 1);
        let after = weight_norm(&mut model);
        assert!(after < before, "decay should shrink norm: {before} -> {after}");
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let (mut model, _) = toy();
        let mut opt: Optimizer = Sgd::new(0.1).into();
        opt.step(&mut model, 0);
    }
}
