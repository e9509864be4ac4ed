//! Single-call probes several workloads' traced passes share: the tensor
//! kernels at the shapes the models use, and the envelope codec.
//!
//! A probe times a *burst* of identical calls inside one span — a lone
//! matvec is shorter than two clock readings — and reports the median
//! over [`BURSTS`] bursts.

use std::hint::black_box;

use pelican_nn::{ModelEnvelope, SequenceModel};
use pelican_tensor::Matrix;

use crate::row::Metrics;
use crate::spans::Tracer;
use crate::stats::median;

const BURSTS: usize = 21;
/// Floating-point work per burst: about a millisecond of kernel time.
const BURST_FLOPS: f64 = 4e6;

/// `n` dense, nonzero, deterministic values in ±1 — the kernels skip
/// zeros, and a probe full of zeros would time the skip.
pub fn values(n: usize, salt: u64) -> Vec<f32> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 40) as f32 / (1u64 << 24) as f32;
            if unit < 0.5 {
                unit - 1.0
            } else {
                unit
            }
        })
        .collect()
}

/// Times `call` in bursts under `span` and returns achieved GFLOP/s,
/// given the nominal FLOPs of one call.
fn gflops(
    tracer: &mut Tracer,
    span: &'static str,
    flops_per_call: f64,
    mut call: impl FnMut(),
) -> f64 {
    let calls = (BURST_FLOPS / flops_per_call).ceil().max(1.0) as usize;
    for _ in 0..BURSTS {
        tracer.span(span, |_| (0..calls).for_each(|_| call()));
    }
    flops_per_call * calls as f64 / median(&tracer.seconds_of(span)) / 1e9
}

/// `Matrix::matvec` on a dense input.
pub fn matvec_gflops(tracer: &mut Tracer, span: &'static str, weights: &Matrix) -> f64 {
    let x = values(weights.cols(), 2);
    gflops(tracer, span, 2.0 * weights.len() as f64, || {
        black_box(black_box(weights).matvec(black_box(&x)));
    })
}

/// `Matrix::matmul_transpose` of a 16-row batch against `weights`.
pub fn gemm_nt_gflops(tracer: &mut Tracer, weights: &Matrix) -> f64 {
    const BATCH: usize = 16;
    let batch = Matrix::from_vec(BATCH, weights.cols(), values(BATCH * weights.cols(), 3));
    gflops(tracer, "tensor.matmul_transpose_b16", 2.0 * (BATCH * weights.len()) as f64, || {
        black_box(black_box(&batch).matmul_transpose(black_box(weights)));
    })
}

/// `Matrix::rank_updates` of a 16-sample mini-batch into `gradient`.
pub fn rank_update_gflops(tracer: &mut Tracer, mut gradient: Matrix) -> f64 {
    const BATCH: usize = 16;
    let rows: Vec<Vec<f32>> = (0..BATCH).map(|i| values(gradient.rows(), 10 + i as u64)).collect();
    let cols: Vec<Vec<f32>> = (0..BATCH).map(|i| values(gradient.cols(), 40 + i as u64)).collect();
    let pairs: Vec<(&[f32], &[f32])> =
        rows.iter().zip(&cols).map(|(r, c)| (r.as_slice(), c.as_slice())).collect();
    let flops = 2.0 * (BATCH * gradient.len()) as f64;
    gflops(tracer, "tensor.rank_updates_b16", flops, || {
        // A tiny step keeps the accumulator finite over thousands of calls.
        gradient.rank_updates(black_box(1e-6), black_box(&pairs));
    })
}

/// `ModelEnvelope::encode` and `decode` of `model`.
pub fn envelope_codec(tracer: &mut Tracer, metrics: &mut Metrics, model: &SequenceModel) {
    let envelope = ModelEnvelope::encode(model);
    for _ in 0..BURSTS {
        tracer.span("nn.envelope_encode", |_| black_box(ModelEnvelope::encode(black_box(model))));
        tracer.span("nn.envelope_decode", |_| {
            black_box(black_box(&envelope).decode().expect("a fresh envelope decodes"))
        });
    }
    metrics.timing("nn.envelope_encode_us", &tracer.seconds_of("nn.envelope_encode"), 1e6);
    metrics.timing("nn.envelope_decode_us", &tracer.seconds_of("nn.envelope_decode"), 1e6);
}

/// Set-up's `DatasetBuilder::build` span, as a metric.
pub fn dataset_build(tracer: &Tracer, metrics: &mut Metrics) {
    metrics.timing("mobility.dataset_build_ms", &tracer.seconds_of("mobility.dataset_build"), 1e3);
}
