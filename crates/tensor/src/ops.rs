//! Elementwise activations, stable softmax variants and top-k selection.
//!
//! These free functions operate on slices so they can be applied to matrix
//! rows, hidden-state vectors and raw logit buffers alike.

use std::cmp::Ordering;

/// Numerically-stable logistic sigmoid.
///
/// # Example
///
/// ```
/// assert_eq!(pelican_tensor::sigmoid(0.0), 0.5);
/// ```
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Hyperbolic tangent with the bits of fdlibm's `tanhf`, on any host.
///
/// fdlibm's `tanhf` (and the `expm1f` it calls) is pure `f32`
/// arithmetic, so transcribing it reproduces it exactly: this function
/// returns the same raw bits as the reference for every one of the 2³²
/// inputs, NaN payloads included (`crates/tensor/tests/tanh_bits.rs`).
/// glibc's `tanhf` is that algorithm, so on glibc hosts these are also
/// the bits `std`'s `tanh` returns; elsewhere `std` is free to differ,
/// and this is not.
///
/// # Example
///
/// ```
/// assert_eq!(pelican_tensor::ops::tanh(0.0), 0.0);
/// assert_eq!(pelican_tensor::ops::tanh(30.0), 1.0);
/// ```
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    // Every branch of fdlibm's `tanhf` is computed and the taken one
    // selected by bit masks, so a loop over this has no branch.
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix as u32);
    // |x| ≥ 1: 1 − 2/(expm1(2|x|) + 2); below: −t/(t + 2), t = expm1(−2|x|).
    // One division serves both: each lane picks its numerator first.
    let big = mask(ix >= 0x3f80_0000);
    let t = expm1_lane(pick(big, 2.0 * ax, -2.0 * ax));
    let q = pick(big, 2.0, -t) / (t + 2.0);
    let z = pick(big, 1.0 - q, q);
    // |x| ≥ 22 saturates (±∞ too: fdlibm's `1/x ± 1` is ±1 there); the
    // sign comes back by negation.
    let z = pick(mask(ix >= 0x41b0_0000), 1.0 - TINY, z);
    let z = f32::from_bits(z.to_bits() ^ (jx as u32 & 0x8000_0000));
    // |x| < 2⁻⁵⁵ (±0 included) is `x·(1 + x)`. A NaN's `1/x ± 1` is x
    // quieted, which `x + x` is without a division.
    let z = pick(mask(ix < 0x2400_0000), x * (1.0 + x), z);
    pick(mask(ix > 0x7f80_0000), x + x, z)
}

/// [`tanh`] of every element, in place.
///
/// [`tanh`] has no branch, so this loop vectorises at baseline SSE2:
/// four elements per pass, every path of the scalar algorithm computed
/// and the one it would have taken picked by bit masks. On a 2-core
/// x86-64 host a slice of 4 096 costs 7.1 ns per element against 11.7 ns
/// for glibc's `tanhf` called per element (1.65×; 1.5–1.6× at gate
/// blocks of 12 and 64).
pub fn tanh_in_place(xs: &mut [f32]) {
    for v in xs {
        *v = tanh(*v);
    }
}

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
const TINY: f32 = 1.0e-30;
/// 2²³: adding it to a smaller non-negative `f32` rounds to an integer.
const TWO23: f32 = 8_388_608.0;

/// All ones where `c` holds, else zero.
#[inline(always)]
fn mask(c: bool) -> i32 {
    (c as i32).wrapping_neg()
}

/// `a` where `m` is all ones, `b` where it is zero.
#[inline(always)]
fn pick(m: i32, a: f32, b: f32) -> f32 {
    f32::from_bits((a.to_bits() & m as u32) | (b.to_bits() & !m as u32))
}

/// `y · 2ᵏ` by an integer add to the exponent field.
#[inline(always)]
fn scale_by_pow2(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k.wrapping_shl(23)) as u32)
}

/// fdlibm's `expm1f` on the arguments [`tanh`] passes it: `2|x|`
/// for `1 ≤ |x| < 22` (`k` from 3 to 63) and `−2|x|` below 1 (`k` from
/// −3 to 0). The overflow, `k = 1` and `k = 128` paths are never reached
/// and not computed.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() as i32 & 0x7fff_ffff;
    // k = trunc(x/ln2 ± ½) without a float-to-int conversion: round |v|
    // to an integer by adding 2²³, step down where that rounded up, and
    // put the sign back. Below |x| = ½ln2 there is no reduction (k = 0);
    // fdlibm's separate k = ±1 branch below 1.5·ln2 gives the bits this
    // formula does.
    let v = INVLN2 * x + pick(x.to_bits() as i32 >> 31, -0.5, 0.5);
    let a = f32::from_bits(v.to_bits() & 0x7fff_ffff);
    let rounded = a + TWO23;
    let floor = (rounded.to_bits() as i32)
        .wrapping_sub(0x4b00_0000)
        .wrapping_sub(((rounded - TWO23) > a) as i32);
    let vs = v.to_bits() as i32 >> 31;
    let k = (floor ^ vs).wrapping_sub(vs) & mask(hx > 0x3eb1_7218);
    // x = k·ln2 + r with r = hi − lo rounded, its error kept in `c`; at
    // k = 0 this is the identity.
    let kf = k as f32;
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let y0 = r - (r * e - hxs);
    let e = r * (e - c) - c - hxs;
    let y_m1 = 0.5 * (r - e) - 0.5;
    let y_far = scale_by_pow2(1.0 - (e - r), k) - 1.0;
    // 2⁻ᵏ, and 1 − 2⁻ᵏ (exact for k < 24).
    let two_mk = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let y_mid = scale_by_pow2((1.0 - two_mk) - (e - r), k);
    let y_high = scale_by_pow2((r - (e + two_mk)) + 1.0, k);
    let y = pick(mask(k < 23), y_mid, y_high);
    let y = pick(mask(k <= -2 || k > 56), y_far, y);
    let y = pick(mask(k == -1), y_m1, y);
    let y = pick(mask(k == 0), y0, y);
    // |x| < 2⁻²⁵ returns x.
    pick(mask(hx < 0x3300_0000), x, y)
}

/// In-place stable softmax with an optional temperature divisor.
///
/// Computes `softmax(x / temperature)` as in Eq. (1) of the paper. The
/// temperature is the knob both the gradient-descent inversion attack
/// (softening candidates) and the Pelican privacy layer (sharpening
/// confidences) turn.
///
/// # Panics
///
/// Panics if `temperature <= 0` or is not finite.
pub fn softmax_temperature_in_place(x: &mut [f32], temperature: f32) {
    let inv_t = inverse_temperature(temperature);
    if x.is_empty() {
        return;
    }
    let norm = SoftmaxNorm::exps_in_place(x, inv_t);
    for v in x.iter_mut() {
        *v *= norm.inv_sum;
    }
}

/// `1 / temperature`, the factor [`SoftmaxNorm`] scales logits by.
///
/// # Panics
///
/// Panics if `temperature <= 0` or is not finite.
pub fn inverse_temperature(temperature: f32) -> f32 {
    assert!(
        temperature > 0.0 && temperature.is_finite(),
        "temperature must be a positive finite number, got {temperature}"
    );
    1.0 / temperature
}

/// What turns a row of logits into its temperature softmax: the shift
/// `max(x·inv_t)` and `1 / Σ exp(x·inv_t − max)`.
///
/// [`softmax_temperature_in_place`] is this and a multiply, so a row's
/// normaliser, kept, answers any one class of that row later with one
/// `exp` ([`SoftmaxNorm::confidence`]) and the bits the full vector has
/// there. Eight bytes; the default is a placeholder that normalises
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SoftmaxNorm {
    max: f32,
    inv_sum: f32,
}

impl SoftmaxNorm {
    /// Overwrites every logit of `x` with its unnormalised `exp(v·inv_t −
    /// max)` and returns the row's normaliser. `x` must not be empty.
    pub fn exps_in_place(x: &mut [f32], inv_t: f32) -> Self {
        let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v * inv_t));
        let mut sum = 0.0;
        for v in x.iter_mut() {
            *v = shifted_exp(*v, inv_t, max);
            sum += *v;
        }
        // All-(-inf) rows cannot occur from finite logits, so sum > 0 here.
        Self { max, inv_sum: 1.0 / sum }
    }

    /// The confidence of `logit`, one entry of the row this normalises:
    /// bit for bit what [`softmax_temperature_in_place`] leaves there.
    pub fn confidence(self, logit: f32, inv_t: f32) -> f32 {
        shifted_exp(logit, inv_t, self.max) * self.inv_sum
    }
}

#[inline(always)]
fn shifted_exp(v: f32, inv_t: f32, max: f32) -> f32 {
    (v * inv_t - max).exp()
}

/// In-place stable softmax (temperature 1).
fn softmax_in_place(x: &mut [f32]) {
    softmax_temperature_in_place(x, 1.0);
}

/// Returns `softmax(x)` as a new vector.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    softmax_in_place(&mut out);
    out
}

/// In-place stable log-softmax.
///
/// Used by the cross-entropy loss: `CE = -log_softmax(logits)[target]`.
pub fn log_softmax_in_place(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let log_sum: f32 = x.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
    for v in x.iter_mut() {
        *v -= log_sum;
    }
}

/// Index of the largest element, or `None` for an empty slice.
///
/// Ties resolve to the lowest index, matching `argmax` conventions in
/// numerical frameworks.
pub fn argmax(x: &[f32]) -> Option<usize> {
    x.iter()
        .enumerate()
        .fold(None, |best: Option<(usize, f32)>, (i, &v)| match best {
            Some((_, bv)) if bv >= v => best,
            _ => Some((i, v)),
        })
        .map(|(i, _)| i)
}

/// The one descending order of scores: larger first, and every NaN after
/// every number. Equal values (`-0.0` and `+0.0` among them) and two NaNs
/// compare equal, so a stable sort keeps them in index order. Unlike
/// `partial_cmp(..).unwrap_or(Equal)` this is a total order, which a
/// sort needs: given a NaN, that comparison makes it panic or mis-rank.
pub fn descending<T: PartialOrd>(a: &T, b: &T) -> Ordering {
    let is_nan = |x: &T| x.partial_cmp(x).is_none();
    b.partial_cmp(a).unwrap_or_else(|| is_nan(a).cmp(&is_nan(b)))
}

/// Indices of the `k` largest elements in [`descending`] order.
///
/// Returns fewer than `k` indices if the slice is shorter than `k`. Ties
/// resolve to lower indices first and NaNs come last, so results are
/// deterministic whatever the input.
///
/// # Example
///
/// ```
/// let idx = pelican_tensor::top_k(&[0.1, 0.7, 0.2], 2);
/// assert_eq!(idx, vec![1, 2]);
/// ```
pub fn top_k(x: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| descending(&x[a], &x[b]));
    idx.truncate(k);
    idx
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// element whose rank is at least `⌈q·n⌉` (clamped to a valid rank), or
/// `None` for an empty slice.
///
/// This is the one percentile definition the workspace shares — serving
/// latency metrics, training enroll reports and the network simulator's
/// stage breakdowns all delegate here, so their numbers are comparable.
///
/// # Example
///
/// ```
/// let sorted: Vec<u64> = (1..=100).collect();
/// assert_eq!(pelican_tensor::nearest_rank(&sorted, 0.95), Some(95));
/// assert_eq!(pelican_tensor::nearest_rank::<u64>(&[], 0.5), None);
/// ```
pub fn nearest_rank<T: Copy + Ord>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_symmetric() {
        for x in [-5.0_f32, -1.0, 0.0, 1.0, 5.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_handles_extremes() {
        assert!(sigmoid(100.0) > 0.999_99);
        assert!(sigmoid(-100.0) < 1e-5);
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn low_temperature_sharpens() {
        let mut hot = vec![1.0, 2.0, 3.0];
        let mut cold = vec![1.0, 2.0, 3.0];
        softmax_temperature_in_place(&mut hot, 1.0);
        softmax_temperature_in_place(&mut cold, 1e-3);
        assert!(cold[2] > hot[2]);
        assert!(cold[2] > 0.999);
    }

    #[test]
    fn temperature_preserves_order() {
        let logits = [0.3, -1.0, 2.5, 0.31];
        for t in [0.1, 1.0, 10.0] {
            let mut p = logits.to_vec();
            softmax_temperature_in_place(&mut p, t);
            assert_eq!(top_k(&p, 4), top_k(&logits, 4), "temperature {t} changed ranking");
        }
        // At extreme temperatures the tail underflows to zero in f32 — the
        // paper's caveat that accuracy is preserved only "as long as
        // appropriate precision is used". The argmax always survives.
        let mut p = logits.to_vec();
        softmax_temperature_in_place(&mut p, 1e-3);
        assert_eq!(argmax(&p), argmax(&logits));
    }

    #[test]
    fn a_kept_normaliser_answers_each_class_with_the_softmax_bits() {
        let rows: [&[f32]; 4] = [
            &[0.3, -1.0, 2.5, 0.31, -7.25],
            &[88.0, -88.0, 0.0, -0.0, 1e-30],
            &[f32::NEG_INFINITY, 1.0, 2.0],
            &[f32::NAN, 1.0, 2.0],
        ];
        for row in rows {
            for t in [1.0, 0.37, 1e-3, 25.0] {
                let mut full = row.to_vec();
                softmax_temperature_in_place(&mut full, t);
                let inv_t = inverse_temperature(t);
                let mut exps = row.to_vec();
                let norm = SoftmaxNorm::exps_in_place(&mut exps, inv_t);
                for (&logit, &p) in row.iter().zip(&full) {
                    assert_eq!(
                        norm.confidence(logit, inv_t).to_bits(),
                        p.to_bits(),
                        "{row:?} T={t}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "temperature must be a positive finite number")]
    fn zero_temperature_rejected() {
        softmax_temperature_in_place(&mut [1.0, 2.0], 0.0);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = [0.5, -0.25, 3.0];
        let p = softmax(&x);
        let mut ls = x.to_vec();
        log_softmax_in_place(&mut ls);
        for (l, p) in ls.iter().zip(&p) {
            assert!((l - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[3.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[2.0, 2.0]), Some(0), "ties resolve low");
    }

    #[test]
    fn top_k_orders_descending() {
        assert_eq!(top_k(&[0.1, 0.9, 0.5, 0.7], 3), vec![1, 3, 2]);
        assert_eq!(top_k(&[0.1], 5), vec![0]);
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn top_k_breaks_ties_by_index() {
        // Regression guard for the serving path: sharpened (privacy-layer)
        // confidences underflow whole tails to exactly 0.0, so tied values
        // are the common case and must order by index for batched,
        // unbatched and re-run results to agree.
        assert_eq!(top_k(&[0.25, 0.25, 0.25, 0.25], 4), vec![0, 1, 2, 3]);
        assert_eq!(top_k(&[0.5, 0.0, 0.0, 0.5, 0.0], 5), vec![0, 3, 1, 2, 4]);
        let sharpened = [0.0f32, 1.0, 0.0, 0.0];
        assert_eq!(top_k(&sharpened, 4), vec![1, 0, 2, 3]);
    }

    #[test]
    fn top_k_ranks_nan_after_every_number_at_any_length() {
        // A NaN in every 5th entry; ties, `±0.0` and `±∞` among the rest.
        // Given an order that is not total, the standard sort panics at
        // 24 and 150 entries and mis-ranks silently at 12.
        for n in [12usize, 24, 150] {
            let x: Vec<f32> = (0..n)
                .map(|i| match (i % 5, i % 7) {
                    (0, _) => f32::NAN,
                    (_, 0) => -0.0,
                    (_, 1) => 0.0,
                    (_, 2) if i > 100 => f32::INFINITY,
                    (_, 3) if i > 100 => f32::NEG_INFINITY,
                    (_, k) => (k as f32 - 3.0) * 1.5,
                })
                .collect();
            let mut want: Vec<usize> = (0..n).filter(|&i| !x[i].is_nan()).collect();
            want.sort_by(|&a, &b| x[b].partial_cmp(&x[a]).expect("no NaN").then(a.cmp(&b)));
            want.extend((0..n).step_by(5));
            assert_eq!(top_k(&x, n), want, "{n} entries");
            assert_eq!(top_k(&x, 3), want[..3], "{n} entries, k = 3");
        }
    }

    #[test]
    fn nearest_rank_matches_the_classic_definition() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), Some(50));
        assert_eq!(nearest_rank(&sorted, 0.95), Some(95));
        assert_eq!(nearest_rank(&sorted, 0.99), Some(99));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(100));
    }

    #[test]
    fn nearest_rank_clamps_and_handles_edges() {
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None, "empty has no percentile");
        assert_eq!(nearest_rank(&[7u64], 0.01), Some(7));
        assert_eq!(nearest_rank(&[7u64], 0.99), Some(7));
        // q = 0 still yields the first element (rank clamps to 1), and
        // q > 1 clamps to the last.
        assert_eq!(nearest_rank(&[1u64, 2, 3], 0.0), Some(1));
        assert_eq!(nearest_rank(&[1u64, 2, 3], 2.0), Some(3));
        // Works for any ordered Copy type, e.g. Duration.
        use std::time::Duration;
        let ds = [Duration::from_millis(1), Duration::from_millis(9)];
        assert_eq!(nearest_rank(&ds, 0.95), Some(Duration::from_millis(9)));
    }
}
