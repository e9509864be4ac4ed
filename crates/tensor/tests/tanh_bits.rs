//! `ops::tanh` is specified by bits: it is fdlibm's `tanhf`, and the
//! oracle here is a plain scalar transcription of that C code (`tanhf`
//! with the `expm1f` it calls, branch for branch), kept only in this
//! file. The product form computes every branch in four lanes and picks
//! one by bit masks; these tests hold it to the transcription's raw bits,
//! NaN payloads included, and the transcription to a golden table taken
//! from glibc 2.36's `tanhf`.
//!
//! Tier-1 runs the table, a stride over all 2³² patterns and the slice
//! lengths. The two exhaustive sweeps are `#[ignore]`d (35–40 s each in
//! release on two cores):
//!
//! ```sh
//! cargo test --release -p pelican-tensor --test tanh_bits -- --ignored every_pattern
//! ```
//!
//! `every_pattern_lane_form_matches_the_transcription` holds on any host;
//! `every_pattern_matches_the_host_libm` only where `f32::tanh` is
//! fdlibm's `tanhf` (glibc is).

use std::thread;

use pelican_tensor::ops::{tanh, tanh_in_place};

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;

/// fdlibm's `expm1f`, branch for branch.
fn expm1f(mut x: f32) -> f32 {
    let xsb = x.to_bits() & 0x8000_0000;
    let hx = x.to_bits() & 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if xsb == 0 { x } else { -1.0 };
            }
            if xsb == 0 && hx > 0x42b1_7217 {
                return HUGE * HUGE;
            }
        }
        if xsb != 0 {
            return TINY - 1.0;
        }
    }

    // Argument reduction.
    let k: i32;
    let c: f32;
    if hx > 0x3eb1_7218 {
        let (hi, lo);
        if hx < 0x3f85_1592 {
            if xsb == 0 {
                (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
            } else {
                (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
            }
        } else {
            k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI;
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        k = 0;
        c = 0.0;
    }

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 { -2.0 * (e - (x + 0.5)) } else { 1.0 + 2.0 * (x - e) };
    }
    let add_k_to_exponent = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    if k <= -2 || k > 56 {
        let y = add_k_to_exponent(1.0 - (e - x));
        return y - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        add_k_to_exponent(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        let mut y = x - (e + t);
        y += 1.0;
        add_k_to_exponent(y)
    }
}

/// fdlibm's `tanhf`, branch for branch.
fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;

    // x is ±∞ or NaN.
    if ix >= 0x7f80_0000 {
        return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }

    let z;
    if ix < 0x41b0_0000 {
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1f(2.0 * x.abs());
            z = 1.0 - 2.0 / (t + 2.0);
        } else {
            let t = expm1f(-2.0 * x.abs());
            z = -t / (t + 2.0);
        }
    } else {
        z = 1.0 - TINY;
    }
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// Input bits → output bits, recorded from `f32::tanh` on glibc 2.36:
/// every branch edge of `tanhf` and of the `expm1f` paths it reaches.
const GOLDEN: [(u32, u32); 46] = [
    // ±0, the smallest subnormal, 2⁻⁵⁵ ± 1 ulp (the `x·(1 + x)` edge).
    (0x0000_0000, 0x0000_0000),
    (0x8000_0000, 0x8000_0000),
    (0x0000_0001, 0x0000_0001),
    (0x8000_0001, 0x8000_0001),
    (0x23ff_ffff, 0x23ff_ffff),
    (0x2400_0000, 0x2400_0000),
    (0x2400_0001, 0x2400_0001),
    (0xa400_0001, 0xa400_0001),
    // `expm1f` returns its argument below 2⁻²⁵, i.e. |x| < 2⁻²⁶.
    (0x327f_ffff, 0x327f_ffff),
    (0x3280_0000, 0x3280_0000),
    (0x3280_0001, 0x3280_0001),
    (0xb280_0000, 0xb280_0000),
    // k = 0 → −1, −1 → −2, −2 → −3.
    (0x3e31_7218, 0x3e2f_b0cd),
    (0x3e31_7219, 0x3e2f_b0cd),
    (0xbe31_7219, 0xbe2f_b0cd),
    (0x3f05_1591, 0x3ef4_86f8),
    (0x3f05_1592, 0x3ef4_86f8),
    (0xbf05_1592, 0xbef4_86f8),
    (0x3f5d_ce9d, 0x3f33_1638),
    (0x3f5d_ce9e, 0x3f33_1638),
    (0xbf5d_ce9e, 0xbf33_1638),
    // |x| = 1 ± 1 ulp: expm1(−2|x|) below, expm1(2|x|) with k = 3 from 1.
    (0x3f7f_ffff, 0x3f42_f7d5),
    (0x3f80_0000, 0x3f42_f7d6),
    (0x3f80_0001, 0x3f42_f7d6),
    (0xbf80_0000, 0xbf42_f7d6),
    // k = 22 → 23 and k = 56 → 57 switch the reconstruction.
    (0x40f9_8871, 0x3f7f_fffa),
    (0x40f9_8872, 0x3f7f_fffa),
    (0xc0f9_8872, 0xbf7f_fffa),
    (0x419c_a6b8, 0x3f80_0000),
    (0x419c_a6b9, 0x3f80_0000),
    (0xc19c_a6b9, 0xbf80_0000),
    // 22 ± 1 ulp saturates; so do the largest finite value and ±∞.
    (0x41af_ffff, 0x3f80_0000),
    (0x41b0_0000, 0x3f80_0000),
    (0x41b0_0001, 0x3f80_0000),
    (0xc1af_ffff, 0xbf80_0000),
    (0x7f7f_ffff, 0x3f80_0000),
    (0x7f80_0000, 0x3f80_0000),
    (0xff80_0000, 0xbf80_0000),
    // Quiet NaNs keep their payload and sign; signalling ones are quieted.
    (0x7fc0_0000, 0x7fc0_0000),
    (0xffc0_0000, 0xffc0_0000),
    (0x7fc1_2345, 0x7fc1_2345),
    (0xffd5_4321, 0xffd5_4321),
    (0x7f80_0001, 0x7fc0_0001),
    (0xff80_0001, 0xffc0_0001),
    (0x7fa1_2345, 0x7fe1_2345),
    (0xffb5_4321, 0xfff5_4321),
];

/// The lane form over `xs`, through the slice call.
fn lane_form(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    tanh_in_place(&mut out);
    out
}

/// Every input whose lane-form, transcription or (with `libm`) host bits
/// disagree, as `(input, lane, transcription, host)` bits.
fn mismatches(inputs: impl Iterator<Item = u32>, libm: bool) -> Vec<(u32, u32, u32, u32)> {
    let mut bad = Vec::new();
    let mut block = Vec::with_capacity(4096);
    let mut check = |block: &mut Vec<f32>| {
        for (&x, y) in block.iter().zip(lane_form(block)) {
            let lane = y.to_bits();
            let oracle = tanhf(x).to_bits();
            let host = if libm { x.tanh().to_bits() } else { oracle };
            if lane != oracle || host != oracle {
                bad.push((x.to_bits(), lane, oracle, host));
            }
        }
        block.clear();
    };
    for bits in inputs {
        block.push(f32::from_bits(bits));
        if block.len() == block.capacity() {
            check(&mut block);
        }
    }
    check(&mut block);
    bad
}

/// All 2³² patterns, split across the host's threads.
fn sweep_every_pattern(libm: bool) {
    let threads = thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let span = (1u64 << 32).div_ceil(threads);
    let bad: Vec<_> = thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let (lo, hi) = (i * span, ((i + 1) * span).min(1 << 32));
                s.spawn(move || mismatches((lo..hi).map(|b| b as u32), libm))
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("sweep worker panicked")).collect()
    });
    assert!(
        bad.is_empty(),
        "{} mismatches (input, lane, transcription, host), first: {:#010x?}",
        bad.len(),
        &bad[..bad.len().min(8)]
    );
}

#[test]
fn the_golden_table_holds_for_the_transcription_and_the_lane_form() {
    let inputs: Vec<f32> = GOLDEN.iter().map(|&(x, _)| f32::from_bits(x)).collect();
    let lanes = lane_form(&inputs);
    for (&(x, want), lane) in GOLDEN.iter().zip(lanes) {
        let xf = f32::from_bits(x);
        assert_eq!(tanhf(xf).to_bits(), want, "transcription at {x:#010x}");
        assert_eq!(lane.to_bits(), want, "lane form at {x:#010x}");
        assert_eq!(tanh(xf).to_bits(), want, "scalar call at {x:#010x}");
    }
}

#[test]
fn every_4099th_pattern_matches_the_transcription() {
    let bad = mismatches((0..=u32::MAX).step_by(4099), false);
    assert!(bad.is_empty(), "{} mismatches, first: {:#010x?}", bad.len(), &bad[..bad.len().min(8)]);
}

#[test]
fn the_scalar_call_matches_the_transcription() {
    for bits in (0..=u32::MAX).step_by(65_537) {
        let x = f32::from_bits(bits);
        assert_eq!(tanh(x).to_bits(), tanhf(x).to_bits(), "at {bits:#010x}");
    }
}

#[test]
fn every_length_and_an_unaligned_slice_match_element_by_element() {
    let values: Vec<f32> =
        (0..23).map(|i| (i as f32 * 0.731 - 8.0) * if i % 3 == 0 { 0.01 } else { 1.3 }).collect();
    for len in 0..=9 {
        let got = lane_form(&values[..len]);
        assert_eq!(got.len(), len);
        for (&x, y) in values.iter().zip(&got) {
            assert_eq!(y.to_bits(), tanhf(x).to_bits(), "length {len} at {x}");
        }
    }
    let mut buf = values.clone();
    tanh_in_place(&mut buf[3..20]);
    for (i, (&x, y)) in values.iter().zip(&buf).enumerate() {
        let want = if (3..20).contains(&i) { tanhf(x) } else { x };
        assert_eq!(y.to_bits(), want.to_bits(), "unaligned slice at {i}");
    }
}

#[test]
#[ignore = "all 2³² patterns (~35 s in release on two cores); CI runs it"]
fn every_pattern_lane_form_matches_the_transcription() {
    sweep_every_pattern(false);
}

#[test]
#[ignore = "holds only where f32::tanh is fdlibm's tanhf (glibc)"]
fn every_pattern_matches_the_host_libm() {
    sweep_every_pattern(true);
}
