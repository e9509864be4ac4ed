//! Query fingerprints pinned as literals.
//!
//! A query's hash keys the logit cache, the prefix tier, the served
//! attack's answer store and the noise defense's per-query stream, so it
//! may not move when the fold computing it is rearranged. These literals
//! were recorded with the one-chain serial fold, before
//! `sweep_query_hashes` folded four candidates side by side; the sweep
//! cases cover every remainder of four candidates, at a slot with a
//! suffix step after it and at the last slot.

use pelican_nn::{query_hash, sweep_query_hashes, Step};
use pelican_tensor::Matrix;

/// The width of the building-level feature space the attacks query.
const WIDTH: usize = 119;

/// A 4-hot session step: one location, entry slot, duration bin and
/// day of week, shifted by `shift`.
fn four_hot(shift: usize) -> Step {
    let mut step = vec![0.0; WIDTH];
    for at in [shift % 40, 40 + (shift * 7) % 48, 88 + (shift * 3) % 24, 112 + shift % 7] {
        step[at] = 1.0;
    }
    step
}

/// A dense step shaped like the attacks' expected context: a prior over
/// locations, uniform time blocks and one day of week.
fn dense() -> Step {
    let mut step: Step = (0..WIDTH).map(|i| 1.0 / (1.0 + i as f32)).collect();
    step[..40].iter_mut().enumerate().for_each(|(l, p)| *p = (l as f32 + 0.5) / 820.0);
    step[112..].fill(0.0);
    step[114] = 1.0;
    step
}

/// Steps whose bits a value-level fold would lose: both zeros, a
/// subnormal and two NaN payloads.
fn special() -> Step {
    vec![
        0.0,
        -0.0,
        f32::from_bits(0x0000_0001),
        f32::from_bits(0x0040_0000),
        f32::from_bits(0x7fc1_2345),
        f32::from_bits(0xffc0_0001),
        1.0,
    ]
}

fn candidates(n: usize) -> Matrix {
    let mut rows = Matrix::zeros(n, WIDTH);
    for r in 0..n {
        rows.row_mut(r).copy_from_slice(&four_hot(5 * r + 1));
    }
    if n > 2 {
        // A signed zero in one row: only its bits tell it from row 0.
        rows.row_mut(2).copy_from_slice(&four_hot(1));
        rows[(2, 30)] = -0.0;
    }
    rows
}

#[test]
fn query_hash_keeps_its_recorded_bits() {
    let cases: [Vec<Step>; 6] = [
        vec![four_hot(3)],
        vec![dense()],
        vec![dense(), four_hot(11)],
        vec![special()],
        vec![vec![0.0; 4], vec![-0.0; 4]],
        vec![],
    ];
    let got: Vec<u64> = cases.iter().map(|xs| query_hash(xs)).collect();
    let expected: [u64; 6] = [
        0x2be0_f256_e7d7_d6e7,
        0xd5a1_2bf4_6068_fd63,
        0x4620_0624_5679_6771,
        0xa85c_f74f_2f39_175a,
        0xf538_d502_281a_39c5,
        0xcbf2_9ce4_8422_2325,
    ];
    assert_eq!(got, expected, "query hashes moved: {got:#018x?}");
}

#[test]
fn sweep_query_hashes_keep_their_recorded_bits() {
    // Row `r` of `candidates(n)` does not depend on `n`, so a sweep of
    // `n` candidates must answer the first `n` keys of its slot's row.
    let expected: [[u64; 9]; 2] = [
        [
            0x278f_f5cd_1885_405d,
            0x5c7a_e00c_7585_405d,
            0x11eb_836d_9885_405d,
            0xd2a4_06ef_6d85_405d,
            0x2a0a_1e09_8685_405d,
            0xf02f_33ec_8e85_405d,
            0x46af_a967_4385_405d,
            0xd5d5_694e_3885_405d,
            0x31a3_f46f_8385_405d,
        ],
        [
            0x9985_3ad8_a479_6771,
            0xf149_4b8b_2679_6771,
            0xa636_0fef_2479_6771,
            0x6bdc_fb64_4479_6771,
            0xb409_6f42_5579_6771,
            0xde27_4fa2_6879_6771,
            0xa054_b807_3a79_6771,
            0x41db_e15b_9879_6771,
            0x98c0_4229_5a79_6771,
        ],
    ];
    let template = vec![dense(), four_hot(0)];
    for (slot, expected) in expected.iter().enumerate() {
        for n in [1, 2, 3, 4, 5, 9] {
            let rows = candidates(n);
            let keys = sweep_query_hashes(&template, slot, &rows);
            for (r, &key) in keys.iter().enumerate() {
                let mut xs = template.clone();
                xs[slot] = rows.row(r).to_vec();
                assert_eq!(key, query_hash(&xs), "slot {slot}, {n} candidates, row {r}");
            }
            assert_eq!(keys, expected[..n], "slot {slot}, {n} candidates: {keys:#018x?}");
        }
    }
}
