//! Property test: the binary model envelope is a lossless wire format.
//!
//! The serving registry keeps cold models as envelope bytes and decodes
//! them on a cache miss, so a single flipped mantissa bit would silently
//! change what a user's model answers after eviction. Round-tripping must
//! therefore preserve every parameter *bit-exactly* — not approximately —
//! for arbitrary small architectures, defenses and freeze patterns.
//!
//! Decoding is also where bytes from a peer or a disk come in, so a
//! corrupt envelope has a defined outcome: `decode` returns a model or a
//! [`ModelCodecError`], never a panic, never a model carrying a defense
//! no [`DefenseKind`] names, and never a layer stack whose widths do not
//! chain.

use proptest::prelude::*;

use pelican_nn::{
    DefenseKind, Dropout, Layer, Linear, Lstm, ModelCodecError, ModelEnvelope, SequenceModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bits_eq(label: &str, a: &[f32], b: &[f32]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{label}: length {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{label}[{i}]: {x:?} vs {y:?} differ in bits"));
        }
    }
    Ok(())
}

fn layers_bit_equal(original: &SequenceModel, decoded: &SequenceModel) -> Result<(), String> {
    if original.layers().len() != decoded.layers().len() {
        return Err("layer count changed".into());
    }
    for (i, (a, b)) in original.layers().iter().zip(decoded.layers()).enumerate() {
        match (a, b) {
            (Layer::Lstm(a), Layer::Lstm(b)) => {
                assert_bits_eq("w_ih", a.weight_ih().as_slice(), b.weight_ih().as_slice())?;
                assert_bits_eq("w_hh", a.weight_hh().as_slice(), b.weight_hh().as_slice())?;
                assert_bits_eq("lstm bias", a.bias(), b.bias())?;
                if a.trainable != b.trainable {
                    return Err(format!("layer {i}: trainable flag changed"));
                }
            }
            (Layer::Linear(a), Layer::Linear(b)) => {
                assert_bits_eq("w", a.weight().as_slice(), b.weight().as_slice())?;
                assert_bits_eq("linear bias", a.bias(), b.bias())?;
                if a.trainable != b.trainable {
                    return Err(format!("layer {i}: trainable flag changed"));
                }
            }
            (Layer::Dropout(a), Layer::Dropout(b)) => {
                if a.rate().to_bits() != b.rate().to_bits() {
                    return Err(format!("layer {i}: dropout rate changed"));
                }
            }
            _ => return Err(format!("layer {i}: kind changed")),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn envelope_round_trip_is_bit_exact(
        input_dim in 1usize..6,
        hidden in 1usize..7,
        classes in 2usize..6,
        deep in 0usize..2,
        seed in 0u64..10_000,
        temp_millis in 1u32..=1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = SequenceModel::builder().lstm(input_dim, hidden, &mut rng);
        if deep == 1 {
            builder = builder.dropout(0.25, seed).lstm(hidden, hidden, &mut rng);
        }
        let mut model = builder.linear(hidden, classes, &mut rng).build();
        if seed % 2 == 0 {
            model.layers_mut()[0].set_trainable(false);
        }
        model.set_defense(match seed % 3 {
            0 => DefenseKind::Temperature { temperature: temp_millis as f32 / 1000.0 },
            1 => DefenseKind::OutputNoise { sigma: temp_millis as f32 / 10_000.0, seed },
            _ => DefenseKind::Rounding { decimals: (seed % 6) as u32 },
        });

        let decoded = ModelEnvelope::encode(&model).decode().expect("round trip decodes");
        prop_assert_eq!(model.defense(), decoded.defense());
        if let Err(msg) = layers_bit_equal(&model, &decoded) {
            prop_assert!(false, "{}", msg);
        }

        // Bit-exact parameters imply bit-exact behaviour; spot-check it.
        let xs = vec![vec![0.31f32; input_dim]; 2];
        prop_assert_eq!(model.predict_proba(&xs), decoded.predict_proba(&xs));
    }
}

/// One fixed model: `lstm(4->3) -> dropout -> lstm(3->3) -> linear(3->5)`.
fn fixed_model() -> SequenceModel {
    let mut rng = StdRng::seed_from_u64(43);
    SequenceModel::general_lstm(4, 3, 5, 0.0, &mut rng)
}

/// The fixed model under each kind of defense: none, the paper's
/// temperature, the comparison suite's noise and rounding.
const DEFENSES: [DefenseKind; 4] = [
    DefenseKind::None,
    DefenseKind::Temperature { temperature: 1e-3 },
    DefenseKind::OutputNoise { sigma: 0.05, seed: 0x0DD5 },
    DefenseKind::Rounding { decimals: 1 },
];

fn envelope(defense: DefenseKind) -> Vec<u8> {
    let mut model = fixed_model();
    model.set_defense(defense);
    ModelEnvelope::encode(&model).as_bytes().to_vec()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

/// The bytes each defense encodes to were recorded when a model still
/// held a temperature and a post-processing field side by side: holding
/// one `DefenseKind` moved no byte of the format.
#[test]
fn every_defense_encodes_to_its_recorded_bytes() {
    let recorded: [(usize, u64); 4] = [
        (851, 0x1719_b345_2bdd_060a),
        (851, 0xb72c_fa5f_d537_20e9),
        (863, 0x6c53_3e78_ed08_4125),
        (855, 0xd21c_5caf_a9fb_7f1d),
    ];
    for (defense, (len, hash)) in DEFENSES.into_iter().zip(recorded) {
        let bytes = envelope(defense);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (len, hash), "{defense:?}");
        let decoded = ModelEnvelope::from_bytes(bytes).decode().expect("decodes");
        assert_eq!(decoded.defense(), defense);
    }
}

#[test]
fn a_temperature_of_one_is_no_defense() {
    let mut model = fixed_model();
    model.set_defense(DefenseKind::Temperature { temperature: 1.0 });
    assert_eq!(model.defense(), DefenseKind::None);
    let bytes = envelope(DefenseKind::Temperature { temperature: 1.0 });
    assert_eq!(bytes, envelope(DefenseKind::None));
    let decoded = ModelEnvelope::from_bytes(bytes).decode().expect("decodes");
    assert_eq!(decoded.defense(), DefenseKind::None);
}

/// The header's temperature field (after magic and version).
const TEMPERATURE: std::ops::Range<usize> = 6..10;

#[test]
fn a_temperature_outside_the_unit_interval_is_no_defense() {
    for temperature in [2.0, 0.0, -0.5, f32::NAN, f32::INFINITY] {
        let installed = std::panic::catch_unwind(|| {
            fixed_model().set_defense(DefenseKind::Temperature { temperature })
        });
        assert!(installed.is_err(), "set_defense took T = {temperature}");

        let mut bytes = envelope(DefenseKind::None);
        bytes[TEMPERATURE].copy_from_slice(&temperature.to_le_bytes());
        let decoded = ModelEnvelope::from_bytes(bytes).decode();
        assert_eq!(decoded.err(), Some(ModelCodecError::InvalidDefense), "T = {temperature}");
    }
}

#[test]
fn a_temperature_beside_noise_or_rounding_is_no_defense() {
    for defense in &DEFENSES[2..] {
        let mut bytes = envelope(*defense);
        bytes[TEMPERATURE].copy_from_slice(&0.05f32.to_le_bytes());
        let decoded = ModelEnvelope::from_bytes(bytes).decode();
        assert_eq!(decoded.err(), Some(ModelCodecError::InvalidDefense), "{defense:?}");
    }
}

/// A stack whose next weighted layer does not take in what the one
/// below puts out, or that has no weighted layer at all, would decode
/// into a model that panics on its first query: it is an invalid
/// dimension instead.
#[test]
fn layers_whose_widths_do_not_chain_are_an_invalid_dimension() {
    let mut rng = StdRng::seed_from_u64(5);
    let stacks = [
        vec![
            Layer::Linear(Linear::new(4, 3, &mut rng)),
            Layer::Linear(Linear::new(5, 2, &mut rng)),
        ],
        vec![Layer::Lstm(Lstm::new(4, 3, &mut rng)), Layer::Lstm(Lstm::new(2, 3, &mut rng))],
        vec![
            Layer::Lstm(Lstm::new(4, 3, &mut rng)),
            Layer::Dropout(Dropout::new(0.1, 0)),
            Layer::Linear(Linear::new(4, 2, &mut rng)),
        ],
        vec![Layer::Dropout(Dropout::new(0.1, 0))],
    ];
    for layers in stacks {
        let model = SequenceModel::from_layers(layers);
        let decoded = ModelEnvelope::encode(&model).decode();
        assert_eq!(decoded.err(), Some(ModelCodecError::InvalidDimension), "{}", model.describe());
    }
}

/// Every byte of the envelope header and of the first layer's header,
/// overwritten with each of four extremes, and every truncation, under
/// each kind of defense: `decode` answers each with an error or a model
/// that answers a query.
#[test]
fn a_corrupt_envelope_decodes_to_a_model_or_an_error() {
    for defense in DEFENSES {
        let bytes = envelope(defense);
        // Magic, version, temperature and tag; the tag's payload; the
        // layer count; the first layer's tag, flag and two dimensions.
        let payload = match defense {
            DefenseKind::OutputNoise { .. } => 12,
            DefenseKind::Rounding { .. } => 4,
            _ => 0,
        };
        let headers = 11 + payload + 4 + 10;
        for at in 0..headers {
            for value in [0x00, 0x7F, 0x80, 0xFF] {
                let mut corrupt = bytes.clone();
                corrupt[at] = value;
                let answered = std::panic::catch_unwind(|| {
                    if let Ok(model) = ModelEnvelope::from_bytes(corrupt).decode() {
                        let xs = vec![vec![0.5; model.input_dim()]; 2];
                        assert_eq!(model.predict_proba(&xs).len(), model.output_dim());
                    }
                });
                assert!(answered.is_ok(), "{defense:?}: byte {at} set to {value:#04x} panicked");
            }
        }
        for len in 0..bytes.len() {
            let cut = ModelEnvelope::from_bytes(bytes[..len].to_vec());
            let decoded = std::panic::catch_unwind(|| cut.decode());
            assert!(
                matches!(decoded, Ok(Err(_))),
                "{defense:?}: cut at {len} of {} did not fail cleanly",
                bytes.len()
            );
        }
    }
}
