//! Binary (de)serialization of models.
//!
//! Pelican moves models between tiers: the general model is trained in the
//! cloud and *downloaded to the device* for personalization, and a
//! personalized model may be *uploaded back* for cloud deployment (§V-A).
//! [`ModelEnvelope`] is the wire format for those transfers — a compact,
//! versioned, length-prefixed binary layout (little-endian `f32` weights)
//! with no dependency on a serialization framework.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use pelican_tensor::Matrix;

use crate::{DefenseKind, Dropout, Layer, Linear, Lstm, SequenceModel};

const MAGIC: &[u8; 4] = b"PLCN";
/// Version 2 added the post-softmax defense tag: a deployed defense
/// (noise, rounding) is part of the model's black-box behaviour, so a
/// registry serving decoded envelopes must reproduce it exactly. The
/// header holds a [`DefenseKind`] as a temperature and a tag: `(T, NONE)`
/// with `T = 1` for none, `(1, GAUSSIAN)` or `(1, ROUND)` and its payload.
const VERSION: u16 = 2;

const TAG_LSTM: u8 = 0;
const TAG_LINEAR: u8 = 1;
const TAG_DROPOUT: u8 = 2;

const POST_NONE: u8 = 0;
const POST_GAUSSIAN: u8 = 1;
const POST_ROUND: u8 = 2;

/// Errors produced when decoding a serialized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCodecError {
    /// The buffer does not begin with the expected magic bytes.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The buffer ended before the declared content did.
    Truncated,
    /// An unknown layer tag was encountered.
    UnknownLayerTag(u8),
    /// An unknown defense tag was encountered.
    UnknownDefenseTag(u8),
    /// The header's temperature and defense tag name no [`DefenseKind`]:
    /// a temperature outside `(0, 1]`, or one below 1 beside noise or
    /// rounding.
    InvalidDefense,
    /// A decoded dimension or count was implausible: zero, a layer that
    /// does not take in what the layer below puts out, or a stack with
    /// no weighted layer.
    InvalidDimension,
}

impl std::fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelCodecError::BadMagic => write!(f, "buffer is not a Pelican model envelope"),
            ModelCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported model envelope version {v}")
            }
            ModelCodecError::Truncated => write!(f, "model envelope ended unexpectedly"),
            ModelCodecError::UnknownLayerTag(t) => write!(f, "unknown layer tag {t}"),
            ModelCodecError::UnknownDefenseTag(t) => write!(f, "unknown defense tag {t}"),
            ModelCodecError::InvalidDefense => write!(f, "invalid defense in model envelope"),
            ModelCodecError::InvalidDimension => write!(f, "invalid dimension in model envelope"),
        }
    }
}

impl std::error::Error for ModelCodecError {}

/// A serialized [`SequenceModel`] ready for transfer between tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEnvelope {
    bytes: Bytes,
}

impl ModelEnvelope {
    /// Serializes a model.
    pub fn encode(model: &SequenceModel) -> Self {
        let mut buf = BytesMut::with_capacity(64 + model.param_count() * 4);
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_f32_le(model.defense().softmax_temperature());
        match model.defense() {
            DefenseKind::None | DefenseKind::Temperature { .. } => buf.put_u8(POST_NONE),
            DefenseKind::OutputNoise { sigma, seed } => {
                buf.put_u8(POST_GAUSSIAN);
                buf.put_f32_le(sigma);
                buf.put_u64_le(seed);
            }
            DefenseKind::Rounding { decimals } => {
                buf.put_u8(POST_ROUND);
                buf.put_u32_le(decimals);
            }
        }
        buf.put_u32_le(model.layers().len() as u32);
        for layer in model.layers() {
            match layer {
                Layer::Lstm(l) => {
                    buf.put_u8(TAG_LSTM);
                    buf.put_u8(l.trainable as u8);
                    buf.put_u32_le(l.input_dim() as u32);
                    buf.put_u32_le(l.output_dim() as u32);
                    put_matrix(&mut buf, l.weight_ih());
                    put_matrix(&mut buf, l.weight_hh());
                    put_f32s(&mut buf, l.bias());
                }
                Layer::Linear(l) => {
                    buf.put_u8(TAG_LINEAR);
                    buf.put_u8(l.trainable as u8);
                    buf.put_u32_le(l.input_dim() as u32);
                    buf.put_u32_le(l.output_dim() as u32);
                    put_matrix(&mut buf, l.weight());
                    put_f32s(&mut buf, l.bias());
                }
                Layer::Dropout(d) => {
                    buf.put_u8(TAG_DROPOUT);
                    buf.put_u8(0);
                    buf.put_f32_le(d.rate());
                }
            }
        }
        Self { bytes: buf.freeze() }
    }

    /// Deserializes a model.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelCodecError`] for malformed, truncated or
    /// unsupported buffers.
    ///
    /// Dropout layers are reconstructed with a fresh mask seed: dropout is
    /// train-time-only state, irrelevant to a deployed model's behaviour.
    pub fn decode(&self) -> Result<SequenceModel, ModelCodecError> {
        let mut buf = self.bytes.clone();
        if buf.remaining() < MAGIC.len() + 2 {
            return Err(ModelCodecError::Truncated);
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(ModelCodecError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(ModelCodecError::UnsupportedVersion(version));
        }
        let temperature = get_f32(&mut buf)?;
        if buf.remaining() < 1 {
            return Err(ModelCodecError::Truncated);
        }
        let tag = buf.get_u8();
        if tag != POST_NONE && temperature != 1.0 {
            return Err(ModelCodecError::InvalidDefense);
        }
        let defense = match tag {
            POST_NONE => DefenseKind::Temperature { temperature },
            POST_GAUSSIAN => {
                let sigma = get_f32(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(ModelCodecError::Truncated);
                }
                DefenseKind::OutputNoise { sigma, seed: buf.get_u64_le() }
            }
            POST_ROUND => DefenseKind::Rounding { decimals: get_u32(&mut buf)? },
            other => return Err(ModelCodecError::UnknownDefenseTag(other)),
        };
        let defense = defense.checked().ok_or(ModelCodecError::InvalidDefense)?;
        let n_layers = get_u32(&mut buf)? as usize;
        if n_layers == 0 {
            return Err(ModelCodecError::InvalidDimension);
        }
        // Every layer takes at least its two tag bytes: a count the
        // buffer cannot hold is not believed with an allocation.
        let mut layers = Vec::with_capacity(n_layers.min(buf.remaining() / 2));
        // What the layers read so far put out; the next layer with
        // weights must take in exactly that.
        let mut width = None;
        for _ in 0..n_layers {
            if buf.remaining() < 2 {
                return Err(ModelCodecError::Truncated);
            }
            let tag = buf.get_u8();
            let trainable = buf.get_u8() != 0;
            match tag {
                TAG_LSTM => {
                    let input = get_u32(&mut buf)? as usize;
                    let hidden = get_u32(&mut buf)? as usize;
                    if input == 0 || hidden == 0 || width.is_some_and(|w| w != input) {
                        return Err(ModelCodecError::InvalidDimension);
                    }
                    width = Some(hidden);
                    let (w_ih, ih_finite) = get_matrix(&mut buf, 4 * hidden, input)?;
                    let (w_hh, hh_finite) = get_matrix(&mut buf, 4 * hidden, hidden)?;
                    let (b, _) = get_f32s(&mut buf, 4 * hidden)?;
                    let mut lstm = Lstm::from_parts(w_ih, w_hh, b);
                    lstm.set_finite(ih_finite && hh_finite);
                    lstm.trainable = trainable;
                    layers.push(Layer::Lstm(lstm));
                }
                TAG_LINEAR => {
                    let input = get_u32(&mut buf)? as usize;
                    let output = get_u32(&mut buf)? as usize;
                    if input == 0 || output == 0 || width.is_some_and(|w| w != input) {
                        return Err(ModelCodecError::InvalidDimension);
                    }
                    width = Some(output);
                    let (w, _) = get_matrix(&mut buf, output, input)?;
                    let (b, _) = get_f32s(&mut buf, output)?;
                    let mut linear = Linear::from_parts(w, b);
                    linear.trainable = trainable;
                    layers.push(Layer::Linear(linear));
                }
                TAG_DROPOUT => {
                    let rate = get_f32(&mut buf)?;
                    if !(0.0..1.0).contains(&rate) {
                        return Err(ModelCodecError::InvalidDimension);
                    }
                    layers.push(Layer::Dropout(Dropout::new(rate, 0)));
                }
                other => return Err(ModelCodecError::UnknownLayerTag(other)),
            }
        }
        if width.is_none() {
            // Nothing but dropout: the stack has no output width.
            return Err(ModelCodecError::InvalidDimension);
        }
        Ok(SequenceModel::from_checked_parts(layers, defense))
    }

    /// The envelope's size in bytes (what a device would download).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the envelope is empty (never true for encoded models).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The bytes as a shared handle: a clone of the handle, not of the
    /// bytes. A holder of it (the durable store's in-memory backend
    /// keeps it as a record's payload) shares this envelope's
    /// allocation and keeps it alive.
    pub fn shared_bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Wraps raw bytes received from a peer.
    pub fn from_bytes(bytes: impl Into<Bytes>) -> Self {
        Self { bytes: bytes.into() }
    }
}

fn put_matrix(buf: &mut BytesMut, m: &Matrix) {
    put_f32s(buf, m.as_slice());
}

/// Appends `xs` as little-endian `f32`s in one pass over the new tail.
fn put_f32s(buf: &mut BytesMut, xs: &[f32]) {
    let start = buf.len();
    buf.resize(start + 4 * xs.len(), 0);
    for (dst, x) in buf[start..].as_chunks_mut().0.iter_mut().zip(xs) {
        *dst = x.to_le_bytes();
    }
}

fn get_u32(buf: &mut Bytes) -> Result<u32, ModelCodecError> {
    if buf.remaining() < 4 {
        return Err(ModelCodecError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn get_f32(buf: &mut Bytes) -> Result<f32, ModelCodecError> {
    if buf.remaining() < 4 {
        return Err(ModelCodecError::Truncated);
    }
    Ok(buf.get_f32_le())
}

/// Reads `n` little-endian `f32`s in one pass over the front of `buf`,
/// and whether every one of them is finite — found in that same pass,
/// so a decoded layer need not re-read its weights to know.
fn get_f32s(buf: &mut Bytes, n: usize) -> Result<(Vec<f32>, bool), ModelCodecError> {
    let len =
        n.checked_mul(4).filter(|&len| len <= buf.remaining()).ok_or(ModelCodecError::Truncated)?;
    // `(bits & EXPONENT) + EXPONENT_LSB` carries into bit 31 exactly when
    // the exponent is all ones (±∞, NaN). An OR of those words costs the
    // conversion ~0.1 ns a float; a fold of `is_finite` cost ~0.16.
    let mut full_exponent = 0u32;
    let xs = buf.chunk()[..len]
        .as_chunks()
        .0
        .iter()
        .map(|&b| {
            let bits = u32::from_le_bytes(b);
            full_exponent |= (bits & 0x7f80_0000) + 0x0080_0000;
            f32::from_bits(bits)
        })
        .collect();
    buf.advance(len);
    Ok((xs, full_exponent & 0x8000_0000 == 0))
}

fn get_matrix(
    buf: &mut Bytes,
    rows: usize,
    cols: usize,
) -> Result<(Matrix, bool), ModelCodecError> {
    let n = rows.checked_mul(cols).ok_or(ModelCodecError::Truncated)?;
    let (xs, finite) = get_f32s(buf, n)?;
    Ok((Matrix::from_vec(rows, cols, xs), finite))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> SequenceModel {
        let mut rng = StdRng::seed_from_u64(21);
        let mut m = SequenceModel::general_lstm(5, 6, 3, 0.1, &mut rng);
        m.set_defense(DefenseKind::Temperature { temperature: 0.5 });
        m.layers_mut()[0].set_trainable(false);
        m
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let m = model();
        let decoded = ModelEnvelope::encode(&m).decode().expect("round trip");
        assert_eq!(decoded.defense(), DefenseKind::Temperature { temperature: 0.5 });
        assert!(!decoded.layers()[0].is_trainable());
        let xs = vec![vec![0.3; 5], vec![-0.2; 5]];
        assert_eq!(m.logits(&xs), decoded.logits(&xs));
        assert_eq!(m.predict_proba(&xs), decoded.predict_proba(&xs));
    }

    #[test]
    fn round_trip_preserves_postprocess_defenses() {
        // A deployed defense is part of the served behaviour; cold storage
        // (the serving registry's envelope path) must not strip it.
        for defense in [
            DefenseKind::OutputNoise { sigma: 0.02, seed: 77 },
            DefenseKind::Rounding { decimals: 1 },
        ] {
            let mut m = model();
            m.set_defense(defense);
            let decoded = ModelEnvelope::encode(&m).decode().expect("round trip");
            assert_eq!(decoded.defense(), defense);
            let xs = vec![vec![0.4; 5], vec![0.1; 5]];
            assert_eq!(m.predict_proba(&xs), decoded.predict_proba(&xs));
        }
    }

    #[test]
    fn a_decoded_layer_with_a_non_finite_weight_still_takes_the_dense_product() {
        let mut rng = StdRng::seed_from_u64(4);
        let donor = Lstm::new(8, 3, &mut rng);
        let head = Linear::new(3, 4, &mut rng);
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        let xs = vec![x.clone(), x];
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for poison in [f32::from_bits(0x7fc1_2345), f32::INFINITY, f32::NEG_INFINITY] {
            // Column 5 is zero in the one-hot query: only the dense
            // product reads it, and only then does `0 · poison` surface.
            let mut w_ih = donor.weight_ih().clone();
            w_ih[(1, 5)] = poison;
            let lstm = Lstm::from_parts(w_ih, donor.weight_hh().clone(), donor.bias().to_vec());
            let layers = vec![Layer::Lstm(lstm), Layer::Linear(head.clone())];
            let model = SequenceModel::from_layers(layers);

            let decoded = ModelEnvelope::encode(&model).decode().expect("round trip");
            let logits = decoded.logits(&xs);
            assert!(logits.iter().all(|v| v.is_nan()), "{poison} was skipped: {logits:?}");
            assert_eq!(bits(&logits), bits(&model.logits(&xs)), "{poison}");
            let Layer::Lstm(back) = &decoded.layers()[0] else { panic!("an LSTM layer") };
            assert_eq!(back.weight_ih()[(1, 5)].to_bits(), poison.to_bits());
        }
    }

    #[test]
    fn every_f32_bit_class_round_trips_bit_exact() {
        // ±0, the smallest and largest subnormals, ±∞, quiet and
        // signalling NaNs with payloads, and the normal extremes.
        let classes: Vec<u32> = vec![
            0x0000_0000,
            0x8000_0000,
            0x0000_0001,
            0x8000_0001,
            0x007F_FFFF,
            0x807F_FFFF,
            0x7F80_0000,
            0xFF80_0000,
            0x7FC0_0000,
            0xFFC0_0001,
            0x7FC1_2345,
            0x7F80_0001,
            0xFFBF_FFFF,
            0x0080_0000,
            0x7F7F_FFFF,
            0xFF7F_FFFF,
            0x3F80_0000,
        ];
        // Eight rows of the class list as weights, eight classes as bias.
        let cols = classes.len();
        let weights: Vec<f32> = (0..8 * cols).map(|i| f32::from_bits(classes[i % cols])).collect();
        let bias: Vec<f32> = classes.iter().rev().take(8).map(|&b| f32::from_bits(b)).collect();
        let layer = Linear::from_parts(Matrix::from_vec(8, cols, weights.clone()), bias.clone());
        let model = SequenceModel::from_layers(vec![Layer::Linear(layer)]);

        let decoded = ModelEnvelope::encode(&model).decode().expect("round trip");
        let Layer::Linear(back) = &decoded.layers()[0] else { panic!("a linear layer") };
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.weight().as_slice()), bits(&weights));
        assert_eq!(bits(back.bias()), bits(&bias));
        assert_eq!(ModelEnvelope::encode(&decoded), ModelEnvelope::encode(&model));
    }

    #[test]
    fn rejects_garbage() {
        let env = ModelEnvelope::from_bytes(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(matches!(env.decode(), Err(ModelCodecError::BadMagic)));
    }

    #[test]
    fn rejects_truncation() {
        let full = ModelEnvelope::encode(&model());
        let cut = ModelEnvelope::from_bytes(full.as_bytes()[..full.len() - 5].to_vec());
        assert!(matches!(cut.decode(), Err(ModelCodecError::Truncated)));
    }

    #[test]
    fn rejects_future_version() {
        let full = ModelEnvelope::encode(&model());
        let mut bytes = full.as_bytes().to_vec();
        bytes[4] = 99; // version little-endian low byte
        assert!(matches!(
            ModelEnvelope::from_bytes(bytes).decode(),
            Err(ModelCodecError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn envelope_size_tracks_parameters() {
        let m = model();
        let env = ModelEnvelope::encode(&m);
        assert!(env.len() > m.param_count() * 4, "envelope holds all params plus header");
        assert!(env.len() < m.param_count() * 4 + 256, "overhead stays small");
    }

    #[test]
    fn error_display_is_nonempty() {
        for e in [
            ModelCodecError::BadMagic,
            ModelCodecError::UnsupportedVersion(9),
            ModelCodecError::Truncated,
            ModelCodecError::UnknownLayerTag(7),
            ModelCodecError::UnknownDefenseTag(3),
            ModelCodecError::InvalidDefense,
            ModelCodecError::InvalidDimension,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
