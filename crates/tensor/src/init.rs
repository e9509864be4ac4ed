//! Weight initialization schemes.
//!
//! All initializers draw from a caller-supplied RNG so model construction is
//! deterministic given a seed — a requirement for reproducing the paper's
//! experiments exactly across runs.

use rand::{Rng, RngExt as _};

use crate::matrix::Matrix;

/// Xavier/Glorot uniform: a `rows × cols` matrix uniform in `[-bound,
/// bound]` with `bound = sqrt(6 / (fan_in + fan_out))`. `rows` is the
/// fan-out and `cols` the fan-in, matching a layer computing `y = W·x`.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let w = pelican_tensor::xavier_uniform(4, 16, &mut rng);
/// assert_eq!(w.shape(), (4, 16));
/// ```
pub fn xavier_uniform<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.random_range(-bound..=bound);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let (rows, cols) = (32, 64);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let w = xavier_uniform(rows, cols, &mut rng);
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
        assert!(w.max_abs() > bound * 0.5, "samples should span the range");
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(42));
        let b = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
