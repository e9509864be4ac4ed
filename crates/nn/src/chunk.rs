//! Packed sample-major batch representation for the training chunk path.
//!
//! The per-sample `forward`/`backward` pair hands `Vec<Vec<Vec<f32>>>`
//! sequences between layers; at mobile-scale layer widths the
//! per-timestep heap vectors cost more than the arithmetic they carry.
//! [`crate::fit`] instead threads one [`ChunkBatch`] — a single
//! row-major [`Matrix`] holding every timestep of every sample, plus the
//! ragged-length bookkeeping — through the whole forward/backward
//! pipeline, so each layer boundary moves one allocation instead of one
//! per sample-step.
//!
//! Row `offsets[i] + t` is sample `i`'s timestep `t`. Packing order is
//! sample-major (all of sample 0, then sample 1, …); every kernel in the
//! chunk path processes rows independently or in an explicitly documented
//! order, so the layout is purely a memory-level choice — the FP
//! operations and their order are identical to the per-sample path.

use pelican_tensor::Matrix;

use crate::Sequence;

/// A chunk of ragged sequences packed into one sample-major matrix.
#[derive(Debug, Clone)]
pub(crate) struct ChunkBatch {
    /// Per-sample sequence lengths.
    pub lens: Vec<usize>,
    /// Row offset of each sample's `t = 0`; `lens.len() + 1` entries, the
    /// last being the total row count.
    pub offsets: Vec<usize>,
    /// Packed rows, `total × dim`.
    pub rows: Matrix,
}

impl ChunkBatch {
    /// Packs borrowed sequences into one matrix without cloning the
    /// nested vectors. `dim` is the row width (needed explicitly so an
    /// empty chunk still carries the right shape).
    pub fn pack<'a, I>(seqs: I, dim: usize) -> Self
    where
        I: IntoIterator<Item = &'a Sequence>,
        I::IntoIter: Clone,
    {
        let it = seqs.into_iter();
        let mut batch = Self::zeros(it.clone().map(|s| s.len()).collect(), dim);
        for (i, seq) in it.enumerate() {
            for (t, step) in seq.iter().enumerate() {
                batch.rows.row_mut(batch.offsets[i] + t).copy_from_slice(step);
            }
        }
        batch
    }

    /// An all-zero batch of samples with the given lengths.
    pub fn zeros(lens: Vec<usize>, dim: usize) -> Self {
        let offsets = Self::offsets_of(&lens);
        let rows = Matrix::zeros(offsets[lens.len()], dim);
        Self { lens, offsets, rows }
    }

    /// Prefix-sum row offsets for a set of sequence lengths.
    fn offsets_of(lens: &[usize]) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        let mut total = 0usize;
        for &len in lens {
            offsets.push(total);
            total += len;
        }
        offsets.push(total);
        offsets
    }

    /// Number of samples in the chunk.
    pub fn samples(&self) -> usize {
        self.lens.len()
    }

    /// Total packed rows.
    pub fn total(&self) -> usize {
        self.offsets[self.lens.len()]
    }

    /// The final timestep's row of sample `i` — what sequence-to-one
    /// losses consume.
    pub fn last_row(&self, i: usize) -> &[f32] {
        self.rows.row(self.offsets[i + 1] - 1)
    }

    /// [`ChunkBatch::last_row`], mutably — where a sequence-to-one loss
    /// puts its gradient.
    pub fn last_row_mut(&mut self, i: usize) -> &mut [f32] {
        self.rows.row_mut(self.offsets[i + 1] - 1)
    }

    /// Every row of sample `i`, flat.
    fn sample(&self, i: usize) -> &[f32] {
        let dim = self.rows.cols();
        &self.rows.as_slice()[self.offsets[i] * dim..self.offsets[i + 1] * dim]
    }

    /// The samples `picks` name, packed in that order.
    pub fn gather(&self, picks: &[usize]) -> Self {
        let lens: Vec<usize> = picks.iter().map(|&i| self.lens[i]).collect();
        let offsets = Self::offsets_of(&lens);
        let mut data = Vec::with_capacity(offsets[lens.len()] * self.rows.cols());
        for &i in picks {
            data.extend_from_slice(self.sample(i));
        }
        let rows = Matrix::from_vec(offsets[lens.len()], self.rows.cols(), data);
        Self { lens, offsets, rows }
    }

    /// Writes sample `j` of `from` over sample `picks[j]` — the inverse
    /// of [`ChunkBatch::gather`].
    pub fn scatter(&mut self, picks: &[usize], from: &ChunkBatch) {
        let dim = self.rows.cols();
        for (j, &i) in picks.iter().enumerate() {
            let at = self.offsets[i] * dim..self.offsets[i + 1] * dim;
            self.rows.as_mut_slice()[at].copy_from_slice(from.sample(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_ragged_sequences() {
        let seqs: Vec<Sequence> = vec![
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            vec![vec![5.0, 6.0]],
            vec![vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]],
        ];
        let batch = ChunkBatch::pack(seqs.iter(), 2);
        assert_eq!(batch.lens, vec![2, 1, 3]);
        assert_eq!(batch.offsets, vec![0, 2, 3, 6]);
        assert_eq!(batch.total(), 6);
        assert_eq!(batch.rows.row(4), &[9.0, 10.0]);
        assert_eq!(batch.last_row(0), &[3.0, 4.0]);
        assert_eq!(batch.sample(2), &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn gather_and_scatter_are_inverses() {
        let seqs: Vec<Sequence> =
            vec![vec![vec![1.0], vec![2.0]], vec![vec![3.0]], vec![vec![4.0], vec![5.0]]];
        let all = ChunkBatch::pack(seqs.iter(), 1);
        let picked = all.gather(&[2, 0]);
        assert_eq!(picked.lens, vec![2, 2]);
        assert_eq!(picked.offsets, vec![0, 2, 4]);
        assert_eq!(picked.rows.as_slice(), &[4.0, 5.0, 1.0, 2.0]);
        let mut back = ChunkBatch::pack(seqs.iter(), 1);
        back.rows.fill_zero();
        back.scatter(&[2, 0], &picked);
        assert_eq!(back.rows.as_slice(), &[1.0, 2.0, 0.0, 4.0, 5.0]);
    }

    #[test]
    fn empty_chunk_keeps_its_width() {
        let batch = ChunkBatch::pack(std::iter::empty(), 7);
        assert_eq!(batch.samples(), 0);
        assert_eq!(batch.total(), 0);
        assert_eq!(batch.rows.cols(), 7);
    }
}
