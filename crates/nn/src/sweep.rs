//! Activations of a *sweep*: many queries that share every timestep but
//! one.
//!
//! The enumeration attacks of §III-B2 ask a model the same question a
//! thousand times with one timestep varied. Whatever a layer computes
//! from state no candidate has touched yet — the timesteps before the
//! varied slot, the hidden-state half of the pre-activation at the slot,
//! the input half of known later steps — is the same for every candidate,
//! so a sweep carries each timestep's activations as a matrix with one
//! row per candidate, or a single row while every candidate still shares
//! it, and every layer keeps shared work shared for as long as it can
//! (see [`crate::SequenceModel::logits_sweep`]). A served batch
//! ([`crate::SequenceModel::logits_batch`]) is a sweep that shares no
//! step: its queries of one length run the same pass, a row each.
//!
//! A transfer-learned model also shares work *across versions of
//! itself*: re-training moves only the layers above its frozen prefix,
//! so what the prefix answers a query never changes. A [`PrefixTier`]
//! keeps those answers per query, and a sweep handed one
//! ([`crate::SequenceModel::logits_sweep_tiered`]) runs the prefix only
//! for the queries the tier has not seen.

use std::collections::hash_map::{Entry, HashMap};

use pelican_tensor::Matrix;

use crate::SequenceModel;

/// Candidate `r`'s row of a sweep's activations: row `r`, or the only
/// row when every candidate shares it.
pub(crate) fn shared_row(rows: &Matrix, r: usize) -> &[f32] {
    rows.row(if rows.rows() == 1 { 0 } else { r })
}

fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a prefix tier holds fewer than 2^32 floats")
}

/// What a model's frozen prefix answered, per query: for every query
/// seen, the prefix's output at the timesteps from the sweep's slot on
/// (the steps before it are shared by the whole sweep and cost one row to
/// recompute). Flat storage — one `f32` arena and a `query hash → offset`
/// index — that grows to one audit's query set and no further, because a
/// user's audit asks the same questions every time.
///
/// The contents are only valid for the prefix that computed them:
/// [`PrefixTier::bind`] ties the tier to a model's
/// [`SequenceModel::prefix_identity`] and empties it when that changed.
#[derive(Debug, Clone, Default)]
pub struct PrefixTier {
    /// Identity of the prefix that computed `arena`.
    identity: u64,
    /// Query hash → where its activations start in `arena`, and how many
    /// trailing timesteps of the query are stored there. 32-bit, because
    /// at mobile hidden sizes the index weighs as much as the arena.
    index: HashMap<u64, (u32, u32)>,
    arena: Vec<f32>,
    /// Queries whose prefix activations were already here.
    pub hits: u64,
    /// Queries that ran the prefix (and left their activations here).
    pub misses: u64,
}

impl PrefixTier {
    /// An empty tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct queries held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no query is held.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Makes the tier `model`'s: whatever another prefix — other weight
    /// bits, another shape, another number of frozen layers — computed is
    /// dropped. The counters keep counting.
    pub fn bind(&mut self, model: &SequenceModel) {
        let identity = model.prefix_identity();
        if self.identity != identity {
            self.identity = identity;
            self.index.clear();
            self.arena.clear();
        }
    }

    /// Whether [`PrefixTier::bind`] last bound the tier to `model`'s
    /// prefix as it is now.
    pub(crate) fn is_bound_to(&self, model: &SequenceModel) -> bool {
        self.identity == model.prefix_identity()
    }

    /// Finds room for the last `steps` timesteps, `width` floats each, of
    /// every query in `keys`. Returns where in the arena each query's
    /// activations start, and the rows that must still be computed: a
    /// query is a miss the first time its hash is seen — in the tier or
    /// earlier in `keys` — or if fewer steps of it were kept, and a hit
    /// after that.
    pub(crate) fn reserve(
        &mut self,
        keys: &[u64],
        steps: usize,
        width: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut missing = Vec::new();
        let mut end = self.arena.len();
        let starts = keys
            .iter()
            .enumerate()
            .map(|(row, &key)| {
                let (offset, stored) = match self.index.entry(key) {
                    Entry::Occupied(held) if held.get().1 as usize >= steps => *held.get(),
                    unseen_or_short => {
                        missing.push(row);
                        let fresh = (narrow(end), narrow(steps));
                        end += steps * width;
                        *unseen_or_short.insert_entry(fresh).get()
                    }
                };
                offset as usize + (stored as usize - steps) * width
            })
            .collect();
        // A tier lives as long as its user: no slack for growth that
        // will not come.
        self.arena.reserve_exact(end - self.arena.len());
        self.arena.resize(end, 0.0);
        self.misses += missing.len() as u64;
        self.hits += (keys.len() - missing.len()) as u64;
        (starts, missing)
    }

    /// Keeps what the prefix computed for the `missing` rows of a
    /// [`PrefixTier::reserve`]: `computed[t]` holds their activations at
    /// the `t`-th stored timestep, one row each in `missing` order.
    pub(crate) fn store(&mut self, starts: &[usize], missing: &[usize], computed: &[Matrix]) {
        for (t, rows) in computed.iter().enumerate() {
            let width = rows.cols();
            for (r, &row) in missing.iter().enumerate() {
                let at = starts[row] + t * width;
                self.arena[at..at + width].copy_from_slice(shared_row(rows, r));
            }
        }
    }

    /// The activations of every reserved query, one matrix per stored
    /// timestep and one row per query.
    pub(crate) fn gather(&self, starts: &[usize], steps: usize, width: usize) -> Vec<Matrix> {
        (0..steps)
            .map(|t| {
                let mut rows = Matrix::zeros(starts.len(), width);
                for (r, &start) in starts.iter().enumerate() {
                    let at = start + t * width;
                    rows.row_mut(r).copy_from_slice(&self.arena[at..at + width]);
                }
                rows
            })
            .collect()
    }
}
