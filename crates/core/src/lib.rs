//! **Pelican**: privacy-preserving personalization of next-location models
//! for distributed mobile services.
//!
//! This crate is the top of the workspace reproducing *Atrey, Shenoy &
//! Jensen, "Preserving Privacy in Personalized Models for Distributed
//! Mobile Services" (ICDCS 2021)*. It assembles the substrates — the
//! [`pelican_nn`] LSTM stack, the [`pelican_mobility`] campus simulator and
//! the [`pelican_attacks`] inversion attacks — into the paper's end-to-end
//! system (Fig. 4):
//!
//! 1. **Cloud-based initial training** ([`CloudTrainer`]): a general
//!    next-location LSTM trained on many contributors' trajectories.
//! 2. **Device-based personalization** ([`personalize()`], priced on
//!    [`ComputeTier::Device`]): the general model is downloaded to the
//!    user's device and adapted to the user's private history by transfer
//!    learning — feature extraction or fine tuning
//!    ([`PersonalizationMethod`]) — without the raw data ever leaving the
//!    device.
//! 3. **Model deployment**: on-device or cloud-hosted black-box serving,
//!    run by `pelican-serve`'s `ShardedRegistry` and its
//!    `simulate_serving` pass.
//! 4. **Model updates**: re-invoking transfer learning as new personal data
//!    accumulates, published through the same registry.
//!
//! The privacy enhancement (§V-B) is an inference-time temperature layer
//! ([`DefenseKind::Temperature`], the paper's setting is
//! [`PAPER_DEFENSE`]) that sharpens confidence scores, starving inversion
//! attacks of signal while preserving top-k rankings. [`DefenseKind`]
//! names, validates and installs it and the comparison defenses alike.
//!
//! # Quickstart
//!
//! ```
//! use pelican::workbench::Scenario;
//! use pelican_mobility::{Scale, SpatialLevel};
//!
//! // Builds a tiny campus, trains a general model and personalizes it for
//! // one user (sizes kept minimal for the doc test).
//! let scenario = Scenario::builder(Scale::Tiny, SpatialLevel::Building)
//!     .seed(7)
//!     .personal_users(1)
//!     .build();
//! let user = &scenario.personal[0];
//! assert!(user.model.output_dim() > 0);
//! ```

pub mod defenses;
pub mod personalize;
pub mod platform;
pub mod stats;
pub mod system;
pub mod workbench;

pub use defenses::{reduction_in_leakage, DefenseKind, PAPER_DEFENSE, PAPER_TEMPERATURES};
pub use personalize::{personalize, prepare, PersonalizationConfig, PersonalizationMethod};
pub use platform::{ComputeTier, ResourceUsage};
pub use system::CloudTrainer;
