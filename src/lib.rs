//! Workspace umbrella package for the Pelican reproduction.
//!
//! This package exists to host the *workspace-level* targets — the
//! cross-crate integration tests under `tests/` and the five library
//! walkthroughs under `examples/` (`quickstart`, `commute_recommender`,
//! `trace_pipeline`, `adversary_audit`, `privacy_tuning`) — which
//! exercise the full pipeline (cloud training → device personalization →
//! privacy layer → inversion attacks) across every crate at once. Fleet
//! runs have no example: each is a `repro` experiment in `pelican-bench`
//! that asserts its contracts as it runs, under a tier-1 unit test. The
//! library itself is intentionally empty; depend on
//! [`pelican`](../pelican) and friends directly instead.
