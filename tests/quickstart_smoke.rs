//! Smoke test mirroring `examples/quickstart.rs`: the paper's Fig. 4
//! pipeline — cloud training → device personalization → privacy-layer
//! deployment → next-location query — end to end on a tiny scenario, so
//! CI exercises the full system on every push. (CI additionally runs
//! the example binary itself; this test keeps the pipeline covered by
//! plain `cargo test` too.)

use pelican::workbench::{Scenario, ScenarioSizing};
use pelican::PrivacyLayer;
use pelican_mobility::{Scale, SpatialLevel};
use pelican_serve::{RegistryConfig, ShardedRegistry};

#[test]
fn quickstart_pipeline_produces_a_prediction() {
    // Few users, few epochs: the point is that every stage runs, not
    // that the model is good.
    let scenario = Scenario::builder(Scale::Tiny, SpatialLevel::Building)
        .seed(42)
        .personal_users(1)
        .sizing(ScenarioSizing { hidden_dim: 16, general_epochs: 4, personal_epochs: 4 })
        .build();
    let user = &scenario.personal[0];
    let n_locations = scenario.dataset.n_locations();

    // Stage 3 of Fig. 4: deploy behind the privacy layer.
    let registry = ShardedRegistry::new(scenario.general.clone(), RegistryConfig::default());
    registry.enroll_scenario(&scenario, Some(PrivacyLayer::default()));

    // Stage 4: query the service for the next location.
    let query = &user.test[0].xs;
    let (model, _) = registry.get(user.user_id).expect("enrolled envelope decodes");
    let top3 = model.predict_top_k(query, 3);
    assert_eq!(top3.len(), 3, "service must return a full top-3 prediction");
    assert!(
        top3.iter().all(|&loc| loc < n_locations),
        "predictions must be valid location ids (got {top3:?} of {n_locations})"
    );

    // The privacy layer must not have changed the ranking the user sees.
    assert_eq!(
        top3,
        user.model.predict_top_k(query, 3),
        "deployed prediction must match the on-device model's ranking"
    );
}
