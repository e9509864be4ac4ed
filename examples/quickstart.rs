//! Quickstart: the Pelican pipeline end to end in ~60 lines.
//!
//! Builds a synthetic campus, trains the general model "in the cloud",
//! personalizes it for one user "on device", deploys it with the privacy
//! layer, and queries the next-location service.
//!
//! Run with: `cargo run --release --example quickstart`

use pelican::workbench::Scenario;
use pelican_mobility::{Scale, SpatialLevel};
use pelican_serve::{RegistryConfig, ShardedRegistry};

fn main() {
    // 1 + 2: cloud training and device personalization, bundled by the
    // workbench. `Scale::Tiny` keeps this example fast; try `Small`.
    let scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(42).personal_users(1).build();
    let user = &scenario.personal[0];

    println!("general model : {}", scenario.general.describe());
    println!(
        "cloud training: {:.3} billion simulated cycles",
        scenario.general_usage.cycles_billions()
    );
    println!("personalized  : {}", user.model.describe());
    println!(
        "device fit    : {:.3} billion simulated cycles over {} samples",
        user.usage.cycles_billions(),
        user.train.len()
    );
    println!(
        "accuracy      : top-1 {:.1}%  top-3 {:.1}%",
        user.test_accuracy(1) * 100.0,
        user.test_accuracy(3) * 100.0
    );

    // 3: deployment. The user installs their privacy layer before the
    // model becomes visible to the service provider.
    let registry = ShardedRegistry::new(scenario.general.clone(), RegistryConfig::default());
    registry.enroll_scenario(&scenario);

    // Query: "given my last two sessions, where am I headed?"
    let query = &user.test[0].xs;
    let (model, _) = registry.get(user.user_id).expect("enrolled envelope decodes");
    let top3 = model.predict_top_k(query, 3);
    println!("prediction    : next locations (building ids) {top3:?}");
    println!(
        "ground truth  : building {} {}",
        user.test[0].target,
        if top3.contains(&user.test[0].target) { "(hit)" } else { "(miss)" }
    );
}
