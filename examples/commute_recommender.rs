//! A location-aware mobile service built on Pelican: a "commute
//! recommender" that prefetches content for the places a student is
//! predicted to visit next — the motivating scenario of the paper's
//! introduction (mapping services predicting commute times, restaurant
//! recommenders prefetching nearby content).
//!
//! Demonstrates: model updates as new personal data arrives (§V-A4) and
//! the accuracy/latency trade-off between on-device and cloud deployment.
//!
//! Run with: `cargo run --release --example commute_recommender`

use std::time::Duration;

use pelican::platform::{ComputeTier, ResourceUsage};
use pelican::workbench::Scenario;
use pelican::PAPER_DEFENSE;
use pelican_mobility::{Scale, SpatialLevel};
use pelican_nn::{fit, TrainConfig};
use pelican_sim::LinkProfile;

fn main() {
    let scenario = Scenario::builder(Scale::Tiny, SpatialLevel::Building)
        .seed(7)
        .personal_users(1)
        .personal_weeks(1) // enroll with just one week of history…
        .build();
    let user = &scenario.personal[0];

    let acc_week1 = user.test_accuracy(3);
    println!("week 1 model: top-3 accuracy {:.1}%", acc_week1 * 100.0);

    // A week later the device has more history: re-invoke transfer
    // learning from the current parameters, keeping the model's freeze
    // pattern (step 4 of Fig. 4).
    let full =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(7).personal_users(1).build();
    let fresh_samples = &full.personal[0].train;
    let train = TrainConfig { epochs: 4, batch_size: 16, ..TrainConfig::default() };
    let mut updated = user.model.clone();
    let report = fit(&mut updated, fresh_samples, &train);
    let usage = ResourceUsage::priced(ComputeTier::Device, report.flops);
    println!(
        "update: {} steps, {:.3} billion simulated device cycles",
        report.steps,
        usage.cycles_billions()
    );

    let acc_updated =
        pelican_nn::metrics::evaluate_top_k(&updated, &full.personal[0].test, &[3]).accuracy(3);
    println!("updated model: top-3 accuracy {:.1}%", acc_updated * 100.0);

    // Serve a recommendation from the redeployed model behind the user's
    // privacy layer, and show the deployment latency difference: a
    // cloud-hosted model costs a WAN request and response, an on-device
    // one no network traversal at all.
    let mut deployed = updated;
    PAPER_DEFENSE.apply(&mut deployed);
    let query = &full.personal[0].test[0].xs;
    let probs = deployed.predict_proba(query);
    let top = pelican_tensor::top_k(&probs, 3);
    let wan = LinkProfile::wan();
    let request = wan.transfer_us((deployed.input_dim() * 4) as u64);
    let cloud_rtt = Duration::from_micros(request + wan.transfer_us((probs.len() * 4) as u64));
    println!("prefetching content for buildings {top:?} (cloud RTT {cloud_rtt:.1?})");
    println!("same query on-device: RTT {:.1?} (no network traversal)", Duration::ZERO);
}
