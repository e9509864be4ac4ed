//! Integration tests spanning the whole workspace: trace generation →
//! cloud training → device personalization → deployment → queries.

use pelican::workbench::Scenario;
use pelican::{
    personalize, DefenseKind, PersonalizationConfig, PersonalizationMethod, PAPER_DEFENSE,
};
use pelican_mobility::{Scale, SpatialLevel};
use pelican_nn::metrics::evaluate_top_k;
use pelican_nn::{ModelEnvelope, TrainConfig};
use pelican_serve::{RegistryConfig, ShardedRegistry};

fn tiny(seed: u64) -> Scenario {
    Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(seed).personal_users(3).build()
}

#[test]
fn personalization_beats_reuse_on_average() {
    // The paper's core efficacy claim (Table III): transfer-learning
    // personalization outperforms reusing the general model.
    let scenario = tiny(3);
    let config = PersonalizationConfig {
        train: TrainConfig { epochs: 6, batch_size: 16, ..TrainConfig::default() },
        hidden_dim: 24,
        dropout: 0.1,
        seed: 1,
    };
    let (mut reuse_acc, mut tl_acc) = (0.0, 0.0);
    for user in &scenario.personal {
        let (reuse, _) =
            personalize(&scenario.general, &user.train, PersonalizationMethod::Reuse, &config);
        let (tl, _) = personalize(
            &scenario.general,
            &user.train,
            PersonalizationMethod::TlFeatureExtract,
            &config,
        );
        reuse_acc += evaluate_top_k(&reuse, &user.test, &[3]).accuracy(3);
        tl_acc += evaluate_top_k(&tl, &user.test, &[3]).accuracy(3);
    }
    assert!(
        tl_acc >= reuse_acc,
        "TL FE ({tl_acc:.3}) should beat or match Reuse ({reuse_acc:.3}) in aggregate"
    );
}

#[test]
fn general_model_learns_something() {
    let scenario = tiny(4);
    // The general model should beat uniform guessing on a *contributor's*
    // held-out tail by a wide margin (personalization users' idiosyncratic
    // chains are exactly what it cannot know — that is Table III's point).
    let contributor_samples = scenario.dataset.user_samples(0);
    let tail = &contributor_samples[contributor_samples.len() * 4 / 5..];
    let acc = evaluate_top_k(&scenario.general, tail, &[3]).accuracy(3);
    let uniform = 3.0 / scenario.dataset.n_locations() as f64;
    assert!(acc > uniform * 2.0, "general top-3 {acc:.3} vs uniform {uniform:.3}");
}

#[test]
fn model_envelope_survives_device_cloud_round_trip() {
    let scenario = tiny(5);
    let user = &scenario.personal[0];
    let wire = ModelEnvelope::encode(&user.model);
    let restored = wire.decode().expect("round trip");
    for sample in user.test.iter().take(4) {
        assert_eq!(user.model.logits(&sample.xs), restored.logits(&sample.xs));
    }
}

#[test]
fn service_end_to_end_with_privacy() {
    let scenario = tiny(6);
    let user = &scenario.personal[0];
    let registry = ShardedRegistry::new(scenario.general.clone(), RegistryConfig::default());
    registry.enroll_scenario(&scenario);
    let (served, _) = registry.get(user.user_id).expect("enrolled envelope decodes");
    let DefenseKind::Temperature { temperature } = PAPER_DEFENSE else {
        panic!("the paper's defense is a temperature layer")
    };
    assert_eq!(served.temperature(), temperature, "the registry must serve the defended model");

    // Defended service accuracy equals undefended accuracy: the privacy
    // layer preserves ranking.
    let mut hits_defended = 0;
    let mut hits_plain = 0;
    for sample in &user.test {
        let top = served.predict_top_k(&sample.xs, 3);
        if top.contains(&sample.target) {
            hits_defended += 1;
        }
        if user.model.predict_top_k(&sample.xs, 3).contains(&sample.target) {
            hits_plain += 1;
        }
    }
    assert_eq!(hits_defended, hits_plain, "privacy layer must not change top-3 hits");
}

#[test]
fn scenarios_reproduce_bit_for_bit() {
    let a = tiny(7);
    let b = tiny(7);
    assert_eq!(a.personal.len(), b.personal.len());
    for (ua, ub) in a.personal.iter().zip(&b.personal) {
        assert_eq!(ua.train.len(), ub.train.len());
        let xs = &ua.test[0].xs;
        assert_eq!(ua.model.logits(xs), ub.model.logits(xs));
    }
}

#[test]
fn ap_level_pipeline_works() {
    let scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Ap).seed(8).personal_users(1).build();
    let user = &scenario.personal[0];
    assert_eq!(scenario.dataset.n_locations(), 36, "tiny campus: 12 buildings x 3 APs");
    let acc = user.test_accuracy(3);
    assert!((0.0..=1.0).contains(&acc));
}
