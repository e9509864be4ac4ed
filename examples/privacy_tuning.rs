//! The user-centric privacy tuner (§V-B): sweep the privacy temperature
//! and watch attack efficacy collapse while service accuracy holds.
//!
//! Run with: `cargo run --release --example privacy_tuning`

use pelican::workbench::Scenario;
use pelican::{reduction_in_leakage, DefenseKind, PAPER_TEMPERATURES};
use pelican_attacks::{Adversary, AttackMethod, PriorKind, TimeBased};
use pelican_mobility::{Scale, SpatialLevel};

fn main() {
    let scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(21).personal_users(2).build();
    let method = AttackMethod::TimeBased(TimeBased::default());

    let baseline =
        scenario.attack_all(Adversary::A1, &method, PriorKind::True, &[3], 8, DefenseKind::None);
    println!(
        "no defense:   attack top-3 {:>5.1}%   (the leak Pelican exists to stop)\n",
        baseline.accuracy(3) * 100.0
    );
    println!("temperature   attack top-3   leakage reduction   service top-3");
    println!("-----------   ------------   -----------------   --------------");

    for t in PAPER_TEMPERATURES {
        let defense = DefenseKind::Temperature { temperature: t };
        let attacked =
            scenario.attack_all(Adversary::A1, &method, PriorKind::True, &[3], 8, defense);
        // Service accuracy with the defense installed. The temperature
        // layer preserves the logit ordering exactly, so the deployed
        // runtime ranks from logits ("appropriate precision", §V-B).
        let mut service_acc = 0.0;
        for user in &scenario.personal {
            let mut defended = user.model.clone();
            defense.apply(&mut defended);
            let hits = user
                .test
                .iter()
                .filter(|s| defended.predict_top_k(&s.xs, 3).contains(&s.target))
                .count();
            service_acc += hits as f64 / user.test.len().max(1) as f64;
        }
        service_acc /= scenario.personal.len() as f64;
        println!(
            "{:>8.0e}      {:>5.1}%          {:>5.1}%              {:>5.1}%",
            t,
            attacked.accuracy(3) * 100.0,
            reduction_in_leakage(baseline.accuracy(3), attacked.accuracy(3)),
            service_acc * 100.0,
        );
    }
    println!("\nThe temperature is the user's knob; the provider never sees it.");
}
