//! A privacy audit from the adversary's chair: run the paper's time-based
//! model-inversion attack against your own personalized model and see what
//! a curious service provider could learn (§III-B / §IV).
//!
//! Run with: `cargo run --release --example adversary_audit`

use pelican::workbench::Scenario;
use pelican_attacks::{Adversary, AttackMethod, PriorKind, TimeBased};
use pelican_mobility::{Scale, SpatialLevel};

fn main() {
    let scenario =
        Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(13).personal_users(2).build();

    let method = AttackMethod::TimeBased(TimeBased::default());
    println!("auditing {} personalized models\n", scenario.personal.len());

    for user in &scenario.personal {
        // The adversary (honest-but-curious provider) sees: the black-box
        // model, the prior, the previous session and the observed output.
        let eval =
            scenario.attack_user(user, Adversary::A1, &method, PriorKind::True, &[1, 3], 8, None);
        println!(
            "user {:>2}: model top-3 accuracy {:>5.1}%  |  attack recovers {:>5.1}% of hidden \
             locations (top-3), {:.0} queries/instance",
            user.user_id,
            user.test_accuracy(3) * 100.0,
            eval.accuracy(3) * 100.0,
            eval.queries_per_instance(),
        );

        // One concrete reconstruction, spelled out.
        let instances = scenario.attack_instances(user, Adversary::A1, 1);
        if let Some(inst) = instances.first() {
            let prior = scenario.prior(user, PriorKind::True);
            let probes = pelican_attacks::prior::random_probes(&scenario.dataset.space, 24, 5);
            let interest = pelican_attacks::interest_locations(
                &user.model,
                &probes,
                pelican_attacks::INTEREST_THRESHOLD,
            );
            let mut model = user.model.clone();
            let (ranking, _) =
                method.run(&mut model, &scenario.dataset.space, &prior, &interest, inst);
            let guesses = ranking.top_k(3);
            println!(
                "          example: user was actually in building {}; adversary's top-3 guess: \
                 {:?} {}",
                inst.truth.building,
                guesses,
                if guesses.contains(&inst.truth.building) { "← leaked" } else { "(missed)" }
            );
        }
    }
    println!("\nRun the privacy_tuning example to see how Pelican shuts this down.");
}
