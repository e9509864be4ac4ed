//! Integration tests of the paper's two headline claims: personalized
//! models leak historical locations (§IV), and the Pelican privacy layer
//! substantially reduces that leakage without hurting accuracy (§V).

use pelican::workbench::Scenario;
use pelican::{reduction_in_leakage, DefenseKind, PAPER_DEFENSE};
use pelican_attacks::{
    prior_hit_rate, Adversary, AttackMethod, AuditConfig, LogitCache, PriorKind, TimeBased,
};
use pelican_mobility::{Scale, SpatialLevel};
use pelican_train::AuditGate;

fn scenario(seed: u64) -> Scenario {
    Scenario::builder(Scale::Tiny, SpatialLevel::Building).seed(seed).personal_users(3).build()
}

#[test]
fn attack_beats_the_prior_baseline() {
    // The attack must extract *more* than the marginal distribution knows:
    // compare against guessing the prior's top-3 for every instance.
    let s = scenario(31);
    let method = AttackMethod::TimeBased(TimeBased::default());
    let mut attack_hits = 0usize;
    let mut prior_hits = 0usize;
    let mut total = 0usize;
    for user in &s.personal {
        let eval = s.attack_user(
            user,
            Adversary::A1,
            &method,
            PriorKind::True,
            &[3],
            10,
            DefenseKind::None,
        );
        // The same instances and true prior the attack used.
        let red_team = AuditConfig { max_instances: 10, seed: s.seed, ..AuditConfig::default() };
        let (space, subject) = (&s.dataset.space, user.subject());
        let prior = red_team.prior(space, &subject, None);
        let instances = red_team.instances(space, &subject);
        let rate = prior_hit_rate(&prior, space, &instances, 3);
        prior_hits += (rate * instances.len() as f64).round() as usize;
        total += instances.len();
        attack_hits += (eval.accuracy(3) * eval.total as f64).round() as usize;
    }
    assert!(
        attack_hits >= prior_hits,
        "attack ({attack_hits}/{total}) should exploit the model beyond the prior \
         ({prior_hits}/{total})"
    );
    assert!(attack_hits > 0, "attack should recover something");
}

#[test]
fn the_workbench_and_the_gate_mount_one_attack() {
    // The workbench's attack of a model is the audit gate's audit of it
    // under the same red-team configuration: undefended with the true
    // prior, and under the paper's defense, which collapses the interest
    // set to the argmaxes so that the probes matter, with a predicted
    // prior, which draws its own probes from the seed.
    let s = scenario(36);
    let user = &s.personal[0];
    for (defense, prior) in
        [(DefenseKind::None, PriorKind::True), (PAPER_DEFENSE, PriorKind::Predict)]
    {
        let config =
            AuditConfig { prior, max_instances: 5, seed: s.seed, ..AuditConfig::default() };
        let workbench = s.attack_user(
            user,
            config.adversary,
            &config.method,
            config.prior,
            &config.ks,
            config.max_instances,
            defense,
        );
        let mut model = user.model.clone();
        model.set_defense(defense);
        let gate = AuditGate::new(config);
        let audit =
            gate.audit_cached(&model, &s.dataset.space, &user.subject(), &mut LogitCache::new());
        assert!(workbench.total > 0);
        assert_eq!(workbench.total, audit.total, "{defense:?}");
        assert_eq!(workbench.queries, audit.queries, "{defense:?}");
        for &k in &gate.config().ks {
            assert_eq!(workbench.accuracy(k), audit.accuracy(k), "{defense:?} top-{k}");
        }
    }
}

#[test]
fn adversaries_perform_comparably() {
    // Fig. 2b: A3's lack of side knowledge barely degrades the attack.
    let s = scenario(32);
    let method = AttackMethod::TimeBased(TimeBased::default());
    let a1 = s.attack_all(Adversary::A1, &method, PriorKind::True, &[3], 6, DefenseKind::None);
    let a3 = s.attack_all(Adversary::A3, &method, PriorKind::True, &[3], 6, DefenseKind::None);
    assert!(
        a3.accuracy(3) >= a1.accuracy(3) * 0.5,
        "A3 ({:.3}) should stay in the same league as A1 ({:.3})",
        a3.accuracy(3),
        a1.accuracy(3)
    );
}

#[test]
fn defense_reduces_leakage_and_preserves_accuracy() {
    let s = scenario(33);
    let method = AttackMethod::TimeBased(TimeBased::default());
    let before =
        s.attack_all(Adversary::A1, &method, PriorKind::True, &[1, 3], 10, DefenseKind::None);
    let after = s.attack_all(Adversary::A1, &method, PriorKind::True, &[1, 3], 10, PAPER_DEFENSE);
    assert!(
        after.accuracy(3) <= before.accuracy(3),
        "defense must not increase leakage: {:.3} -> {:.3}",
        before.accuracy(3),
        after.accuracy(3)
    );
    let reduction = reduction_in_leakage(before.accuracy(3), after.accuracy(3));
    assert!(
        reduction > 10.0,
        "defense should cut top-3 leakage substantially, got {reduction:.1}%"
    );

    // Service accuracy unchanged (ranking preserved).
    for user in &s.personal {
        let mut defended = user.model.clone();
        defended.set_defense(PAPER_DEFENSE);
        let plain = pelican_nn::metrics::evaluate_top_k(&user.model, &user.test, &[1]).accuracy(1);
        let def = pelican_nn::metrics::evaluate_top_k(&defended, &user.test, &[1]).accuracy(1);
        assert!((plain - def).abs() < 1e-9, "top-1 accuracy must survive the defense");
    }
}

#[test]
fn no_prior_weakens_the_attack() {
    // Fig. 2c: removing the prior hurts.
    let s = scenario(34);
    let method = AttackMethod::TimeBased(TimeBased::default());
    let with = s.attack_all(Adversary::A1, &method, PriorKind::True, &[1], 8, DefenseKind::None);
    let without = s.attack_all(Adversary::A1, &method, PriorKind::None, &[1], 8, DefenseKind::None);
    assert!(
        with.accuracy(1) >= without.accuracy(1),
        "true prior ({:.3}) should not underperform no prior ({:.3})",
        with.accuracy(1),
        without.accuracy(1)
    );
}

#[test]
fn time_based_attack_is_orders_cheaper_than_brute_force() {
    use pelican_attacks::BruteForce;
    let s = scenario(35);
    let user = &s.personal[0];
    let tb = s.attack_user(
        user,
        Adversary::A1,
        &AttackMethod::TimeBased(TimeBased::default()),
        PriorKind::True,
        &[1],
        2,
        DefenseKind::None,
    );
    let bf = s.attack_user(
        user,
        Adversary::A1,
        &AttackMethod::BruteForce(BruteForce::default()),
        PriorKind::True,
        &[1],
        2,
        DefenseKind::None,
    );
    assert!(
        tb.queries_per_instance() * 20.0 < bf.queries_per_instance(),
        "time-based {} vs brute {} queries/instance",
        tb.queries_per_instance(),
        bf.queries_per_instance()
    );
}
