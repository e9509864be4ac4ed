//! Integration test: the raw-event data path feeds the learning task with
//! the same fidelity as ground truth.

use pelican_mobility::{
    compare, extract_sessions, sessions_to_events, CampusConfig, EventNoise, FeatureSpace, Scale,
    SpatialLevel, TraceGenerator,
};

#[test]
fn extraction_recovers_training_signal_under_noise() {
    let mut generator = TraceGenerator::new(CampusConfig::for_scale(Scale::Tiny), 123);
    let campus = generator.campus().clone();
    let mut total_recall = 0.0;
    let users = 5;
    for user_id in 0..users {
        let trace = generator.user_trace(user_id);
        let events = sessions_to_events(&trace.sessions, EventNoise::default());
        let extracted = extract_sessions(&events, &campus);
        let report = compare(&trace.sessions, &extracted);
        total_recall += report.recall();

        // Extracted sessions must be valid inputs to the feature encoder.
        let space = FeatureSpace::new(SpatialLevel::Ap, campus.total_aps());
        for s in &extracted {
            let x = space.encode_session(s);
            assert_eq!(x.iter().filter(|&&v| v != 0.0).count(), 4);
        }
    }
    assert!(
        total_recall / users as f64 > 0.9,
        "mean extraction recall too low: {:.3}",
        total_recall / users as f64
    );
}

#[test]
fn noise_free_extraction_is_lossless_at_scale() {
    let mut generator = TraceGenerator::new(CampusConfig::for_scale(Scale::Tiny), 5);
    let campus = generator.campus().clone();
    for user_id in [0, 7, 13] {
        let trace = generator.user_trace(user_id);
        let events = sessions_to_events(&trace.sessions, EventNoise::none());
        let extracted = extract_sessions(&events, &campus);
        assert_eq!(extracted.len(), trace.sessions.len(), "user {user_id}");
        for (t, e) in trace.sessions.iter().zip(&extracted) {
            assert_eq!((t.ap, t.day, t.entry_minutes), (e.ap, e.day, e.entry_minutes));
        }
    }
}

#[test]
fn event_streams_are_deterministic() {
    let mk = || {
        let mut generator = TraceGenerator::new(CampusConfig::for_scale(Scale::Tiny), 9);
        let trace = generator.user_trace(2);
        sessions_to_events(&trace.sessions, EventNoise::default())
    };
    assert_eq!(mk(), mk());
}
