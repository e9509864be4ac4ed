//! Deterministic open-loop traffic generation.
//!
//! Fleet traffic is not uniform: a small set of heavy users dominates
//! query volume (Zipf-skewed popularity) and arrivals cluster into bursts
//! (class changes on a campus empty thousands of phones into the network
//! at once). The generator reproduces both properties from a single seed:
//! identical seeds yield identical arrival timestamps and user picks,
//! machine-to-machine, so every serving experiment is exactly repeatable.

use pelican_mobility::{Session, UserTrace};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Zipf popularity exponent (`s` in `w_r ∝ 1/(r+1)^s`): a little over 1,
/// so a few heavy clients carry most of the volume.
const ZIPF_EXPONENT: f64 = 1.1;
/// Cycle length of the burst pattern, in requests.
const BURST_PERIOD: usize = 512;
/// Leading requests of each cycle that arrive at burst rate: a quarter of
/// the stream, the class-change rush.
const BURST_LEN: usize = 128;
/// Arrival-rate multiplier during bursts.
const BURST_FACTOR: f64 = 8.0;

/// Shape of the synthetic request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Total requests to emit.
    pub requests: usize,
    /// Size of the client population (user *indices* `0..users`; rank 0 is
    /// the most popular client).
    pub users: usize,
    /// Mean inter-arrival gap outside bursts, in microseconds.
    pub mean_interarrival_us: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self { requests: 10_000, users: 64, mean_interarrival_us: 400.0, seed: 42 }
    }
}

/// One generated arrival: a timestamp and the client (by popularity rank)
/// issuing the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in microseconds of simulated wall clock.
    pub at_us: u64,
    /// Client index in `0..users`, Zipf-distributed by rank.
    pub user_index: usize,
}

/// Seeded open-loop arrival process; iterate to drain the stream.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    /// Cumulative Zipf distribution over user ranks.
    cdf: Vec<f64>,
    rng: StdRng,
    clock_us: f64,
    emitted: usize,
}

impl TrafficGenerator {
    /// Creates a generator for the given traffic shape.
    ///
    /// # Panics
    ///
    /// Panics if `users` is zero or the mean inter-arrival gap is not
    /// positive.
    pub fn new(config: TrafficConfig) -> Self {
        assert!(config.users > 0, "traffic needs at least one user");
        assert!(config.mean_interarrival_us > 0.0, "mean inter-arrival must be positive");
        let mut cdf = Vec::with_capacity(config.users);
        let mut acc = 0.0;
        for rank in 0..config.users {
            acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { config, cdf, rng: StdRng::seed_from_u64(config.seed), clock_us: 0.0, emitted: 0 }
    }

    /// The configured traffic shape.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    fn in_burst(&self) -> bool {
        self.emitted % BURST_PERIOD < BURST_LEN
    }
}

impl Iterator for TrafficGenerator {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.emitted >= self.config.requests {
            return None;
        }
        // Exponential inter-arrival gap by inverse transform; bursts
        // multiply the arrival rate (divide the gap). `u` is in [0, 1), so
        // `1 - u` is in (0, 1]; the clamp keeps the log finite even for a
        // pathological draw.
        let u: f64 = self.rng.random();
        let mut gap = -(1.0 - u).max(f64::MIN_POSITIVE).ln() * self.config.mean_interarrival_us;
        if self.in_burst() {
            gap /= BURST_FACTOR;
        }
        self.clock_us += gap;
        let pick: f64 = self.rng.random();
        let user_index = self.cdf.partition_point(|&c| c <= pick).min(self.config.users - 1);
        self.emitted += 1;
        Some(Arrival { at_us: self.clock_us as u64, user_index })
    }
}

/// How mobility sessions map onto the serving clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MobilityTrafficConfig {
    /// Simulated microseconds per trace minute. `60_000_000` replays the
    /// campus in real time; smaller values compress the weeks-long trace
    /// onto a shorter serving clock without reordering anything.
    pub us_per_minute: u64,
    /// Trace minute the serving window opens at (exclusive): sessions at
    /// or before it — e.g. the enrollment window the one-shot pipeline
    /// already consumed — emit no queries. Arrival timestamps are
    /// measured from this minute, so the window opens near virtual
    /// time 0.
    pub start_minute: u64,
    /// Trace minute the window closes at (inclusive); `u64::MAX` drains
    /// the whole trace.
    pub end_minute: u64,
}

impl Default for MobilityTrafficConfig {
    fn default() -> Self {
        Self { us_per_minute: 60_000_000, start_minute: 0, end_minute: u64::MAX }
    }
}

/// The fleet's own mobility as the arrival process: every campus session
/// becomes one query, timestamped by its (time-compressed) entry minute.
///
/// Where [`TrafficGenerator`] synthesizes load shape from a seed, this
/// adapter derives it from the same [`pelican_mobility`] traces the
/// models are trained on — so the serving tier inherits diurnal rhythm
/// (campuses sleep at night), per-user burstiness (back-to-back
/// sessions) and device churn (users going dark for days) for free, and
/// the arrival stream is exactly as deterministic as the trace seed.
#[derive(Debug, Clone)]
pub struct MobilityTraffic {
    arrivals: Vec<Arrival>,
    sessions: Vec<Session>,
    pos: usize,
}

impl MobilityTraffic {
    /// Builds the merged arrival stream of a fleet of traces. The user
    /// index of each arrival is the session's own `user` id; ties at the
    /// same instant order by user id, so the stream is invariant under
    /// permutation of `traces`.
    pub fn from_traces(traces: &[UserTrace], config: MobilityTrafficConfig) -> Self {
        Self::from_sessions(traces.iter().flat_map(|t| t.sessions.iter().copied()), config)
    }

    /// Builds the arrival stream from raw sessions (any order).
    pub fn from_sessions(
        sessions: impl IntoIterator<Item = Session>,
        config: MobilityTrafficConfig,
    ) -> Self {
        let mut sessions: Vec<Session> = sessions
            .into_iter()
            .filter(|s| {
                let m = s.absolute_entry();
                m > config.start_minute && m <= config.end_minute
            })
            .collect();
        sessions.sort_by_key(|s| (s.absolute_entry(), s.user, s.building, s.ap));
        let arrivals = sessions
            .iter()
            .map(|s| Arrival {
                at_us: (s.absolute_entry() - config.start_minute) * config.us_per_minute,
                user_index: s.user,
            })
            .collect();
        Self { arrivals, sessions, pos: 0 }
    }

    /// The full arrival stream, ascending by `(at_us, user)`.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// The sessions behind the stream, parallel to [`Self::arrivals`]:
    /// arrival `i` is session `i` entering its building.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Number of arrivals in the window.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the window contains no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

impl Iterator for MobilityTraffic {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let arrival = self.arrivals.get(self.pos).copied();
        self.pos += arrival.is_some() as usize;
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(requests: usize) -> TrafficConfig {
        TrafficConfig { requests, users: 16, seed: 7, ..TrafficConfig::default() }
    }

    #[test]
    fn identical_seeds_reproduce_the_stream() {
        let a: Vec<Arrival> = TrafficGenerator::new(config(500)).collect();
        let b: Vec<Arrival> = TrafficGenerator::new(config(500)).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn arrivals_are_monotone() {
        let arrivals: Vec<Arrival> = TrafficGenerator::new(config(1000)).collect();
        for pair in arrivals.windows(2) {
            assert!(pair[0].at_us <= pair[1].at_us);
        }
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let mut counts = vec![0usize; 16];
        for arrival in TrafficGenerator::new(config(4000)) {
            counts[arrival.user_index] += 1;
        }
        assert!(
            counts[0] > counts[8] && counts[0] > counts[15],
            "head user must dominate: {counts:?}"
        );
        assert!(counts[0] > 4000 / 16, "head user beats the uniform share");
    }

    #[test]
    fn bursts_compress_interarrival_gaps() {
        let cfg = TrafficConfig { requests: 2048, users: 4, seed: 3, ..TrafficConfig::default() };
        let arrivals: Vec<Arrival> = TrafficGenerator::new(cfg).collect();
        let gap = |i: usize| arrivals[i + 1].at_us.saturating_sub(arrivals[i].at_us);
        // Mean gap inside the first burst window (128 requests at 8× the
        // rate) vs. the rest of the 512-request cycle.
        let burst_mean: f64 = (0..127).map(gap).sum::<u64>() as f64 / 127.0;
        let calm_mean: f64 = (128..511).map(gap).sum::<u64>() as f64 / 383.0;
        assert!(
            burst_mean * 4.0 < calm_mean,
            "bursts must be much denser: burst {burst_mean} vs calm {calm_mean}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Arrival> = TrafficGenerator::new(config(100)).collect();
        let mut cfg = config(100);
        cfg.seed = 8;
        let b: Vec<Arrival> = TrafficGenerator::new(cfg).collect();
        assert_ne!(a, b);
    }

    mod mobility {
        use super::*;
        use pelican_mobility::{CampusConfig, Scale, TraceGenerator, MINUTES_PER_DAY};

        fn traces() -> Vec<UserTrace> {
            TraceGenerator::new(CampusConfig::for_scale(Scale::Tiny), 11).all_traces()
        }

        #[test]
        fn arrivals_are_sorted_and_match_sessions() {
            let cfg = MobilityTrafficConfig { us_per_minute: 1_000, ..Default::default() };
            let traffic = MobilityTraffic::from_traces(&traces(), cfg);
            assert!(!traffic.is_empty());
            assert_eq!(traffic.arrivals().len(), traffic.sessions().len());
            for (a, s) in traffic.arrivals().iter().zip(traffic.sessions()) {
                assert_eq!(a.user_index, s.user);
                assert_eq!(a.at_us, s.absolute_entry() * 1_000);
            }
            for pair in traffic.arrivals().windows(2) {
                assert!(pair[0].at_us <= pair[1].at_us);
            }
        }

        #[test]
        fn stream_is_invariant_under_trace_permutation() {
            let cfg = MobilityTrafficConfig { us_per_minute: 500, ..Default::default() };
            let mut reversed = traces();
            reversed.reverse();
            let a: Vec<Arrival> = MobilityTraffic::from_traces(&traces(), cfg).collect();
            let b: Vec<Arrival> = MobilityTraffic::from_traces(&reversed, cfg).collect();
            assert_eq!(a, b);
        }

        #[test]
        fn window_excludes_the_enrollment_prefix_and_rebases_time() {
            let start = 7 * MINUTES_PER_DAY as u64;
            let cfg = MobilityTrafficConfig {
                us_per_minute: 1_000,
                start_minute: start,
                end_minute: 10 * MINUTES_PER_DAY as u64,
            };
            let traffic = MobilityTraffic::from_traces(&traces(), cfg);
            assert!(!traffic.is_empty(), "tiny scale spans two weeks");
            for s in traffic.sessions() {
                assert!(s.absolute_entry() > start);
                assert!(s.absolute_entry() <= 10 * MINUTES_PER_DAY as u64);
            }
            let first = traffic.arrivals()[0].at_us;
            assert!(first < 2 * MINUTES_PER_DAY as u64 * 1_000, "rebased near zero");
        }

        #[test]
        fn a_user_with_no_second_week_sessions_emits_zero_arrivals() {
            // The live loop's bootstrap/serve split: a user who goes dark
            // after the enrollment week must contribute nothing to the
            // serving window — not panic, and not leak bootstrap-week
            // sessions into the stream.
            let week = 7 * MINUTES_PER_DAY as u64;
            let trace = &traces()[0];
            assert!(
                trace.sessions.iter().any(|s| s.absolute_entry() <= week),
                "the trace has a bootstrap week to (not) leak"
            );
            let first_week_only: Vec<Session> =
                trace.sessions.iter().copied().filter(|s| s.absolute_entry() <= week).collect();
            let cfg = MobilityTrafficConfig {
                us_per_minute: 1_000,
                start_minute: week,
                end_minute: u64::MAX,
            };
            let traffic = MobilityTraffic::from_sessions(first_week_only, cfg);
            assert!(traffic.is_empty(), "no second-week sessions -> no arrivals");
            assert_eq!(traffic.len(), 0);
            assert!(traffic.sessions().is_empty());
            assert_eq!(traffic.collect::<Vec<Arrival>>(), Vec::new(), "iteration just ends");
        }

        #[test]
        fn an_empty_window_produces_zero_arrivals() {
            // start == end is an empty window (start exclusive, end
            // inclusive): every session filters out regardless of trace.
            let cfg = MobilityTrafficConfig {
                us_per_minute: 1_000,
                start_minute: 5 * MINUTES_PER_DAY as u64,
                end_minute: 5 * MINUTES_PER_DAY as u64,
            };
            let traffic = MobilityTraffic::from_traces(&traces(), cfg);
            assert!(traffic.is_empty());
            assert!(traffic.arrivals().is_empty() && traffic.sessions().is_empty());

            // A window past the whole trace is equally silent, and an
            // empty fleet never panics either.
            let far = MobilityTrafficConfig {
                us_per_minute: 1_000,
                start_minute: 1_000 * MINUTES_PER_DAY as u64,
                end_minute: u64::MAX,
            };
            assert!(MobilityTraffic::from_traces(&traces(), far).is_empty());
            assert!(MobilityTraffic::from_traces(&[], MobilityTrafficConfig::default()).is_empty());
        }

        #[test]
        fn the_window_boundary_is_exclusive_start_inclusive_end() {
            let mk = |m: u64| Session {
                user: 0,
                building: 1,
                ap: 1,
                day: (m / MINUTES_PER_DAY as u64) as u32,
                entry_minutes: (m % MINUTES_PER_DAY as u64) as u32,
                duration_minutes: 10,
            };
            let cfg =
                MobilityTrafficConfig { us_per_minute: 1_000, start_minute: 100, end_minute: 200 };
            let traffic = MobilityTraffic::from_sessions([mk(100), mk(101), mk(200), mk(201)], cfg);
            let minutes: Vec<u64> = traffic.sessions().iter().map(|s| s.absolute_entry()).collect();
            assert_eq!(minutes, vec![101, 200], "start excluded, end included");
            assert_eq!(traffic.arrivals()[0].at_us, 1_000, "rebased against the start minute");
        }

        #[test]
        fn campus_nights_leave_diurnal_gaps() {
            // Sessions end at home by 23:00 and wake after 7:00: with a
            // real-time mapping, every day boundary shows an hours-long
            // arrival silence the Zipf generator never produces.
            let cfg = MobilityTrafficConfig { us_per_minute: 60_000_000, ..Default::default() };
            let traffic = MobilityTraffic::from_traces(&traces(), cfg);
            let max_gap =
                traffic.arrivals().windows(2).map(|p| p[1].at_us - p[0].at_us).max().unwrap();
            let four_hours = 4 * 60 * 60_000_000u64;
            assert!(max_gap >= four_hours, "expected an overnight silence, max gap {max_gap}");
        }
    }
}
