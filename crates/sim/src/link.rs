//! Link profiles, sharing disciplines and heterogeneous fleet link mixes.
//!
//! A [`LinkProfile`] is the static shape of one device↔cloud path
//! (propagation latency + bottleneck bandwidth); a [`LinkSpec`] adds the
//! queueing [`Discipline`] the simulator enforces when several transfers
//! contend for it. Fleets are heterogeneous: [`LinkMix`] assigns each
//! device a profile from a weighted wifi/WAN/cellular mix, seeded so the
//! assignment (including which devices are stragglers) is a pure function
//! of `(seed, device)`.

/// Splitmix64: a bijective avalanche mix, so nearby device ids receive
/// unrelated draws. This is the workspace's one copy of the
/// construction — `pelican_train::pool::user_seed` delegates here.
pub fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash word.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// [`LinkProfile::transfer_us`] over a bare `(latency, bandwidth)` pair:
/// the engine keeps those two numbers beside each link's queue state and
/// must price a transfer with this expression, not a copy of it.
pub(crate) fn transfer_us(latency_us: u64, bytes_per_sec: f64, bytes: u64) -> u64 {
    latency_us + (bytes as f64 / bytes_per_sec * 1e6).ceil() as u64
}

/// Static shape of one network path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Human-readable class for reports (`wifi`, `wan`, ...).
    pub name: &'static str,
    /// One-way propagation latency in microseconds.
    pub latency_us: u64,
    /// Bottleneck throughput in bytes per second.
    pub bytes_per_sec: f64,
}

impl LinkProfile {
    /// Campus WiFi: 8 ms, 100 Mbit/s.
    pub fn wifi() -> Self {
        Self { name: "wifi", latency_us: 8_000, bytes_per_sec: 100e6 / 8.0 }
    }

    /// Phone-to-cloud WAN: 40 ms, 25 Mbit/s.
    pub fn wan() -> Self {
        Self { name: "wan", latency_us: 40_000, bytes_per_sec: 25e6 / 8.0 }
    }

    /// Cellular uplink: 60 ms, 5 Mbit/s.
    pub fn cellular() -> Self {
        Self { name: "cellular", latency_us: 60_000, bytes_per_sec: 5e6 / 8.0 }
    }

    /// A serialized compute resource modeled as a link: zero propagation
    /// latency and exactly one byte per microsecond, so a FIFO transfer
    /// of `duration_us` bytes occupies the resource for exactly
    /// `duration_us` µs — and back-to-back occupants *queue* behind each
    /// other instead of overlapping, with the queue/service split
    /// falling out of the ordinary [`crate::StageReport`] accounting.
    /// This is how the serving tier models a registry shard's fused
    /// batch compute on the simulation's virtual clock.
    pub fn compute_resource(name: &'static str) -> Self {
        Self { name, latency_us: 0, bytes_per_sec: 1e6 }
    }

    /// Uncontended time to move `bytes` across this link, in microseconds
    /// (latency plus serialization) — the empty-link FIFO bound every
    /// discipline is compared against.
    pub fn transfer_us(&self, bytes: u64) -> u64 {
        transfer_us(self.latency_us, self.bytes_per_sec, bytes)
    }

    /// The same path degraded by a straggling device: bandwidth divided
    /// and latency multiplied by `factor`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor >= 1`.
    fn slowed(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "slowdown factor must be >= 1, got {factor}");
        Self {
            name: self.name,
            latency_us: (self.latency_us as f64 * factor).ceil() as u64,
            bytes_per_sec: self.bytes_per_sec / factor,
        }
    }
}

/// How concurrent transfers share a link's bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Store-and-forward: one transfer at a time at full bandwidth,
    /// arrival order.
    Fifo,
    /// Processor sharing: all in-flight transfers drain at
    /// `bandwidth / n`, the fluid limit of per-flow fair queueing.
    FairShare,
}

/// A link instance the simulator schedules transfers on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Latency/bandwidth shape.
    pub profile: LinkProfile,
    /// Bandwidth-sharing discipline under contention.
    pub discipline: Discipline,
}

impl LinkSpec {
    /// A FIFO link with the given profile.
    pub fn fifo(profile: LinkProfile) -> Self {
        Self { profile, discipline: Discipline::Fifo }
    }

    /// A fair-share link with the given profile.
    pub fn fair(profile: LinkProfile) -> Self {
        Self { profile, discipline: Discipline::FairShare }
    }
}

/// Straggler injection: a seeded fraction of devices get `slowdown`-times
/// worse links (bandwidth divided, latency multiplied).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerConfig {
    /// Fraction of devices degraded, in `[0, 1]`.
    pub fraction: f64,
    /// Degradation factor (`>= 1`; 1 disables).
    pub slowdown: f64,
}

impl StragglerConfig {
    /// No stragglers.
    pub fn none() -> Self {
        Self { fraction: 0.0, slowdown: 1.0 }
    }
}

impl Default for StragglerConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// One device's assigned path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceLink {
    /// The (possibly straggler-degraded) profile.
    pub profile: LinkProfile,
    /// Whether straggler injection degraded this device.
    pub straggler: bool,
}

/// A weighted wifi/WAN/cellular mix with optional straggler injection.
///
/// Assignment is a pure function of `(seed, device)`: the same fleet seed
/// always deals the same links, independent of iteration order or host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMix {
    /// Relative weight of WiFi devices.
    pub wifi: f64,
    /// Relative weight of WAN devices.
    pub wan: f64,
    /// Relative weight of cellular devices.
    pub cellular: f64,
    /// Straggler injection applied after the profile draw.
    pub straggler: StragglerConfig,
}

impl LinkMix {
    /// Every device on campus WiFi.
    pub fn all_wifi() -> Self {
        Self { wifi: 1.0, wan: 0.0, cellular: 0.0, straggler: StragglerConfig::none() }
    }

    /// A campus-shaped mix: mostly WiFi, some WAN, a cellular tail.
    pub fn campus() -> Self {
        Self { wifi: 0.6, wan: 0.25, cellular: 0.15, straggler: StragglerConfig::none() }
    }

    /// A commuter-shaped mix dominated by cellular links.
    pub fn cellular_heavy() -> Self {
        Self { wifi: 0.15, wan: 0.25, cellular: 0.6, straggler: StragglerConfig::none() }
    }

    /// Replaces the straggler configuration.
    pub fn with_stragglers(mut self, straggler: StragglerConfig) -> Self {
        self.straggler = straggler;
        self
    }

    /// Deals `device`'s link for fleet `seed`.
    ///
    /// # Panics
    ///
    /// Panics if all three weights are zero.
    pub fn assign(&self, seed: u64, device: u64) -> DeviceLink {
        let total = self.wifi + self.wan + self.cellular;
        assert!(total > 0.0, "link mix needs at least one positive weight");
        let h = mix64(seed ^ device.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let u = unit(h) * total;
        let profile = if u < self.wifi {
            LinkProfile::wifi()
        } else if u < self.wifi + self.wan {
            LinkProfile::wan()
        } else {
            LinkProfile::cellular()
        };
        let straggler =
            self.straggler.slowdown > 1.0 && unit(mix64(h ^ 0x5747_4741)) < self.straggler.fraction;
        let profile = if straggler { profile.slowed(self.straggler.slowdown) } else { profile };
        DeviceLink { profile, straggler }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes_and_profile() {
        let wifi = LinkProfile::wifi();
        assert!(wifi.transfer_us(10_000_000) > wifi.transfer_us(1_000));
        assert!(wifi.transfer_us(0) == wifi.latency_us);
        let bytes = 5_000_000;
        assert!(LinkProfile::wan().transfer_us(bytes) > wifi.transfer_us(bytes));
        assert!(LinkProfile::cellular().transfer_us(bytes) > LinkProfile::wan().transfer_us(bytes));
    }

    #[test]
    fn slowed_degrades_both_axes() {
        let slow = LinkProfile::wifi().slowed(4.0);
        assert_eq!(slow.latency_us, 32_000);
        assert!(slow.bytes_per_sec < LinkProfile::wifi().bytes_per_sec);
        assert!(slow.transfer_us(1_000_000) > LinkProfile::wifi().transfer_us(1_000_000));
    }

    #[test]
    fn assignment_is_a_pure_function_of_seed_and_device() {
        let mix =
            LinkMix::campus().with_stragglers(StragglerConfig { fraction: 0.2, slowdown: 8.0 });
        for device in 0..50u64 {
            assert_eq!(mix.assign(7, device), mix.assign(7, device));
        }
        let a: Vec<DeviceLink> = (0..50).map(|d| mix.assign(7, d)).collect();
        let b: Vec<DeviceLink> = (0..50).map(|d| mix.assign(8, d)).collect();
        assert_ne!(a, b, "different seeds deal different fleets");
    }

    #[test]
    fn mix_weights_shape_the_fleet() {
        let counts = |mix: LinkMix| {
            let mut wifi = 0;
            let mut cell = 0;
            for d in 0..400u64 {
                match mix.assign(3, d).profile.name {
                    "wifi" => wifi += 1,
                    "cellular" => cell += 1,
                    _ => {}
                }
            }
            (wifi, cell)
        };
        let (wifi, cell) = counts(LinkMix::campus());
        assert!(wifi > cell, "campus mix is wifi-dominated: {wifi} vs {cell}");
        let (wifi, cell) = counts(LinkMix::cellular_heavy());
        assert!(cell > wifi, "cellular-heavy mix flips it: {wifi} vs {cell}");
        assert_eq!(counts(LinkMix::all_wifi()), (400, 0));
    }

    #[test]
    fn stragglers_appear_at_roughly_the_configured_fraction() {
        let mix =
            LinkMix::all_wifi().with_stragglers(StragglerConfig { fraction: 0.25, slowdown: 10.0 });
        let stragglers = (0..1000u64).filter(|&d| mix.assign(11, d).straggler).count();
        assert!((150..350).contains(&stragglers), "got {stragglers} stragglers in 1000");
        let none = LinkMix::all_wifi();
        assert!((0..1000u64).all(|d| !none.assign(11, d).straggler));
    }
}
