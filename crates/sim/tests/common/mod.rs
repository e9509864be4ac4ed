//! The tracked fleet shape (`repro sim-scale`, the benchmark's
//! `sim_fleet`), shared by the integration tests that run it.

use pelican_sim::{JobSpec, LinkMix, LinkProfile, LinkSpec, Stage, TransferPolicy};

/// Devices per shared fair-share uplink.
pub const GROUP: usize = 64;

/// A fleet of `devices` endpoints: each device owns a FIFO last-hop
/// link and shares a fair-share uplink with its group. Every device
/// runs one download → train → upload job: ten trace events.
pub fn fleet(devices: usize) -> (Vec<LinkSpec>, Vec<JobSpec>) {
    let groups = devices.div_ceil(GROUP);
    let mix = LinkMix::campus();
    let mut links: Vec<LinkSpec> =
        (0..devices).map(|d| LinkSpec::fifo(mix.assign(0xF1EE7, d as u64).profile)).collect();
    links.extend((0..groups).map(|_| LinkSpec::fair(LinkProfile::wan())));
    let specs = (0..devices)
        .map(|d| {
            let uplink = devices + d / GROUP;
            JobSpec {
                id: d as u64,
                release_us: (d as u64 % 997) * 250,
                stages: vec![
                    Stage::Transfer {
                        label: "download",
                        link: uplink,
                        bytes: 120_000,
                        policy: TransferPolicy::default(),
                    },
                    Stage::Compute { label: "train", duration_us: 4_000 + (d as u64 % 37) * 300 },
                    Stage::Transfer {
                        label: "upload",
                        link: d,
                        bytes: 40_000 + (d as u64 % 11) * 2_000,
                        policy: TransferPolicy::default(),
                    },
                ],
            }
        })
        .collect();
    (links, specs)
}
