//! Benchmark harness regenerating every table and figure of the Pelican
//! paper's evaluation (§IV and §V-C).
//!
//! Each experiment is a library function returning a structured result plus
//! a formatted report, driven by the `repro` binary:
//!
//! ```text
//! repro <experiment> [--scale tiny|small|paper] [--seed N] [--users N]
//!       [--instances N] [--devices N]
//! repro --list    every experiment with its description
//! repro all       the paper's figures and tables, in paper order
//! ```
//!
//! The experiments are the rows of [`experiments`]' registry: the paper's
//! `fig2a`–`fig5c`, `table2`–`table4` and `overhead`, the `ablate-*`
//! sweeps, and the fleet reports beyond the paper (`serve-report`,
//! `train-report`, `net-report`, `cosim-report`, `sim-scale`,
//! `store-report`, `live-report`, `ab-report`). `--devices` sets the
//! population of the fleet-scale ones.
//!
//! Scales trade fidelity for runtime; the *shape* of every result (who
//! wins, by what factor, where crossovers fall) is preserved at `small`,
//! which is the default. `paper` matches the paper's population sizes and
//! takes correspondingly long on a laptop.

pub mod experiments;
/// The repo benchmark's host stamp, shared so both stamp records alike.
#[path = "../../../benchmark/src/host.rs"]
pub mod host;
/// The repo benchmark's JSON value, shared so both print records alike.
#[path = "../../../benchmark/src/json.rs"]
pub mod json;
pub mod report;

use pelican_mobility::Scale;

/// Common knobs shared by every experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Problem-size preset.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Cap on personalization users (None = scale default).
    pub users: Option<usize>,
    /// Attack instances sampled per user.
    pub instances_per_user: usize,
    /// Device population override for fleet-scale experiments
    /// (None = the experiment's default population ladder).
    pub devices: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { scale: Scale::Small, seed: 42, users: None, instances_per_user: 8, devices: None }
    }
}

impl RunConfig {
    /// Personalization-user cap appropriate for this scale: enough users
    /// for stable aggregates without hour-long runs.
    pub fn personal_users(&self) -> usize {
        self.users.unwrap_or(match self.scale {
            Scale::Tiny => 4,
            Scale::Small => 12,
            Scale::Paper => 100,
        })
    }

    /// Instance cap for the brutally expensive brute-force enumeration.
    pub fn brute_instances(&self) -> usize {
        match self.scale {
            Scale::Tiny => 2,
            Scale::Small => 2,
            Scale::Paper => 4,
        }
    }
}

/// Parses `repro`-style CLI arguments (everything after the experiment
/// name). Unknown flags produce an error message listing valid options.
pub fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut config = RunConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--scale" => {
                let v = take("--scale")?;
                config.scale = Scale::parse(v)
                    .ok_or_else(|| format!("unknown scale '{v}' (tiny|small|paper)"))?;
            }
            "--seed" => {
                let v = take("--seed")?;
                config.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
            }
            "--users" => {
                let v = take("--users")?;
                config.users = Some(v.parse().map_err(|_| format!("bad user count '{v}'"))?);
            }
            "--instances" => {
                let v = take("--instances")?;
                config.instances_per_user =
                    v.parse().map_err(|_| format!("bad instance count '{v}'"))?;
            }
            "--devices" => {
                let v = take("--devices")?;
                let n: usize = v.parse().map_err(|_| format!("bad device count '{v}'"))?;
                if n == 0 {
                    return Err("--devices must be positive".to_string());
                }
                config.devices = Some(n);
            }
            other => {
                return Err(format!(
                    "unknown flag '{other}' (valid: --scale --seed --users --instances --devices)"
                ))
            }
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let c = parse_args(&[]).unwrap();
        assert_eq!(c.scale, Scale::Small);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn parse_all_flags() {
        let c =
            parse_args(&s(&["--scale", "tiny", "--seed", "7", "--users", "3", "--instances", "5"]))
                .unwrap();
        assert_eq!(c.scale, Scale::Tiny);
        assert_eq!(c.seed, 7);
        assert_eq!(c.users, Some(3));
        assert_eq!(c.instances_per_user, 5);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(parse_args(&s(&["--bogus"])).is_err());
        assert!(parse_args(&s(&["--scale", "huge"])).is_err());
        assert!(parse_args(&s(&["--seed"])).is_err());
    }

    #[test]
    fn parse_devices() {
        let c = parse_args(&s(&["--devices", "10000"])).unwrap();
        assert_eq!(c.devices, Some(10_000));
        assert!(parse_args(&s(&["--devices", "0"])).is_err());
        assert!(parse_args(&s(&["--devices", "lots"])).is_err());
    }
}
