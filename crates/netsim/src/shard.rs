//! The shard-count record.
//!
//! The engine sweeps every phase of a world serially, in ascending
//! host id, on the caller's thread. [`ShardSpec`] is kept as an inert
//! record: configs, scenarios and daemon specs still accept, validate
//! and round-trip a shard count (old ledgers carry the `"shards"` key,
//! and benchmarks report the resolved value), but no value changes
//! what a run computes or starts a thread.

use serde::{Deserialize, Serialize};

/// A run's shard count: accepted, validated and reported, with no
/// effect on the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ShardSpec {
    /// No count requested; resolves to 1.
    #[default]
    Auto,
    /// This many shards (clamped to at least 1 on resolution).
    Fixed(u32),
}

impl ShardSpec {
    /// Resolves to a concrete shard count (≥ 1).
    pub fn resolve(self) -> u32 {
        match self {
            ShardSpec::Fixed(n) => n.max(1),
            ShardSpec::Auto => 1,
        }
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardSpec::Auto => f.write_str("auto"),
            ShardSpec::Fixed(n) => write!(f, "{n}"),
        }
    }
}

impl std::str::FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Ok(ShardSpec::Auto);
        }
        match s.parse::<u32>() {
            Ok(n) if n >= 1 => Ok(ShardSpec::Fixed(n)),
            _ => Err(format!("unknown shard count {s} (want auto|positive integer)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_clamps_and_defaults() {
        assert_eq!(ShardSpec::Fixed(0).resolve(), 1);
        assert_eq!(ShardSpec::Fixed(4).resolve(), 4);
        assert_eq!(ShardSpec::Auto.resolve(), 1);
    }

    #[test]
    fn parse_and_display_round_trip() {
        assert_eq!("auto".parse::<ShardSpec>().unwrap(), ShardSpec::Auto);
        assert_eq!("8".parse::<ShardSpec>().unwrap(), ShardSpec::Fixed(8));
        assert!("0".parse::<ShardSpec>().is_err());
        assert!("many".parse::<ShardSpec>().is_err());
        for s in [ShardSpec::Auto, ShardSpec::Fixed(3)] {
            assert_eq!(s.to_string().parse::<ShardSpec>().unwrap(), s);
        }
    }
}
