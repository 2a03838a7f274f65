//! Order-independent random streams.
//!
//! The engine visits only active hosts each tick (the sorted infected
//! set, the unpatched index), so which hosts a phase touches changes
//! from tick to tick. A single shared RNG stream would bake that
//! enumeration into every value it hands out: one host skipped, or one
//! extra host infected, would shift every later host's draws. The
//! engine therefore derives all per-host randomness from the run seed
//! through the mixers in this module:
//!
//! * **Scan streams**: each host gets a private `SmallRng` seeded from
//!   [`host_stream_seed`] the moment it becomes infected. Every target
//!   and β draw the host ever makes comes from that stream, so its draw
//!   sequence is a pure function of `(seed, host)` — independent of
//!   the fates of other hosts and of which of them a phase skips.
//! * **Immunization draws**: one *stateless* hash Bernoulli per
//!   `(seed, tick, host)` via [`immunization_u01`]. No stream to
//!   advance means no ordering constraint at all: the sweep can walk
//!   only the unpatched hosts and still give each one the verdict a
//!   full sweep would.
//!
//! The engine fingerprints (`tests/engine_fingerprints.rs`) are pinned
//! on these streams, so changing a mixer or a salt re-pins them.
//!
//! The shared `Simulator::rng` stream survives only where ordering is
//! inherently serial: seeding the initial infections at construction
//! and injecting background flows. Fault draws stay on their own
//! `fault_rng` stream, untouched.
//!
//! All mixing is SplitMix64 — the same finalizer `SmallRng::seed_from_u64`
//! uses for state expansion, well past the statistical quality needed
//! for ε-scale Bernoulli thresholds.

/// Domain-separation salt for per-host scan streams (distinct from
/// `FAULT_STREAM_SALT`; arbitrary odd constant).
const SCAN_STREAM_SALT: u64 = 0x5EED_5CAB_5CAB_0001;

/// Domain-separation salt for the stateless immunization Bernoullis.
const IMMUNIZE_STREAM_SALT: u64 = 0x1AB5_0F11_D0C7_0002;

/// SplitMix64 finalizer: a bijective avalanche over `u64`.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of host `host`'s private scan stream under run seed `seed`.
///
/// Two mixing rounds decorrelate adjacent hosts and adjacent run seeds
/// before `SmallRng::seed_from_u64` expands the result into xoshiro
/// state (a third round of SplitMix64, inside the vendored crate).
#[inline]
pub(crate) fn host_stream_seed(seed: u64, host: u32) -> u64 {
    splitmix64(splitmix64(seed ^ SCAN_STREAM_SALT) ^ u64::from(host))
}

/// The immunization sweep's uniform draw for `(seed, tick, host)`, in
/// `[0, 1)` — compare `< µ` exactly like `Rng::gen_bool` does (same
/// 53-bit mantissa construction), so the sweep's acceptance rule is
/// unchanged.
#[inline]
pub(crate) fn immunization_u01(seed: u64, tick: u64, host: u32) -> f64 {
    let mixed = splitmix64(splitmix64(seed ^ IMMUNIZE_STREAM_SALT ^ tick) ^ u64::from(host));
    (mixed >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_streams_are_distinct_and_stable() {
        // Pure function of (seed, host)…
        assert_eq!(host_stream_seed(42, 7), host_stream_seed(42, 7));
        // …and collision-free over a dense host range for a few seeds.
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut seen = std::collections::BTreeSet::new();
            for host in 0..10_000u32 {
                assert!(
                    seen.insert(host_stream_seed(seed, host)),
                    "stream seed collision at seed {seed}, host {host}"
                );
            }
        }
    }

    #[test]
    fn immunization_u01_is_in_unit_interval_and_roughly_uniform() {
        let mut sum = 0.0;
        let mut below_tenth = 0usize;
        let n = 100_000u32;
        for host in 0..n {
            let u = immunization_u01(1234, 17, host);
            assert!((0.0..1.0).contains(&u));
            sum += u;
            if u < 0.1 {
                below_tenth += 1;
            }
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
        let frac = below_tenth as f64 / f64::from(n);
        assert!((frac - 0.1).abs() < 0.01, "P(u < 0.1) ≈ {frac}");
    }

    #[test]
    fn immunization_draws_decorrelate_across_ticks_and_hosts() {
        // Adjacent (tick, host) pairs must not produce near-identical
        // draws — a weak mixer here would correlate patch waves.
        let a = immunization_u01(9, 100, 5);
        let b = immunization_u01(9, 101, 5);
        let c = immunization_u01(9, 100, 6);
        let d = immunization_u01(10, 100, 5);
        for (x, y) in [(a, b), (a, c), (a, d), (b, c)] {
            assert!((x - y).abs() > 1e-9, "suspicious correlation: {x} vs {y}");
        }
    }
}
