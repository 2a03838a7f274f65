//! The catalogue of `DYNAQUAR_*` environment overrides.
//!
//! Every knob the stack reads from the environment parses through one
//! shared helper — [`env_override`] from `dynaquar-parallel`, re-exported
//! here — so unset/empty/`auto` always defer silently and an
//! unrecognized value always falls back with exactly one process-wide
//! warning naming it. The variables:
//!
//! | Variable | Values | Consulted by |
//! |---|---|---|
//! | [`THREADS_ENV`] (`DYNAQUAR_THREADS`) | positive integer | `ParallelConfig::from_env` — ensemble worker-pool size (seed-level parallelism) |
//! | [`SHARDS_ENV`] (`DYNAQUAR_SHARDS`) | positive integer \| `auto` | `ShardSpec::Auto` resolution at simulator construction (intra-run sharding) |
//!
//! Both are *pure performance knobs*: the engine's determinism contract
//! guarantees bit-identical results for any thread count and shard
//! count, which is why CI can re-run the whole suite — fingerprints
//! included — under each combination.

pub use crate::shard::SHARDS_ENV;
pub use dynaquar_parallel::{env_override, EnvParse, THREADS_ENV};
