//! The catalogue of `DYNAQUAR_*` environment overrides.
//!
//! Every knob the stack reads from the environment parses through one
//! shared helper — [`env_override`] from `dynaquar-parallel`, re-exported
//! here — so unset or empty values defer silently and an unrecognized
//! value always falls back with exactly one process-wide warning naming
//! it. The variables:
//!
//! | Variable | Values | Consulted by |
//! |---|---|---|
//! | [`THREADS_ENV`] (`DYNAQUAR_THREADS`) | positive integer | `ParallelConfig::from_env` — ensemble worker-pool size (seed-level parallelism) |
//!
//! It is a *pure performance knob*: the engine's determinism contract
//! guarantees bit-identical results for any thread count, which is why
//! CI can re-run the whole suite — fingerprints included — under each
//! value.

pub use dynaquar_parallel::{env_override, EnvParse, THREADS_ENV};
