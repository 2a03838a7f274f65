//! Deterministic parallel execution for ensemble workloads.
//!
//! The reproduction's results are averages over many independent seeded
//! runs ("each simulation is averaged over 10 individual runs", Section
//! 5.4) — embarrassingly parallel work whose *outputs must not depend on
//! how it was scheduled*. This crate provides the one primitive every
//! sweep driver shares: an **order-preserving parallel map** over a
//! scoped [`std::thread`] worker pool.
//!
//! Determinism contract: as long as the mapped closure is a pure
//! function of `(index, item)` — which per-seed RNG-stream derivation
//! guarantees for simulation runs — [`ordered_map`] returns bit-identical
//! output for **any** thread count, including 1. Workers race only for
//! *which* item to claim next (an atomic cursor); every result is written
//! back into its input slot, so scheduling order can never leak into the
//! output order.
//!
//! ```
//! use dynaquar_parallel::{ordered_map, ParallelConfig};
//!
//! let squares = ordered_map(&ParallelConfig::new(4), (0u64..100).collect(), |_, x| x * x);
//! assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod env;
pub mod pool;

pub use env::{env_override, EnvParse};
pub use pool::JobPool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count
/// (`ParallelConfig::from_env`). `1` forces the serial path; unset or
/// empty falls back to the machine's available parallelism. Any other
/// unparsable value also falls back, but emits a one-shot warning
/// naming the bad value — a typo must not silently change the pool
/// size.
pub const THREADS_ENV: &str = "DYNAQUAR_THREADS";

/// Worker-pool sizing for the deterministic parallel map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
}

impl ParallelConfig {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
        }
    }

    /// The serial path: one worker, no pool threads spawned.
    pub fn serial() -> Self {
        ParallelConfig::new(1)
    }

    /// One worker per hardware thread the OS reports.
    pub fn available() -> Self {
        ParallelConfig::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Pool sized from the [`THREADS_ENV`] environment variable, falling
    /// back to [`ParallelConfig::available`]. This is what every
    /// `run_averaged`-style entry point uses when the caller does not
    /// pass an explicit config, so a CI matrix over `DYNAQUAR_THREADS`
    /// exercises serial/parallel bit-identity end to end.
    pub fn from_env() -> Self {
        env_override(
            THREADS_ENV,
            "a positive integer worker count \
             (falling back to available parallelism)",
            |v| match v.parse::<usize>() {
                Ok(n) if n >= 1 => EnvParse::Value(ParallelConfig::new(n)),
                _ => EnvParse::Invalid,
            },
        )
        .unwrap_or_else(ParallelConfig::available)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ParallelConfig {
    /// Defaults to [`ParallelConfig::from_env`].
    fn default() -> Self {
        ParallelConfig::from_env()
    }
}

/// Wall-clock provenance for one mapped item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemTiming {
    /// Input index of the item.
    pub index: usize,
    /// Pool worker (0-based) that executed it.
    pub worker: usize,
    /// Wall-clock time the closure spent on it.
    pub wall: Duration,
}

/// Utilization accounting for one pool worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker id, `0..threads`.
    pub worker: usize,
    /// Items this worker executed.
    pub items: usize,
    /// Total wall-clock time spent inside the closure.
    pub busy: Duration,
}

/// What a full [`ordered_map_report`] call observed: per-item timings
/// (in input order), per-worker utilization, and the end-to-end wall
/// clock of the map itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapReport {
    /// Per-item provenance, sorted by input index.
    pub timings: Vec<ItemTiming>,
    /// Per-worker accounting, sorted by worker id. Only workers that
    /// were actually spawned appear (never more than the item count).
    pub workers: Vec<WorkerStats>,
    /// Wall clock of the whole map, fan-out to last join.
    pub wall: Duration,
}

impl MapReport {
    /// Fraction of the map's wall clock each worker spent busy, by
    /// worker id — ~1.0 everywhere means the pool was saturated.
    pub fn utilization(&self) -> Vec<f64> {
        let total = self.wall.as_secs_f64();
        self.workers
            .iter()
            .map(|w| {
                if total > 0.0 {
                    (w.busy.as_secs_f64() / total).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Mean of [`MapReport::utilization`] (0.0 for an empty pool).
    pub fn mean_utilization(&self) -> f64 {
        let u = self.utilization();
        if u.is_empty() {
            0.0
        } else {
            u.iter().sum::<f64>() / u.len() as f64
        }
    }
}

/// Maps `f` over `items` on a scoped worker pool, returning results in
/// **input order** regardless of thread count or scheduling.
///
/// `f` receives `(index, item)` and must be `Sync`; for a deterministic
/// result it must be a pure function of its arguments. A panic inside
/// `f` is propagated to the caller after the pool unwinds (callers that
/// need panics contained — like the netsim run supervisor — catch them
/// inside `f`).
pub fn ordered_map<T, R, F>(config: &ParallelConfig, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    ordered_map_report(config, items, f).0
}

/// Like [`ordered_map`], additionally returning the [`MapReport`]
/// provenance (per-item wall clock, per-worker utilization).
pub fn ordered_map_report<T, R, F>(
    config: &ParallelConfig,
    items: Vec<T>,
    f: F,
) -> (Vec<R>, MapReport)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = config.threads().min(n).max(1);
    let started = Instant::now();

    if workers <= 1 {
        // Serial fast path: no pool threads, same write-back discipline.
        let mut results = Vec::with_capacity(n);
        let mut timings = Vec::with_capacity(n);
        let mut busy = Duration::ZERO;
        for (index, item) in items.into_iter().enumerate() {
            let t0 = Instant::now();
            results.push(f(index, item));
            let wall = t0.elapsed();
            busy += wall;
            timings.push(ItemTiming {
                index,
                worker: 0,
                wall,
            });
        }
        let report = MapReport {
            timings,
            workers: vec![WorkerStats {
                worker: 0,
                items: n,
                busy,
            }],
            wall: started.elapsed(),
        };
        return (results, report);
    }

    // Each input sits in its own slot; workers claim the next index off
    // an atomic cursor, take the item, and write the result back into
    // the matching output slot. Output order therefore equals input
    // order by construction.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let out: Vec<Mutex<Option<(R, ItemTiming)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let slots = &slots;
    let out = &out;
    let cursor = &cursor;

    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                scope.spawn(move || {
                    let mut items_done = 0usize;
                    let mut busy = Duration::ZERO;
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let item = slots[index]
                            .lock()
                            .expect("item slot poisoned")
                            .take()
                            .expect("item claimed twice");
                        let t0 = Instant::now();
                        let result = f(index, item);
                        let wall = t0.elapsed();
                        busy += wall;
                        items_done += 1;
                        *out[index].lock().expect("result slot poisoned") = Some((
                            result,
                            ItemTiming {
                                index,
                                worker,
                                wall,
                            },
                        ));
                    }
                    WorkerStats {
                        worker,
                        items: items_done,
                        busy,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(stats) => stats,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut results = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for slot in out {
        let (r, t) = slot
            .lock()
            .expect("result slot poisoned")
            .take()
            .expect("every slot filled before the pool joins");
        results.push(r);
        timings.push(t);
    }
    let report = MapReport {
        timings,
        workers: stats,
        wall: started.elapsed(),
    };
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn config_clamps_to_one() {
        assert_eq!(ParallelConfig::new(0).threads(), 1);
        assert_eq!(ParallelConfig::serial().threads(), 1);
        assert!(ParallelConfig::available().threads() >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (out, report) = ordered_map_report(&ParallelConfig::new(4), Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
        assert!(report.timings.is_empty());
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].items, 0);
    }

    #[test]
    fn results_are_in_input_order_for_any_thread_count() {
        let input: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = input.iter().map(|&x| x.wrapping_mul(x) ^ 0xABCD).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ordered_map(&ParallelConfig::new(threads), input.clone(), |_, x| {
                x.wrapping_mul(x) ^ 0xABCD
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn index_argument_matches_input_position() {
        let got = ordered_map(&ParallelConfig::new(4), vec!["a", "b", "c", "d"], |i, s| {
            format!("{i}:{s}")
        });
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn report_covers_every_item_exactly_once() {
        let (_, report) =
            ordered_map_report(&ParallelConfig::new(3), (0..50u64).collect(), |_, x| x + 1);
        assert_eq!(report.timings.len(), 50);
        for (i, t) in report.timings.iter().enumerate() {
            assert_eq!(t.index, i);
            assert!(t.worker < 3);
        }
        let per_worker: usize = report.workers.iter().map(|w| w.items).sum();
        assert_eq!(per_worker, 50);
        assert!(report.workers.len() <= 3);
        assert!(report.mean_utilization() >= 0.0 && report.mean_utilization() <= 1.0);
    }

    #[test]
    fn pool_never_spawns_more_workers_than_items() {
        let (_, report) = ordered_map_report(&ParallelConfig::new(16), vec![1, 2, 3], |_, x| x);
        assert!(report.workers.len() <= 3);
    }

    #[test]
    fn panic_in_closure_propagates() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ordered_map(&ParallelConfig::new(2), vec![0, 1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("injected");
                }
                x
            })
        }));
        assert!(caught.is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Bit-identical output for 1, 2, and 8 workers over arbitrary
        /// inputs — the determinism contract the netsim runner builds on.
        #[test]
        fn ordered_map_is_schedule_independent(
            items in prop::collection::vec(0u64..u64::MAX, 0..120),
        ) {
            let f = |i: usize, x: u64| {
                let mut z = x ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^ (z >> 31)
            };
            let serial = ordered_map(&ParallelConfig::new(1), items.clone(), f);
            let two = ordered_map(&ParallelConfig::new(2), items.clone(), f);
            let eight = ordered_map(&ParallelConfig::new(8), items, f);
            prop_assert_eq!(&serial, &two);
            prop_assert_eq!(&serial, &eight);
        }
    }
}
