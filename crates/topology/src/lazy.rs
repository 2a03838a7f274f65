//! Memory-bounded lazy routing: per-destination BFS behind a bounded,
//! sharded LRU cache.
//!
//! An all-pairs table costs `~4·n²` bytes — ~400 MB at 10k nodes and
//! ~40 GB at 100k — so the [`HierRouting`](crate::hier::HierRouting)
//! table cannot even be *constructed* for a large graph that does not
//! peel to a small core. [`LazyRouting`] stores nothing up
//! front: the first query toward a destination runs one BFS rooted at
//! that destination (`O(n + m)`, `8·n` bytes) and caches its packed
//! arc/distance row; a bounded LRU evicts the coldest destination when
//! full, recycling its buffer into the next computation so
//! steady-state routing allocates nothing.
//!
//! The cache is split into [`SHARD_COUNT`] independently locked shards
//! (keyed by destination id) once the capacity reaches
//! [`SHARD_THRESHOLD`], so concurrent ensemble runs sharing one backend
//! stop serializing on a single global mutex; tiny caches stay on one
//! shard so their LRU behaves exactly like the original global one.
//! [`CacheStats`] are kept per shard and summed on read — each
//! counter bump happens under its shard's lock, so concurrent lookups
//! can never under-count.
//!
//! **Equivalence contract:** the per-destination BFS is the shared
//! kernel ([`crate::routing`]'s `bfs_fill_row`) every backend runs —
//! same root, same [`Csr`] adjacency order, same first-discovery parent
//! assignment — so for every ordered pair all backends return identical
//! `next_hop` and `distance` (including `None` on disconnected pairs).
//! `tests/routing_oracle.rs` proves this property over random star /
//! Barabási–Albert / Waxman / GLP / hierarchical / disconnected graphs,
//! and the netsim fingerprint suite pins full-simulation bit-identity.

use crate::error::Error;
use crate::graph::{Csr, Graph, NodeId};
use crate::hier::HierRouting;
use crate::routing::{bfs_fill_row, decode_link, Link, PackedCell, RoutingBackend};
use dynaquar_parallel::ParallelConfig;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Which routing backend a world should use.
///
/// `Auto` peels the graph once and builds the two-level
/// [`HierRouting`] table whenever the peeled core has at most
/// [`DENSE_AUTO_LIMIT`] nodes — every paper-scale world, and the
/// paper's subnet worlds at any size, whose cores collapse to their
/// backbone. A larger core (e.g. a flat power-law graph of minimum
/// degree 2 above the limit, which does not peel at all) gets the lazy
/// LRU backend with a capacity sized by [`default_cache_capacity`], so
/// world construction never forces an `O(n²)` table. Both backends are
/// bit-identical, so the choice is pure performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingKind {
    /// Hier when the peeled core has at most [`DENSE_AUTO_LIMIT`]
    /// nodes, lazy otherwise.
    Auto,
    /// Always use the lazy backend with this many cached destinations
    /// (clamped to at least 1).
    Lazy {
        /// Maximum number of destinations whose BFS arrays stay cached.
        max_cached_destinations: usize,
    },
    /// Always use the two-level hierarchical backend (a dense core
    /// table plus pendant-tree parent arrays). On graphs with nothing
    /// to peel its core is the whole graph.
    Hier,
}

/// Largest peeled core [`RoutingKind::Auto`] builds the hier backend's
/// all-pairs core table over (~64 MB of compact cells at the limit).
pub const DENSE_AUTO_LIMIT: usize = 4096;

/// Memory budget [`RoutingKind::Auto`] grants the lazy cache.
pub const AUTO_CACHE_BUDGET_BYTES: usize = 256 << 20;

/// The LRU capacity [`RoutingKind::Auto`] uses for an `n`-node graph:
/// as many destinations as fit [`AUTO_CACHE_BUDGET_BYTES`] (each costs
/// `8·n` bytes), at least 8, at most `n`.
pub fn default_cache_capacity(n: usize) -> usize {
    let per_destination = 8 * n.max(1) + 64;
    (AUTO_CACHE_BUDGET_BYTES / per_destination).clamp(8, n.max(8))
}

impl RoutingKind {
    /// Builds the backend for `graph`.
    ///
    /// `Auto` decides from the same peel the hier backend is built
    /// from ([`HierRouting::with_core_limit`], `O(n + m)`), so a world
    /// is peeled once, and its CSR snapshot built once, whichever
    /// backend it gets.
    pub fn build(self, graph: &Graph) -> Box<dyn RoutingBackend> {
        match self {
            RoutingKind::Auto => {
                let pool = ParallelConfig::from_env();
                let csr = Csr::from_graph(graph);
                match HierRouting::from_csr_within(csr, DENSE_AUTO_LIMIT, &pool) {
                    Ok(hier) => Box::new(hier),
                    Err(csr) => Box::new(LazyRouting::from_csr(
                        csr,
                        default_cache_capacity(graph.node_count()),
                    )),
                }
            }
            RoutingKind::Lazy {
                max_cached_destinations,
            } => Box::new(LazyRouting::new(graph, max_cached_destinations)),
            RoutingKind::Hier => Box::new(HierRouting::new(graph)),
        }
    }
}

/// Capacity at and above which the cache splits into [`SHARD_COUNT`]
/// shards. Below it a single shard preserves the original global-LRU
/// eviction order exactly (a capacity-2 cache split 8 ways would hold
/// nothing).
pub const SHARD_THRESHOLD: usize = 64;

/// Number of independently locked cache shards at or above
/// [`SHARD_THRESHOLD`]. Fixed (not sized from the host's parallelism)
/// so eviction behaviour is machine-independent.
pub const SHARD_COUNT: usize = 8;

/// One destination's cached BFS row: packed `(arc, distance)` cells
/// indexed by source (see [`PackedCell`]).
struct Slot {
    cells: Vec<u64>,
    last_used: u64,
}

/// Cache hit/miss/eviction counters, for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries served from a cached destination.
    pub hits: u64,
    /// Queries that had to run a BFS.
    pub misses: u64,
    /// Cached destinations discarded to make room.
    pub evictions: u64,
}

struct DestCache {
    map: HashMap<u32, Slot>,
    clock: u64,
    stats: CacheStats,
    /// Recycled rows from evicted slots: steady-state misses reuse
    /// them instead of allocating 8·n fresh bytes.
    spare: Vec<Vec<u64>>,
    /// Reusable BFS frontier buffers.
    cur: Vec<u32>,
    next: Vec<u32>,
}

impl DestCache {
    fn empty() -> Self {
        DestCache {
            map: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            spare: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
        }
    }
}

/// One lock's worth of the cache, owning a slice of the total capacity.
struct Shard {
    capacity: usize,
    cache: Mutex<DestCache>,
}

/// Memory-bounded shortest-path routing: lazily computed per-destination
/// BFS rows behind a bounded, sharded LRU.
///
/// # Example
///
/// ```
/// use dynaquar_topology::generators;
/// use dynaquar_topology::lazy::LazyRouting;
/// use dynaquar_topology::routing::{RoutingBackend, RoutingTable};
///
/// let star = generators::star(4).expect("valid");
/// let lazy = LazyRouting::new(&star.graph, 2);
/// let oracle = RoutingTable::shortest_paths_serial(&star.graph);
/// assert_eq!(
///     lazy.next_hop(1.into(), 2.into()),
///     oracle.next_hop(1.into(), 2.into()),
/// );
/// ```
pub struct LazyRouting {
    n: usize,
    /// CSR snapshot of the adjacency lists (`O(n + m)`), so the backend
    /// is self-contained.
    csr: Csr,
    capacity: usize,
    shards: Vec<Shard>,
}

impl std::fmt::Debug for LazyRouting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyRouting")
            .field("nodes", &self.n)
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("cached", &self.cached_destinations())
            .field("stats", &self.cache_stats())
            .finish()
    }
}

impl LazyRouting {
    /// Creates the backend over `graph` with room for `capacity` cached
    /// destinations in total (clamped to at least 1), spread over the
    /// shards.
    pub fn new(graph: &Graph, capacity: usize) -> Self {
        Self::from_csr(Csr::from_graph(graph), capacity)
    }

    /// [`LazyRouting::new`] over the graph's CSR snapshot.
    fn from_csr(csr: Csr, capacity: usize) -> Self {
        let n = csr.node_count();
        let capacity = capacity.max(1);
        let shard_count = if capacity >= SHARD_THRESHOLD {
            SHARD_COUNT
        } else {
            1
        };
        // Distribute the capacity; the remainder goes to the first
        // shards so the per-shard split is deterministic.
        let base = capacity / shard_count;
        let extra = capacity % shard_count;
        let shards = (0..shard_count)
            .map(|i| Shard {
                capacity: base + usize::from(i < extra),
                cache: Mutex::new(DestCache::empty()),
            })
            .collect();
        LazyRouting {
            n,
            csr,
            capacity,
            shards,
        }
    }

    /// The configured LRU capacity, in destinations (summed over
    /// shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independently locked cache shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Upper bound on the bytes the cache can pin (`capacity · 8·n`).
    pub fn memory_bound_bytes(&self) -> usize {
        self.capacity * 8 * self.n
    }

    /// Snapshot of the hit/miss/eviction counters, summed across
    /// shards.
    ///
    /// Each shard's counters only mutate under that shard's lock, so
    /// the sum never under-counts; it may lag an in-flight lookup on
    /// another shard, which is inherent to any sharded snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let cache = shard.cache.lock().unwrap_or_else(PoisonError::into_inner);
            total.hits += cache.stats.hits;
            total.misses += cache.stats.misses;
            total.evictions += cache.stats.evictions;
        }
        total
    }

    /// Destinations currently cached, summed across shards.
    pub fn cached_destinations(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }

    fn check_nodes(&self, src: NodeId, dst: NodeId) -> Result<(), Error> {
        for node in [src, dst] {
            if node.index() >= self.n {
                return Err(Error::NodeOutOfRange {
                    node,
                    node_count: self.n,
                });
            }
        }
        Ok(())
    }

    /// Runs `f` against the packed BFS row rooted at `dst`, computing
    /// and caching it in `dst`'s shard if absent.
    fn with_routes<R>(&self, dst: NodeId, f: impl FnOnce(&[u64]) -> R) -> R {
        let key = dst.index() as u32;
        let shard = &self.shards[dst.index() % self.shards.len()];
        // Poison recovery is sound here: every cache mutation (counter
        // bump, map insert, LRU eviction) completes before control
        // leaves this module, so a panic in a caller-supplied closure on
        // another thread can only poison the lock *between* individually
        // consistent states — never mid-update.
        let mut cache = shard.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = &mut *cache;
        cache.clock += 1;
        let stamp = cache.clock;
        if let Some(slot) = cache.map.get_mut(&key) {
            slot.last_used = stamp;
            cache.stats.hits += 1;
            return f(&slot.cells);
        }
        cache.stats.misses += 1;
        if cache.map.len() >= shard.capacity {
            // Evict the least-recently-used destination; the scan is
            // O(shard capacity), dwarfed by the O(n + m) BFS that
            // follows.
            let coldest = cache
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(&k, _)| k)
                .expect("cache is non-empty at capacity");
            let slot = cache.map.remove(&coldest).expect("key just found");
            cache.stats.evictions += 1;
            cache.spare.push(slot.cells);
        }
        let mut cells = cache
            .spare
            .pop()
            .unwrap_or_else(|| vec![u64::UNREACHED; self.n]);
        bfs_fill_row(
            &self.csr,
            key,
            &mut cells,
            &mut cache.cur,
            &mut cache.next,
        );
        let result = f(&cells);
        cache.map.insert(
            key,
            Slot {
                cells,
                last_used: stamp,
            },
        );
        result
    }
}

impl RoutingBackend for LazyRouting {
    fn node_count(&self) -> usize {
        self.n
    }

    fn try_next_link(&self, src: NodeId, dst: NodeId) -> Result<Option<Link>, Error> {
        self.check_nodes(src, dst)?;
        if src == dst {
            return Ok(None);
        }
        Ok(self.with_routes(dst, |cells| decode_link(&self.csr, cells[src.index()])))
    }

    fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error> {
        self.check_nodes(src, dst)?;
        let d = self.with_routes(dst, |cells| cells[src.index()].dist());
        Ok((d != u32::MAX).then_some(d))
    }

    fn backend_name(&self) -> &'static str {
        "lazy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::routing::RoutingTable;

    fn assert_pairwise_identical(g: &Graph, capacity: usize) {
        let oracle = RoutingTable::shortest_paths_serial(g);
        let lazy = LazyRouting::new(g, capacity);
        let n = g.node_count();
        for src in 0..n {
            for dst in 0..n {
                let (s, d) = (NodeId::from(src), NodeId::from(dst));
                assert_eq!(
                    RoutingBackend::next_hop(&lazy, s, d),
                    oracle.next_hop(s, d),
                    "next_hop({s}, {d})"
                );
                assert_eq!(
                    RoutingBackend::distance(&lazy, s, d),
                    oracle.distance(s, d),
                    "distance({s}, {d})"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_star_even_with_tiny_cache() {
        let star = generators::star(12).unwrap();
        assert_pairwise_identical(&star.graph, 1);
    }

    #[test]
    fn matches_oracle_on_power_law() {
        let g = generators::barabasi_albert(80, 2, 5).unwrap();
        assert_pairwise_identical(&g, 7);
    }

    #[test]
    fn matches_oracle_when_sharded() {
        let g = generators::barabasi_albert(90, 2, 13).unwrap();
        let lazy = LazyRouting::new(&g, SHARD_THRESHOLD);
        assert_eq!(lazy.shard_count(), SHARD_COUNT);
        assert_pairwise_identical(&g, SHARD_THRESHOLD);
    }

    #[test]
    fn matches_oracle_on_disconnected_graph() {
        let mut g = Graph::with_nodes(6);
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(1.into(), 2.into()).unwrap();
        g.add_edge(3.into(), 4.into()).unwrap();
        assert_pairwise_identical(&g, 2);
        let lazy = LazyRouting::new(&g, 2);
        assert_eq!(lazy.try_next_hop(0.into(), 4.into()).unwrap(), None);
        assert_eq!(lazy.try_distance(5.into(), 0.into()).unwrap(), None);
    }

    #[test]
    fn derived_walks_match_oracle() {
        let g = generators::barabasi_albert(40, 2, 9).unwrap();
        let oracle = RoutingTable::shortest_paths_serial(&g);
        let lazy = LazyRouting::new(&g, 5);
        assert_eq!(RoutingBackend::diameter(&lazy), oracle.diameter());
        assert!(
            (RoutingBackend::average_path_length(&lazy) - oracle.average_path_length()).abs()
                < 1e-12
        );
        assert_eq!(RoutingBackend::link_loads(&lazy, &g), oracle.link_loads(&g));
        assert_eq!(
            RoutingBackend::path(&lazy, 3.into(), 31.into()),
            oracle.path(3.into(), 31.into())
        );
    }

    #[test]
    fn cache_is_bounded_and_recycles() {
        let g = generators::barabasi_albert(50, 2, 3).unwrap();
        let lazy = LazyRouting::new(&g, 4);
        assert_eq!(lazy.shard_count(), 1, "small caches stay unsharded");
        for dst in 0..50usize {
            let _ = RoutingBackend::distance(&lazy, 0.into(), dst.into());
        }
        assert!(lazy.cached_destinations() <= 4);
        let stats = lazy.cache_stats();
        assert_eq!(stats.misses, 50);
        assert_eq!(stats.evictions, 46);
        assert_eq!(lazy.memory_bound_bytes(), 4 * 8 * 50);
        // Re-query the hot destinations: all hits.
        for dst in 46..50usize {
            let _ = RoutingBackend::distance(&lazy, 1.into(), dst.into());
        }
        assert_eq!(lazy.cache_stats().hits, stats.hits + 4);
    }

    #[test]
    fn lru_keeps_recently_used_destinations() {
        let g = generators::ring(8).unwrap();
        let lazy = LazyRouting::new(&g, 2);
        let _ = RoutingBackend::distance(&lazy, 0.into(), 1.into()); // miss: {1}
        let _ = RoutingBackend::distance(&lazy, 0.into(), 2.into()); // miss: {1, 2}
        let _ = RoutingBackend::distance(&lazy, 3.into(), 1.into()); // hit, 1 freshest
        let _ = RoutingBackend::distance(&lazy, 0.into(), 5.into()); // miss, evicts 2
        let stats = lazy.cache_stats();
        let _ = RoutingBackend::distance(&lazy, 4.into(), 1.into()); // still a hit
        assert_eq!(lazy.cache_stats().hits, stats.hits + 1);
        let _ = RoutingBackend::distance(&lazy, 4.into(), 2.into()); // evicted: a miss
        assert_eq!(lazy.cache_stats().misses, stats.misses + 1);
    }

    #[test]
    fn sharded_cache_is_bounded_per_shard() {
        let g = generators::barabasi_albert(200, 2, 21).unwrap();
        let lazy = LazyRouting::new(&g, 65);
        assert_eq!(lazy.shard_count(), SHARD_COUNT);
        for dst in 0..200usize {
            let _ = RoutingBackend::distance(&lazy, 0.into(), dst.into());
        }
        // Per-shard capacities are 9/8/8/…, so the total stays bounded
        // by the requested 65 even after touching every destination.
        assert!(lazy.cached_destinations() <= 65);
        let stats = lazy.cache_stats();
        assert_eq!(stats.misses, 200);
        assert_eq!(
            stats.misses - stats.evictions,
            lazy.cached_destinations() as u64,
            "every miss either grew a shard or evicted from it"
        );
    }

    #[test]
    fn concurrent_lookups_never_undercount_stats() {
        let g = generators::barabasi_albert(240, 2, 11).unwrap();
        let lazy = LazyRouting::new(&g, 128);
        let oracle = RoutingTable::shortest_paths_serial(&g);
        const THREADS: usize = 8;
        const QUERIES: usize = 500;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (lazy, oracle) = (&lazy, &oracle);
                scope.spawn(move || {
                    for i in 0..QUERIES {
                        let src = NodeId::from((i * 7 + t * 13) % 240);
                        let dst = NodeId::from((i * 31 + t * 5) % 240);
                        assert_eq!(
                            RoutingBackend::distance(lazy, src, dst),
                            oracle.distance(src, dst)
                        );
                    }
                });
            }
        });
        let stats = lazy.cache_stats();
        // The exact hit/miss split depends on interleaving, but under
        // per-shard locking every lookup lands in exactly one counter.
        assert_eq!(stats.hits + stats.misses, (THREADS * QUERIES) as u64);
        assert_eq!(
            stats.misses - stats.evictions,
            lazy.cached_destinations() as u64
        );
        assert!(lazy.cached_destinations() <= 128);
    }

    #[test]
    fn out_of_range_queries_error() {
        let g = generators::ring(4).unwrap();
        let lazy = LazyRouting::new(&g, 2);
        let bad = NodeId::new(9);
        assert_eq!(
            lazy.try_next_hop(bad, 0.into()),
            Err(Error::NodeOutOfRange {
                node: bad,
                node_count: 4
            })
        );
        assert!(lazy.try_distance(0.into(), bad).is_err());
        assert!(lazy.try_path(bad, bad).is_err());
    }

    #[test]
    fn default_capacity_fits_the_budget() {
        for n in [5_000usize, 20_000, 100_000, 1_000_000] {
            let cap = default_cache_capacity(n);
            assert!(cap >= 8);
            assert!(cap * 8 * n <= AUTO_CACHE_BUDGET_BYTES + 8 * n,
                "cache bound blown at n={n}: {cap}");
        }
        // Tiny graphs clamp to n-or-8, never zero.
        assert!(default_cache_capacity(1) >= 1);
    }

    #[test]
    fn kind_build_picks_the_right_backend() {
        let g = generators::ring(16).unwrap();
        assert_eq!(RoutingKind::Auto.build(&g).backend_name(), "hier");
        assert_eq!(RoutingKind::Hier.build(&g).backend_name(), "hier");
        let lazy = RoutingKind::Lazy {
            max_cached_destinations: 3,
        }
        .build(&g);
        assert_eq!(lazy.backend_name(), "lazy");
        assert_eq!(lazy.node_count(), 16);
    }

    #[test]
    fn auto_builds_hier_up_to_the_core_limit_and_lazy_above() {
        // Minimum degree 2: nothing peels, so the core is the graph
        // (the limit itself is pinned by hier's `with_core_limit` test).
        let above = generators::barabasi_albert(DENSE_AUTO_LIMIT + 1, 2, 1).unwrap();
        let lazy = RoutingKind::Auto.build(&above);
        assert_eq!(lazy.backend_name(), "lazy");
        assert_eq!(lazy.node_count(), DENSE_AUTO_LIMIT + 1);
        // A star of any size peels to its hub.
        let star = generators::star(2 * DENSE_AUTO_LIMIT).unwrap();
        assert_eq!(RoutingKind::Auto.build(&star.graph).backend_name(), "hier");
    }

    #[test]
    fn debug_is_nonempty() {
        let g = generators::ring(4).unwrap();
        let lazy = LazyRouting::new(&g, 2);
        assert!(!format!("{lazy:?}").is_empty());
    }
}
