//! Simulation configuration: worm behaviour, infection parameters,
//! immunization, and run control.

use crate::background::BackgroundTraffic;
use crate::error::Error;
use crate::faults::FaultPlan;
use crate::plan::RateLimitPlan;
use crate::shard::ShardSpec;
use dynaquar_worms::profiles::SelectorKind;
use dynaquar_worms::scanner::{LocalPreferential, Permutation, Sequential, TargetSelector, UniformRandom};
use serde::{Deserialize, Serialize};

/// How the simulated worm scans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WormBehavior {
    /// Target-selection strategy.
    pub selector: SelectorKind,
    /// Scan attempts per infected node per tick.
    pub scans_per_tick: u32,
    /// Welchia-style self-patching: an infected host patches the
    /// vulnerability and reboots this many ticks after infection,
    /// removing itself from both the infected and susceptible pools.
    /// `None` for ordinary worms.
    pub self_patch_after: Option<u64>,
}

impl WormBehavior {
    /// A uniformly random scanner, one scan per tick — the paper's
    /// random-propagation worm.
    pub fn random() -> Self {
        WormBehavior {
            selector: SelectorKind::Random,
            scans_per_tick: 1,
            self_patch_after: None,
        }
    }

    /// A local-preferential scanner, one scan per tick.
    ///
    /// # Panics
    ///
    /// Panics if `local_bias` is not in `[0, 1]`.
    pub fn local_preferential(local_bias: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&local_bias),
            "local_bias must be in [0, 1]"
        );
        WormBehavior {
            selector: SelectorKind::LocalPreferential { local_bias },
            scans_per_tick: 1,
            self_patch_after: None,
        }
    }

    /// Sets the scans-per-tick rate.
    ///
    /// # Panics
    ///
    /// Panics if `scans == 0`.
    pub fn with_scan_rate(mut self, scans: u32) -> Self {
        assert!(scans > 0, "scans per tick must be positive");
        self.scans_per_tick = scans;
        self
    }

    /// Makes the worm Welchia-like: each instance patches and reboots
    /// its host `ticks` after infection.
    ///
    /// # Panics
    ///
    /// Panics if `ticks == 0`.
    pub fn with_self_patch_after(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "self-patch delay must be positive");
        self.self_patch_after = Some(ticks);
        self
    }

    /// Builds the simulator behaviour matching a named worm profile at
    /// the given tick length: scan rate converted to scans/tick, the
    /// profile's targeting strategy, and (for patching worms like
    /// Welchia) a self-patch delay of `patch_delay_ticks`.
    ///
    /// # Panics
    ///
    /// Panics if `tick_seconds <= 0` or `patch_delay_ticks == 0` for a
    /// patching profile.
    pub fn from_profile(
        profile: &dynaquar_worms::WormProfile,
        tick_seconds: f64,
        patch_delay_ticks: u64,
    ) -> Self {
        let mut behavior = WormBehavior {
            selector: profile.selector,
            scans_per_tick: profile.scans_per_tick(tick_seconds),
            self_patch_after: None,
        };
        if profile.patches_host {
            behavior = behavior.with_self_patch_after(patch_delay_ticks);
        }
        behavior
    }

    /// Instantiates a fresh selector for a newly infected node.
    pub(crate) fn make_selector(&self) -> Box<dyn TargetSelector> {
        match self.selector {
            SelectorKind::Random => Box::new(UniformRandom::new()),
            SelectorKind::LocalPreferential { local_bias } => {
                Box::new(LocalPreferential::new(local_bias))
            }
            SelectorKind::Sequential => Box::new(Sequential::new()),
            SelectorKind::Permutation { key } => Box::new(Permutation::new(key)),
        }
    }
}

/// When the immunization process starts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ImmunizationTrigger {
    /// At a fixed tick (the paper's Figure 7(b)/8(b): ticks 6, 8, 10).
    AtTick(u64),
    /// When the infected fraction first reaches this level (Figure 8(a):
    /// 20 %, 50 %, 80 %).
    AtInfectedFraction(f64),
}

/// Automatic per-host quarantine driven by the Williamson detection
/// signal: "a long \[throttle\] queue means scanning behaviour". A host
/// whose delaying filter accumulates `queue_threshold` pending scans is
/// quarantined (removed from the network) on the spot — the paper's
/// titular *dynamic quarantine*, as opposed to the global
/// administrator-driven patching of [`ImmunizationConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuarantineConfig {
    /// Delay-queue length at which a host is declared infected and cut
    /// off (Williamson suggests ~100 pending requests; scaled to the
    /// simulator's scan rates, single digits already separate worms from
    /// normal hosts).
    pub queue_threshold: usize,
}

/// Delayed-immunization configuration (Section 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImmunizationConfig {
    /// Start condition.
    pub trigger: ImmunizationTrigger,
    /// Per-tick patch probability µ for every unpatched host.
    pub mu: f64,
}

/// Periodic crash-safe checkpointing of a running simulation.
///
/// When installed via [`SimConfigBuilder::checkpoint_every`], the
/// simulator writes an atomic [`crate::snapshot::Snapshot`] of its
/// complete state to `directory` every `every_ticks` ticks. The run
/// supervisor uses the latest checkpoint to resume a run that panicked
/// mid-flight instead of restarting it from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint cadence in ticks (>= 1).
    pub every_ticks: u64,
    /// Directory checkpoint files land in (created on first write).
    pub directory: std::path::PathBuf,
}

impl CheckpointPolicy {
    /// The checkpoint file path for the run with the given seed.
    pub fn path_for(&self, seed: u64) -> std::path::PathBuf {
        self.directory.join(format!("ckpt-{seed}.dqsnap"))
    }
}

/// Full simulation configuration.
///
/// Build with [`SimConfig::builder`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    pub(crate) beta: f64,
    pub(crate) initial_infected: usize,
    pub(crate) horizon: u64,
    pub(crate) immunization: Option<ImmunizationConfig>,
    pub(crate) quarantine: Option<QuarantineConfig>,
    pub(crate) background: Option<BackgroundTraffic>,
    pub(crate) log_scans: bool,
    /// The recorded shard count ([`ShardSpec`]). It has no effect on
    /// the run, so it is excluded from the snapshot config fingerprint.
    #[serde(default)]
    pub(crate) shards: ShardSpec,
    #[serde(skip)]
    pub(crate) plan: RateLimitPlan,
    #[serde(skip)]
    pub(crate) faults: FaultPlan,
    #[serde(skip)]
    pub(crate) checkpoint: Option<CheckpointPolicy>,
}

impl SimConfig {
    /// Starts building a configuration.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// The infection probability β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of initially infected hosts.
    pub fn initial_infected(&self) -> usize {
        self.initial_infected
    }

    /// Maximum simulated ticks.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The immunization configuration, if any.
    pub fn immunization(&self) -> Option<ImmunizationConfig> {
        self.immunization
    }

    /// The background legitimate-traffic workload, if any.
    pub fn background(&self) -> Option<BackgroundTraffic> {
        self.background
    }

    /// The automatic quarantine configuration, if any.
    pub fn quarantine(&self) -> Option<QuarantineConfig> {
        self.quarantine
    }

    /// Whether emitted worm scans are recorded in the result.
    pub fn log_scans(&self) -> bool {
        self.log_scans
    }

    /// The recorded shard count (possibly still [`ShardSpec::Auto`]).
    pub fn shards(&self) -> ShardSpec {
        self.shards
    }

    /// Returns this configuration with `shards` recorded in place of
    /// the current count; the run it configures is unchanged.
    pub fn with_shards(mut self, shards: ShardSpec) -> Self {
        self.shards = shards;
        self
    }

    /// The rate-limiting plan.
    pub fn plan(&self) -> &RateLimitPlan {
        &self.plan
    }

    /// The fault-injection plan ([`FaultPlan::none`] by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Returns this configuration with `faults` swapped in — used by
    /// the checkpoint supervisor to resume with injected panics cleared.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The checkpoint policy, if periodic checkpointing is enabled.
    pub fn checkpoint(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    beta: f64,
    initial_infected: usize,
    horizon: u64,
    immunization: Option<ImmunizationConfig>,
    quarantine: Option<QuarantineConfig>,
    background: Option<BackgroundTraffic>,
    log_scans: bool,
    shards: ShardSpec,
    plan: RateLimitPlan,
    faults: FaultPlan,
    checkpoint: Option<CheckpointPolicy>,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            beta: 0.8,
            initial_infected: 1,
            horizon: 100,
            immunization: None,
            quarantine: None,
            background: None,
            log_scans: false,
            shards: ShardSpec::Auto,
            plan: RateLimitPlan::none(),
            faults: FaultPlan::none(),
            checkpoint: None,
        }
    }
}

impl SimConfigBuilder {
    /// Sets the per-scan infection probability β (paper default: 0.8).
    pub fn beta(&mut self, beta: f64) -> &mut Self {
        self.beta = beta;
        self
    }

    /// Sets the number of initially infected hosts (chosen uniformly at
    /// random from the host set per run).
    pub fn initial_infected(&mut self, count: usize) -> &mut Self {
        self.initial_infected = count;
        self
    }

    /// Sets the simulation horizon in ticks.
    pub fn horizon(&mut self, ticks: u64) -> &mut Self {
        self.horizon = ticks;
        self
    }

    /// Enables delayed immunization.
    pub fn immunization(&mut self, config: ImmunizationConfig) -> &mut Self {
        self.immunization = Some(config);
        self
    }

    /// Installs a rate-limiting plan.
    pub fn plan(&mut self, plan: RateLimitPlan) -> &mut Self {
        self.plan = plan;
        self
    }

    /// Installs a fault-injection plan (validated at [`build`] time).
    ///
    /// [`build`]: SimConfigBuilder::build
    pub fn faults(&mut self, faults: FaultPlan) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Injects background legitimate traffic (to measure the collateral
    /// impact of the rate-limiting plan).
    pub fn background(&mut self, traffic: BackgroundTraffic) -> &mut Self {
        self.background = Some(traffic);
        self
    }

    /// Enables detection-driven per-host quarantine. Only meaningful
    /// when hosts carry *delaying* filters (the queue is the detector).
    pub fn quarantine(&mut self, config: QuarantineConfig) -> &mut Self {
        self.quarantine = Some(config);
        self
    }

    /// Records every emitted worm scan as `(tick, src, dst)` in the
    /// result — the simulator's answer to a packet trace, consumable by
    /// the Section 7 analysis pipeline.
    pub fn log_scans(&mut self, enabled: bool) -> &mut Self {
        self.log_scans = enabled;
        self
    }

    /// Enables periodic crash-safe checkpointing: every `every_ticks`
    /// ticks the simulator atomically writes a complete
    /// [`crate::snapshot::Snapshot`] into `directory`, and the run
    /// supervisor resumes a panicked run from the latest checkpoint
    /// instead of restarting it.
    pub fn checkpoint_every(
        &mut self,
        every_ticks: u64,
        directory: impl Into<std::path::PathBuf>,
    ) -> &mut Self {
        self.checkpoint = Some(CheckpointPolicy {
            every_ticks,
            directory: directory.into(),
        });
        self
    }

    /// Records a shard count (default [`ShardSpec::Auto`]). The engine
    /// sweeps every phase serially, so no value changes the run.
    pub fn shards(&mut self, shards: ShardSpec) -> &mut Self {
        self.shards = shards;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `beta ∉ (0, 1]`,
    /// `initial_infected == 0`, `horizon == 0`, an immunization µ is
    /// outside `[0, 1]`, a host filter fails
    /// [`RateLimitPlan::validate`] (zero window, zero budget, or a
    /// delaying filter with a zero release period), or the fault plan
    /// fails [`FaultPlan::validate`].
    pub fn build(&self) -> Result<SimConfig, Error> {
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            return Err(Error::InvalidConfig {
                name: "beta",
                reason: "must be in (0, 1]",
            });
        }
        if self.initial_infected == 0 {
            return Err(Error::InvalidConfig {
                name: "initial_infected",
                reason: "need at least one initial infection",
            });
        }
        if self.horizon == 0 {
            return Err(Error::InvalidConfig {
                name: "horizon",
                reason: "must simulate at least one tick",
            });
        }
        if let Some(q) = &self.quarantine {
            if q.queue_threshold == 0 {
                return Err(Error::InvalidConfig {
                    name: "queue_threshold",
                    reason: "a zero threshold would quarantine every host immediately",
                });
            }
        }
        if let Some(imm) = &self.immunization {
            if !(0.0..=1.0).contains(&imm.mu) {
                return Err(Error::InvalidConfig {
                    name: "mu",
                    reason: "must be a probability in [0, 1]",
                });
            }
            if let ImmunizationTrigger::AtInfectedFraction(f) = imm.trigger {
                if !(0.0..=1.0).contains(&f) {
                    return Err(Error::InvalidConfig {
                        name: "trigger",
                        reason: "infected-fraction trigger must be in [0, 1]",
                    });
                }
            }
        }
        if let Some(cp) = &self.checkpoint {
            if cp.every_ticks == 0 {
                return Err(Error::InvalidConfig {
                    name: "checkpoint_every",
                    reason: "checkpoint cadence must be at least one tick",
                });
            }
        }
        self.plan.validate()?;
        self.faults.validate()?;
        Ok(SimConfig {
            beta: self.beta,
            initial_infected: self.initial_infected,
            horizon: self.horizon,
            immunization: self.immunization,
            quarantine: self.quarantine,
            background: self.background,
            log_scans: self.log_scans,
            shards: self.shards,
            plan: self.plan.clone(),
            faults: self.faults.clone(),
            checkpoint: self.checkpoint.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let c = SimConfig::builder().build().unwrap();
        assert_eq!(c.beta(), 0.8);
        assert_eq!(c.initial_infected(), 1);
        assert_eq!(c.horizon(), 100);
        assert!(c.immunization().is_none());
    }

    #[test]
    fn builder_rejects_bad_values() {
        assert!(SimConfig::builder().beta(0.0).build().is_err());
        assert!(SimConfig::builder().beta(1.5).build().is_err());
        assert!(SimConfig::builder().initial_infected(0).build().is_err());
        assert!(SimConfig::builder().horizon(0).build().is_err());
        assert!(SimConfig::builder()
            .immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtTick(5),
                mu: 1.5,
            })
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtInfectedFraction(2.0),
                mu: 0.1,
            })
            .build()
            .is_err());
    }

    #[test]
    fn zero_release_period_rejected_at_build() {
        use crate::plan::{HostFilter, RateLimitPlan};
        use dynaquar_topology::NodeId;
        let mut plan = RateLimitPlan::none();
        plan.filter_hosts(&[NodeId::new(1)], HostFilter::delaying(50, 1, 0));
        let err = SimConfig::builder().plan(plan).build().unwrap_err();
        assert!(matches!(
            err,
            Error::InvalidConfig {
                name: "release_period_ticks",
                ..
            }
        ));
        // A positive period passes.
        let mut plan = RateLimitPlan::none();
        plan.filter_hosts(&[NodeId::new(1)], HostFilter::delaying(50, 1, 1));
        assert!(SimConfig::builder().plan(plan).build().is_ok());
    }

    #[test]
    fn degenerate_host_filters_rejected_at_build() {
        use crate::plan::{HostFilter, RateLimitPlan};
        use dynaquar_topology::NodeId;
        for filter in [HostFilter::dropping(0, 1), HostFilter::dropping(5, 0)] {
            let mut plan = RateLimitPlan::none();
            plan.filter_hosts(&[NodeId::new(1)], filter);
            assert!(SimConfig::builder().plan(plan).build().is_err());
        }
    }

    #[test]
    fn behavior_constructors() {
        let r = WormBehavior::random();
        assert_eq!(r.scans_per_tick, 1);
        let lp = WormBehavior::local_preferential(0.9).with_scan_rate(3);
        assert_eq!(lp.scans_per_tick, 3);
        assert!(matches!(
            lp.selector,
            SelectorKind::LocalPreferential { .. }
        ));
    }

    #[test]
    fn from_profile_maps_worms_faithfully() {
        use dynaquar_worms::WormProfile;
        // Blaster: local-preferential, ~5 scans/s, no self-patching.
        let blaster = WormBehavior::from_profile(&WormProfile::blaster(), 1.0, 20);
        assert_eq!(blaster.scans_per_tick, 5);
        assert!(blaster.self_patch_after.is_none());
        assert!(matches!(
            blaster.selector,
            SelectorKind::LocalPreferential { .. }
        ));
        // Welchia patches its host.
        let welchia = WormBehavior::from_profile(&WormProfile::welchia(), 1.0, 20);
        assert_eq!(welchia.self_patch_after, Some(20));
        assert_eq!(welchia.scans_per_tick, 50);
        // Code Red I: plain random.
        let cr = WormBehavior::from_profile(&WormProfile::code_red(), 1.0, 20);
        assert_eq!(cr.selector, SelectorKind::Random);
    }

    #[test]
    #[should_panic(expected = "local_bias")]
    fn behavior_rejects_bad_bias() {
        WormBehavior::local_preferential(-0.1);
    }

    #[test]
    fn make_selector_matches_kind() {
        assert_eq!(WormBehavior::random().make_selector().name(), "random");
        assert_eq!(
            WormBehavior::local_preferential(0.5)
                .make_selector()
                .name(),
            "local-preferential"
        );
        let seq = WormBehavior {
            selector: SelectorKind::Sequential,
            scans_per_tick: 1,
            self_patch_after: None,
        };
        assert_eq!(seq.make_selector().name(), "sequential");
        let perm = WormBehavior {
            selector: SelectorKind::Permutation { key: 42 },
            scans_per_tick: 1,
            self_patch_after: None,
        };
        assert_eq!(perm.make_selector().name(), "permutation");
    }
}
