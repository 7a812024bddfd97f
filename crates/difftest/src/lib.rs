//! # cards-difftest
//!
//! Differential-testing oracle for the CaRDS pass pipeline.
//!
//! [`cards_ir::testgen`] produces seeded programs that exercise the
//! far-memory surface (DS-rooted allocation chains, pointer chasing, strided
//! loops, calls, frees, phis over DS pointers). Each seed is first executed
//! on an uninstrumented all-local VM — the *oracle* — and then under every
//! pipeline configuration (optimizer only, TrackFM guard-all, full CaRDS)
//! crossed with the paper's four remoting policies and multiple fault
//! schedules. Two observables are compared:
//!
//! - the program's final return value (a checksum over everything computed),
//! - the heap digest the program accumulates in its `@digest` global (a
//!   rolling `hash64` over every heap cell it touches — sensitive to heap
//!   *contents*, not just the returned scalar).
//!
//! Any mismatch is a miscompile (or a runtime/VM bug) by construction: the
//! transformations are supposed to be semantics-preserving under every
//! policy and any transient-fault schedule. Divergent seeds are shrunk by
//! delta debugging ([`minimize`]) and persisted as reproducers.

pub mod minimize;

pub use minimize::minimize;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use cards_ir::testgen::{generate, GenConfig};
use cards_ir::{print_module, verify_module, Module};
use cards_net::{ChaosSchedule, ChaosTransport, FaultyTransport, SimTransport};
use cards_passes::{compile, optimize, CompileOptions};
use cards_runtime::{PressureConfig, PressureSchedule, RemotingPolicy, RuntimeConfig};
use cards_vm::Vm;

/// What one execution of a program looks like from the outside. Two runs of
/// the same program are behaviourally equal iff their observations are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// Final return value of `main` (`None` for void).
    pub ret: Option<u64>,
    /// Value of the program's `@digest` global after the run, if present.
    pub digest: Option<u64>,
    /// Trap/compile failure, rendered to a string. A trapping program must
    /// trap identically in every configuration.
    pub error: Option<String>,
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.error {
            Some(e) => write!(f, "error: {e}"),
            None => write!(f, "ret={:?} digest={:?}", self.ret, self.digest),
        }
    }
}

/// Which slice of the compilation pipeline a configuration runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// `optimize` only — no far-memory transformation, all-local execution.
    /// Flushes out folder/DCE/branch-simplification miscompiles in
    /// isolation.
    OptOnly,
    /// `optimize` + the TrackFM baseline pipeline (guard everything).
    TrackFm,
    /// `optimize` + the full CaRDS pipeline (DSA-pruned guards, selective
    /// remoting, versioned loops).
    Cards,
}

/// A deterministic transient-fault schedule applied to the transport.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability in [0,1] that a fetch/put fails with `Transient`.
    pub rate: f64,
    /// Seed for the fault PRNG.
    pub seed: u64,
}

impl FaultSpec {
    /// No injected faults.
    pub fn none() -> Self {
        FaultSpec { rate: 0.0, seed: 0 }
    }
}

/// A phase-scripted chaos schedule on the transport (loss bursts, latency
/// spikes, partitions, payload corruption, server crash/restart). Unlike
/// [`FaultSpec`]'s Bernoulli noise this drives *correlated* failures, and
/// the crash variants actually lose unacknowledged server state — the
/// runtime's journal must win it back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosSpec {
    /// Plain transport (possibly with [`FaultSpec`] noise).
    None,
    /// [`ChaosSchedule::storm`]: every phase kind including one
    /// crash/restart per lap.
    Storm(u64),
    /// [`ChaosSchedule::crash_loop`]: a crash/restart every ~78 ops.
    Crash(u64),
}

impl ChaosSpec {
    fn schedule(self) -> Option<ChaosSchedule> {
        match self {
            ChaosSpec::None => None,
            ChaosSpec::Storm(seed) => Some(ChaosSchedule::storm(seed)),
            ChaosSpec::Crash(seed) => Some(ChaosSchedule::crash_loop(seed)),
        }
    }
}

/// A deterministic memory-pressure schedule on the runtime's local tier
/// (the third fault axis, symmetric to [`ChaosSpec`] on the transport):
/// budgets shrink and recover mid-run, the governor evicts, spills, and
/// re-solves — and none of it may change observable behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PressureSpec {
    /// Full budgets throughout, governor off.
    None,
    /// [`PressureSchedule::squeeze`]: staircase down to 25% pinned, then
    /// recovery.
    Squeeze,
    /// [`PressureSchedule::cliff`]: one sudden collapse to 10%, then
    /// recovery.
    Cliff,
    /// [`PressureSchedule::sawtooth`]: repeating shrink/restore ramps.
    Sawtooth,
}

impl PressureSpec {
    fn schedule(self) -> Option<PressureSchedule> {
        match self {
            PressureSpec::None => None,
            PressureSpec::Squeeze => Some(PressureSchedule::squeeze()),
            PressureSpec::Cliff => Some(PressureSchedule::cliff()),
            PressureSpec::Sawtooth => Some(PressureSchedule::sawtooth()),
        }
    }

    fn name(self) -> &'static str {
        match self {
            PressureSpec::None => "none",
            PressureSpec::Squeeze => "squeeze",
            PressureSpec::Cliff => "cliff",
            PressureSpec::Sawtooth => "sawtooth",
        }
    }
}

/// One cell of the differential matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunConfig {
    /// Pipeline slice under test.
    pub pipeline: Pipeline,
    /// Remoting policy handed to the VM.
    pub policy: RemotingPolicy,
    /// Transient-fault schedule on the transport.
    pub fault: FaultSpec,
    /// Phase-scripted chaos schedule (supersedes `fault` when set).
    pub chaos: ChaosSpec,
    /// Memory-pressure schedule (enables the governor when set).
    pub pressure: PressureSpec,
    /// Pinned-memory budget in bytes.
    pub pinned: u64,
    /// Remotable cache budget in bytes (small, to force eviction churn).
    pub cache: u64,
    /// Policy threshold `k` (percent).
    pub k: u32,
}

impl RunConfig {
    /// Short human-readable label, used in reports and file names.
    pub fn label(&self) -> String {
        let pipe = match self.pipeline {
            Pipeline::OptOnly => "opt-only",
            Pipeline::TrackFm => "trackfm",
            Pipeline::Cards => "cards",
        };
        let pol = match self.policy {
            RemotingPolicy::AllRemotable => "all-remotable".to_string(),
            RemotingPolicy::Linear => "linear".to_string(),
            RemotingPolicy::Random { seed } => format!("random{seed}"),
            RemotingPolicy::MaxReach => "max-reach".to_string(),
            RemotingPolicy::MaxUse => "max-use".to_string(),
        };
        let base = match self.chaos {
            ChaosSpec::Storm(seed) => format!("{pipe}/{pol}/chaos-storm@{seed}"),
            ChaosSpec::Crash(seed) => format!("{pipe}/{pol}/chaos-crash@{seed}"),
            ChaosSpec::None if self.fault.rate > 0.0 => format!(
                "{pipe}/{pol}/fault{:.2}@{}",
                self.fault.rate, self.fault.seed
            ),
            ChaosSpec::None => format!("{pipe}/{pol}"),
        };
        if self.pressure != PressureSpec::None {
            format!("{base}/pressure-{}", self.pressure.name())
        } else {
            base
        }
    }
}

/// The fault schedules every far configuration is crossed with: a clean
/// transport and a deterministic 20% transient-fault storm (the runtime must
/// retry its way through without observable effect).
pub fn fault_schedules() -> [FaultSpec; 2] {
    [
        FaultSpec::none(),
        FaultSpec {
            rate: 0.2,
            seed: 0xfa17,
        },
    ]
}

/// The paper's four remoting policies.
pub fn policies() -> [RemotingPolicy; 4] {
    [
        RemotingPolicy::Linear,
        RemotingPolicy::Random { seed: 9 },
        RemotingPolicy::MaxReach,
        RemotingPolicy::MaxUse,
    ]
}

/// The full differential matrix: one all-local optimizer-only run, plus
/// {TrackFM, CaRDS} × four policies × the fault schedules, every far run
/// under a deliberately tiny cache so data actually churns through the
/// remote side.
pub fn config_matrix() -> Vec<RunConfig> {
    let mut v = vec![RunConfig {
        pipeline: Pipeline::OptOnly,
        policy: RemotingPolicy::Linear,
        fault: FaultSpec::none(),
        chaos: ChaosSpec::None,
        pressure: PressureSpec::None,
        pinned: 1 << 30,
        cache: 1 << 30,
        k: 100,
    }];
    for pipeline in [Pipeline::TrackFm, Pipeline::Cards] {
        for policy in policies() {
            for fault in fault_schedules() {
                v.push(RunConfig {
                    pipeline,
                    policy,
                    fault,
                    chaos: ChaosSpec::None,
                    pressure: PressureSpec::None,
                    pinned: 0,
                    cache: 6 * 4096,
                    k: 50,
                });
            }
        }
    }
    // Chaos cells: correlated failure phases plus real crash/restart data
    // loss. A sample, not the full cross product — `chaos_matrix` widens
    // this for the dedicated `cards chaos` campaign.
    for (pipeline, chaos, policy) in [
        (
            Pipeline::TrackFm,
            ChaosSpec::Storm(0xca05),
            RemotingPolicy::Linear,
        ),
        (
            Pipeline::TrackFm,
            ChaosSpec::Crash(0xca05),
            RemotingPolicy::MaxUse,
        ),
        (
            Pipeline::Cards,
            ChaosSpec::Storm(0xca05),
            RemotingPolicy::MaxUse,
        ),
        (
            Pipeline::Cards,
            ChaosSpec::Crash(0xca05),
            RemotingPolicy::Linear,
        ),
    ] {
        v.push(RunConfig {
            pipeline,
            policy,
            fault: FaultSpec::none(),
            chaos,
            pressure: PressureSpec::None,
            pinned: 0,
            // Tighter than the fault cells: the chaos phases only matter
            // if data actually moves, so force churn even on small
            // programs.
            cache: 2 * 4096,
            k: 50,
        });
    }
    // Pressure cells: the local tier starves mid-run while the governor
    // evicts, spills, and re-solves. A sample, not the full cross product —
    // `pressure_matrix` widens this for the dedicated `cards pressure`
    // campaign.
    for (pipeline, pressure, policy) in [
        (
            Pipeline::Cards,
            PressureSpec::Squeeze,
            RemotingPolicy::MaxUse,
        ),
        (
            Pipeline::Cards,
            PressureSpec::Sawtooth,
            RemotingPolicy::Linear,
        ),
        (
            Pipeline::Cards,
            PressureSpec::Cliff,
            RemotingPolicy::Random { seed: 9 },
        ),
        (
            Pipeline::TrackFm,
            PressureSpec::Squeeze,
            RemotingPolicy::MaxReach,
        ),
    ] {
        v.push(RunConfig {
            pipeline,
            policy,
            fault: FaultSpec::none(),
            chaos: ChaosSpec::None,
            pressure,
            // A real pinned budget so schedules have something to shrink,
            // and a small cache so watermark sweeps actually fire.
            pinned: 4 * 4096,
            cache: 4 * 4096,
            k: 50,
        });
    }
    v
}

/// The widened chaos matrix behind `cards chaos`: {TrackFM, CaRDS} × the
/// four policies × {storm, crash-loop}. Every cell must still match the
/// all-local oracle — chaos may cost cycles, never correctness.
pub fn chaos_matrix() -> Vec<RunConfig> {
    let mut v = Vec::new();
    for pipeline in [Pipeline::TrackFm, Pipeline::Cards] {
        for policy in policies() {
            for chaos in [ChaosSpec::Storm(0xca05), ChaosSpec::Crash(0xca05)] {
                v.push(RunConfig {
                    pipeline,
                    policy,
                    fault: FaultSpec::none(),
                    chaos,
                    pressure: PressureSpec::None,
                    pinned: 0,
                    cache: 2 * 4096,
                    k: 50,
                });
            }
        }
    }
    v
}

/// The widened pressure matrix behind `cards pressure`: {TrackFM, CaRDS} ×
/// the four policies × {squeeze, cliff, sawtooth}. Every cell must still
/// match the all-local oracle — pressure may cost cycles, never
/// correctness.
pub fn pressure_matrix() -> Vec<RunConfig> {
    let mut v = Vec::new();
    for pipeline in [Pipeline::TrackFm, Pipeline::Cards] {
        for policy in policies() {
            for pressure in [
                PressureSpec::Squeeze,
                PressureSpec::Cliff,
                PressureSpec::Sawtooth,
            ] {
                v.push(RunConfig {
                    pipeline,
                    policy,
                    fault: FaultSpec::none(),
                    chaos: ChaosSpec::None,
                    pressure,
                    pinned: 4 * 4096,
                    cache: 4 * 4096,
                    k: 50,
                });
            }
        }
    }
    v
}

fn observe_run<T: cards_net::Transport>(vm: &mut Vm<T>) -> Observation {
    match vm.run("main", &[]) {
        Ok(ret) => Observation {
            ret,
            digest: vm.global_u64("digest"),
            error: None,
        },
        Err(e) => failed(e.to_string()),
    }
}

fn failed(error: String) -> Observation {
    Observation {
        ret: None,
        digest: None,
        error: Some(error),
    }
}

/// The one compile path every matrix cell runs through: the module is
/// optimized, re-verified (a pass that emits malformed IR is reported as an
/// error observation rather than crashing the VM), then — for the far
/// pipelines — compiled. `Err` is that error observation.
fn prepare(m: &Module, pipeline: Pipeline) -> Result<Module, Observation> {
    let mut module = m.clone();
    optimize(&mut module);
    if let Some(e) = verify_module(&module).first() {
        return Err(failed(format!("post-optimize verify failed: {e:?}")));
    }
    let opts = match pipeline {
        Pipeline::OptOnly => return Ok(module),
        Pipeline::TrackFm => CompileOptions::trackfm(),
        Pipeline::Cards => CompileOptions::cards(),
    };
    compile(module, opts)
        .map(|c| c.module)
        .map_err(|e| failed(format!("compile failed: {e}")))
}

/// A chaos cell's VM. The retry budget must cover the schedule's longest
/// all-fail window (bounded at <= 12 ops by a cards-net test).
fn chaos_vm(module: Module, cfg: &RunConfig, sched: ChaosSchedule) -> Vm<ChaosTransport> {
    Vm::new(
        module,
        RuntimeConfig::new(cfg.pinned, cfg.cache).with_max_retries(32),
        ChaosTransport::new(sched),
        cfg.policy,
        cfg.k,
    )
}

/// The same cell on a clean transport with full budgets: the cycle
/// baseline the chaos and pressure tables compare against.
fn clean_cycles(module: Module, cfg: &RunConfig) -> u64 {
    let mut vm = Vm::new(
        module,
        RuntimeConfig::new(cfg.pinned, cfg.cache),
        SimTransport::default(),
        cfg.policy,
        cfg.k,
    );
    let _ = vm.run("main", &[]);
    vm.runtime().stats().cycles
}

/// Run `m` untransformed and unoptimized on plain local memory — the ground
/// truth every configuration is compared against.
pub fn observe_oracle(m: &Module) -> Observation {
    let mut vm = Vm::new(
        m.clone(),
        RuntimeConfig::new(1 << 30, 1 << 30),
        SimTransport::default(),
        RemotingPolicy::Linear,
        100,
    );
    observe_run(&mut vm)
}

/// Run `m` under one matrix cell: [`prepare`] it, then execute it — for
/// the far pipelines against a fault-injecting transport.
pub fn observe(m: &Module, cfg: &RunConfig) -> Observation {
    let module = match prepare(m, cfg.pipeline) {
        Ok(module) => module,
        Err(obs) => return obs,
    };
    let mut rt_cfg = RuntimeConfig::new(cfg.pinned, cfg.cache);
    if cfg.pipeline == Pipeline::OptOnly {
        let mut vm = Vm::new(module, rt_cfg, SimTransport::default(), cfg.policy, cfg.k);
        return observe_run(&mut vm);
    }
    if let Some(sched) = cfg.chaos.schedule() {
        return observe_run(&mut chaos_vm(module, cfg, sched));
    }
    if cfg.pressure != PressureSpec::None {
        rt_cfg = rt_cfg.with_pressure(PressureConfig::governed());
    }
    let mut vm = Vm::new(
        module,
        rt_cfg,
        FaultyTransport::new(SimTransport::default(), cfg.fault.rate, cfg.fault.seed),
        cfg.policy,
        cfg.k,
    );
    if let Some(sched) = cfg.pressure.schedule() {
        vm.runtime_mut().set_pressure_schedule(sched);
    }
    observe_run(&mut vm)
}

/// Resilience counters harvested from one chaos run (plus its clean twin's
/// cycle count, for the degraded-vs-healthy comparison).
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosRunStats {
    /// Transport retries the chaos run needed.
    pub retries: u64,
    /// Operations that timed out (partitions, crash windows).
    pub timeouts: u64,
    /// Fetches that failed envelope verification.
    pub corrupt_fetches: u64,
    /// Server crash/restarts detected via generation bumps.
    pub crashes_detected: u64,
    /// Journaled writebacks replayed after a crash.
    pub journal_replays: u64,
    /// Circuit-breaker trips summed over all data structures.
    pub breaker_trips: u64,
    /// Modeled cycles of the chaos run.
    pub chaos_cycles: u64,
    /// Modeled cycles of the same cell with a clean transport.
    pub clean_cycles: u64,
}

/// Run one chaos cell and harvest both the observation and the resilience
/// counters, plus a clean-transport twin of the same cell for the cycle
/// baseline. Panics if `cfg.chaos` is `ChaosSpec::None`.
pub fn observe_chaos(m: &Module, cfg: &RunConfig) -> (Observation, ChaosRunStats) {
    let sched = cfg
        .chaos
        .schedule()
        .expect("observe_chaos requires a chaos cell");
    assert!(
        cfg.pipeline != Pipeline::OptOnly,
        "chaos cells are far-memory cells"
    );
    let module = match prepare(m, cfg.pipeline) {
        Ok(module) => module,
        Err(obs) => return (obs, ChaosRunStats::default()),
    };
    let mut vm = chaos_vm(module.clone(), cfg, sched);
    let obs = observe_run(&mut vm);
    let rt = vm.runtime();
    let g = rt.stats();
    let stats = ChaosRunStats {
        retries: g.retries,
        timeouts: g.timeouts,
        corrupt_fetches: g.corrupt_fetches,
        crashes_detected: g.crashes_detected,
        journal_replays: g.journal_replays,
        breaker_trips: (0..rt.ds_count() as u16)
            .filter_map(|h| rt.ds_stats(h))
            .map(|s| s.breaker_trips)
            .sum(),
        chaos_cycles: g.cycles,
        clean_cycles: clean_cycles(module, cfg),
    };
    (obs, stats)
}

/// Aggregated outcome of one chaos-matrix cell across a whole campaign.
#[derive(Clone, Debug, Default)]
pub struct ChaosCellReport {
    /// The cell's [`RunConfig::label`].
    pub label: String,
    /// Seeds that diverged from the all-local oracle in this cell.
    pub divergent: Vec<u64>,
    /// Summed resilience counters over every seed.
    pub stats: ChaosRunStats,
}

/// Outcome of [`run_chaos_campaign`].
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Per-cell aggregates, in [`chaos_matrix`] order.
    pub cells: Vec<ChaosCellReport>,
    /// Seeds with at least one diverging cell.
    pub divergent: Vec<u64>,
    /// One human-readable line per divergence.
    pub log: Vec<String>,
}

/// Fuzz `seeds` generated programs through [`chaos_matrix`]: every cell
/// must match the all-local oracle even through loss bursts, partitions,
/// corruption, and server crash/restarts.
pub fn run_chaos_campaign(seeds: u64, start_seed: u64, gen: GenConfig) -> ChaosReport {
    let matrix = chaos_matrix();
    let mut report = ChaosReport {
        cells: matrix
            .iter()
            .map(|c| ChaosCellReport {
                label: c.label(),
                ..Default::default()
            })
            .collect(),
        ..Default::default()
    };
    for seed in start_seed..start_seed + seeds {
        let module = generate(seed, gen);
        let oracle = observe_oracle(&module);
        report.seeds_run += 1;
        let mut seed_diverged = false;
        for (i, cfg) in matrix.iter().enumerate() {
            let (got, stats) = observe_chaos(&module, cfg);
            let cell = &mut report.cells[i];
            cell.stats.retries += stats.retries;
            cell.stats.timeouts += stats.timeouts;
            cell.stats.corrupt_fetches += stats.corrupt_fetches;
            cell.stats.crashes_detected += stats.crashes_detected;
            cell.stats.journal_replays += stats.journal_replays;
            cell.stats.breaker_trips += stats.breaker_trips;
            cell.stats.chaos_cycles += stats.chaos_cycles;
            cell.stats.clean_cycles += stats.clean_cycles;
            if got != oracle {
                cell.divergent.push(seed);
                seed_diverged = true;
                report.log.push(format!(
                    "seed {seed} [{}]: oracle {oracle} vs {got}",
                    cfg.label()
                ));
            }
        }
        if seed_diverged {
            report.divergent.push(seed);
        }
    }
    report
}

/// Pressure counters harvested from one governed run (plus its unpressured
/// twin's cycle count, for the degraded-vs-healthy comparison).
#[derive(Clone, Copy, Debug, Default)]
pub struct PressureRunStats {
    /// High-watermark crossings.
    pub pressure_high_crossings: u64,
    /// Objects evicted by proactive watermark sweeps.
    pub proactive_evictions: u64,
    /// Pressure-schedule phase changes that fired.
    pub phase_changes: u64,
    /// Online policy re-solves applied.
    pub resolves: u64,
    /// Hint demotions applied by re-solves.
    pub hint_demotions: u64,
    /// Hint promotions applied by re-solves.
    pub hint_promotions: u64,
    /// Reads + writes served directly from the remote tier (spills).
    pub spills: u64,
    /// Pin-starvation reliefs (guard window shrunk under pressure).
    pub pin_starvations: u64,
    /// Modeled cycles of the pressured run.
    pub pressured_cycles: u64,
    /// Modeled cycles of the same cell with full budgets and no governor.
    pub clean_cycles: u64,
}

/// Run one pressure cell and harvest both the observation and the governor
/// counters, plus an unpressured twin of the same cell for the cycle
/// baseline. Panics if `cfg.pressure` is `PressureSpec::None`.
pub fn observe_pressure(m: &Module, cfg: &RunConfig) -> (Observation, PressureRunStats) {
    let sched = cfg
        .pressure
        .schedule()
        .expect("observe_pressure requires a pressure cell");
    assert!(
        cfg.pipeline != Pipeline::OptOnly,
        "pressure cells are far-memory cells"
    );
    let module = match prepare(m, cfg.pipeline) {
        Ok(module) => module,
        Err(obs) => return (obs, PressureRunStats::default()),
    };
    let mut vm = Vm::new(
        module.clone(),
        RuntimeConfig::new(cfg.pinned, cfg.cache).with_pressure(PressureConfig::governed()),
        SimTransport::default(),
        cfg.policy,
        cfg.k,
    );
    vm.runtime_mut().set_pressure_schedule(sched);
    let obs = observe_run(&mut vm);
    let g = vm.runtime().stats();
    let stats = PressureRunStats {
        pressure_high_crossings: g.pressure_high_crossings,
        proactive_evictions: g.proactive_evictions,
        phase_changes: g.pressure_phase_changes,
        resolves: g.resolves,
        hint_demotions: g.hint_demotions,
        hint_promotions: g.hint_promotions,
        spills: g.spill_reads + g.spill_writes,
        pin_starvations: g.pin_starvations,
        pressured_cycles: g.cycles,
        clean_cycles: clean_cycles(module, cfg),
    };
    (obs, stats)
}

/// Aggregated outcome of one pressure-matrix cell across a whole campaign.
#[derive(Clone, Debug, Default)]
pub struct PressureCellReport {
    /// The cell's [`RunConfig::label`].
    pub label: String,
    /// Seeds that diverged from the all-local oracle in this cell.
    pub divergent: Vec<u64>,
    /// Summed governor counters over every seed.
    pub stats: PressureRunStats,
}

/// Outcome of [`run_pressure_campaign`].
#[derive(Clone, Debug, Default)]
pub struct PressureReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Per-cell aggregates, in [`pressure_matrix`] order.
    pub cells: Vec<PressureCellReport>,
    /// Seeds with at least one diverging cell.
    pub divergent: Vec<u64>,
    /// One human-readable line per divergence.
    pub log: Vec<String>,
}

/// Fuzz `seeds` generated programs through [`pressure_matrix`]: every cell
/// must match the all-local oracle even while the local tier starves and
/// recovers mid-run.
pub fn run_pressure_campaign(seeds: u64, start_seed: u64, gen: GenConfig) -> PressureReport {
    let matrix = pressure_matrix();
    let mut report = PressureReport {
        cells: matrix
            .iter()
            .map(|c| PressureCellReport {
                label: c.label(),
                ..Default::default()
            })
            .collect(),
        ..Default::default()
    };
    for seed in start_seed..start_seed + seeds {
        let module = generate(seed, gen);
        let oracle = observe_oracle(&module);
        report.seeds_run += 1;
        let mut seed_diverged = false;
        for (i, cfg) in matrix.iter().enumerate() {
            let (got, stats) = observe_pressure(&module, cfg);
            let cell = &mut report.cells[i];
            cell.stats.pressure_high_crossings += stats.pressure_high_crossings;
            cell.stats.proactive_evictions += stats.proactive_evictions;
            cell.stats.phase_changes += stats.phase_changes;
            cell.stats.resolves += stats.resolves;
            cell.stats.hint_demotions += stats.hint_demotions;
            cell.stats.hint_promotions += stats.hint_promotions;
            cell.stats.spills += stats.spills;
            cell.stats.pin_starvations += stats.pin_starvations;
            cell.stats.pressured_cycles += stats.pressured_cycles;
            cell.stats.clean_cycles += stats.clean_cycles;
            if got != oracle {
                cell.divergent.push(seed);
                seed_diverged = true;
                report.log.push(format!(
                    "seed {seed} [{}]: oracle {oracle} vs {got}",
                    cfg.label()
                ));
            }
        }
        if seed_diverged {
            report.divergent.push(seed);
        }
    }
    report
}

/// One configuration disagreeing with the oracle.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// The matrix cell that disagreed.
    pub config: RunConfig,
    /// What it observed instead.
    pub got: Observation,
}

/// Differential result for one program.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedReport {
    /// The testgen seed (0 for hand-supplied modules).
    pub seed: u64,
    /// Ground-truth observation.
    pub oracle: Observation,
    /// Every matrix cell that diverged from the oracle.
    pub divergences: Vec<Divergence>,
}

/// The replay-determinism cell: compiling the same program twice must
/// yield an identical attribution-site table (site IDs are a function of
/// the program, not of compile order), and running the two compiles under
/// the same seed + config must emit byte-identical profile JSON and
/// causal-trace exports (span trees, phase totals, anomaly triggers —
/// schema `cards-ttrace-v1`), each trace passing [`cards_vm::check_traces`].
/// Spans are timestamped off the modeled clock and keyed by deterministic
/// ids, so any wall-clock or iteration-order leak shows up here as a byte
/// diff; any instability poisons cross-run profile and trace diffs, so it
/// is checked for every fuzzed seed alongside the behavioural matrix.
/// Returns one message per failed check.
pub fn check_replay_determinism(m: &Module) -> Vec<String> {
    let prep = |m: &Module| {
        let mut m = m.clone();
        optimize(&mut m);
        m
    };
    let c1 = match compile(prep(m), CompileOptions::cards()) {
        Ok(c) => c,
        // Uncompilable programs have no profile or trace to destabilize.
        Err(_) => return Vec::new(),
    };
    let c2 = match compile(prep(m), CompileOptions::cards()) {
        Ok(c) => c,
        Err(e) => return vec![format!("replay determinism: recompile: {e}")],
    };
    let mut errors = Vec::new();
    let sites_stable = c1.module.sites == c2.module.sites;
    if !sites_stable {
        errors.push(format!(
            "profile determinism: site table unstable across recompiles: {} vs {} sites",
            c1.module.sites.len(),
            c2.module.sites.len()
        ));
    }
    let run = |module: Module| {
        let mut vm = Vm::new(
            module,
            RuntimeConfig::new(0, 6 * 4096),
            FaultyTransport::new(SimTransport::default(), 0.2, 0xfa17),
            RemotingPolicy::MaxUse,
            50,
        );
        // A trapping program must trap, profile and trace identically too.
        let _ = vm.run("main", &[]);
        let trace = cards_vm::check_traces(&vm).map(|()| cards_vm::ttrace_json(&vm));
        (cards_vm::profile_json(&vm), trace)
    };
    let ((p1, t1), (p2, t2)) = (run(c1.module), run(c2.module));
    if sites_stable && p1 != p2 {
        errors.push(
            "profile determinism: profile output not byte-identical under same-seed replay".into(),
        );
    }
    match (t1, t2) {
        (Err(e), _) | (_, Err(e)) => errors.push(format!("trace determinism: {e}")),
        (Ok(t1), Ok(t2)) if t1 != t2 => errors.push(
            "trace determinism: trace export not byte-identical under same-seed replay".into(),
        ),
        _ => {}
    }
    errors
}

/// Remove the `"counters":{...}` span (the single interleaving-dependent
/// region of the fleet export), brace-matched, so two runs can be
/// byte-compared.
fn strip_fleet_counters(s: &str) -> String {
    let key = "\"counters\":";
    let start = match s.find(key) {
        Some(i) => i,
        None => return s.to_string(),
    };
    let bytes = s.as_bytes();
    let open = start + key.len();
    if bytes.get(open) != Some(&b'{') {
        return s.to_string();
    }
    let mut depth = 0usize;
    let mut end = open;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == b'{' {
            depth += 1;
        } else if b == b'}' {
            depth -= 1;
            if depth == 0 {
                end = i + 1;
                break;
            }
        }
    }
    format!("{}{}", &s[..start], &s[end..])
}

/// The fleet-determinism cell: two identical fault-free replicated serving
/// runs must emit byte-identical `cards-fleet-v1` exports once the
/// trailing `"counters"` subobject (shared tier tallies, the one
/// interleaving-dependent region) is stripped. Any wall-clock timestamp,
/// thread-id, or map-iteration-order leak in the fleet collector shows up
/// here as a byte diff.
pub fn check_fleet_determinism() -> Result<(), String> {
    use cards_ir::{BinOp, FunctionBuilder, Intrinsic, Type, Value};
    use cards_net::{NetworkModel, ShardedConfig};
    use cards_vm::{fleet_json, run_serving, ServeSpec};

    // A tiny split serving workload (the workloads crate would be a
    // dependency cycle): `setup` fills two 4 KiB arrays; `request` reads a
    // hashed slot of both. Starved of cache, the serve phase
    // localize-thrashes and produces the traced wire traffic the fleet
    // plane joins.
    let n = 512i64;
    let mut m = Module::new("fleet-mini");
    let ga = m.add_global("arr_a", Type::Ptr, None);
    let gb = m.add_global("arr_b", Type::Ptr, None);
    {
        let mut b = FunctionBuilder::new("setup", vec![], Type::I64);
        let total = b.iconst(n * 8);
        let a = b.alloc(total, Type::I64);
        let c = b.alloc(total, Type::I64);
        let (z, one) = (b.iconst(0), b.iconst(1));
        b.counted_loop(z, b.iconst(n), one, |b, i| {
            let pa = b.gep_index(a, Type::I64, i);
            let va = b.mul(i, b.iconst(7));
            b.store(pa, va, Type::I64);
            let pb = b.gep_index(c, Type::I64, i);
            let vb = b.mul(i, b.iconst(11));
            b.store(pb, vb, Type::I64);
        });
        b.store(Value::Global(ga), a, Type::Ptr);
        b.store(Value::Global(gb), c, Type::Ptr);
        b.ret(b.iconst(n));
        m.add_function(b.finish());
    }
    {
        let mut b = FunctionBuilder::new("request", vec![Type::I64, Type::I64], Type::I64);
        let a = b.load(Value::Global(ga), Type::Ptr);
        let c = b.load(Value::Global(gb), Type::Ptr);
        let (t, i) = (b.arg(0), b.arg(1));
        let x = b.bin(BinOp::Xor, t, i, Type::I64);
        let h = b.intrin(Intrinsic::Hash64, vec![x]);
        let mask = b.iconst(n - 1);
        let k = b.bin(BinOp::And, h, mask, Type::I64);
        let pa = b.gep_index(a, Type::I64, k);
        let va = b.load(pa, Type::I64);
        let pb = b.gep_index(c, Type::I64, k);
        let vb = b.load(pb, Type::I64);
        let v = b.add(va, vb);
        b.ret(v);
        m.add_function(b.finish());
    }
    if !verify_module(&m).is_empty() {
        return Err("fleet-mini module fails verification".into());
    }
    let c = compile(m, CompileOptions::cards()).map_err(|e| format!("compile: {e}"))?;
    let mut net = ShardedConfig {
        shards: 2,
        train_len: 4,
        window: 2,
        ..ShardedConfig::default()
    };
    net.replica.replicas = 2;
    let spec = ServeSpec {
        workers: 2,
        tenants: 8,
        ops_per_tenant: 16,
        net,
        model: NetworkModel::default(),
    };
    let cfg = RuntimeConfig::new(0, 4096);
    let mut exports = Vec::new();
    for run in 0..2 {
        let r = run_serving(&c.module, spec, cfg, RemotingPolicy::AllRemotable, 0)
            .map_err(|e| format!("serving run {run}: {e}"))?;
        cards_vm::check_fleet(&r).map_err(|e| format!("fleet invariants (run {run}): {e}"))?;
        exports.push(fleet_json("fleet-mini", &spec, &r));
    }
    let (a, b) = (
        strip_fleet_counters(&exports[0]),
        strip_fleet_counters(&exports[1]),
    );
    if a.len() >= exports[0].len() {
        return Err("fleet export carries no counters region to strip".into());
    }
    if a != b {
        return Err(
            "fleet export not byte-identical across identical runs outside counters".into(),
        );
    }
    Ok(())
}

/// Compare `m` against the oracle under every cell of [`config_matrix`],
/// plus the replay-determinism cell.
pub fn check_module(m: &Module, seed: u64) -> SeedReport {
    let oracle = observe_oracle(m);
    let mut divergences = Vec::new();
    for cfg in config_matrix() {
        let got = observe(m, &cfg);
        if got != oracle {
            divergences.push(Divergence { config: cfg, got });
        }
    }
    // Both replay checks run the one cell this config describes.
    let replay_cell = RunConfig {
        pipeline: Pipeline::Cards,
        policy: RemotingPolicy::MaxUse,
        fault: fault_schedules()[1],
        chaos: ChaosSpec::None,
        pressure: PressureSpec::None,
        pinned: 0,
        cache: 6 * 4096,
        k: 50,
    };
    for error in check_replay_determinism(m) {
        divergences.push(Divergence {
            config: replay_cell,
            got: Observation {
                ret: None,
                digest: None,
                error: Some(error),
            },
        });
    }
    SeedReport {
        seed,
        oracle,
        divergences,
    }
}

/// Generate the program for `seed` and compare it across the matrix.
pub fn check_seed(seed: u64, gen: GenConfig) -> SeedReport {
    check_module(&generate(seed, gen), seed)
}

/// Shrink a diverging module while it still diverges from its own oracle
/// under at least one of `cfgs` (the originally-failing cells — re-checking
/// only those keeps minimization cheap).
pub fn minimize_divergence(m: &Module, cfgs: &[RunConfig]) -> Module {
    minimize(
        m,
        &|cand| {
            let oracle = observe_oracle(cand);
            if oracle.error.is_some() {
                // A shrink that makes the oracle itself trap is not the
                // same bug; reject it.
                return false;
            }
            cfgs.iter().any(|c| observe(cand, c) != oracle)
        },
        8,
    )
}

/// Campaign parameters for [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of seeds to fuzz.
    pub seeds: u64,
    /// First seed (seeds are `start_seed..start_seed + seeds`).
    pub start_seed: u64,
    /// Program-shape knobs handed to testgen.
    pub gen: GenConfig,
    /// Delta-debug diverging seeds down to minimal reproducers.
    pub minimize: bool,
    /// Where to persist reproducers (`None` disables persistence).
    pub out_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seeds: 50,
            start_seed: 1,
            gen: GenConfig::adversarial(),
            minimize: false,
            out_dir: None,
        }
    }
}

/// Campaign outcome.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Matrix cells compared per seed.
    pub configs_per_seed: usize,
    /// Seeds with at least one divergence.
    pub divergent: Vec<u64>,
    /// One human-readable line per divergence.
    pub log: Vec<String>,
    /// Reproducer files written under `out_dir`.
    pub artifacts: Vec<PathBuf>,
}

fn persist_reproducer(
    dir: &Path,
    report: &SeedReport,
    module: &Module,
    minimized: Option<&Module>,
    artifacts: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let orig = dir.join(format!("seed_{}.orig.cir", report.seed));
    fs::write(&orig, print_module(module))?;
    artifacts.push(orig);
    if let Some(min) = minimized {
        let minp = dir.join(format!("seed_{}.min.cir", report.seed));
        fs::write(&minp, print_module(min))?;
        artifacts.push(minp);
    }
    let mut txt = format!(
        "seed: {}\noracle: {}\ndivergences: {}\n",
        report.seed,
        report.oracle,
        report.divergences.len()
    );
    for d in &report.divergences {
        txt.push_str(&format!("  [{}] {}\n", d.config.label(), d.got));
    }
    let rep = dir.join(format!("seed_{}.report.txt", report.seed));
    fs::write(&rep, txt)?;
    artifacts.push(rep);
    Ok(())
}

/// Fuzz `cfg.seeds` generated programs through the whole matrix, persisting
/// (optionally minimized) reproducers for every divergence found.
pub fn run_campaign(cfg: &CampaignConfig) -> std::io::Result<CampaignReport> {
    let mut report = CampaignReport {
        configs_per_seed: config_matrix().len(),
        ..Default::default()
    };
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        let module = generate(seed, cfg.gen);
        let sr = check_module(&module, seed);
        report.seeds_run += 1;
        if sr.divergences.is_empty() {
            continue;
        }
        report.divergent.push(seed);
        for d in &sr.divergences {
            report.log.push(format!(
                "seed {} [{}]: oracle {} vs {}",
                seed,
                d.config.label(),
                sr.oracle,
                d.got
            ));
        }
        let minimized = if cfg.minimize {
            let cfgs: Vec<RunConfig> = sr.divergences.iter().map(|d| d.config).collect();
            Some(minimize_divergence(&module, &cfgs))
        } else {
            None
        };
        if let Some(dir) = &cfg.out_dir {
            persist_reproducer(dir, &sr, &module, minimized.as_ref(), &mut report.artifacts)?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cards_ir::{BinOp, CastOp, FunctionBuilder, Inst, Type, Value};

    #[test]
    fn matrix_covers_policies_pipelines_and_fault_schedules() {
        let m = config_matrix();
        assert_eq!(m.len(), 25);
        let far: Vec<&RunConfig> = m
            .iter()
            .filter(|c| c.pipeline != Pipeline::OptOnly)
            .collect();
        for p in policies() {
            assert!(far.iter().any(|c| c.policy == p), "missing policy {p:?}");
        }
        let faulty = far.iter().filter(|c| c.fault.rate > 0.0).count();
        let clean = far
            .iter()
            .filter(|c| {
                c.fault.rate == 0.0
                    && c.chaos == ChaosSpec::None
                    && c.pressure == PressureSpec::None
            })
            .count();
        let chaos = far.iter().filter(|c| c.chaos != ChaosSpec::None).count();
        let pressure = far
            .iter()
            .filter(|c| c.pressure != PressureSpec::None)
            .count();
        assert_eq!(faulty, 8, "each far cell pairs with a faulty twin");
        assert_eq!(clean, 8);
        assert_eq!(chaos, 4, "both pipelines see storm and crash chaos");
        assert_eq!(pressure, 4, "both pipelines see pressure schedules");
        for pipeline in [Pipeline::TrackFm, Pipeline::Cards] {
            assert!(far
                .iter()
                .any(|c| c.pipeline == pipeline && matches!(c.chaos, ChaosSpec::Storm(_))));
            assert!(far
                .iter()
                .any(|c| c.pipeline == pipeline && matches!(c.chaos, ChaosSpec::Crash(_))));
            assert!(far
                .iter()
                .any(|c| c.pipeline == pipeline && c.pressure != PressureSpec::None));
        }
        // Every pressure schedule kind appears somewhere in the sample.
        for spec in [
            PressureSpec::Squeeze,
            PressureSpec::Cliff,
            PressureSpec::Sawtooth,
        ] {
            assert!(far.iter().any(|c| c.pressure == spec), "missing {spec:?}");
        }
        assert!(m.iter().any(|c| c.pipeline == Pipeline::OptOnly));
        assert!(m.iter().any(|c| c.pipeline == Pipeline::TrackFm));
        assert!(m.iter().any(|c| c.pipeline == Pipeline::Cards));
    }

    #[test]
    fn chaos_matrix_is_the_full_cross_product() {
        let m = chaos_matrix();
        assert_eq!(m.len(), 16, "2 pipelines x 4 policies x 2 chaos kinds");
        assert!(m.iter().all(|c| c.chaos != ChaosSpec::None));
        let labels: std::collections::HashSet<String> = m.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), m.len());
    }

    #[test]
    fn pressure_matrix_is_the_full_cross_product() {
        let m = pressure_matrix();
        assert_eq!(m.len(), 24, "2 pipelines x 4 policies x 3 schedules");
        assert!(m.iter().all(|c| c.pressure != PressureSpec::None));
        assert!(m.iter().all(|c| c.chaos == ChaosSpec::None));
        assert!(
            m.iter().all(|c| c.pinned > 0),
            "schedules need a pinned budget to shrink"
        );
        let labels: std::collections::HashSet<String> = m.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), m.len());
    }

    /// A slice of the acceptance bar (the CI campaign runs the full seed
    /// range): a starving, recovering local tier — watermark sweeps,
    /// spills, forced re-solves — must never change observable behaviour,
    /// and the schedules must actually fire so the governor is exercised,
    /// not skipped.
    #[test]
    fn pressure_campaign_sample_matches_oracle() {
        let r = run_pressure_campaign(3, 1, GenConfig::chaos());
        assert_eq!(r.seeds_run, 3);
        assert!(
            r.divergent.is_empty(),
            "pressure must not change results: {:?}\n{}",
            r.divergent,
            r.log.join("\n")
        );
        let phases: u64 = r.cells.iter().map(|c| c.stats.phase_changes).sum();
        assert!(phases > 0, "pressure phases must fire across the campaign");
        let activity: u64 = r
            .cells
            .iter()
            .map(|c| {
                c.stats.pressure_high_crossings
                    + c.stats.proactive_evictions
                    + c.stats.spills
                    + c.stats.resolves
            })
            .sum();
        assert!(activity > 0, "the governor must actually do something");
    }

    #[test]
    fn oracle_runs_adversarial_programs_clean() {
        for seed in [1, 2, 3] {
            let m = generate(seed, GenConfig::adversarial());
            let o = observe_oracle(&m);
            assert!(o.error.is_none(), "seed {seed}: {o}");
            assert!(o.digest.is_some(), "generated programs carry @digest");
        }
    }

    #[test]
    fn observations_are_deterministic() {
        let a = check_seed(5, GenConfig::adversarial());
        let b = check_seed(5, GenConfig::adversarial());
        assert_eq!(a, b);
    }

    /// The replay-determinism cell holds on fuzzed programs: recompiling
    /// and replaying under the same fault seed emits byte-identical
    /// profile and cards-ttrace-v1 exports.
    #[test]
    fn trace_exports_are_replay_deterministic() {
        for seed in [1, 2, 3] {
            let m = generate(seed, GenConfig::adversarial());
            let errors = check_replay_determinism(&m);
            assert!(errors.is_empty(), "seed {seed}: {errors:?}");
        }
    }

    /// The fleet-determinism cell holds: two identical replicated serving
    /// runs emit byte-identical cards-fleet-v1 exports outside the stripped
    /// counters region.
    #[test]
    fn fleet_exports_are_replay_deterministic() {
        check_fleet_determinism().expect("fleet determinism");
    }

    #[test]
    fn fleet_counter_strip_is_brace_matched() {
        let doc = r#"{"a":1,"counters":{"x":{"y":[1,2]},"z":3},"b":2}"#;
        assert_eq!(strip_fleet_counters(doc), r#"{"a":1,,"b":2}"#);
        assert_eq!(strip_fleet_counters("{}"), "{}");
    }

    /// A semantic corruption of the program (swapped branch targets) must be
    /// visible through the (ret, digest) observation on at least some seeds —
    /// otherwise the oracle would be too weak to catch real miscompiles.
    #[test]
    fn oracle_detects_planted_branch_swap() {
        let mut caught = 0;
        for seed in 1..12u64 {
            let m = generate(seed, GenConfig::adversarial());
            let base = observe_oracle(&m);
            assert!(base.error.is_none());
            let mut bad = m.clone();
            let mut swapped = false;
            for f in &mut bad.functions {
                for inst in &mut f.insts {
                    if let Inst::CondBr { then_b, else_b, .. } = inst {
                        if then_b != else_b && !swapped {
                            std::mem::swap(then_b, else_b);
                            swapped = true;
                        }
                    }
                }
            }
            assert!(verify_module(&bad).is_empty(), "swap keeps IR well-formed");
            if swapped && observe_oracle(&bad) != base {
                caught += 1;
            }
        }
        assert!(caught >= 3, "branch swaps went unnoticed ({caught}/11)");
    }

    /// End-to-end folder↔VM pin for the arithmetic corners: a one-instruction
    /// program per corner, run unoptimized (VM evaluator) and under the
    /// optimizer-only cell (constant folder). Both sides must agree — this is
    /// the differential form of the `consteval` unit tests.
    #[test]
    fn folder_matches_vm_on_corner_ops() {
        let corners: &[(BinOp, i64, i64, Type)] = &[
            (BinOp::Shl, 1, 63, Type::I64),
            (BinOp::Shl, 1, 64, Type::I64),
            (BinOp::Shl, 1, 65, Type::I64),
            (BinOp::Shl, -1, 1, Type::I32),
            (BinOp::LShr, -1, 1, Type::I64),
            (BinOp::LShr, -1, 64, Type::I64),
            (BinOp::AShr, i64::MIN, 1, Type::I64),
            (BinOp::AShr, -8, 2, Type::I8),
            (BinOp::AShr, 1, -1, Type::I64),
            (BinOp::SDiv, i64::MIN, -1, Type::I64),
            (BinOp::SRem, i64::MIN, -1, Type::I64),
            (BinOp::SDiv, 7, 0, Type::I64),
            (BinOp::UDiv, -1, 3, Type::I64),
            (BinOp::URem, -1, 10, Type::I64),
            (BinOp::UDiv, -1, 0, Type::I64),
            (BinOp::Add, i64::MAX, 1, Type::I64),
            (BinOp::Add, 127, 1, Type::I8),
            (BinOp::Mul, i64::MIN, -1, Type::I64),
            (BinOp::Sub, -0x8000_0000, 1, Type::I32),
        ];
        let opt_only = config_matrix()[0];
        assert_eq!(opt_only.pipeline, Pipeline::OptOnly);
        for &(op, a, b, ty) in corners {
            let mut m = Module::new("corner");
            let mut bld = FunctionBuilder::new("main", vec![], Type::I64);
            let r = bld.bin(op, Value::ConstInt(a), Value::ConstInt(b), ty);
            let wide = bld.cast(CastOp::IntResize, r, Type::I64);
            bld.ret(wide);
            m.add_function(bld.finish());
            let oracle = observe_oracle(&m);
            let folded = observe(&m, &opt_only);
            assert_eq!(
                oracle, folded,
                "{op:?} {a} {b} {ty:?}: vm {oracle} vs folder {folded}"
            );
        }
    }

    /// Reproducer persistence, driven directly (the campaign only reaches it
    /// on a divergence, which a healthy pipeline never produces): original +
    /// minimized IR parse back, and the report names the failing cell.
    #[test]
    fn reproducers_round_trip_through_disk() {
        let m = generate(2, GenConfig::adversarial());
        let sr = SeedReport {
            seed: 2,
            oracle: observe_oracle(&m),
            divergences: vec![Divergence {
                config: config_matrix()[3],
                got: Observation {
                    ret: Some(1),
                    digest: Some(2),
                    error: None,
                },
            }],
        };
        let dir = std::env::temp_dir().join("cards_difftest_persist");
        let mut artifacts = Vec::new();
        persist_reproducer(&dir, &sr, &m, Some(&m), &mut artifacts).unwrap();
        assert_eq!(artifacts.len(), 3);
        for p in &artifacts {
            assert!(p.exists(), "{} missing", p.display());
        }
        let orig = fs::read_to_string(dir.join("seed_2.orig.cir")).unwrap();
        let parsed = cards_ir::parse_module(&orig).expect("reproducer parses back");
        assert!(verify_module(&parsed).is_empty());
        let report = fs::read_to_string(dir.join("seed_2.report.txt")).unwrap();
        assert!(report.contains(&config_matrix()[3].label()));
        assert!(report.contains("divergences: 1"));
    }

    /// A slice of the acceptance bar (the CI campaign runs the full seed
    /// range): chaos — including mid-run server crash/restart — must never
    /// change observable behaviour, and the crash phases must actually
    /// fire so the journal recovery path is exercised, not skipped.
    #[test]
    fn chaos_campaign_sample_matches_oracle() {
        let r = run_chaos_campaign(3, 1, GenConfig::chaos());
        assert_eq!(r.seeds_run, 3);
        assert!(
            r.divergent.is_empty(),
            "chaos must not change results: {:?}\n{}",
            r.divergent,
            r.log.join("\n")
        );
        let crashes: u64 = r.cells.iter().map(|c| c.stats.crashes_detected).sum();
        let retries: u64 = r.cells.iter().map(|c| c.stats.retries).sum();
        assert!(crashes > 0, "crash phases must fire across the campaign");
        assert!(retries > 0, "chaos must force retries");
        for c in &r.cells {
            assert!(
                c.stats.chaos_cycles >= c.stats.clean_cycles,
                "{}: chaos may cost cycles, never save them",
                c.label
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let m = config_matrix();
        let labels: std::collections::HashSet<String> = m.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), m.len());
    }
}
