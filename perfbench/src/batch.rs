//! The batch workload, `run-starved`: kvstore and bfs at default sizes,
//! CaRDS-compiled, every structure remotable, nothing pinned and a
//! remotable cache of one eighth of the working set, over the in-process
//! `SimTransport`.
//!
//! Set-up builds, compiles and loads both applications. The measured phase
//! repeats passes over them; one pass (one run of each application) is the
//! workload's request, the batch counterpart of a `serve` request. Every
//! run is checked against the application's native `reference()` and
//! against the first pass's counters, which must repeat exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use cards_dsa::ModuleDsa;
use cards_ir::{verify_module, Module};
use cards_net::{SimTransport, Transport};
use cards_passes::{
    analyze_prefetch, compile, eliminate_redundant_guards, insert_guards, pool_allocate,
    rank_instances, version_loops, CompileOptions, Compiled,
};
use cards_runtime::{RemotingPolicy, RuntimeConfig, TelemetryConfig, TraceConfig};
use cards_vm::Vm;
use cards_workloads::{bfs, kvstore};

use crate::spans::{SpanDump, SpanLog, Timed};
use crate::stats::{self, median};
use crate::{Checks, Mode, Opts, Outcome};

/// Modeled and host-side counters of one operation, summed over a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// VM instructions retired.
    pub instructions: u64,
    /// Modeled cycles.
    pub cycles: u64,
    /// Guard instructions executed.
    pub guards: u64,
    /// Versioned loops that took the uninstrumented path.
    pub fast_path: u64,
    /// Versioned loops that stayed instrumented.
    pub slow_path: u64,
    /// Derefs resolved locally.
    pub derefs_local: u64,
    /// Derefs that fetched.
    pub derefs_remote: u64,
    /// Objects evicted.
    pub evictions: u64,
    /// Dirty evictions written back.
    pub writebacks: u64,
    /// Objects prefetched.
    pub prefetch_issued: u64,
    /// Prefetched objects later used.
    pub prefetch_useful: u64,
    /// Payload bytes over the transport.
    pub net_bytes: u64,
}

impl Counts {
    /// Read the VM's and runtime's counters (through the stats accessors).
    pub fn of<T: Transport>(vm: &Vm<T>, log: &SpanLog) -> Counts {
        let m = *vm.metrics();
        let rt = vm.runtime();
        let (s, net) = log.span("runtime.stats", || (rt.stats(), rt.net_stats()));
        let mut c = Counts {
            instructions: m.instructions,
            cycles: m.cycles,
            guards: m.guards,
            fast_path: m.fast_path_taken,
            slow_path: m.slow_path_taken,
            derefs_local: s.derefs_local,
            derefs_remote: s.derefs_remote,
            net_bytes: net.total_bytes(),
            ..Counts::default()
        };
        log.span("runtime.ds_stats", || {
            for h in 0..rt.ds_count() {
                if let Some(d) = rt.ds_stats(h as u16) {
                    c.evictions += d.evictions;
                    c.writebacks += d.writebacks;
                    c.prefetch_issued += d.prefetch_issued;
                    c.prefetch_useful += d.prefetch_useful;
                }
            }
        });
        c
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.guards += o.guards;
        self.fast_path += o.fast_path;
        self.slow_path += o.slow_path;
        self.derefs_local += o.derefs_local;
        self.derefs_remote += o.derefs_remote;
        self.evictions += o.evictions;
        self.writebacks += o.writebacks;
        self.prefetch_issued += o.prefetch_issued;
        self.prefetch_useful += o.prefetch_useful;
        self.net_bytes += o.net_bytes;
    }

    /// Field-wise difference (`self` taken after `before`).
    pub fn since(&self, before: &Counts) -> Counts {
        Counts {
            instructions: self.instructions - before.instructions,
            cycles: self.cycles - before.cycles,
            guards: self.guards - before.guards,
            fast_path: self.fast_path - before.fast_path,
            slow_path: self.slow_path - before.slow_path,
            derefs_local: self.derefs_local - before.derefs_local,
            derefs_remote: self.derefs_remote - before.derefs_remote,
            evictions: self.evictions - before.evictions,
            writebacks: self.writebacks - before.writebacks,
            prefetch_issued: self.prefetch_issued - before.prefetch_issued,
            prefetch_useful: self.prefetch_useful - before.prefetch_useful,
            net_bytes: self.net_bytes - before.net_bytes,
        }
    }
}

/// What the CaRDS pipeline did to one module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileCounts {
    /// Instructions before the passes.
    pub insts_in: u64,
    /// Disjoint data structures DSA found.
    pub instances: u64,
    /// Instructions after the passes.
    pub insts_out: u64,
    /// Guards inserted.
    pub guards_inserted: u64,
    /// Guards removed as redundant.
    pub guards_elided: u64,
    /// Loops given an uninstrumented fast path.
    pub versioned_loops: u64,
}

impl CompileCounts {
    /// Counters of one compile of a module with `src_insts` instructions.
    pub fn of(src_insts: u64, c: &Compiled) -> CompileCounts {
        CompileCounts {
            insts_in: src_insts,
            instances: c.dsa.instances.len() as u64,
            insts_out: insts(&c.module),
            guards_inserted: c.guard_stats.inserted as u64,
            guards_elided: c.guard_stats.elided as u64,
            versioned_loops: c.versioned_loops as u64,
        }
    }

    fn add(&mut self, o: &CompileCounts) {
        self.insts_in += o.insts_in;
        self.instances += o.instances;
        self.insts_out += o.insts_out;
        self.guards_inserted += o.guards_inserted;
        self.guards_elided += o.guards_elided;
        self.versioned_loops += o.versioned_loops;
    }
}

/// Instructions reachable from the blocks of every function.
pub fn insts(m: &Module) -> u64 {
    m.funcs().map(|(_, f)| f.iter_insts().count() as u64).sum()
}

/// Host times of `compile()` calls, per module.
#[derive(Debug, Default)]
pub struct CompileTimes(BTreeMap<String, Vec<f64>>);

impl CompileTimes {
    /// Record one call's time for `module`.
    pub fn push(&mut self, module: &str, ns: u64) {
        self.0
            .entry(module.to_string())
            .or_default()
            .push(ns as f64);
    }

    /// Mean over modules of each module's median call, in milliseconds.
    /// A median over all calls would jump between modules of different
    /// sizes from run to run.
    pub fn ms(&self) -> f64 {
        let medians: Vec<f64> = self.0.values().map(|v| median(v)).collect();
        medians.iter().sum::<f64>() / medians.len().max(1) as f64 / 1e6
    }

    /// Calls recorded.
    pub fn calls(&self) -> usize {
        self.0.values().map(Vec::len).sum()
    }
}

/// Replay `compile()`'s public pass sequence on a copy of `src`, one span
/// per pass. `compile()` minus these spans is the private remainder
/// (site annotation and the final verify).
pub fn replay_passes(src: &Module, opts: CompileOptions, log: &SpanLog) {
    let mut m = src.clone();
    log.span("passes.replay", || {
        if !log.span("ir.verify", || verify_module(&m)).is_empty() {
            return;
        }
        let dsa = log.span("dsa.analyze", || ModuleDsa::analyze(&m));
        let (prefetch, priorities) = log.span("passes.prefetch", || {
            (
                analyze_prefetch(&m, &dsa, opts.prefetch),
                rank_instances(&dsa),
            )
        });
        let pool = log.span("passes.pool_alloc", || {
            pool_allocate(&mut m, &dsa, &prefetch, &priorities)
        });
        let Ok(pool) = pool else {
            return;
        };
        log.span("passes.guards", || {
            insert_guards(&mut m, &dsa, opts.guard_all)
        });
        if opts.eliminate_redundant {
            log.span("passes.elim", || {
                eliminate_redundant_guards(&mut m, &dsa, &pool)
            });
        }
        if opts.versioning {
            log.span("passes.versioning", || version_loops(&mut m, &dsa, &pool));
        }
    });
}

/// Telemetry and tracing off, for the observability companion run.
fn without_observability(mut cfg: RuntimeConfig) -> RuntimeConfig {
    cfg.telemetry = TelemetryConfig::disabled();
    cfg.trace = TraceConfig::disabled();
    cfg
}

/// One application, compiled in set-up; one run is one operation.
pub struct App {
    /// Application name.
    pub name: &'static str,
    /// The CaRDS-compiled module.
    pub module: Module,
    /// Runtime budgets: pinned 0, remotable cache of 1/8 of the working set.
    pub cfg: RuntimeConfig,
    /// What the compile did (counted once per pass).
    pub cc: CompileCounts,
    /// `main`'s expected return value (the native `reference()`).
    pub expected: i64,
}

/// Result of one application run.
#[derive(Clone, Debug)]
pub struct OpOut {
    /// Host nanoseconds of `Vm::run`.
    pub ns: u64,
    /// Counters of the run.
    pub counts: Counts,
    /// `main`'s return value, or the error that stopped the run.
    pub observed: Result<i64, String>,
}

/// Run one application over `transport`.
pub fn run_op<T: Transport>(app: &App, transport: T, log: &SpanLog, obs_off: bool) -> OpOut {
    let cfg = if obs_off {
        without_observability(app.cfg)
    } else {
        app.cfg
    };
    let module = app.module.clone();
    let mut vm = log.span("vm.new", || {
        Vm::new(module, cfg, transport, RemotingPolicy::AllRemotable, 0)
    });
    let t0 = Instant::now();
    let r = log.span("vm.run", || vm.run("main", &[]));
    let ns = t0.elapsed().as_nanos() as u64;
    OpOut {
        ns,
        counts: Counts::of(&vm, log),
        observed: r.map(|v| v.unwrap_or(0) as i64).map_err(|e| e.to_string()),
    }
}

/// One application of the workload.
struct AppSpec {
    name: &'static str,
    build: Box<dyn Fn() -> Module>,
    reference: Box<dyn Fn() -> i64>,
    ws: u64,
}

fn app_specs(quick: bool) -> Vec<AppSpec> {
    let (kv_p, bfs_p) = if quick {
        (kvstore::KvParams::test(), bfs::BfsParams::test())
    } else {
        (kvstore::KvParams::default(), bfs::BfsParams::default())
    };
    vec![
        AppSpec {
            name: "kvstore",
            build: Box::new(move || kvstore::build(kv_p).0),
            reference: Box::new(move || kvstore::reference(kv_p)),
            ws: kv_p.working_set_bytes(),
        },
        AppSpec {
            name: "bfs",
            build: Box::new(move || bfs::build(bfs_p).0),
            reference: Box::new(move || bfs::reference(bfs_p)),
            ws: bfs_p.working_set_bytes(),
        },
    ]
}

/// Back-to-back calls per batch: one sub-millisecond call is doubled by a
/// single interrupt or cold cache, a batch's mean is not.
const BATCH_CALLS: usize = 8;

/// Time one warm batch of CaRDS compiles of each named source; the batch
/// contributes its mean call time. Called between the passes of a
/// measured phase, so the samples spread over the whole run.
pub fn sample_compiles(sources: &[(String, Module)], times: &mut CompileTimes) {
    for (name, src) in sources {
        let inputs: Vec<Module> = (0..BATCH_CALLS).map(|_| src.clone()).collect();
        let t0 = Instant::now();
        for m in inputs {
            std::hint::black_box(compile(m, CompileOptions::cards()).is_ok());
        }
        times.push(name, t0.elapsed().as_nanos() as u64 / BATCH_CALLS as u64);
    }
}

/// Timed set-ups after every pass of the untimed run; `setup_s` is the
/// median of all of them. One set-up takes under a millisecond, so a
/// single sample shows only the host's speed at that instant; samples
/// spread over the whole run do not.
const SETUPS_PER_PASS: usize = 8;

/// Named source modules, for timing `compile()` between passes.
pub type Sources = Vec<(String, Module)>;

/// Build, compile and load every application (IR build + compile +
/// `Vm::new`); return the applications and their sources. Expected values
/// are left at 0: references are computed outside every timed phase.
fn prepare(quick: bool, log: &SpanLog) -> Result<(Vec<App>, Sources), String> {
    let mut apps = Vec::new();
    let mut sources = Vec::new();
    for spec in app_specs(quick) {
        let src = log.span("workloads.build", || (spec.build)());
        let src_insts = insts(&src);
        let c = log.span("passes.compile", || {
            compile(src.clone(), CompileOptions::cards())
        });
        if log.enabled() {
            replay_passes(&src, CompileOptions::cards(), log);
        }
        let c = c.map_err(|e| format!("{}: {e}", spec.name))?;
        let cfg = RuntimeConfig::new(0, (spec.ws / 8).max(4096));
        let probe = c.module.clone();
        let vm = log.span("vm.new", || {
            Vm::new(
                probe,
                cfg,
                SimTransport::default(),
                RemotingPolicy::AllRemotable,
                0,
            )
        });
        drop(vm);
        apps.push(App {
            name: spec.name,
            cc: CompileCounts::of(src_insts, &c),
            module: c.module,
            cfg,
            expected: 0,
        });
        sources.push((spec.name.to_string(), src));
    }
    Ok((apps, sources))
}

/// Fill in the expected values (timed as `oracle.ms`), rotate the list by
/// the seed and, for the self-test, corrupt one expected value.
fn expect(apps: &mut [App], o: &Opts, checks: &mut Checks) {
    let specs = app_specs(o.quick);
    for app in apps.iter_mut() {
        let spec = specs
            .iter()
            .find(|s| s.name == app.name)
            .expect("known app");
        app.expected = checks.oracle(|| (spec.reference)());
    }
    // The seed picks which application a pass starts with.
    if !apps.is_empty() {
        apps.rotate_left((o.seed % apps.len() as u64) as usize);
    }
    if o.corrupt_expected {
        if let Some(first) = apps.first_mut() {
            first.expected = first.expected.wrapping_add(1);
        }
    }
}

/// A measured phase: passes over the applications until the time is up.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host nanoseconds of each pass (sum of its runs).
    pub pass_ns: Vec<f64>,
    /// The first pass's runs, in application order.
    pub first: Vec<OpOut>,
    /// Instructions retired over all passes.
    pub instructions: u64,
}

impl Phase {
    /// Counters of one pass (every pass's are equal, or a check failed).
    pub fn pass_counts(&self) -> Counts {
        let mut c = Counts::default();
        for op in &self.first {
            c.add(&op.counts);
        }
        c
    }
}

/// Run one pass over `apps` in `mode`, appending to `ph`. Each run is
/// checked against its expected value and, after the first pass, against
/// the first pass's counters: modeled behaviour must repeat exactly.
fn pass(apps: &[App], mode: Mode, log: &SpanLog, checks: &mut Checks, ph: &mut Phase) {
    let quiet = SpanLog::disabled();
    let mut pass_ns = 0u64;
    for (idx, app) in apps.iter().enumerate() {
        let out = match mode {
            Mode::Traced => {
                log.set_group((ph.pass_ns.len() * apps.len() + idx) as u64 + 1);
                log.span("bench.op", || {
                    run_op(
                        app,
                        Timed::new(SimTransport::default(), log.clone()),
                        log,
                        false,
                    )
                })
            }
            Mode::Plain => run_op(app, SimTransport::default(), &quiet, false),
            Mode::ObsOff => run_op(app, SimTransport::default(), &quiet, true),
        };
        let repeat_ok = ph.first.get(idx).is_none_or(|f| f.counts == out.counts);
        let ok = out.observed == Ok(app.expected) && repeat_ok;
        checks.check(ok, 1, || {
            format!(
                "{}: observed {:?}, expected {}, modeled repeat {}",
                app.name,
                out.observed,
                app.expected,
                if repeat_ok { "ok" } else { "DIFFERS" }
            )
        });
        pass_ns += out.ns;
        ph.instructions += out.counts.instructions;
        if ph.first.len() < apps.len() {
            ph.first.push(out);
        }
    }
    ph.pass_ns.push(pass_ns as f64);
}

/// Run the batch workload.
pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let log = if o.trace {
        SpanLog::recording(Instant::now(), 0)
    } else {
        SpanLog::disabled()
    };
    let t0 = Instant::now();
    let (mut apps, sources) = match prepare(o.quick, &log) {
        Ok(p) => p,
        Err(e) => {
            out.checks.check(false, 1, || e);
            return out;
        }
    };
    let mut setup_ns = vec![t0.elapsed().as_nanos() as f64];
    let setup_dump = log.take();
    expect(&mut apps, o, &mut out.checks);
    out.notes.push(format!(
        "applications: {}",
        apps.iter().map(|a| a.name).collect::<Vec<_>>().join(", ")
    ));
    if !o.trace {
        let mut compile = CompileTimes::default();
        let mut ph = Phase::default();
        let t0 = Instant::now();
        loop {
            pass(&apps, Mode::Plain, &log, &mut out.checks, &mut ph);
            sample_compiles(&sources, &mut compile);
            for _ in 0..if o.quick { 1 } else { SETUPS_PER_PASS } {
                let t = Instant::now();
                let prepared = prepare(o.quick, &log);
                setup_ns.push(t.elapsed().as_nanos() as f64);
                std::hint::black_box(prepared.is_ok());
            }
            if t0.elapsed().as_secs_f64() >= o.seconds {
                break;
            }
        }
        report_end_to_end(&mut out, &ph, &setup_ns, &compile);
        return out;
    }
    // The three configurations alternate pass by pass, so a slow stretch
    // of the shared host lands on all of them alike and the ratios between
    // them (trace overhead, observability share) compare like with like.
    let (mut plain, mut traced, mut obs_off) =
        (Phase::default(), Phase::default(), Phase::default());
    let t0 = Instant::now();
    loop {
        pass(&apps, Mode::Plain, &log, &mut out.checks, &mut plain);
        pass(&apps, Mode::Traced, &log, &mut out.checks, &mut traced);
        pass(&apps, Mode::ObsOff, &log, &mut out.checks, &mut obs_off);
        if t0.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
    }
    let phase_dump = log.take();
    // Wrapping the transport and turning observability off must leave the
    // program unchanged: same outputs and counters, run by run.
    for (what, other) in [("traced", &traced), ("observability-off", &obs_off)] {
        for (a, b) in plain.first.iter().zip(&other.first) {
            let same = a.observed == b.observed && a.counts == b.counts;
            out.checks.check(same, 1, || {
                format!(
                    "{what} run differs from the plain one: {:?} {:?} vs {:?} {:?}",
                    b.observed, b.counts, a.observed, a.counts
                )
            });
        }
    }
    report_per_layer(
        &mut out, &apps, &plain, &traced, &obs_off, setup_dump, phase_dump,
    );
    out
}

/// End-to-end metrics. A pass is the request: its host time's median over
/// the run gives `run_s`, `latency_p50_us` and the rates, and its modeled
/// cycles (equal on every pass) give both modeled figures.
fn report_end_to_end(out: &mut Outcome, ph: &Phase, setup_ns: &[f64], compile: &CompileTimes) {
    let pass_s = (median(&ph.pass_ns) / 1e9).max(1e-9);
    let passes = ph.pass_ns.len().max(1) as f64;
    let cycles = ph.pass_counts().cycles as f64;
    out.set("setup_s", median(setup_ns) / 1e9);
    out.set("run_s", pass_s);
    out.set("compile_ms", compile.ms());
    out.set("host_instr_per_s", ph.instructions as f64 / passes / pass_s);
    out.set("req_per_s", 1.0 / pass_s);
    out.set("latency_p50_us", pass_s * 1e6);
    out.set("modeled_cycles", cycles);
    out.set("modeled_p99_cycles", cycles);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.notes.push(format!(
        "samples: {} passes, {} set-ups, {} compile() calls",
        ph.pass_ns.len(),
        setup_ns.len(),
        compile.calls()
    ));
}

/// Per-layer metrics shared by the batch and serve workloads.
pub struct LayerInputs<'a> {
    /// Spans of set-up and the traced phase together.
    pub all: &'a SpanDump,
    /// Spans of the traced phase only.
    pub phase: &'a SpanDump,
    /// Passes in the traced phase.
    pub traced_passes: usize,
    /// Instructions retired inside traced `vm.run` spans.
    pub traced_instructions: u64,
    /// One pass's counters.
    pub counts: Counts,
    /// One pass's compile counters.
    pub cc: CompileCounts,
    /// Median pass time of the plain, traced and observability-off phases.
    pub plain_pass_ns: f64,
    /// See `plain_pass_ns`.
    pub traced_pass_ns: f64,
    /// See `plain_pass_ns`.
    pub obs_off_pass_ns: f64,
}

/// Fill every per-layer metric that derives from spans and counters.
pub fn set_layer_metrics(out: &mut Outcome, li: &LayerInputs) {
    let all = li.all;
    out.set("workloads.build_ms", all.get("workloads.build").mean_ms());
    out.set("ir.verify_ms", all.get("ir.verify").mean_ms());
    out.set("dsa.analyze_ms", all.get("dsa.analyze").mean_ms());
    for (metric, span) in [
        ("passes.prefetch_ms", "passes.prefetch"),
        ("passes.pool_alloc_ms", "passes.pool_alloc"),
        ("passes.guards_ms", "passes.guards"),
        ("passes.elim_ms", "passes.elim"),
        ("passes.versioning_ms", "passes.versioning"),
    ] {
        out.set(metric, all.get(span).mean_ms());
    }
    let compiles = all.get("passes.compile");
    let replayed: u64 = [
        "ir.verify",
        "dsa.analyze",
        "passes.prefetch",
        "passes.pool_alloc",
        "passes.guards",
        "passes.elim",
        "passes.versioning",
    ]
    .iter()
    .map(|s| all.get(s).total_ns)
    .sum();
    out.set(
        "passes.rest_ms",
        (compiles.total_ns as f64 - replayed as f64) / compiles.calls.max(1) as f64 / 1e6,
    );
    out.set("ir.insts_in", li.cc.insts_in as f64);
    out.set("dsa.instances", li.cc.instances as f64);
    out.set("passes.insts_out", li.cc.insts_out as f64);
    out.set("passes.guards_inserted", li.cc.guards_inserted as f64);
    out.set("passes.guards_elided", li.cc.guards_elided as f64);
    out.set("passes.versioned_loops", li.cc.versioned_loops as f64);

    out.set("vm.new_ms", all.get("vm.new").mean_ms());
    let run = li.phase.get("vm.run");
    out.set(
        "vm.self_ns_per_instr",
        run.self_ns as f64 / li.traced_instructions.max(1) as f64,
    );
    let c = li.counts;
    out.set("vm.instructions", c.instructions as f64);
    out.set("vm.guards", c.guards as f64);
    out.set("vm.fast_path", c.fast_path as f64);
    out.set("vm.slow_path", c.slow_path as f64);
    out.set("runtime.derefs_local", c.derefs_local as f64);
    out.set("runtime.derefs_remote", c.derefs_remote as f64);
    out.set("runtime.evictions", c.evictions as f64);
    out.set("runtime.writebacks", c.writebacks as f64);
    out.set("runtime.prefetch_issued", c.prefetch_issued as f64);
    out.set(
        "runtime.prefetch_useful_ratio",
        c.prefetch_useful as f64 / c.prefetch_issued.max(1) as f64,
    );
    out.notes.push(format!(
        "runtime.prefetch_useful_ratio = {} useful / {} issued",
        c.prefetch_useful, c.prefetch_issued
    ));
    out.set("runtime.quiesce_ms", all.get("runtime.quiesce").mean_ms());
    out.set(
        "runtime.obs_frac",
        1.0 - li.obs_off_pass_ns / li.plain_pass_ns.max(1.0),
    );
    let passes = li.traced_passes.max(1) as f64;
    for (calls, ms, span) in [
        ("net.fetch_calls", "net.fetch_ms", "net.fetch"),
        (
            "net.fetch_batched_calls",
            "net.fetch_batched_ms",
            "net.fetch_batched",
        ),
        ("net.put_calls", "net.put_ms", "net.put"),
        ("net.remove_calls", "net.remove_ms", "net.remove"),
        ("net.flush_calls", "net.flush_ms", "net.flush"),
    ] {
        out.set(calls, li.phase.get(span).calls as f64 / passes);
        out.set(ms, all.get(span).mean_ms());
    }
    // Time inside `Vm::run` that its child spans (transport calls) cover.
    out.set(
        "net.busy_frac",
        (run.total_ns - run.self_ns) as f64 / run.total_ns.max(1) as f64,
    );
    out.set("net.bytes", c.net_bytes as f64);
    out.set(
        "bench.trace_overhead_frac",
        li.traced_pass_ns / li.plain_pass_ns.max(1.0) - 1.0,
    );
    out.set(
        "bench.spans",
        all.agg.values().map(|a| a.calls).sum::<u64>() as f64,
    );
}

fn report_per_layer(
    out: &mut Outcome,
    apps: &[App],
    plain: &Phase,
    traced: &Phase,
    obs_off: &Phase,
    setup_dump: SpanDump,
    phase_dump: SpanDump,
) {
    let mut all = setup_dump;
    all.merge(phase_dump.clone());
    let mut cc = CompileCounts::default();
    for app in apps {
        cc.add(&app.cc);
    }
    set_layer_metrics(
        out,
        &LayerInputs {
            all: &all,
            phase: &phase_dump,
            traced_passes: traced.pass_ns.len(),
            traced_instructions: traced.instructions,
            counts: traced.pass_counts(),
            cc,
            plain_pass_ns: median(&plain.pass_ns),
            traced_pass_ns: median(&traced.pass_ns),
            obs_off_pass_ns: median(&obs_off.pass_ns),
        },
    );
    // The serving tier's shared counters, load phase and per-request
    // latencies do not exist here.
    for name in [
        "net.wire_fetches",
        "net.coalesced_hits",
        "net.coalesce_ratio",
        "net.trains",
        "net.objects_per_train",
        "serve.setup_load_ms",
        "serve.latency_p99_us",
        "serve.latency_p999_us",
        "serve.latency_samples",
    ] {
        out.set(name, 0.0);
    }
    out.spans = all;
}
