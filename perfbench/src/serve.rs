//! The `serve` workload: a closed loop of worker VMs, each with one
//! `ShardedClient`, over one `ShardedServer` at `cards serve` defaults.
//!
//! The loop mirrors `cards_vm::run_serving`: every worker builds its VM,
//! runs `setup` + `quiesce` under a lock (serialized load), then serves its
//! round-robin share of the tenants through the GET-only `request` entry,
//! one timed call per request. Workers live for the whole session, so the
//! measured phase can repeat passes over the tenant list on warm VMs. An
//! untraced run splits its measured phase over several sessions, each set
//! up afresh, so set-up samples spread over the whole run. The seed picks
//! the tenant ids.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use cards_ir::Module;
use cards_net::{
    NetworkModel, ShardedClient, ShardedConfig, ShardedServer, ShardedStats, Transport,
};
use cards_passes::{compile, CompileOptions};
use cards_runtime::{RemotingPolicy, RuntimeConfig, TelemetryConfig, TraceConfig};
use cards_vm::{run_serial_replay, ServeSpec, Vm};
use cards_workloads::serving::{self, ServingParams};

use crate::batch::{
    insts, replay_passes, sample_compiles, set_layer_metrics, CompileCounts, CompileTimes, Counts,
    LayerInputs,
};
use crate::spans::{SpanDump, SpanLog, Timed};
use crate::stats::{self, median, percentile_sorted};
use crate::{Checks, Mode, Opts, Outcome};

/// Policy threshold of the serving build (`cards serve` default).
const K_PERCENT: u32 = 50;

/// Sessions of an untraced run; `setup_s` is the median of their set-ups
/// and each measures an equal share of the run.
const SESSIONS: usize = 7;

/// Shape of a serving session.
#[derive(Clone, Debug)]
pub struct ServeShape {
    /// Worker VMs (threads issuing requests).
    pub workers: usize,
    /// Program parameters; `tenants` is the tenant count.
    pub params: ServingParams,
    /// Tenant ids served in one pass, partitioned round-robin.
    pub tenants: Vec<u64>,
    /// Sharded tier shape.
    pub net: ShardedConfig,
}

impl ServeShape {
    /// The benchmark's shape: 2 workers, keys 1024, 4 shards × 2
    /// replicas, train 8, window 4 (`cards serve` defaults), and the
    /// serving harness's default 2000 sessions × 20 ops over seeded
    /// tenant ids. At that sample size the modeled p99 stays in one
    /// latency cluster from seed to seed; at 500 × 10 about 1% of requests
    /// miss twice and the p99 jumps between clusters.
    pub fn new(seed: u64, quick: bool) -> Self {
        let d = ServeSpec::default();
        let (keys, tenants, ops) = if quick {
            (128, 12, 4)
        } else {
            (1_024, d.tenants as i64, d.ops_per_tenant as i64)
        };
        let mut net = ShardedConfig {
            shards: 4,
            train_len: 8,
            window: 4,
            ..ShardedConfig::default()
        };
        net.replica.replicas = 2;
        ServeShape {
            workers: 2,
            params: ServingParams {
                keys,
                tenants,
                ops_per_tenant: ops,
            },
            tenants: tenant_ids(seed, tenants as usize),
            net,
        }
    }

    /// Total serving budget: a quarter of the working set, split evenly
    /// across workers by the session.
    pub fn cfg(&self) -> RuntimeConfig {
        RuntimeConfig::new(0, self.params.working_set_bytes() / 4)
    }

    /// The equivalent `ServeSpec` (tenants `0..n` in the workspace's own
    /// harnesses).
    pub fn spec(&self) -> ServeSpec {
        ServeSpec {
            workers: self.workers,
            tenants: self.tenants.len() as u64,
            ops_per_tenant: self.params.ops_per_tenant as u64,
            net: self.net,
            model: NetworkModel::default(),
        }
    }
}

/// `n` distinct tenant ids drawn from the seed.
pub fn tenant_ids(seed: u64, n: usize) -> Vec<u64> {
    let mut seen = BTreeSet::new();
    let mut ids = Vec::with_capacity(n);
    let mut x = seed ^ 0x007E_4A17;
    while ids.len() < n {
        x = cards_vm::splitmix64(x);
        let id = x % (1 << 24);
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// One worker's share of one pass.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Host nanoseconds of each successful request, in issue order. The
    /// session summarizes them into [`PassLatency`] and drops them, so
    /// the process does not grow with the number of passes.
    pub lat_ns: Vec<u64>,
    /// Modeled cycles of each successful request, in issue order (first
    /// pass only).
    pub modeled: Vec<u64>,
    /// (tenant index, wrapping sum of its returns, failed requests).
    pub tenant_sums: Vec<(usize, i64, u64)>,
    /// Counters over the pass.
    pub counts: Counts,
}

/// Host latency of one pass's requests, over both workers.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassLatency {
    /// Nearest-rank median, nanoseconds.
    pub p50_ns: u64,
    /// Nearest-rank p99, nanoseconds.
    pub p99_ns: u64,
    /// Nearest-rank p99.9, nanoseconds.
    pub p999_ns: u64,
    /// Successful requests timed.
    pub samples: u64,
}

impl PassLatency {
    fn of(outs: &mut [PassOut]) -> PassLatency {
        let mut lat: Vec<u64> = outs
            .iter_mut()
            .flat_map(|p| std::mem::take(&mut p.lat_ns))
            .collect();
        lat.sort_unstable();
        PassLatency {
            p50_ns: percentile_sorted(&lat, 500),
            p99_ns: percentile_sorted(&lat, 990),
            p999_ns: percentile_sorted(&lat, 999),
            samples: lat.len() as u64,
        }
    }
}

/// What a worker hands back when the session ends.
#[derive(Debug)]
struct WorkerEnd {
    setup_spans: SpanDump,
    phase_spans: SpanDump,
    drain: Result<(), String>,
}

enum Msg {
    Ready(Result<(), String>),
    Pass(usize, PassOut),
    Done(WorkerEnd),
}

/// Everything a session produced.
#[derive(Debug, Default)]
pub struct Session {
    /// Server spawn through the last worker's serialized load.
    pub setup_ns: u64,
    /// Wall nanoseconds of each pass.
    pub pass_ns: Vec<f64>,
    /// Host request latencies of each pass.
    pub latency: Vec<PassLatency>,
    /// Every pass's per-worker output (latencies already summarized).
    pub passes: Vec<Vec<PassOut>>,
    /// Server digest after every worker drained.
    pub digest: BTreeMap<u32, u64>,
    /// Shared tier counters accumulated over the measured passes.
    pub tier: ShardedStats,
    /// Worker load failures and drain failures.
    pub errors: Vec<String>,
    /// Spans of set-up (worker VMs and load) and of the passes.
    pub setup_spans: SpanDump,
    /// See `setup_spans`.
    pub phase_spans: SpanDump,
}

impl Session {
    /// All of pass `i`'s modeled latencies, sorted.
    pub fn modeled_sorted(&self, i: usize) -> Vec<u64> {
        let mut v: Vec<u64> = self.passes[i]
            .iter()
            .flat_map(|p| p.modeled.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// Wrapping sum of every return of pass `i`.
    pub fn checksum(&self, i: usize) -> i64 {
        self.passes[i]
            .iter()
            .flat_map(|p| p.tenant_sums.iter())
            .fold(0i64, |a, t| a.wrapping_add(t.1))
    }

    /// Counters of pass `i`, summed over workers.
    pub fn counts(&self, i: usize) -> Counts {
        let mut c = Counts::default();
        for p in &self.passes[i] {
            c.add(&p.counts);
        }
        c
    }
}

fn tier_since(a: &ShardedStats, b: &ShardedStats) -> ShardedStats {
    ShardedStats {
        coalesced_hits: a.coalesced_hits - b.coalesced_hits,
        wire_fetches: a.wire_fetches - b.wire_fetches,
        trains: a.trains - b.trains,
        train_objects: a.train_objects - b.train_objects,
        ..ShardedStats::default()
    }
}

/// Serve passes on one worker until told to stop (the command channel
/// closes), then drain.
#[allow(clippy::too_many_arguments)]
fn worker_loop<T: Transport>(
    mut vm: Vm<T>,
    w: usize,
    shape: &ServeShape,
    log: &SpanLog,
    setup_lock: &Mutex<()>,
    cmds: mpsc::Receiver<()>,
    tx: mpsc::Sender<Msg>,
) -> WorkerEnd {
    let loaded = {
        let _serial = setup_lock.lock().expect("setup lock poisoned");
        log.span("serve.load", || {
            log.span("vm.run", || vm.run("setup", &[]))
                .map_err(|e| format!("worker {w} setup: {e}"))?;
            log.span("runtime.quiesce", || vm.runtime_mut().quiesce())
                .map(|_| ())
                .map_err(|e| format!("worker {w} setup quiesce: {e}"))
        })
    };
    let setup_spans = log.take();
    let _ = tx.send(Msg::Ready(loaded));
    let ops = shape.params.ops_per_tenant as u64;
    let mut pass_no = 0u64;
    while cmds.recv().is_ok() {
        pass_no += 1;
        let before = Counts::of(&vm, log);
        let mut out = PassOut::default();
        for (idx, &t) in shape
            .tenants
            .iter()
            .enumerate()
            .skip(w)
            .step_by(shape.workers)
        {
            let (mut sum, mut failed) = (0i64, 0u64);
            for i in 0..ops {
                log.set_group((pass_no << 40) | ((idx as u64) << 16) | i);
                let c0 = vm.metrics().cycles;
                let t0 = Instant::now();
                let r = log.span("vm.run", || vm.run("request", &[t, i]));
                let ns = t0.elapsed().as_nanos() as u64;
                match r {
                    Ok(v) => {
                        sum = sum.wrapping_add(v.unwrap_or(0) as i64);
                        out.lat_ns.push(ns);
                        // Modeled figures come from the first pass only;
                        // later passes would grow the process with its speed.
                        if pass_no == 1 {
                            out.modeled.push(vm.metrics().cycles - c0);
                        }
                    }
                    Err(_) => failed += 1,
                }
            }
            out.tenant_sums.push((idx, sum, failed));
        }
        out.counts = Counts::of(&vm, log).since(&before);
        if tx.send(Msg::Pass(w, out)).is_err() {
            break;
        }
    }
    // The drain's transport calls are not part of any pass.
    let phase_spans = log.take();
    let drain = log
        .span("runtime.quiesce", || vm.runtime_mut().quiesce())
        .map(|_| ())
        .map_err(|e| format!("worker {w} drain: {e}"));
    let mut setup_spans = setup_spans;
    setup_spans.merge(log.take());
    WorkerEnd {
        setup_spans,
        phase_spans,
        drain,
    }
}

/// Spawn the tier and the workers, load, run passes for `seconds` (none
/// when `seconds` is 0) calling `between` after each, stop, drain and
/// digest.
pub fn session(
    module: &Module,
    shape: &ServeShape,
    mode: Mode,
    epoch: Instant,
    seconds: f64,
    between: &mut dyn FnMut(),
) -> Session {
    let t_setup = Instant::now();
    let server = ShardedServer::spawn(shape.net, NetworkModel::default());
    let clients: Vec<ShardedClient> = (0..shape.workers).map(|_| server.client()).collect();
    let mut cfg = shape.cfg();
    cfg.remotable_bytes = (cfg.remotable_bytes / shape.workers as u64).max(4096);
    if mode == Mode::ObsOff {
        cfg.telemetry = TelemetryConfig::disabled();
        cfg.trace = TraceConfig::disabled();
    }
    let setup_lock = Mutex::new(());
    let mut s = Session::default();
    let (tx, rx) = mpsc::channel::<Msg>();
    thread::scope(|scope| {
        let mut cmd_txs = Vec::new();
        for (w, client) in clients.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = mpsc::channel::<()>();
            cmd_txs.push(cmd_tx);
            let (tx, setup_lock) = (tx.clone(), &setup_lock);
            let module = module.clone();
            scope.spawn(move || {
                let end = if mode == Mode::Traced {
                    let log = SpanLog::recording(epoch, (w as u64 + 1) << 48);
                    let timed = Timed::new(client, log.clone());
                    let vm = log.span("vm.new", || {
                        Vm::new(module, cfg, timed, RemotingPolicy::MaxUse, K_PERCENT)
                    });
                    worker_loop(vm, w, shape, &log, setup_lock, cmd_rx, tx.clone())
                } else {
                    let log = SpanLog::disabled();
                    let vm = Vm::new(module, cfg, client, RemotingPolicy::MaxUse, K_PERCENT);
                    worker_loop(vm, w, shape, &log, setup_lock, cmd_rx, tx.clone())
                };
                let _ = tx.send(Msg::Done(end));
            });
        }
        drop(tx);
        let mut ready = 0;
        while ready < shape.workers {
            match rx.recv() {
                Ok(Msg::Ready(r)) => {
                    ready += 1;
                    if let Err(e) = r {
                        s.errors.push(e);
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        s.setup_ns = t_setup.elapsed().as_nanos() as u64;
        let tier0 = server.sharded_stats();
        let t_phase = Instant::now();
        if seconds > 0.0 && ready == shape.workers {
            loop {
                let t0 = Instant::now();
                for c in &cmd_txs {
                    let _ = c.send(());
                }
                let mut outs: Vec<Option<PassOut>> = vec![None; shape.workers];
                let mut got = 0;
                while got < shape.workers {
                    match rx.recv() {
                        Ok(Msg::Pass(w, p)) => {
                            outs[w] = Some(p);
                            got += 1;
                        }
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
                s.pass_ns.push(t0.elapsed().as_nanos() as f64);
                let mut outs: Vec<PassOut> =
                    outs.into_iter().map(Option::unwrap_or_default).collect();
                s.latency.push(PassLatency::of(&mut outs));
                s.passes.push(outs);
                between();
                if got < shape.workers || t_phase.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
        }
        s.tier = tier_since(&server.sharded_stats(), &tier0);
        drop(cmd_txs);
        while let Ok(msg) = rx.recv() {
            if let Msg::Done(end) = msg {
                if let Err(e) = end.drain {
                    s.errors.push(e);
                }
                s.setup_spans.merge(end.setup_spans);
                s.phase_spans.merge(end.phase_spans);
            }
        }
    });
    s.digest = server.digest();
    drop(server);
    s
}

/// Check every pass of a session: each tenant's sum against the native
/// reference, no failed request, and the drained digest against the
/// serial replay's.
fn check_session(
    s: &Session,
    shape: &ServeShape,
    expected: &[i64],
    serial_digest: &BTreeMap<u32, u64>,
    checks: &mut Checks,
) {
    let ops = shape.params.ops_per_tenant as u64;
    for (pi, pass) in s.passes.iter().enumerate() {
        for p in pass {
            for &(idx, sum, failed) in &p.tenant_sums {
                checks.check(sum == expected[idx] && failed == 0, ops, || {
                    format!(
                        "pass {pi} tenant {}: sum {sum} vs reference {}, {failed} failed",
                        shape.tenants[idx], expected[idx]
                    )
                });
            }
        }
        let served: usize = pass.iter().map(|p| p.tenant_sums.len()).sum();
        checks.check(served == shape.tenants.len(), 1, || {
            format!(
                "pass {pi}: {served} of {} tenants served",
                shape.tenants.len()
            )
        });
    }
    checks.check(s.errors.is_empty(), 1, || s.errors.join("; "));
    checks.check(&s.digest == serial_digest, 1, || {
        format!(
            "drained digest {:?} != serial replay {serial_digest:?}",
            s.digest
        )
    });
}

/// The split serving module, CaRDS-compiled (IR build + compile): the
/// source, the compiled module and what the compile did.
fn build(shape: &ServeShape, log: &SpanLog) -> (Module, Module, CompileCounts) {
    let src = log.span("workloads.build", || serving::build_split(shape.params));
    let c = log.span("passes.compile", || {
        compile(src.clone(), CompileOptions::cards())
    });
    if log.enabled() {
        replay_passes(&src, CompileOptions::cards(), log);
    }
    let c = c.expect("the serving build compiles");
    let cc = CompileCounts::of(insts(&src), &c);
    (src, c.module, cc)
}

/// References: per-tenant native sums and the serial replay's digest.
fn references(
    module: &Module,
    shape: &ServeShape,
    o: &Opts,
    checks: &mut Checks,
) -> (Vec<i64>, BTreeMap<u32, u64>) {
    let mut expected: Vec<i64> = checks.oracle(|| {
        shape
            .tenants
            .iter()
            .map(|&t| serving::reference_tenant(shape.params, t))
            .collect()
    });
    if o.corrupt_expected {
        expected[0] = expected[0].wrapping_add(1);
    }
    let serial = checks.oracle(|| {
        run_serial_replay(
            module,
            shape.spec(),
            shape.cfg(),
            RemotingPolicy::MaxUse,
            K_PERCENT,
        )
    });
    let digest = match serial {
        Ok(r) => r.digest,
        Err(e) => {
            checks.check(false, 1, || format!("serial replay: {e}"));
            BTreeMap::new()
        }
    };
    (expected, digest)
}

/// Run the serve workload.
pub fn run(o: &Opts) -> Outcome {
    let shape = ServeShape::new(o.seed, o.quick);
    let mut out = Outcome::default();
    let epoch = Instant::now();
    out.notes.push(format!(
        "shape: {} workers, {} tenants x {} ops, keys {}, {} shards x {} replicas",
        shape.workers,
        shape.tenants.len(),
        shape.params.ops_per_tenant,
        shape.params.keys,
        shape.net.shards,
        shape.net.replica.replicas
    ));
    if !o.trace {
        let sessions = if o.quick { 2 } else { SESSIONS };
        let mut setup_ns = Vec::new();
        let mut compile = CompileTimes::default();
        let mut done = Vec::new();
        let mut module = None;
        let mut peak_rss_mb = 0.0;
        for _ in 0..sessions {
            let t0 = Instant::now();
            let (src, m, _) = build(&shape, &SpanLog::disabled());
            let build_ns = t0.elapsed().as_nanos() as u64;
            let sources = [("serving".to_string(), src)];
            let mut sample = || sample_compiles(&sources, &mut compile);
            let secs = o.seconds / sessions as f64;
            let sess = session(&m, &shape, Mode::Plain, epoch, secs, &mut sample);
            setup_ns.push((build_ns + sess.setup_ns) as f64);
            // The footprint of one session: tier, workers and load. Later
            // sessions only add samples, and what the allocator keeps of
            // the earlier sessions' threads differs from run to run.
            if done.is_empty() {
                peak_rss_mb = stats::peak_rss_mb();
            }
            done.push(sess);
            module = Some(m);
        }
        let module = module.expect("at least one session");
        let (expected, serial) = references(&module, &shape, o, &mut out.checks);
        for sess in &done {
            check_session(sess, &shape, &expected, &serial, &mut out.checks);
        }
        // Modeled latencies of a session's first pass repeat exactly.
        for (i, sess) in done.iter().enumerate().skip(1) {
            let same = !sess.passes.is_empty()
                && !done[0].passes.is_empty()
                && sess.modeled_sorted(0) == done[0].modeled_sorted(0);
            out.checks.check(same, 1, || {
                format!("session {i}'s modeled latencies differ from session 0's")
            });
        }
        report_end_to_end(&mut out, &done, &setup_ns, &compile);
        out.set("peak_rss_mb", peak_rss_mb);
        return out;
    }
    let log = SpanLog::recording(epoch, 0);
    let (_, module, cc) = build(&shape, &log);
    let (expected, serial) = references(&module, &shape, o, &mut out.checks);
    let third = o.seconds / 3.0;
    let plain = session(&module, &shape, Mode::Plain, epoch, third, &mut || {});
    let traced = session(&module, &shape, Mode::Traced, epoch, third, &mut || {});
    let obs_off = session(&module, &shape, Mode::ObsOff, epoch, third, &mut || {});
    for s in [&plain, &traced, &obs_off] {
        check_session(s, &shape, &expected, &serial, &mut out.checks);
    }
    // Wrapping the clients and turning observability off must leave the
    // program unchanged: same checksum and modeled latencies.
    for (what, s) in [("traced", &traced), ("observability-off", &obs_off)] {
        let same = !s.passes.is_empty()
            && !plain.passes.is_empty()
            && s.checksum(0) == plain.checksum(0)
            && s.modeled_sorted(0) == plain.modeled_sorted(0);
        out.checks.check(same, 1, || {
            format!("{what} session differs from the plain one in checksum or modeled latency")
        });
    }
    let mut all = log.take();
    all.merge(traced.setup_spans.clone());
    all.merge(traced.phase_spans.clone());
    let traced_instructions = (0..traced.passes.len())
        .map(|i| traced.counts(i).instructions)
        .sum();
    set_layer_metrics(
        &mut out,
        &LayerInputs {
            all: &all,
            phase: &traced.phase_spans,
            traced_passes: traced.passes.len(),
            traced_instructions,
            counts: if traced.passes.is_empty() {
                Counts::default()
            } else {
                traced.counts(0)
            },
            cc,
            plain_pass_ns: median(&plain.pass_ns),
            traced_pass_ns: median(&traced.pass_ns),
            obs_off_pass_ns: median(&obs_off.pass_ns),
        },
    );
    // Tail latencies are reported here, ungated: on a shared host they
    // move with whatever else runs there.
    let lat = |f: fn(&PassLatency) -> u64| {
        median(
            &plain
                .latency
                .iter()
                .map(|l| f(l) as f64)
                .collect::<Vec<_>>(),
        ) / 1e3
    };
    out.set("serve.latency_p99_us", lat(|l| l.p99_ns));
    out.set("serve.latency_p999_us", lat(|l| l.p999_ns));
    out.set(
        "serve.latency_samples",
        plain.latency.iter().map(|l| l.samples).sum::<u64>() as f64,
    );
    let passes = plain.passes.len().max(1) as f64;
    let t = plain.tier;
    out.set("net.wire_fetches", t.wire_fetches as f64 / passes);
    out.set("net.coalesced_hits", t.coalesced_hits as f64 / passes);
    out.set(
        "net.coalesce_ratio",
        t.coalesced_hits as f64 / (t.coalesced_hits + t.wire_fetches).max(1) as f64,
    );
    out.set("net.trains", t.trains as f64 / passes);
    out.set(
        "net.objects_per_train",
        t.train_objects as f64 / t.trains.max(1) as f64,
    );
    out.set("serve.setup_load_ms", all.get("serve.load").mean_ms());
    out.spans = all;
    out
}

/// End-to-end metrics over every session's passes: pass time and the
/// rates from the median pass, request latency as the median of each
/// pass's median, modeled figures from the first session's first pass.
fn report_end_to_end(
    out: &mut Outcome,
    done: &[Session],
    setup_ns: &[f64],
    compile: &CompileTimes,
) {
    let pass_ns: Vec<f64> = done
        .iter()
        .flat_map(|s| s.pass_ns.iter().copied())
        .collect();
    let p50_ns: Vec<f64> = done
        .iter()
        .flat_map(|s| s.latency.iter().map(|l| l.p50_ns as f64))
        .collect();
    let (mut requests, mut instructions) = (0u64, 0u64);
    for s in done {
        requests += s.latency.iter().map(|l| l.samples).sum::<u64>();
        instructions += (0..s.passes.len())
            .map(|i| s.counts(i).instructions)
            .sum::<u64>();
    }
    let passes = pass_ns.len().max(1) as f64;
    let pass_s = (median(&pass_ns) / 1e9).max(1e-9);
    out.set("setup_s", median(setup_ns) / 1e9);
    out.set("run_s", pass_s);
    out.set("compile_ms", compile.ms());
    out.set("host_instr_per_s", instructions as f64 / passes / pass_s);
    out.set("req_per_s", requests as f64 / passes / pass_s);
    out.set("latency_p50_us", median(&p50_ns) / 1e3);
    let modeled = match done.first() {
        Some(s) if !s.passes.is_empty() => s.modeled_sorted(0),
        _ => Vec::new(),
    };
    out.set("modeled_cycles", modeled.iter().sum::<u64>() as f64);
    out.set(
        "modeled_p99_cycles",
        percentile_sorted(&modeled, 990) as f64,
    );
    out.notes.push(format!(
        "samples: {requests} requests over {} passes in {} sessions",
        pass_ns.len(),
        done.len()
    ));
}
