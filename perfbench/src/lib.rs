//! Host-time benchmark of the CaRDS workspace.
//!
//! Every number in the workspace's own reports is a *modeled* cycle count.
//! This benchmark measures host wall-clock time instead, end to end and per
//! layer, by timing calls into the public API of each crate from outside:
//! `cards-workloads`/`cards-ir` (program build, verify), `cards-dsa`
//! (analysis), `cards-passes` (compile and each public pass), `cards-vm`
//! (`Vm::new`, `Vm::run`), `cards-runtime` (`quiesce`, stats accessors) and
//! `cards-net` (every transport call, through the [`spans::Timed`]
//! wrapper).
//!
//! Two workloads load different layers ([`Workload`]). One run measures
//! one workload for a fixed number of seconds, checks every output against
//! an independent reference outside the timed phase, and reports either
//! the end-to-end metrics (untraced) or the per-layer metrics (traced).
//! Modeled-cycle metrics are reported beside the host ones; they repeat
//! exactly and must equal what the workspace's own harnesses report.

pub mod batch;
pub mod serve;
pub mod spans;
pub mod stats;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// kvstore and bfs, all-remotable with a cache of 1/8 of the working
    /// set. Loads the runtime miss/evict/writeback/prefetch paths, the
    /// in-process transport and observability.
    RunStarved,
    /// Two worker VMs over one sharded, replicated server, GET requests in
    /// a closed loop. Loads the net layer: channels, handoffs, server
    /// threads.
    Serve,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::RunStarved, Workload::Serve];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RunStarved => "run-starved",
            Workload::Serve => "serve",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: picks the tenant ids (serve) and the application order
    /// (run-starved).
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs for self-tests (same code path, tiny sizes).
    pub quick: bool,
    /// Perturb one expected value, to prove that a failed check is caught.
    pub corrupt_expected: bool,
}

/// How a measured phase runs the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Bare transports, no spans: the end-to-end configuration.
    Plain,
    /// Timing transports and spans around every layer call.
    Traced,
    /// Bare transports with telemetry and runtime tracing off.
    ObsOff,
}

/// Correctness accounting. A failed check is counted, never a panic.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checked operations (programs, application runs, requests) and
    /// whole-run checks (digest oracle, observability-off companion).
    pub attempted: u64,
    /// Of those, how many did not match their reference.
    pub failed: u64,
    /// Host nanoseconds spent computing references and comparing.
    pub oracle_ns: u64,
    /// First few failure descriptions.
    pub notes: Vec<String>,
}

impl Checks {
    /// Record `weight` attempted operations that all pass or all fail.
    pub fn check(&mut self, ok: bool, weight: u64, what: impl FnOnce() -> String) {
        self.attempted += weight;
        if !ok {
            self.failed += weight;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Run a reference computation, charging its time to `oracle_ns`.
    pub fn oracle<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.oracle_ns += t0.elapsed().as_nanos() as u64;
        r
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// End-to-end metrics (untraced run): name and unit. Host timings end in
/// a unit suffix; modeled figures start with `modeled_`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("compile_ms", "ms"),
    ("host_instr_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("modeled_cycles", "cycles"),
    ("modeled_p99_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run): name and unit. `_ms` timings are the
/// mean of one call; counts are per pass over the workload's inputs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("ir.insts_in", "count"),
    ("dsa.analyze_ms", "ms"),
    ("dsa.instances", "count"),
    ("passes.prefetch_ms", "ms"),
    ("passes.pool_alloc_ms", "ms"),
    ("passes.guards_ms", "ms"),
    ("passes.elim_ms", "ms"),
    ("passes.versioning_ms", "ms"),
    ("passes.rest_ms", "ms"),
    ("passes.insts_out", "count"),
    ("passes.guards_inserted", "count"),
    ("passes.guards_elided", "count"),
    ("passes.versioned_loops", "count"),
    ("vm.new_ms", "ms"),
    ("vm.self_ns_per_instr", "ns"),
    ("vm.instructions", "count"),
    ("vm.guards", "count"),
    ("vm.fast_path", "count"),
    ("vm.slow_path", "count"),
    ("runtime.derefs_local", "count"),
    ("runtime.derefs_remote", "count"),
    ("runtime.evictions", "count"),
    ("runtime.writebacks", "count"),
    ("runtime.prefetch_issued", "count"),
    ("runtime.prefetch_useful_ratio", "ratio"),
    ("runtime.quiesce_ms", "ms"),
    ("runtime.obs_frac", "frac"),
    ("net.fetch_calls", "count"),
    ("net.fetch_ms", "ms"),
    ("net.fetch_batched_calls", "count"),
    ("net.fetch_batched_ms", "ms"),
    ("net.put_calls", "count"),
    ("net.put_ms", "ms"),
    ("net.remove_calls", "count"),
    ("net.remove_ms", "ms"),
    ("net.flush_calls", "count"),
    ("net.flush_ms", "ms"),
    ("net.busy_frac", "frac"),
    ("net.bytes", "bytes"),
    ("net.wire_fetches", "count"),
    ("net.coalesced_hits", "count"),
    ("net.coalesce_ratio", "ratio"),
    ("net.trains", "count"),
    ("net.objects_per_train", "ratio"),
    ("serve.setup_load_ms", "ms"),
    ("serve.latency_p99_us", "us"),
    ("serve.latency_p999_us", "us"),
    ("serve.latency_samples", "count"),
    ("oracle.ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.spans", "count"),
];

/// Units that mark a host-time metric, and the name suffixes they need.
const HOST_UNITS: &[(&str, &[&str])] = &[
    ("s", &["_s"]),
    ("ms", &["_ms", ".ms"]),
    ("us", &["_us"]),
    ("ns", &["_ns", "_ns_per_instr"]),
    ("1/s", &["_per_s"]),
    ("frac", &["_frac"]),
];

/// Why `name` breaks the naming rules, if it does: names are made of
/// `[A-Za-z0-9_.-]`, host metrics end in their unit's suffix, and cycle
/// figures (the cost model's, not the host's) start with `modeled_`.
pub fn name_problem(name: &str, unit: &str) -> Option<String> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    {
        return Some(format!("{name}: not [A-Za-z0-9_.-]+"));
    }
    if let Some((_, suffixes)) = HOST_UNITS.iter().find(|(u, _)| *u == unit) {
        if !suffixes.iter().any(|s| name.ends_with(s)) {
            return Some(format!("{name}: unit {unit} needs suffix {suffixes:?}"));
        }
    }
    if unit == "cycles" && !name.starts_with("modeled_") {
        return Some(format!("{name}: cycle figures start with modeled_"));
    }
    if name.starts_with("modeled_") && unit != "cycles" {
        return Some(format!("{name}: modeled_ names carry cycles"));
    }
    None
}

/// What one invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name (every name of the requested catalog).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Correctness accounting.
    pub checks: Checks,
    /// Human-readable context lines (sample counts, bases of ratios).
    pub notes: Vec<String>,
    /// Spans of a traced run.
    pub spans: spans::SpanDump,
}

impl Outcome {
    /// Set one metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    /// The catalog this outcome reports against.
    pub fn catalog(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Process exit code: 0 only when every check passed.
    pub fn exit_code(&self) -> i32 {
        if self.checks.failed == 0 && self.checks.attempted > 0 {
            0
        } else {
            1
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the catalog. Errors name a catalog
    /// metric the workload did not produce (a bug in this benchmark).
    pub fn json_line(&self, trace: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.exit_code() == 0,
            self.checks.attempted,
            self.checks.failed
        );
        for (i, (name, unit)) in Outcome::catalog(trace).iter().enumerate() {
            let v = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not produced"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{v}` prints every digit of the shortest round-trip form and
            // never an exponent, so the value is valid JSON.
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Run one invocation.
pub fn run(o: &Opts) -> Outcome {
    let mut out = match o.workload {
        Workload::Serve => serve::run(o),
        Workload::RunStarved => batch::run(o),
    };
    if o.trace {
        out.set("oracle.ms", out.checks.oracle_ns as f64 / 1e6);
        out.notes.push(format!(
            "spans: {} kept for the span file, {} past its cap",
            out.spans.spans.len(),
            out.spans.dropped
        ));
    }
    out
}
