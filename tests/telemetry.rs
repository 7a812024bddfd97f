//! End-to-end telemetry determinism: a fault-injected workload replayed
//! twice must export byte-identical traces, and the trace must actually
//! carry the signal the observability layer promises — a rich event mix,
//! epoch time-series, and non-trivial latency percentiles.

use std::collections::BTreeSet;

use cards_core::net::{FaultyTransport, NetworkModel, SimTransport};
use cards_core::passes::{compile, CompileOptions};
use cards_core::runtime::telemetry::{export_chrome_trace, export_json, HistPath, TelemetryConfig};
use cards_core::runtime::{PressureConfig, RemotingPolicy, RuntimeConfig};
use cards_core::vm::Vm;
use cards_core::workloads::kvstore::{self, KvParams};

/// Build and run the canonical instrumented workload: a cache-starved
/// kvstore, every structure remotable, 20% transient fault rate.
fn run_once() -> Vm<FaultyTransport<SimTransport>> {
    let (m, _) = kvstore::build(KvParams {
        keys: 128,
        ops: 600,
    });
    let c = compile(m, CompileOptions::cards()).expect("compile");
    let cfg = RuntimeConfig::new(0, 8192).with_telemetry(TelemetryConfig {
        enabled: true,
        ring_capacity: 1 << 16,
        epoch_every: 64,
    });
    let transport = FaultyTransport::new(SimTransport::new(NetworkModel::default()), 0.2, 7);
    let mut vm = Vm::new(c.module, cfg, transport, RemotingPolicy::AllRemotable, 0);
    vm.run("main", &[]).expect("run under faults");
    vm
}

#[test]
fn fault_injected_replay_exports_identical_bytes() {
    let (a, b) = (run_once(), run_once());
    let (ja, jb) = (export_json(a.runtime()), export_json(b.runtime()));
    assert_eq!(ja, jb, "JSON export must be byte-reproducible");
    let (ca, cb) = (
        export_chrome_trace(a.runtime()),
        export_chrome_trace(b.runtime()),
    );
    assert_eq!(ca, cb, "chrome trace export must be byte-reproducible");
    assert!(
        ja.len() > 1_000,
        "export is suspiciously small: {}",
        ja.len()
    );
}

#[test]
fn trace_carries_a_rich_event_mix() {
    let vm = run_once();
    let tel = vm.runtime().telemetry();
    let kinds: BTreeSet<&'static str> = tel.events().map(|e| e.kind.name()).collect();
    assert!(
        kinds.len() >= 6,
        "expected >= 6 distinct event kinds, got {kinds:?}"
    );
    for expected in ["guard_hit", "guard_miss", "fetch", "eviction", "retry"] {
        assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
    }
    // Fault rate 0.2 must show up as retry events, and the cycle stamps
    // must be monotonically non-decreasing (single modeled clock).
    let mut last = 0u64;
    for e in tel.events() {
        assert!(e.cycle >= last, "cycle stamps must not go backwards");
        last = e.cycle;
    }
}

#[test]
fn epochs_and_percentiles_are_nontrivial() {
    let vm = run_once();
    let tel = vm.runtime().telemetry();
    assert!(
        tel.epochs().len() >= 2,
        "600 ops at epoch_every=64 must snapshot repeatedly, got {}",
        tel.epochs().len()
    );
    // Epoch deltas, not cumulative counters: summed hits+misses across all
    // epochs cannot exceed the cumulative totals.
    let summed: u64 = tel
        .epochs()
        .iter()
        .flat_map(|ep| ep.ds.iter())
        .map(|d| d.hits + d.misses)
        .sum();
    let total: u64 = (0..vm.runtime().ds_count() as u16)
        .filter_map(|h| vm.runtime().ds_stats(h))
        .map(|st| st.hits + st.misses)
        .sum();
    assert!(
        summed <= total,
        "epoch deltas ({summed}) exceed totals ({total})"
    );
    assert!(summed > 0, "epochs recorded no guard activity");

    let local = tel.hist(HistPath::DerefLocal);
    let remote = tel.hist(HistPath::DerefRemote);
    assert!(local.count() > 0 && remote.count() > 0);
    assert!(local.p50() > 0, "local deref p50 must be non-trivial");
    assert!(remote.p99() > 0, "remote deref p99 must be non-trivial");
    assert!(
        remote.p50() > local.p50(),
        "remote deref ({}) must cost more than a local hit ({})",
        remote.p50(),
        local.p50()
    );
    assert!(remote.p99() >= remote.p50());
}

#[test]
fn disabling_telemetry_does_not_change_results() {
    // (keys, ops, pinned, cache, policy, k, fault rate, governed): the
    // fault-injected all-remotable run, and a pressure-governed run whose
    // thrash detector must tick on the epoch clock whether or not
    // telemetry records.
    let inputs = [
        (
            128,
            600,
            0,
            8192,
            RemotingPolicy::AllRemotable,
            0,
            0.2,
            false,
        ),
        (
            512,
            6000,
            4 * 4096,
            4 * 4096,
            RemotingPolicy::MaxUse,
            50,
            0.0,
            true,
        ),
    ];
    for (keys, ops, pinned, cache, policy, k, fault, governed) in inputs {
        let (m, _) = kvstore::build(KvParams { keys, ops });
        let c = compile(m, CompileOptions::cards()).expect("compile");
        let run = |tel: TelemetryConfig| {
            let mut cfg = RuntimeConfig::new(pinned, cache).with_telemetry(tel);
            if governed {
                cfg = cfg.with_pressure(PressureConfig::governed());
            }
            let transport =
                FaultyTransport::new(SimTransport::new(NetworkModel::default()), fault, 7);
            let mut vm = Vm::new(c.module.clone(), cfg, transport, policy, k);
            let r = vm.run("main", &[]).expect("run").unwrap();
            let s = vm.runtime().stats();
            (
                r,
                s.cycles,
                s.resolves,
                s.hint_demotions,
                s.hint_promotions,
                s.proactive_evictions,
            )
        };
        let on = run(TelemetryConfig::default());
        let off = run(TelemetryConfig::disabled());
        assert_eq!(
            on, off,
            "telemetry must be observation-only (governed: {governed})"
        );
    }
}
