//! Golden export digests: FNV-1a over every export surface of a fixed set
//! of small runs. Any change to a modeled cycle, an event, a span or a
//! counter changes a digest, so a refactor that claims byte-identical
//! behaviour is checked here. When a change is *meant* to alter output,
//! the failure message prints the new digests to paste into [`GOLDEN`].

use cards_core::net::{ChaosSchedule, ChaosTransport, FaultyTransport, SimTransport, Transport};
use cards_core::passes::{compile, CompileOptions};
use cards_core::runtime::telemetry::{export_chrome_trace, export_json, TelemetryConfig};
use cards_core::runtime::{
    PressureConfig, PressureSchedule, RemotingPolicy, RuntimeConfig, TraceConfig,
};
use cards_core::vm::{flight_json, profile_json, ttrace_json, Vm};
use cards_core::workloads::{bfs, kvstore, taxi};

/// Digests recorded before the runtime's mechanism merge; they must not move.
const GOLDEN: &[(&str, u64)] = &[
    ("kvstore/plain", 0x107283c0e3d814d3),
    ("kvstore/fault", 0xecbd76c7e960555e),
    ("kvstore/storm", 0x6d66764679229022),
    ("kvstore/crash-loop", 0x4db43499a2396494),
    ("bfs/plain", 0xe4de485246841248),
    ("bfs/fault", 0x791dce05242ca909),
    ("bfs/storm", 0xa6fb80b787005218),
    ("bfs/crash-loop", 0x3127479153d49b08),
    ("analytics/plain", 0x5fe2a74cf9193ab5),
    ("analytics/fault", 0xbd1986d847d597ef),
    ("analytics/storm", 0x0d8f54224c09d2b4),
    ("analytics/crash-loop", 0x7f228948646794a5),
    ("kvstore/governed-squeeze", 0x60ad34d303a8f438),
];

/// FNV-1a 64-bit over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Counters showing which runtime mechanisms the digested runs reached.
#[derive(Default)]
struct Reach {
    retries: u64,
    journal_replays: u64,
    crashes: u64,
    breaker_trips: u64,
    flight_snapshots: u64,
    proactive_evictions: u64,
    resolves: u64,
    hint_changes: u64,
}

/// Digest of every export surface: telemetry JSON and Chrome trace, the
/// site profile, the span-trace export and each flight snapshot, plus the
/// result and cycle count.
fn digest<T: Transport>(vm: &Vm<T>, result: Option<u64>, reach: &mut Reach) -> u64 {
    let rt = vm.runtime();
    let s = rt.stats();
    reach.retries += s.retries;
    reach.journal_replays += s.journal_replays;
    reach.crashes += s.crashes_detected;
    reach.proactive_evictions += s.proactive_evictions;
    reach.resolves += s.resolves;
    reach.hint_changes += s.hint_demotions + s.hint_promotions;
    reach.flight_snapshots += rt.tracer().snapshots().len() as u64;
    reach.breaker_trips += (0..rt.ds_count() as u16)
        .filter_map(|h| rt.ds_stats(h))
        .map(|d| d.breaker_trips)
        .sum::<u64>();
    let mut h = 0xcbf2_9ce4_8422_2325;
    h = fnv1a(h, format!("{result:?} {}", rt.stats().cycles).as_bytes());
    for part in [
        export_json(rt),
        export_chrome_trace(rt),
        profile_json(vm),
        ttrace_json(vm),
    ] {
        h = fnv1a(h, part.as_bytes());
    }
    for i in 0..rt.tracer().snapshots().len() {
        h = fnv1a(h, flight_json(vm, i).expect("snapshot").as_bytes());
    }
    h
}

fn module(workload: &str) -> cards_core::ir::Module {
    let (m, _) = match workload {
        "kvstore" => kvstore::build(kvstore::KvParams {
            keys: 128,
            ops: 600,
        }),
        "bfs" => bfs::build(bfs::BfsParams {
            nodes: 300,
            degree: 5,
        }),
        "analytics" => taxi::build(taxi::TaxiParams { trips: 1_000 }),
        other => unreachable!("{other}"),
    };
    compile(m, CompileOptions::cards()).expect("compile").module
}

/// The `cards trace`/`ttrace` run shape: pinned 0, an 8 KiB cache, every
/// structure remotable, epochs every 64 guards, retry-storm trigger at 4.
fn config() -> RuntimeConfig {
    RuntimeConfig::new(0, 8192)
        .with_max_retries(32)
        .with_telemetry(TelemetryConfig {
            enabled: true,
            ring_capacity: 1 << 16,
            epoch_every: 64,
        })
        .with_trace(TraceConfig {
            retry_storm_threshold: 4,
            ..TraceConfig::default()
        })
}

fn run<T: Transport>(workload: &str, transport: T, reach: &mut Reach) -> u64 {
    let mut vm = Vm::new(
        module(workload),
        config(),
        transport,
        RemotingPolicy::AllRemotable,
        0,
    );
    let r = vm.run("main", &[]).expect("run");
    digest(&vm, r, reach)
}

/// A pinned-and-cache-starved kvstore under the squeeze schedule with the
/// pressure governor on.
fn governed_squeeze(reach: &mut Reach) -> u64 {
    let cfg = RuntimeConfig::new(4 * 4096, 4 * 4096)
        .with_pressure(PressureConfig::governed())
        .with_telemetry(TelemetryConfig {
            enabled: true,
            ring_capacity: 1 << 16,
            epoch_every: 64,
        });
    let mut vm = Vm::new(
        module("kvstore"),
        cfg,
        SimTransport::default(),
        RemotingPolicy::MaxUse,
        50,
    );
    vm.runtime_mut()
        .set_pressure_schedule(PressureSchedule::squeeze());
    let r = vm.run("main", &[]).expect("run");
    digest(&vm, r, reach)
}

fn all_digests(reach: &mut Reach) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for w in ["kvstore", "bfs", "analytics"] {
        let plain = FaultyTransport::new(SimTransport::default(), 0.0, 7);
        out.push((format!("{w}/plain"), run(w, plain, reach)));
        let faulty = FaultyTransport::new(SimTransport::default(), 0.2, 7);
        out.push((format!("{w}/fault"), run(w, faulty, reach)));
        let storm = ChaosTransport::new(ChaosSchedule::storm(7));
        out.push((format!("{w}/storm"), run(w, storm, reach)));
        let crash = ChaosTransport::new(ChaosSchedule::crash_loop(7));
        out.push((format!("{w}/crash-loop"), run(w, crash, reach)));
    }
    out.push(("kvstore/governed-squeeze".into(), governed_squeeze(reach)));
    out
}

#[test]
fn export_digests_match_golden() {
    let mut reach = Reach::default();
    let got = all_digests(&mut reach);
    // A digest only guards the mechanisms its runs reach.
    let r = &reach;
    for (what, n) in [
        ("retries", r.retries),
        ("journal replays", r.journal_replays),
        ("crash detections", r.crashes),
        ("breaker trips", r.breaker_trips),
        ("flight snapshots", r.flight_snapshots),
        ("proactive evictions", r.proactive_evictions),
        ("re-solves", r.resolves),
        ("hint changes", r.hint_changes),
    ] {
        assert!(n > 0, "no digested run reaches {what}");
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect();
        panic!("export digests changed; new table:\n{table}");
    }
}
