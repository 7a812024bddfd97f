//! Fleet observability plane integration: trace-context continuity across
//! an epoch-fenced failover (one trace id from the guard through the
//! TakeOver to the retried reply), end-to-end client/server span joins on
//! a replicated serving run, byte-identical `cards-fleet-v1` exports
//! outside the counters region, and the bounded `WireTap` ring's per-op
//! drop accounting through the sharded client.

use cards_core::net::{
    NetworkModel, ObjKey, ShardedConfig, ShardedServer, Transport, DEFAULT_TAP_CAPACITY,
};
use cards_core::passes::{compile, CompileOptions};
use cards_core::runtime::{RemotingPolicy, RuntimeConfig, SpanKind, TraceConfig};
use cards_core::vm::{check_fleet, extract_fleet, fleet_json, run_serving, ServeSpec, Vm};
use cards_core::workloads::serving::{self, ServingParams};

/// The CaRDS-compiled split serving module.
fn split_module(p: ServingParams) -> cards_core::ir::Module {
    let m = serving::build_split(p);
    assert!(cards_core::ir::verify_module(&m).is_empty());
    compile(m, CompileOptions::cards()).expect("compile").module
}

/// Remove the `"counters":{...}` span (the one interleaving-dependent
/// region of the fleet export), brace-matched, so runs can be
/// byte-compared.
fn strip_counters(s: &str) -> String {
    let key = "\"counters\":";
    let start = match s.find(key) {
        Some(i) => i,
        None => return s.to_string(),
    };
    let bytes = s.as_bytes();
    let open = start + key.len();
    assert_eq!(bytes[open], b'{', "counters must be an object");
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

/// Satellite: trace-context continuity across failover. A request that
/// hits a killed primary carries ONE trace id from the client-side guard,
/// through the TakeOver incident the client records, to the server-side
/// spans of the retried reply on the new primary.
#[test]
fn one_trace_id_spans_guard_takeover_and_retried_reply() {
    let p = ServingParams::test();
    let module = split_module(p);
    let server = ShardedServer::spawn(
        ShardedConfig {
            shards: 1,
            train_len: 4,
            window: 2,
            ..ShardedConfig::default()
        },
        NetworkModel::default(),
    );
    let ws = p.working_set_bytes();
    // Pinned pool empty and the remotable budget starved, so serve-phase
    // requests keep localizing remotely (traced wire traffic).
    let cfg = RuntimeConfig::new(0, ws / 16)
        .with_journal(8)
        .with_max_retries(8)
        .with_trace(TraceConfig::default());
    let mut vm = Vm::new(module, cfg, server.client(), RemotingPolicy::MaxUse, 50);
    vm.run("setup", &[]).expect("setup");
    vm.runtime_mut().quiesce().expect("quiesce");
    server.kill_shard(0);
    for i in 0..8u64 {
        vm.run("request", &[0, i]).expect("request after kill");
    }
    let stats = vm.runtime().stats();
    assert!(
        stats.failovers >= 1,
        "kill must force a takeover: {stats:?}"
    );

    let fleet = extract_fleet(&vm);
    let inc = fleet
        .incidents
        .iter()
        .find(|i| i.trace != 0)
        .expect("takeover must be recorded inside a traced request");
    assert_eq!(inc.shard, 0);
    assert_ne!(inc.from, inc.to, "takeover moves the active replica");

    // The same trace id names a retained client-side tree, and that tree
    // carries the Failover leaf for the takeover handshake.
    let tree = fleet
        .trees
        .iter()
        .find(|t| t.trace == inc.trace)
        .expect("incident trace id must name a retained trace tree");
    assert!(
        tree.count_kind(SpanKind::Failover) >= 1,
        "the tree must carry the takeover as a Failover leaf"
    );

    // And the server span log holds spans for the retried reply under the
    // same trace id: guard -> wire -> TakeOver -> retried server work, one
    // id end to end.
    assert!(
        fleet
            .server
            .spans()
            .iter()
            .any(|sp| sp.ctx.trace == inc.trace),
        "retried reply must charge server spans under the incident's trace id"
    );
}

/// A fault-free replicated serving run passes every fleet invariant
/// (cross-sum, wire bracket) and exports at least one fully-joined
/// end-to-end timeline with no incidents.
#[test]
fn replicated_serving_run_joins_and_passes_fleet_checks() {
    let p = ServingParams {
        keys: 128,
        tenants: 16,
        ops_per_tenant: 6,
    };
    let module = split_module(p);
    let mut net = ShardedConfig {
        shards: 2,
        train_len: 4,
        window: 2,
        ..ShardedConfig::default()
    };
    net.replica.replicas = 2;
    let spec = ServeSpec {
        workers: 3,
        tenants: p.tenants as u64,
        ops_per_tenant: p.ops_per_tenant as u64,
        net,
        model: NetworkModel::default(),
    };
    let cfg = RuntimeConfig::new(0, p.working_set_bytes() / 4);
    let r = run_serving(&module, spec, cfg, RemotingPolicy::MaxUse, 50).expect("serve");
    check_fleet(&r).expect("fleet invariants must hold");
    let json = fleet_json("serving", &spec, &r);
    assert!(json.contains("\"schema\":\"cards-fleet-v1\""));
    assert!(
        json.contains("\"joined\":true"),
        "at least one sampled timeline must fully join"
    );
    assert!(
        json.contains("\"incidents\":[]"),
        "fault-free run must reconstruct no incidents"
    );
    assert!(json.ends_with("]}}"), "counters must be the last key");
}

/// Determinism contract: two identical fault-free serving runs emit
/// byte-identical fleet exports once the interleaving-dependent
/// `"counters"` region is stripped.
#[test]
fn identical_runs_export_identical_bytes_outside_counters() {
    let p = ServingParams {
        keys: 128,
        tenants: 12,
        ops_per_tenant: 5,
    };
    let module = split_module(p);
    let mut net = ShardedConfig {
        shards: 2,
        train_len: 4,
        window: 2,
        ..ShardedConfig::default()
    };
    net.replica.replicas = 2;
    let spec = ServeSpec {
        workers: 2,
        tenants: p.tenants as u64,
        ops_per_tenant: p.ops_per_tenant as u64,
        net,
        model: NetworkModel::default(),
    };
    let cfg = RuntimeConfig::new(0, p.working_set_bytes() / 4);
    let mut exports = Vec::new();
    for _ in 0..2 {
        let r = run_serving(&module, spec, cfg, RemotingPolicy::MaxUse, 50).expect("serve");
        exports.push(fleet_json("serving", &spec, &r));
    }
    let (a, b) = (strip_counters(&exports[0]), strip_counters(&exports[1]));
    assert!(a.len() < exports[0].len(), "strip must remove the region");
    assert_eq!(
        a, b,
        "fleet exports must be byte-identical outside shared counters"
    );
}

/// Satellite: the per-client `WireTap` ring is bounded by
/// [`DEFAULT_TAP_CAPACITY`] and accounts every eviction per wire-op kind.
#[test]
fn wire_tap_ring_is_bounded_with_per_op_drop_accounting() {
    let net = ShardedConfig {
        shards: 1,
        train_len: 4,
        window: 4,
        ..ShardedConfig::default()
    };
    let server = ShardedServer::spawn(net, NetworkModel::default());
    let mut c = server.client();
    let n = DEFAULT_TAP_CAPACITY as u64;
    for i in 0..n {
        c.put(ObjKey { ds: 1, index: i }, &[i as u8; 8])
            .expect("put");
    }
    c.flush().expect("flush");
    for i in 0..n {
        c.fetch(ObjKey { ds: 1, index: i }).expect("fetch");
    }
    let tap = c.wire_tap().expect("sharded client retains a wire tap");
    assert_eq!(
        tap.len(),
        DEFAULT_TAP_CAPACITY,
        "ring must hold exactly the cap"
    );
    assert!(tap.total() >= 32, "every op is recorded: {}", tap.total());
    assert_eq!(
        tap.dropped(),
        tap.total() - tap.len() as u64,
        "every record beyond the cap is an accounted drop"
    );
    let by_op = tap.dropped_by_op();
    assert_eq!(
        by_op.iter().sum::<u64>(),
        tap.dropped(),
        "per-op drop counters must partition the total"
    );
    assert!(
        by_op.iter().filter(|&&n| n > 0).count() >= 2,
        "both fetch and write traffic must appear in the drop accounting: {by_op:?}"
    );
}
