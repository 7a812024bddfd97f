//! Self-tests of the benchmark: every workload through the same code path
//! at quick sizes, metric naming, failure accounting, and transparency of
//! the timing transport.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cards_net::{
    FaultEvents, Fetched, NetError, NetStats, NetworkModel, ObjKey, ShardedServer, SimTransport,
    TraceContext, Transport, WireTap,
};
use cards_passes::{compile, CompileOptions};
use cards_runtime::{RemotingPolicy, RuntimeConfig};
use cards_vm::{run_serving, Vm};
use cards_workloads::{kvstore, serving};

use crate::serve::{session, ServeShape};
use crate::spans::{SpanLog, Timed};
use crate::stats::percentile_sorted;
use crate::{name_problem, run, Mode, Opts, Outcome, Workload, END_TO_END, PER_LAYER};

fn quick(workload: Workload, trace: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        quick: true,
        corrupt_expected: false,
    }
}

#[test]
fn every_workload_runs_traced_and_untraced_at_quick_size() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&quick(w, trace));
            assert_eq!(
                out.checks.failed,
                0,
                "{} trace={trace}: {:?}",
                w.name(),
                out.checks.notes
            );
            assert!(out.checks.attempted > 0);
            assert_eq!(out.exit_code(), 0);
            let line = out.json_line(trace).expect("every catalog metric produced");
            assert!(line.starts_with("{\"correct\": true, "));
            if !trace {
                for (name, _) in END_TO_END {
                    let v = out.metrics[name];
                    assert!(
                        v > 0.0,
                        "{} {name} = {v}: end-to-end metrics are never 0",
                        w.name()
                    );
                }
            } else {
                assert!(out.spans.spans.len() as u64 > 0, "{} spans", w.name());
                assert!(out.metrics["vm.self_ns_per_instr"] > 0.0, "{}", w.name());
            }
        }
    }
}

#[test]
fn metric_names_follow_the_naming_rules() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert_eq!(name_problem(name, unit), None);
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "metric names are unique");
    // The rules themselves reject what they should.
    assert!(name_problem("bad name", "count").is_some());
    assert!(name_problem("run_time", "s").is_some());
    assert!(name_problem("instructions_per_sec", "1/s").is_some());
    assert!(name_problem("cycles", "cycles").is_some());
    assert!(name_problem("modeled_ms", "ms").is_some());
}

/// `(name, unit)` pairs of one section of the benchmark manifest.
fn manifest_section(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("{section} in the manifest"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| -> String {
        let k = format!("\"{key}\":");
        let at = obj.find(&k).unwrap_or_else(|| panic!("{key} in {obj}")) + k.len();
        let rest = obj[at..].trim_start().trim_start_matches('"');
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn manifest_lists_exactly_the_metrics_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for (section, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = manifest_section(&json, section);
        let expected: Vec<(String, String)> = catalog
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, expected, "{section}");
    }
    let workloads = &json[json.find("\"workloads\"").expect("workloads")..];
    let workloads = &workloads[..workloads.find(']').expect("workloads end")];
    let listed: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    assert!(listed.len() >= 2, "{listed:?}");
    for name in listed {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn a_wrong_expected_value_fails_the_run_without_panicking() {
    for w in Workload::ALL {
        let out = run(&Opts {
            corrupt_expected: true,
            ..quick(w, false)
        });
        assert!(out.checks.failed_frac() > 0.0, "{}", w.name());
        assert_ne!(out.exit_code(), 0, "{}", w.name());
        let line = out.json_line(false).expect("result still printed");
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
    }
}

/// Which trait methods reached the transport.
#[derive(Default)]
struct Calls(Vec<&'static str>);

/// A transport that answers every method, defaulted ones included, with
/// a value no default gives, and logs each call.
struct Probe {
    calls: Rc<RefCell<Calls>>,
    tap: WireTap,
}

impl Probe {
    fn hit(&self, m: &'static str) {
        self.calls.borrow_mut().0.push(m);
    }
}

impl Transport for Probe {
    fn fetch(&mut self, _: ObjKey) -> Result<Fetched, NetError> {
        self.hit("fetch");
        Ok(Fetched {
            bytes: vec![1],
            cycles: 11,
        })
    }
    fn fetch_batched(&mut self, _: ObjKey) -> Result<Fetched, NetError> {
        self.hit("fetch_batched");
        Ok(Fetched {
            bytes: vec![2],
            cycles: 3,
        })
    }
    fn rtt_cost(&self) -> u64 {
        self.hit("rtt_cost");
        5
    }
    fn put(&mut self, _: ObjKey, _: &[u8]) -> Result<u64, NetError> {
        self.hit("put");
        Ok(7)
    }
    fn remove(&mut self, _: ObjKey) -> Result<u64, NetError> {
        self.hit("remove");
        Ok(9)
    }
    fn flush(&mut self) -> Result<u64, NetError> {
        self.hit("flush");
        Ok(13)
    }
    fn generation(&self) -> u64 {
        self.hit("generation");
        17
    }
    fn contains(&self, _: ObjKey) -> bool {
        self.hit("contains");
        true
    }
    fn stats(&self) -> NetStats {
        self.hit("stats");
        NetStats {
            fetches: 19,
            ..NetStats::default()
        }
    }
    fn remote_bytes(&self) -> u64 {
        self.hit("remote_bytes");
        23
    }
    fn take_fault_events(&mut self) -> FaultEvents {
        self.hit("take_fault_events");
        FaultEvents {
            hedged: 29,
            ..FaultEvents::default()
        }
    }
    fn set_trace_context(&mut self, _: TraceContext) {
        self.hit("set_trace_context");
    }
    fn trace_context(&self) -> TraceContext {
        self.hit("trace_context");
        TraceContext::NONE
    }
    fn wire_tap(&self) -> Option<&WireTap> {
        self.hit("wire_tap");
        Some(&self.tap)
    }
}

#[test]
fn timing_transport_forwards_every_method() {
    let calls = Rc::new(RefCell::new(Calls::default()));
    let log = SpanLog::recording(Instant::now(), 0);
    let mut t = Timed::new(
        Probe {
            calls: calls.clone(),
            tap: WireTap::default(),
        },
        log.clone(),
    );
    let k = ObjKey { ds: 1, index: 2 };
    assert_eq!(t.fetch(k).unwrap().cycles, 11);
    assert_eq!(t.fetch_batched(k).unwrap().cycles, 3);
    assert_eq!(t.rtt_cost(), 5);
    assert_eq!(t.put(k, &[0]), Ok(7));
    assert_eq!(t.remove(k), Ok(9));
    assert_eq!(t.flush(), Ok(13));
    assert_eq!(t.generation(), 17);
    assert!(t.contains(k));
    assert_eq!(t.stats().fetches, 19);
    assert_eq!(t.remote_bytes(), 23);
    assert_eq!(t.take_fault_events().hedged, 29);
    t.set_trace_context(TraceContext::NONE);
    assert_eq!(t.trace_context(), TraceContext::NONE);
    assert!(t.wire_tap().is_some());
    assert_eq!(
        calls.borrow().0,
        [
            "fetch",
            "fetch_batched",
            "rtt_cost",
            "put",
            "remove",
            "flush",
            "generation",
            "contains",
            "stats",
            "remote_bytes",
            "take_fault_events",
            "set_trace_context",
            "trace_context",
            "wire_tap"
        ]
    );
    let d = log.take();
    for op in ["fetch", "fetch_batched", "put", "remove", "flush"] {
        assert_eq!(d.get(&format!("net.{op}")).calls, 1, "{op} span");
    }
}

/// Run kvstore cache-starved over `t`; return everything the run exposes.
fn starved_kv<T: Transport>(t: T) -> (Option<u64>, cards_vm::VmMetrics, NetStats, String) {
    let p = kvstore::KvParams::test();
    let c = compile(kvstore::build(p).0, CompileOptions::cards()).unwrap();
    let mut vm = Vm::new(
        c.module,
        RuntimeConfig::new(0, (p.working_set_bytes() / 8).max(4096)),
        t,
        RemotingPolicy::AllRemotable,
        0,
    );
    let r = vm.run("main", &[]).unwrap();
    let rt = format!("{:?}", vm.runtime().stats());
    (r, *vm.metrics(), vm.runtime().net_stats(), rt)
}

#[test]
fn wrapped_sim_transport_changes_nothing_modeled() {
    let bare = starved_kv(SimTransport::new(NetworkModel::default()));
    let log = SpanLog::recording(Instant::now(), 0);
    let wrapped = starved_kv(Timed::new(SimTransport::default(), log.clone()));
    assert_eq!(bare, wrapped);
    assert!(bare.2.fetches > 0, "the run must use the transport");
    let d = log.take();
    assert!(
        d.get("net.fetch_batched").calls > 0,
        "prefetches go batched"
    );
    assert_eq!(
        d.get("net.fetch").calls,
        bare.2.fetches - d.get("net.fetch_batched").calls
    );
}

/// Setup plus a few requests on one VM over `t`.
fn serving_requests<T: Transport>(m: &cards_ir::Module, t: T) -> (i64, u64, NetStats) {
    let mut vm = Vm::new(
        m.clone(),
        RuntimeConfig::new(0, 4096),
        t,
        RemotingPolicy::MaxUse,
        50,
    );
    vm.run("setup", &[]).unwrap();
    vm.runtime_mut().quiesce().unwrap();
    let mut sum = 0i64;
    for t in 0..6u64 {
        for i in 0..4u64 {
            sum = sum.wrapping_add(vm.run("request", &[t, i]).unwrap().unwrap_or(0) as i64);
        }
    }
    (sum, vm.metrics().cycles, vm.runtime().net_stats())
}

#[test]
fn wrapped_sharded_client_changes_nothing_modeled() {
    let p = serving::ServingParams::test();
    let m = compile(serving::build_split(p), CompileOptions::cards())
        .unwrap()
        .module;
    let shape = ServeShape::new(0, true);
    let run_one = |wrap: bool| {
        let server = ShardedServer::spawn(shape.net, NetworkModel::default());
        if wrap {
            serving_requests(
                &m,
                Timed::new(server.client(), SpanLog::recording(Instant::now(), 0)),
            )
        } else {
            serving_requests(&m, server.client())
        }
    };
    let bare = run_one(false);
    assert_eq!(bare, run_one(true));
    assert!(bare.2.fetches > 0, "the requests must reach the tier");
}

#[test]
fn serve_session_matches_run_serving_and_survives_wrapping() {
    let mut shape = ServeShape::new(0, true);
    shape.tenants = (0..shape.tenants.len() as u64).collect();
    let m = compile(serving::build_split(shape.params), CompileOptions::cards())
        .unwrap()
        .module;
    let plain = session(&m, &shape, Mode::Plain, Instant::now(), 0.05, &mut || {});
    let traced = session(&m, &shape, Mode::Traced, Instant::now(), 0.05, &mut || {});
    let r = run_serving(&m, shape.spec(), shape.cfg(), RemotingPolicy::MaxUse, 50).unwrap();
    for s in [&plain, &traced] {
        let modeled = s.modeled_sorted(0);
        assert_eq!(percentile_sorted(&modeled, 500), r.p50_cycles);
        assert_eq!(percentile_sorted(&modeled, 990), r.p99_cycles);
        assert_eq!(s.checksum(0), r.checksum);
        assert_eq!(s.digest, r.digest);
        assert!(s.errors.is_empty(), "{:?}", s.errors);
    }
    assert_eq!(plain.counts(0), traced.counts(0));
    assert!(traced.phase_spans.get("net.fetch").calls > 0);
}

#[test]
fn outcome_reports_missing_metrics_as_errors() {
    let out = Outcome::default();
    assert!(out.json_line(false).is_err());
    assert_ne!(out.exit_code(), 0, "no checks attempted is not a pass");
}
