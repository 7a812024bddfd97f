//! Causal-trace reports: the observability layer behind `cards ttrace`.
//!
//! The runtime's [`Tracer`](cards_runtime::Tracer) records span trees keyed
//! by `u32` guard-site index; the compiled module's
//! [`SiteTable`](cards_ir::SiteTable) holds the static context. Only this
//! crate sees both, so the joins live here:
//!
//! - [`render_ttrace_report`] — human-readable per-phase breakdown,
//!   per-site totals, rendered span trees for the slowest retained
//!   operations (with critical path), and the anomaly-trigger log;
//! - [`ttrace_json`] — the full trace export as deterministic JSON
//!   (schema `cards-ttrace-v1`), the `cards ttrace diff` input;
//! - [`flight_json`] — one flight-recorder snapshot as JSON
//!   (schema `cards-flight-v1`), the `FLIGHT_*.json` payload;
//! - [`check_traces`] — structural invariants over every retained tree
//!   (valid parents, proper nesting, cross-sum).
//!
//! Everything is derived from deterministic counters and the modeled
//! clock: identical runs render byte-identical output.

use std::fmt::Write as _;

use cards_net::Transport;
use cards_runtime::telemetry::json_str;
use cards_runtime::ttrace::{tree_json, trigger_json};
use cards_runtime::{TraceTree, Tracer};

use crate::interp::Vm;
use crate::profile::truncate;

/// `func/block` site location, or `(no guard executing)` for `None`.
fn site_location<T: Transport>(vm: &Vm<T>, site: Option<u32>) -> String {
    let Some(sid) = site else {
        return "(no guard executing)".to_string();
    };
    let site = vm.module().sites.site(cards_ir::SiteId(sid));
    if site.block_name.is_empty() {
        site.func_name.clone()
    } else {
        format!("{}/{}", site.func_name, site.block_name)
    }
}

/// DS display name for a runtime handle, or `-` if never registered.
fn ds_label<T: Transport>(vm: &Vm<T>, ds: u16) -> String {
    match vm.runtime().ds_spec(ds) {
        Some(spec) => format!("ds{}[{}]", ds, truncate(&spec.name, 12)),
        None => format!("ds{ds}"),
    }
}

/// One rendered line per span, depth-first with indentation.
fn render_tree<T: Transport>(s: &mut String, vm: &Vm<T>, t: &TraceTree) {
    // (span index, depth) stack; children pushed in reverse so the
    // leftmost child renders first.
    let mut stack = vec![(0u32, 0usize)];
    while let Some((i, depth)) = stack.pop() {
        let sp = &t.spans[i as usize];
        let _ = write!(
            s,
            "  {:indent$}{} {}:{} {} cycles (self {})",
            "",
            sp.kind.name(),
            ds_label(vm, sp.ds),
            sp.index,
            sp.cycles,
            t.self_cycles(i),
            indent = depth * 2
        );
        if sp.attempt > 0 {
            let _ = write!(s, " attempt {}", sp.attempt);
        }
        if !sp.detail.is_empty() {
            let _ = write!(s, " [{}]", sp.detail);
        }
        s.push('\n');
        let kids: Vec<u32> = t.children(i).map(|(j, _)| j).collect();
        for j in kids.into_iter().rev() {
            stack.push((j, depth + 1));
        }
    }
    // Critical path: the chain of heaviest children from the root.
    let path = t.critical_path();
    let names: Vec<&str> = path
        .iter()
        .map(|&i| t.spans[i as usize].kind.name())
        .collect();
    let leaf = *path.last().expect("critical path includes the root");
    let _ = writeln!(
        s,
        "  critical path: {} = {}/{} cycles",
        names.join(" > "),
        t.spans[leaf as usize].cycles,
        t.root().cycles
    );
}

/// Render the causal-trace report.
///
/// Sections: operation counts and the rolling latency baseline, cumulative
/// per-phase self-cycle breakdown, per-site totals, span trees for the
/// `top_n` slowest retained operations, and the anomaly-trigger log.
pub fn render_ttrace_report<T: Transport>(vm: &Vm<T>, top_n: usize) -> String {
    let mut s = String::new();
    let module = vm.module();
    let tr: &Tracer = vm.runtime().tracer();
    let _ = writeln!(
        s,
        "== ttrace: {} ({} remote ops traced, {} local, {} abandoned) ==",
        module.name,
        tr.remote_ops(),
        tr.local_ops(),
        tr.abandoned_ops()
    );
    let base = tr.baseline();
    let _ = writeln!(
        s,
        "baseline: {} ops, p50 {} cycles, p99 {} cycles",
        base.count(),
        base.p50(),
        base.p99()
    );

    // ---- cumulative per-phase breakdown ----
    let total: u64 = tr.phase_totals().map(|(_, c)| c).sum();
    let _ = writeln!(s, "phase breakdown (self-cycles across all traced ops):");
    let _ = writeln!(s, "  {:<18} {:>14} {:>7}", "phase", "cycles", "%");
    for (kind, cycles) in tr.phase_totals() {
        if cycles == 0 {
            continue;
        }
        let pct = 100.0 * cycles as f64 / total.max(1) as f64;
        let _ = writeln!(s, "  {:<18} {:>14} {:>6.1}%", kind.name(), cycles, pct);
    }
    let _ = writeln!(s, "  {:<18} {:>14} {:>6.1}%", "total", total, 100.0);

    // ---- per-site totals ----
    let mut sites: Vec<(u32, u64, u64)> = tr.site_totals().collect();
    sites.sort_by_key(|(sid, _, cycles)| (std::cmp::Reverse(*cycles), *sid));
    if !sites.is_empty() || tr.unsited().0 > 0 {
        let _ = writeln!(s, "per-site totals (top {top_n} by cycles):");
        let _ = writeln!(
            s,
            "  {:<6} {:<24} {:>8} {:>14} {:>10}",
            "site", "location", "ops", "cycles", "avg"
        );
        for (sid, ops, cycles) in sites.iter().take(top_n) {
            let _ = writeln!(
                s,
                "  #{:<5} {:<24} {:>8} {:>14} {:>10}",
                sid,
                truncate(&site_location(vm, Some(*sid)), 24),
                ops,
                cycles,
                cycles / (*ops).max(1)
            );
        }
        let (uops, ucycles) = tr.unsited();
        if uops > 0 {
            let _ = writeln!(
                s,
                "  {:<6} {:<24} {:>8} {:>14} {:>10}",
                "-",
                "(no guard executing)",
                uops,
                ucycles,
                ucycles / uops.max(1)
            );
        }
    }

    // ---- slowest retained span trees ----
    let mut retained: Vec<&TraceTree> = tr.trees().collect();
    let kept = retained.len();
    retained.sort_by_key(|t| (std::cmp::Reverse(t.root().cycles), t.trace));
    if kept > 0 {
        let _ = writeln!(s, "slowest retained operations (top {top_n} of {kept}):");
        for t in retained.iter().take(top_n) {
            let _ = writeln!(
                s,
                "trace #{} @ site {} (start cycle {}):",
                t.trace,
                t.site
                    .map(|sid| format!("#{sid}"))
                    .unwrap_or_else(|| "-".to_string()),
                t.start
            );
            render_tree(&mut s, vm, t);
        }
    }

    // ---- anomaly triggers ----
    let trig = tr.triggers();
    if !trig.is_empty() {
        let _ = writeln!(s, "anomaly triggers ({}):", trig.len());
        for t in trig {
            let _ = writeln!(s, "  [cycle {}] {} (trace {})", t.cycle, t.reason, t.trace);
        }
        let _ = writeln!(
            s,
            "flight snapshots captured: {} (ring of {} trees each)",
            tr.snapshots().len(),
            tr.config().ring_capacity
        );
    }
    s
}

/// The full trace export as deterministic JSON (schema `cards-ttrace-v1`).
///
/// `phases` lists every span kind (zeros included) so two exports always
/// diff field-by-field; `sites` joins the cumulative per-site totals with
/// the module's static site context; `trees` is the retained ring.
pub fn ttrace_json<T: Transport>(vm: &Vm<T>) -> String {
    let mut s = String::new();
    let module = vm.module();
    let tr = vm.runtime().tracer();
    s.push_str("{\"schema\":\"cards-ttrace-v1\",\"module\":");
    json_str(&mut s, &module.name);
    let _ = write!(s, ",\"cycles\":{},", vm.metrics().cycles);
    let _ = write!(
        s,
        "\"ops\":{{\"remote\":{},\"local\":{},\"abandoned\":{}}},",
        tr.remote_ops(),
        tr.local_ops(),
        tr.abandoned_ops()
    );
    let base = tr.baseline();
    let _ = write!(
        s,
        "\"baseline\":{{\"count\":{},\"p50\":{},\"p99\":{}}},",
        base.count(),
        base.p50(),
        base.p99()
    );
    s.push_str("\"phases\":{");
    for (i, (kind, cycles)) in tr.phase_totals().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", kind.name(), cycles);
    }
    s.push_str("},\"sites\":[");
    for (i, (sid, ops, cycles)) in tr.site_totals().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let site = module.sites.site(cards_ir::SiteId(sid));
        let _ = write!(s, "{{\"site\":{sid},\"func\":");
        json_str(&mut s, &site.func_name);
        s.push_str(",\"block\":");
        json_str(&mut s, &site.block_name);
        let _ = write!(s, ",\"ops\":{ops},\"cycles\":{cycles}}}");
    }
    let (uops, ucycles) = tr.unsited();
    let _ = write!(
        s,
        "],\"unsited\":{{\"ops\":{uops},\"cycles\":{ucycles}}},\"trees\":["
    );
    for (i, t) in tr.trees().enumerate() {
        if i > 0 {
            s.push(',');
        }
        tree_json(&mut s, t);
    }
    s.push_str("],\"triggers\":[");
    for (i, t) in tr.triggers().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        trigger_json(&mut s, t);
    }
    s.push_str("]}");
    s
}

/// One flight-recorder snapshot as JSON (schema `cards-flight-v1`): the
/// trigger that fired plus the ring of recent span trees at that instant.
/// This is the payload `cards ttrace` writes to `FLIGHT_<n>.json`.
pub fn flight_json<T: Transport>(vm: &Vm<T>, snapshot: usize) -> Option<String> {
    let tr = vm.runtime().tracer();
    let snap = tr.snapshots().get(snapshot)?;
    let mut s = String::new();
    s.push_str("{\"schema\":\"cards-flight-v1\",\"module\":");
    json_str(&mut s, &vm.module().name);
    s.push_str(",\"trigger\":");
    trigger_json(&mut s, &snap.trigger);
    s.push_str(",\"trees\":[");
    for (i, t) in snap.trees.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        tree_json(&mut s, t);
    }
    s.push_str("]}");
    Some(s)
}

/// Structural invariants over every retained tree: valid parent indices,
/// acyclic proper nesting, and the cross-sum rule (children never exceed
/// their parent). Also checks that every tree's per-phase breakdown sums
/// back to its root total. Returns the first violation, if any.
pub fn check_traces<T: Transport>(vm: &Vm<T>) -> Result<(), String> {
    let tr = vm.runtime().tracer();
    for t in tr.trees() {
        t.validate()
            .map_err(|e| format!("trace {}: {e}", t.trace))?;
        let phase_sum: u64 = t.phase_breakdown().iter().map(|(_, c)| c).sum();
        if phase_sum != t.root().cycles {
            return Err(format!(
                "trace {}: phase breakdown sums to {} but root total is {}",
                t.trace,
                phase_sum,
                t.root().cycles
            ));
        }
    }
    // The cumulative phase totals must likewise sum to the cumulative
    // per-site + unsited operation totals.
    let phase_total: u64 = tr.phase_totals().map(|(_, c)| c).sum();
    let op_total: u64 = tr.site_totals().map(|(_, _, c)| c).sum::<u64>() + tr.unsited().1;
    if phase_total != op_total {
        return Err(format!(
            "cumulative phase self-cycles {phase_total} != cumulative op total {op_total}"
        ));
    }
    Ok(())
}
