//! Site-joined profile reports: the observability layer behind
//! `cards profile`.
//!
//! The runtime's [`SiteProfiler`](cards_runtime::SiteProfiler) keeps raw
//! per-site counters keyed by `u32` site index; the compiled module's
//! [`SiteTable`](cards_ir::SiteTable) holds the static context (kind,
//! function, block, DS, access). Only this crate sees both, so the joins
//! live here:
//!
//! - [`render_profile_report`] — human-readable hot-site table, guard-
//!   elision audit, versioned-loop dispatch accounting, and per-DS
//!   prefetcher precision/recall;
//! - [`profile_folded`] — folded-stack lines (`frame;frame;frame weight`)
//!   for standard flamegraph tooling, weighted by remote cycles;
//! - [`profile_json`] — the same join as deterministic JSON;
//! - [`check_attribution`] — the cross-sum invariant (per-site totals plus
//!   the unattributed bucket equal the per-DS totals).
//!
//! Everything is derived from deterministic counters: identical runs render
//! byte-identical output.

use std::fmt::Write as _;

use cards_ir::{DsMetaId, Site, SiteKind};
use cards_net::Transport;
use cards_runtime::telemetry::{json_str, site_counters_json};
use cards_runtime::SiteCounters;

use crate::interp::Vm;

/// DS display name for a site, resolved through the module's meta table.
fn ds_name<T: Transport>(vm: &Vm<T>, ds: Option<DsMetaId>) -> String {
    match ds {
        Some(id) => vm.module().ds_meta(id).name.clone(),
        None => "-".to_string(),
    }
}

/// Runtime handle a DS meta id was registered under, if it ever was.
fn handle_of_meta<T: Transport>(vm: &Vm<T>, meta: DsMetaId) -> Option<u16> {
    vm.registrations()
        .iter()
        .position(|&m| m == meta.0)
        .map(|h| h as u16)
}

fn site_location(site: &Site) -> String {
    if site.block_name.is_empty() {
        site.func_name.clone()
    } else {
        format!("{}/{}", site.func_name, site.block_name)
    }
}

fn access_str(site: &Site) -> &'static str {
    match site.access {
        Some(cards_ir::AccessKind::Read) => "read",
        Some(cards_ir::AccessKind::Write) => "write",
        None => "-",
    }
}

/// Render the hot-site profile report.
///
/// Sections: top-`top_n` sites by remote cycles (with function/block/DS
/// context), the guard-elision audit (elided sites whose covering guard
/// still went remote), versioned-loop dispatch accounting, and per-DS
/// prefetcher precision/recall.
pub fn render_profile_report<T: Transport>(vm: &Vm<T>, top_n: usize) -> String {
    let mut s = String::new();
    let module = vm.module();
    let prof = vm.runtime().profiler();
    let _ = writeln!(
        s,
        "== profile: {} ({} sites, {} cycles) ==",
        module.name,
        module.sites.len(),
        vm.metrics().cycles
    );

    // ---- hot sites by remote cycles ----
    let mut hot: Vec<(u32, SiteCounters)> = prof
        .active_sites()
        .map(|sid| (sid, prof.site(sid)))
        .collect();
    hot.sort_by_key(|(sid, c)| {
        (
            std::cmp::Reverse(c.remote_cycles),
            std::cmp::Reverse(c.checks()),
            *sid,
        )
    });
    let _ = writeln!(
        s,
        "{:<6} {:<10} {:<24} {:<14} {:<6} {:>8} {:>8} {:>12} {:>7} {:>9}",
        "site",
        "kind",
        "location",
        "ds",
        "acc",
        "hits",
        "misses",
        "remote-cyc",
        "evict",
        "prefetch"
    );
    for (sid, c) in hot.iter().take(top_n) {
        let site = module.sites.site(cards_ir::SiteId(*sid));
        let _ = writeln!(
            s,
            "#{:<5} {:<10} {:<24} {:<14} {:<6} {:>8} {:>8} {:>12} {:>7} {:>4}/{:<4}",
            sid,
            site.kind.name(),
            truncate(&site_location(site), 24),
            truncate(&ds_name(vm, site.ds), 14),
            access_str(site),
            c.hits,
            c.misses,
            c.remote_cycles,
            c.evictions,
            c.prefetch_useful,
            c.prefetch_issued,
        );
    }
    let un = prof.unattributed();
    if un.checks() > 0 || un.remote_cycles > 0 || un.spills > 0 {
        let _ = writeln!(
            s,
            "{:<6} {:<10} {:<24} {:<14} {:<6} {:>8} {:>8} {:>12} {:>7} {:>4}/{:<4}",
            "-",
            "unattrib",
            "(no guard executing)",
            "-",
            "-",
            un.hits,
            un.misses,
            un.remote_cycles,
            un.evictions,
            un.prefetch_useful,
            un.prefetch_issued,
        );
    }

    // ---- guard-elision audit ----
    let mut audited = false;
    for site in module.sites.iter() {
        if site.kind != SiteKind::ElidedGuard {
            continue;
        }
        let Some(cov) = site.covered_by else { continue };
        let cc = prof.site(cov.0);
        if cc.misses == 0 {
            continue;
        }
        if !audited {
            let _ = writeln!(s, "elision audit (elided guards whose object went remote):");
            audited = true;
        }
        let _ = writeln!(
            s,
            "  #{} {} elided, covered by #{} which missed {} times ({} cycles)",
            site.id.0,
            site_location(site),
            cov.0,
            cc.misses,
            cc.remote_cycles
        );
    }

    // ---- versioned-loop dispatch accounting ----
    let mut dispatched = false;
    for site in module.sites.iter() {
        if site.kind != SiteKind::VersionedDispatch {
            continue;
        }
        let c = prof.site(site.id.0);
        if c.slow_entries == 0 && c.fast_entries == 0 {
            continue;
        }
        if !dispatched {
            let _ = writeln!(
                s,
                "versioned-loop dispatch (instrumented vs clean entries):"
            );
            dispatched = true;
        }
        let _ = writeln!(
            s,
            "  #{} {}: {} instrumented, {} clean",
            site.id.0,
            site_location(site),
            c.slow_entries,
            c.fast_entries
        );
    }

    // ---- prefetcher precision / recall per DS ----
    let mut prefetched = false;
    for h in 0..vm.runtime().ds_count() as u16 {
        let (Some(st), Some(spec)) = (vm.runtime().ds_stats(h), vm.runtime().ds_spec(h)) else {
            continue;
        };
        if st.prefetch_issued == 0 && st.misses == 0 {
            continue;
        }
        if !prefetched {
            let _ = writeln!(
                s,
                "prefetcher per DS (precision = useful/issued, recall = useful/(useful+misses)):"
            );
            prefetched = true;
        }
        let _ = writeln!(
            s,
            "  ds{:<3} {:<18} {:>6}/{:<6} issued, precision {:>5.1}%, recall {:>5.1}%",
            h,
            truncate(&spec.name, 18),
            st.prefetch_useful,
            st.prefetch_issued,
            st.prefetch_accuracy() * 100.0,
            st.prefetch_coverage() * 100.0
        );
    }
    s
}

/// Folded-stack output for flamegraph tooling: one line per active site,
/// `function;block;kind#id weight`, weighted by remote cycles (guard sites)
/// or entry counts (dispatch sites). Feed to `flamegraph.pl` or speedscope.
pub fn profile_folded<T: Transport>(vm: &Vm<T>) -> String {
    let mut s = String::new();
    let module = vm.module();
    let prof = vm.runtime().profiler();
    for sid in prof.active_sites() {
        let c = prof.site(sid);
        let site = module.sites.site(cards_ir::SiteId(sid));
        let mut frames = site.func_name.clone();
        if frames.is_empty() {
            frames = "unknown".to_string();
        }
        if !site.block_name.is_empty() {
            let _ = write!(frames, ";{}", site.block_name);
        }
        let _ = write!(frames, ";{}#{}", site.kind.name(), sid);
        let weight = match site.kind {
            SiteKind::VersionedDispatch => c.slow_entries + c.fast_entries,
            _ => c.remote_cycles,
        };
        if weight > 0 {
            let _ = writeln!(s, "{frames} {weight}");
        }
    }
    let un = prof.unattributed();
    if un.remote_cycles > 0 {
        let _ = writeln!(s, "runtime;unattributed {}", un.remote_cycles);
    }
    s
}

/// The site-joined profile as deterministic JSON: static context from the
/// module's site table merged with the runtime's counters. Every site in
/// the table appears (inactive ones with zero counters), so consumers can
/// audit elided/never-executed sites too.
pub fn profile_json<T: Transport>(vm: &Vm<T>) -> String {
    let mut s = String::new();
    let module = vm.module();
    let prof = vm.runtime().profiler();
    s.push_str("{\"module\":");
    json_str(&mut s, &module.name);
    let _ = write!(s, ",\"cycles\":{},\"sites\":[", vm.metrics().cycles);
    for (i, site) in module.sites.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"site\":{},\"kind\":\"{}\",\"func\":",
            site.id.0,
            site.kind.name()
        );
        json_str(&mut s, &site.func_name);
        s.push_str(",\"block\":");
        json_str(&mut s, &site.block_name);
        let _ = write!(
            s,
            ",\"ds\":{},\"ds_name\":",
            site.ds.map(|d| d.0 as i64).unwrap_or(-1)
        );
        json_str(&mut s, &ds_name(vm, site.ds));
        let _ = write!(
            s,
            ",\"access\":\"{}\",\"covered_by\":{},\"counters\":",
            access_str(site),
            site.covered_by
                .map(|c| c.0.to_string())
                .unwrap_or_else(|| "null".to_string()),
        );
        site_counters_json(&mut s, &prof.site(site.id.0));
        s.push('}');
    }
    s.push_str("],\"unattributed\":");
    site_counters_json(&mut s, prof.unattributed());
    s.push_str(",\"ds\":[");
    let mut first = true;
    for site in module.sites.iter() {
        // per-DS prefetch precision/recall for every DS a prefetch point
        // was attached to (deduplicated, in site order)
        let (SiteKind::PrefetchPoint, Some(meta)) = (site.kind, site.ds) else {
            continue;
        };
        let Some(h) = handle_of_meta(vm, meta) else {
            continue;
        };
        let Some(st) = vm.runtime().ds_stats(h) else {
            continue;
        };
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{{\"handle\":{},\"meta\":{},\"name\":", h, meta.0);
        json_str(&mut s, &ds_name(vm, Some(meta)));
        let _ = write!(
            s,
            ",\"prefetch_issued\":{},\"prefetch_useful\":{},\"precision\":{:.4},\"recall\":{:.4}}}",
            st.prefetch_issued,
            st.prefetch_useful,
            st.prefetch_accuracy(),
            st.prefetch_coverage()
        );
    }
    s.push_str("]}");
    s
}

/// The attribution cross-sum invariant: summed over every site plus the
/// unattributed bucket, hits / misses / evictions / prefetches / spills
/// must equal the per-DS totals. Returns a description of the first
/// mismatch, if any. Holds for runs that completed without a transport
/// abort (an abort can lose the in-flight miss's attribution).
pub fn check_attribution<T: Transport>(vm: &Vm<T>) -> Result<(), String> {
    let prof = vm.runtime().profiler();
    let mut site_tot = prof.unattributed().clone();
    for c in prof.sites() {
        site_tot.hits += c.hits;
        site_tot.misses += c.misses;
        site_tot.evictions += c.evictions;
        site_tot.prefetch_issued += c.prefetch_issued;
        site_tot.prefetch_useful += c.prefetch_useful;
        site_tot.spills += c.spills;
    }
    let mut ds_tot = SiteCounters::default();
    for h in 0..vm.runtime().ds_count() as u16 {
        let Some(st) = vm.runtime().ds_stats(h) else {
            continue;
        };
        ds_tot.hits += st.hits;
        ds_tot.misses += st.misses;
        ds_tot.evictions += st.evictions;
        ds_tot.prefetch_issued += st.prefetch_issued;
        ds_tot.prefetch_useful += st.prefetch_useful;
        ds_tot.spills += st.spills;
    }
    for (name, a, b) in [
        ("hits", site_tot.hits, ds_tot.hits),
        ("misses", site_tot.misses, ds_tot.misses),
        ("evictions", site_tot.evictions, ds_tot.evictions),
        (
            "prefetch_issued",
            site_tot.prefetch_issued,
            ds_tot.prefetch_issued,
        ),
        (
            "prefetch_useful",
            site_tot.prefetch_useful,
            ds_tot.prefetch_useful,
        ),
        ("spills", site_tot.spills, ds_tot.spills),
    ] {
        if a != b {
            return Err(format!("{name}: per-site sum {a} != per-DS sum {b}"));
        }
    }
    Ok(())
}

/// Char-safe prefix truncation for table cells.
pub(crate) fn truncate(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}
