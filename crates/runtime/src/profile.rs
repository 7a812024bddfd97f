//! Per-site attribution profiler (the runtime half of `cards profile`).
//!
//! The compiler records *attribution sites* — inserted guards, elided-guard
//! locations, versioned-loop dispatches, prefetch issue points — in the IR
//! module's site table. The VM tells the runtime which site is executing
//! (via [`SiteProfiler::set_current`]) around every guard, and the runtime
//! charges every hit, miss, localize cycle, eviction, prefetch and spill to
//! that site in addition to the existing per-DS stats.
//!
//! The runtime crate does not depend on `cards-ir`, so sites are plain
//! `u32` indices here; `cards_vm::profile` joins these counters back
//! against the `SiteTable` for reports.
//!
//! Costs incurred while no site is current — e.g. runtime-internal
//! writebacks — land in a dedicated *unattributed* bucket, so the per-site
//! totals plus the unattributed bucket always sum to the per-DS totals (a
//! difftest/test invariant).
//!
//! Everything is saturating and driven by the deterministic modeled clock:
//! identical runs produce byte-identical profiles.

use crate::telemetry::Histogram;

/// Saturating counters for one attribution site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteCounters {
    /// Guard checks that found the object local.
    pub hits: u64,
    /// Guard checks that had to localize (fetch) the object.
    pub misses: u64,
    /// Modeled cycles spent on remote path (localize + retries + queue).
    pub remote_cycles: u64,
    /// Evictions this site's localizations forced.
    pub evictions: u64,
    /// Prefetches issued while this site was executing.
    pub prefetch_issued: u64,
    /// Prefetched objects first touched while this site was executing.
    pub prefetch_useful: u64,
    /// Oversize accesses served directly from remote (spill path).
    pub spills: u64,
    /// Versioned-loop dispatches that took the instrumented (slow) path.
    pub slow_entries: u64,
    /// Versioned-loop dispatches that took the clean (fast) clone.
    pub fast_entries: u64,
    /// log2 histogram of per-miss remote cycles.
    pub remote_hist: Histogram,
}

impl SiteCounters {
    /// Total guard checks that reached the runtime from this site.
    pub fn checks(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    fn merge_visible(&self) -> bool {
        self.checks() > 0
            || self.remote_cycles > 0
            || self.slow_entries > 0
            || self.fast_entries > 0
            || self.prefetch_issued > 0
            || self.spills > 0
    }
}

/// Per-site profile kept by the runtime. Always on: the counters are a few
/// saturating adds per guard, and determinism requires they never depend on
/// configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteProfiler {
    sites: Vec<SiteCounters>,
    unattributed: SiteCounters,
    current: Option<u32>,
}

impl SiteProfiler {
    /// Set (or clear) the site whose code is currently executing. The VM
    /// brackets every guard and dispatch with this.
    pub fn set_current(&mut self, site: Option<u32>) {
        self.current = site;
    }

    /// The currently executing site, if any.
    pub fn current(&self) -> Option<u32> {
        self.current
    }

    fn slot(&mut self, site: u32) -> &mut SiteCounters {
        let n = site as usize;
        if n >= self.sites.len() {
            self.sites.resize(n + 1, SiteCounters::default());
        }
        &mut self.sites[n]
    }

    fn cur(&mut self) -> &mut SiteCounters {
        match self.current {
            Some(s) => self.slot(s),
            None => &mut self.unattributed,
        }
    }

    /// A guard check found its object local.
    pub fn on_hit(&mut self) {
        let c = self.cur();
        c.hits = c.hits.saturating_add(1);
    }

    /// A guard check localized its object, costing `cycles`.
    pub fn on_miss(&mut self, cycles: u64) {
        let c = self.cur();
        c.misses = c.misses.saturating_add(1);
        c.remote_cycles = c.remote_cycles.saturating_add(cycles);
        c.remote_hist.record(cycles);
    }

    /// Localizing for the current site forced an eviction.
    pub fn on_eviction(&mut self) {
        let c = self.cur();
        c.evictions = c.evictions.saturating_add(1);
    }

    /// A prefetch was issued while the current site executed.
    pub fn on_prefetch_issued(&mut self) {
        let c = self.cur();
        c.prefetch_issued = c.prefetch_issued.saturating_add(1);
    }

    /// A prefetched object was first touched under the current site.
    pub fn on_prefetch_useful(&mut self) {
        let c = self.cur();
        c.prefetch_useful = c.prefetch_useful.saturating_add(1);
    }

    /// An oversize access was served directly from remote.
    pub fn on_spill(&mut self) {
        let c = self.cur();
        c.spills = c.spills.saturating_add(1);
    }

    /// A versioned-loop dispatch at `site` chose the instrumented (`slow`)
    /// or clean path.
    pub fn on_dispatch(&mut self, site: u32, slow: bool) {
        let c = self.slot(site);
        if slow {
            c.slow_entries = c.slow_entries.saturating_add(1);
        } else {
            c.fast_entries = c.fast_entries.saturating_add(1);
        }
    }

    /// Counters for `site` (zeros if the site never executed).
    pub fn site(&self, site: u32) -> SiteCounters {
        self.sites.get(site as usize).cloned().unwrap_or_default()
    }

    /// All per-site counters, indexed by site id (may be shorter than the
    /// module's site table if trailing sites never executed).
    pub fn sites(&self) -> &[SiteCounters] {
        &self.sites
    }

    /// Costs that no site claimed (unguarded accesses, runtime-internal
    /// work). Including this bucket, per-site sums equal per-DS sums.
    pub fn unattributed(&self) -> &SiteCounters {
        &self.unattributed
    }

    /// Ids of sites with any recorded activity, in id order.
    pub fn active_sites(&self) -> impl Iterator<Item = u32> + '_ {
        self.sites
            .iter()
            .enumerate()
            .filter(|(_, c)| c.merge_visible())
            .map(|(i, _)| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_follows_current_site() {
        let mut p = SiteProfiler::default();
        p.set_current(Some(2));
        p.on_hit();
        p.on_miss(300);
        p.set_current(None);
        p.on_miss(500);
        assert_eq!(p.site(2).hits, 1);
        assert_eq!(p.site(2).misses, 1);
        assert_eq!(p.site(2).remote_cycles, 300);
        assert_eq!(p.unattributed().misses, 1);
        assert_eq!(p.unattributed().remote_cycles, 500);
        // intermediate slot 0/1 exist but are inactive
        assert_eq!(p.active_sites().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn dispatch_counts_split_by_path() {
        let mut p = SiteProfiler::default();
        p.on_dispatch(0, true);
        p.on_dispatch(0, false);
        p.on_dispatch(0, false);
        assert_eq!(p.site(0).slow_entries, 1);
        assert_eq!(p.site(0).fast_entries, 2);
    }
}
