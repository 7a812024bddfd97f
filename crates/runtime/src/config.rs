//! Runtime configuration: local-memory budgets and primitive cycle costs.

use crate::pressure::PressureConfig;
use crate::telemetry::TelemetryConfig;
use crate::ttrace::TraceConfig;

/// Cycle costs of the runtime's CPU-side primitives, matching the shape of
/// the paper's Table 1. The remote transfer itself is priced by
/// `cards_net::NetworkModel`; these are the *software* costs layered on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Inline custody check (shr + conditional branch, Figure 3).
    pub custody_check: u64,
    /// `cards_deref` on a read when the object is already local.
    pub read_fault_local: u64,
    /// `cards_deref` on a write when the object is already local.
    pub write_fault_local: u64,
    /// Extra per-DS bookkeeping on the remote path (handle → DS → object
    /// mapping, pool manager, prefetcher update) beyond the wire cost.
    pub remote_extra: u64,
    /// `RemotableCheck` runtime call (per DS handle checked).
    pub remotable_check: u64,
}

impl CostModel {
    /// CaRDS costs (paper Table 1: local 378/384; remote 59K ≈ 46K wire +
    /// ~13K bookkeeping).
    pub fn cards() -> Self {
        CostModel {
            custody_check: 2,
            read_fault_local: 378,
            write_fault_local: 384,
            remote_extra: 13_000,
            remotable_check: 40,
        }
    }

    /// TrackFM costs (paper Table 1: local guards 462/579; remote 46-47K,
    /// i.e. no per-DS bookkeeping beyond the wire cost).
    pub fn trackfm() -> Self {
        CostModel {
            custody_check: 2,
            read_fault_local: 462,
            write_fault_local: 579,
            remote_extra: 500,
            remotable_check: 40,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::cards()
    }
}

/// Max objects a single prefetch batch may pull.
pub const PREFETCH_BATCH: usize = 8;

/// First-retry backoff in modeled cycles; doubles per attempt
/// (equal-jitter exponential backoff, deterministic).
pub const BACKOFF_BASE: u64 = 1_000;

/// Backoff ceiling in modeled cycles.
pub const BACKOFF_CAP: u64 = 128_000;

/// Consecutive failed attempts on one DS before its circuit breaker opens
/// (the DS is demoted to pinned-local until a cooldown re-probe succeeds).
pub const BREAKER_THRESHOLD: u32 = 8;

/// Modeled cycles an open breaker waits before letting one half-open probe
/// through.
pub const BREAKER_COOLDOWN: u64 = 2_000_000;

/// Local-memory budgets and behavioural switches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Bytes of pinned (non-remotable) local memory.
    pub pinned_bytes: u64,
    /// Bytes of remotable local memory (the local cache of remote objects).
    pub remotable_bytes: u64,
    /// Software cycle costs.
    pub costs: CostModel,
    /// Max retries for transient transport faults before giving up.
    pub max_retries: u32,
    /// Flush (acknowledge) writebacks to the server every N journaled puts;
    /// journal entries are only dropped once a flush succeeds. 0 disables
    /// journaling (and flushes) entirely.
    pub journal_flush_every: u32,
    /// Telemetry collection knobs (event ring, histograms, epochs).
    pub telemetry: TelemetryConfig,
    /// Memory-pressure governor knobs (watermark sweeps, thrashing
    /// detector, re-solve hysteresis). Disabled by default.
    pub pressure: PressureConfig,
    /// Causal tracing knobs (span trees, flight recorder, anomaly
    /// triggers). Enabled by default; costs nothing on the hit path.
    pub trace: TraceConfig,
}

impl RuntimeConfig {
    /// Config with the given budgets and CaRDS costs.
    pub fn new(pinned_bytes: u64, remotable_bytes: u64) -> Self {
        RuntimeConfig {
            pinned_bytes,
            remotable_bytes,
            costs: CostModel::cards(),
            max_retries: 16,
            journal_flush_every: 16,
            telemetry: TelemetryConfig::default(),
            pressure: PressureConfig::default(),
            trace: TraceConfig::default(),
        }
    }

    /// Builder-style: override cost model.
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Builder-style: telemetry knobs.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builder-style: retry budget for transient transport faults.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder-style: writeback-journal flush interval (0 disables).
    pub fn with_journal(mut self, flush_every: u32) -> Self {
        self.journal_flush_every = flush_every;
        self
    }

    /// Builder-style: memory-pressure governor knobs.
    pub fn with_pressure(mut self, pressure: PressureConfig) -> Self {
        self.pressure = pressure;
        self
    }

    /// Builder-style: causal-tracing knobs.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Total local memory (pinned + remotable).
    pub fn total_local(&self) -> u64 {
        self.pinned_bytes + self.remotable_bytes
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        // 64 MiB pinned + 64 MiB remotable: laptop-scale defaults.
        RuntimeConfig::new(64 << 20, 64 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        let cards = CostModel::cards();
        let trackfm = CostModel::trackfm();
        // Local: CaRDS deref cheaper than TrackFM guard.
        assert!(cards.read_fault_local < trackfm.read_fault_local);
        assert!(cards.write_fault_local < trackfm.write_fault_local);
        // Remote: CaRDS pays more bookkeeping.
        assert!(cards.remote_extra > trackfm.remote_extra);
    }

    #[test]
    fn config_builders() {
        let c = RuntimeConfig::new(10, 20).with_costs(CostModel::trackfm());
        assert_eq!(c.total_local(), 30);
        assert_eq!(c.costs, CostModel::trackfm());
    }
}
