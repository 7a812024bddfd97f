//! Structured telemetry: typed event tracing, latency histograms, and
//! per-epoch time-series over the runtime's *modeled* cycle clock.
//!
//! Three pillars, all dependency-free and fully deterministic (no wall
//! time, no allocation-order effects), so two identical runs export
//! byte-identical traces:
//!
//! 1. **Event ring buffer** — a bounded [`VecDeque`] of typed [`Event`]s
//!    (guard hit/miss, fetch, eviction, writeback, prefetch issue/confirm,
//!    retry, policy decision, demotion, scope begin/end, …), each stamped
//!    with the runtime's modeled cycle clock at emission. When the ring is
//!    full the oldest event is dropped and counted, never silently.
//! 2. **Latency histograms** — log2-bucketed cycle histograms for the hot
//!    paths ([`HistPath`]): local deref, remote deref, fetch, writeback,
//!    plus per-attempt retry cost and backoff sleeps, with p50/p95/p99
//!    accessors.
//! 3. **Epoch time-series** — every `epoch_every` guard events the runtime
//!    snapshots the *delta* of every [`DsStats`] and the transport's
//!    [`NetStats`] since the previous epoch, yielding a time-series of
//!    per-structure behaviour (which DS started thrashing, and when).
//!
//! Exporters ([`export_json`], [`export_chrome_trace`]) render the whole
//! state as deterministic JSON — the Chrome variant loads directly into
//! `chrome://tracing` / Perfetto with one track per data structure.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use cards_net::{NetStats, Transport};

use crate::runtime::FarMemRuntime;
use crate::spec::StaticHint;
use crate::stats::DsStats;

/// Telemetry knobs, carried inside
/// [`RuntimeConfig`](crate::config::RuntimeConfig).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; when false every telemetry call is a no-op.
    pub enabled: bool,
    /// Max events retained in the ring buffer (oldest dropped first).
    pub ring_capacity: usize,
    /// Take an epoch snapshot every this many guard (deref) events.
    pub epoch_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            ring_capacity: 8192,
            epoch_every: 256,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry fully off (no events, histograms, or epochs).
    pub fn disabled() -> Self {
        TelemetryConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// What happened. One variant per instrumented runtime transition.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A guarded deref found the object resident.
    GuardHit {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
    },
    /// A guarded deref had to localize the object.
    GuardMiss {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
    },
    /// An object was fetched over the network (demand or prefetch).
    Fetch {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Payload bytes.
        bytes: u64,
        /// Modeled cycles the fetch cost (including retries).
        cycles: u64,
        /// True when issued speculatively by a prefetcher.
        prefetch: bool,
    },
    /// An object was evicted from local remotable memory.
    Eviction {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Whether the eviction needed a write-back.
        dirty: bool,
    },
    /// A dirty (or never-uploaded) object was written back.
    Writeback {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Payload bytes.
        bytes: u64,
        /// Modeled cycles the write-back cost (including retries).
        cycles: u64,
    },
    /// A prefetcher speculatively pulled an object.
    PrefetchIssue {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
    },
    /// A previously prefetched object was demanded while still resident.
    PrefetchConfirm {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
    },
    /// A transient transport fault forced a retry.
    Retry {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// True for write-back retries, false for fetch retries.
        write: bool,
        /// Modeled cycles spent backing off before this retry.
        backoff: u64,
    },
    /// A remote operation exhausted its retries (or hit a terminal error)
    /// and surfaced to the application.
    NetAbort {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Attempts made before giving up (1-based; 1 = no retries).
        attempts: u32,
        /// True for write-backs, false for fetches.
        write: bool,
    },
    /// A DS circuit breaker changed state
    /// (closed → open → half_open → closed).
    Breaker {
        /// DS handle.
        ds: u16,
        /// State before the transition.
        from: &'static str,
        /// State after the transition.
        to: &'static str,
    },
    /// A server crash/restart was detected (generation bump).
    CrashDetected {
        /// The server generation observed after the restart.
        generation: u64,
    },
    /// A journaled writeback was replayed to the server after loss or a
    /// detected restart.
    JournalReplay {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// Payload bytes replayed.
        bytes: u64,
    },
    /// A remoting policy pinned (or declined to pin) a data structure.
    PolicyDecision {
        /// DS meta index the decision applies to.
        ds: u16,
        /// Whether the DS was pinned.
        pinned: bool,
        /// Human-readable explanation of why.
        why: String,
    },
    /// The runtime overrode a pinned hint (pinned budget exhausted).
    Demotion {
        /// DS handle.
        ds: u16,
    },
    /// A data structure was registered with the runtime.
    DsRegister {
        /// DS handle.
        ds: u16,
        /// The static hint it was registered with.
        hint: StaticHint,
    },
    /// A pool allocation was served.
    DsAlloc {
        /// DS handle.
        ds: u16,
        /// Bytes allocated.
        bytes: u64,
    },
    /// An allocation was freed.
    Free {
        /// DS handle.
        ds: u16,
        /// Bytes freed.
        bytes: u64,
    },
    /// A deref scope opened (`depth` scopes now open).
    ScopeBegin {
        /// Nesting depth after opening.
        depth: usize,
    },
    /// A deref scope closed (`depth` scopes remain open).
    ScopeEnd {
        /// Nesting depth after closing.
        depth: usize,
    },
    /// The VM dispatched a versioned region (fast = no DS remotable).
    Dispatch {
        /// True when the slow (guarded) version was taken.
        slow: bool,
    },
    /// An epoch snapshot was taken.
    Epoch {
        /// Epoch sequence number.
        seq: u64,
    },
    /// A pressure schedule moved to a new phase (budgets rescaled).
    PressurePhase {
        /// Phase instance id (unique across schedule laps).
        phase: u64,
        /// New pinned budget as a percent of the base budget.
        pinned_pct: u32,
        /// New remotable budget as a percent of the base budget.
        remotable_pct: u32,
    },
    /// Remotable residency crossed the high watermark.
    PressureHigh {
        /// Remotable bytes resident at the crossing.
        used: u64,
        /// Effective remotable budget at the crossing.
        budget: u64,
    },
    /// A batched watermark sweep evicted objects proactively.
    ProactiveEvict {
        /// Objects evicted by this sweep.
        evicted: u64,
        /// Bytes freed by this sweep.
        bytes: u64,
    },
    /// Guard/scope pins covered the whole budget; the recent-guard window
    /// was shrunk (or the runtime fell back to overcommit/spill).
    PinStarvation {
        /// Remotable bytes resident when starvation was detected.
        used: u64,
        /// Recent-guard window size after relief.
        window: usize,
    },
    /// An access was served directly from the remote tier because the
    /// object could not be localized.
    Spill {
        /// DS handle.
        ds: u16,
        /// Object index within the DS.
        index: u64,
        /// True for writes (read-modify-write-back), false for reads.
        write: bool,
    },
    /// The governor demoted a DS's hint (pinned residency released).
    HintDemoted {
        /// DS handle.
        ds: u16,
        /// Human-readable explanation from the re-solver.
        why: String,
    },
    /// The governor soft-pinned a thrashing DS's resident set.
    HintPromoted {
        /// DS handle.
        ds: u16,
        /// Human-readable explanation from the re-solver.
        why: String,
    },
    /// An online policy re-solve changed at least one hint.
    Resolve {
        /// Governor epoch the re-solve ran in.
        epoch: u64,
        /// Hints demoted by this pass.
        demoted: u64,
        /// Hints promoted by this pass.
        promoted: u64,
    },
}

impl EventKind {
    /// Stable snake_case name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::GuardHit { .. } => "guard_hit",
            EventKind::GuardMiss { .. } => "guard_miss",
            EventKind::Fetch { .. } => "fetch",
            EventKind::Eviction { .. } => "eviction",
            EventKind::Writeback { .. } => "writeback",
            EventKind::PrefetchIssue { .. } => "prefetch_issue",
            EventKind::PrefetchConfirm { .. } => "prefetch_confirm",
            EventKind::Retry { .. } => "retry",
            EventKind::NetAbort { .. } => "net_abort",
            EventKind::Breaker { .. } => "breaker",
            EventKind::CrashDetected { .. } => "crash_detected",
            EventKind::JournalReplay { .. } => "journal_replay",
            EventKind::PolicyDecision { .. } => "policy_decision",
            EventKind::Demotion { .. } => "demotion",
            EventKind::DsRegister { .. } => "ds_register",
            EventKind::DsAlloc { .. } => "ds_alloc",
            EventKind::Free { .. } => "free",
            EventKind::ScopeBegin { .. } => "scope_begin",
            EventKind::ScopeEnd { .. } => "scope_end",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Epoch { .. } => "epoch",
            EventKind::PressurePhase { .. } => "pressure_phase",
            EventKind::PressureHigh { .. } => "pressure_high",
            EventKind::ProactiveEvict { .. } => "proactive_evict",
            EventKind::PinStarvation { .. } => "pin_starvation",
            EventKind::Spill { .. } => "spill",
            EventKind::HintDemoted { .. } => "hint_demoted",
            EventKind::HintPromoted { .. } => "hint_promoted",
            EventKind::Resolve { .. } => "resolve",
        }
    }
}

/// One trace event: what happened and when (modeled cycles).
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Modeled cycle clock at emission.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The latency paths tracked with histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistPath {
    /// Guarded deref that hit locally.
    DerefLocal,
    /// Guarded deref that missed and localized.
    DerefRemote,
    /// Network fetch (demand or prefetch), including retries.
    Fetch,
    /// Network write-back, including retries.
    Writeback,
    /// One failed transport attempt (the wasted RTT it cost), recorded
    /// per attempt rather than folded into the whole-op latency.
    RetryAttempt,
    /// One backoff sleep between retry attempts, in modeled cycles.
    BackoffSleep,
}

impl HistPath {
    /// All paths, in export order.
    pub const ALL: [HistPath; 6] = [
        HistPath::DerefLocal,
        HistPath::DerefRemote,
        HistPath::Fetch,
        HistPath::Writeback,
        HistPath::RetryAttempt,
        HistPath::BackoffSleep,
    ];

    /// Stable snake_case name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            HistPath::DerefLocal => "deref_local",
            HistPath::DerefRemote => "deref_remote",
            HistPath::Fetch => "fetch",
            HistPath::Writeback => "writeback",
            HistPath::RetryAttempt => "retry_attempt",
            HistPath::BackoffSleep => "backoff_sleep",
        }
    }

    fn idx(&self) -> usize {
        match self {
            HistPath::DerefLocal => 0,
            HistPath::DerefRemote => 1,
            HistPath::Fetch => 2,
            HistPath::Writeback => 3,
            HistPath::RetryAttempt => 4,
            HistPath::BackoffSleep => 5,
        }
    }
}

/// A log2-bucketed histogram of cycle latencies. Bucket `b` (b ≥ 1) counts
/// values in `[2^(b-1), 2^b)`; bucket 0 counts zeros. 65 buckets cover the
/// full `u64` range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Lower bound of bucket `b`.
    fn bucket_floor(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0 < q ≤ 1`): the lower bound of the
    /// bucket holding the q-th value, clamped to the observed min/max so
    /// single-bucket histograms report exact values. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            // The q=1 quantile is the observed maximum, exactly; the
            // bucket-walk below would round it down to a bucket floor.
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_floor(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (approximate; see [`Self::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (approximate).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (approximate).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (Self::bucket_floor(b), n))
            .collect()
    }
}

/// Per-DS counter deltas for one epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DsEpochDelta {
    /// DS handle.
    pub ds: u16,
    /// Hits this epoch.
    pub hits: u64,
    /// Misses this epoch.
    pub misses: u64,
    /// Evictions this epoch.
    pub evictions: u64,
    /// Write-backs this epoch.
    pub writebacks: u64,
    /// Prefetches issued this epoch.
    pub prefetch_issued: u64,
    /// Prefetches confirmed useful this epoch.
    pub prefetch_useful: u64,
}

impl DsEpochDelta {
    /// DS `ds`'s deltas from the cumulative counters `prev` to `cur`.
    pub(crate) fn since(ds: u16, cur: &DsStats, prev: &DsStats) -> Self {
        DsEpochDelta {
            ds,
            hits: cur.hits.saturating_sub(prev.hits),
            misses: cur.misses.saturating_sub(prev.misses),
            evictions: cur.evictions.saturating_sub(prev.evictions),
            writebacks: cur.writebacks.saturating_sub(prev.writebacks),
            prefetch_issued: cur.prefetch_issued.saturating_sub(prev.prefetch_issued),
            prefetch_useful: cur.prefetch_useful.saturating_sub(prev.prefetch_useful),
        }
    }
}

/// One point of the per-epoch time-series: every counter's delta since the
/// previous epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch sequence number (0-based).
    pub seq: u64,
    /// Modeled cycle clock when the snapshot was taken.
    pub cycle: u64,
    /// Per-DS deltas, indexed by handle order.
    pub ds: Vec<DsEpochDelta>,
    /// Network counter deltas.
    pub net: NetStats,
}

/// The telemetry sink owned by
/// [`FarMemRuntime`](crate::runtime::FarMemRuntime).
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    ring: VecDeque<Event>,
    dropped: u64,
    /// Drops broken down by the *dropped* event's kind name (BTreeMap for
    /// deterministic export order). A saturated ring skews profiles
    /// non-uniformly; this shows which signal was lost.
    dropped_by_kind: BTreeMap<&'static str, u64>,
    hists: [Histogram; 6],
    epochs: Vec<EpochSnapshot>,
    epoch_seq: u64,
    prev_net: NetStats,
}

impl Telemetry {
    /// Create a sink with the given knobs.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            cfg,
            ring: VecDeque::new(),
            dropped: 0,
            dropped_by_kind: BTreeMap::new(),
            hists: Default::default(),
            epochs: Vec::new(),
            epoch_seq: 0,
            prev_net: NetStats::default(),
        }
    }

    /// Whether telemetry is collecting.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration this sink was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Append an event stamped `cycle` to the ring (oldest dropped when
    /// full). No-op when disabled.
    pub fn emit(&mut self, cycle: u64, kind: EventKind) {
        if !self.cfg.enabled || self.cfg.ring_capacity == 0 {
            return;
        }
        if self.ring.len() >= self.cfg.ring_capacity {
            if let Some(old) = self.ring.pop_front() {
                // Saturating: long-lived serving workers tick these for
                // the whole process lifetime; pin at the ceiling rather
                // than wrapping back past zero.
                let e = self.dropped_by_kind.entry(old.kind.name()).or_insert(0);
                *e = e.saturating_add(1);
            }
            self.dropped = self.dropped.saturating_add(1);
        }
        self.ring.push_back(Event { cycle, kind });
    }

    /// Record a latency sample for `path`. No-op when disabled.
    pub fn record(&mut self, path: HistPath, cycles: u64) {
        if self.cfg.enabled {
            self.hists[path.idx()].record(cycles);
        }
    }

    /// Record one epoch from the runtime epoch clock: the per-DS deltas it
    /// computed and the transport's cumulative counters (stored as deltas
    /// against the previous snapshot). No-op when disabled.
    pub(crate) fn snapshot(&mut self, cycle: u64, ds: &[DsEpochDelta], net: NetStats) {
        if !self.cfg.enabled {
            return;
        }
        let net_delta = NetStats {
            fetches: net.fetches.saturating_sub(self.prev_net.fetches),
            writebacks: net.writebacks.saturating_sub(self.prev_net.writebacks),
            bytes_fetched: net
                .bytes_fetched
                .saturating_sub(self.prev_net.bytes_fetched),
            bytes_written: net
                .bytes_written
                .saturating_sub(self.prev_net.bytes_written),
            retries: net.retries.saturating_sub(self.prev_net.retries),
            cycles: net.cycles.saturating_sub(self.prev_net.cycles),
        };
        let seq = self.epoch_seq;
        self.epoch_seq += 1;
        self.prev_net = net;
        self.epochs.push(EpochSnapshot {
            seq,
            cycle,
            ds: ds.to_vec(),
            net: net_delta,
        });
        self.emit(cycle, EventKind::Epoch { seq });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drops broken down by the dropped event's kind, in name order.
    pub fn dropped_by_kind(&self) -> &BTreeMap<&'static str, u64> {
        &self.dropped_by_kind
    }

    /// The histogram for one latency path.
    pub fn hist(&self, path: HistPath) -> &Histogram {
        &self.hists[path.idx()]
    }

    /// The epoch time-series, oldest first.
    pub fn epochs(&self) -> &[EpochSnapshot] {
        &self.epochs
    }
}

// ---- exporters ----

/// Append `s` JSON-escaped (quotes included) to `out`. Every exporter
/// routes its strings through here.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The event's kind-specific fields as `"k":v` pairs (no braces).
fn event_fields(out: &mut String, kind: &EventKind) {
    match kind {
        EventKind::GuardHit { ds, index }
        | EventKind::GuardMiss { ds, index }
        | EventKind::PrefetchIssue { ds, index }
        | EventKind::PrefetchConfirm { ds, index } => {
            let _ = write!(out, "\"ds\":{ds},\"index\":{index}");
        }
        EventKind::Fetch {
            ds,
            index,
            bytes,
            cycles,
            prefetch,
        } => {
            let _ = write!(
                out,
                "\"ds\":{ds},\"index\":{index},\"bytes\":{bytes},\"cycles\":{cycles},\"prefetch\":{prefetch}"
            );
        }
        EventKind::Eviction { ds, index, dirty } => {
            let _ = write!(out, "\"ds\":{ds},\"index\":{index},\"dirty\":{dirty}");
        }
        EventKind::Writeback {
            ds,
            index,
            bytes,
            cycles,
        } => {
            let _ = write!(
                out,
                "\"ds\":{ds},\"index\":{index},\"bytes\":{bytes},\"cycles\":{cycles}"
            );
        }
        EventKind::Retry {
            ds,
            index,
            attempt,
            write,
            backoff,
        } => {
            let _ = write!(
                out,
                "\"ds\":{ds},\"index\":{index},\"attempt\":{attempt},\"write\":{write},\"backoff\":{backoff}"
            );
        }
        EventKind::NetAbort {
            ds,
            index,
            attempts,
            write,
        } => {
            let _ = write!(
                out,
                "\"ds\":{ds},\"index\":{index},\"attempts\":{attempts},\"write\":{write}"
            );
        }
        EventKind::Breaker { ds, from, to } => {
            let _ = write!(out, "\"ds\":{ds},\"from\":\"{from}\",\"to\":\"{to}\"");
        }
        EventKind::CrashDetected { generation } => {
            let _ = write!(out, "\"generation\":{generation}");
        }
        EventKind::JournalReplay { ds, index, bytes } => {
            let _ = write!(out, "\"ds\":{ds},\"index\":{index},\"bytes\":{bytes}");
        }
        EventKind::PolicyDecision { ds, pinned, why } => {
            let _ = write!(out, "\"ds\":{ds},\"pinned\":{pinned},\"why\":");
            json_str(out, why);
        }
        EventKind::Demotion { ds } => {
            let _ = write!(out, "\"ds\":{ds}");
        }
        EventKind::DsRegister { ds, hint } => {
            let _ = write!(out, "\"ds\":{ds},\"hint\":");
            json_str(out, &format!("{hint:?}"));
        }
        EventKind::DsAlloc { ds, bytes } | EventKind::Free { ds, bytes } => {
            let _ = write!(out, "\"ds\":{ds},\"bytes\":{bytes}");
        }
        EventKind::ScopeBegin { depth } | EventKind::ScopeEnd { depth } => {
            let _ = write!(out, "\"depth\":{depth}");
        }
        EventKind::Dispatch { slow } => {
            let _ = write!(out, "\"slow\":{slow}");
        }
        EventKind::Epoch { seq } => {
            let _ = write!(out, "\"seq\":{seq}");
        }
        EventKind::PressurePhase {
            phase,
            pinned_pct,
            remotable_pct,
        } => {
            let _ = write!(
                out,
                "\"phase\":{phase},\"pinned_pct\":{pinned_pct},\"remotable_pct\":{remotable_pct}"
            );
        }
        EventKind::PressureHigh { used, budget } => {
            let _ = write!(out, "\"used\":{used},\"budget\":{budget}");
        }
        EventKind::ProactiveEvict { evicted, bytes } => {
            let _ = write!(out, "\"evicted\":{evicted},\"bytes\":{bytes}");
        }
        EventKind::PinStarvation { used, window } => {
            let _ = write!(out, "\"used\":{used},\"window\":{window}");
        }
        EventKind::Spill { ds, index, write } => {
            let _ = write!(out, "\"ds\":{ds},\"index\":{index},\"write\":{write}");
        }
        EventKind::HintDemoted { ds, why } | EventKind::HintPromoted { ds, why } => {
            let _ = write!(out, "\"ds\":{ds},\"why\":");
            json_str(out, why);
        }
        EventKind::Resolve {
            epoch,
            demoted,
            promoted,
        } => {
            let _ = write!(
                out,
                "\"epoch\":{epoch},\"demoted\":{demoted},\"promoted\":{promoted}"
            );
        }
    }
}

fn hist_json(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
        h.count(),
        h.min(),
        h.max(),
        h.mean(),
        h.p50(),
        h.p95(),
        h.p99()
    );
    for (i, (lo, n)) in h.nonzero_buckets().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{lo},{n}]");
    }
    out.push_str("]}");
}

fn net_json(out: &mut String, n: &NetStats) {
    let _ = write!(
        out,
        "{{\"fetches\":{},\"writebacks\":{},\"bytes_fetched\":{},\"bytes_written\":{},\"retries\":{},\"cycles\":{}}}",
        n.fetches, n.writebacks, n.bytes_fetched, n.bytes_written, n.retries, n.cycles
    );
}

/// Export the runtime's full telemetry state (events, histograms, epochs,
/// cumulative stats) as deterministic JSON: same run → same bytes.
pub fn export_json<T: Transport>(rt: &FarMemRuntime<T>) -> String {
    let tel = rt.telemetry();
    let mut s = String::new();
    let g = rt.stats();
    let _ = write!(
        s,
        "{{\"clock_cycles\":{},\"guard_events\":{},\"dropped_events\":{},\"dropped_by_kind\":{{",
        g.cycles,
        rt.guard_events(),
        tel.dropped()
    );
    for (i, (k, n)) in tel.dropped_by_kind().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{n}");
    }
    s.push_str("},\"events\":[");
    for (i, e) in tel.events().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"cycle\":{},\"kind\":\"{}\",", e.cycle, e.kind.name());
        event_fields(&mut s, &e.kind);
        s.push('}');
    }
    s.push_str("],\"histograms\":{");
    for (i, p) in HistPath::ALL.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":", p.name());
        hist_json(&mut s, tel.hist(*p));
    }
    s.push_str("},\"epochs\":[");
    for (i, ep) in tel.epochs().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"seq\":{},\"cycle\":{},\"net\":", ep.seq, ep.cycle);
        net_json(&mut s, &ep.net);
        s.push_str(",\"ds\":[");
        for (j, d) in ep.ds.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"ds\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"writebacks\":{},\"prefetch_issued\":{},\"prefetch_useful\":{}}}",
                d.ds, d.hits, d.misses, d.evictions, d.writebacks, d.prefetch_issued, d.prefetch_useful
            );
        }
        s.push_str("]}");
    }
    s.push_str("],\"ds\":[");
    for h in 0..rt.ds_count() as u16 {
        let (Some(st), Some(spec)) = (rt.ds_stats(h), rt.ds_spec(h)) else {
            continue;
        };
        if h > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"handle\":{h},\"name\":");
        json_str(&mut s, &spec.name);
        let _ = write!(
            s,
            ",\"remotable\":{},\"hits\":{},\"misses\":{},\"miss_ratio\":{:.4},\"evictions\":{},\"writebacks\":{},\"prefetch_issued\":{},\"prefetch_useful\":{},\"demotions\":{},\"breaker_trips\":{},\"spills\":{},\"hint_demotions\":{},\"hint_promotions\":{},\"bytes_allocated\":{}}}",
            rt.is_remotable(h),
            st.hits,
            st.misses,
            st.miss_ratio(),
            st.evictions,
            st.writebacks,
            st.prefetch_issued,
            st.prefetch_useful,
            st.demotions,
            st.breaker_trips,
            st.spills,
            st.hint_demotions,
            st.hint_promotions,
            st.bytes_allocated
        );
    }
    let _ = write!(
        s,
        "],\"totals\":{{\"custody_checks\":{},\"derefs_local\":{},\"derefs_remote\":{},\"remotable_checks\":{},\"retries\":{},\"overcommits\":{},\"timeouts\":{},\"corrupt_fetches\":{},\"backoff_cycles\":{},\"journal_replays\":{},\"crashes_detected\":{},\"flush_failures\":{},\"pressure_high_crossings\":{},\"proactive_evictions\":{},\"pressure_phase_changes\":{},\"resolves\":{},\"hint_demotions\":{},\"hint_promotions\":{},\"spill_reads\":{},\"spill_writes\":{},\"pin_starvations\":{},\"cycles\":{}}},\"net\":",
        g.custody_checks,
        g.derefs_local,
        g.derefs_remote,
        g.remotable_checks,
        g.retries,
        g.overcommits,
        g.timeouts,
        g.corrupt_fetches,
        g.backoff_cycles,
        g.journal_replays,
        g.crashes_detected,
        g.flush_failures,
        g.pressure_high_crossings,
        g.proactive_evictions,
        g.pressure_phase_changes,
        g.resolves,
        g.hint_demotions,
        g.hint_promotions,
        g.spill_reads,
        g.spill_writes,
        g.pin_starvations,
        g.cycles
    );
    net_json(&mut s, &rt.net_stats());
    s.push_str(",\"profile\":");
    profile_json_fragment(&mut s, rt.profiler());
    s.push('}');
    s
}

/// Append one site's counters as a JSON object (shared with the VM's
/// site-joined profile exporter).
pub fn site_counters_json(out: &mut String, c: &crate::profile::SiteCounters) {
    let _ = write!(
        out,
        "{{\"hits\":{},\"misses\":{},\"remote_cycles\":{},\"evictions\":{},\"prefetch_issued\":{},\"prefetch_useful\":{},\"spills\":{},\"slow_entries\":{},\"fast_entries\":{},\"remote_hist\":",
        c.hits,
        c.misses,
        c.remote_cycles,
        c.evictions,
        c.prefetch_issued,
        c.prefetch_useful,
        c.spills,
        c.slow_entries,
        c.fast_entries
    );
    hist_json(out, &c.remote_hist);
    out.push('}');
}

/// Append the profiler's per-site counters as a JSON object. Shared by
/// [`export_json`] and `cards_vm`'s site-joined profile exporter (which
/// adds the static site context the runtime cannot see).
pub fn profile_json_fragment(out: &mut String, p: &crate::profile::SiteProfiler) {
    out.push_str("{\"unattributed\":");
    site_counters_json(out, p.unattributed());
    out.push_str(",\"sites\":[");
    for (i, sid) in p.active_sites().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"site\":{sid},\"counters\":");
        site_counters_json(out, &p.site(sid));
        out.push('}');
    }
    out.push_str("]}");
}

/// Export the event ring in Chrome `trace_event` JSON (array-of-events
/// format): load in `chrome://tracing` or Perfetto. Cycles are mapped 1:1
/// to microseconds on the trace timeline; each DS gets its own track
/// (`tid`), with runtime-global events on track 0.
pub fn export_chrome_trace<T: Transport>(rt: &FarMemRuntime<T>) -> String {
    let tel = rt.telemetry();
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: &mut String, first: &mut bool, ev: String| {
        if !*first {
            s.push(',');
        }
        *first = false;
        s.push_str(&ev);
    };
    // Name one track per DS, plus the runtime track.
    push(
        &mut s,
        &mut first,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"runtime\"}}"
            .to_string(),
    );
    for h in 0..rt.ds_count() as u16 {
        let Some(spec) = rt.ds_spec(h) else { continue };
        let mut name = String::new();
        json_str(&mut name, &format!("ds{h} {}", spec.name));
        push(
            &mut s,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{name}}}}}",
                h + 1
            ),
        );
    }
    for e in tel.events() {
        let (tid, dur): (u32, u64) = match &e.kind {
            EventKind::GuardHit { ds, .. }
            | EventKind::GuardMiss { ds, .. }
            | EventKind::Eviction { ds, .. }
            | EventKind::PrefetchIssue { ds, .. }
            | EventKind::PrefetchConfirm { ds, .. }
            | EventKind::Retry { ds, .. }
            | EventKind::NetAbort { ds, .. }
            | EventKind::Breaker { ds, .. }
            | EventKind::JournalReplay { ds, .. }
            | EventKind::Demotion { ds }
            | EventKind::DsRegister { ds, .. }
            | EventKind::DsAlloc { ds, .. }
            | EventKind::Free { ds, .. }
            | EventKind::PolicyDecision { ds, .. }
            | EventKind::Spill { ds, .. }
            | EventKind::HintDemoted { ds, .. }
            | EventKind::HintPromoted { ds, .. } => (*ds as u32 + 1, 0),
            EventKind::Fetch { ds, cycles, .. } | EventKind::Writeback { ds, cycles, .. } => {
                (*ds as u32 + 1, *cycles)
            }
            _ => (0, 0),
        };
        let mut args = String::new();
        event_fields(&mut args, &e.kind);
        let ev = if dur > 0 {
            // Complete (duration) event, placed so it *ends* at the stamp.
            format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{dur},\"name\":\"{}\",\"args\":{{{args}}}}}",
                e.cycle.saturating_sub(dur),
                e.kind.name()
            )
        } else {
            format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\"args\":{{{args}}}}}",
                e.cycle,
                e.kind.name()
            )
        };
        push(&mut s, &mut first, ev);
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // bucket [64,128)
        }
        for _ in 0..10 {
            h.record(60_000); // bucket [32768,65536)
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 60_000);
        assert_eq!(h.p50(), 100); // clamped up to min
        assert_eq!(h.p95(), 32_768);
        assert_eq!(h.p99(), 32_768);
        assert!(h.mean() > 100.0 && h.mean() < 60_000.0);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        let mut h = Histogram::default();
        h.record(0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1)]);
    }

    #[test]
    fn histogram_extreme_values_do_not_overflow() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum, u64::MAX); // saturated, not wrapped
                                     // single-value histogram: clamping to observed min makes p50 exact
        assert_eq!(h.p50(), u64::MAX);
    }

    #[test]
    fn histogram_q1_returns_exact_max() {
        // q=1.0 used to return the max *bucket floor* (32768 here) instead
        // of the observed maximum.
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(60_000);
        }
        assert_eq!(h.percentile(1.0), 60_000);
        assert_eq!(h.percentile(1.5), 60_000); // clamped, not garbage
        assert_eq!(h.percentile(0.99), 32_768); // sub-1 quantiles unchanged
    }

    #[test]
    fn histogram_empty_q1_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn ring_drop_counts_are_per_kind() {
        let mut t = Telemetry::new(TelemetryConfig {
            enabled: true,
            ring_capacity: 2,
            epoch_every: 0,
        });
        t.emit(1, EventKind::Dispatch { slow: false });
        t.emit(2, EventKind::Epoch { seq: 0 });
        t.emit(3, EventKind::Epoch { seq: 1 }); // drops the dispatch
        t.emit(4, EventKind::Epoch { seq: 2 }); // drops epoch 0
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.dropped_by_kind().get("dispatch"), Some(&1));
        assert_eq!(t.dropped_by_kind().get("epoch"), Some(&1));
        assert_eq!(t.dropped_by_kind().values().sum::<u64>(), t.dropped());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Telemetry::new(TelemetryConfig {
            enabled: true,
            ring_capacity: 2,
            epoch_every: 0,
        });
        t.emit(1, EventKind::Dispatch { slow: false });
        t.emit(2, EventKind::Dispatch { slow: true });
        t.emit(3, EventKind::Epoch { seq: 0 });
        assert_eq!(t.dropped(), 1);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3]);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut t = Telemetry::new(TelemetryConfig::disabled());
        t.emit(1, EventKind::Dispatch { slow: false });
        t.record(HistPath::Fetch, 99);
        t.snapshot(5, &[DsEpochDelta::default()], NetStats::default());
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.hist(HistPath::Fetch).count(), 0);
        assert!(t.epochs().is_empty());
    }

    #[test]
    fn epoch_snapshots_are_deltas() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        let s0 = DsStats::default();
        let s1 = DsStats {
            hits: 10,
            misses: 4,
            ..Default::default()
        };
        t.snapshot(
            100,
            &[DsEpochDelta::since(0, &s1, &s0)],
            NetStats {
                fetches: 4,
                ..Default::default()
            },
        );
        let s2 = DsStats {
            hits: 25,
            misses: 5,
            ..Default::default()
        };
        t.snapshot(
            200,
            &[DsEpochDelta::since(0, &s2, &s1)],
            NetStats {
                fetches: 9,
                ..Default::default()
            },
        );
        assert_eq!(t.epochs().len(), 2);
        assert_eq!(t.epochs()[0].ds[0].hits, 10);
        assert_eq!(t.epochs()[1].ds[0].hits, 15);
        assert_eq!(t.epochs()[1].ds[0].misses, 1);
        assert_eq!(t.epochs()[1].net.fetches, 5);
        assert_eq!(t.epochs()[1].seq, 1);
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
