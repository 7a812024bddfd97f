//! Sharded remote tier: N shard server threads behind one [`Transport`]
//! facade, serving many concurrent worker VMs.
//!
//! Each replica runs on its own OS thread behind a bounded channel ("two
//! machines" over a link; one unreplicated shard is the plain two-machine
//! configuration). On top of that this module builds the concurrent data
//! plane of the serving story:
//!
//! - **Sharding** — objects hash to one of N shards, each owning an
//!   independent store, generation counter and unacked set (the crash
//!   semantics of [`crate::chaos::ChaosTransport`], per shard).
//! - **Replication** — each shard is a replica set (primary + backup by
//!   default, see [`crate::replica`]): the primary ships its writeback
//!   journal to the backup in bounded-lag epochs, and clients perform
//!   epoch-fenced failover when the primary dies or times out. Stalled
//!   primaries can additionally be raced with **hedged reads** against
//!   the backup, first response wins.
//! - **Fetch coalescing** — concurrent misses on the same [`ObjKey`] from
//!   different clients dedup into one wire transfer; followers wait on the
//!   leader's result and bump a `coalesced_hits` counter.
//! - **Batched writebacks** — dirty objects buffer client-side per shard
//!   and depart in one envelope *train* instead of one message per object;
//!   a bounded window of unacknowledged trains keeps the pipeline async
//!   without unbounded queueing. A train is retained until acked so a
//!   failover mid-flight can replay it against the new primary.
//!
//! ## Two read paths
//!
//! Every replica's store sits behind an `RwLock` its thread writes under.
//! A fetch whose answer cannot differ from the channel round trip is
//! served on the **fast path**: the client reads the active replica's
//! store in its own thread. That holds when the active replica is alive,
//! is not stalled (`stall_replica` flags it before the stall is queued),
//! and this client has no departed-but-unacked train to the shard (FIFO
//! would apply such a train before a channel fetch; the pending buffer
//! already serves keys that have not departed). Every other read takes
//! the **channel path** — coalescer, hedging, health timeout and failover
//! retry — and so still crosses the replica thread: reads of a killed,
//! suspect or stalled replica, and reads behind this client's own unacked
//! trains. Both paths charge the same modeled cycles and record the same
//! tap records, spans and gauges; a fast-path read counts as one
//! `wire_fetches` transfer. The coalescer therefore engages only on the
//! channel path, and healthy runs report about zero `coalesced_hits`.
//! Writes, removes, flushes and control requests always use the channel.
//!
//! ## Determinism contract
//!
//! Each client's *modeled* cycle accounting depends only on its own
//! operation sequence: a coalesced follower is charged the same modeled
//! cost as the leader (the modeled clock is per-worker virtual time), a
//! hedged fetch is charged identically whichever replica won the race,
//! and the writeback buffer/window state is client-local. Per-client
//! [`NetStats`] are therefore reproducible run to run even though thread
//! interleaving is not. What *is* interleaving-dependent — which fetch won
//! the race, how many transfers were saved, who initiated a failover —
//! lives in the shared [`ShardedStats`] counters and is reported, never
//! asserted byte-exactly. Final server state is order-independent for the
//! workloads this tier serves (identical load phases, single-writer serve
//! phases), which the checksum-quiescence oracle in `cards-vm::worker`
//! verifies — including across every fault cell of the failover campaign.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};

use crate::fleet::{
    FailoverIncident, FleetEvent, FleetEventLog, ServerSpan, ServerSpanKind, ServerSpanLog,
    DEFAULT_SPAN_LOG_CAPACITY,
};
use crate::model::NetworkModel;
use crate::replica::{
    replica_loop, ReplicaConfig, ReplicaRequest, ReplicaResponse, ReplicaSet, SharedCounters,
    MAX_SHIP_LAG,
};
use crate::stats::NetStats;
use crate::transport::{FaultEvents, Fetched, NetError, ObjKey, Transport};
use crate::wiretap::{TraceContext, WireDir, WireOp, WireTap, DEFAULT_TAP_CAPACITY};

/// Upper bound on fence/failover retries per logical operation before the
/// client gives up with [`NetError::Disconnected`].
const FAILOVER_RETRY_CAP: usize = 32;

/// Tuning knobs for the sharded tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Number of shard replica sets.
    pub shards: usize,
    /// Objects per writeback train (a full buffer departs).
    pub train_len: usize,
    /// Max unacknowledged trains per shard before a put blocks on the
    /// oldest ack (the outstanding-request window).
    pub window: usize,
    /// Replication / failover / hedging knobs.
    pub replica: ReplicaConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            train_len: 8,
            window: 4,
            replica: ReplicaConfig::default(),
        }
    }
}

impl ShardedConfig {
    /// One unreplicated shard with one-object trains: the plain
    /// cross-thread "two machines" transport, costed like
    /// [`crate::transport::SimTransport`].
    pub fn single_server() -> Self {
        ShardedConfig {
            shards: 1,
            train_len: 1,
            replica: ReplicaConfig {
                replicas: 1,
                ..ReplicaConfig::default()
            },
            ..ShardedConfig::default()
        }
    }
}

/// Cross-client counters (shared, atomic): the interleaving-dependent
/// truth about what actually crossed the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Fetches that piggybacked on another client's in-flight transfer.
    pub coalesced_hits: u64,
    /// Fetches that actually crossed the wire (coalescing leaders).
    pub wire_fetches: u64,
    /// Writeback trains sent.
    pub trains: u64,
    /// Objects carried by those trains.
    pub train_objects: u64,
    /// Shard crashes injected.
    pub crashes: u64,
    /// Unacked objects dropped by crashes.
    pub dropped_objects: u64,
    /// Completed takeovers (backup promoted to primary).
    pub failovers: u64,
    /// Failover entries, including ones that lost the race to another
    /// client and found the shard already healthy.
    pub failover_attempts: u64,
    /// Writes bounced for carrying a stale fencing epoch or landing on a
    /// deposed replica.
    pub fenced_writes: u64,
    /// Journal ships discarded because the sender was deposed mid-flight.
    pub fenced_ships: u64,
    /// Fetches that sent a hedge to the backup.
    pub hedged_fetches: u64,
    /// Hedged fetches where the primary answered first anyway.
    pub hedge_wasted: u64,
    /// Journal epochs shipped primary → backup.
    pub shipped_epochs: u64,
}

impl SharedCounters {
    fn snapshot(&self) -> ShardedStats {
        ShardedStats {
            coalesced_hits: self.coalesced_hits.load(Ordering::Relaxed),
            wire_fetches: self.wire_fetches.load(Ordering::Relaxed),
            trains: self.trains.load(Ordering::Relaxed),
            train_objects: self.train_objects.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
            dropped_objects: self.dropped_objects.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            failover_attempts: self.failover_attempts.load(Ordering::Relaxed),
            fenced_writes: self.fenced_writes.load(Ordering::Relaxed),
            fenced_ships: self.fenced_ships.load(Ordering::Relaxed),
            hedged_fetches: self.hedged_fetches.load(Ordering::Relaxed),
            hedge_wasted: self.hedge_wasted.load(Ordering::Relaxed),
            shipped_epochs: self.shipped_epochs.load(Ordering::Relaxed),
        }
    }
}

/// One in-flight fetch the coalescer tracks: followers block on the
/// condvar until the leader publishes the result. The leader's causal
/// context is retained so a joining follower can record who it
/// piggybacked on (interleaving-dependent: event-log only).
struct Inflight {
    done: Mutex<Option<Result<Vec<u8>, NetError>>>,
    cv: Condvar,
    leader_ctx: TraceContext,
}

impl Inflight {
    fn new(leader_ctx: TraceContext) -> Self {
        Inflight {
            done: Mutex::new(None),
            cv: Condvar::new(),
            leader_ctx,
        }
    }
}

#[derive(Default)]
struct Coalescer {
    inflight: Mutex<HashMap<ObjKey, Arc<Inflight>>>,
}

/// Owner of the shard replica sets. Clients connect via
/// [`ShardedServer::client`]; dropping the server shuts every replica down.
pub struct ShardedServer {
    sets: Vec<ReplicaSet>,
    counters: Arc<SharedCounters>,
    coalescer: Arc<Coalescer>,
    events: Arc<FleetEventLog>,
    model: NetworkModel,
    cfg: ShardedConfig,
}

/// RAII handle returned by [`ShardedServer::stall_shard`]: the replica
/// stays unresponsive until this is dropped (or [`StallGuard::release`] is
/// called).
pub struct StallGuard {
    _tx: SyncSender<()>,
}

impl StallGuard {
    /// Unblock the stalled replica.
    pub fn release(self) {}
}

impl ShardedServer {
    /// Spawn `cfg.shards` replica sets with the given cost model.
    pub fn spawn(cfg: ShardedConfig, model: NetworkModel) -> Self {
        let counters = Arc::new(SharedCounters::default());
        let events = Arc::new(FleetEventLog::default());
        let replicas = cfg.replica.replica_count();
        let sets = (0..cfg.shards.max(1))
            .map(|shard| {
                let shared = Arc::new(crate::replica::ReplicaShared::new(replicas));
                let channels: Vec<(SyncSender<ReplicaRequest>, Receiver<ReplicaRequest>)> =
                    (0..replicas).map(|_| sync_channel(256)).collect();
                let txs: Vec<SyncSender<ReplicaRequest>> =
                    channels.iter().map(|(tx, _)| tx.clone()).collect();
                let joins = channels
                    .into_iter()
                    .enumerate()
                    .map(|(r, (_, rx))| {
                        let peer = if replicas > 1 {
                            let p = (r + 1) % replicas;
                            Some((p, txs[p].clone()))
                        } else {
                            None
                        };
                        let shared = Arc::clone(&shared);
                        let counters = Arc::clone(&counters);
                        let events = Arc::clone(&events);
                        let join = std::thread::Builder::new()
                            .name(format!("cards-shard-{shard}-r{r}"))
                            .spawn(move || {
                                replica_loop(shard as u32, r, rx, peer, shared, counters, events)
                            })
                            .expect("spawn shard replica");
                        Mutex::new(Some(join))
                    })
                    .collect();
                ReplicaSet { txs, shared, joins }
            })
            .collect();
        ShardedServer {
            sets,
            counters,
            coalescer: Arc::new(Coalescer::default()),
            events,
            model,
            cfg,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sets.len()
    }

    /// Replicas per shard.
    pub fn replica_count(&self) -> usize {
        self.cfg.replica.replica_count()
    }

    /// Connect a new client. Each worker VM owns one.
    pub fn client(&self) -> ShardedClient {
        ShardedClient {
            shards: self
                .sets
                .iter()
                .map(|s| ClientShard {
                    txs: s.txs.clone(),
                    shared: Arc::clone(&s.shared),
                    buf: BTreeMap::new(),
                    window: VecDeque::new(),
                })
                .collect(),
            coalescer: Arc::clone(&self.coalescer),
            counters: Arc::clone(&self.counters),
            events: Arc::clone(&self.events),
            model: self.model,
            cfg: self.cfg,
            stats: NetStats::default(),
            pending_faults: Cell::new(FaultEvents::default()),
            ctx: TraceContext::NONE,
            tap: WireTap::new(DEFAULT_TAP_CAPACITY),
            slog: ServerSpanLog::new(DEFAULT_SPAN_LOG_CAPACITY),
            incidents: RefCell::new(Vec::new()),
        }
    }

    /// Shared cross-client counters.
    pub fn sharded_stats(&self) -> ShardedStats {
        self.counters.snapshot()
    }

    /// The shared replica-lifecycle / cross-client event log
    /// (interleaving-dependent; counters-region truth only).
    pub fn fleet_events(&self) -> &FleetEventLog {
        &self.events
    }

    fn control(
        &self,
        shard: usize,
        replica: usize,
        make: impl FnOnce(SyncSender<ReplicaResponse>) -> ReplicaRequest,
    ) {
        let (tx, rx) = sync_channel(1);
        if self.sets[shard].txs[replica].send(make(tx)).is_ok() {
            let _ = rx.recv();
        }
    }

    /// Index of the replica currently serving shard `i`.
    pub fn active_replica(&self, i: usize) -> usize {
        self.sets[i].shared.active_idx()
    }

    /// Crash the active replica of shard `i`: its unacked objects are
    /// dropped and its generation bumps, exactly as
    /// [`crate::chaos::ChaosTransport`]'s crash/restart phase — but
    /// shard-scoped and caller-triggered.
    pub fn crash_shard(&self, i: usize) {
        let active = self.sets[i].shared.active_idx();
        self.control(i, active, ReplicaRequest::Crash);
    }

    /// Kill the **active** replica of shard `i`, as if that server machine
    /// died. With a live backup, clients fail over (epoch-fenced takeover);
    /// once every replica is dead, operations surface
    /// [`NetError::Disconnected`] deterministically.
    pub fn kill_shard(&self, i: usize) {
        let active = self.sets[i].shared.active_idx();
        self.sets[i].kill(active);
    }

    /// Kill the current standby replica of shard `i` (no-op when the shard
    /// is unreplicated).
    pub fn kill_backup(&self, i: usize) {
        let set = &self.sets[i];
        if set.txs.len() < 2 {
            return;
        }
        let backup = (set.shared.active_idx() + 1) % set.txs.len();
        set.kill(backup);
    }

    /// Kill one specific replica of shard `i`.
    pub fn kill_replica(&self, i: usize, r: usize) {
        self.sets[i].kill(r);
    }

    /// Hold the active replica of shard `i` unresponsive until the returned
    /// guard is dropped. Requests queue behind the stall; used to force
    /// deterministic request overlap (coalescer, hedging, health-timeout
    /// failover) in tests and fault campaigns.
    pub fn stall_shard(&self, i: usize) -> StallGuard {
        let active = self.sets[i].shared.active_idx();
        self.stall_replica(i, active)
    }

    /// Stall the current standby replica of shard `i`.
    pub fn stall_backup(&self, i: usize) -> StallGuard {
        let set = &self.sets[i];
        let r = if set.txs.len() < 2 {
            set.shared.active_idx()
        } else {
            (set.shared.active_idx() + 1) % set.txs.len()
        };
        self.stall_replica(i, r)
    }

    /// Stall one specific replica of shard `i`.
    pub fn stall_replica(&self, i: usize, r: usize) -> StallGuard {
        let (tx, rx) = sync_channel::<()>(1);
        // Flag first, so no fast-path read overtakes the queued stall.
        self.sets[i].shared.stalled[r].store(true, Ordering::SeqCst);
        let _ = self.sets[i].txs[r].send(ReplicaRequest::Stall(rx));
        StallGuard { _tx: tx }
    }

    /// Per-DS checksums over the full sharded store (active replicas): the
    /// quiescence oracle's observable. Digests are folded in global key
    /// order, so the result is independent of shard count, replica count
    /// and arrival interleaving.
    pub fn digest(&self) -> BTreeMap<u32, u64> {
        let mut all: Vec<(ObjKey, u64)> = Vec::new();
        for set in &self.sets {
            // Prefer the active replica; if its channel is already gone
            // (killed before any client op forced a takeover), any
            // surviving replica holds the flushed state.
            let active = set.shared.active_idx();
            let order = (0..set.txs.len()).map(|off| (active + off) % set.txs.len());
            for r in order {
                let (tx, rx) = sync_channel(1);
                if set.txs[r].send(ReplicaRequest::Digest(tx)).is_err() {
                    continue;
                }
                if let Ok(ReplicaResponse::Digest(v)) = rx.recv() {
                    all.extend(v);
                    break;
                }
            }
        }
        all.sort_unstable_by_key(|(k, _)| *k);
        let mut per_ds: BTreeMap<u32, u64> = BTreeMap::new();
        for (key, h) in all {
            let acc = per_ds.entry(key.ds).or_insert(0xcbf2_9ce4_8422_2325);
            *acc = mix64(*acc ^ key.index ^ h);
        }
        per_ds
    }
}

impl Drop for ShardedServer {
    fn drop(&mut self) {
        for set in &self.sets {
            for tx in &set.txs {
                let _ = tx.send(ReplicaRequest::Shutdown);
            }
            for j in &set.joins {
                if let Ok(mut slot) = j.lock() {
                    if let Some(h) = slot.take() {
                        let _ = h.join();
                    }
                }
            }
        }
    }
}

/// FNV-1a over the payload: cheap, deterministic per-object digest.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer (shard selection, digest folding).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One departed-but-unacknowledged train. The payload is retained until
/// the ack arrives so a failover mid-flight can replay it against the new
/// primary (train application is idempotent: same keys, same bytes).
struct PendingTrain {
    rx: Receiver<ReplicaResponse>,
    objs: Vec<(ObjKey, Vec<u8>)>,
}

struct ClientShard {
    txs: Vec<SyncSender<ReplicaRequest>>,
    shared: Arc<crate::replica::ReplicaShared>,
    /// Pending writeback buffer: read-your-writes store for keys whose
    /// train has not departed yet (BTreeMap: deterministic departure
    /// order).
    buf: BTreeMap<ObjKey, Vec<u8>>,
    /// Departed-but-unacknowledged trains, oldest first.
    window: VecDeque<PendingTrain>,
}

/// Client half of the sharded tier: one per worker VM. Implements
/// [`Transport`] with coalesced fetches, batched windowed writebacks, and
/// epoch-fenced failover across each shard's replica set.
pub struct ShardedClient {
    shards: Vec<ClientShard>,
    coalescer: Arc<Coalescer>,
    counters: Arc<SharedCounters>,
    events: Arc<FleetEventLog>,
    model: NetworkModel,
    cfg: ShardedConfig,
    stats: NetStats,
    /// Fault events this client produced since the runtime last drained
    /// them (failovers it initiated, hedges it sent, fences it hit).
    pending_faults: Cell<FaultEvents>,
    ctx: TraceContext,
    /// Client-edge wire tap (deterministic per client, like the modeled
    /// stats: one send/recv pair per facade operation).
    tap: WireTap,
    /// Deterministic server-side decomposition of every modeled charge.
    slog: ServerSpanLog,
    /// Takeovers this client performed, on its modeled clock (interior
    /// mutability: `failover` runs behind `&self`).
    incidents: RefCell<Vec<FailoverIncident>>,
}

impl ShardedClient {
    fn shard_of(&self, key: ObjKey) -> usize {
        (mix64(key.index ^ (key.ds as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize)
            % self.shards.len()
    }

    /// Cross-client counters (coalescing, trains, crashes, failovers).
    pub fn sharded_stats(&self) -> ShardedStats {
        self.counters.snapshot()
    }

    /// This client's deterministic server-side span log.
    pub fn server_span_log(&self) -> &ServerSpanLog {
        &self.slog
    }

    /// Takeovers this client performed, in the order it performed them.
    pub fn incidents(&self) -> Vec<FailoverIncident> {
        self.incidents.borrow().clone()
    }

    /// The shared fleet event log this client reports joins/hedges into.
    pub fn fleet_events(&self) -> &FleetEventLog {
        &self.events
    }

    /// Record one server-side span under the current context and fold it
    /// into the shard's gauges.
    fn span(&mut self, shard: usize, kind: ServerSpanKind, cycles: u64, bytes: u64, depth: u64) {
        self.slog.record(ServerSpan {
            ctx: self.ctx,
            shard: shard as u32,
            kind,
            cycles,
            bytes,
            depth,
        });
        self.slog.gauges(shard as u32).server_cycles += cycles;
    }

    fn note_fault(&self, f: impl FnOnce(&mut FaultEvents)) {
        let mut ev = self.pending_faults.get();
        f(&mut ev);
        self.pending_faults.set(ev);
    }

    /// Epoch-fenced takeover, serialized per shard. Returns Ok once the
    /// shard has a live active replica again (whether this client or a
    /// racing one performed the promotion), Err when no standby is left.
    fn failover(&self, shard: usize) -> Result<(), NetError> {
        let set = &self.shards[shard];
        self.counters
            .failover_attempts
            .fetch_add(1, Ordering::Relaxed);
        let _guard = set.shared.failover_lock.lock().expect("failover lock");
        let cur = set.shared.active_idx();
        if set.shared.alive[cur].load(Ordering::SeqCst) {
            // A racing client already promoted a standby (or the suspicion
            // was resolved); nothing to do under the lock.
            return Ok(());
        }
        let n = set.txs.len();
        let standby = (1..n)
            .map(|off| (cur + off) % n)
            .find(|&r| set.shared.alive[r].load(Ordering::SeqCst));
        let Some(target) = standby else {
            return Err(NetError::Disconnected);
        };
        // Fence first: writes stamped with the old epoch bounce from every
        // replica before the standby even learns of the takeover.
        let fence = set.shared.fencing_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let (tx, rx) = sync_channel(1);
        if set.txs[target]
            .send(ReplicaRequest::TakeOver { reply: tx })
            .is_err()
        {
            set.shared.alive[target].store(false, Ordering::SeqCst);
            return Err(NetError::Disconnected);
        }
        // FIFO drain: by the time this ack arrives the standby has applied
        // every delta the old primary shipped (its journal is replayed).
        if rx.recv().is_err() {
            set.shared.alive[target].store(false, Ordering::SeqCst);
            return Err(NetError::Disconnected);
        }
        set.shared.active.store(target as u64, Ordering::SeqCst);
        // Bump the shard generation: the runtime's crash watch replays its
        // client-side journal, covering any bounded replication lag.
        set.shared.generation.fetch_add(1, Ordering::SeqCst);
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        self.note_fault(|ev| ev.failovers += 1);
        // The whole handshake runs at one modeled instant (failover costs
        // no modeled cycles); the incident's phase sequence is the
        // protocol order demote → fence bump → handshake → drain → resume.
        self.incidents.borrow_mut().push(FailoverIncident {
            shard: shard as u32,
            fence,
            from: cur as u32,
            to: target as u32,
            at_cycles: self.stats.cycles,
            trace: self.ctx.trace,
        });
        Ok(())
    }

    /// Route one request to the shard's active replica, retrying through
    /// fences and failovers until it sticks or no replica is left.
    fn call(
        &self,
        shard: usize,
        mut make: impl FnMut(u64, SyncSender<ReplicaResponse>) -> ReplicaRequest,
    ) -> Result<ReplicaResponse, NetError> {
        let set = &self.shards[shard];
        for _ in 0..FAILOVER_RETRY_CAP {
            let active = set.shared.active_idx();
            if !set.shared.alive[active].load(Ordering::SeqCst) {
                self.failover(shard)?;
                continue;
            }
            let fence = set.shared.fencing_epoch.load(Ordering::SeqCst);
            let (tx, rx) = sync_channel(1);
            if set.txs[active].send(make(fence, tx)).is_err() {
                set.shared.alive[active].store(false, Ordering::SeqCst);
                self.failover(shard)?;
                continue;
            }
            let resp = match self.cfg.replica.health_timeout {
                Some(t) => rx.recv_timeout(t).map_err(|_| ()),
                None => rx.recv().map_err(|_| ()),
            };
            match resp {
                Ok(ReplicaResponse::Fenced) => {
                    self.note_fault(|ev| ev.fenced += 1);
                    // Re-read fence/active and retry; if the shard is mid
                    // takeover the failover lock below synchronizes us.
                    self.failover(shard)?;
                }
                Ok(r) => return Ok(r),
                Err(()) => {
                    // Disconnect or health timeout: declare the active
                    // replica suspect and promote a standby.
                    set.shared.alive[active].store(false, Ordering::SeqCst);
                    self.failover(shard)?;
                }
            }
        }
        Err(NetError::Disconnected)
    }

    /// One wire fetch (the coalescing leader's transfer), with optional
    /// hedging against the backup when the primary is slow.
    fn wire_fetch(&self, key: ObjKey) -> Result<Vec<u8>, NetError> {
        self.counters.wire_fetches.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard_of(key);
        let set = &self.shards[shard];
        for _ in 0..FAILOVER_RETRY_CAP {
            let active = set.shared.active_idx();
            if !set.shared.alive[active].load(Ordering::SeqCst) {
                self.failover(shard)?;
                continue;
            }
            let (tx, rx) = sync_channel::<ReplicaResponse>(2);
            if set.txs[active]
                .send(ReplicaRequest::Fetch(key, tx.clone()))
                .is_err()
            {
                drop(tx);
                set.shared.alive[active].store(false, Ordering::SeqCst);
                self.failover(shard)?;
                continue;
            }
            let resp: Result<ReplicaResponse, ()> = match self.cfg.replica.hedge_after {
                Some(hedge_after) if set.txs.len() > 1 => {
                    match rx.recv_timeout(hedge_after) {
                        Ok(r) => {
                            drop(tx);
                            Ok(r)
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            drop(tx);
                            Err(())
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            // Hedge gate: only race the backup while none of
                            // this client's trains to the shard is unacked,
                            // no failover has ever fenced the shard, and the
                            // backup has consumed every shipped epoch —
                            // then its answer cannot be stale for a
                            // single-writer keyspace.
                            let backup = (active + 1) % set.txs.len();
                            let safe = set.window.is_empty()
                                && set.shared.fencing_epoch.load(Ordering::SeqCst) == 0
                                && set.shared.backup_caught_up()
                                && set.shared.alive[backup].load(Ordering::SeqCst);
                            let hedged = safe
                                && set.txs[backup]
                                    .send(ReplicaRequest::Fetch(key, tx.clone()))
                                    .is_ok();
                            drop(tx);
                            if hedged {
                                self.counters.hedged_fetches.fetch_add(1, Ordering::Relaxed);
                                self.note_fault(|ev| ev.hedged += 1);
                                match rx.recv() {
                                    Ok(r) => {
                                        if let ReplicaResponse::Data { from, .. } = &r {
                                            if *from == active {
                                                self.counters
                                                    .hedge_wasted
                                                    .fetch_add(1, Ordering::Relaxed);
                                                self.note_fault(|ev| ev.hedge_wasted += 1);
                                                self.events.push(FleetEvent::HedgeWaste {
                                                    shard: shard as u32,
                                                });
                                            } else {
                                                self.events.push(FleetEvent::HedgeWin {
                                                    shard: shard as u32,
                                                    from: *from as u32,
                                                });
                                            }
                                        }
                                        Ok(r)
                                    }
                                    Err(_) => Err(()),
                                }
                            } else {
                                // No safe hedge: fall back to the plain
                                // wait (health timeout if configured).
                                match self.cfg.replica.health_timeout {
                                    Some(t) => rx.recv_timeout(t).map_err(|_| ()),
                                    None => rx.recv().map_err(|_| ()),
                                }
                            }
                        }
                    }
                }
                _ => {
                    drop(tx);
                    match self.cfg.replica.health_timeout {
                        Some(t) => rx.recv_timeout(t).map_err(|_| ()),
                        None => rx.recv().map_err(|_| ()),
                    }
                }
            };
            match resp {
                Ok(ReplicaResponse::Data { bytes: Some(b), .. }) => return Ok(b),
                Ok(ReplicaResponse::Data { bytes: None, .. }) => {
                    return Err(NetError::NotFound(key))
                }
                Ok(_) => return Err(NetError::Disconnected),
                Err(()) => {
                    set.shared.alive[active].store(false, Ordering::SeqCst);
                    self.failover(shard)?;
                }
            }
        }
        Err(NetError::Disconnected)
    }

    /// The fetch fast path: read the active replica's store in this thread
    /// when the answer cannot differ from the channel round trip — the
    /// replica is alive and not stalled, and none of this client's trains
    /// to the shard is still unacked (FIFO would apply those before a
    /// channel fetch). `None` sends the read down the channel path.
    fn direct_fetch(&self, shard: usize, key: ObjKey) -> Option<Result<Vec<u8>, NetError>> {
        let set = &self.shards[shard];
        let active = set.shared.active_idx();
        if !set.window.is_empty()
            || !set.shared.alive[active].load(Ordering::SeqCst)
            || set.shared.stalled[active].load(Ordering::SeqCst)
        {
            return None;
        }
        self.counters.wire_fetches.fetch_add(1, Ordering::Relaxed);
        let store = set.shared.stores[active].read().expect("replica store");
        Some(store.get(&key).cloned().ok_or(NetError::NotFound(key)))
    }

    /// Fetch through the coalescer: first-comer leads the transfer,
    /// concurrent callers for the same key follow its result.
    fn coalesced_fetch(&self, key: ObjKey) -> Result<Vec<u8>, NetError> {
        let (entry, leader) = {
            let mut map = self.coalescer.inflight.lock().expect("coalescer lock");
            match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
                std::collections::hash_map::Entry::Vacant(v) => {
                    let e = Arc::new(Inflight::new(self.ctx));
                    v.insert(Arc::clone(&e));
                    (e, true)
                }
            }
        };
        if leader {
            let result = self.wire_fetch(key);
            {
                let mut done = entry.done.lock().expect("inflight lock");
                *done = Some(result.clone());
                entry.cv.notify_all();
            }
            self.coalescer
                .inflight
                .lock()
                .expect("coalescer lock")
                .remove(&key);
            result
        } else {
            self.counters.coalesced_hits.fetch_add(1, Ordering::Relaxed);
            // Who led vs who joined is interleaving truth: record it in
            // the shared event log only, never in the per-client span log
            // (whose decomposition must be identical either way).
            self.events.push(FleetEvent::CoalesceJoin {
                shard: self.shard_of(key) as u32,
                leader: entry.leader_ctx,
                follower: self.ctx,
            });
            let mut done = entry.done.lock().expect("inflight lock");
            while done.is_none() {
                done = entry.cv.wait(done).expect("inflight wait");
            }
            done.clone().expect("published above")
        }
    }

    fn fetch_inner(&mut self, key: ObjKey, batched: bool) -> Result<Fetched, NetError> {
        let shard = self.shard_of(key);
        let op = if batched {
            WireOp::FetchBatched
        } else {
            WireOp::Fetch
        };
        // Read-your-writes: a buffered put not yet departed must serve
        // fetches (the runtime refetches objects it just evicted).
        if let Some(bytes) = self.shards[shard].buf.get(&key) {
            let bytes = bytes.clone();
            let cycles = self.model.per_msg_cpu;
            self.stats.fetches += 1;
            self.stats.bytes_fetched += bytes.len() as u64;
            self.stats.cycles += cycles;
            // Served from the pending buffer: no server phase ran, the
            // whole charge is residue.
            self.slog.charge(cycles);
            self.slog.add_residue(cycles);
            self.slog.gauges(shard as u32).ops += 1;
            return Ok(Fetched { bytes, cycles });
        }
        self.tap
            .record(WireDir::Send, op, key.ds, key.index, 0, true, self.ctx);
        // Read-your-writes: with one of its own trains to the shard still
        // unacked, a client sends its own fetch down its FIFO channel
        // (behind that train) instead of joining another client's
        // in-flight fetch, which may have been queued before the train.
        let fetched = self.direct_fetch(shard, key).unwrap_or_else(|| {
            if self.shards[shard].window.is_empty() {
                self.coalesced_fetch(key)
            } else {
                self.wire_fetch(key)
            }
        });
        let bytes = match fetched {
            Ok(b) => b,
            Err(e) => {
                self.tap
                    .record(WireDir::Recv, op, key.ds, key.index, 0, false, self.ctx);
                return Err(e);
            }
        };
        // Leader or follower, hedged or not, the modeled charge is
        // identical: the modeled clock is per-worker virtual time, so
        // accounting must not depend on which thread or replica won the
        // race (see module docs).
        let cycles = if batched {
            self.model.per_msg_cpu + self.model.wire_cycles(bytes.len() as u64)
        } else {
            self.model.fetch_cost(bytes.len() as u64)
        };
        self.stats.fetches += 1;
        self.stats.bytes_fetched += bytes.len() as u64;
        self.stats.cycles += cycles;
        self.tap.record(
            WireDir::Recv,
            op,
            key.ds,
            key.index,
            bytes.len() as u64,
            true,
            self.ctx,
        );
        // Decompose the charge into server-side phases: queue wait (zero
        // modeled cycles; depth = this client's outstanding trains),
        // replica apply CPU, and wire serialization. Demand fetches also
        // carry one link latency, which no server phase accounts for —
        // that is the residue.
        let wire = self.model.wire_cycles(bytes.len() as u64);
        let depth = self.shards[shard].window.len() as u64;
        self.slog.charge(cycles);
        self.span(shard, ServerSpanKind::Queue, 0, 0, depth);
        self.span(shard, ServerSpanKind::Apply, self.model.per_msg_cpu, 0, 0);
        self.span(shard, ServerSpanKind::Transfer, wire, bytes.len() as u64, 0);
        self.slog
            .add_residue(cycles - self.model.per_msg_cpu - wire);
        let g = self.slog.gauges(shard as u32);
        g.ops += 1;
        g.queue_depth.observe(depth);
        Ok(Fetched { bytes, cycles })
    }

    /// Send one train to the shard's active replica without waiting for
    /// the ack; the payload is retained in the returned handle for replay.
    fn send_train(
        &self,
        shard: usize,
        mut objs: Vec<(ObjKey, Vec<u8>)>,
    ) -> Result<PendingTrain, NetError> {
        let set = &self.shards[shard];
        for _ in 0..FAILOVER_RETRY_CAP {
            let active = set.shared.active_idx();
            if !set.shared.alive[active].load(Ordering::SeqCst) {
                self.failover(shard)?;
                continue;
            }
            let fence = set.shared.fencing_epoch.load(Ordering::SeqCst);
            let (tx, rx) = sync_channel(1);
            let retained = objs.clone();
            match set.txs[active].send(ReplicaRequest::Train {
                objs,
                fence,
                reply: tx,
            }) {
                Ok(()) => return Ok(PendingTrain { rx, objs: retained }),
                Err(std::sync::mpsc::SendError(msg)) => {
                    // The channel hands the message back: recover the
                    // payload and fail over.
                    if let ReplicaRequest::Train { objs: o, .. } = msg {
                        objs = o;
                    } else {
                        unreachable!("train send returns a train");
                    }
                    set.shared.alive[active].store(false, Ordering::SeqCst);
                    self.failover(shard)?;
                }
            }
        }
        Err(NetError::Disconnected)
    }

    /// Wait for one train's ack, replaying it through failovers/fences
    /// until the (idempotent) train sticks on a live active replica.
    fn await_train(&self, shard: usize, mut train: PendingTrain) -> Result<(), NetError> {
        let set = &self.shards[shard];
        for _ in 0..FAILOVER_RETRY_CAP {
            let resp = match self.cfg.replica.health_timeout {
                Some(t) => train.rx.recv_timeout(t).map_err(|_| ()),
                None => train.rx.recv().map_err(|_| ()),
            };
            match resp {
                Ok(ReplicaResponse::Done) => return Ok(()),
                Ok(ReplicaResponse::Fenced) => {
                    self.note_fault(|ev| ev.fenced += 1);
                    self.failover(shard)?;
                }
                Ok(_) => return Err(NetError::Disconnected),
                Err(()) => {
                    let active = set.shared.active_idx();
                    set.shared.alive[active].store(false, Ordering::SeqCst);
                    self.failover(shard)?;
                }
            }
            train = self.send_train(shard, std::mem::take(&mut train.objs))?;
        }
        Err(NetError::Disconnected)
    }

    /// Seal the shard's pending buffer into a train and send it without
    /// waiting for the ack (the window bounds how far ahead we run).
    /// Returns the modeled cycles of the departure.
    fn depart_train(&mut self, shard: usize) -> Result<u64, NetError> {
        if self.shards[shard].buf.is_empty() {
            return Ok(0);
        }
        let objs: Vec<(ObjKey, Vec<u8>)> = std::mem::take(&mut self.shards[shard].buf)
            .into_iter()
            .collect();
        let members = objs.len() as u64;
        let train_bytes: u64 = objs.iter().map(|(_, b)| b.len() as u64).sum();
        let pending = self.send_train(shard, objs)?;
        self.shards[shard].window.push_back(pending);
        // One message's CPU cost per train; the per-object wire cycles
        // were charged when each object was buffered.
        let cycles = self.model.per_msg_cpu;
        self.stats.cycles += cycles;
        self.slog.charge(cycles);
        self.span(
            shard,
            ServerSpanKind::TrainFlush,
            cycles,
            train_bytes,
            members,
        );
        let g = self.slog.gauges(shard as u32);
        g.ops += 1;
        g.train_size.observe(members);
        if self.shards[shard].window.len() > self.cfg.window.max(1) {
            // This departure will stall on the oldest outstanding ack:
            // the request window is saturated (anomaly trigger fodder).
            self.note_fault(|ev| ev.queue_buildup += 1);
        }
        let shipped = self.shards[shard].shared.shipped.load(Ordering::SeqCst);
        let applied = self.shards[shard].shared.applied.load(Ordering::SeqCst);
        if shipped.saturating_sub(applied) > MAX_SHIP_LAG {
            // Interleaving-dependent observation (feeds stats/triggers,
            // never asserted): replication is at or past its lag bound.
            self.note_fault(|ev| ev.lag_breach += 1);
        }
        while self.shards[shard].window.len() > self.cfg.window.max(1) {
            let oldest = self.shards[shard].window.pop_front().expect("nonempty");
            self.await_train(shard, oldest)?;
        }
        Ok(cycles)
    }

    /// Drain every outstanding train ack on every shard.
    fn drain_window(&mut self) -> Result<(), NetError> {
        for shard in 0..self.shards.len() {
            while let Some(pending) = self.shards[shard].window.pop_front() {
                self.await_train(shard, pending)?;
            }
        }
        Ok(())
    }
}

impl Transport for ShardedClient {
    fn fetch(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.fetch_inner(key, false)
    }

    fn fetch_batched(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        self.fetch_inner(key, true)
    }

    fn rtt_cost(&self) -> u64 {
        self.model.base_latency + self.model.per_msg_cpu
    }

    fn put(&mut self, key: ObjKey, data: &[u8]) -> Result<u64, NetError> {
        let shard = self.shard_of(key);
        // Serialization cost per object; the train charges one message CPU
        // for the whole batch on departure.
        let mut cycles = self.model.wire_cycles(data.len() as u64);
        self.stats.writebacks += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.cycles += cycles;
        self.tap.record(
            WireDir::Send,
            WireOp::Put,
            key.ds,
            key.index,
            data.len() as u64,
            true,
            self.ctx,
        );
        // Train membership: the put's wire serialization is its share of
        // the train it will ride, attributed to the issuing context now.
        self.slog.charge(cycles);
        self.span(
            shard,
            ServerSpanKind::Transfer,
            cycles,
            data.len() as u64,
            0,
        );
        self.slog.gauges(shard as u32).ops += 1;
        self.shards[shard].buf.insert(key, data.to_vec());
        if self.shards[shard].buf.len() >= self.cfg.train_len.max(1) {
            cycles += self.depart_train(shard)?;
        }
        self.tap.record(
            WireDir::Recv,
            WireOp::Put,
            key.ds,
            key.index,
            0,
            true,
            self.ctx,
        );
        Ok(cycles)
    }

    fn remove(&mut self, key: ObjKey) -> Result<u64, NetError> {
        let shard = self.shard_of(key);
        self.shards[shard].buf.remove(&key);
        self.tap.record(
            WireDir::Send,
            WireOp::Remove,
            key.ds,
            key.index,
            0,
            true,
            self.ctx,
        );
        match self.call(shard, |fence, tx| ReplicaRequest::Remove {
            key,
            fence,
            reply: tx,
        }) {
            Ok(ReplicaResponse::Done) => {
                self.stats.cycles += self.model.per_msg_cpu;
                self.slog.charge(self.model.per_msg_cpu);
                self.span(shard, ServerSpanKind::Apply, self.model.per_msg_cpu, 0, 0);
                self.slog.gauges(shard as u32).ops += 1;
                self.tap.record(
                    WireDir::Recv,
                    WireOp::Remove,
                    key.ds,
                    key.index,
                    0,
                    true,
                    self.ctx,
                );
                Ok(self.model.per_msg_cpu)
            }
            other => {
                self.tap.record(
                    WireDir::Recv,
                    WireOp::Remove,
                    key.ds,
                    key.index,
                    0,
                    false,
                    self.ctx,
                );
                match other {
                    Err(e) => Err(e),
                    _ => Err(NetError::Disconnected),
                }
            }
        }
    }

    fn flush(&mut self) -> Result<u64, NetError> {
        self.tap
            .record(WireDir::Send, WireOp::Flush, 0, 0, 0, true, self.ctx);
        let mut cycles = 0;
        for shard in 0..self.shards.len() {
            cycles += self.depart_train(shard)?;
        }
        self.drain_window()?;
        for shard in 0..self.shards.len() {
            match self.call(shard, |fence, tx| ReplicaRequest::FlushAck {
                fence,
                reply: tx,
            })? {
                ReplicaResponse::Done => {}
                _ => return Err(NetError::Disconnected),
            }
        }
        // One logical barrier round trip (shards are flushed in parallel).
        cycles += self.model.base_latency + self.model.per_msg_cpu;
        self.stats.cycles += self.model.base_latency + self.model.per_msg_cpu;
        self.slog
            .charge(self.model.base_latency + self.model.per_msg_cpu);
        // The barrier is cluster-wide: one span, attributed to shard 0
        // with depth = shard count; its link latency is residue.
        self.span(
            0,
            ServerSpanKind::Barrier,
            self.model.per_msg_cpu,
            0,
            self.shards.len() as u64,
        );
        self.slog.add_residue(self.model.base_latency);
        self.tap
            .record(WireDir::Recv, WireOp::Flush, 0, 0, 0, true, self.ctx);
        Ok(cycles)
    }

    fn generation(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.shared.generation.load(Ordering::Relaxed))
            .sum()
    }

    fn contains(&self, key: ObjKey) -> bool {
        let shard = self.shard_of(key);
        if self.shards[shard].buf.contains_key(&key) {
            return true;
        }
        matches!(
            self.call(shard, |_, tx| ReplicaRequest::Contains(key, tx)),
            Ok(ReplicaResponse::Bool(true))
        )
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn remote_bytes(&self) -> u64 {
        let mut total = 0;
        for shard in 0..self.shards.len() {
            if let Ok(ReplicaResponse::Bytes(b)) =
                self.call(shard, |_, tx| ReplicaRequest::ResidentBytes(tx))
            {
                total += b;
            }
        }
        total
    }

    fn take_fault_events(&mut self) -> FaultEvents {
        self.pending_faults.take()
    }

    fn set_trace_context(&mut self, ctx: TraceContext) {
        self.ctx = ctx;
    }

    fn trace_context(&self) -> TraceContext {
        self.ctx
    }

    fn wire_tap(&self) -> Option<&WireTap> {
        Some(&self.tap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn key(ds: u32, index: u64) -> ObjKey {
        ObjKey { ds, index }
    }

    fn server(shards: usize) -> ShardedServer {
        ShardedServer::spawn(
            ShardedConfig {
                shards,
                ..ShardedConfig::default()
            },
            NetworkModel::default(),
        )
    }

    fn server_with(shards: usize, replica: ReplicaConfig) -> ShardedServer {
        ShardedServer::spawn(
            ShardedConfig {
                shards,
                replica,
                ..ShardedConfig::default()
            },
            NetworkModel::default(),
        )
    }

    #[test]
    fn round_trip_across_shards() {
        let srv = server(4);
        let mut c = srv.client();
        for i in 0..64u64 {
            c.put(key(1, i), &[i as u8; 128]).unwrap();
        }
        c.flush().unwrap();
        for i in 0..64u64 {
            let f = c.fetch(key(1, i)).unwrap();
            assert_eq!(f.bytes, vec![i as u8; 128]);
        }
        assert_eq!(c.remote_bytes(), 64 * 128);
        let s = srv.sharded_stats();
        assert!(s.trains >= 8, "64 puts at train_len=8 must form trains");
        assert_eq!(s.train_objects, 64);
    }

    #[test]
    fn pending_buffer_serves_read_your_writes() {
        let srv = server(2);
        let mut c = srv.client();
        // One put: below train_len, so it only lives in the client buffer.
        c.put(key(0, 7), &[9u8; 64]).unwrap();
        assert!(c.contains(key(0, 7)));
        let f = c.fetch(key(0, 7)).unwrap();
        assert_eq!(f.bytes, vec![9u8; 64]);
        // Nothing crossed the wire for it yet.
        assert_eq!(srv.sharded_stats().train_objects, 0);
        c.flush().unwrap();
        assert_eq!(srv.sharded_stats().train_objects, 1);
    }

    #[test]
    fn modeled_costs_are_deterministic_per_client() {
        let run = || {
            let srv = server(3);
            let mut c = srv.client();
            for i in 0..40u64 {
                c.put(key(2, i), &[1u8; 256]).unwrap();
            }
            c.flush().unwrap();
            for i in 0..40u64 {
                c.fetch(key(2, i)).unwrap();
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batched_writeback_is_cheaper_than_per_object_puts() {
        // Train: N * wire + per-train CPU  vs  N * (CPU + wire).
        let srv = server(1);
        let mut c = srv.client();
        let n = 8u64;
        let mut batched = 0;
        for i in 0..n {
            batched += c.put(key(0, i), &[5u8; 4096]).unwrap();
        }
        let per_object = n * NetworkModel::default().writeback_cost(4096);
        assert!(
            batched < per_object,
            "train cost {batched} must undercut {per_object}"
        );
    }

    #[test]
    fn stalled_shard_forces_coalescing() {
        let srv = server(1);
        let mut setup = srv.client();
        setup.put(key(0, 0), &[3u8; 512]).unwrap();
        setup.flush().unwrap();
        let gate = srv.stall_shard(0);
        let (mut a, mut b) = (srv.client(), srv.client());
        let ta = std::thread::spawn(move || a.fetch(key(0, 0)).unwrap().bytes);
        // Wait until A is committed as the coalescing leader (its wire
        // fetch is queued behind the stall), then start B.
        while srv.sharded_stats().wire_fetches == 0 {
            std::thread::yield_now();
        }
        let tb = std::thread::spawn(move || b.fetch(key(0, 0)).unwrap().bytes);
        // B must reach the follower path before we release the shard.
        while srv.sharded_stats().coalesced_hits == 0 {
            std::thread::yield_now();
        }
        gate.release();
        assert_eq!(ta.join().unwrap(), vec![3u8; 512]);
        assert_eq!(tb.join().unwrap(), vec![3u8; 512]);
        let s = srv.sharded_stats();
        assert_eq!(s.coalesced_hits, 1, "second miss must coalesce");
        assert_eq!(s.wire_fetches, 1, "only one transfer crosses the wire");
    }

    #[test]
    fn unacked_train_keeps_reads_on_the_channel_path() {
        let srv = server(1);
        let mut c = srv.client();
        // Hold the primary so the train below stays queued and unapplied,
        // and hide the stall from the fast path: only the window check
        // keeps the read-your-writes fetch off the stale store.
        let gate = srv.stall_shard(0);
        srv.sets[0].shared.stalled[0].store(false, Ordering::SeqCst);
        for i in 0..8u64 {
            c.put(key(0, i), &[i as u8 + 1; 64]).unwrap();
        }
        assert!(c.shards[0].buf.is_empty(), "train_len puts depart a train");
        assert_eq!(c.shards[0].window.len(), 1);
        let counters = Arc::clone(&srv.counters);
        let reader = std::thread::spawn(move || c.fetch(key(0, 3)).map(|f| f.bytes));
        while counters.wire_fetches.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        gate.release();
        assert_eq!(reader.join().unwrap(), Ok(vec![4u8; 64]));
    }

    #[test]
    fn fast_and_channel_reads_account_identically() {
        let run = |stall: bool| {
            let srv = server(2);
            let mut setup = srv.client();
            for i in 0..16u64 {
                setup.put(key(1, i), &[i as u8; 256]).unwrap();
            }
            setup.flush().unwrap();
            let mut c = srv.client();
            c.set_trace_context(TraceContext { trace: 9, span: 4 });
            // Stalled shards force the reads onto the channel path until
            // another thread releases them.
            let gates: Vec<StallGuard> = if stall {
                (0..2).map(|i| srv.stall_shard(i)).collect()
            } else {
                Vec::new()
            };
            let reader = std::thread::spawn(move || {
                for i in 0..16u64 {
                    assert_eq!(c.fetch(key(1, i)).unwrap().bytes, vec![i as u8; 256]);
                }
                c
            });
            while stall && srv.sharded_stats().wire_fetches == 0 {
                std::thread::yield_now();
            }
            drop(gates);
            let c = reader.join().unwrap();
            let log = c.server_span_log();
            (
                c.stats(),
                log.spans().to_vec(),
                log.residue(),
                c.wire_tap().unwrap().records().copied().collect::<Vec<_>>(),
                srv.sharded_stats().wire_fetches,
            )
        };
        let fast = run(false);
        assert_eq!(fast.4, 16, "an in-thread read counts as a wire transfer");
        assert_eq!(fast, run(true));
    }

    #[test]
    fn crash_drops_unacked_and_bumps_generation() {
        let srv = server(2);
        let mut c = srv.client();
        c.put(key(0, 1), &[1u8; 64]).unwrap();
        c.flush().unwrap(); // durable
        c.put(key(0, 2), &[2u8; 64]).unwrap();
        // Force the buffered put onto the server without acknowledging it.
        for shard in 0..2 {
            c.depart_train(shard).unwrap();
        }
        c.drain_window().unwrap();
        let g0 = c.generation();
        for i in 0..2 {
            srv.crash_shard(i);
        }
        assert_eq!(c.generation(), g0 + 2, "every crash bumps a generation");
        assert_eq!(c.fetch(key(0, 1)).unwrap().bytes, vec![1u8; 64]);
        assert_eq!(c.fetch(key(0, 2)), Err(NetError::NotFound(key(0, 2))));
        assert_eq!(srv.sharded_stats().dropped_objects, 1);
    }

    #[test]
    fn dead_replica_set_surfaces_disconnected_deterministically() {
        for _ in 0..8 {
            let srv = server(1);
            let mut c = srv.client();
            c.put(key(0, 0), &[1u8; 32]).unwrap();
            // Kill the whole replica set: backup first, then the active
            // primary, so no standby is left to fail over to.
            srv.kill_backup(0);
            srv.kill_shard(0);
            assert_eq!(c.fetch(key(9, 9)), Err(NetError::Disconnected));
            assert_eq!(c.flush(), Err(NetError::Disconnected));
            assert_eq!(c.remove(key(9, 9)), Err(NetError::Disconnected));
        }
    }

    #[test]
    fn killed_primary_fails_over_to_backup_with_journal_intact() {
        for _ in 0..4 {
            let srv = server(1);
            let mut c = srv.client();
            for i in 0..32u64 {
                c.put(key(0, i), &[i as u8; 64]).unwrap();
            }
            c.flush().unwrap();
            let g0 = c.generation();
            srv.kill_shard(0);
            // Every durable object survives on the promoted backup.
            for i in 0..32u64 {
                assert_eq!(c.fetch(key(0, i)).unwrap().bytes, vec![i as u8; 64]);
            }
            // Writes keep working against the new primary.
            c.put(key(1, 0), &[7u8; 16]).unwrap();
            c.flush().unwrap();
            assert_eq!(c.fetch(key(1, 0)).unwrap().bytes, vec![7u8; 16]);
            let s = srv.sharded_stats();
            assert_eq!(s.failovers, 1, "exactly one takeover");
            assert!(
                c.generation() > g0,
                "failover must bump the generation for the runtime's crash watch"
            );
            assert_eq!(srv.active_replica(0), 1);
        }
    }

    #[test]
    fn killed_backup_is_invisible_to_clients() {
        let srv = server(2);
        let mut c = srv.client();
        for i in 0..16u64 {
            c.put(key(0, i), &[i as u8; 32]).unwrap();
        }
        c.flush().unwrap();
        for i in 0..2 {
            srv.kill_backup(i);
        }
        for i in 0..16u64 {
            assert_eq!(c.fetch(key(0, i)).unwrap().bytes, vec![i as u8; 32]);
        }
        c.put(key(2, 0), &[9u8; 32]).unwrap();
        c.flush().unwrap();
        let s = srv.sharded_stats();
        assert_eq!(s.failovers, 0, "losing a standby must not fail over");
    }

    #[test]
    fn stalled_primary_with_health_timeout_is_demoted_and_fenced() {
        let srv = server_with(
            1,
            ReplicaConfig {
                health_timeout: Some(Duration::from_millis(25)),
                ..ReplicaConfig::default()
            },
        );
        let mut setup = srv.client();
        for i in 0..8u64 {
            setup.put(key(0, i), &[1u8; 32]).unwrap();
        }
        setup.flush().unwrap();
        let gate = srv.stall_shard(0);
        let mut c = srv.client();
        // The read times out on the stalled primary, demotes it, and the
        // promoted backup serves the (fully shipped) object.
        assert_eq!(c.fetch(key(0, 3)).unwrap().bytes, vec![1u8; 32]);
        assert_eq!(srv.active_replica(0), 1);
        // A write lands on the new primary under the bumped fence.
        c.put(key(3, 0), &[8u8; 32]).unwrap();
        c.flush().unwrap();
        // Wake the deposed primary: anything it still drains is fenced by
        // sender, and it must not corrupt the promoted store.
        gate.release();
        assert_eq!(c.fetch(key(3, 0)).unwrap().bytes, vec![8u8; 32]);
        let s = srv.sharded_stats();
        assert_eq!(s.failovers, 1);
        assert!(s.failover_attempts >= 1);
    }

    #[test]
    fn hedged_read_races_a_stalled_primary() {
        let srv = server_with(
            1,
            ReplicaConfig {
                hedge_after: Some(Duration::from_millis(5)),
                ..ReplicaConfig::default()
            },
        );
        let mut setup = srv.client();
        setup.put(key(0, 0), &[4u8; 128]).unwrap();
        setup.flush().unwrap();
        let gate = srv.stall_shard(0);
        let mut c = srv.client();
        // The primary is stalled, so only the hedge can answer — and the
        // request completes without releasing the stall.
        assert_eq!(c.fetch(key(0, 0)).unwrap().bytes, vec![4u8; 128]);
        let s = srv.sharded_stats();
        assert!(
            s.hedged_fetches >= 1,
            "stalled primary must trigger a hedge"
        );
        assert_eq!(s.failovers, 0, "hedging must not fail over");
        gate.release();
    }

    #[test]
    fn hedge_never_serves_a_read_behind_own_unacked_train() {
        let srv = ShardedServer::spawn(
            ShardedConfig {
                shards: 1,
                train_len: 1,
                replica: ReplicaConfig {
                    hedge_after: Some(Duration::from_millis(5)),
                    ..ReplicaConfig::default()
                },
                ..ShardedConfig::default()
            },
            NetworkModel::default(),
        );
        let mut c = srv.client();
        c.put(key(0, 0), &[1u8; 64]).unwrap();
        c.flush().unwrap();
        // v2 departs as a one-object train and queues at the stalled
        // primary; the caught-up backup still holds v1.
        let gate = srv.stall_shard(0);
        c.put(key(0, 0), &[2u8; 64]).unwrap();
        assert_eq!(c.shards[0].window.len(), 1);
        let counters = Arc::clone(&srv.counters);
        let reader = std::thread::spawn(move || c.fetch(key(0, 0)).map(|f| f.bytes));
        while counters.wire_fetches.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        // Well past the hedge delay: a hedge would have answered by now.
        std::thread::sleep(Duration::from_millis(100));
        gate.release();
        assert_eq!(reader.join().unwrap(), Ok(vec![2u8; 64]));
        assert_eq!(srv.sharded_stats().hedged_fetches, 0);
    }

    #[test]
    fn coalesce_never_joins_a_read_behind_own_unacked_train() {
        let srv = ShardedServer::spawn(
            ShardedConfig {
                shards: 1,
                train_len: 1,
                ..ShardedConfig::default()
            },
            NetworkModel::default(),
        );
        let mut setup = srv.client();
        setup.put(key(0, 0), &[1u8; 64]).unwrap();
        setup.flush().unwrap();
        let gate = srv.stall_shard(0);
        // A leads a fetch of v1 that queues at the stalled primary.
        let mut a = srv.client();
        let counters = Arc::clone(&srv.counters);
        let ta = std::thread::spawn(move || a.fetch(key(0, 0)).map(|f| f.bytes));
        while counters.wire_fetches.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        // A counts its wire fetch just before sending it; the pause lets
        // the send land first so that, before the fix, B had a stale
        // leader to follow. The fixed path passes for either order.
        std::thread::sleep(Duration::from_millis(20));
        // B's train carrying v2 queues behind A's fetch; B's own read must
        // queue behind that train rather than follow A.
        let mut b = srv.client();
        b.put(key(0, 0), &[2u8; 64]).unwrap();
        assert_eq!(b.shards[0].window.len(), 1);
        let tb = std::thread::spawn(move || b.fetch(key(0, 0)).map(|f| f.bytes));
        while counters.wire_fetches.load(Ordering::Relaxed)
            + counters.coalesced_hits.load(Ordering::Relaxed)
            < 2
        {
            std::thread::yield_now();
        }
        gate.release();
        // A is concurrent with B's write: either version is a valid read.
        let a_read = ta.join().unwrap().unwrap();
        assert!(a_read == vec![1u8; 64] || a_read == vec![2u8; 64]);
        assert_eq!(tb.join().unwrap(), Ok(vec![2u8; 64]));
        assert_eq!(srv.sharded_stats().coalesced_hits, 0);
    }

    #[test]
    fn window_bounds_outstanding_trains() {
        let srv = ShardedServer::spawn(
            ShardedConfig {
                shards: 1,
                train_len: 1,
                window: 2,
                ..ShardedConfig::default()
            },
            NetworkModel::free(),
        );
        let mut c = srv.client();
        for i in 0..64u64 {
            c.put(key(0, i), &[0u8; 16]).unwrap();
            assert!(c.shards[0].window.len() <= 2, "window must stay bounded");
        }
        c.flush().unwrap();
        assert_eq!(srv.sharded_stats().train_objects, 64);
    }

    #[test]
    fn digest_is_shard_and_replica_count_independent() {
        let fill = |shards: usize, replicas: usize| {
            let srv = server_with(
                shards,
                ReplicaConfig {
                    replicas,
                    ..ReplicaConfig::default()
                },
            );
            let mut c = srv.client();
            for ds in 0..3u32 {
                for i in 0..50u64 {
                    c.put(key(ds, i), &[(ds as u8) ^ (i as u8); 96]).unwrap();
                }
            }
            c.flush().unwrap();
            srv.digest()
        };
        let a = fill(1, 2);
        let b = fill(4, 2);
        let c = fill(4, 1);
        assert_eq!(a, b, "digest must not depend on sharding");
        assert_eq!(b, c, "digest must not depend on replication");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn server_span_log_cross_sum_matches_modeled_cycles() {
        let srv = server(3);
        let mut c = srv.client();
        for i in 0..40u64 {
            c.put(key(2, i), &[1u8; 256]).unwrap();
        }
        c.flush().unwrap();
        for i in 0..40u64 {
            c.fetch(key(2, i)).unwrap();
        }
        c.remove(key(2, 0)).unwrap();
        c.flush().unwrap();
        let log = c.server_span_log();
        log.check().unwrap();
        assert_eq!(
            log.remote_cycles(),
            c.stats().cycles,
            "every modeled cycle must be charged to the span log"
        );
        assert!(log.spans().iter().any(|s| s.kind == ServerSpanKind::Apply));
        assert!(log
            .spans()
            .iter()
            .any(|s| s.kind == ServerSpanKind::TrainFlush && s.depth > 0));
        assert!(log
            .spans()
            .iter()
            .any(|s| s.kind == ServerSpanKind::Barrier));
        assert!(log.residue() > 0, "link latency is unattributed residue");
        // Gauges cover every shard the client touched.
        assert!(!log.shards().is_empty());
        assert!(log.shards().values().all(|g| g.ops > 0));
    }

    #[test]
    fn span_log_is_deterministic_per_client() {
        let run = || {
            let srv = server(2);
            let mut c = srv.client();
            for i in 0..24u64 {
                c.put(key(1, i), &[3u8; 128]).unwrap();
            }
            c.flush().unwrap();
            for i in 0..24u64 {
                c.fetch(key(1, i)).unwrap();
            }
            (
                c.server_span_log().spans().to_vec(),
                c.server_span_log().residue(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn failover_records_an_incident_with_trace_identity() {
        let srv = server(1);
        let mut c = srv.client();
        c.put(key(0, 0), &[5u8; 64]).unwrap();
        c.flush().unwrap();
        c.set_trace_context(TraceContext { trace: 77, span: 2 });
        srv.kill_shard(0);
        assert_eq!(c.fetch(key(0, 0)).unwrap().bytes, vec![5u8; 64]);
        let incidents = c.incidents();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.shard, 0);
        assert_eq!(inc.fence, 1);
        assert_eq!((inc.from, inc.to), (0, 1));
        assert_eq!(inc.trace, 77, "incident carries the in-force trace id");
        // The takeover handshake drained on the standby and was logged.
        let summary = srv.fleet_events().summary();
        assert_eq!(summary.per_shard[&0].takeover_drains, 1);
    }

    #[test]
    fn client_tap_records_facade_operations() {
        let srv = ShardedServer::spawn(
            ShardedConfig {
                shards: 1,
                ..ShardedConfig::default()
            },
            NetworkModel::default(),
        );
        let mut c = srv.client();
        let ctx = TraceContext { trace: 5, span: 1 };
        c.set_trace_context(ctx);
        for i in 0..DEFAULT_TAP_CAPACITY as u64 {
            c.put(key(0, i), &[1u8; 32]).unwrap();
        }
        c.flush().unwrap();
        let tap = c.wire_tap().unwrap();
        assert_eq!(tap.len(), DEFAULT_TAP_CAPACITY, "ring stays at its cap");
        assert!(tap.dropped() > 0);
        assert!(
            tap.dropped_of(WireOp::Put) > 0,
            "drops are attributed per op"
        );
        assert!(tap.records().all(|r| r.ctx == ctx));
    }

    #[test]
    fn journal_ships_and_flush_barriers_land_in_the_event_log() {
        let srv = server(1);
        let mut c = srv.client();
        for i in 0..16u64 {
            c.put(key(0, i), &[2u8; 64]).unwrap();
        }
        c.flush().unwrap();
        let summary = srv.fleet_events().summary();
        let e = &summary.per_shard[&0];
        assert!(e.journal_ships >= 2, "trains + barrier ship to the backup");
        assert_eq!(e.flush_barriers, 1);
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn digest_survives_failover_byte_identically() {
        let fill = |kill: bool| {
            let srv = server(2);
            let mut c = srv.client();
            for ds in 0..2u32 {
                for i in 0..40u64 {
                    c.put(key(ds, i), &[(ds as u8).wrapping_add(i as u8); 64])
                        .unwrap();
                }
            }
            c.flush().unwrap();
            if kill {
                for s in 0..2 {
                    srv.kill_shard(s);
                }
                // Touch each shard so the takeover actually happens.
                c.fetch(key(0, 0)).unwrap();
                c.fetch(key(1, 1)).unwrap();
            }
            srv.digest()
        };
        assert_eq!(fill(false), fill(true));
    }
}
