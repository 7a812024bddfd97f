//! # cards-net
//!
//! Simulated far-memory interconnect for the CaRDS reproduction.
//!
//! The paper runs over a 25 Gb/s ConnectX-4 NIC with DPDK between two
//! CloudLab machines. This crate substitutes a deterministic cycle-cost
//! model ([`NetworkModel`], calibrated against the paper's Table 1) plus a
//! remote memory server reachable through the [`Transport`] trait:
//!
//! - [`SimTransport`] — in-process hash-map server; deterministic, used by
//!   all benchmarks and figure reproductions.
//! - [`FaultyTransport`] — deterministic fault injection for failure tests.
//! - [`ChaosTransport`] — a server driven through a deterministic schedule
//!   of failure phases (loss bursts, latency spikes, partitions, payload
//!   corruption, crash/restart) storing checksummed [`envelope`]s.
//! - [`ShardedServer`]/[`ShardedClient`] — N shard replica sets on their
//!   own OS threads behind one transport facade serving many concurrent
//!   worker VMs, with in-thread reads of healthy replicas, fetch
//!   coalescing, batched windowed writeback trains, primary→backup journal
//!   shipping, epoch-fenced failover and hedged reads ([`replica`]). One
//!   unreplicated shard is the plain "two machines" configuration.

pub mod chaos;
pub mod envelope;
pub mod fault;
pub mod fleet;
pub mod model;
pub mod prng;
pub mod replica;
pub mod sharded;
pub mod stats;
pub mod transport;
pub mod wiretap;

pub use chaos::{ChaosPhase, ChaosSchedule, ChaosStats, ChaosTransport, ScheduledPhase};
pub use fault::FaultyTransport;
pub use fleet::{
    DepthHist, FailoverIncident, FleetEvent, FleetEventLog, FleetEventSummary, ServerSpan,
    ServerSpanKind, ServerSpanLog, ShardEvents, ShardGauges, INCIDENT_PHASES,
};
pub use model::NetworkModel;
pub use prng::SplitMix64;
pub use replica::ReplicaConfig;
pub use sharded::{ShardedClient, ShardedConfig, ShardedServer, ShardedStats, StallGuard};
pub use stats::NetStats;
pub use transport::{FaultEvents, Fetched, NetError, ObjKey, SimTransport, Transport};
pub use wiretap::{TraceContext, WireDir, WireOp, WireRecord, WireTap};

/// The single-server shape ([`ShardedConfig::single_server`]: one
/// unreplicated shard on its own thread, one-object trains) is the plain
/// cross-thread "two machines" transport; it must cost, count and tap
/// exactly like the in-process [`SimTransport`].
#[cfg(test)]
mod threaded {
    mod tests {
        use crate::*;

        fn spawn() -> ShardedServer {
            ShardedServer::spawn(ShardedConfig::single_server(), NetworkModel::default())
        }

        #[test]
        fn threaded_round_trip() {
            let srv = spawn();
            let mut t = srv.client();
            let k = ObjKey { ds: 3, index: 11 };
            t.put(k, &[5u8; 256]).unwrap();
            assert!(t.contains(k));
            let f = t.fetch(k).unwrap();
            assert_eq!(f.bytes, vec![5u8; 256]);
            assert_eq!(t.remote_bytes(), 256);
            t.remove(k).unwrap();
            assert!(!t.contains(k));
        }

        #[test]
        fn threaded_matches_sim_costs() {
            let srv = spawn();
            let mut a = srv.client();
            let mut b = SimTransport::new(NetworkModel::default());
            let k = ObjKey { ds: 0, index: 0 };
            let data = vec![1u8; 4096];
            assert_eq!(a.put(k, &data).unwrap(), b.put(k, &data).unwrap());
            assert_eq!(a.fetch(k).unwrap().cycles, b.fetch(k).unwrap().cycles);
        }

        #[test]
        fn wire_tap_matches_sim_record_for_record() {
            let srv = spawn();
            let mut a = srv.client();
            let mut b = SimTransport::new(NetworkModel::default());
            let ctx = TraceContext { trace: 4, span: 2 };
            for t in [&mut a as &mut dyn Transport, &mut b as &mut dyn Transport] {
                t.set_trace_context(ctx);
                let k = ObjKey { ds: 2, index: 7 };
                t.put(k, &[3u8; 128]).unwrap();
                t.fetch(k).unwrap();
                let missing = ObjKey { ds: 2, index: 8 };
                assert_eq!(t.fetch(missing), Err(NetError::NotFound(missing)));
                t.remove(k).unwrap();
            }
            let ta: Vec<_> = a.wire_tap().unwrap().records().copied().collect();
            let tb: Vec<_> = b.wire_tap().unwrap().records().copied().collect();
            assert_eq!(ta, tb, "taps must be byte-identical across transports");
            assert!(ta.iter().all(|r| r.ctx == ctx));
        }

        #[test]
        fn remove_accounting_matches_sim() {
            let srv = spawn();
            let mut a = srv.client();
            let mut b = SimTransport::new(NetworkModel::default());
            let k = ObjKey { ds: 0, index: 0 };
            assert_eq!(a.put(k, &[2u8; 32]).unwrap(), b.put(k, &[2u8; 32]).unwrap());
            assert_eq!(a.remove(k).unwrap(), b.remove(k).unwrap());
            assert_eq!(a.stats(), b.stats());
        }
    }
}
