//! Remoting-policy engine (paper §4.2, "Remoting policy selection").
//!
//! Given the compiler's per-DS static priorities and the tunable parameter
//! `k` (the percentage of data structures to localize), each policy decides
//! which data structures get pinned local memory. The runtime may override
//! these hints when budgets run out.

use cards_net::SplitMix64;

use crate::pressure::THRASH_THRESHOLD;
use crate::spec::{DsSpec, StaticHint};

/// The remoting policies evaluated in Figures 4–8 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RemotingPolicy {
    /// Conservative baseline: every DS is remotable (TrackFM behaviour).
    AllRemotable,
    /// Pin allocations in program order until pinned memory is exhausted,
    /// then switch to remotable memory. Purely dynamic; ignores `k`.
    Linear,
    /// Pin a random `k%` subset of data structures.
    Random {
        /// RNG seed, so runs are reproducible.
        seed: u64,
    },
    /// Pin the DSes used in functions with the longest caller/callee
    /// chains (top `k%` by SCC reach depth).
    MaxReach,
    /// Pin the top `k%` DSes by `#loops + #functions` usage (Eq. 1).
    MaxUse,
}

impl RemotingPolicy {
    /// Short display name used by benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            RemotingPolicy::AllRemotable => "all-remotable",
            RemotingPolicy::Linear => "linear",
            RemotingPolicy::Random { .. } => "random",
            RemotingPolicy::MaxReach => "max-reach",
            RemotingPolicy::MaxUse => "max-use",
        }
    }
}

/// One explained per-DS outcome of a policy run: which hint the DS got and
/// why — the raw material for telemetry's `policy_decision` events.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyDecision {
    /// Index into the `specs` slice the decision applies to.
    pub index: usize,
    /// The DS name (copied from its spec).
    pub name: String,
    /// The hint assigned.
    pub hint: StaticHint,
    /// Human-readable explanation of the decision.
    pub why: String,
}

/// Compute the static hint for every DS under `policy` with threshold
/// `k_percent` (0–100: percentage of DSes to localize).
pub fn assign_hints(specs: &[DsSpec], policy: RemotingPolicy, k_percent: u32) -> Vec<StaticHint> {
    assign_hints_explained(specs, policy, k_percent).0
}

/// Like [`assign_hints`], but also returns one [`PolicyDecision`] per DS
/// explaining *why* it was pinned or left remotable.
pub fn assign_hints_explained(
    specs: &[DsSpec],
    policy: RemotingPolicy,
    k_percent: u32,
) -> (Vec<StaticHint>, Vec<PolicyDecision>) {
    let n = specs.len();
    let k = ((n as u64 * k_percent.min(100) as u64) / 100) as usize;
    let hints = match policy {
        RemotingPolicy::AllRemotable => vec![StaticHint::Remotable; n],
        RemotingPolicy::Linear => vec![StaticHint::PinnedIfRoom; n],
        RemotingPolicy::Random { seed } => {
            let mut order: Vec<usize> = (0..n).collect();
            SplitMix64::new(seed).shuffle(&mut order);
            let mut hints = vec![StaticHint::Remotable; n];
            for &i in order.iter().take(k) {
                hints[i] = StaticHint::Pinned;
            }
            hints
        }
        RemotingPolicy::MaxReach => top_k_by(specs, k, |s| s.priority.reach_depth),
        RemotingPolicy::MaxUse => top_k_by(specs, k, |s| s.priority.use_score),
    };
    let decisions = specs
        .iter()
        .zip(hints.iter())
        .enumerate()
        .map(|(i, (spec, &hint))| {
            let why = match policy {
                RemotingPolicy::AllRemotable => {
                    "all-remotable: no DS receives pinned memory".to_string()
                }
                RemotingPolicy::Linear => {
                    "linear: pinned-if-room in program order (dynamic)".to_string()
                }
                RemotingPolicy::Random { seed } => {
                    if hint == StaticHint::Pinned {
                        format!("random(seed={seed}): drawn in first {k} of shuffle")
                    } else {
                        format!("random(seed={seed}): not drawn (k={k} of {n})")
                    }
                }
                RemotingPolicy::MaxReach => {
                    if hint == StaticHint::Pinned {
                        format!(
                            "max-reach: reach_depth={} ranks in top {k} of {n}",
                            spec.priority.reach_depth
                        )
                    } else {
                        format!(
                            "max-reach: reach_depth={} below top {k} of {n}",
                            spec.priority.reach_depth
                        )
                    }
                }
                RemotingPolicy::MaxUse => {
                    if hint == StaticHint::Pinned {
                        format!(
                            "max-use: use_score={} ranks in top {k} of {n}",
                            spec.priority.use_score
                        )
                    } else {
                        format!(
                            "max-use: use_score={} below top {k} of {n}",
                            spec.priority.use_score
                        )
                    }
                }
            };
            PolicyDecision {
                index: i,
                name: spec.name.clone(),
                hint,
                why,
            }
        })
        .collect();
    (hints, decisions)
}

/// A per-DS load sample fed to the online re-solver: how much pinned and
/// remotable residency the DS holds right now, and its recent per-epoch
/// velocities from the telemetry epoch deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DsLoad {
    /// Runtime handle of the DS.
    pub handle: u16,
    /// Pinned bytes the governor may reclaim by demoting this DS
    /// (breaker-pinned bytes excluded — degraded mode wins).
    pub pinned_bytes: u64,
    /// Unpinned resident bytes a promotion would soft-pin.
    pub resident_bytes: u64,
    /// Decayed misses per epoch.
    pub miss_velocity: u64,
    /// Decayed evictions per epoch.
    pub eviction_velocity: u64,
    /// Decayed hits per epoch (the "how hot is the pinned set" signal).
    pub hit_velocity: u64,
    /// Compiler use score (re-solve tie-breaker, same as MaxUse).
    pub use_score: u32,
    /// False while the DS is inside its post-change cooldown window; the
    /// hysteresis guard that keeps the governor from flapping.
    pub eligible: bool,
}

/// One hint change decided by [`reassign_hints_online`].
#[derive(Clone, Debug, PartialEq)]
pub enum HintChange {
    /// Release the DS's pinned residency to the remotable tier.
    Demote {
        /// Runtime handle of the DS.
        handle: u16,
        /// Human-readable explanation (mirrors [`PolicyDecision::why`]).
        why: String,
    },
    /// Soft-pin the DS's resident set (it stays remotable for dispatch
    /// purposes, but its objects are held in pinned memory).
    Promote {
        /// Runtime handle of the DS.
        handle: u16,
        /// Human-readable explanation.
        why: String,
    },
}

impl HintChange {
    /// The handle the change applies to.
    pub fn handle(&self) -> u16 {
        match self {
            HintChange::Demote { handle, .. } | HintChange::Promote { handle, .. } => *handle,
        }
    }
}

/// Online policy re-solve under memory pressure: given live per-DS load
/// samples, decide which hints to change *now*, without recompiling.
///
/// Two rules, applied in order:
///
/// 1. **Forced demotions** — if the pinned tier holds more than
///    `pinned_budget` (a pressure schedule shrank it), demote the coldest
///    pinned tenants (lowest hit velocity, then use score, then handle)
///    until the tier fits. Budget correctness overrides the hysteresis
///    guard, so `eligible` is ignored here.
/// 2. **Thrash-driven promotion** — the hottest thrashing DS (miss +
///    eviction velocity ≥ [`THRASH_THRESHOLD`], eligible, not already
///    pinned, with resident bytes to pin) is promoted if its resident set
///    fits the pinned budget, demoting strictly-colder eligible pinned
///    tenants to make room. "Strictly colder" uses a 2× velocity margin,
///    so a promote/demote pair can never trade places back and forth.
///    At most one promotion per re-solve keeps the governor gentle.
///
/// Deterministic: every ordering is a total order over the input values
/// and handles. Returns demotions before promotions (free, then spend).
pub fn reassign_hints_online(loads: &[DsLoad], pinned_budget: u64) -> Vec<HintChange> {
    let mut changes: Vec<HintChange> = Vec::new();
    let mut pinned_used: u64 = loads.iter().map(|l| l.pinned_bytes).sum();
    let mut demoted: Vec<u16> = Vec::new();

    // Rule 1: the pinned tier shrank under its tenants.
    if pinned_used > pinned_budget {
        let mut order: Vec<&DsLoad> = loads.iter().filter(|l| l.pinned_bytes > 0).collect();
        order.sort_by_key(|l| (l.hit_velocity, l.use_score, l.handle));
        for l in order {
            if pinned_used <= pinned_budget {
                break;
            }
            pinned_used = pinned_used.saturating_sub(l.pinned_bytes);
            demoted.push(l.handle);
            changes.push(HintChange::Demote {
                handle: l.handle,
                why: format!(
                    "pressure: pinned tier over budget ({}B > {}B), coldest tenant (hit velocity {}/epoch)",
                    pinned_used.saturating_add(l.pinned_bytes),
                    pinned_budget,
                    l.hit_velocity
                ),
            });
        }
    }

    // Rule 2: promote the hottest thrasher, if the hysteresis guard and
    // the budget allow it.
    let mut thrashers: Vec<&DsLoad> = loads
        .iter()
        .filter(|l| {
            l.eligible
                && l.pinned_bytes == 0
                && l.resident_bytes > 0
                && l.miss_velocity.saturating_add(l.eviction_velocity) >= THRASH_THRESHOLD
        })
        .collect();
    thrashers.sort_by_key(|l| {
        (
            std::cmp::Reverse(l.miss_velocity.saturating_add(l.eviction_velocity)),
            l.handle,
        )
    });
    if let Some(t) = thrashers.first() {
        let vel = t.miss_velocity.saturating_add(t.eviction_velocity);
        let mut victims: Vec<&DsLoad> = loads
            .iter()
            .filter(|l| {
                l.eligible
                    && l.pinned_bytes > 0
                    && !demoted.contains(&l.handle)
                    && l.hit_velocity.saturating_mul(2) <= vel
            })
            .collect();
        victims.sort_by_key(|l| (l.hit_velocity, l.use_score, l.handle));
        let mut vi = victims.into_iter();
        while pinned_used.saturating_add(t.resident_bytes) > pinned_budget {
            let Some(v) = vi.next() else { break };
            pinned_used = pinned_used.saturating_sub(v.pinned_bytes);
            demoted.push(v.handle);
            changes.push(HintChange::Demote {
                handle: v.handle,
                why: format!(
                    "pressure: ceding pinned residency (hit velocity {}/epoch) to a thrashing structure ({}/epoch)",
                    v.hit_velocity, vel
                ),
            });
        }
        if pinned_used.saturating_add(t.resident_bytes) <= pinned_budget {
            changes.push(HintChange::Promote {
                handle: t.handle,
                why: format!(
                    "thrash: miss+eviction velocity {}/epoch >= {}, soft-pinning {}B resident",
                    vel, THRASH_THRESHOLD, t.resident_bytes
                ),
            });
        }
    }
    changes
}

/// Pin the `k` DSes with the highest `score`; ties broken by program order
/// (earlier allocation wins, mirroring the paper's program-order default).
fn top_k_by(specs: &[DsSpec], k: usize, score: impl Fn(&DsSpec) -> u32) -> Vec<StaticHint> {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(score(&specs[i])),
            specs[i].priority.program_order,
        )
    });
    let mut hints = vec![StaticHint::Remotable; specs.len()];
    for &i in order.iter().take(k) {
        hints[i] = StaticHint::Pinned;
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DsPriority;

    fn specs() -> Vec<DsSpec> {
        (0..4)
            .map(|i| {
                DsSpec::simple(format!("ds{i}")).with_priority(DsPriority {
                    program_order: i,
                    reach_depth: 10 - i, // ds0 has max reach
                    use_score: i * 10,   // ds3 has max use
                })
            })
            .collect()
    }

    #[test]
    fn all_remotable_pins_nothing() {
        let h = assign_hints(&specs(), RemotingPolicy::AllRemotable, 100);
        assert!(h.iter().all(|&x| x == StaticHint::Remotable));
    }

    #[test]
    fn linear_is_dynamic_and_ignores_k() {
        for k in [0, 50, 100] {
            let h = assign_hints(&specs(), RemotingPolicy::Linear, k);
            assert!(h.iter().all(|&x| x == StaticHint::PinnedIfRoom));
        }
    }

    #[test]
    fn max_reach_pins_highest_reach() {
        let h = assign_hints(&specs(), RemotingPolicy::MaxReach, 50);
        // top 2 by reach_depth = ds0, ds1
        assert_eq!(h[0], StaticHint::Pinned);
        assert_eq!(h[1], StaticHint::Pinned);
        assert_eq!(h[2], StaticHint::Remotable);
        assert_eq!(h[3], StaticHint::Remotable);
    }

    #[test]
    fn max_use_pins_highest_use() {
        let h = assign_hints(&specs(), RemotingPolicy::MaxUse, 25);
        assert_eq!(h[3], StaticHint::Pinned);
        assert_eq!(h.iter().filter(|&&x| x == StaticHint::Pinned).count(), 1);
    }

    #[test]
    fn k_zero_and_hundred_extremes() {
        let h0 = assign_hints(&specs(), RemotingPolicy::MaxUse, 0);
        assert!(h0.iter().all(|&x| x == StaticHint::Remotable));
        let h100 = assign_hints(&specs(), RemotingPolicy::MaxUse, 100);
        assert!(h100.iter().all(|&x| x == StaticHint::Pinned));
    }

    #[test]
    fn random_is_seeded_and_counts_k() {
        let a = assign_hints(&specs(), RemotingPolicy::Random { seed: 1 }, 50);
        let b = assign_hints(&specs(), RemotingPolicy::Random { seed: 1 }, 50);
        let c = assign_hints(&specs(), RemotingPolicy::Random { seed: 2 }, 50);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|&&x| x == StaticHint::Pinned).count(), 2);
        // seed 2 may or may not differ; just check the count
        assert_eq!(c.iter().filter(|&&x| x == StaticHint::Pinned).count(), 2);
    }

    #[test]
    fn explained_decisions_match_hints_and_name_the_reason() {
        let (hints, decisions) = assign_hints_explained(&specs(), RemotingPolicy::MaxUse, 50);
        assert_eq!(decisions.len(), hints.len());
        for (d, &h) in decisions.iter().zip(hints.iter()) {
            assert_eq!(d.hint, h);
            assert!(d.why.starts_with("max-use:"), "{}", d.why);
        }
        // the pinned ones explain their rank; the rest explain the cut
        let pinned: Vec<_> = decisions
            .iter()
            .filter(|d| d.hint == StaticHint::Pinned)
            .collect();
        assert_eq!(pinned.len(), 2);
        assert!(pinned.iter().all(|d| d.why.contains("top 2")));
    }

    fn load(handle: u16, pinned: u64, resident: u64, miss: u64, evict: u64, hit: u64) -> DsLoad {
        DsLoad {
            handle,
            pinned_bytes: pinned,
            resident_bytes: resident,
            miss_velocity: miss,
            eviction_velocity: evict,
            hit_velocity: hit,
            use_score: 0,
            eligible: true,
        }
    }

    #[test]
    fn resolve_is_a_no_op_when_nothing_is_wrong() {
        let loads = [load(0, 4096, 0, 0, 0, 50), load(1, 0, 4096, 1, 0, 10)];
        assert!(reassign_hints_online(&loads, 1 << 20).is_empty());
    }

    #[test]
    fn forced_demotions_evict_coldest_first_until_budget_fits() {
        // Budget shrank to 4096; three pinned tenants, warmest last.
        let loads = [
            load(0, 4096, 0, 0, 0, 100),
            load(1, 4096, 0, 0, 0, 1),
            load(2, 4096, 0, 0, 0, 50),
        ];
        let ch = reassign_hints_online(&loads, 4096);
        let handles: Vec<u16> = ch.iter().map(|c| c.handle()).collect();
        assert_eq!(handles, vec![1, 2], "coldest (ds1) then ds2; ds0 stays");
        assert!(ch
            .iter()
            .all(|c| matches!(c, HintChange::Demote { why, .. } if why.contains("over budget"))));
    }

    #[test]
    fn forced_demotions_ignore_the_cooldown_guard() {
        let mut l = load(0, 8192, 0, 0, 0, 9);
        l.eligible = false;
        let ch = reassign_hints_online(&[l], 0);
        assert_eq!(ch.len(), 1, "budget correctness beats hysteresis");
    }

    #[test]
    fn thrasher_is_promoted_when_it_fits() {
        let loads = [load(0, 0, 8192, 10, 5, 2)];
        let ch = reassign_hints_online(&loads, 1 << 20);
        assert_eq!(ch.len(), 1);
        assert!(
            matches!(&ch[0], HintChange::Promote { handle: 0, why } if why.contains("thrash")),
            "{ch:?}"
        );
    }

    #[test]
    fn promotion_respects_cooldown_and_threshold() {
        // Below threshold: nothing.
        assert!(reassign_hints_online(&[load(0, 0, 8192, 3, 2, 0)], 1 << 20).is_empty());
        // Hot but inside cooldown: nothing (the anti-flap guard).
        let mut l = load(0, 0, 8192, 10, 10, 0);
        l.eligible = false;
        assert!(reassign_hints_online(&[l], 1 << 20).is_empty());
    }

    #[test]
    fn promotion_demotes_only_strictly_colder_victims() {
        // Thrasher at velocity 20; pinned tenant at hit velocity 15 is
        // inside the 2x margin, so it must NOT be sacrificed.
        let warm = [load(0, 4096, 0, 0, 0, 15), load(1, 0, 4096, 12, 8, 0)];
        let ch = reassign_hints_online(&warm, 4096);
        assert!(
            ch.is_empty(),
            "no strictly-colder victim -> no change: {ch:?}"
        );
        // Same shape with a cold tenant (2*5 <= 20): swap happens.
        let cold = [load(0, 4096, 0, 0, 0, 5), load(1, 0, 4096, 12, 8, 0)];
        let ch = reassign_hints_online(&cold, 4096);
        assert_eq!(ch.len(), 2);
        assert!(matches!(&ch[0], HintChange::Demote { handle: 0, .. }));
        assert!(matches!(&ch[1], HintChange::Promote { handle: 1, .. }));
    }

    #[test]
    fn at_most_one_promotion_per_resolve() {
        let loads = [
            load(0, 0, 4096, 30, 0, 0),
            load(1, 0, 4096, 20, 0, 0),
            load(2, 0, 4096, 10, 0, 0),
        ];
        let ch = reassign_hints_online(&loads, 1 << 20);
        assert_eq!(ch.len(), 1, "gentle governor: one promotion per pass");
        assert_eq!(ch[0].handle(), 0, "hottest thrasher wins");
    }

    #[test]
    fn ties_break_by_program_order() {
        let specs: Vec<DsSpec> = (0..3)
            .map(|i| {
                DsSpec::simple(format!("d{i}")).with_priority(DsPriority {
                    program_order: i,
                    reach_depth: 5,
                    use_score: 5,
                })
            })
            .collect();
        let h = assign_hints(&specs, RemotingPolicy::MaxUse, 34); // k = 1
        assert_eq!(h[0], StaticHint::Pinned);
        assert_eq!(h[1], StaticHint::Remotable);
    }
}
