//! Memory-pressure model: governor tuning knobs and phase-scripted
//! pressure schedules — the local-tier complement of the chaos transport.
//!
//! A [`PressureSchedule`] shrinks and restores the runtime's
//! pinned/remotable budgets mid-run on a deterministic guard-event clock,
//! the same way `ChaosSchedule` scripts transport faults on an op clock.
//! A [`PressureConfig`] switches on the governor that has to survive it:
//! watermark-driven proactive eviction, the thrashing detector, and the
//! online re-solve hysteresis, tuned by the constants below.

/// Crossing this fraction of the effective remotable budget (percent)
/// enters the High pressure level and starts batched proactive sweeps.
pub const HIGH_WATERMARK_PCT: u64 = 90;

/// Dropping to this fraction re-arms the High trigger (hysteresis) and is
/// the target proactive sweeps drain toward.
pub const LOW_WATERMARK_PCT: u64 = 70;

/// Max evictions per proactive sweep: batching instead of evict-on-miss
/// storms.
pub const EVICT_BATCH: u64 = 32;

/// A DS whose per-epoch miss+eviction velocity reaches this value is
/// considered thrashing and becomes a promotion candidate.
pub const THRASH_THRESHOLD: u64 = 8;

/// Epochs a DS (and the governor globally) must wait between hint changes
/// — the anti-flap guard.
pub const RESOLVE_COOLDOWN_EPOCHS: u64 = 4;

/// Pin-starvation relief shrinks the recent-guard window down to this
/// floor; evicted recently-guarded objects stay reachable through the
/// spill set, so this may be below the guard-elimination window.
pub const MIN_GUARD_WINDOW: usize = 2;

/// Governor switch. Carried inside `RuntimeConfig` (so it must stay
/// `Copy`); `Default` leaves the governor disabled so healthy-path runs
/// are byte-identical to previous releases — opt in with
/// [`PressureConfig::governed`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PressureConfig {
    /// Master switch for watermark sweeps and the thrashing detector.
    /// Pressure *schedules* and the spill path work regardless: budget
    /// correctness is not optional.
    pub enabled: bool,
}

impl PressureConfig {
    /// The governor, switched on.
    pub fn governed() -> Self {
        PressureConfig { enabled: true }
    }
}

/// One phase of a pressure schedule: hold the budgets at the given
/// percentages of their base values for `guards` guard events.
#[derive(Clone, Debug, PartialEq)]
pub struct PressurePhase {
    pub pinned_pct: u32,
    pub remotable_pct: u32,
    pub guards: u64,
}

/// A deterministic script of budget changes, ticked once per tagged guard
/// event. Symmetric to `ChaosSchedule`: same phase-instance bookkeeping,
/// but it starves the *local* tier instead of the remote one.
#[derive(Clone, Debug, PartialEq)]
pub struct PressureSchedule {
    pub phases: Vec<PressurePhase>,
    /// Loop forever (sawtooth) or run once and restore full budgets.
    pub repeat: bool,
}

impl PressureSchedule {
    /// Gradual squeeze: full -> half -> quarter, then restore. The long
    /// quarter-budget hold is what forces the governor through forced
    /// demotions and proactive sweeps.
    pub fn squeeze() -> Self {
        PressureSchedule {
            phases: vec![
                PressurePhase {
                    pinned_pct: 100,
                    remotable_pct: 100,
                    guards: 64,
                },
                PressurePhase {
                    pinned_pct: 50,
                    remotable_pct: 50,
                    guards: 96,
                },
                PressurePhase {
                    pinned_pct: 25,
                    remotable_pct: 25,
                    guards: 160,
                },
                PressurePhase {
                    pinned_pct: 100,
                    remotable_pct: 100,
                    guards: 64,
                },
            ],
            repeat: false,
        }
    }

    /// Sudden cliff: budgets drop to a tenth with no warning, hold, then
    /// recover — the OOM-killer-adjacent scenario.
    pub fn cliff() -> Self {
        PressureSchedule {
            phases: vec![
                PressurePhase {
                    pinned_pct: 100,
                    remotable_pct: 100,
                    guards: 96,
                },
                PressurePhase {
                    pinned_pct: 10,
                    remotable_pct: 10,
                    guards: 192,
                },
                PressurePhase {
                    pinned_pct: 100,
                    remotable_pct: 100,
                    guards: 64,
                },
            ],
            repeat: false,
        }
    }

    /// Repeating ramp down and back up: the schedule that shakes out
    /// counter underflow and re-solve flapping.
    pub fn sawtooth() -> Self {
        PressureSchedule {
            phases: vec![
                PressurePhase {
                    pinned_pct: 100,
                    remotable_pct: 100,
                    guards: 48,
                },
                PressurePhase {
                    pinned_pct: 75,
                    remotable_pct: 75,
                    guards: 48,
                },
                PressurePhase {
                    pinned_pct: 50,
                    remotable_pct: 50,
                    guards: 48,
                },
                PressurePhase {
                    pinned_pct: 25,
                    remotable_pct: 25,
                    guards: 48,
                },
                PressurePhase {
                    pinned_pct: 50,
                    remotable_pct: 50,
                    guards: 48,
                },
                PressurePhase {
                    pinned_pct: 75,
                    remotable_pct: 75,
                    guards: 48,
                },
            ],
            repeat: true,
        }
    }

    /// Full budgets forever — a control schedule for overhead baselines.
    pub fn quiet() -> Self {
        PressureSchedule {
            phases: vec![PressurePhase {
                pinned_pct: 100,
                remotable_pct: 100,
                guards: 1,
            }],
            repeat: true,
        }
    }

    /// Guard events covered by one lap of the schedule.
    pub fn total_guards(&self) -> u64 {
        self.phases.iter().map(|p| p.guards.max(1)).sum()
    }

    /// Resolve a guard tick to `(phase instance id, pinned %, remotable %)`.
    /// Instance ids are unique across laps so a phase re-entry is
    /// distinguishable from staying put; past the end of a non-repeating
    /// schedule the budgets are fully restored.
    pub fn at(&self, tick: u64) -> (u64, u32, u32) {
        let lap = self.total_guards();
        if self.phases.is_empty() || lap == 0 {
            return (u64::MAX - 1, 100, 100);
        }
        let (laps_done, within) = if tick < lap {
            (0, tick)
        } else if self.repeat {
            (tick / lap, tick % lap)
        } else {
            // One-shot schedule exhausted: permanent restore phase.
            return (self.phases.len() as u64, 100, 100);
        };
        let mut off = within;
        for (i, p) in self.phases.iter().enumerate() {
            let len = p.guards.max(1);
            if off < len {
                let inst = laps_done * self.phases.len() as u64 + i as u64;
                return (inst, p.pinned_pct, p.remotable_pct);
            }
            off -= len;
        }
        (self.phases.len() as u64, 100, 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squeeze_walks_phases_then_restores() {
        let s = PressureSchedule::squeeze();
        assert_eq!(s.at(0), (0, 100, 100));
        assert_eq!(s.at(64), (1, 50, 50));
        assert_eq!(s.at(64 + 96), (2, 25, 25));
        assert_eq!(s.at(64 + 96 + 160), (3, 100, 100));
        // Past the end: restored for good, stable instance id.
        let total = s.total_guards();
        assert_eq!(s.at(total), (4, 100, 100));
        assert_eq!(s.at(total + 10_000), (4, 100, 100));
    }

    #[test]
    fn sawtooth_repeats_with_unique_instance_ids() {
        let s = PressureSchedule::sawtooth();
        let lap = s.total_guards();
        let (i0, p0, _) = s.at(0);
        let (i1, p1, _) = s.at(lap);
        assert_eq!(p0, p1, "same phase shape on every lap");
        assert_ne!(i0, i1, "each lap gets fresh instance ids");
        assert_eq!(i1, 6, "lap 1 starts at phases.len()");
    }

    #[test]
    fn quiet_never_changes_budgets() {
        let s = PressureSchedule::quiet();
        for t in [0u64, 1, 100, 1 << 20] {
            let (_, p, r) = s.at(t);
            assert_eq!((p, r), (100, 100));
        }
    }

    #[test]
    fn default_config_is_disabled_but_governed_is_not() {
        assert!(!PressureConfig::default().enabled);
        let g = PressureConfig::governed();
        assert!(g.enabled);
        const { assert!(LOW_WATERMARK_PCT < HIGH_WATERMARK_PCT) };
    }
}
