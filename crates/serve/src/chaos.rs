//! Cluster-scale chaos: correlated cell outages, network partitions,
//! link-delay spikes, and device faults (slow-node gray failures among
//! them), compiled down to the device-level [`FaultPlan`] plus
//! router-visible windows, the serving driver's own input.
//!
//! A [`ChaosPlan`] extends the device fault model one level up.
//! Device-scope events (crashes, freezes, PIM/KV faults, gray slowdowns)
//! compile to [`FaultEvent`]s on *global* device indices; cluster-scope
//! events compile to windows only the router sees:
//!
//! - **cell outages** crash every device of a cell at once (recoverable),
//!   the correlated failure a flat fleet cannot express;
//! - **partitions** make a cell unreachable for *new* dispatches while
//!   its devices keep serving what they already hold;
//! - **link delays** charge extra seconds to every dispatch entering a
//!   cell, triggering hedged rerouting past the configured threshold.
//!
//! Everything is deterministic: [`ChaosPlan::seeded`] derives the whole
//! schedule from a seed, and [`ChaosPlan::none`] compiles to an empty
//! fault plan that reproduces the chaos-free schedule exactly.

use facil_core::{FacilError, Result};
use facil_workloads::XorShift64Star;

use crate::faults::{check_window, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use crate::router::CompiledChaos;
use crate::topology::ClusterConfig;

/// One chaos event at cluster scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// Correlated outage: every device of `cell` crashes at `at_s` and
    /// recovers `duration_s` later (in-flight work is evicted for
    /// cross-cell failover).
    CellOutage {
        /// Target cell.
        cell: usize,
        /// Outage start, seconds.
        at_s: f64,
        /// Outage length, seconds.
        duration_s: f64,
    },
    /// Network partition: the router cannot dispatch *into* `cell` during
    /// the window; devices inside keep draining their local queues.
    Partition {
        /// Target cell.
        cell: usize,
        /// Partition start, seconds.
        at_s: f64,
        /// Partition length, seconds.
        duration_s: f64,
    },
    /// Link-delay spike: dispatches entering `cell` during the window are
    /// deferred by `extra_s` (or hedged to another cell past the
    /// [`crate::ClusterConfig::hedge_after_s`] threshold).
    LinkDelay {
        /// Target cell.
        cell: usize,
        /// Spike start, seconds.
        at_s: f64,
        /// Spike length, seconds.
        duration_s: f64,
        /// Added dispatch latency, seconds (must be positive).
        extra_s: f64,
    },
    /// Pass a device-scope fault through unchanged (crash, freeze,
    /// PIM fault, KV fault, or a [`FaultKind::Slow`] gray failure: the
    /// device serves `factor`× slower while still passing health checks)
    /// on a global device index.
    Device {
        /// Global device index.
        device: usize,
        /// Fault start, seconds.
        at_s: f64,
        /// The device-level fault.
        kind: FaultKind,
    },
}

/// Rates for [`ChaosPlan::seeded`]: expected events per simulated hour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRates {
    /// Cell outages per hour (cluster-wide).
    pub cell_outages_per_h: f64,
    /// Partitions per hour (cluster-wide).
    pub partitions_per_h: f64,
    /// Link-delay spikes per hour (cluster-wide).
    pub link_delays_per_h: f64,
    /// Gray failures ([`FaultKind::Slow`] device faults) per hour
    /// (cluster-wide).
    pub gray_failures_per_h: f64,
    /// Device crashes per hour (cluster-wide, recoverable).
    pub crashes_per_h: f64,
}

impl Default for ChaosRates {
    fn default() -> Self {
        ChaosRates {
            cell_outages_per_h: 1.0,
            partitions_per_h: 2.0,
            link_delays_per_h: 6.0,
            gray_failures_per_h: 4.0,
            crashes_per_h: 4.0,
        }
    }
}

/// Deterministic cluster chaos schedule plus the retry/deadline policy
/// it hands down to the device-level [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Scheduled events (any order; compilation sorts).
    pub events: Vec<ChaosEvent>,
    /// Retry budget, backoff and per-request deadline.
    pub policy: RetryPolicy,
}

impl ChaosPlan {
    /// No chaos: empty schedule, default failover policy (3 retries from a
    /// 50 ms backoff, no deadline). Compiles to an empty [`FaultPlan`] and
    /// reproduces the chaos-free schedule exactly.
    pub fn none() -> ChaosPlan {
        ChaosPlan {
            events: Vec::new(),
            policy: RetryPolicy { max_retries: 3, retry_backoff_s: 0.05, deadline_s: 0.0 },
        }
    }

    /// Sample a chaos schedule over `span_s` seconds for the cluster shape
    /// `cfg`, deterministically under `seed`. Event times are Poisson per
    /// class; targets are uniform over cells/devices. A shape with no cell
    /// or no device per cell gets no events, so running it reports the
    /// shape's [`ClusterConfig::validate`] error.
    ///
    /// # Panics
    ///
    /// Panics if `span_s` or a rate is not finite: the per-class event
    /// bound would overflow, and arrivals never reach an infinite span.
    pub fn seeded(seed: u64, cfg: &ClusterConfig, span_s: f64, rates: &ChaosRates) -> ChaosPlan {
        assert!(span_s.is_finite(), "chaos span_s must be finite, got {span_s}");
        for (name, per_h) in [
            ("cell_outages_per_h", rates.cell_outages_per_h),
            ("partitions_per_h", rates.partitions_per_h),
            ("link_delays_per_h", rates.link_delays_per_h),
            ("gray_failures_per_h", rates.gray_failures_per_h),
            ("crashes_per_h", rates.crashes_per_h),
        ] {
            assert!(per_h.is_finite(), "chaos rate {name} must be finite, got {per_h}");
        }
        let mut rng = XorShift64Star::new(seed ^ 0xC1A0_5C1A_05C1_A05C);
        let mut events = Vec::new();
        let hours = span_s / 3600.0;
        let initial_slots: Vec<usize> = (0..cfg.cells)
            .flat_map(|c| (0..cfg.devices_per_cell).map(move |s| (c, s)))
            .map(|(c, s)| cfg.global_index(c, s))
            .collect();
        if initial_slots.is_empty() {
            return ChaosPlan::none();
        }
        type EventCtor<'a> = Box<dyn FnMut(&mut XorShift64Star, f64) -> ChaosEvent + 'a>;
        let mut sample = |per_h: f64, mut mk: EventCtor<'_>| {
            if per_h <= 0.0 {
                return Vec::new();
            }
            let rate = per_h / 3600.0;
            let mut t = 0.0;
            let mut out = Vec::new();
            for _ in 0..((per_h * hours).ceil() as usize * 4).max(4) {
                t += rng.next_exp(rate);
                if t >= span_s {
                    break;
                }
                out.push(mk(&mut rng, t));
            }
            out
        };
        events.extend(sample(
            rates.cell_outages_per_h,
            Box::new(|rng, t| ChaosEvent::CellOutage {
                cell: (rng.next_u64() as usize) % cfg.cells,
                at_s: t,
                duration_s: 5.0 + rng.next_f64() * 25.0,
            }),
        ));
        events.extend(sample(
            rates.partitions_per_h,
            Box::new(|rng, t| ChaosEvent::Partition {
                cell: (rng.next_u64() as usize) % cfg.cells,
                at_s: t,
                duration_s: 2.0 + rng.next_f64() * 18.0,
            }),
        ));
        events.extend(sample(
            rates.link_delays_per_h,
            Box::new(|rng, t| ChaosEvent::LinkDelay {
                cell: (rng.next_u64() as usize) % cfg.cells,
                at_s: t,
                duration_s: 1.0 + rng.next_f64() * 9.0,
                extra_s: 0.05 + rng.next_f64() * 0.75,
            }),
        ));
        events.extend(sample(
            rates.gray_failures_per_h,
            Box::new(|rng, t| ChaosEvent::Device {
                device: initial_slots[(rng.next_u64() as usize) % initial_slots.len()],
                at_s: t,
                kind: FaultKind::Slow {
                    duration_s: 5.0 + rng.next_f64() * 55.0,
                    factor: 2.0 + rng.next_f64() * 6.0,
                },
            }),
        ));
        events.extend(sample(
            rates.crashes_per_h,
            Box::new(|rng, t| ChaosEvent::Device {
                device: initial_slots[(rng.next_u64() as usize) % initial_slots.len()],
                at_s: t,
                kind: FaultKind::Crash { recover_s: Some(2.0 + rng.next_f64() * 28.0) },
            }),
        ));
        ChaosPlan { events, ..ChaosPlan::none() }
    }

    /// Check every event against the cluster shape, and the policy.
    ///
    /// # Errors
    ///
    /// [`FacilError::InvalidRequest`] on an out-of-range cell, a malformed
    /// window (negative or non-finite start, non-positive or non-finite
    /// length) or device fault ([`FaultKind::validate`]), a non-positive
    /// link-delay `extra_s` (deferral must make progress), or a malformed
    /// policy ([`RetryPolicy::validate`]);
    /// [`FacilError::DeviceUnavailable`] on an out-of-range device target.
    pub fn validate(&self, cfg: &ClusterConfig) -> Result<()> {
        let check_cell = |cell: usize| {
            if cell >= cfg.cells {
                return Err(FacilError::InvalidRequest(format!(
                    "chaos event targets cell {cell}, but the cluster has {} cells",
                    cfg.cells
                )));
            }
            Ok(())
        };
        for e in &self.events {
            match *e {
                ChaosEvent::CellOutage { cell, at_s, duration_s }
                | ChaosEvent::Partition { cell, at_s, duration_s } => {
                    check_cell(cell)?;
                    check_window(at_s, duration_s)?;
                }
                ChaosEvent::LinkDelay { cell, at_s, duration_s, extra_s } => {
                    check_cell(cell)?;
                    check_window(at_s, duration_s)?;
                    if !extra_s.is_finite() || extra_s <= 0.0 {
                        return Err(FacilError::InvalidRequest(format!(
                            "link delay {extra_s} must be positive and finite"
                        )));
                    }
                }
                ChaosEvent::Device { device, at_s, kind } => {
                    if device >= cfg.total_slots() {
                        return Err(FacilError::DeviceUnavailable { device });
                    }
                    kind.validate(at_s)?;
                }
            }
        }
        self.policy.validate()
    }

    /// Compile to the device-level fault plan plus router windows. The
    /// plan is validated against `cfg` first.
    ///
    /// # Errors
    ///
    /// See [`ChaosPlan::validate`].
    pub(crate) fn compile(&self, cfg: &ClusterConfig) -> Result<CompiledChaos> {
        self.validate(cfg)?;
        let mut fault_events = Vec::new();
        let mut partitions = vec![Vec::new(); cfg.cells];
        let mut link_delays = vec![Vec::new(); cfg.cells];
        for e in &self.events {
            match *e {
                ChaosEvent::CellOutage { cell, at_s, duration_s } => {
                    // Correlated crash across every *slot* of the cell:
                    // devices scaled out later share the failure domain.
                    for slot in 0..cfg.max_devices_per_cell {
                        fault_events.push(FaultEvent {
                            device: cfg.global_index(cell, slot),
                            at_s,
                            kind: FaultKind::Crash { recover_s: Some(duration_s) },
                        });
                    }
                }
                ChaosEvent::Partition { cell, at_s, duration_s } => {
                    partitions[cell].push((at_s, at_s + duration_s));
                }
                ChaosEvent::LinkDelay { cell, at_s, duration_s, extra_s } => {
                    link_delays[cell].push((at_s, at_s + duration_s, extra_s));
                }
                ChaosEvent::Device { device, at_s, kind } => {
                    fault_events.push(FaultEvent { device, at_s, kind });
                }
            }
        }
        // Deterministic device order for coincident events.
        fault_events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.device.cmp(&b.device)));
        for w in &mut partitions {
            w.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        for w in &mut link_delays {
            w.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let plan = FaultPlan { events: fault_events, policy: self.policy };
        Ok(CompiledChaos { plan, partitions, link_delays })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            cells: 2,
            devices_per_cell: 2,
            max_devices_per_cell: 3,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn none_compiles_to_an_empty_fault_plan() {
        let c = ChaosPlan::none().compile(&cfg()).unwrap();
        assert!(c.plan.events.is_empty());
        assert!(c.partitions.iter().all(Vec::is_empty));
        assert!(c.link_delays.iter().all(Vec::is_empty));
        assert!(!c.partitioned(0, 1.0));
        assert_eq!(c.link_delay(1, 1.0), 0.0);
        assert_eq!(c.next_boundary_after(0.0), None);
    }

    #[test]
    fn cell_outage_crashes_every_slot_of_the_cell() {
        let plan = ChaosPlan {
            events: vec![ChaosEvent::CellOutage { cell: 1, at_s: 3.0, duration_s: 10.0 }],
            ..ChaosPlan::none()
        };
        let c = plan.compile(&cfg()).unwrap();
        assert_eq!(c.plan.events.len(), 3, "one crash per slot incl. headroom");
        for e in &c.plan.events {
            assert_eq!(cfg().cell_of(e.device), 1);
            assert!(matches!(e.kind, FaultKind::Crash { recover_s: Some(r) } if r == 10.0));
        }
        // Outage recovery is a quiesce boundary.
        assert_eq!(c.next_boundary_after(4.0), Some(13.0));
    }

    #[test]
    fn partitions_and_link_delays_stay_router_side() {
        let plan = ChaosPlan {
            events: vec![
                ChaosEvent::Partition { cell: 0, at_s: 1.0, duration_s: 2.0 },
                ChaosEvent::LinkDelay { cell: 1, at_s: 0.5, duration_s: 4.0, extra_s: 0.3 },
                ChaosEvent::LinkDelay { cell: 1, at_s: 2.0, duration_s: 1.0, extra_s: 0.7 },
            ],
            ..ChaosPlan::none()
        };
        let c = plan.compile(&cfg()).unwrap();
        assert!(c.plan.events.is_empty(), "router-scope events emit no device faults");
        assert!(c.partitioned(0, 1.5) && !c.partitioned(0, 3.5) && !c.partitioned(1, 1.5));
        assert_eq!(c.link_delay(1, 1.0), 0.3);
        assert_eq!(c.link_delay(1, 2.5), 0.7, "overlap takes the max");
        assert_eq!(c.link_delay(0, 1.0), 0.0);
    }

    #[test]
    fn gray_failures_compile_to_slow_faults() {
        let plan = ChaosPlan {
            events: vec![ChaosEvent::Device {
                device: 4,
                at_s: 1.0,
                kind: FaultKind::Slow { duration_s: 5.0, factor: 3.0 },
            }],
            ..ChaosPlan::none()
        };
        let c = plan.compile(&cfg()).unwrap();
        assert_eq!(c.plan.events.len(), 1);
        assert!(matches!(c.plan.events[0].kind, FaultKind::Slow { factor, .. } if factor == 3.0));
    }

    /// Validation and compilation agree on every device fault: a plan
    /// `validate` accepts always compiles, and one it rejects never does.
    #[test]
    fn validate_rejects_every_fault_compile_would() {
        let shape = cfg();
        for kind in [
            FaultKind::Slow { duration_s: 1.0, factor: 0.5 },
            FaultKind::Slow { duration_s: 1.0, factor: f64::NAN },
            FaultKind::Slow { duration_s: 1.0, factor: f64::INFINITY },
            FaultKind::Freeze { duration_s: 0.0 },
            FaultKind::Crash { recover_s: Some(f64::NAN) },
        ] {
            let plan = ChaosPlan {
                events: vec![ChaosEvent::Device { device: 0, at_s: 1.0, kind }],
                ..ChaosPlan::none()
            };
            assert!(plan.validate(&shape).is_err(), "validate accepted {kind:?}");
            assert!(plan.compile(&shape).is_err(), "compile accepted {kind:?}");
        }
        let ok = ChaosPlan {
            events: vec![ChaosEvent::Device {
                device: 0,
                at_s: 1.0,
                kind: FaultKind::Slow { duration_s: 1.0, factor: 1.0 },
            }],
            ..ChaosPlan::none()
        };
        ok.validate(&shape).unwrap();
        ok.compile(&shape).unwrap();
        let mut bad_policy = ChaosPlan::none();
        bad_policy.policy.retry_backoff_s = -1.0;
        assert!(bad_policy.validate(&shape).is_err());
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        let shape = cfg();
        let bad_cell = |cell| {
            FacilError::InvalidRequest(format!(
                "chaos event targets cell {cell}, but the cluster has 2 cells"
            ))
        };
        for (ev, want) in [
            (ChaosEvent::CellOutage { cell: 2, at_s: 0.0, duration_s: 1.0 }, bad_cell(2)),
            (ChaosEvent::Partition { cell: 9, at_s: 0.0, duration_s: 1.0 }, bad_cell(9)),
            (
                ChaosEvent::LinkDelay { cell: 3, at_s: 0.0, duration_s: 1.0, extra_s: 0.1 },
                bad_cell(3),
            ),
            (
                ChaosEvent::Device {
                    device: 6,
                    at_s: 0.0,
                    kind: FaultKind::Slow { duration_s: 1.0, factor: 2.0 },
                },
                FacilError::DeviceUnavailable { device: 6 },
            ),
            (
                ChaosEvent::Device {
                    device: 100,
                    at_s: 0.0,
                    kind: FaultKind::Freeze { duration_s: 1.0 },
                },
                FacilError::DeviceUnavailable { device: 100 },
            ),
        ] {
            let plan = ChaosPlan { events: vec![ev], ..ChaosPlan::none() };
            assert_eq!(plan.validate(&shape), Err(want), "{ev:?}");
            assert!(plan.compile(&shape).is_err(), "{ev:?}");
        }
        let bad_delay = ChaosPlan {
            events: vec![ChaosEvent::LinkDelay {
                cell: 0,
                at_s: 0.0,
                duration_s: 1.0,
                extra_s: 0.0,
            }],
            ..ChaosPlan::none()
        };
        assert!(bad_delay.compile(&shape).is_err(), "zero extra_s could defer forever");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_span() {
        let shape = cfg();
        let rates = ChaosRates::default();
        let a = ChaosPlan::seeded(7, &shape, 3600.0, &rates);
        let b = ChaosPlan::seeded(7, &shape, 3600.0, &rates);
        assert_eq!(a, b);
        let c = ChaosPlan::seeded(8, &shape, 3600.0, &rates);
        assert_ne!(a, c);
        assert!(!a.events.is_empty());
        a.validate(&shape).unwrap();
        a.compile(&shape).unwrap();
    }

    /// Each non-finite input panics naming its field. An infinite rate or
    /// span used to overflow the per-class event bound (a panic in debug,
    /// a wrap to ~1.8e19 in release, where sampling then never ended).
    #[test]
    fn seeded_rejects_non_finite_span_and_rates() {
        let rates = ChaosRates::default();
        let cases = [
            (f64::INFINITY, rates, "span_s"),
            (f64::NAN, rates, "span_s"),
            (60.0, ChaosRates { partitions_per_h: f64::INFINITY, ..rates }, "partitions_per_h"),
            (60.0, ChaosRates { crashes_per_h: f64::NAN, ..rates }, "crashes_per_h"),
        ];
        for (span_s, rates, field) in cases {
            let panic = std::panic::catch_unwind(|| ChaosPlan::seeded(7, &cfg(), span_s, &rates))
                .expect_err("non-finite input must panic");
            let msg = panic.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains(field), "{field}: {msg}");
        }
    }

    /// An empty shape samples nothing (it used to divide by zero picking a
    /// target), and its run reports the shape error.
    #[test]
    fn seeded_plan_of_an_empty_shape_is_empty() {
        for shape in
            [ClusterConfig { cells: 0, ..cfg() }, ClusterConfig { devices_per_cell: 0, ..cfg() }]
        {
            let plan = ChaosPlan::seeded(7, &shape, 3600.0, &ChaosRates::default());
            assert_eq!(plan, ChaosPlan::none());
            assert!(matches!(shape.validate(), Err(FacilError::InvalidRequest(_))));
        }
    }
}
