//! Deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] is a finite list of posted-write deliveries to drop,
//! delay, or duplicate, each selected by direction/shape and ordinal.
//! Plans are plain data: they serialize to a compact token (`f1:...`)
//! that round-trips through [`FaultPlan::parse`], so a failing fault
//! schedule can be replayed exactly, alone or combined with a schedule
//! token. Severed links and crashed hosts are not plan entries: a test
//! makes them with [`Fabric::sever_ntb_now`](crate::Fabric::sever_ntb_now)
//! and [`Fabric::crash_host_now`](crate::Fabric::crash_host_now) at the
//! instant it chooses.
//!
//! Everything here is deterministic by construction: matching is keyed
//! off issue order only, never wall-clock or RNG state.

use std::fmt;

use simcore::SimDuration;

use crate::addr::{HostId, NtbId};

/// A CQE posted by the controller model is exactly 16 bytes; the `cqe`
/// selector keys off this.
pub const CQE_LEN: u64 = 16;

/// Which posted-write deliveries a [`DeliveryFault`] may match.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Selector {
    /// Every delivery.
    Any,
    /// Device-originated writes of exactly [`CQE_LEN`] bytes into host
    /// DRAM — completion-queue entries.
    Cqe,
    /// Any device-originated write into host DRAM.
    DeviceToHost,
    /// Any host-originated write that lands on a device BAR.
    HostToDevice,
}

/// What to do with the matched delivery.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Silently discard the write: it never applies anywhere.
    Drop,
    /// Add the given extra propagation delay before the write applies.
    Delay(SimDuration),
    /// Apply the write, then apply an identical copy one issue-slot
    /// later on the same path (a replayed TLP).
    Duplicate,
}

/// One delivery fault: the `nth` delivery matching `selector` (0-based,
/// counted per fault spec) gets `action`. Each spec fires at most once.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DeliveryFault {
    pub selector: Selector,
    pub nth: u64,
    pub action: FaultAction,
}

/// Which directions of an NTB window stop working when severed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SeverMode {
    /// Accesses *through* the adapter's window fail (the local host loses
    /// its view of remote domains); traffic into the local domain from
    /// elsewhere still lands.
    Outbound,
    /// Both directions: window accesses fail and foreign traffic into
    /// the adapter's local domain is lost too — a full cable pull.
    Both,
}

/// A complete, replayable delivery-fault schedule for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub deliveries: Vec<DeliveryFault>,
}

impl FaultPlan {
    /// A plan that drops the `nth` CQE delivery — the canonical "lost
    /// completion" fault.
    pub fn drop_nth_cqe(nth: u64) -> FaultPlan {
        FaultPlan {
            deliveries: vec![DeliveryFault {
                selector: Selector::Cqe,
                nth,
                action: FaultAction::Drop,
            }],
        }
    }

    /// Parse a `f1:` fault token (the inverse of `Display`).
    pub fn parse(token: &str) -> Result<FaultPlan, String> {
        let body = token
            .strip_prefix("f1:")
            .ok_or_else(|| format!("fault token must start with 'f1:': {token:?}"))?;
        let mut plan = FaultPlan::default();
        if body.is_empty() {
            return Ok(plan);
        }
        for spec in body.split(',') {
            let mut parts = spec.split('/');
            let head = parts.next().unwrap_or("");
            let (kind, arg) = head
                .split_once('@')
                .ok_or_else(|| format!("bad fault spec {spec:?}: missing '@'"))?;
            if !matches!(kind, "drop" | "dup" | "delay") {
                return Err(format!("unknown fault kind {kind:?} in {spec:?}"));
            }
            let nth: u64 = arg
                .parse()
                .map_err(|_| format!("bad ordinal in {spec:?}"))?;
            let selector = parse_selector(
                parts
                    .next()
                    .ok_or_else(|| format!("missing selector in {spec:?}"))?,
            )?;
            let action = match kind {
                "drop" => FaultAction::Drop,
                "dup" => FaultAction::Duplicate,
                _ => {
                    let ns: u64 = parts
                        .next()
                        .ok_or_else(|| format!("missing delay nanos in {spec:?}"))?
                        .parse()
                        .map_err(|_| format!("bad delay nanos in {spec:?}"))?;
                    FaultAction::Delay(SimDuration::from_nanos(ns))
                }
            };
            if let Some(extra) = parts.next() {
                return Err(format!("trailing field {extra:?} in {spec:?}"));
            }
            plan.deliveries.push(DeliveryFault {
                selector,
                nth,
                action,
            });
        }
        Ok(plan)
    }
}

fn parse_selector(s: &str) -> Result<Selector, String> {
    match s {
        "any" => Ok(Selector::Any),
        "cqe" => Ok(Selector::Cqe),
        "d2h" => Ok(Selector::DeviceToHost),
        "h2d" => Ok(Selector::HostToDevice),
        other => Err(format!("unknown selector {other:?}")),
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Selector::Any => "any",
            Selector::Cqe => "cqe",
            Selector::DeviceToHost => "d2h",
            Selector::HostToDevice => "h2d",
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f1:")?;
        for (i, d) in self.deliveries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match d.action {
                FaultAction::Drop => write!(f, "drop@{}/{}", d.nth, d.selector)?,
                FaultAction::Duplicate => write!(f, "dup@{}/{}", d.nth, d.selector)?,
                FaultAction::Delay(extra) => {
                    write!(f, "delay@{}/{}/{}", d.nth, d.selector, extra.as_nanos())?
                }
            }
        }
        Ok(())
    }
}

/// Live injection state for one fabric: the installed plan plus match
/// counters and the links and hosts taken down so far. Owned by
/// `FabricInner` behind a `RefCell`; all methods are deterministic
/// functions of issue order.
#[derive(Default)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Per-delivery-spec count of matching deliveries seen so far.
    matched: Vec<u64>,
    /// Per-delivery-spec "already injected" flag (each spec fires once).
    fired: Vec<bool>,
    severed: Vec<(NtbId, SeverMode)>,
    crashed: Vec<HostId>,
}

impl FaultInjector {
    /// Replace the delivery plan and its match counters. Links severed
    /// and hosts crashed so far stay down.
    pub(crate) fn install(&mut self, plan: FaultPlan) {
        self.matched = vec![0; plan.deliveries.len()];
        self.fired = vec![false; plan.deliveries.len()];
        self.plan = plan;
    }

    /// Whether any fault could still fire (cheap fast-path guard).
    pub(crate) fn active(&self) -> bool {
        !self.plan.deliveries.is_empty() || !self.severed.is_empty() || !self.crashed.is_empty()
    }

    pub(crate) fn crash_now(&mut self, host: HostId) {
        if !self.crashed.contains(&host) {
            self.crashed.push(host);
        }
    }

    pub(crate) fn sever_now(&mut self, ntb: NtbId, mode: SeverMode) {
        self.severed.retain(|&(n, _)| n != ntb);
        self.severed.push((ntb, mode));
    }

    pub(crate) fn is_crashed(&self, host: HostId) -> bool {
        self.crashed.contains(&host)
    }

    pub(crate) fn severed_mode(&self, ntb: NtbId) -> Option<SeverMode> {
        self.severed
            .iter()
            .find(|&&(n, _)| n == ntb)
            .map(|&(_, m)| m)
    }

    pub(crate) fn severed(&self) -> &[(NtbId, SeverMode)] {
        &self.severed
    }

    /// Match one enqueued delivery against the plan and return the action
    /// to inject, if any. `src_host` is `None` for device-originated
    /// writes. Every spec counts its own matches; each fires at most
    /// once, and the first spec to fire on a delivery wins.
    pub(crate) fn delivery_action(
        &mut self,
        src_host: Option<HostId>,
        to_dram_host: Option<HostId>,
        len: u64,
    ) -> Option<FaultAction> {
        let mut result = None;
        for (i, d) in self.plan.deliveries.iter().enumerate() {
            let matches = match d.selector {
                Selector::Any => true,
                Selector::Cqe => src_host.is_none() && to_dram_host.is_some() && len == CQE_LEN,
                Selector::DeviceToHost => src_host.is_none() && to_dram_host.is_some(),
                Selector::HostToDevice => src_host.is_some() && to_dram_host.is_none(),
            };
            if !matches {
                continue;
            }
            let seen = self.matched[i];
            self.matched[i] += 1;
            if !self.fired[i] && seen == d.nth && result.is_none() {
                self.fired[i] = true;
                result = Some(d.action);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips() {
        let plan = FaultPlan {
            deliveries: vec![
                DeliveryFault {
                    selector: Selector::Cqe,
                    nth: 3,
                    action: FaultAction::Drop,
                },
                DeliveryFault {
                    selector: Selector::HostToDevice,
                    nth: 0,
                    action: FaultAction::Delay(SimDuration::from_nanos(750)),
                },
                DeliveryFault {
                    selector: Selector::Any,
                    nth: 1,
                    action: FaultAction::Duplicate,
                },
            ],
        };
        let token = plan.to_string();
        assert_eq!(token, "f1:drop@3/cqe,delay@0/h2d/750,dup@1/any");
        assert_eq!(FaultPlan::parse(&token).unwrap(), plan);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::default();
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert!(plan.deliveries.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("x1:0.1").is_err());
        assert!(FaultPlan::parse("f1:drop@x/cqe").is_err());
        assert!(FaultPlan::parse("f1:explode@3/any").is_err());
        assert!(FaultPlan::parse("f1:drop@3/nowhere").is_err());
        assert!(FaultPlan::parse("f1:drop@3/cqe/extra").is_err());
        // Severs and crashes are `Fabric` calls, not plan entries; the
        // error names the refused form.
        let err = FaultPlan::parse("f1:sever@10/ntb0/out").unwrap_err();
        assert!(err.contains("\"sever\""), "{err}");
        let err = FaultPlan::parse("f1:crash@c3/host1").unwrap_err();
        assert!(err.contains("\"crash\""), "{err}");
        let err = FaultPlan::parse("f1:drop@0/to1").unwrap_err();
        assert!(err.contains("\"to1\""), "{err}");
    }
}
