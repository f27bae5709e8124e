//! Deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes a finite set of faults to inject into one
//! simulation run: posted-write deliveries to drop, delay, or duplicate
//! (selected by direction/shape and ordinal), NTB links to sever at a
//! virtual instant, and host actors to crash at a virtual instant or at
//! the Nth fabric [`Delivery`](simcore::ChoiceKind::Delivery) choice
//! point. Plans are plain data: they serialize to a compact token
//! (`f1:...`) that round-trips through [`FaultPlan::parse`], so a failing
//! fault schedule can be replayed exactly — alone or combined with a
//! PR-4 schedule token.
//!
//! Everything here is deterministic by construction: matching is keyed
//! off issue order and virtual time only, never wall-clock or RNG state,
//! and [`FaultPlan::seeded`] expands a seed through a fixed xorshift64
//! generator.

use std::fmt;

use simcore::{SimDuration, SimTime};

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
    /// Writes landing in the given host's DRAM.
    ToHost(HostId),
    /// Writes issued by the given host's CPU.
    FromHost(HostId),
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

/// Sever an NTB link at a chosen virtual instant.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SeverLink {
    pub ntb: NtbId,
    pub mode: SeverMode,
    pub at: SimTime,
}

/// When a [`CrashHost`] fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CrashTrigger {
    /// At the given virtual instant.
    Time(SimTime),
    /// When the fabric consults its Nth `Delivery` choice point (0-based)
    /// — lets the explorer crash a host at a schedule-relative position.
    Choice(u64),
}

/// Crash a host actor: every timed fabric operation it issues afterwards
/// fails with [`FabricError::HostCrashed`](crate::FabricError).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrashHost {
    pub host: HostId,
    pub at: CrashTrigger,
}

/// A complete, replayable fault schedule for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub deliveries: Vec<DeliveryFault>,
    pub severs: Vec<SeverLink>,
    pub crashes: Vec<CrashHost>,
}

/// Counters for faults actually injected; read with
/// [`Fabric::fault_stats`](crate::Fabric) so tests can assert a plan
/// fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Deliveries discarded (drop faults + deliveries lost to a severed
    /// inbound link).
    pub dropped: u64,
    /// Deliveries given extra delay.
    pub delayed: u64,
    /// Deliveries duplicated.
    pub duplicated: u64,
    /// Timed operations refused with `LinkDown` or `HostCrashed`.
    pub refused: u64,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.deliveries.is_empty() && self.severs.is_empty() && self.crashes.is_empty()
    }

    /// A plan that drops the `nth` CQE delivery — the canonical "lost
    /// completion" fault.
    pub fn drop_nth_cqe(nth: u64) -> FaultPlan {
        FaultPlan {
            deliveries: vec![DeliveryFault {
                selector: Selector::Cqe,
                nth,
                action: FaultAction::Drop,
            }],
            ..FaultPlan::default()
        }
    }

    /// Expand `seed` into `n` delivery faults through a fixed xorshift64
    /// stream: same seed, same plan, forever.
    pub fn seeded(seed: u64, n: usize) -> FaultPlan {
        let mut s = seed ^ 0x9E37_79B9_7F4A_7C15; // xorshift must not start at 0
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut deliveries = Vec::with_capacity(n);
        for _ in 0..n {
            let selector = match next() % 4 {
                0 => Selector::Any,
                1 => Selector::Cqe,
                2 => Selector::DeviceToHost,
                _ => Selector::HostToDevice,
            };
            let action = match next() % 3 {
                0 => FaultAction::Drop,
                1 => FaultAction::Duplicate,
                _ => FaultAction::Delay(SimDuration::from_nanos(100 + next() % 10_000)),
            };
            deliveries.push(DeliveryFault {
                selector,
                nth: next() % 8,
                action,
            });
        }
        FaultPlan {
            deliveries,
            ..FaultPlan::default()
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
            match kind {
                "drop" | "dup" | "delay" => {
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
                    plan.deliveries.push(DeliveryFault {
                        selector,
                        nth,
                        action,
                    });
                }
                "sever" => {
                    let at: u64 = arg
                        .parse()
                        .map_err(|_| format!("bad sever time in {spec:?}"))?;
                    let ntb = parts
                        .next()
                        .and_then(|s| s.strip_prefix("ntb"))
                        .and_then(|s| s.parse::<u32>().ok())
                        .ok_or_else(|| format!("bad ntb in {spec:?}"))?;
                    let mode = match parts.next() {
                        None | Some("out") => SeverMode::Outbound,
                        Some("both") => SeverMode::Both,
                        Some(m) => return Err(format!("bad sever mode {m:?} in {spec:?}")),
                    };
                    plan.severs.push(SeverLink {
                        ntb: NtbId(ntb),
                        mode,
                        at: SimTime::from_nanos(at),
                    });
                }
                "crash" => {
                    let at = if let Some(n) = arg.strip_prefix('c') {
                        CrashTrigger::Choice(
                            n.parse()
                                .map_err(|_| format!("bad choice ordinal in {spec:?}"))?,
                        )
                    } else {
                        CrashTrigger::Time(SimTime::from_nanos(
                            arg.parse()
                                .map_err(|_| format!("bad crash time in {spec:?}"))?,
                        ))
                    };
                    let host = parts
                        .next()
                        .and_then(|s| s.strip_prefix("host"))
                        .and_then(|s| s.parse::<u16>().ok())
                        .ok_or_else(|| format!("bad host in {spec:?}"))?;
                    plan.crashes.push(CrashHost {
                        host: HostId(host),
                        at,
                    });
                }
                other => return Err(format!("unknown fault kind {other:?} in {spec:?}")),
            }
            if let Some(extra) = parts.next() {
                return Err(format!("trailing field {extra:?} in {spec:?}"));
            }
        }
        Ok(plan)
    }
}

fn parse_selector(s: &str) -> Result<Selector, String> {
    if let Some(h) = s.strip_prefix("to") {
        if let Ok(h) = h.parse::<u16>() {
            return Ok(Selector::ToHost(HostId(h)));
        }
    }
    if let Some(h) = s.strip_prefix("from") {
        if let Ok(h) = h.parse::<u16>() {
            return Ok(Selector::FromHost(HostId(h)));
        }
    }
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
        match self {
            Selector::Any => write!(f, "any"),
            Selector::Cqe => write!(f, "cqe"),
            Selector::DeviceToHost => write!(f, "d2h"),
            Selector::HostToDevice => write!(f, "h2d"),
            Selector::ToHost(h) => write!(f, "to{}", h.0),
            Selector::FromHost(h) => write!(f, "from{}", h.0),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f1:")?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            Ok(())
        };
        for d in &self.deliveries {
            sep(f)?;
            match d.action {
                FaultAction::Drop => write!(f, "drop@{}/{}", d.nth, d.selector)?,
                FaultAction::Duplicate => write!(f, "dup@{}/{}", d.nth, d.selector)?,
                FaultAction::Delay(extra) => {
                    write!(f, "delay@{}/{}/{}", d.nth, d.selector, extra.as_nanos())?
                }
            }
        }
        for s in &self.severs {
            sep(f)?;
            let mode = match s.mode {
                SeverMode::Outbound => "out",
                SeverMode::Both => "both",
            };
            write!(f, "sever@{}/ntb{}/{}", s.at.as_nanos(), s.ntb.0, mode)?;
        }
        for c in &self.crashes {
            sep(f)?;
            match c.at {
                CrashTrigger::Time(t) => write!(f, "crash@{}/host{}", t.as_nanos(), c.host.0)?,
                CrashTrigger::Choice(n) => write!(f, "crash@c{}/host{}", n, c.host.0)?,
            }
        }
        Ok(())
    }
}

/// Live injection state for one fabric: the installed plan plus match
/// counters, activated severs/crashes, and injection statistics. Owned by
/// `FabricInner` behind a `RefCell`; all methods are deterministic
/// functions of virtual time and issue order.
#[derive(Default)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Per-delivery-spec count of matching deliveries seen so far.
    matched: Vec<u64>,
    /// Per-delivery-spec "already injected" flag (each spec fires once).
    fired: Vec<bool>,
    sever_armed: Vec<bool>,
    crash_armed: Vec<bool>,
    /// Fabric `Delivery` choice points consulted so far.
    choice_count: u64,
    severed: Vec<(NtbId, SeverMode)>,
    crashed: Vec<HostId>,
    pub(crate) stats: FaultStats,
}

impl FaultInjector {
    pub(crate) fn install(&mut self, plan: FaultPlan) {
        self.matched = vec![0; plan.deliveries.len()];
        self.fired = vec![false; plan.deliveries.len()];
        self.sever_armed = vec![true; plan.severs.len()];
        self.crash_armed = vec![true; plan.crashes.len()];
        self.plan = plan;
        self.choice_count = 0;
        self.severed.clear();
        self.crashed.clear();
        self.stats = FaultStats::default();
    }

    /// Whether any fault could still fire (cheap fast-path guard).
    pub(crate) fn active(&self) -> bool {
        !self.plan.is_empty() || !self.severed.is_empty() || !self.crashed.is_empty()
    }

    /// Activate every time-triggered sever/crash whose instant has passed.
    pub(crate) fn refresh(&mut self, now: SimTime) {
        for (i, s) in self.plan.severs.iter().enumerate() {
            if self.sever_armed[i] && s.at <= now {
                self.sever_armed[i] = false;
                self.severed.push((s.ntb, s.mode));
            }
        }
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if self.crash_armed[i] {
                if let CrashTrigger::Time(t) = c.at {
                    if t <= now {
                        self.crash_armed[i] = false;
                        self.crashed.push(c.host);
                    }
                }
            }
        }
    }

    /// The fabric consulted one `Delivery` choice point; fire any crash
    /// armed on this ordinal.
    pub(crate) fn on_choice_point(&mut self) {
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if self.crash_armed[i] {
                if let CrashTrigger::Choice(n) = c.at {
                    if n == self.choice_count {
                        self.crash_armed[i] = false;
                        self.crashed.push(c.host);
                    }
                }
            }
        }
        self.choice_count += 1;
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
                Selector::ToHost(h) => to_dram_host == Some(h),
                Selector::FromHost(h) => src_host == Some(h),
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
                    selector: Selector::FromHost(HostId(2)),
                    nth: 0,
                    action: FaultAction::Delay(SimDuration::from_nanos(750)),
                },
                DeliveryFault {
                    selector: Selector::Any,
                    nth: 1,
                    action: FaultAction::Duplicate,
                },
            ],
            severs: vec![SeverLink {
                ntb: NtbId(1),
                mode: SeverMode::Both,
                at: SimTime::from_nanos(120_000),
            }],
            crashes: vec![
                CrashHost {
                    host: HostId(2),
                    at: CrashTrigger::Time(SimTime::from_nanos(50_000)),
                },
                CrashHost {
                    host: HostId(1),
                    at: CrashTrigger::Choice(12),
                },
            ],
        };
        let token = plan.to_string();
        assert_eq!(FaultPlan::parse(&token).unwrap(), plan);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::default();
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert!(plan.is_empty());
    }

    #[test]
    fn seeded_is_deterministic() {
        assert_eq!(FaultPlan::seeded(42, 4), FaultPlan::seeded(42, 4));
        assert_ne!(FaultPlan::seeded(42, 4), FaultPlan::seeded(43, 4));
        // Seeded plans also survive the token round trip.
        let p = FaultPlan::seeded(7, 3);
        assert_eq!(FaultPlan::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("x1:0.1").is_err());
        assert!(FaultPlan::parse("f1:drop@x/cqe").is_err());
        assert!(FaultPlan::parse("f1:explode@3/any").is_err());
        assert!(FaultPlan::parse("f1:drop@3/nowhere").is_err());
        assert!(FaultPlan::parse("f1:drop@3/cqe/extra").is_err());
    }
}
