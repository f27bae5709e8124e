//! The fabric's access table: the vector-clock happens-before race
//! detector and the in-flight posted-write tracker in one structure
//! (populated only on a runtime armed with `simcore::sanitize::arm`).
//!
//! Every host CPU and every device DMA engine is a happens-before *actor*
//! with a vector clock held here, beside the accesses it stamps. The fabric
//! records each **timed** access (posted `cpu_write`/`dma_write`, non-posted
//! `cpu_read`/`dma_read`, and CQ consumes) here, stamped with the issuing
//! actor's clock. Two accesses to overlapping bytes from different actors,
//! at least one of them a write, must be ordered by a happens-before edge
//! or the run is racy — `pcie.hb-race` is reported with both sites.
//!
//! A posted write is *in flight* from issue until its data applies at the
//! destination one propagation delay later — a write record with
//! `applied == false`. A non-posted read that samples an overlapping range
//! during that window observes stale data: the through-NTB race the
//! paper's queue placement (CQs CPU-side, SQs device-side) is designed to
//! make impossible. [`HbLog::in_flight`] answers that question for
//! `pcie.read-races-posted-write`, `nvme.doorbell-before-sqe` and
//! `nvme.cq-overwrite`.
//!
//! Edges come only from the synchronization the paper's protocol actually
//! provides:
//!
//! * **Doorbell MMIO** — when a posted write applies to a device BAR, the
//!   device joins the writer's clock *as of the write's issue* (posted
//!   writes on one path apply in order, so everything the writer stored
//!   before ringing has landed by the time the bell does).
//! * **CQE phase observation** — consuming a completion-queue entry
//!   ([`Fabric::sanitize_consume`]) joins the clocks of the applied writes
//!   that produced it, ordering the consumer after everything the
//!   controller did before posting.
//! * **Fabric barriers** — explicit completion-delivery edges
//!   ([`Fabric::sanitize_barrier_to_host`] /
//!   [`Fabric::sanitize_barrier_to_device`]) for engines such as RDMA NICs
//!   whose work/completion queues live outside fabric memory.
//!
//! CPU reads additionally treat *applied* overlapping writes as observed
//! (the simulator's memory returns exactly the writes applied so far), so
//! raw `cpu_write`-then-settle-then-`cpu_read` usage stays silent. Device
//! DMA reads get no such grace: a command fetch is ordered only by the
//! doorbell edge, so an SQE stored *after* the doorbell races the fetch no
//! matter how the latencies land.
//!
//! [`Fabric::sanitize_consume`]: crate::fabric::Fabric::sanitize_consume
//! [`Fabric::sanitize_barrier_to_host`]: crate::fabric::Fabric::sanitize_barrier_to_host
//! [`Fabric::sanitize_barrier_to_device`]: crate::fabric::Fabric::sanitize_barrier_to_device

use simcore::Handle;

use crate::addr::{DeviceId, HostId};
use crate::fabric::Location;

/// The address space a resolved location lives in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Space {
    Dram(HostId),
    Bar(DeviceId, u8),
}

fn key(loc: &Location) -> (Space, u64) {
    match loc {
        Location::Dram(da) => (Space::Dram(da.host), da.addr.as_u64()),
        Location::Bar { dev, bar, offset } => (Space::Bar(*dev, *bar), *offset),
    }
}

/// The fabric agent performing an access.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Agent {
    Host(HostId),
    Device(DeviceId),
}

/// One independently-scheduled agent whose accesses the detector orders.
struct Actor {
    name: String,
    /// `clock[b]` = the latest event of actor `b` this actor has
    /// (transitively) observed; its own component counts its events.
    clock: Vec<u64>,
}

/// Acquire half of a synchronization edge: merge an observed clock into
/// `clock` (elementwise max).
fn join(clock: &mut Vec<u64>, observed: &[u64]) {
    if clock.len() < observed.len() {
        clock.resize(observed.len(), 0);
    }
    for (own, seen) in clock.iter_mut().zip(observed) {
        *own = (*own).max(*seen);
    }
}

/// One recorded access, stamped with the actor's clock at issue.
struct Access {
    token: u64,
    /// Index of the issuing actor in [`HbLog::actors`].
    actor: usize,
    clock: Vec<u64>,
    space: Space,
    start: u64,
    len: u64,
    write: bool,
    /// Posted writes are in flight from issue until delivery; reads and
    /// consumes are recorded at their apply instant.
    applied: bool,
    /// Out of the happens-before graph — superseded by a newer write of
    /// the same actor to the same start, or its range was freed — but
    /// still on the wire: only [`HbLog::in_flight`] sees it, and delivery
    /// drops it.
    retired: bool,
    kind: &'static str,
    at_nanos: u64,
}

impl Access {
    fn overlaps(&self, space: Space, start: u64, len: u64) -> bool {
        self.space == space && self.start < start + len && start < self.start + self.len
    }

    /// Take the record out of the happens-before graph; returns whether it
    /// must stay in the table (a posted write still in flight).
    fn retire(&mut self) -> bool {
        self.retired = true;
        self.write && !self.applied
    }

    /// Whether this access happens-before an event whose observer clock
    /// is `later`: the observer must have seen at least the issuing
    /// actor's own component.
    fn happens_before(&self, later: &[u64]) -> bool {
        let own = self.clock.get(self.actor).copied().unwrap_or(0);
        later.get(self.actor).copied().unwrap_or(0) >= own
    }

    fn describe(&self, actors: &[Actor]) -> String {
        format!(
            "{} by {} to {:?}+{:#x}..{:#x} (issued t={}ns{})",
            self.kind,
            actors[self.actor].name,
            self.space,
            self.start,
            self.start + self.len,
            self.at_nanos,
            if self.applied { "" } else { ", in flight" },
        )
    }
}

/// Per-fabric happens-before state: the actors' clocks plus the access
/// log. Superseded accesses (same actor, same range, same direction) are
/// replaced in place — a superseded write still in flight lingers, retired,
/// until it is delivered — so the log stays bounded by ring geometry plus
/// the writes on the wire rather than growing with simulated I/O count.
#[derive(Default)]
pub(crate) struct HbLog {
    actors: Vec<Actor>,
    host_actors: Vec<usize>,
    dev_actors: Vec<usize>,
    accesses: Vec<Access>,
    next_token: u64,
}

impl HbLog {
    fn register(&mut self, name: String) -> usize {
        self.actors.push(Actor {
            name,
            clock: Vec::new(),
        });
        self.actors.len() - 1
    }

    pub(crate) fn register_host(&mut self) {
        let actor = self.register(format!("host{}", self.host_actors.len()));
        self.host_actors.push(actor);
    }

    pub(crate) fn register_device(&mut self) {
        let actor = self.register(format!("dev{}", self.dev_actors.len()));
        self.dev_actors.push(actor);
    }

    fn actor_of(&self, agent: Agent) -> usize {
        match agent {
            Agent::Host(h) => self.host_actors[h.0 as usize],
            Agent::Device(d) => self.dev_actors[d.0 as usize],
        }
    }

    /// An explicit edge: `to` observes everything `from` has done.
    pub(crate) fn barrier(&mut self, from: Agent, to: Agent) {
        let observed = self.actors[self.actor_of(from)].clock.clone();
        let to = self.actor_of(to);
        join(&mut self.actors[to].clock, &observed);
    }

    /// Number of records currently held (diagnostic; 0 on an unarmed
    /// runtime).
    pub(crate) fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Record one access, race-checking it against every overlapping
    /// foreign access not ordered before it (`pcie.hb-race`, both sites
    /// named), and return its token.
    ///
    /// A posted write (`write`) is recorded at issue, in flight; its token
    /// goes to [`HbLog::write_applied`] at delivery, or [`HbLog::untrack`]
    /// if the write is lost. A non-posted read or CQ consume is recorded
    /// at its apply instant; a host CPU first joins the applied
    /// overlapping writes — the observation edge — while a device DMA read
    /// gets no such grace.
    pub(crate) fn record(
        &mut self,
        handle: &Handle,
        agent: Agent,
        loc: &Location,
        len: u64,
        kind: &'static str,
        write: bool,
    ) -> u64 {
        let actor = self.actor_of(agent);
        let (space, start) = key(loc);
        let n_actors = self.actors.len();
        let own = &mut self.actors[actor].clock;
        if !write && matches!(agent, Agent::Host(_)) {
            for a in &self.accesses {
                if a.write && a.applied && a.actor != actor && a.overlaps(space, start, len) {
                    join(own, &a.clock);
                }
            }
        }
        // The event's timestamp: the clock with its own component advanced.
        own.resize(n_actors.max(own.len()), 0);
        own[actor] += 1;
        let clock = own.clone();
        for a in &self.accesses {
            if a.retired
                || a.actor == actor
                || !(a.write || write)
                || !a.overlaps(space, start, len)
                || a.happens_before(&clock)
            {
                continue;
            }
            handle.sanitize_report(
                "pcie.hb-race",
                format!(
                    "{} by {} to {:?}+{:#x}..{:#x} is unordered against {}",
                    kind,
                    self.actors[actor].name,
                    space,
                    start,
                    start + len,
                    a.describe(&self.actors),
                ),
            );
        }
        // Supersede the actor's previous access of this direction here.
        self.accesses.retain_mut(|a| {
            !(a.actor == actor && a.write == write && a.space == space && a.start == start)
                || a.retire()
        });
        let token = self.next_token;
        self.next_token += 1;
        self.accesses.push(Access {
            token,
            actor,
            clock,
            space,
            start,
            len,
            write,
            applied: !write,
            retired: false,
            kind,
            at_nanos: handle.now().as_nanos(),
        });
        token
    }

    /// Sever the happens-before history of a freed DRAM range: the
    /// allocator handoff orders the dead object's accesses before any
    /// access to the range's next tenant (TSan-style shadow reset on
    /// free). Writes still on the wire stay visible to
    /// [`HbLog::in_flight`] — freeing does not stop them landing.
    pub(crate) fn purge_dram(&mut self, host: HostId, start: u64, len: u64) {
        let space = Space::Dram(host);
        self.accesses
            .retain_mut(|a| !a.overlaps(space, start, len) || a.retire());
    }

    /// A posted write has been delivered: flip it to applied and, for MMIO
    /// targets, hand the writer's issue-time clock to the device (the
    /// doorbell edge — posted writes on one path apply in order, so
    /// everything stored before the bell rang has landed when it does).
    /// Idempotent, so a duplicated TLP may share its original's token.
    pub(crate) fn write_applied(&mut self, token: u64) {
        let Some(i) = self.accesses.iter().position(|a| a.token == token) else {
            return;
        };
        let a = &mut self.accesses[i];
        a.applied = true;
        if let Space::Bar(dev, _) = a.space {
            let device = self.dev_actors[dev.0 as usize];
            join(&mut self.actors[device].clock, &a.clock);
        }
        if a.retired {
            self.accesses.remove(i);
        }
    }

    /// Forget a posted write that was lost in flight: it never lands, so
    /// nothing may observe it and nothing can race it.
    pub(crate) fn untrack(&mut self, token: u64) {
        self.accesses.retain(|a| a.token != token);
    }

    /// Descriptions of the in-flight posted writes overlapping `len`
    /// bytes at `loc`, in issue order.
    pub(crate) fn in_flight(&self, loc: &Location, len: u64) -> impl Iterator<Item = String> + '_ {
        let (space, start) = key(loc);
        self.accesses
            .iter()
            .filter(move |a| a.write && !a.applied && a.overlaps(space, start, len))
            .map(|a| {
                format!(
                    "{} {:?}+{:#x}..{:#x}",
                    a.kind.to_ascii_lowercase(),
                    a.space,
                    a.start,
                    a.start + a.len
                )
            })
    }
}
