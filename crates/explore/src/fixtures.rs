//! Seeded lifecycle-violation fixtures.
//!
//! Each fixture is a miniature buggy driver/device pair: two concurrent
//! tasks over a real fabric (so the run has genuine choice points) whose
//! lifecycle event stream deliberately breaks one clause of the NVMe queue
//! contract. The explorer must catch every one of them and hand back a
//! token that replays the identical violation — that is the lifecycle
//! FSM's regression suite, and the proof that a token pins down a schedule.

use std::future::Future;

use nvme::oracle::{self, Event};
use pcie::{Fabric, FabricParams, HostId};
use simcore::{ReplayScheduler, SimRuntime};

use crate::RunOutcome;

/// A fixture program: runs the buggy stack under the given schedule prefix.
pub type FixtureFn = fn(&[u32]) -> RunOutcome;

/// Fixture registry: (name, expected violation code, program).
pub const ALL: &[(&str, &str, FixtureFn)] = &[
    ("double-cqe", "nvme.lifecycle.double-completion", double_cqe),
    (
        "stale-phase-consume",
        "nvme.lifecycle.stale-phase-consume",
        stale_phase_consume,
    ),
    ("slot-reuse", "nvme.lifecycle.slot-reuse", slot_reuse),
    (
        "doorbell-regression",
        "nvme.lifecycle.doorbell-regression",
        doorbell_regression,
    ),
    (
        "missed-doorbell",
        "nvme.lifecycle.fetch-before-doorbell",
        missed_doorbell,
    ),
];

/// Look a fixture up by name.
pub fn by_name(name: &str) -> Option<(&'static str, FixtureFn)> {
    ALL.iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, code, f)| (*code, *f))
}

/// Shared bed: fresh armed runtime + two-host fabric, replay scheduler
/// installed, then `body` runs as the simulated buggy stack.
fn run_fixture<F, Fut>(prefix: &[u32], body: F) -> RunOutcome
where
    F: FnOnce(Fabric, HostId, HostId) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let _armed = simcore::sanitize::arm();
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let h0 = fabric.add_host(1 << 20);
    let h1 = fabric.add_host(1 << 20);
    let replay = ReplayScheduler::new(prefix.to_vec());
    let trace = replay.trace();
    rt.set_scheduler(replay);
    let f = fabric.clone();
    rt.block_on(async move { body(f, h0, h1).await });
    rt.clear_scheduler();
    let t = trace.borrow();
    RunOutcome {
        records: t.records.clone(),
        diverged: t.diverged,
        violations: rt.sanitize_take_violations(),
        trace_hash: rt.trace_hash(),
    }
}

/// Issue two concurrent posted writes to different hosts' DRAM so the run
/// contains real delivery traffic (and, when co-due, delivery choice
/// points) around the seeded protocol mistake.
async fn background_traffic(fabric: &Fabric, h0: HostId, h1: HostId) {
    let a = fabric.alloc(h0, 512).unwrap();
    let b = fabric.alloc(h1, 512).unwrap();
    let h = fabric.handle();
    let t0 = h.spawn({
        let f = fabric.clone();
        async move { f.cpu_write(h0, a.addr, &[0xA5; 64]).await.unwrap() }
    });
    let t1 = h.spawn({
        let f = fabric.clone();
        async move { f.cpu_write(h1, b.addr, &[0x5A; 64]).await.unwrap() }
    });
    t0.await;
    t1.await;
}

const Q: u16 = 1;
const ENTRIES: u16 = 8;

/// The controller posts two CQEs for one CID: the second completion is
/// the spec violation (e.g. a retried fetch executing twice).
fn double_cqe(prefix: &[u32]) -> RunOutcome {
    run_fixture(prefix, |fabric, h0, h1| async move {
        let emit = |ev| oracle::emit(&fabric, ev);
        emit(Event::SqeWritten {
            qid: Q,
            cid: 7,
            slot: 0,
            entries: ENTRIES,
        });
        emit(Event::SqDoorbell {
            qid: Q,
            tail: 1,
            entries: ENTRIES,
        });
        background_traffic(&fabric, h0, h1).await;
        emit(Event::CmdFetched {
            qid: Q,
            cid: 7,
            slot: 0,
        });
        emit(Event::CqePosted {
            qid: Q,
            cid: 7,
            slot: 0,
            phase: true,
            entries: ENTRIES,
        });
        emit(Event::CqePosted {
            qid: Q,
            cid: 7,
            slot: 1,
            phase: true,
            entries: ENTRIES,
        });
    })
}

/// The host consumes a CQE slot whose phase tag still carries the *old*
/// epoch — the entry it "completed" was never posted.
fn stale_phase_consume(prefix: &[u32]) -> RunOutcome {
    run_fixture(prefix, |fabric, h0, h1| async move {
        let emit = |ev| oracle::emit(&fabric, ev);
        emit(Event::SqeWritten {
            qid: Q,
            cid: 3,
            slot: 0,
            entries: ENTRIES,
        });
        emit(Event::SqDoorbell {
            qid: Q,
            tail: 1,
            entries: ENTRIES,
        });
        background_traffic(&fabric, h0, h1).await;
        emit(Event::CmdFetched {
            qid: Q,
            cid: 3,
            slot: 0,
        });
        // No CqePosted: the consumption below acts on a stale entry.
        emit(Event::CqeConsumed {
            qid: Q,
            cid: 3,
            slot: 0,
            phase: false,
            entries: ENTRIES,
        });
    })
}

/// The host overwrites an SQ slot whose previous occupant the controller
/// has not fetched yet.
fn slot_reuse(prefix: &[u32]) -> RunOutcome {
    run_fixture(prefix, |fabric, h0, h1| async move {
        let emit = |ev| oracle::emit(&fabric, ev);
        emit(Event::SqeWritten {
            qid: Q,
            cid: 1,
            slot: 0,
            entries: ENTRIES,
        });
        background_traffic(&fabric, h0, h1).await;
        // Slot 0 is still owned by cid 1 (never fetched) when cid 2 lands
        // in it.
        emit(Event::SqeWritten {
            qid: Q,
            cid: 2,
            slot: 0,
            entries: ENTRIES,
        });
    })
}

/// The host's tail doorbell moves backwards (or laps the ring): the write
/// exposes more slots than were ever written.
fn doorbell_regression(prefix: &[u32]) -> RunOutcome {
    run_fixture(prefix, |fabric, h0, h1| async move {
        let emit = |ev| oracle::emit(&fabric, ev);
        emit(Event::SqeWritten {
            qid: Q,
            cid: 9,
            slot: 0,
            entries: ENTRIES,
        });
        emit(Event::SqDoorbell {
            qid: Q,
            tail: 1,
            entries: ENTRIES,
        });
        background_traffic(&fabric, h0, h1).await;
        emit(Event::SqDoorbell {
            qid: Q,
            tail: 0,
            entries: ENTRIES,
        });
    })
}

/// The submission path writes the SQE but a pause check returns before
/// the tail doorbell moves — the statically-flagged missed-doorbell
/// shape (D22). The device's fetch then acts on a slot the doorbell
/// never exposed, which is how the lost command manifests dynamically.
fn missed_doorbell(prefix: &[u32]) -> RunOutcome {
    run_fixture(prefix, |fabric, h0, h1| async move {
        let emit = |ev| oracle::emit(&fabric, ev);
        let paused = true;
        // Seeded missed doorbell: the hypothesis is exported anyway and
        // the explorer confirms it dynamically.
        // lint:allow(D22)
        emit(Event::SqeWritten {
            qid: Q,
            cid: 5,
            slot: 0,
            entries: ENTRIES,
        });
        background_traffic(&fabric, h0, h1).await;
        // The controller polls the ring and fetches the entry even
        // though the doorbell never advertised it.
        emit(Event::CmdFetched {
            qid: Q,
            cid: 5,
            slot: 0,
        });
        if paused {
            return;
        }
        emit(Event::SqDoorbell {
            qid: Q,
            tail: 1,
            entries: ENTRIES,
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_trips_its_code() {
        for (name, code, f) in ALL {
            let out = f(&[]);
            assert!(
                out.violations.iter().any(|v| v.code == *code),
                "{name}: wanted {code}, got {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn fixtures_are_deterministic() {
        for (name, _, f) in ALL {
            let a = f(&[]);
            let b = f(&[]);
            assert_eq!(a.trace_hash, b.trace_hash, "{name}");
            assert_eq!(a.violations, b.violations, "{name}");
        }
    }

    #[test]
    fn by_name_resolves() {
        assert!(by_name("double-cqe").is_some());
        assert!(by_name("nope").is_none());
    }
}
