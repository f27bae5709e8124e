//! Schedule-space exploration over the full stack.
//!
//! Exhaustively explores a small two-client scenario (zero lifecycle
//! violations expected, partial-order pruning must kill at least half of
//! the naive schedule space), runs bounded exploration over all five
//! scenario kinds, and proves each seeded-violation fixture — and a race
//! only the happens-before detector can see — is caught with a token that
//! replays the identical failing run.

use cluster::ScenarioKind;
use explore::{explore, fixtures, ExploreConfig, RunOutcome, ScenarioProgram, ScheduleToken};
use pcie::{DomainAddr, Fabric, FabricParams};
use simcore::{ReplayScheduler, SimDuration, SimRuntime};

fn two_client_program() -> ScenarioProgram {
    ScenarioProgram::small(ScenarioKind::OursMultihost { clients: 2 })
}

/// A search's tallies in the order `dnvme-explore` prints them: schedules,
/// choice points, branches queued, pruned, preemption-bounded. The
/// two-client numbers are pinned exactly below: any change to what is
/// runnable when — one poll more or fewer, a timer registered in another
/// order — moves them, and must arrive as an edit to this file rather than
/// as a line in a CI log nobody compares.
fn tallies(stats: &explore::ExploreStats) -> [usize; 5] {
    [
        stats.schedules_run,
        stats.choice_points,
        stats.branches_enqueued,
        stats.branches_pruned,
        stats.preemption_bounded,
    ]
}

#[test]
fn exhaustive_two_client_is_conformant() {
    let prog = two_client_program();
    // Posted writes and MSIs come due on timers, not ticker tasks, so
    // every `Task` choice point is between tasks that do something and a
    // preemption bound of 3 drains in a few dozen schedules.
    let cfg = ExploreConfig {
        max_schedules: None,
        max_preemptions: 3,
        prune: true,
        stop_on_violation: true,
    };
    let res = explore(&|p: &[u32]| prog.run(p), &cfg);
    assert!(
        res.failure.is_none(),
        "two-client exploration found: {:?}",
        res.failure
    );
    assert!(res.stats.exhausted, "frontier must drain: {:?}", res.stats);
    assert!(
        res.stats.schedules_run >= 10,
        "expected a nontrivial schedule space, ran {}",
        res.stats.schedules_run
    );
    assert_eq!(tallies(&res.stats), [42, 378, 41, 78, 15]);
    assert!(
        res.stats.branches_pruned > 0,
        "independent cross-client deliveries must commute: {:?}",
        res.stats
    );
    // Cross-path delivery order is the choice the pump exists to expose:
    // the canonical schedule keeps all three of its `Delivery` points (the
    // two clients' data, SQE and doorbell writes coming due together).
    let canonical = prog.run(&[]);
    let deliveries = canonical
        .records
        .iter()
        .filter(|r| r.kind == simcore::ChoiceKind::Delivery && r.footprints.len() >= 2)
        .count();
    assert_eq!(deliveries, 3, "canonical schedule: {:?}", canonical.records);
}

#[test]
fn exhaustive_two_client_with_cqe_drop_is_conformant() {
    // Fault-bearing model check: the same two-client space, but with the
    // first CQE after bring-up dropped on every explored schedule. The
    // recovery ladder (timeout → resubmit under a fresh cid → step over
    // the lost slot) runs under every delivery ordering, and the armed
    // checker must stay silent on all of them — recovery may not
    // double-complete, reuse a live cid, or skip a slot nothing was
    // posted to, on any schedule.
    let mut prog = two_client_program();
    prog.fault = Some(pcie::FaultPlan::drop_nth_cqe(0));
    let cfg = ExploreConfig {
        max_schedules: None,
        max_preemptions: 1,
        prune: true,
        stop_on_violation: true,
    };
    let res = explore(&|p: &[u32]| prog.run(p), &cfg);
    assert!(
        res.failure.is_none(),
        "faulty two-client exploration found: {:?}",
        res.failure
    );
    assert!(res.stats.exhausted, "frontier must drain: {:?}", res.stats);
    assert!(
        res.stats.schedules_run >= 2,
        "recovery must open schedule alternatives, ran {}",
        res.stats.schedules_run
    );
    assert_eq!(tallies(&res.stats), [8, 80, 7, 18, 21]);
}

#[test]
fn exhaustive_two_client_two_reactors_is_conformant() {
    // The sharded datapath: clients pinned to distinct reactors. Reactor
    // interleavings become ReactorPick choice points, the schedule space
    // grows accordingly, and the armed checker must stay silent on all
    // of it. Tokens replay across the bigger space exactly as before.
    let mut prog = two_client_program();
    prog.reactors = 2;
    let cfg = ExploreConfig {
        max_schedules: None,
        max_preemptions: 1,
        prune: true,
        stop_on_violation: true,
    };
    let res = explore(&|p: &[u32]| prog.run(p), &cfg);
    assert!(
        res.failure.is_none(),
        "two-reactor exploration found: {:?}",
        res.failure
    );
    assert!(res.stats.exhausted, "frontier must drain: {:?}", res.stats);
    assert_eq!(tallies(&res.stats), [7, 63, 6, 18, 15]);
    // The canonical schedule must actually exercise ReactorPick points and
    // replay bit-identically.
    let canonical = prog.run(&[]);
    assert!(
        canonical
            .records
            .iter()
            .any(|r| r.kind == simcore::ChoiceKind::ReactorPick),
        "two pinned clients must produce ReactorPick choice points"
    );
    assert_eq!(canonical.trace_hash, prog.run(&[]).trace_hash);
    // A non-canonical reactor pick is a genuinely different schedule.
    let flipped: Vec<u32> = vec![1];
    let alt = prog.run(&flipped);
    assert!(!alt.diverged);
    assert_ne!(alt.trace_hash, canonical.trace_hash);
}

#[test]
fn pruning_halves_the_naive_schedule_space() {
    let prog = two_client_program();
    let pruned_cfg = ExploreConfig {
        max_schedules: None,
        max_preemptions: 1,
        prune: true,
        stop_on_violation: true,
    };
    let naive_cfg = ExploreConfig {
        prune: false,
        ..pruned_cfg.clone()
    };
    let pruned = explore(&|p: &[u32]| prog.run(p), &pruned_cfg);
    let naive = explore(&|p: &[u32]| prog.run(p), &naive_cfg);
    assert!(pruned.stats.exhausted && naive.stats.exhausted);
    assert!(pruned.failure.is_none() && naive.failure.is_none());
    assert!(
        pruned.stats.schedules_run * 2 <= naive.stats.schedules_run,
        "POR must prune at least half of the naive DFS: pruned ran {}, naive ran {}",
        pruned.stats.schedules_run,
        naive.stats.schedules_run
    );
}

#[test]
fn bounded_exploration_all_scenario_kinds() {
    for prog in ScenarioProgram::all_kinds() {
        let label = prog.kind.label();
        let res = explore(&|p: &[u32]| prog.run(p), &ExploreConfig::bounded(64));
        assert!(
            res.failure.is_none(),
            "{label}: bounded exploration found {:?}",
            res.failure
        );
        assert!(res.stats.schedules_run >= 1, "{label}");
    }
}

#[test]
fn replayed_schedules_are_deterministic() {
    let prog = two_client_program();
    let canonical_a = prog.run(&[]);
    let canonical_b = prog.run(&[]);
    assert_eq!(
        canonical_a.trace_hash, canonical_b.trace_hash,
        "the canonical schedule must replay bit-identically"
    );
    assert!(!canonical_a.records.is_empty());
    // A non-canonical pick at the first choice point is an actually
    // different schedule (choice points only exist when at least two
    // continuations are runnable), and replays deterministically too.
    let alt_a = prog.run(&[1]);
    let alt_b = prog.run(&[1]);
    assert!(!alt_a.diverged);
    assert_eq!(alt_a.trace_hash, alt_b.trace_hash);
    assert_ne!(alt_a.trace_hash, canonical_a.trace_hash);
    assert!(alt_a.violations.is_empty() && canonical_a.violations.is_empty());
}

#[test]
fn seeded_fixtures_are_caught_and_tokens_replay() {
    for (name, code, f) in fixtures::ALL {
        let res = explore(&|p: &[u32]| f(p), &ExploreConfig::bounded(32));
        let failure = res
            .failure
            .unwrap_or_else(|| panic!("{name}: exploration missed the seeded violation"));
        assert!(
            failure.violations.iter().any(|v| v.code == *code),
            "{name}: wanted {code}, got {:?}",
            failure.violations
        );
        // The token string round-trips and replays the identical run:
        // same schedule (trace hash) and the same violation set.
        let token = ScheduleToken::parse(&failure.token.to_string())
            .unwrap_or_else(|e| panic!("{name}: bad token: {e}"));
        let replayed = f(&token.prefix);
        assert!(!replayed.diverged, "{name}: token no longer fits");
        assert_eq!(replayed.trace_hash, failure.trace_hash, "{name}");
        assert_eq!(replayed.violations, failure.violations, "{name}");
    }
}

/// A program with no NVMe in it: two hosts joined through NTBs and a
/// switch chip; host A stores through its window into host B's DRAM while
/// B reads the same bytes locally, and nothing orders the two.
fn unsynchronised_ntb_pair(prefix: &[u32]) -> RunOutcome {
    let _armed = simcore::sanitize::arm();
    let rt = SimRuntime::new();
    let fabric = Fabric::new(rt.handle(), FabricParams::default());
    let sw = fabric.add_switch("sw");
    let [(a, ntb_a), (b, _)] = [(); 2].map(|()| {
        let h = fabric.add_host(64 << 20);
        let ntb = fabric.add_ntb(h, 2 << 20, 16);
        fabric.link(fabric.ntb_node(ntb), sw);
        (h, ntb)
    });
    let target = fabric.alloc(b, 4096).unwrap();
    let slot = fabric.find_free_lut_slot(ntb_a).unwrap();
    let win = fabric
        .program_lut(ntb_a, slot, DomainAddr::new(b, target.addr))
        .unwrap();
    let replay = ReplayScheduler::new(prefix.to_vec());
    let trace = replay.trace();
    rt.set_scheduler(replay);
    let h = rt.handle();
    rt.block_on(async move {
        let writer = h.spawn({
            let f = fabric.clone();
            async move { f.cpu_write(a, win, &[0xAB; 64]).await.unwrap() }
        });
        let reader = h.spawn(async move {
            let mut buf = [0u8; 64];
            fabric.cpu_read(b, target.addr, &mut buf).await.unwrap();
        });
        writer.await;
        reader.await;
        h.sleep(SimDuration::from_micros(10)).await; // the store lands
    });
    rt.clear_scheduler();
    let t = trace.borrow();
    RunOutcome {
        records: t.records.clone(),
        diverged: t.diverged,
        violations: rt.sanitize_take_violations(),
        trace_hash: rt.trace_hash(),
    }
}

#[test]
fn a_race_only_the_hb_detector_sees_is_caught_and_its_token_replays() {
    // No command lifecycle is broken here — there are no commands. What
    // the explorer hands back is the race detector's verdict, from the
    // same log and under the same token discipline as the fixtures'.
    let res = explore(
        &|p: &[u32]| unsynchronised_ntb_pair(p),
        &ExploreConfig::bounded(16),
    );
    let failure = res.failure.expect("the unordered pair must be reported");
    assert!(
        failure
            .violations
            .iter()
            .all(|v| matches!(v.code, "pcie.read-races-posted-write" | "pcie.hb-race")),
        "{:?}",
        failure.violations
    );
    let token = ScheduleToken::parse(&failure.token.to_string()).unwrap();
    let replayed = unsynchronised_ntb_pair(&token.prefix);
    assert!(!replayed.diverged);
    assert_eq!(replayed.trace_hash, failure.trace_hash);
    assert_eq!(replayed.violations, failure.violations);
}
