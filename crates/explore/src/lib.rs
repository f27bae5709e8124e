//! # dnvme-explore — schedule-space model checking for the simulator
//!
//! The simulator is deterministic: one seed, one schedule. That hides
//! schedule-dependent protocol bugs (a CQE applied before the SQE data it
//! answers, a doorbell racing a fetch). This crate turns the executor's
//! scheduler hook into a bounded stateless model checker:
//!
//! 1. A *program* builds the whole world from scratch and runs a workload
//!    under a [`simcore::ReplayScheduler`] primed with a choice prefix.
//! 2. The [`explore`] driver runs the canonical schedule (empty prefix),
//!    reads the recorded choice points, and enqueues one new prefix per
//!    untried alternative — depth-first, so failing schedules surface with
//!    short prefixes.
//! 3. Every run is built under [`simcore::sanitize::arm`], so the one
//!    run-time checker judges it: the happens-before race detector, the
//!    doorbell/CQ/bounce protocol checks and the command-lifecycle FSM
//!    ([`nvme::oracle`]). Any violation stops the search and yields a
//!    [`ScheduleToken`] that replays the exact failing schedule.
//!
//! Two bounds keep the search tractable: a *preemption bound* (at most N
//! non-canonical task picks per schedule, the classic CHESS bound) and
//! *partial-order pruning* — a delivery alternative whose write footprint
//! is disjoint from every option ordered before it commutes with all of
//! them, so the reordered schedule is equivalent to one already explored
//! and is skipped, not run.

pub mod fixtures;

use std::fmt;
use std::rc::Rc;

use blklayer::{Bio, BlockDevice};
use cluster::{Calibration, Scenario, ScenarioKind};
use pcie::{Fabric, FaultPlan, HostId};
use simcore::sched::{ChoiceKind, ChoiceRecord};
use simcore::{ReactorId, ReplayScheduler, Violation};

/// Everything observed while re-executing a program under one prefix.
pub struct RunOutcome {
    /// Every choice point the run resolved, in order.
    pub records: Vec<ChoiceRecord>,
    /// The prescribed prefix did not fit the choice points actually
    /// encountered (stale token, or a non-deterministic program).
    pub diverged: bool,
    /// Everything the armed checker logged during the run.
    pub violations: Vec<Violation>,
    /// The executor's poll-trace hash — two runs with the same hash took
    /// the same schedule.
    pub trace_hash: u64,
}

/// A program the explorer can re-execute from scratch under any prefix.
/// Each call must build a fresh world (runtime, fabric, devices): stateless
/// model checking replays by re-running, not by snapshotting.
pub type Program<'a> = dyn Fn(&[u32]) -> RunOutcome + 'a;

/// Search bounds.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Stop after this many schedules (`None`: run until the frontier
    /// drains — exhaustive within the preemption bound).
    pub max_schedules: Option<usize>,
    /// Maximum non-canonical `Task` picks per schedule (CHESS-style
    /// preemption bounding). Delivery reorderings are not preemptions and
    /// are never bounded by this.
    pub max_preemptions: usize,
    /// Partial-order pruning of commuting delivery alternatives.
    pub prune: bool,
    /// Stop the search at the first violating schedule.
    pub stop_on_violation: bool,
}

impl ExploreConfig {
    /// Exhaust every delivery ordering (no schedule cap); task preemptions
    /// stay bounded so the space is finite and small.
    pub fn exhaustive() -> Self {
        ExploreConfig {
            max_schedules: None,
            max_preemptions: 0,
            prune: true,
            stop_on_violation: true,
        }
    }

    /// Bounded smoke exploration: at most `n` schedules, one preemption.
    pub fn bounded(n: usize) -> Self {
        ExploreConfig {
            max_schedules: Some(n),
            max_preemptions: 1,
            prune: true,
            stop_on_violation: true,
        }
    }
}

/// Counters describing one search.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Schedules actually executed.
    pub schedules_run: usize,
    /// Alternatives queued for execution.
    pub branches_enqueued: usize,
    /// Delivery alternatives skipped because they commute with every
    /// option ordered before them (partial-order pruning). Each skipped
    /// branch is a schedule a naive DFS would have run.
    pub branches_pruned: usize,
    /// Task alternatives skipped by the preemption bound.
    pub preemption_bounded: usize,
    /// Total choice points observed across all runs.
    pub choice_points: usize,
    /// The frontier drained: every schedule within the bounds was either
    /// run or pruned as equivalent to one that ran.
    pub exhausted: bool,
}

/// A violating schedule, replayable via its token.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Token replaying the failing schedule (`--replay` accepts it).
    pub token: ScheduleToken,
    /// The violations that schedule produced.
    pub violations: Vec<Violation>,
    /// Poll-trace hash of the failing run, for replay verification.
    pub trace_hash: u64,
}

/// The outcome of a search.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    pub stats: ExploreStats,
    /// First violating schedule found, if any.
    pub failure: Option<Failure>,
}

/// A replayable schedule identifier: the choice prefix, encoded
/// `x1:<c0>.<c1>...` (`x1:` alone is the canonical schedule).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleToken {
    pub prefix: Vec<u32>,
}

impl ScheduleToken {
    pub fn new(prefix: Vec<u32>) -> Self {
        ScheduleToken { prefix }
    }

    /// Parse `x1:0.3.2` back into a prefix.
    pub fn parse(s: &str) -> Result<ScheduleToken, String> {
        let body = s
            .strip_prefix("x1:")
            .ok_or_else(|| format!("schedule token must start with 'x1:', got {s:?}"))?;
        if body.is_empty() {
            return Ok(ScheduleToken { prefix: Vec::new() });
        }
        let mut prefix = Vec::new();
        for part in body.split('.') {
            prefix.push(
                part.parse::<u32>()
                    .map_err(|e| format!("bad token element {part:?}: {e}"))?,
            );
        }
        Ok(ScheduleToken { prefix })
    }
}

impl fmt::Display for ScheduleToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x1:")?;
        for (i, c) in self.prefix.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Whether delivery alternative `alt` commutes with every option ordered
/// before it: footprints known and pairwise disjoint. Reordering such an
/// option first yields a schedule equivalent to one where it runs in
/// canonical position, so the branch is pruned.
fn commutes_with_earlier(rec: &ChoiceRecord, alt: usize) -> bool {
    let Some(Some(f)) = rec.footprints.get(alt) else {
        return false;
    };
    rec.footprints[..alt].iter().all(|g| match g {
        Some(g) => !f.overlaps(g),
        None => false,
    })
}

/// Depth-first bounded exploration of `program`'s schedule space.
pub fn explore(program: &Program<'_>, config: &ExploreConfig) -> ExploreResult {
    let mut stats = ExploreStats {
        exhausted: true,
        ..ExploreStats::default()
    };
    let mut failure: Option<Failure> = None;
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if let Some(max) = config.max_schedules {
            if stats.schedules_run >= max {
                stats.exhausted = false;
                break;
            }
        }
        let outcome = program(&prefix);
        stats.schedules_run += 1;
        stats.choice_points += outcome.records.len();
        if !outcome.violations.is_empty() && failure.is_none() {
            failure = Some(Failure {
                token: ScheduleToken::new(prefix.clone()),
                violations: outcome.violations.clone(),
                trace_hash: outcome.trace_hash,
            });
            if config.stop_on_violation {
                stats.exhausted = false;
                break;
            }
        }
        if outcome.diverged {
            // The prefix no longer matches the program's choice points;
            // its subtree is meaningless.
            continue;
        }
        // Branch at every choice point at or past the prefix. Points
        // before the prefix were already branched by an ancestor run.
        for (j, rec) in outcome.records.iter().enumerate().skip(prefix.len()) {
            for alt in 1..rec.options() {
                match rec.kind {
                    // Reactor picks are scheduling preemptions just like
                    // task picks: a non-canonical choice switches which run
                    // loop advances, so both share the CHESS bound.
                    ChoiceKind::Task | ChoiceKind::ReactorPick => {
                        // Count the preemptions the extended prefix carries:
                        // every non-canonical pick at a Task/ReactorPick
                        // point, plus this one.
                        let mut preemptions = 1usize;
                        for (k, r) in outcome.records[..j].iter().enumerate() {
                            let picked = prefix.get(k).copied().unwrap_or(0);
                            if matches!(r.kind, ChoiceKind::Task | ChoiceKind::ReactorPick)
                                && picked != 0
                            {
                                preemptions += 1;
                            }
                        }
                        if preemptions > config.max_preemptions {
                            stats.preemption_bounded += 1;
                            continue;
                        }
                    }
                    ChoiceKind::Delivery => {
                        if config.prune && commutes_with_earlier(rec, alt) {
                            stats.branches_pruned += 1;
                            continue;
                        }
                    }
                }
                let mut p = Vec::with_capacity(j + 1);
                p.extend_from_slice(&prefix);
                for r in &outcome.records[prefix.len()..j] {
                    p.push(r.chosen);
                }
                p.push(alt as u32);
                stack.push(p);
                stats.branches_enqueued += 1;
            }
        }
    }
    ExploreResult { stats, failure }
}

/// A scenario workload the explorer can re-execute: builds the full
/// testbed via [`cluster::Scenario`], then runs a tiny deterministic
/// write/read-back job on each client under the replay scheduler with the
/// checker armed. Scenario bring-up happens *before* the scheduler is
/// installed, so choice points cover the I/O phase only (the checker
/// watches bring-up too).
#[derive(Clone, Debug)]
pub struct ScenarioProgram {
    pub kind: ScenarioKind,
    /// Clients to drive (clamped to what the scenario offers).
    pub clients: usize,
    /// Write+read-back pairs per client.
    pub ops_per_client: usize,
    /// Fault plan installed after bring-up, identically on every explored
    /// schedule. When set, the clients run with the recovery ladder armed
    /// (deadlines + mailbox retries), and a workload op failing with a
    /// *typed* error is acceptable — the checker still judges every
    /// schedule, and a hang still fails the run.
    pub fault: Option<FaultPlan>,
    /// Logical reactors for the runtime. With more than one, clients pin
    /// round-robin to reactors and the explorer's schedule space grows
    /// [`ChoiceKind::ReactorPick`] points (reactor interleavings).
    pub reactors: usize,
}

impl ScenarioProgram {
    /// The smallest interesting configuration of `kind`: two clients when
    /// the scenario is multi-host, one otherwise; one op per client.
    pub fn small(kind: ScenarioKind) -> Self {
        let clients = match &kind {
            ScenarioKind::OursMultihost { .. } => 2,
            _ => 1,
        };
        ScenarioProgram {
            kind,
            clients,
            ops_per_client: 1,
            fault: None,
            reactors: 1,
        }
    }

    /// All five scenario kinds at their smallest interesting size.
    pub fn all_kinds() -> Vec<ScenarioProgram> {
        vec![
            ScenarioProgram::small(ScenarioKind::LinuxLocal),
            ScenarioProgram::small(ScenarioKind::NvmfRemote),
            ScenarioProgram::small(ScenarioKind::OursLocal),
            ScenarioProgram::small(ScenarioKind::OursRemote { switches: 1 }),
            ScenarioProgram::small(ScenarioKind::OursMultihost { clients: 2 }),
        ]
    }

    /// Execute one schedule of this scenario program.
    pub fn run(&self, prefix: &[u32]) -> RunOutcome {
        // With a fault installed, the ladder must be armed or a dropped
        // CQE would hang the run; the lease stays off so heartbeats don't
        // inflate the schedule space the explorer has to drain.
        let calib = if self.fault.is_some() {
            let mut c = Calibration::fault_recovery();
            c.manager.lease = None;
            c
        } else {
            Calibration::paper()
        };
        let reactors = self.reactors.max(1);
        let _armed = simcore::sanitize::arm();
        let sc = Scenario::build_sharded(self.kind.clone(), &calib, reactors);
        if let Some(plan) = &self.fault {
            sc.fabric.set_fault_plan(plan.clone());
        }
        let tolerate_errors = self.fault.is_some();
        let n = self.clients.min(sc.clients.len()).max(1);
        let ops = self.ops_per_client;
        let replay = ReplayScheduler::new(prefix.to_vec());
        let trace = replay.trace();
        sc.rt.set_scheduler(replay);
        let fabric = sc.fabric.clone();
        let targets: Vec<_> = sc.clients.iter().take(n).cloned().collect();
        let hd = sc.rt.handle();
        let mismatches = sc.rt.block_on(async move {
            let mut joins = Vec::new();
            for (i, (host, dev)) in targets.into_iter().enumerate() {
                let fabric = fabric.clone();
                let reactor = ReactorId::new(i % reactors);
                joins.push(hd.spawn_on(reactor, async move {
                    client_workload(fabric, host, dev, i as u64, ops, tolerate_errors).await
                }));
            }
            let mut total = 0u64;
            for j in joins {
                total += j.await;
            }
            total
        });
        sc.rt.clear_scheduler();
        let mut violations = sc.rt.sanitize_take_violations();
        if mismatches > 0 {
            violations.push(Violation {
                code: "nvme.lifecycle.data-integrity",
                at_nanos: sc.rt.now().as_nanos(),
                detail: format!("{mismatches} read-back mismatches under explored schedule"),
            });
        }
        let t = trace.borrow();
        RunOutcome {
            records: t.records.clone(),
            diverged: t.diverged,
            violations,
            trace_hash: sc.rt.trace_hash(),
        }
    }
}

/// Per-client job: write a distinct pattern, read it back, count
/// mismatched blocks. Fully deterministic — no RNG — so every divergence
/// across schedules is the schedule's doing. With `tolerate_errors` (fault
/// exploration) a submit may fail with a typed error after the recovery
/// ladder ran dry — the op is skipped, not counted as a mismatch; a hang
/// would still stall the whole run and is never tolerated.
async fn client_workload(
    fabric: Fabric,
    host: HostId,
    dev: Rc<dyn BlockDevice>,
    id: u64,
    ops: usize,
    tolerate_errors: bool,
) -> u64 {
    const BLOCKS: u32 = 2;
    let len = (BLOCKS as usize) * 512;
    let buf = fabric.alloc(host, len as u64).unwrap();
    let mut mismatches = 0u64;
    for op in 0..ops {
        let lba = id * 0x1000 + op as u64 * u64::from(BLOCKS);
        let fill = 0x40u8 ^ (id as u8) ^ (op as u8).rotate_left(3);
        let pattern = vec![fill; len];
        fabric.mem_write(host, buf.addr, &pattern).unwrap();
        if let Err(e) = dev.submit(Bio::write(lba, BLOCKS, buf)).await {
            assert!(tolerate_errors, "fault-free write failed: {e}");
            continue;
        }
        fabric.mem_write(host, buf.addr, &vec![0xEE; len]).unwrap();
        if let Err(e) = dev.submit(Bio::read(lba, BLOCKS, buf)).await {
            assert!(tolerate_errors, "fault-free read failed: {e}");
            continue;
        }
        let mut got = vec![0u8; len];
        fabric.mem_read(host, buf.addr, &mut got).unwrap();
        if got != pattern {
            mismatches += 1;
        }
    }
    mismatches
}

// ---------------------------------------------------------------------
// Lint-hypothesis hints (`--hints`)
// ---------------------------------------------------------------------

/// One ordering hypothesis imported from `dnvme-lint --emit-hypotheses`:
/// a pair of sites whose relative order a static finding claims can go
/// wrong, plus the function that anchors it to a runnable program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hint {
    pub id: String,
    pub rule: String,
    /// Choice-point domain to perturb: "doorbell" (D08/D22) or "lock"
    /// (D19).
    pub class: String,
    /// The `fn` item holding `site_a` — matched (with `_` → `-`)
    /// against the fixture registry to pick the program to explore.
    pub site_fn: String,
    pub site_a: (String, usize),
    pub site_b: (String, usize),
    /// The static finding is suppressed in source. The suppression is a
    /// claim ("this ordering is fine"), and the explorer checks it.
    pub suppressed: bool,
}

/// Parse the `--emit-hypotheses` JSON artifact. Hand-rolled over the
/// subset the linter emits (flat string/number/bool fields, one level
/// of site objects) so the exchange format costs no dependency;
/// unknown fields are skipped, missing ones default to empty/zero.
pub fn parse_hints(text: &str) -> Result<Vec<Hint>, String> {
    let body = text
        .split_once("\"hypotheses\"")
        .ok_or("hints file has no \"hypotheses\" key")?
        .1;
    let open = body.find('[').ok_or("hints file has no hypotheses array")?;
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                let start = i;
                let mut depth = 0usize;
                let mut in_str = false;
                let mut esc = false;
                while i < bytes.len() {
                    let c = bytes[i];
                    if esc {
                        esc = false;
                    } else if in_str {
                        if c == b'\\' {
                            esc = true;
                        } else if c == b'"' {
                            in_str = false;
                        }
                    } else {
                        match c {
                            b'"' => in_str = true,
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    i += 1;
                }
                if depth != 0 || in_str {
                    return Err("unterminated hypothesis object".into());
                }
                out.push(parse_hint_obj(&body[start..i]));
            }
            b']' => break,
            _ => i += 1,
        }
    }
    Ok(out)
}

fn parse_hint_obj(obj: &str) -> Hint {
    let site = |key: &str| -> (String, usize) {
        json_subobject(obj, key)
            .map(|sub| {
                (
                    json_str(sub, "path").unwrap_or_default(),
                    json_num(sub, "line").unwrap_or(0),
                )
            })
            .unwrap_or_default()
    };
    Hint {
        id: json_str(obj, "id").unwrap_or_default(),
        rule: json_str(obj, "rule").unwrap_or_default(),
        class: json_str(obj, "class").unwrap_or_default(),
        site_fn: json_str(obj, "site_fn").unwrap_or_default(),
        site_a: site("site_a"),
        site_b: site("site_b"),
        suppressed: obj
            .split_once("\"suppressed\"")
            .map(|(_, rest)| rest.trim_start_matches([':', ' ']).starts_with("true"))
            .unwrap_or(false),
    }
}

/// The text of the `{…}` value under `"key"`, braces included.
fn json_subobject<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let rest = obj.split_once(&format!("\"{key}\""))?.1;
    let open = rest.find('{')?;
    let bytes = rest.as_bytes();
    let mut depth = 0usize;
    for (k, &c) in bytes.iter().enumerate().skip(open) {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..=k]);
                }
            }
            _ => {}
        }
    }
    None
}

/// A top-level `"key": "…"` string value, JSON escapes decoded.
fn json_str(obj: &str, key: &str) -> Option<String> {
    let rest = obj.split_once(&format!("\"{key}\""))?.1;
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let mut chars = rest.strip_prefix('"')?.chars();
    let mut s = String::new();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(s),
            '\\' => match chars.next()? {
                'n' => s.push('\n'),
                't' => s.push('\t'),
                'r' => s.push('\r'),
                other => s.push(other),
            },
            other => s.push(other),
        }
    }
    None
}

/// A top-level `"key": 123` number value.
fn json_num(obj: &str, key: &str) -> Option<usize> {
    let rest = obj.split_once(&format!("\"{key}\""))?.1;
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_hints_reads_the_lint_artifact_shape() {
        let text = r#"{
  "version": 1,
  "hypotheses": [
    {
      "id": "H1",
      "rule": "D22",
      "class": "doorbell",
      "suppressed": true,
      "site_fn": "missed_doorbell",
      "site_a": {"path": "crates/explore/src/fixtures.rs", "line": 226},
      "site_b": {"path": "crates/explore/src/fixtures.rs", "line": 243}
    },
    {
      "id": "H2",
      "rule": "D19",
      "class": "lock",
      "suppressed": false,
      "site_fn": "take_both",
      "site_a": {"path": "crates/core/src/manager.rs", "line": 10},
      "site_b": {"path": "crates/core/src/manager.rs", "line": 12}
    }
  ]
}"#;
        let hints = parse_hints(text).unwrap();
        assert_eq!(
            hints,
            vec![
                Hint {
                    id: "H1".into(),
                    rule: "D22".into(),
                    class: "doorbell".into(),
                    site_fn: "missed_doorbell".into(),
                    site_a: ("crates/explore/src/fixtures.rs".into(), 226),
                    site_b: ("crates/explore/src/fixtures.rs".into(), 243),
                    suppressed: true,
                },
                Hint {
                    id: "H2".into(),
                    rule: "D19".into(),
                    class: "lock".into(),
                    site_fn: "take_both".into(),
                    site_a: ("crates/core/src/manager.rs".into(), 10),
                    site_b: ("crates/core/src/manager.rs".into(), 12),
                    suppressed: false,
                },
            ]
        );
    }

    #[test]
    fn parse_hints_rejects_garbage_and_accepts_empty() {
        assert!(parse_hints("{}").is_err());
        assert!(parse_hints("not json at all").is_err());
        let empty = parse_hints(r#"{"version":1,"hypotheses":[]}"#).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn token_round_trips() {
        for prefix in [vec![], vec![0], vec![1, 0, 3], vec![42, 7]] {
            let t = ScheduleToken::new(prefix.clone());
            let s = t.to_string();
            assert_eq!(ScheduleToken::parse(&s).unwrap().prefix, prefix, "{s}");
        }
        assert!(ScheduleToken::parse("bogus").is_err());
        assert!(ScheduleToken::parse("x1:1.x").is_err());
        assert_eq!(
            ScheduleToken::parse("x1:").unwrap().prefix,
            Vec::<u32>::new()
        );
    }

    /// A synthetic program with two delivery choice points lets the DFS be
    /// checked without building a scenario: the explorer must enumerate
    /// every prefix combination exactly once.
    #[test]
    fn dfs_enumerates_synthetic_space() {
        use simcore::sched::{ChoiceOption, Footprint};
        let rec = |chosen: u32, n: usize, overlapping: bool| {
            let opts: Vec<ChoiceOption> = (0..n)
                .map(|i| {
                    ChoiceOption::writing(Footprint {
                        domain: if overlapping { 1 } else { i as u32 },
                        addr: 0,
                        len: 8,
                    })
                })
                .collect();
            ChoiceRecord {
                kind: ChoiceKind::Delivery,
                chosen,
                footprints: opts.into_iter().map(|o| o.footprint).collect(),
            }
        };
        // Two conflicting (overlapping) delivery points of 2 options each:
        // 4 schedules, nothing prunable.
        let program = move |prefix: &[u32]| {
            let c0 = prefix.first().copied().unwrap_or(0);
            let c1 = prefix.get(1).copied().unwrap_or(0);
            RunOutcome {
                records: vec![rec(c0, 2, true), rec(c1, 2, true)],
                diverged: false,
                violations: Vec::new(),
                trace_hash: u64::from(c0) << 1 | u64::from(c1),
            }
        };
        let res = explore(&program, &ExploreConfig::exhaustive());
        assert!(res.failure.is_none());
        assert!(res.stats.exhausted);
        assert_eq!(res.stats.schedules_run, 4);
        assert_eq!(res.stats.branches_pruned, 0);

        // Same shape but disjoint footprints: every alternative commutes,
        // one schedule runs, two branches pruned.
        let program = move |prefix: &[u32]| {
            let c0 = prefix.first().copied().unwrap_or(0);
            let c1 = prefix.get(1).copied().unwrap_or(0);
            RunOutcome {
                records: vec![rec(c0, 2, false), rec(c1, 2, false)],
                diverged: false,
                violations: Vec::new(),
                trace_hash: u64::from(c0) << 1 | u64::from(c1),
            }
        };
        let res = explore(&program, &ExploreConfig::exhaustive());
        assert!(res.stats.exhausted);
        assert_eq!(res.stats.schedules_run, 1);
        assert_eq!(res.stats.branches_pruned, 2);
    }

    #[test]
    fn preemption_bound_limits_task_branches() {
        // Three Task choice points, two options each. With a bound of 1,
        // only single-preemption schedules run: canonical + 3.
        let program = |prefix: &[u32]| {
            let picked = |i: usize| prefix.get(i).copied().unwrap_or(0);
            RunOutcome {
                records: (0..3)
                    .map(|i| ChoiceRecord {
                        kind: ChoiceKind::Task,
                        chosen: picked(i),
                        footprints: vec![None, None],
                    })
                    .collect(),
                diverged: false,
                violations: Vec::new(),
                trace_hash: 0,
            }
        };
        let cfg = ExploreConfig {
            max_schedules: None,
            max_preemptions: 1,
            prune: true,
            stop_on_violation: true,
        };
        let res = explore(&program, &cfg);
        assert!(res.stats.exhausted);
        assert_eq!(res.stats.schedules_run, 4);
        assert!(res.stats.preemption_bounded > 0);
    }

    #[test]
    fn violation_yields_replayable_token() {
        // Violation only on the schedule that picks alternative 1 at the
        // second choice point.
        let program = |prefix: &[u32]| {
            let c0 = prefix.first().copied().unwrap_or(0);
            let c1 = prefix.get(1).copied().unwrap_or(0);
            let violations = if c1 == 1 {
                vec![Violation {
                    code: "nvme.lifecycle.double-completion",
                    at_nanos: 7,
                    detail: "synthetic".into(),
                }]
            } else {
                Vec::new()
            };
            RunOutcome {
                records: vec![
                    ChoiceRecord {
                        kind: ChoiceKind::Delivery,
                        chosen: c0,
                        footprints: vec![
                            Some(simcore::sched::Footprint {
                                domain: 1,
                                addr: 0,
                                len: 8,
                            }),
                            Some(simcore::sched::Footprint {
                                domain: 1,
                                addr: 4,
                                len: 8,
                            }),
                        ],
                    },
                    ChoiceRecord {
                        kind: ChoiceKind::Delivery,
                        chosen: c1,
                        footprints: vec![
                            Some(simcore::sched::Footprint {
                                domain: 2,
                                addr: 0,
                                len: 8,
                            }),
                            Some(simcore::sched::Footprint {
                                domain: 2,
                                addr: 4,
                                len: 8,
                            }),
                        ],
                    },
                ],
                diverged: false,
                violations,
                trace_hash: u64::from(c0) << 1 | u64::from(c1),
            }
        };
        let res = explore(&program, &ExploreConfig::exhaustive());
        let failure = res.failure.expect("search must find the violation");
        assert_eq!(
            failure.violations[0].code,
            "nvme.lifecycle.double-completion"
        );
        // Replaying the token reproduces the identical run.
        let token = ScheduleToken::parse(&failure.token.to_string()).unwrap();
        let again = program(&token.prefix);
        assert_eq!(again.violations, failure.violations);
        assert_eq!(again.trace_hash, failure.trace_hash);
    }
}
