//! dnvme-explore — CLI front-end for the schedule-space model checker.
//!
//! ```text
//! dnvme-explore --scenario ours-multihost --exhaustive
//! dnvme-explore --scenario ours-remote --schedules 64
//! dnvme-explore --fixture double-cqe --schedules 16
//! dnvme-explore --scenario ours-multihost --replay x1:0.1.1
//! dnvme-explore --all --schedules 64
//! ```
//!
//! Exit status: 0 when every explored schedule is conformant, 1 when a
//! violation was found (the replay token is printed), 2 on usage errors.

use std::process::ExitCode;

use cluster::ScenarioKind;
use explore::{
    explore, fixtures, parse_hints, ExploreConfig, ExploreResult, ScenarioProgram, ScheduleToken,
};
use pcie::FaultPlan;

const USAGE: &str = "\
dnvme-explore: bounded schedule-space exploration. Every schedule runs
armed (simcore::sanitize::arm) and is judged by the whole run-time
checker: happens-before races and reads racing posted writes (pcie.*),
doorbell-before-SQE, CQ-overwrite and bounce-overlap (nvme.*, dnvme.*),
the NVMe command-lifecycle FSM (nvme.lifecycle.*), and read-back data.

usage: dnvme-explore [target] [bounds] [--replay TOKEN]

targets (pick one):
  --scenario KIND     linux-local | nvmf-remote | ours-local |
                      ours-remote | ours-multihost
  --all               every scenario kind in sequence
  --fixture NAME      a seeded-violation fixture (--list-fixtures)
  --list-fixtures     print fixture names and expected violation codes
  --hints FILE        hypothesis-directed mode: read the JSON artifact
                      `dnvme-lint --emit-hypotheses` wrote, map each
                      ordering hypothesis to its implicated program, and
                      spend the schedule budget perturbing exactly those
                      pairs; each hypothesis is reported CONFIRMED (with
                      a replay token) or refuted. Exit 1 iff any
                      hypothesis is confirmed.

bounds:
  --schedules N       stop after N schedules (default 64)
  --exhaustive        drain the schedule space (delivery orders; task
                      preemptions stay bounded)
  --preemptions N     max non-canonical task picks per schedule
  --no-prune          disable partial-order pruning (for measurement)
  --ops N             write+read pairs per client (default 1)
  --clients N         clients to drive (default: scenario's natural size)
  --reactors N        logical reactors; clients pin round-robin and
                      reactor interleavings become choice points (default 1)

faults:
  --faults N          sweep N single-fault runs: run k drops the k-th CQE
                      (f1:drop@k/cqe) with the recovery ladder armed, and
                      the whole sweep must stay conformant
  --fault-plan TOKEN  explore under one specific f1: fault plan

replay:
  --replay TOKEN      run exactly one schedule from a failure token and
                      report its violations (combines with --fault-plan)
";

struct Cli {
    scenario: Option<ScenarioKind>,
    all: bool,
    fixture: Option<String>,
    list_fixtures: bool,
    hints: Option<String>,
    schedules: Option<usize>,
    exhaustive: bool,
    preemptions: Option<usize>,
    prune: bool,
    ops: usize,
    clients: Option<usize>,
    reactors: usize,
    faults: Option<usize>,
    fault_plan: Option<String>,
    replay: Option<String>,
}

fn parse_kind(s: &str) -> Option<ScenarioKind> {
    match s {
        "linux-local" => Some(ScenarioKind::LinuxLocal),
        "nvmf-remote" => Some(ScenarioKind::NvmfRemote),
        "ours-local" => Some(ScenarioKind::OursLocal),
        "ours-remote" => Some(ScenarioKind::OursRemote { switches: 1 }),
        "ours-multihost" => Some(ScenarioKind::OursMultihost { clients: 2 }),
        _ => None,
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        scenario: None,
        all: false,
        fixture: None,
        list_fixtures: false,
        hints: None,
        schedules: None,
        exhaustive: false,
        preemptions: None,
        prune: true,
        ops: 1,
        clients: None,
        reactors: 1,
        faults: None,
        fault_plan: None,
        replay: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => {
                let v = value("--scenario")?;
                cli.scenario =
                    Some(parse_kind(&v).ok_or_else(|| format!("unknown scenario {v:?}"))?);
            }
            "--all" => cli.all = true,
            "--fixture" => cli.fixture = Some(value("--fixture")?),
            "--list-fixtures" => cli.list_fixtures = true,
            "--hints" => cli.hints = Some(value("--hints")?),
            "--schedules" => {
                cli.schedules = Some(
                    value("--schedules")?
                        .parse()
                        .map_err(|e| format!("--schedules: {e}"))?,
                )
            }
            "--exhaustive" => cli.exhaustive = true,
            "--preemptions" => {
                cli.preemptions = Some(
                    value("--preemptions")?
                        .parse()
                        .map_err(|e| format!("--preemptions: {e}"))?,
                )
            }
            "--no-prune" => cli.prune = false,
            "--ops" => cli.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--clients" => {
                cli.clients = Some(
                    value("--clients")?
                        .parse()
                        .map_err(|e| format!("--clients: {e}"))?,
                )
            }
            "--reactors" => {
                cli.reactors = value("--reactors")?
                    .parse()
                    .map_err(|e| format!("--reactors: {e}"))?;
                if cli.reactors == 0 {
                    return Err("--reactors must be at least 1".into());
                }
            }
            "--faults" => {
                cli.faults = Some(
                    value("--faults")?
                        .parse()
                        .map_err(|e| format!("--faults: {e}"))?,
                )
            }
            "--fault-plan" => cli.fault_plan = Some(value("--fault-plan")?),
            "--replay" => cli.replay = Some(value("--replay")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn config_of(cli: &Cli) -> ExploreConfig {
    let mut cfg = if cli.exhaustive {
        ExploreConfig::exhaustive()
    } else {
        ExploreConfig::bounded(cli.schedules.unwrap_or(64))
    };
    if cli.exhaustive {
        // A cap alongside --exhaustive acts as a safety valve.
        cfg.max_schedules = cli.schedules;
    }
    if let Some(p) = cli.preemptions {
        cfg.max_preemptions = p;
    }
    cfg.prune = cli.prune;
    cfg
}

fn report(label: &str, res: &ExploreResult) -> bool {
    let s = &res.stats;
    println!(
        "{label}: {} schedules, {} choice points, {} branches queued, \
         {} pruned (POR), {} preemption-bounded{}",
        s.schedules_run,
        s.choice_points,
        s.branches_enqueued,
        s.branches_pruned,
        s.preemption_bounded,
        if s.exhausted { ", exhausted" } else { "" }
    );
    match &res.failure {
        None => {
            println!("{label}: conformant on every explored schedule");
            true
        }
        Some(f) => {
            println!("{label}: VIOLATION — replay with --replay {}", f.token);
            for v in &f.violations {
                println!("  [{}] t={}ns {}", v.code, v.at_nanos, v.detail);
            }
            false
        }
    }
}

/// Hypothesis-directed exploration: each hypothesis names the function
/// behind a static ordering finding; when that function is (or seeds) a
/// registered fixture program, the whole schedule budget goes to that
/// one program — canonical schedule first, then the bounded neighborhood
/// around its choice points — instead of being spread blind across the
/// scenario matrix. Returns `Ok(false)` (exit 1) iff a hypothesis was
/// confirmed by an actual violation.
fn run_hints(path: &str, cfg: &ExploreConfig) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read hints {path}: {e}"))?;
    let hints = parse_hints(&text)?;
    if hints.is_empty() {
        println!("hints: no hypotheses in {path}; nothing to explore");
        return Ok(true);
    }
    let mut confirmed = 0usize;
    let mut refuted = 0usize;
    let mut unmapped = 0usize;
    for h in &hints {
        let label = format!(
            "{} [{} {} {}:{} vs {}:{}{}]",
            h.id,
            h.rule,
            h.class,
            h.site_a.0,
            h.site_a.1,
            h.site_b.0,
            h.site_b.1,
            if h.suppressed { ", suppressed" } else { "" }
        );
        let fixture_name = h.site_fn.replace('_', "-");
        let Some((_, f)) = fixtures::by_name(&fixture_name) else {
            println!(
                "{label}: unmapped — no runnable program for fn {:?}",
                h.site_fn
            );
            unmapped += 1;
            continue;
        };
        let res = explore(&|p: &[u32]| f(p), cfg);
        match &res.failure {
            Some(fail) => {
                confirmed += 1;
                println!(
                    "{label}: CONFIRMED in {} schedule(s) — replay with --fixture {} --replay {}",
                    res.stats.schedules_run, fixture_name, fail.token
                );
                for v in &fail.violations {
                    println!("  [{}] t={}ns {}", v.code, v.at_nanos, v.detail);
                }
            }
            None => {
                refuted += 1;
                println!(
                    "{label}: refuted — {} schedule(s) conformant{}",
                    res.stats.schedules_run,
                    if res.stats.exhausted {
                        ", space exhausted"
                    } else {
                        ""
                    }
                );
            }
        }
    }
    println!(
        "hints: {} hypothesis(es) — {confirmed} confirmed, {refuted} refuted, \
         {unmapped} unmapped",
        hints.len()
    );
    Ok(confirmed == 0)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args)?;
    if cli.list_fixtures {
        for (name, code, _) in fixtures::ALL {
            println!("{name}: expects {code}");
        }
        return Ok(true);
    }
    let cfg = config_of(&cli);
    if let Some(path) = &cli.hints {
        return run_hints(path, &cfg);
    }
    if let Some(name) = &cli.fixture {
        let (code, f) =
            fixtures::by_name(name).ok_or_else(|| format!("unknown fixture {name:?}"))?;
        if let Some(token) = &cli.replay {
            let token = ScheduleToken::parse(token)?;
            let out = f(&token.prefix);
            for v in &out.violations {
                println!("[{}] t={}ns {}", v.code, v.at_nanos, v.detail);
            }
            return Ok(out.violations.is_empty());
        }
        let res = explore(&|p: &[u32]| f(p), &cfg);
        let clean = report(name, &res);
        if clean {
            return Err(format!("fixture {name} failed to trip {code}"));
        }
        return Ok(false);
    }
    let kinds: Vec<ScenarioKind> = if cli.all {
        ScenarioProgram::all_kinds()
            .into_iter()
            .map(|p| p.kind)
            .collect()
    } else if let Some(kind) = cli.scenario.clone() {
        vec![kind]
    } else {
        return Err("pick a target: --scenario, --all, or --fixture".into());
    };
    // One entry per run: `None` is the fault-free exploration; --faults N
    // sweeps N plans each dropping a different CQE ordinal; --fault-plan
    // explores under exactly the given plan.
    let plans: Vec<Option<FaultPlan>> = if let Some(n) = cli.faults {
        if cli.fault_plan.is_some() {
            return Err("--faults and --fault-plan are mutually exclusive".into());
        }
        (0..n as u64)
            .map(|k| Some(FaultPlan::drop_nth_cqe(k)))
            .collect()
    } else if let Some(token) = &cli.fault_plan {
        vec![Some(FaultPlan::parse(token)?)]
    } else {
        vec![None]
    };
    if cli.replay.is_some() && plans.len() > 1 {
        return Err("--replay needs a single run; use --fault-plan, not --faults".into());
    }
    let mut all_clean = true;
    for kind in kinds {
        for plan in &plans {
            let mut prog = ScenarioProgram::small(kind.clone());
            prog.ops_per_client = cli.ops;
            prog.fault = plan.clone();
            prog.reactors = cli.reactors;
            if let Some(c) = cli.clients {
                prog.clients = c;
            }
            let mut label = match plan {
                Some(p) => format!("{}+{}", prog.kind.label(), p),
                None => prog.kind.label(),
            };
            if cli.reactors > 1 {
                label = format!("{label}@{}r", cli.reactors);
            }
            if let Some(token) = &cli.replay {
                let token = ScheduleToken::parse(token)?;
                let out = prog.run(&token.prefix);
                if out.diverged {
                    return Err(format!("{label}: token does not fit this program"));
                }
                for v in &out.violations {
                    println!("[{}] t={}ns {}", v.code, v.at_nanos, v.detail);
                }
                println!(
                    "{label}: replayed {token} (trace hash {:#018x})",
                    out.trace_hash
                );
                all_clean &= out.violations.is_empty();
                continue;
            }
            all_clean &= report(&label, &explore(&|p: &[u32]| prog.run(p), &cfg));
        }
    }
    Ok(all_clean)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("dnvme-explore: {msg}");
                eprint!("{USAGE}");
                ExitCode::from(2)
            }
        }
    }
}
