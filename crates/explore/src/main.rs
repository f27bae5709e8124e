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
use explore::{explore, fixtures, ExploreConfig, ExploreResult, ScenarioProgram, ScheduleToken};
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

#[derive(Default)]
struct Cli {
    scenario: Option<ScenarioKind>,
    all: bool,
    fixture: Option<String>,
    list_fixtures: bool,
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

/// `value`, the argument of option `name`, as a count.
fn number(name: &str, value: String) -> Result<usize, String> {
    value.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        prune: true,
        ops: 1,
        reactors: 1,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => {
                let v = value()?;
                cli.scenario =
                    Some(parse_kind(&v).ok_or_else(|| format!("unknown scenario {v:?}"))?);
            }
            "--all" => cli.all = true,
            "--fixture" => cli.fixture = Some(value()?),
            "--list-fixtures" => cli.list_fixtures = true,
            "--schedules" => cli.schedules = Some(number(arg, value()?)?),
            "--exhaustive" => cli.exhaustive = true,
            "--preemptions" => cli.preemptions = Some(number(arg, value()?)?),
            "--no-prune" => cli.prune = false,
            "--ops" => cli.ops = number(arg, value()?)?,
            "--clients" => cli.clients = Some(number(arg, value()?)?),
            "--reactors" => {
                cli.reactors = number(arg, value()?)?;
                if cli.reactors == 0 {
                    return Err("--reactors must be at least 1".into());
                }
            }
            "--faults" => cli.faults = Some(number(arg, value()?)?),
            "--fault-plan" => cli.fault_plan = Some(value()?),
            "--replay" => cli.replay = Some(value()?),
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
    cfg.max_preemptions = cli.preemptions.unwrap_or(cfg.max_preemptions);
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
        if report(name, &explore(&|p: &[u32]| f(p), &cfg)) {
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
