//! `dnvme-bench`: see the crate documentation and `README.md`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

use dnvme_bench::cli::{self, Args};
use dnvme_bench::{run, workloads};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cli::USAGE);
        return ExitCode::SUCCESS;
    }
    let args = match cli::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dnvme-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workloads::by_name(&args.workload) else {
        let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
        eprintln!(
            "dnvme-bench: unknown workload {}; one of: all, {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let result = run::run_workload(&w, &args);
    println!("{}", result.json_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child process per workload, so that `host_peak_rss_mib` is each
/// workload's own; their result lines are collected into
/// `bench_results.json` under `--out`.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut results = Vec::new();
    let mut ok = true;
    for w in workloads::all() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(args.out.join(w.name))
            .stdout(Stdio::piped());
        if args.quick {
            cmd.arg("--quick");
        }
        let mut child = cmd.spawn().expect("start a child dnvme-bench");
        let mut last = String::new();
        for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
            let line = line.expect("child output is UTF-8");
            println!("{line}");
            last = line;
        }
        ok &= child.wait().expect("wait for the child").success();
        results.push(format!("\"{}\": {last}", w.name));
        println!();
    }
    let body = format!(
        "{{\"seed\": {}, \"trace\": {}, \"quick\": {}, \"workloads\": {{\n{}\n}}}}\n",
        args.seed,
        args.trace,
        args.quick,
        results.join(",\n")
    );
    let path = args.out.join("bench_results.json");
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| f.write_all(body.as_bytes()));
    match written {
        Ok(()) => println!("results of all workloads written to {}", path.display()),
        Err(e) => {
            eprintln!("dnvme-bench: writing {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
