//! `dnvme-lint`: run the determinism/protocol lint pass over the
//! workspace members and exit non-zero on findings or on `lint:allow`
//! comments that suppress nothing (stale, retired or mistyped codes).
//! The rules are the rows of `analyzer::RULES`; an inline `lint:allow`
//! is the only suppression.
//!
//! `--format github` switches the report to GitHub Actions annotation
//! lines (`::error file=…,line=…::…`) so findings surface inline on PRs.
//! `--format sarif` emits a SARIF 2.1.0 report on stdout (empty scans
//! included) for the code-scanning upload.
//! `--bench` re-runs the scan once more under a wall-clock timer and
//! rewrites `BENCH_lint.json` at the workspace root; CI diffs the
//! committed copy (ignoring `wall_ms`) so rule-count and finding-count
//! drift is loud.
//! `--explain <rule>` prints one rule's long-form documentation (what it
//! flags, why, a worked example, suppression guidance) and exits.

use std::process::ExitCode;

enum Format {
    Text,
    Github,
    Sarif,
}

struct Options {
    format: Format,
    bench: bool,
    explain: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        bench: false,
        explain: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("github") => opts.format = Format::Github,
                Some("text") => opts.format = Format::Text,
                Some("sarif") => opts.format = Format::Sarif,
                other => return Err(format!("--format expects text|github|sarif, got {other:?}")),
            },
            "--bench" => opts.bench = true,
            "--explain" => match args.next() {
                Some(rule) => opts.explain = Some(rule),
                None => return Err("--explain expects a rule code (e.g. D23)".to_string()),
            },
            "--help" | "-h" => {
                return Err(
                    "usage: dnvme-lint [--format text|github|sarif] [--bench] [--explain <rule>]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// Time one full workspace scan and rewrite `BENCH_lint.json` at the
/// root. The file is the canonical self-benchmark: everything in it but
/// `wall_ms` must be byte-stable run to run.
fn write_bench(root: &std::path::Path) -> std::io::Result<()> {
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall-clock benchmark of the linter itself"
    )]
    let t0 = std::time::Instant::now();
    let analyzer::WorkspaceScan {
        findings, stats, ..
    } = analyzer::scan_workspace(root)?;
    let wall_ms = t0.elapsed().as_millis();
    let json = format!(
        "{{\n  \"rules\": {},\n  \"files_scanned\": {},\n  \"findings\": {},\n  \
         \"summaries\": {},\n  \"wall_ms\": {}\n}}\n",
        analyzer::RULES.len(),
        stats.files,
        findings.len(),
        stats.summaries,
        wall_ms
    );
    let path = root.join("BENCH_lint.json");
    std::fs::write(&path, json)?;
    eprintln!(
        "dnvme-lint: bench — {} files, {} finding(s), {} summaries, {wall_ms} ms → {}",
        stats.files,
        findings.len(),
        stats.summaries,
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("dnvme-lint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(code) = &opts.explain {
        return match analyzer::explain(code) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "dnvme-lint: unknown rule {:?} (see the README rule table)",
                    code.to_ascii_uppercase()
                );
                ExitCode::FAILURE
            }
        };
    }
    let root = analyzer::workspace_root();
    let (findings, unused) = match analyzer::scan_workspace(&root) {
        Ok(scan) => (scan.findings, scan.unused),
        Err(e) => {
            eprintln!("dnvme-lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if opts.bench {
        if let Err(e) = write_bench(&root) {
            eprintln!("dnvme-lint: failed to write BENCH_lint.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    // SARIF is a whole-report format: emit it even for a clean scan so
    // the CI upload step always has a valid document.
    if let Format::Sarif = opts.format {
        println!("{}", analyzer::to_sarif(&findings, &unused));
        if findings.is_empty() && unused.is_empty() {
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "dnvme-lint: {} finding(s), {} unused suppression(s)",
            findings.len(),
            unused.len()
        );
        return ExitCode::FAILURE;
    }
    if findings.is_empty() && unused.is_empty() {
        println!("dnvme-lint: workspace clean");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        match opts.format {
            Format::Text | Format::Sarif => println!("{f}"),
            Format::Github => println!("{}", f.to_github_annotation()),
        }
    }
    for u in &unused {
        match opts.format {
            Format::Text | Format::Sarif => println!("{u}"),
            Format::Github => println!("{}", u.to_github_annotation()),
        }
    }
    eprintln!(
        "dnvme-lint: {} finding(s), {} unused suppression(s)",
        findings.len(),
        unused.len()
    );
    ExitCode::FAILURE
}
