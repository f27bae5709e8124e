//! Command-line arguments.

use std::path::PathBuf;

use crate::workloads::DEFAULT_SEED;

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// A workload name, or `all`.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Wall seconds to keep repeating for.
    pub seconds: f64,
    /// Traced run: spans, probes and per-layer metrics.
    pub trace: bool,
    /// Directory for `bench_trace.json` / `bench_results.json`.
    pub out: PathBuf,
    /// One repetition at 1/20 of the simulated duration.
    pub quick: bool,
}

/// What `--help` prints.
pub const USAGE: &str = "usage: dnvme-bench [--workload NAME|all] [--seed N] [--seconds S] \
[--trace [0|1]] [--out DIR] [--quick]";

/// Parse `args` (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("."),
        quick: false,
    };
    let mut it = args.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = value("a name")?,
            "--seed" => {
                let v = value("a number")?;
                out.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                out.seconds = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(format!("--seconds {v}: must be in (0, 600]"));
                }
            }
            "--out" => out.out = PathBuf::from(value("a directory")?),
            "--quick" => out.quick = true,
            "--trace" => {
                // Bare `--trace` switches tracing on; `--trace 0|1` is the
                // form the benchmark driver uses.
                out.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_form() {
        let a = p("--workload fig10_read --seed 7 --seconds 8 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fig10_read", 7, 8.0, false)
        );
        assert!(p("--workload x --trace 1").unwrap().trace);
    }

    #[test]
    fn bare_trace_and_defaults() {
        let a = p("--trace --quick").unwrap();
        assert!(a.trace && a.quick);
        assert_eq!((a.workload.as_str(), a.seed), ("all", DEFAULT_SEED));
        assert_eq!(p("--seed 0x5EED").unwrap().seed, 0x5EED);
    }

    #[test]
    fn rejects_nonsense() {
        assert!(p("--seconds 0").is_err());
        assert!(p("--seed").is_err());
        assert!(p("--frobnicate").is_err());
    }
}
