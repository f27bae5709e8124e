//! The paper-reproduction record.
//!
//! One table, [`EXPERIMENTS`], lists every figure and claim of the
//! paper's evaluation this repository reproduces (E1–E8, E11 and E12;
//! EXPERIMENTS.md discusses them). Each entry is a function that runs its
//! simulations, asserts the shape the paper reports and returns its
//! numbers as named rows. `cargo bench -p bench` (`benches/repro.rs`)
//! walks the table, prints every row and rewrites the committed,
//! root-level `BENCH_repro.json`, which CI diffs with `git diff
//! --exit-code`.
//!
//! The simulation is deterministic, so one run per data point is exact
//! and the file is byte-stable: integer nanoseconds and counts, rates
//! rounded to a tenth, table order, no wall-clock field.
//!
//! The same runner writes [`SIM`] to `BENCH_sim.json`: not a paper
//! figure but the behavioural contract (hashes, steps and exact latency
//! summaries over a fixed scenario × job grid) that a change claiming
//! "no simulated number moved" proves as an empty diff.

use std::fmt;

mod datapath;
mod figures;
mod sim;

/// One row of the reproduction table.
pub struct Experiment {
    /// `E1` … `E12`: the key in `BENCH_repro.json` and the section of
    /// EXPERIMENTS.md. Ids are never reused or renumbered, so the table
    /// has gaps (E9, E10).
    pub id: &'static str,
    /// What is measured.
    pub title: &'static str,
    /// The figure, section or claim of the paper it reproduces.
    pub source: &'static str,
    /// Runs the experiment, checks its shape, returns its rows.
    pub run: fn() -> Vec<Row>,
}

/// Every experiment, in file order.
pub const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        id: "E1",
        title: "Figure 10: completion latency, 4 KiB random, QD1, four stacks",
        source: "Fig. 10",
        run: figures::e1_fig10_latency,
    },
    Experiment {
        id: "E2",
        title: "Minimum-latency deltas, remote vs matching local baseline",
        source: "§VI (NVMe-oF adds 7.7/7.5 us, the PCIe driver ~1/~2 us)",
        run: figures::e2_fig10_deltas,
    },
    Experiment {
        id: "E3",
        title: "Multi-host sharing: one controller, N client hosts, 4 KiB randread QD4 each",
        source: "§VI (shared by up to 31 hosts simultaneously)",
        run: figures::e3_multihost_scaling,
    },
    Experiment {
        id: "E4",
        title: "SQ placement: device-side (paper) vs client-side",
        source: "Fig. 8 and §V",
        run: figures::e4_sq_placement,
    },
    Experiment {
        id: "E5",
        title: "Switch-hop sensitivity: 4 KiB read latency vs chips in the path",
        source: "§VI (100-150 ns per chip per direction)",
        run: figures::e5_hop_sensitivity,
    },
    Experiment {
        id: "E6",
        title: "Queue-depth sweep: 4 KiB random read, four stacks",
        source: "§VI premise (throughput parity at depth, latency gap at QD1)",
        run: figures::e6_qd_sweep,
    },
    Experiment {
        id: "E7",
        title: "Block-size sweep: sequential read bandwidth at QD8, four stacks",
        source: "§VI premise (neither fabric is the bandwidth bottleneck)",
        run: figures::e7_bs_sweep,
    },
    Experiment {
        id: "E8",
        title: "Bounce buffer vs per-I/O IOMMU-style mapping, remote client p50",
        source: "§V (bounce design) and future work (IOMMU path)",
        run: figures::e8_bounce_vs_direct,
    },
    Experiment {
        id: "E11",
        title: "Shared-disk filesystem: 24 x 64 KiB files, create+write / list / read / delete",
        source: "§V motivation and §VIII future work (file systems)",
        run: figures::e11_fs_workload,
    },
    Experiment {
        id: "E12",
        title:
            "Sharded zero-copy datapath: reactors x {bounce, zero-copy}, QD1 p50 and 31-host kIOPS",
        source: "§V bounce design; multi-reactor extension",
        run: datapath::e12_datapath_shards,
    },
];

/// The two sections of `BENCH_sim.json`: the grid un-armed, then armed.
pub const SIM: [Experiment; 2] = [
    Experiment {
        id: "unarmed",
        title: "Scenario x job grid, checker off: trace hash, steps, exact latencies",
        source: "the behavioural contract (no paper figure)",
        run: sim::unarmed,
    },
    Experiment {
        id: "armed",
        title: "The same grid under simcore::sanitize::arm()",
        source: "the behavioural contract (no paper figure)",
        run: sim::armed,
    },
];

/// One cell of a row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Val {
    /// Simulated nanoseconds or a count: exact.
    Int(u64),
    /// A rate (kIOPS, MiB/s), rounded to one decimal.
    Tenth(f64),
    /// A hash, written as a 16-digit hex string.
    Hex(u64),
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Tenth(x) => write!(f, "{x:.1}"),
            Val::Hex(h) => write!(f, "\"{h:016x}\""),
        }
    }
}

/// One named data point: `(key, value)` cells in a fixed order.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The point's label, unique within its experiment.
    pub name: String,
    /// Its cells, in output order.
    pub cells: Vec<(&'static str, Val)>,
}

impl Row {
    /// A row with no cells yet.
    pub fn new(name: impl Into<String>) -> Row {
        Row {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// Append an exact cell (`*_ns`, counts).
    pub fn int(mut self, key: &'static str, v: u64) -> Row {
        self.cells.push((key, Val::Int(v)));
        self
    }

    /// Append a rate, rounded to a tenth.
    pub fn rate(mut self, key: &'static str, v: f64) -> Row {
        self.cells
            .push((key, Val::Tenth((v * 10.0).round() / 10.0)));
        self
    }

    /// Append a hash.
    pub fn hex(mut self, key: &'static str, v: u64) -> Row {
        self.cells.push((key, Val::Hex(v)));
        self
    }

    /// The cell under `key`, as the shape asserts compare it.
    pub fn get(&self, key: &str) -> f64 {
        match self.cells.iter().find(|(k, _)| *k == key) {
            Some((_, Val::Int(n))) => *n as f64,
            Some((_, Val::Tenth(x))) => *x,
            Some((_, Val::Hex(_))) | None => panic!("row {:?} has no number {key:?}", self.name),
        }
    }
}

/// Where `cargo bench -p bench` writes, and the tests read, the record.
pub const REPRO_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");

/// Where the same runner writes [`SIM`].
pub const SIM_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

/// `exp`'s section of `BENCH_repro.json` (or `BENCH_sim.json`): one row
/// per line.
pub fn render_section(exp: &Experiment, rows: &[Row]) -> String {
    let mut out = format!(
        "  \"{}\": {{\n    \"title\": \"{}\",\n    \"source\": \"{}\",\n    \"rows\": [\n",
        exp.id, exp.title, exp.source
    );
    for (i, row) in rows.iter().enumerate() {
        out += "      ";
        out += &render_row(row);
        out += if i + 1 < rows.len() { ",\n" } else { "\n" };
    }
    out + "    ]\n  }"
}

/// One row as `BENCH_repro.json` holds it: a one-line JSON object.
fn render_row(row: &Row) -> String {
    let mut out = format!("{{\"name\": \"{}\"", row.name);
    for (key, val) in &row.cells {
        out += &format!(", \"{key}\": {val}");
    }
    out + "}"
}

/// The whole file from its sections, in table order.
pub fn render_file(sections: &[String]) -> String {
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

/// Print `rows` as aligned columns; a row whose keys differ from the
/// previous row's starts a new header line.
pub fn print_section(exp: &Experiment, rows: &[Row]) {
    println!("\n{} — {}\n  reproduces: {}", exp.id, exp.title, exp.source);
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
    let mut keys: Vec<&str> = Vec::new();
    for row in rows {
        let row_keys: Vec<&str> = row.cells.iter().map(|(k, _)| *k).collect();
        if row_keys != keys {
            keys = row_keys;
            let header: String = keys.iter().map(|k| format!(" {k:>15}")).collect();
            println!("  {:<width$}{header}", "");
        }
        let cells: String = row
            .cells
            .iter()
            .map(|(_, v)| format!(" {:>15}", v.to_string()))
            .collect();
        println!("  {:<width$}{cells}", row.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> String {
        std::fs::read_to_string(REPRO_PATH).expect("BENCH_repro.json is committed at the root")
    }

    fn record() -> serde_json::Value {
        serde_json::parse_value(&committed()).expect("BENCH_repro.json is JSON")
    }

    #[test]
    fn table_ids_are_unique_and_equal_the_committed_keys() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");
        let file = record();
        let keys: Vec<&str> = file
            .as_map()
            .expect("a top-level object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ids, "regenerate with `cargo bench -p bench`");
    }

    /// No `BENCHMARK.json` workload sits at an unsaturated mid queue
    /// depth, so this is the tier-1 guard for that regime: E6's
    /// ours/remote QD 2 and QD 8 rows, regenerated by the function the
    /// sweep runs.
    #[test]
    fn mid_queue_depth_canary_matches_the_committed_record() {
        let exp = EXPERIMENTS.iter().find(|e| e.id == "E6").expect("E6");
        let file = committed();
        for qd in [2, 8] {
            let line = render_row(&figures::e6_point(figures::OURS_REMOTE, qd));
            assert!(
                file.contains(&line),
                "{} drifted from BENCH_repro.json; if intended, regenerate with \
                 `cargo bench -p bench`:\n{line}",
                exp.id
            );
        }
    }

    /// The tier-1 guard of `BENCH_sim.json`: its cheapest rows, the
    /// Fig. 10 read on the paper's remote client un-armed and armed,
    /// regenerated.
    #[test]
    fn sim_canary_matches_the_committed_contract() {
        let file = std::fs::read_to_string(SIM_PATH).expect("BENCH_sim.json is committed");
        for row in sim::cheapest() {
            let line = render_row(&row);
            assert!(
                file.contains(&line),
                "a simulated number moved; if intended, regenerate with \
                 `cargo bench -p bench`:\n{line}"
            );
        }
    }

    /// The repository root, where the docs are.
    const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    fn doc(name: &str) -> String {
        std::fs::read_to_string(format!("{ROOT}/{name}")).expect(name)
    }

    /// The numbers in `text`, `,` thousands separators dropped.
    fn numbers(text: &str) -> Vec<String> {
        text.split(|c: char| !(c.is_ascii_digit() || c == ',' || c == '.'))
            .map(|t| t.trim_matches([',', '.']).replace(',', ""))
            .filter(|t| !t.is_empty())
            .collect()
    }

    /// EXPERIMENTS.md has one `## E<n> — ` section per table row, in
    /// table order, so a deleted row's section cannot outlive it; and
    /// every number in a section's tables is one of that experiment's
    /// rows in `BENCH_repro.json`: a cell (`*_ns` also as µs to two
    /// decimals; rates to a tenth) or a number in a row's name (clients,
    /// QD, block size). Columns headed paper, error or ratio are the
    /// doc's own.
    #[test]
    fn experiments_md_sections_equal_the_table() {
        let doc = doc("EXPERIMENTS.md");
        let headings: Vec<&str> = doc
            .lines()
            .filter_map(|l| l.strip_prefix("## E"))
            .filter_map(|l| l.split_once(" — "))
            .map(|(n, _)| n)
            .collect();
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| &e.id[1..]).collect();
        assert_eq!(
            headings, ids,
            "EXPERIMENTS.md sections drifted from EXPERIMENTS"
        );
        let file = record();
        let rows = |id: &str| {
            let exp = file.as_map().and_then(|m| m.iter().find(|(k, _)| k == id));
            let rows = exp.and_then(|(_, e)| e.as_map()?.iter().find(|(k, _)| k == "rows"));
            rows.and_then(|(_, r)| r.as_seq()).expect("rows").to_vec()
        };
        let mut allowed: Option<(&str, Vec<String>)> = None;
        let mut exempt: Option<Vec<bool>> = None;
        for line in doc.lines() {
            if let Some(heading) = line.strip_prefix("## ") {
                let exp = heading
                    .split_once(" — ")
                    .filter(|(id, _)| id.starts_with('E'));
                allowed = exp.map(|(id, _)| {
                    let mut ok = Vec::new();
                    for (key, v) in rows(id).iter().flat_map(|r| r.as_map().expect("a row")) {
                        match v {
                            serde_json::Value::Str(name) => ok.extend(numbers(name)),
                            serde_json::Value::UInt(n) if key.ends_with("_ns") => {
                                ok.extend([n.to_string(), format!("{:.2}", *n as f64 / 1e3)])
                            }
                            serde_json::Value::UInt(n) => ok.push(n.to_string()),
                            serde_json::Value::Float(x) => ok.push(format!("{x:.1}")),
                            other => panic!("{id}: unexpected cell {other:?}"),
                        }
                    }
                    (id, ok)
                });
                continue;
            }
            let Some((id, ok)) = &allowed else { continue };
            let Some(line) = line.strip_prefix('|') else {
                exempt = None;
                continue;
            };
            let cells: Vec<&str> = line.trim_end().trim_end_matches('|').split('|').collect();
            let Some(exempt) = &exempt else {
                let own = |h: &str| {
                    ["paper", "error", "ratio"]
                        .iter()
                        .any(|w| h.to_lowercase().contains(w))
                };
                exempt = Some(cells.iter().map(|h| own(h)).collect());
                continue;
            };
            for (cell, _) in cells.iter().zip(exempt).filter(|(_, own)| !**own) {
                for n in numbers(cell) {
                    assert!(
                        ok.contains(&n),
                        "EXPERIMENTS.md {id}: {n} in `{}` is in none of its BENCH_repro.json rows",
                        cell.trim()
                    );
                }
            }
        }
    }

    /// Every `binary::test_fn` citation in the docs names a `fn` of that
    /// test binary (`tests/binary.rs` or `crates/*/tests/binary.rs`). A
    /// citation may list names (`binary::{a, b}`), expand alternatives
    /// (`a{,_b}_c`) and stand for a name's rest with `*` or a trailing `…`.
    #[test]
    fn doc_citations_name_existing_tests() {
        let mut fns: Vec<(String, Vec<String>)> = Vec::new();
        let mut dirs = vec![format!("{ROOT}/tests")];
        for entry in std::fs::read_dir(format!("{ROOT}/crates")).expect("crates/") {
            dirs.push(format!(
                "{}/tests",
                entry.expect("dir entry").path().display()
            ));
        }
        for entry in dirs
            .iter()
            .filter_map(|d| std::fs::read_dir(d).ok())
            .flatten()
        {
            let path = entry.expect("dir entry").path();
            let (Some(stem), Some("rs")) =
                (path.file_stem(), path.extension().and_then(|e| e.to_str()))
            else {
                continue;
            };
            let text = std::fs::read_to_string(&path).expect("test source");
            let names = text.split("fn ").skip(1).map(|t| {
                t.chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect()
            });
            fns.push((stem.to_string_lossy().into_owned(), names.collect()));
        }
        // The root docs, and every skill recipe (`SKILL.md`) kept under a
        // hidden directory of the root.
        let mut docs: Vec<String> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
            .map(String::from)
            .into();
        let entries = |dir: &str| {
            let read = std::fs::read_dir(dir).expect("a directory");
            read.map(|e| e.expect("dir entry").path())
                .collect::<Vec<_>>()
        };
        let hidden = |p: &std::path::PathBuf| {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            p.is_dir() && name.is_some_and(|n| n.starts_with('.') && n != ".git")
        };
        let mut dirs: Vec<_> = entries(ROOT).into_iter().filter(hidden).collect();
        while let Some(dir) = dirs.pop() {
            for path in entries(&dir.to_string_lossy()) {
                if path.is_dir() {
                    dirs.push(path);
                } else if path.ends_with("SKILL.md") {
                    let rel = path.strip_prefix(ROOT).expect("under the root");
                    docs.push(rel.to_string_lossy().into_owned());
                }
            }
        }
        assert!(docs.len() > 3, "no skill recipe found");
        let word = |c: char| c.is_alphanumeric() || c == '_';
        for name in &docs {
            let text = doc(name);
            for (at, _) in text.match_indices("::") {
                let head = &text[..at];
                let head = head.strip_suffix(".rs").unwrap_or(head);
                let start = head.rfind(|c| !word(c)).map_or(0, |k| k + 1);
                // A later segment of a path, or a name in a `use`-style list.
                let before = &head[..start];
                let list = before
                    .rfind(['{', '}', '`'])
                    .is_some_and(|k| before[k..].starts_with('{'));
                if before.ends_with(':') || list {
                    continue;
                }
                let Some((binary, defined)) = fns.iter().find(|(s, _)| *s == head[start..]) else {
                    continue;
                };
                // The cited segment: words, wildcards and `{…}` groups.
                let tail = &text[at + 2..];
                let mut len = 0;
                while let Some(c) = tail[len..].chars().next() {
                    len += match c {
                        '{' => tail[len..].find('}').expect("a closing brace") + 1,
                        c if word(c) || c == '*' || c == '…' => c.len_utf8(),
                        _ => break,
                    };
                }
                let cited = &tail[..len];
                if cited.is_empty() || tail[len..].starts_with("::") {
                    continue;
                }
                let (prefix, alts, suffix) = match cited.split_once('{') {
                    Some((p, rest)) => {
                        let (alts, s) = rest.split_once('}').expect("a closing brace");
                        (p, alts.split(',').map(str::trim).collect(), s)
                    }
                    None => (cited, vec![""], ""),
                };
                for alt in alts {
                    let want = format!("{prefix}{alt}{suffix}");
                    let parts: Vec<&str> = want.split(['*', '…']).collect();
                    let (first, last) = (parts[0], parts[parts.len() - 1]);
                    let found = defined.iter().any(|f| {
                        if parts.len() == 1 {
                            *f == want
                        } else {
                            f.starts_with(first) && f[first.len()..].ends_with(last)
                        }
                    });
                    assert!(
                        found,
                        "{name} cites {binary}::{want}, which no {binary}.rs defines"
                    );
                }
            }
        }
    }
}
