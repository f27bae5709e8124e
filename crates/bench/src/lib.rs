//! The paper-reproduction record.
//!
//! One table, [`EXPERIMENTS`], lists every figure and claim of the
//! paper's evaluation this repository reproduces (E1–E12; EXPERIMENTS.md
//! discusses them). Each entry is a function that runs its simulations,
//! asserts the shape the paper reports and returns its numbers as named
//! rows. `cargo bench -p bench` (`benches/repro.rs`) walks the table,
//! prints every row and rewrites the committed, root-level
//! `BENCH_repro.json`, which CI diffs with `git diff --exit-code`.
//!
//! The simulation is deterministic, so one run per data point is exact
//! and the file is byte-stable: integer nanoseconds and counts, rates
//! rounded to a tenth, table order, no wall-clock field.

use std::fmt;

mod datapath;
mod figures;

/// One row of the reproduction table.
pub struct Experiment {
    /// `E1` … `E12`: the key in `BENCH_repro.json` and the section of
    /// EXPERIMENTS.md.
    pub id: &'static str,
    /// What is measured.
    pub title: &'static str,
    /// The figure, section or claim of the paper it reproduces.
    pub source: &'static str,
    /// Runs the experiment, checks its shape, returns its rows.
    pub run: fn() -> Vec<Row>,
}

/// Every experiment, in file order.
pub const EXPERIMENTS: [Experiment; 12] = [
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
        id: "E9",
        title: "Polling vs forwarded-interrupt completions, remote client",
        source: "§V/§VI (why the driver polls); extension",
        run: figures::e9_polling_vs_irq,
    },
    Experiment {
        id: "E10",
        title: "Realistic mixes: OLTP 70/30 zipf 8 KiB QD8, 128 KiB scan QD4, 4 KiB logger QD1",
        source: "§VIII future work (realistic workloads)",
        run: figures::e10_realistic_workloads,
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

/// One cell of a row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Val {
    /// Simulated nanoseconds or a count: exact.
    Int(u64),
    /// A rate (kIOPS, MiB/s), rounded to one decimal.
    Tenth(f64),
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Tenth(x) => write!(f, "{x:.1}"),
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

    /// The cell under `key`, as the shape asserts compare it.
    pub fn get(&self, key: &str) -> f64 {
        match self.cells.iter().find(|(k, _)| *k == key) {
            Some((_, Val::Int(n))) => *n as f64,
            Some((_, Val::Tenth(x))) => *x,
            None => panic!("row {:?} has no cell {key:?}", self.name),
        }
    }
}

/// Where `cargo bench -p bench` writes, and the tests read, the record.
pub const REPRO_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");

/// `exp`'s section of `BENCH_repro.json`: one row per line.
pub fn render_section(exp: &Experiment, rows: &[Row]) -> String {
    let mut out = format!(
        "  \"{}\": {{\n    \"title\": \"{}\",\n    \"source\": \"{}\",\n    \"rows\": [\n",
        exp.id, exp.title, exp.source
    );
    for (i, row) in rows.iter().enumerate() {
        out += &format!("      {{\"name\": \"{}\"", row.name);
        for (key, val) in &row.cells {
            out += &format!(", \"{key}\": {val}");
        }
        out += if i + 1 < rows.len() { "},\n" } else { "}\n" };
    }
    out + "    ]\n  }"
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

    #[test]
    fn table_ids_are_unique_and_equal_the_committed_keys() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");
        let file = serde_json::parse_value(&committed()).expect("BENCH_repro.json is JSON");
        let keys: Vec<&str> = file
            .as_map()
            .expect("a top-level object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ids, "regenerate with `cargo bench -p bench`");
    }

    /// No `BENCHMARK.json` workload sits at an unsaturated mid queue
    /// depth, so this is the tier-1 guard for that regime: E9's QD8
    /// points, regenerated through the table entry the runner uses.
    #[test]
    fn mid_queue_depth_canary_matches_the_committed_record() {
        let exp = &EXPERIMENTS[8];
        assert_eq!(exp.id, "E9");
        let section = render_section(exp, &(exp.run)());
        assert!(
            committed().contains(&section),
            "E9 drifted from BENCH_repro.json; if intended, regenerate with \
             `cargo bench -p bench`:\n{section}"
        );
    }
}
