//! Fixture snippets for the lint policy: each one is compiled by
//! `clippy-driver` with the root manifest's `[workspace.lints]` levels,
//! the root `clippy.toml` and `-D warnings`, as CI's `cargo clippy` does,
//! and the test asserts what it reports. The retired rule codes in the
//! names are README's "retired — enforced by" rows: a `dNN_flags_*`
//! fixture must trip the lint that now stands in for the rule, a
//! `dNN_*suppression` fixture shows how (and whether) a site can be
//! excused, and the `strict_allow_*` fixtures pin that an excuse which
//! excuses nothing fails the build.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One diagnostic of a fixture's compile.
#[derive(Debug)]
struct Finding {
    /// The lint (`clippy::disallowed_types`) or error code (`E0453`).
    code: String,
    file: String,
    line: usize,
    /// The primary span's first source line.
    excerpt: String,
    /// The highlighted part of that line.
    highlight: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.code,
            self.excerpt.trim()
        )
    }
}

/// The `-F`/`-D`/`-W`/`-A` flags of the root manifest's
/// `[workspace.lints.rust]` and `[workspace.lints.clippy]` tables.
fn workspace_lint_flags() -> Vec<String> {
    let manifest = std::fs::read_to_string(root().join("Cargo.toml")).expect("root Cargo.toml");
    let mut flags = Vec::new();
    for (header, prefix) in [
        ("[workspace.lints.rust]", ""),
        ("[workspace.lints.clippy]", "clippy::"),
    ] {
        let lines = manifest
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty());
        for line in lines {
            let (name, level) = line.split_once('=').expect("`lint = \"level\"`");
            let flag = match level.trim().trim_matches('"') {
                "forbid" => "-F",
                "deny" => "-D",
                "warn" => "-W",
                "allow" => "-A",
                other => panic!("{header}: unknown level {other}"),
            };
            flags.push(flag.to_string());
            flags.push(format!("{prefix}{}", name.trim()));
        }
    }
    assert!(flags.len() >= 16, "read too few lint levels: {flags:?}");
    flags
}

/// The dnvme lib's crate attribute that denies `unwrap` and `expect`,
/// as written in `crates/core/src/lib.rs`.
fn dnvme_lib_header() -> String {
    let lib = std::fs::read_to_string(root().join("crates/core/src/lib.rs")).expect("core lib.rs");
    lib.lines()
        .find(|l| l.starts_with("#![deny(clippy::unwrap_used"))
        .expect("the dnvme lib denies clippy::unwrap_used")
        .to_string()
}

/// `src` under the dnvme lib's crate attribute: its lines move down one.
fn in_dnvme_lib(src: &str) -> String {
    format!("{}\n{src}", dnvme_lib_header())
}

/// `v[key]`, or null when `v` is not an object or lacks the key.
fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map().map_or(&Value::NULL, |m| Value::field(m, key))
}

/// A column or line number of a diagnostic span (1-based).
fn number(v: &Value) -> usize {
    match v {
        Value::UInt(n) => *n as usize,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Compiles `src` as a library crate named `name` under clippy and
/// returns every lint or error it reports, in source order.
fn clippy(name: &str, src: &str) -> Vec<Finding> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("lint-fixtures")
        .join(name);
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let file = dir.join(format!("{name}.rs"));
    std::fs::write(&file, src).expect("write fixture");
    let driver = std::env::var("CLIPPY_DRIVER").unwrap_or_else(|_| "clippy-driver".into());
    let out = Command::new(&driver)
        .env("CLIPPY_CONF_DIR", root())
        .args([
            "--edition",
            "2021",
            "--crate-type",
            "lib",
            "--crate-name",
            name,
        ])
        .args(["--emit=metadata", "--error-format=json", "--out-dir"])
        .arg(&dir)
        .args(workspace_lint_flags())
        .args(["-D", "warnings"])
        .arg(&file)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {driver} (rustup component add clippy): {e}"));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 diagnostics");
    let mut findings = Vec::new();
    for line in stderr.lines() {
        let d = serde_json::parse_value(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let primary = get(&d, "spans").as_seq().and_then(|s| {
            s.iter()
                .find(|s| matches!(get(s, "is_primary"), Value::Bool(true)))
        });
        let (Some(code), Some(span)) = (get(get(&d, "code"), "code").as_str(), primary) else {
            continue;
        };
        let text = get(span, "text")
            .as_seq()
            .and_then(|t| t.first())
            .unwrap_or(&Value::NULL);
        let excerpt = get(text, "text").as_str().unwrap_or("").to_string();
        let highlight = excerpt
            .get(number(get(text, "highlight_start")) - 1..number(get(text, "highlight_end")) - 1)
            .unwrap_or("")
            .to_string();
        findings.push(Finding {
            code: code.to_string(),
            file: get(span, "file_name").as_str().unwrap_or("").to_string(),
            line: number(get(span, "line_start")),
            excerpt,
            highlight,
        });
    }
    assert_eq!(
        out.status.success(),
        findings.is_empty(),
        "{name}: exit {} does not match the findings:\n{stderr}",
        out.status
    );
    findings.sort_by_key(|f| f.line);
    findings
}

/// `(line, code)` of each finding.
fn report(findings: &[Finding]) -> Vec<(usize, &str)> {
    findings.iter().map(|f| (f.line, f.code.as_str())).collect()
}

/// `src` with each line-leading `expect` attribute commented out, so
/// its lines keep their numbers.
fn without_expect(src: &str) -> String {
    src.lines()
        .map(|l| {
            let comment = if l.starts_with("#[expect(") {
                "// "
            } else {
                ""
            };
            format!("{comment}{l}\n")
        })
        .collect()
}

fn assert_clean(name: &str, src: &str) {
    let f = clippy(name, src);
    assert!(
        f.is_empty(),
        "{name}: {}",
        f.iter().map(|f| format!("\n{f}")).collect::<String>()
    );
}

/// `simcore::hash::IntMap` as the workspace spells it: a fixed hasher,
/// excused from `disallowed_types` with a reason.
const INT_MAP: &str = "#[expect(clippy::disallowed_types, reason = \"a fixed hasher\")]\n\
                       pub type IntMap<K, V> = std::collections::HashMap<\n\
                           K,\n\
                           V,\n\
                           std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>,\n\
                       >;\n";

// ------------------------------------------------------------------ D03

#[test]
fn d03_flags_hashmap_iteration() {
    let src = "use std::collections::HashMap;\n\
               pub struct S { m: HashMap<u32, u32> }\n\
               impl S { pub fn f(&self) -> Vec<u32> { self.m.keys().copied().collect() } }\n";
    let f = clippy("d03_hashmap_iteration", src);
    assert_eq!(
        report(&f),
        [
            (1, "clippy::disallowed_types"),
            (2, "clippy::disallowed_types")
        ]
    );
    assert_eq!(f[1].highlight, "HashMap<u32, u32>");
}

#[test]
fn d03_flags_for_loop_and_borrow_chains() {
    // A `for` loop over the fixed-hasher map: its type is allowed, its
    // walk in hasher order is not.
    let src = format!(
        "{INT_MAP}pub fn walk(m: &IntMap<u32, u32>) -> u32 {{\n\
             let mut sum = 0;\n\
             for (k, v) in m {{ sum += k ^ v; }}\n\
             sum\n\
         }}\n"
    );
    assert_eq!(
        report(&clippy("d03_for_loop", &src)),
        [(9, "clippy::iter_over_hash_type")]
    );
    // A walk through a `RefCell` borrow: the map's type is named where the
    // field is declared.
    let src =
        "pub struct S { devices: std::cell::RefCell<std::collections::HashMap<u32, String>> }\n\
               impl S { pub fn g(&self) -> usize { self.devices.borrow().iter().count() } }\n";
    assert_eq!(
        report(&clippy("d03_borrow_chain", src)),
        [(1, "clippy::disallowed_types")]
    );
}

#[test]
fn d03_flags_through_type_alias() {
    let src =
        "pub type DeviceMap = std::collections::HashMap<(u32, String), std::rc::Rc<dyn Fn()>>;\n\
               pub struct R { devices: DeviceMap }\n\
               impl R { pub fn all(&self) -> usize { self.devices.values().count() } }\n";
    let f = clippy("d03_type_alias", src);
    assert_eq!(report(&f), [(1, "clippy::disallowed_types")]);
    assert!(f[0].excerpt.starts_with("pub type DeviceMap"), "{}", f[0]);
}

#[test]
fn d03_flags_a_chain_rustfmt_split_over_lines() {
    // The manager's reaper as rustfmt prints it: receiver, borrow and
    // `.iter()` each on a line of their own. The lint sees the map's type,
    // so how the walk is laid out does not matter.
    let src =
        "pub struct M { leases: std::cell::RefCell<std::collections::HashMap<usize, u64>> }\n\
               impl M {\n\
                   pub fn expired(&self, now: u64) -> Vec<usize> {\n\
                       self\n\
                           .leases\n\
                           .borrow()\n\
                           .iter()\n\
                           .filter(|&(_, &seen)| now - seen > 600)\n\
                           .map(|(&slot, _)| slot)\n\
                           .collect()\n\
                   }\n\
               }\n";
    let f = clippy("d03_split_chain", src);
    assert_eq!(report(&f), [(1, "clippy::disallowed_types")]);
    assert_eq!(f[0].highlight, "std::collections::HashMap<usize, u64>");
    // Near miss: the same chain over a BTreeMap walks in key order.
    assert_clean(
        "d03_split_chain_btree",
        &src.replace("std::collections::HashMap", "std::collections::BTreeMap"),
    );
}

#[test]
fn d03_ignores_btreemap_and_keyed_access() {
    // Keyed access to the fixed-hasher map reads no order; only a walk
    // over it does.
    let src = format!(
        "{INT_MAP}pub struct S {{ ordered: std::collections::BTreeMap<u32, u32>, keyed: IntMap<u32, u32> }}\n\
         impl S {{\n\
             pub fn a(&self) -> u32 {{ self.ordered.values().sum() }}\n\
             pub fn b(&self) -> Option<&u32> {{ self.keyed.get(&7) }}\n\
             pub fn c(&self, v: &[u32]) -> u32 {{ v.iter().sum() }}\n\
         }}\n"
    );
    assert_clean("d03_btree_and_keyed", &src);
}

#[test]
fn d03_suppression() {
    let src = "#[expect(clippy::disallowed_types, reason = \"results are sorted right after\")]\n\
               pub fn keys(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
                   let mut v: Vec<u32> = m.keys().copied().collect();\n\
                   v.sort_unstable();\n\
                   v\n\
               }\n";
    assert_clean("d03_suppression", src);
    assert_eq!(
        report(&clippy("d03_unsuppressed", &without_expect(src))),
        [(2, "clippy::disallowed_types")]
    );
}

// ------------------------------------------------------------------ D01, D04

#[test]
fn d01_suppressed_inline_and_line_above() {
    let inline = "pub fn profile() -> std::time::Duration {\n\
                      #[expect(clippy::disallowed_methods, reason = \"host-side profiling\")]\n\
                      let t = std::time::Instant::now();\n\
                      t.elapsed()\n\
                  }\n";
    let above = "#[expect(clippy::disallowed_methods, reason = \"host-side profiling\")]\n\
                 pub fn stamp() -> std::time::SystemTime { std::time::SystemTime::now() }\n";
    assert_clean("d01_inline", inline);
    assert_clean("d01_above", above);
    for (name, src, line) in [("d01_inline_bare", inline, 3), ("d01_above_bare", above, 2)] {
        assert_eq!(
            report(&clippy(name, &without_expect(src))),
            [(line, "clippy::disallowed_methods")]
        );
    }
}

#[test]
fn d04_suppression() {
    let src = "#[expect(clippy::disallowed_types, reason = \"the waker must be Send\")]\n\
               pub mod waker {\n\
                   use std::sync::{Arc, Mutex};\n\
                   pub fn new() -> Arc<Mutex<u32>> { Arc::new(Mutex::new(0)) }\n\
               }\n";
    assert_clean("d04_suppression", src);
    assert_eq!(
        report(&clippy("d04_unsuppressed", &without_expect(src))),
        [
            (3, "clippy::disallowed_types"),
            (4, "clippy::disallowed_types"),
            (4, "clippy::disallowed_types")
        ]
    );
}

// ------------------------------------------------------------------ D05

const FABRIC: &str = "pub struct Fabric;\n\
                      impl Fabric {\n\
                          pub fn mem_read(&self, addr: u64) -> Result<u32, String> { Ok(addr as u32) }\n\
                          pub async fn dma_write(&self, addr: u64, data: &[u8]) -> Result<(), String> {\n\
                              if addr as usize > data.len() { Ok(()) } else { Err(String::new()) }\n\
                          }\n\
                      }\n";

#[test]
fn d05_flags_unwrap_on_fabric_results() {
    let src = in_dnvme_lib(&format!(
        "{FABRIC}pub fn f(fabric: &Fabric) -> u32 {{ fabric.mem_read(0).unwrap() }}\n"
    ));
    assert_eq!(
        report(&clippy("d05_unwrap", &src)),
        [(9, "clippy::unwrap_used")]
    );
    // Multi-line statement: the `expect` is lines below the DMA call.
    let src = in_dnvme_lib(&format!(
        "{FABRIC}pub async fn g(fabric: &Fabric, data: &[u8]) {{\n\
             fabric\n\
                 .dma_write(4096, data)\n\
                 .await\n\
                 .expect(\"dma\");\n\
         }}\n"
    ));
    let f = clippy("d05_expect", &src);
    assert_eq!(report(&f), [(10, "clippy::expect_used")]);
}

#[test]
fn d05_suppression() {
    let src = in_dnvme_lib(&format!(
        "{FABRIC}pub fn f(fabric: &Fabric) -> u32 {{\n\
             #[expect(clippy::unwrap_used, reason = \"the address is in the window by construction\")]\n\
             let r = fabric.mem_read(0).unwrap();\n\
             r\n\
         }}\n"
    ));
    assert_clean("d05_suppression", &src);
}

// ------------------------------------------------------------------ D09, D14, D16

#[test]
fn d09_suppression() {
    // `unsafe_code` is `forbid` in the workspace table: no attribute can
    // re-open it, so the old suppression has no counterpart.
    for (name, attr) in [
        ("d09_allow", "#[allow(unsafe_code)]"),
        (
            "d09_expect",
            "#[expect(unsafe_code, reason = \"FFI boundary audited in review\")]",
        ),
    ] {
        let src = format!("{attr}\npub fn f(p: *mut u8) {{ unsafe {{ *p = 0 }} }}\n");
        let f = clippy(name, &src);
        assert_eq!(report(&f)[..1], [(1, "E0453")], "{name}: {f:?}");
    }
}

#[test]
fn d14_suppression() {
    let src = "pub fn io_raw() -> u16 { 0 }\n\
               pub fn flush() {\n\
                   #[expect(unused_variables, reason = \"fire-and-forget flush, the pool is idempotent\")]\n\
                   let status = io_raw();\n\
               }\n";
    assert_clean("d14_suppression", src);
    assert_eq!(
        report(&clippy("d14_unsuppressed", &without_expect(src))),
        [(4, "unused_variables")]
    );
}

#[test]
fn d16_suppression() {
    // The lint can be excused in a fixture; tests/workspace_lints.rs
    // refuses any member's `src` that names it at all.
    let src = "pub async fn tick() {}\n\
               #[expect(clippy::await_holding_refcell_ref, reason = \"exclusive reset path\")]\n\
               pub async fn reset(admin: &std::cell::RefCell<u32>) {\n\
                   let mut a = admin.borrow_mut();\n\
                   tick().await;\n\
                   *a += 1;\n\
               }\n";
    assert_clean("d16_suppression", src);
    assert_eq!(
        report(&clippy("d16_unsuppressed", &without_expect(src))),
        [(4, "clippy::await_holding_refcell_ref")]
    );
}

// ------------------------------------------------------------------ reporting

#[test]
fn patterns_inside_strings_and_comments_do_not_trigger() {
    let src = in_dnvme_lib(
        "// for k in m.keys() over a HashMap would walk in hasher order\n\
         /* std::collections::HashMap is banned */\n\
         pub const MSG: &str = \"no HashMap::new() in sim code\";\n\
         pub const RAW: &str = r#\"fabric.mem_read(h, a, &mut b).unwrap()\"#;\n\
         /// `Instant::now().elapsed().unwrap()` reads the host clock.\n\
         pub fn f() {}\n",
    );
    assert_clean("strings_and_comments", &src);
}

#[test]
fn findings_carry_location_and_excerpt() {
    let src = in_dnvme_lib(&format!(
        "{FABRIC}pub fn ok() {{}}\npub fn f(fabric: &Fabric) -> u32 {{ fabric.mem_read(0).unwrap() }}\n"
    ));
    let f = clippy("location_and_excerpt", &src);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].line, 10);
    assert!(f[0].excerpt.contains("fabric.mem_read"));
    assert_eq!(f[0].highlight, "fabric.mem_read(0).unwrap()");
    assert!(
        f[0].to_string()
            .contains("location_and_excerpt.rs:10: clippy::unwrap_used"),
        "{}",
        f[0]
    );
}

// ------------------------------------------------------ unused excuses
//
// An `#[expect(…, reason)]` that excuses nothing is itself a finding
// (`unfulfilled_lint_expectations`), so `-D warnings` fails once the site
// it excused is gone.

#[test]
fn strict_allow_flags_unused_suppression() {
    let src = in_dnvme_lib(
        "pub fn f() -> u32 {\n\
             #[expect(clippy::unwrap_used, reason = \"nothing here unwraps\")]\n\
             let x = 1;\n\
             x\n\
         }\n",
    );
    let f = clippy("unused_suppression", &src);
    assert_eq!(report(&f), [(3, "unfulfilled_lint_expectations")]);
    assert_eq!(f[0].highlight, "clippy::unwrap_used");
}

#[test]
fn strict_allow_accepts_working_suppression() {
    let src = in_dnvme_lib(&format!(
        "{FABRIC}#[expect(clippy::unwrap_used, reason = \"intentional\")]\n\
         pub fn f(fabric: &Fabric) -> u32 {{ fabric.mem_read(0).unwrap() }}\n"
    ));
    assert_clean("working_suppression", &src);
}

#[test]
fn strict_allow_ignores_prose_placeholders() {
    // An attribute spelled out in documentation is prose, not an excuse.
    let src = in_dnvme_lib(
        "//! Excuse a site with `#[expect(clippy::<lint>, reason = \"…\")]`.\n\
         /// Never `#[expect(clippy::unwrap_used, reason = \"…\")]` here.\n\
         pub fn f() {}\n",
    );
    assert_clean("prose_placeholders", &src);
}

#[test]
fn strict_allow_reports_each_code_of_a_multi_code_comment() {
    // `unwrap_used` fires on the excused function, `disallowed_types`
    // never does: only the second is reported unfulfilled.
    let src = in_dnvme_lib(&format!(
        "{FABRIC}#[expect(clippy::unwrap_used, clippy::disallowed_types, reason = \"both\")]\n\
         pub fn f(fabric: &Fabric) -> u32 {{ fabric.mem_read(0).unwrap() }}\n"
    ));
    let f = clippy("multi_code", &src);
    assert_eq!(report(&f), [(9, "unfulfilled_lint_expectations")]);
    assert_eq!(f[0].highlight, "clippy::disallowed_types");
}

#[test]
fn strict_allow_findings_survive_uncovered() {
    // An excuse covers its own item only: the next function's unwrap
    // still reports, beside no unfulfilled expectation.
    let src = in_dnvme_lib(&format!(
        "{FABRIC}#[expect(clippy::unwrap_used, reason = \"covered\")]\n\
         pub fn f(fabric: &Fabric) -> u32 {{ fabric.mem_read(0).unwrap() }}\n\
         pub fn g(fabric: &Fabric) -> u32 {{ fabric.mem_read(8).unwrap() }}\n"
    ));
    assert_eq!(
        report(&clippy("uncovered", &src)),
        [(11, "clippy::unwrap_used")]
    );
}

#[test]
fn two_code_allow_suppresses_both_findings() {
    // The read is timed with the host clock (D01) and its fabric result
    // unwrapped (D05); one `expect` naming both lints excuses both, and
    // neither is left unfulfilled.
    let src = in_dnvme_lib(&format!(
        "{FABRIC}#[expect(clippy::unwrap_used, clippy::disallowed_methods, reason = \"host-side probe\")]\n\
         pub fn probe(fabric: &Fabric) -> (u32, std::time::Duration) {{\n\
             let t = std::time::Instant::now();\n\
             let head = fabric.mem_read(0).unwrap();\n\
             (head, t.elapsed())\n\
         }}\n"
    ));
    assert_clean("two_codes", &src);
    assert_eq!(
        report(&clippy("two_codes_bare", &without_expect(&src))),
        [
            (11, "clippy::disallowed_methods"),
            (12, "clippy::unwrap_used")
        ]
    );
}
