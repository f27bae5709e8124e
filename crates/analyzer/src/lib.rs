//! # dnvme-analyze — static determinism/protocol lint pass
//!
//! The evaluation rests on DESIGN.md §5's promise of a *deterministic*
//! virtual-time simulation and on a driver that survives injected
//! faults. This crate enforces the source-level half of those promises
//! that nothing else checks, with a dependency-free syntax pass (lexer →
//! token stream → item tree, see `ast`) instead of regexes, so rules can
//! reason about function bodies, call expressions, and statement order.
//!
//! The four rules are the rows of one table, [`RULES`]: code, one-line
//! summary, `--explain` text, the paths the rule binds, and the runner
//! that implements it (`dnvme-lint --explain Dxx` and the README table
//! are the reader-facing views of it). Three families: syntax rules
//! (D03, D05); the call-graph rule on the `interproc` walk (D11, DESIGN
//! §5.4); and the path-sensitive rule on the [`cfg`] control-flow graph
//! (D23, DESIGN §5.5).
//!
//! A rule exists only for what `rustc`, clippy and the tier-1 suite
//! cannot say: D06, D09, D12, D14 and D18 are retired because a private
//! type, two `[workspace.lints]` lines and the fabric accessors'
//! `PhysAddr` parameters reject the same code at `cargo build`; D02
//! because the offline `rand` has no entropy-seeded constructor to call;
//! D01, D04 and D16 because clippy's `disallowed_methods`/
//! `disallowed_types` (paths in the root `clippy.toml`) and
//! `await_holding_refcell_ref` see every site they saw and more; D25
//! because D11 flags every site it flagged; D22 because it was silent on
//! the one function that can store an SQE; and D07, D08, D10, D13, D15,
//! D17, D19, D21 and D24 because a named tier-1 test fails on every
//! behaviour-changing mutant of the bug each claimed (README has the
//! table, EXPERIMENTS.md M2 the mutant matrix).
//!
//! A scan is one pass over its sources: every file is parsed once,
//! every function gets one lazily-built fact set (`FnFacts`: its
//! calls and its CFG) that the call graph and the per-function rule
//! share, and all findings — the call graph's included — go through one
//! suppression accounting.
//!
//! Suppression is one mechanism: an `// lint:allow(Dxx)` comment on the
//! finding's line or the line directly above silences it. A code in such
//! a comment that silences nothing — stale, retired or mistyped — is
//! itself reported, by every scan.
//!
//! The pass runs as the `dnvme-lint` binary (`cargo run -p analyzer`,
//! exit 1 on findings or unused suppressions, `--format github` for CI
//! annotations) and as this crate's `workspace_is_clean` test, so plain
//! `cargo test` gates it.

mod ast;
pub(crate) mod cfg;
mod interproc;

use ast::{Ast, Call, FnItem, Tok, TokKind};
use cfg::Cfg;
use std::cell::OnceCell;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The four lint rules (D01, D02, D04, D06–D10, D12–D22, D24 and D25
/// are retired; the other codes keep their names); `rule as usize`
/// indexes [`RULES`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Rule {
    D03,
    D05,
    D11,
    D23,
}

/// One row of the rule table.
pub struct RuleInfo {
    pub rule: Rule,
    /// The code used in reports and `lint:allow(..)`.
    pub code: &'static str,
    /// One-line description (reports, annotations, SARIF metadata).
    pub summary: &'static str,
    /// Long-form documentation for `dnvme-lint --explain <rule>`: what
    /// the rule flags, why it matters in this codebase, a worked example,
    /// and how to suppress a justified finding.
    pub explain: &'static str,
    scope: Scope,
    run: Runner,
}

/// Which workspace-relative paths a rule binds (prefix match).
enum Scope {
    Under(&'static [&'static str]),
    Everywhere,
}

/// How a rule is evaluated. Callbacks take 1-based lines.
enum Runner {
    /// A walk over the whole file's lines or token stream.
    File(fn(&Ast, &mut dyn FnMut(usize))),
    /// Per function, reading the scan's shared fact set.
    Function(fn(&FnFacts, &mut dyn FnMut(usize))),
    /// Reported by the whole-program [`interproc`] walk, with the call
    /// chain as related locations.
    CallGraph,
}

/// The driver's I/O and manager-serve paths: the crates whose loops must
/// survive injected faults without hanging (the engine prefix covers
/// `engine.rs` and its ring module under `engine/`).
const IO_SCOPE: [&str; 2] = ["crates/core/src", "crates/nvme/src/engine"];
/// Production crates the leak rule binds (src only — tests own their
/// resources on purpose).
const PROD_SCOPE: [&str; 5] = [
    "crates/pcie/src",
    "crates/nvme/src",
    "crates/smartio/src",
    "crates/core/src",
    "crates/nvmeof/src",
];

/// Every rule, in code order.
pub static RULES: [RuleInfo; 4] = [
    RuleInfo {
        rule: Rule::D03,
        code: "D03",
        summary: "order-dependent HashMap/HashSet iteration (hasher order reorders the event stream)",
        explain: "D03 — hasher-ordered iteration\n\n\
                 Flags iteration over `HashMap`/`HashSet` anywhere in the workspace: every\n\
                 crate's code runs under the simulator or feeds its output. Hasher order\n\
                 varies run to run — between two maps built in one process too — so it\n\
                 silently reorders events. The match is on tokens, so a rustfmt'd chain\n\
                 (`self\\n.leases\\n.borrow()\\n.iter()`) counts. Use `BTreeMap`/`BTreeSet`\n\
                 or sort before iterating. Only names bound to a map count, so a map a\n\
                 method returns passes; clippy's `iter_over_hash_type`, denied in\n\
                 the root manifest, sees every `for` loop over one by type.\n\n\
                 Suppress with `// lint:allow(D03)` when the loop provably folds into an\n\
                 order-insensitive value (a sum, a max).",
        scope: Scope::Everywhere,
        run: Runner::File(scan_d03),
    },
    RuleInfo {
        rule: Rule::D05,
        code: "D05",
        summary: "unwrap/expect on a fabric or DMA result in crates/core",
        explain: "D05 — unwrap/expect on fabric or DMA results in crates/core\n\n\
                 Fabric reads and DMA ops fail under fault injection; `.unwrap()` turns an\n\
                 injected fault into a panic instead of an escalation-ladder recovery.\n\
                 Propagate with `?` into the ladder.\n\n\
                 Suppress with `// lint:allow(D05)` for init-time invariants that cannot\n\
                 be injected against (say why in the comment).",
        // Production driver code only: in tests, unwrapping a fabric result
        // *is* the assertion.
        scope: Scope::Under(&["crates/core/src"]),
        run: Runner::File(scan_d05),
    },
    RuleInfo {
        rule: Rule::D11,
        code: "D11",
        summary: "unbounded await on a fabric read / admin RPC in an I/O-path or manager-serve \
                 function (wrap it in simcore::timeout so a lost event escalates, not hangs)",
        explain: "D11 — unbounded blocking await on an I/O or manager path\n\n\
                 Flags `.await` on fabric reads / admin RPCs reachable from datapath or\n\
                 manager-serve roots without a `simcore::timeout` wrapper — awaited\n\
                 directly or through a `let` binding of the call. A lost\n\
                 completion must escalate through the recovery ladder, not hang the\n\
                 reactor. Every such await is flagged, whether or not a sibling path\n\
                 of the same function is guarded.\n\n\
                 Fix:\n    simcore::timeout(&handle, deadline, fabric.cpu_read_u32(host, addr)).await\n\n\
                 Suppress with `// lint:allow(D11)` when an enclosing frame owns the\n\
                 deadline (name the frame in the comment).",
        scope: Scope::Under(&IO_SCOPE),
        run: Runner::CallGraph,
    },
    RuleInfo {
        rule: Rule::D23,
        code: "D23",
        summary: "tag/slot, segment or DMA window acquired but not retired/freed on every \
                 path to exit (leak through ? / early return drains the pool)",
        explain: "D23 — allocation not retired on every path\n\n\
                 Path-sensitive (CFG): a tag/slot acquire, segment creation or DMA-window\n\
                 mapping whose owning function also retires it, but where some path from\n\
                 the acquire to an error exit skips every retire site — the `?`/early-\n\
                 return leak that drains the tag pool or the NTB's LUT under fault\n\
                 injection. Functions with no retire site at all are assumed RAII and\n\
                 skipped.\n\n\
                 Fix by retiring in the error arm (or converting to an RAII guard).\n\
                 Suppress with `// lint:allow(D23)` when ownership transfers out.",
        scope: Scope::Under(&PROD_SCOPE),
        run: Runner::Function(scan_d23),
    },
];

impl Rule {
    fn info(self) -> &'static RuleInfo {
        &RULES[self as usize]
    }

    /// The code used in reports and `lint:allow(..)`.
    pub fn code(self) -> &'static str {
        self.info().code
    }

    pub fn describe(self) -> &'static str {
        self.info().summary
    }
}

/// `--explain` lookup by rule code, case-insensitively.
pub fn explain(code: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|r| r.code.eq_ignore_ascii_case(code))
        .map(|r| r.explain)
}

/// The rules that apply to the file at workspace-relative path `rel`.
pub fn rules_for(rel: &str) -> Vec<Rule> {
    RULES
        .iter()
        .filter(|r| match r.scope {
            Scope::Under(paths) => paths.iter().any(|p| rel.starts_with(p)),
            Scope::Everywhere => true,
        })
        .map(|r| r.rule)
        .collect()
}

/// One hop of an interprocedural finding's explanation: where on the
/// call/flow chain the fact came from.
#[derive(Clone, Debug)]
pub struct Related {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub note: String,
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub excerpt: String,
    /// Call/flow chain for interprocedural findings (empty for the
    /// line/intraprocedural rules), root first.
    pub related: Vec<Related>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}\n    {}",
            self.rule.code(),
            self.path,
            self.line,
            self.rule.describe(),
            self.excerpt.trim()
        )?;
        for r in &self.related {
            write!(f, "\n    via {}:{}: {}", r.path, r.line, r.note)?;
        }
        Ok(())
    }
}

impl Finding {
    /// GitHub Actions annotation line: surfaces inline on PR diffs when
    /// printed from a workflow step. The call chain rides in the message
    /// (annotations are single-location, so the hops are inlined).
    pub fn to_github_annotation(&self) -> String {
        let mut msg = self.rule.describe().to_string();
        for r in &self.related {
            msg.push_str(&format!(" | via {}:{}: {}", r.path, r.line, r.note));
        }
        format!(
            "::error file={},line={},title=dnvme-lint {}::{}",
            self.path,
            self.line,
            self.rule.code(),
            msg.replace('\n', " ")
        )
    }
}

// ---------------------------------------------------------------------
// SARIF output
// ---------------------------------------------------------------------

/// Minimal JSON string escaping for the hand-rolled SARIF writer (the
/// workspace is offline, so no serde here — the report only ever needs
/// strings, integers, and flat arrays).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a scan as a SARIF 2.1.0 report — the schema GitHub code
/// scanning ingests, so findings surface in the Security tab and as PR
/// check annotations. Unused suppressions ride along under the synthetic
/// rule id `unused-allow`. An empty scan still yields a valid report
/// (one run, zero results): CI uploads it unconditionally.
pub fn to_sarif(findings: &[Finding], unused: &[AllowFinding]) -> String {
    let mut rules = RULES
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
                r.code,
                json_escape(r.summary)
            )
        })
        .collect::<Vec<_>>();
    rules.push(
        "{\"id\":\"unused-allow\",\"shortDescription\":{\"text\":\
         \"suppression that suppresses nothing\"}}"
            .to_string(),
    );
    let mut results: Vec<String> = findings
        .iter()
        .map(|f| {
            sarif_result(
                f.rule.code(),
                &format!("{} — {}", f.rule.describe(), f.excerpt.trim()),
                &f.path,
                f.line,
                &f.related,
            )
        })
        .collect();
    results.extend(
        unused
            .iter()
            .map(|u| sarif_result("unused-allow", &u.detail(), &u.path, u.line, &[])),
    );
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"dnvme-lint\",\"informationUri\":\
         \"https://github.com/dnvme/dnvme\",\"rules\":[{}]}}}},\
         \"results\":[{}]}}]}}",
        rules.join(","),
        results.join(",")
    )
}

fn sarif_result(
    rule_id: &str,
    message: &str,
    path: &str,
    line: usize,
    related: &[Related],
) -> String {
    let related_json = if related.is_empty() {
        String::new()
    } else {
        // SARIF `relatedLocations`: GitHub renders them as "related
        // location" links under the alert — the full call chain of an
        // interprocedural finding, root first.
        let hops = related
            .iter()
            .map(|r| {
                format!(
                    "{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
                     \"region\":{{\"startLine\":{}}}}},\"message\":{{\"text\":\"{}\"}}}}",
                    json_escape(&r.path),
                    r.line.max(1),
                    json_escape(&r.note)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(",\"relatedLocations\":[{hops}]")
    };
    format!(
        "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
         \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
         {{\"uri\":\"{}\"}},\"region\":{{\"startLine\":{}}}}}}}]{}}}",
        json_escape(rule_id),
        json_escape(message),
        json_escape(path),
        line,
        related_json
    )
}

// ---------------------------------------------------------------------
// Token helpers (D03)
// ---------------------------------------------------------------------

/// The name of the expression ending just before token `end`, once
/// trailing pass-through calls (`.borrow()`, `.lock()`, …) are stripped:
/// `self.leases.borrow()` names `leases`.
fn receiver_before(toks: &[Tok], mut end: usize) -> Option<&str> {
    const PASS: [&str; 6] = ["borrow", "borrow_mut", "lock", "as_ref", "as_mut", "unwrap"];
    while end >= 4
        && toks[end - 1].punct(')')
        && toks[end - 2].punct('(')
        && PASS.contains(&toks[end - 3].text.as_str())
        && toks[end - 4].punct('.')
    {
        end -= 4;
    }
    let t = toks.get(end.checked_sub(1)?)?;
    (t.kind == TokKind::Ident).then_some(t.text.as_str())
}

/// The name a `HashMap`/`HashSet` mention at token `at` binds: walking
/// back through the statement, the identifier before its `:` (field,
/// parameter or typed `let`) or its `=` (inferred `let`, `type` alias).
/// The flag is set for a `type` alias.
fn map_binder(toks: &[Tok], at: usize) -> Option<(&str, bool)> {
    let ident = |k: usize| {
        let t = &toks[k];
        (t.kind == TokKind::Ident).then_some(t.text.as_str())
    };
    let ends_stmt = |t: &Tok| t.punct(';') || t.punct('{') || t.punct('}');
    let mut depth = 0usize;
    for k in (1..at).rev() {
        let t = &toks[k];
        if t.punct(')') || t.punct(']') {
            depth += 1;
            continue;
        }
        if t.punct('(') || t.punct('[') {
            // At depth 0 the mention sits inside this argument list
            // (`RefCell::new(HashMap::new())`): keep walking out.
            depth = depth.saturating_sub(1);
            continue;
        }
        if depth > 0 {
            continue;
        }
        if ends_stmt(t) || t.punct(',') || t.is("use") {
            return None;
        }
        if t.punct(':') && !toks[k - 1].punct(':') && !toks[k + 1].punct(':') {
            return ident(k - 1).map(|n| (n, false));
        }
        if t.punct('=') && !toks[k + 1].punct('=') && !toks[k + 1].punct('>') {
            let mut stmt = (0..k).rev().take_while(|&j| !ends_stmt(&toks[j]));
            return match stmt.find(|&j| toks[j].is("type")) {
                Some(j) => ident(j + 1).map(|n| (n, true)),
                None => ident(k - 1).map(|n| (n, false)),
            };
        }
    }
    None
}

// ---------------------------------------------------------------------
// Rule vocabulary
// ---------------------------------------------------------------------

/// Methods that walk a map in its iteration order (D03).
const D03_ITER: [&str; 4] = ["iter", "keys", "values", "drain"];
/// Calls whose `Result` encodes a fabric/DMA failure the distributed
/// driver must handle (windows can be torn down under it at any time).
/// Both spellings of a fabric accessor count: the slice form and the
/// owned-`Payload` form (`*_payload`, `mem_snapshot`, `mem_adopt`).
const D05_FABRIC: [&str; 19] = [
    "dma_read(",
    "dma_read_payload(",
    "dma_write(",
    "dma_write_payload(",
    "cpu_read(",
    "cpu_read_u32(",
    "cpu_read_u64(",
    "cpu_write(",
    "cpu_write_payload(",
    "cpu_write_u32(",
    "mem_read(",
    "mem_snapshot(",
    "mem_write(",
    "mem_adopt(",
    "segment_region(",
    "map_for_cpu(",
    "map_for_device(",
    "resolve(",
    "alloc(",
];

/// Awaits that park until a *remote* event arrives (D11): non-posted
/// fabric reads and the admin-queue RPCs. Under fault injection the
/// completing CQE or delivery may never come, so each of these must sit
/// inside a `simcore::timeout` wrapper on the paths that cannot stall.
pub(crate) const D11_BLOCKING: [&str; 11] = [
    "cpu_read",
    "cpu_read_u32",
    "cpu_read_u64",
    "dma_read",
    "dma_read_payload",
    "abort",
    "create_io_qpair",
    "delete_io_qpair",
    "identify_controller",
    "identify_namespace",
    "set_num_queues",
];

/// D23 acquire sites: tag/slot grants, segment creation (plain and
/// placement-hinted), hinted DMA allocations and per-I/O DMA windows.
const D23_ACQUIRE: [&str; 6] = [
    "acquire",
    "acquire_tag",
    "create_segment",
    "create_segment_hinted",
    "alloc_hinted",
    "map_region_for_device",
];
/// D23 retire sites: buffer/tag release calls plus the segment, mapping
/// and tag-table teardown calls.
const D23_RETIRE: [&str; 9] = [
    "free",
    "free_hinted",
    "release",
    "retire",
    "recycle",
    "destroy_segment",
    "unmap_device",
    "unmap_cpu",
    "complete",
];

// ---------------------------------------------------------------------
// The scanner
// ---------------------------------------------------------------------

/// One function's analysis products, each built on first use and then
/// shared by every reader in the scan: its call list (D11's sites and
/// the call graph, D23's acquires and retires) and its CFG (D23).
pub(crate) struct FnFacts<'a> {
    pub ast: &'a Ast,
    pub f: &'a FnItem,
    calls: OnceCell<Vec<Call>>,
    cfg: OnceCell<Cfg>,
}

impl<'a> FnFacts<'a> {
    fn new(ast: &'a Ast, f: &'a FnItem) -> Self {
        FnFacts {
            ast,
            f,
            calls: OnceCell::new(),
            cfg: OnceCell::new(),
        }
    }

    /// Call expressions in the body, in token order.
    pub(crate) fn calls(&self) -> &[Call] {
        self.calls.get_or_init(|| {
            #[cfg(test)]
            tests::count("calls");
            self.ast.calls_in(self.f.body)
        })
    }

    pub(crate) fn cfg(&self) -> &Cfg {
        self.cfg.get_or_init(|| Cfg::build(self.ast, self.f))
    }
}

/// One parsed file inside a scan: what the per-file rules and the
/// whole-program call graph both read.
pub(crate) struct SourceFile<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    pub rules: &'a [Rule],
    pub ast: &'a Ast,
    /// One fact set per `ast.functions` entry.
    pub fns: Vec<FnFacts<'a>>,
    raw_lines: Vec<&'a str>,
}

/// One source file's scan: the findings that survived suppression, plus
/// every `lint:allow` code that suppressed nothing.
pub struct SourceScan {
    pub findings: Vec<Finding>,
    pub unused: Vec<AllowFinding>,
}

/// A `lint:allow` code that suppresses nothing. A stale one hides
/// nothing today and will silently hide a real finding tomorrow; a
/// retired or mistyped one was never honoured.
#[derive(Clone, Debug)]
pub struct AllowFinding {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line of the comment.
    pub line: usize,
    pub code: String,
}

impl AllowFinding {
    fn detail(&self) -> String {
        let why = match explain(&self.code) {
            Some(_) => "suppresses nothing",
            None => "names no rule (retired or mistyped)",
        };
        format!("lint:allow({}) {why} — remove it", self.code)
    }

    /// GitHub Actions annotation line (see [`Finding::to_github_annotation`]).
    pub fn to_github_annotation(&self) -> String {
        format!(
            "::error file={},line={},title=dnvme-lint unused-allow::{}",
            self.path,
            self.line,
            self.detail()
        )
    }
}

impl fmt::Display for AllowFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unused-allow {}:{}: {}",
            self.path,
            self.line,
            self.detail()
        )
    }
}

/// Scan one source text with the given rules; `lint:allow` suppressions
/// apply.
pub fn scan_source(rel: &str, text: &str, rules: &[Rule]) -> Vec<Finding> {
    scan_source_strict(rel, text, rules).findings
}

/// Like [`scan_source`], but also reports which suppression comments
/// never fired.
pub fn scan_source_strict(rel: &str, text: &str, rules: &[Rule]) -> SourceScan {
    scan_program(&[(rel, text, rules.to_vec())]).0.remove(0)
}

/// Multi-file twin of [`scan_source`]: scan in-memory sources as one
/// program, so fixtures can exercise findings that only exist through
/// cross-file call chains (free helpers, trait-impl dispatch).
pub fn scan_sources(files: &[(&str, &str, Vec<Rule>)]) -> Vec<Finding> {
    merge_findings(scan_program(files).0)
}

/// All files' findings, sorted by `(path, line, rule)`.
fn merge_findings(scans: Vec<SourceScan>) -> Vec<Finding> {
    let mut findings: Vec<Finding> = scans.into_iter().flat_map(|s| s.findings).collect();
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.code()).cmp(&(b.path.as_str(), b.line, b.rule.code()))
    });
    findings
}

/// The one scan driver: `(path, text, rules)` sources in, one
/// [`SourceScan`] per source out (input order), plus the scan's
/// counters. Each file is parsed once and each function gets one
/// [`FnFacts`]; the whole-program call graph (built only when some file
/// carries D11) and the per-file rules read the same sets, and its
/// findings pass through the same `lint:allow` accounting as the rest.
fn scan_program(inputs: &[(&str, &str, Vec<Rule>)]) -> (Vec<SourceScan>, ScanStats) {
    let asts: Vec<Ast> = inputs.iter().map(|(_, text, _)| Ast::parse(text)).collect();
    let files: Vec<SourceFile> = inputs
        .iter()
        .zip(&asts)
        .map(|((rel, text, rules), ast)| SourceFile {
            rel,
            rules,
            ast,
            fns: ast.functions.iter().map(|f| FnFacts::new(ast, f)).collect(),
            raw_lines: text.lines().collect(),
        })
        .collect();
    let wants_graph = |r: &Rule| matches!(r.info().run, Runner::CallGraph);
    let mut graph: Vec<Vec<Finding>> = files.iter().map(|_| Vec::new()).collect();
    if files.iter().any(|f| f.rules.iter().any(wants_graph)) {
        for pf in interproc::Program::build(&files).findings() {
            let hop = |(file, line, note): (usize, usize, String)| Related {
                path: files[file].rel.to_string(),
                line,
                note,
            };
            graph[pf.file].push(Finding {
                rule: pf.rule,
                path: files[pf.file].rel.to_string(),
                line: pf.line,
                excerpt: String::new(),
                related: pf.related.into_iter().map(hop).collect(),
            });
        }
    }
    let scans = files
        .iter()
        .zip(graph)
        .map(|(file, graph)| scan_file(file, graph))
        .collect();
    let stats = ScanStats {
        files: inputs.len(),
        functions: files.iter().map(|f| f.fns.len()).sum(),
    };
    (scans, stats)
}

/// A file's findings under construction, with its suppressions: every
/// `lint:allow(..)` code with the 1-based line of its comment. A
/// suppression covers its own line and the line below.
struct Report<'a> {
    file: &'a SourceFile<'a>,
    /// `(line, code, used)`.
    sups: Vec<(usize, &'a str, bool)>,
    findings: Vec<Finding>,
}

impl Report<'_> {
    /// Record a finding of `rule` at `line` unless a suppression covers
    /// it (every covering suppression is marked used) or the same
    /// `(rule, line)` is already reported.
    fn hit(&mut self, rule: Rule, line: usize, related: Vec<Related>) {
        let mut suppressed = false;
        for (at, code, used) in &mut self.sups {
            if *code == rule.code() && (*at == line || *at + 1 == line) {
                *used = true;
                suppressed = true;
            }
        }
        if !suppressed
            && !self
                .findings
                .iter()
                .any(|f| f.rule == rule && f.line == line)
        {
            self.findings.push(Finding {
                rule,
                path: self.file.rel.to_string(),
                line,
                excerpt: self
                    .file
                    .raw_lines
                    .get(line - 1)
                    .copied()
                    .unwrap_or("")
                    .to_string(),
                related,
            });
        }
    }
}

/// Run one file's rules off the rule table and merge its share of the
/// call graph's findings.
fn scan_file(file: &SourceFile, graph: Vec<Finding>) -> SourceScan {
    let lines = &file.ast.lines;
    let mut sups = Vec::new();
    for (idx, (_, comment)) in lines.iter().enumerate() {
        for rest in comment.split("lint:allow(").skip(1) {
            let inside = rest.split(')').next().unwrap_or("");
            // Anything shaped like a rule code is tracked. A retired or
            // mistyped code matches no finding, so it is never honoured
            // and is reported as unused; prose like
            // `lint:allow(Dxx)` in docs is not a suppression.
            for code in inside
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|s| {
                    s.len() == 3 && s.starts_with('D') && s[1..].bytes().all(|b| b.is_ascii_digit())
                })
            {
                sups.push((idx + 1, code, false));
            }
        }
    }
    let mut rep = Report {
        file,
        sups,
        findings: Vec::new(),
    };
    for &rule in file.rules {
        match rule.info().run {
            Runner::File(run) => run(file.ast, &mut |line| {
                rep.hit(rule, line, Vec::new());
            }),
            Runner::Function(run) => {
                for facts in &file.fns {
                    run(facts, &mut |line| {
                        rep.hit(rule, line, Vec::new());
                    });
                }
            }
            Runner::CallGraph => {} // merged below
        }
    }
    for f in graph {
        if file.rules.contains(&f.rule) {
            rep.hit(f.rule, f.line, f.related);
        }
    }
    rep.findings
        .sort_by(|a, b| (a.line, a.rule.code()).cmp(&(b.line, b.rule.code())));
    SourceScan {
        findings: rep.findings,
        unused: rep
            .sups
            .into_iter()
            .filter(|s| !s.2)
            .map(|(line, code, _)| AllowFinding {
                path: file.rel.to_string(),
                line,
                code: code.to_string(),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Syntax rules
// ---------------------------------------------------------------------

/// D03: iteration over an identifier bound to a `HashMap`/`HashSet` (or
/// an alias of one) — `.iter()`/`.keys()`/`.values()`/`.drain(..)`
/// through pass-through chains, and `for x in &map`. The match is on
/// tokens, so a chain rustfmt split over several lines is one expression.
fn scan_d03(ast: &Ast, hit: &mut dyn FnMut(usize)) {
    let toks = &ast.tokens;
    // Pass 1: identifiers bound to HashMap/HashSet (or aliases).
    let mut map_names: Vec<&str> = Vec::new();
    let mut aliases: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let map_type = t.is("HashMap") || t.is("HashSet") || aliases.contains(&t.text.as_str());
        if t.kind != TokKind::Ident || !map_type {
            continue;
        }
        match map_binder(toks, i) {
            Some((name, true)) => aliases.push(name),
            Some((name, false)) if !map_names.contains(&name) => map_names.push(name),
            _ => {}
        }
    }
    let is_map = |name: Option<&str>| name.is_some_and(|n| map_names.contains(&n));
    // Pass 2: order-dependent walks over those names.
    for (i, t) in toks.iter().enumerate() {
        // `map.iter()` (and through `.borrow()` chains).
        if D03_ITER.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].punct('.')
            && toks.get(i + 1).is_some_and(|n| n.punct('('))
            && is_map(receiver_before(toks, i - 1))
        {
            hit(t.line);
        }
        // `for x in &map` / `for x in map`: the head between `in` and the
        // body's `{`.
        if t.is("for") && t.kind == TokKind::Ident {
            let ends_head = |k: &usize| toks[*k].punct('{') || toks[*k].punct(';');
            let Some(open) = (i + 1..toks.len()).find(ends_head) else {
                continue;
            };
            let in_at = (i + 1..open).find(|&k| toks[k].is("in"));
            if in_at.is_some_and(|k| k + 1 < open) && is_map(receiver_before(toks, open)) {
                hit(t.line);
            }
        }
    }
}

/// D05: `.unwrap()`/`.expect(` on a line whose statement (a rolling
/// window up to the last `;`/`{`/`}`) mentions a fabric/DMA call.
fn scan_d05(ast: &Ast, hit: &mut dyn FnMut(usize)) {
    let mut stmt = String::new();
    for (idx, (code, _)) in ast.lines.iter().enumerate() {
        stmt.push(' ');
        stmt.push_str(code);
        if (code.contains(".unwrap()") || code.contains(".expect("))
            && D05_FABRIC.iter().any(|p| stmt.contains(p))
        {
            hit(idx + 1);
        }
        if matches!(code.trim_end().chars().next_back(), Some(';' | '{' | '}')) {
            stmt.clear();
        }
    }
}

// ---------------------------------------------------------------------
// The path-sensitive leak rule (D23)
// ---------------------------------------------------------------------

/// First identifier token inside a range (e.g. the leading argument of
/// a call) — the coarse resource key D23 pairs acquires and retires by
/// when there is no `let` binding to match on.
fn first_ident_in(ast: &Ast, range: (usize, usize)) -> Option<&str> {
    ast.tokens[range.0..range.1.min(ast.tokens.len())]
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// D23: an acquire whose resource the function *does* retire on some
/// path, but where an **error exit** (a `?` edge or a `return`
/// mentioning `Err`) is reachable from the acquire without passing any
/// retire of that same resource — the `?`/early-return leak. Pairing
/// is by the acquire's `let` binding appearing in the retire's
/// arguments, or (bindingless acquires like
/// `smartio.acquire(device, …)?;`) by equal receiver and leading
/// argument. Acquires with no paired retire at all are skipped
/// (ownership moved into an RAII guard, a struct, or the caller), and
/// success-path exits never count: returning the live resource is the
/// point of the function.
fn scan_d23(facts: &FnFacts, hit: &mut dyn FnMut(usize)) {
    let (ast, f) = (facts.ast, facts.f);
    let named = |names: &[&str]| -> Vec<&ast::Call> {
        let calls = facts.calls().iter();
        calls.filter(|c| names.contains(&c.name.as_str())).collect()
    };
    let (acquires, retires) = (named(&D23_ACQUIRE), named(&D23_RETIRE));
    if acquires.is_empty() || retires.is_empty() {
        return;
    }
    let cfg = facts.cfg();
    // Error exits: every `?` (its block has an edge to exit at that
    // position) and every `return` whose statement mentions `Err`.
    let mut err_exits: Vec<usize> = Vec::new();
    for i in f.body.0..f.body.1.min(ast.tokens.len()) {
        let t = &ast.tokens[i];
        if t.punct('?') {
            err_exits.push(i);
        } else if t.kind == TokKind::Ident && t.is("return") {
            let e = ast.stmt_end(i + 1, f.body.1);
            if ast.any_ident_in((i, e), |id| id == "Err") {
                err_exits.push(i);
            }
        }
    }
    for c in &acquires {
        let Some(ab) = cfg.block_of(c.args.0) else {
            continue;
        };
        if !cfg.reachable(ab) {
            continue;
        }
        let binding = ast.binding_for(c.args.0);
        let paired: Vec<&&ast::Call> = retires
            .iter()
            .filter(|r| match binding {
                Some(b) => ast.any_ident_in(r.args, |id| id == b),
                None => {
                    r.receiver == c.receiver
                        && first_ident_in(ast, r.args) == first_ident_in(ast, c.args)
                }
            })
            .collect();
        // Some paired retire must be reachable from the acquire:
        // a resource this function never retires downstream is an
        // ownership transfer, not a leak candidate.
        if !paired.iter().any(|r| {
            cfg.block_of(r.args.0)
                .is_some_and(|rb| cfg.site_reaches_site((ab, c.args.0), (rb, r.args.0), &[]))
        }) {
            continue;
        }
        // Path query from the end of the acquire's own statement
        // (its own `?`-failure acquired nothing) to each error
        // exit, with the paired retires as blockers.
        let q = ast.stmt_end(c.args.1 + 1, f.body.1).min(f.body.1 - 1);
        let Some(from_pos) = (c.args.0..=q).rev().find(|&k| cfg.block_of(k).is_some()) else {
            continue;
        };
        let from_block = cfg.block_of(from_pos).unwrap_or(ab);
        let blockers: Vec<usize> = paired.iter().map(|r| r.args.0).collect();
        let leaks = err_exits.iter().any(|&e| {
            e > from_pos
                && cfg.block_of(e).is_some_and(|eb| {
                    cfg.site_reaches_site((from_block, from_pos), (eb, e), &blockers)
                })
        });
        if leaks {
            hit(c.line);
        }
    }
}

// ---------------------------------------------------------------------
// Workspace scans
// ---------------------------------------------------------------------

/// The workspace root this crate was built from.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("analyzer lives two levels below the workspace root")
        .to_path_buf()
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_sources(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` source of the workspace members — each directory under
/// `crates/` with a `Cargo.toml` of its own, plus the `tests/` and
/// `examples/` they build — as `(workspace-relative path with forward
/// slashes, text)`, in walk order. The workspace-excluded dependency
/// shims have no manifest directly under `crates/` and are not walked.
fn workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    members.retain(|dir| dir.join("Cargo.toml").is_file());
    members.sort();
    members.extend(["tests", "examples"].map(|top| root.join(top)));
    let mut paths = Vec::new();
    for dir in members.iter().filter(|d| d.is_dir()) {
        collect_sources(dir, &mut paths)?;
    }
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, fs::read_to_string(&path)?));
    }
    Ok(files)
}

/// Counters from a workspace scan, for the `BENCH_lint.json`
/// self-benchmark.
#[derive(Copy, Clone, Debug)]
pub struct ScanStats {
    /// Source files the workspace walk visited.
    pub files: usize,
    /// Functions in those files — one fact set each.
    pub functions: usize,
}

/// The outcome of a workspace scan.
pub struct WorkspaceScan {
    /// Sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
    /// Every `lint:allow` code that suppressed nothing, in walk order.
    pub unused: Vec<AllowFinding>,
    pub stats: ScanStats,
}

/// Scan every workspace source (`workspace_files`) under the per-path
/// rule scopes.
pub fn scan_workspace(root: &Path) -> io::Result<WorkspaceScan> {
    let files = workspace_files(root)?;
    let inputs: Vec<(&str, &str, Vec<Rule>)> = files
        .iter()
        .map(|(rel, text)| (rel.as_str(), text.as_str(), rules_for(rel)))
        .collect();
    let (mut scans, stats) = scan_program(&inputs);
    let unused = scans.iter_mut().flat_map(|s| s.unused.drain(..)).collect();
    Ok(WorkspaceScan {
        findings: merge_findings(scans),
        unused,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    thread_local! {
        /// How often this thread built each analysis product
        /// ("parse", "calls", "cfg").
        static BUILDS: RefCell<BTreeMap<&'static str, usize>> = RefCell::default();
    }

    pub(crate) fn count(what: &'static str) {
        BUILDS.with(|b| *b.borrow_mut().entry(what).or_default() += 1);
    }

    /// One parse per file and one fact set per function: a scan with
    /// every rule on (the call graph and D11's sites both reading every
    /// call list, D23 the calls and the CFG) builds each call list
    /// exactly once, and a CFG only for the one function with both an
    /// acquire and a retire.
    #[test]
    fn scan_parses_each_file_once_and_builds_facts_once_per_function() {
        let a = "async fn submit(&self, s: &SmartIo, qp: &Qp) -> Result<()> {\n    \
                 let seg = s.create_segment(h, 64)?;\n    helper(qp)?;\n    \
                 s.destroy_segment(seg)?;\n    Ok(())\n}\n\
                 fn helper(qp: &Qp) -> Result<()> { Ok(()) }\n";
        let b = "async fn poll(&self) { self.admin.abort(1, 2).await; }\n";
        let all: Vec<Rule> = RULES.iter().map(|r| r.rule).collect();
        BUILDS.with(|b| b.borrow_mut().clear());
        let findings = scan_sources(&[
            ("crates/core/src/a.rs", a, all.clone()),
            ("crates/core/src/b.rs", b, all),
        ]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        let builds = BUILDS.with(|b| b.borrow().clone());
        assert_eq!(builds["parse"], 2, "{builds:?}");
        assert_eq!(builds["calls"], 3, "three functions: {builds:?}");
        assert_eq!(builds["cfg"], 1, "{builds:?}");
    }

    /// The table is indexed by `rule as usize`, and the README's rule
    /// table and `--explain` cover exactly its rows.
    #[test]
    fn rule_table_readme_and_explain_agree() {
        for (i, r) in RULES.iter().enumerate() {
            assert_eq!(r.rule as usize, i);
            assert_eq!(r.code, format!("{:?}", r.rule));
            assert!(!r.summary.is_empty());
        }
        let readme = fs::read_to_string(workspace_root().join("README.md")).expect("README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| D"))
            .filter_map(|l| l.split(" |").next())
            .collect();
        let codes: Vec<&str> = RULES.iter().map(|r| &r.code[1..]).collect();
        assert_eq!(rows, codes, "README rule table drifted from RULES");
        for row in rows {
            let text = explain(&format!("d{row}")).expect("--explain covers every README row");
            assert!(text.starts_with(&format!("D{row} — ")), "{text}");
        }
        for gone in [
            "D01", "D02", "D04", "D06", "D07", "D08", "D09", "D10", "D12", "D13", "D14", "D15",
            "D16", "D17", "D18", "D19", "D20", "D21", "D22", "D24", "D25", "D26",
        ] {
            assert!(explain(gone).is_none(), "{gone} is not a rule");
        }
    }

    /// Tier-1 gate: the workspace must be lint-clean — no finding, and no
    /// `lint:allow` that suppresses nothing.
    #[test]
    fn workspace_is_clean() {
        let scan = scan_workspace(&workspace_root()).expect("workspace scan");
        let report: Vec<String> = (scan.findings.iter().map(|f| f.to_string()))
            .chain(scan.unused.iter().map(|u| u.to_string()))
            .collect();
        assert!(
            report.is_empty(),
            "dnvme-lint found {} finding(s), {} unused suppression(s):\n{}",
            scan.findings.len(),
            scan.unused.len(),
            report.join("\n")
        );
    }

    #[test]
    fn rule_scoping_follows_crate_layout() {
        // D03 binds every crate: all of them run under the executor.
        assert!(rules_for("crates/pcie/src/fabric.rs").contains(&Rule::D03));
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D03));
        assert!(rules_for("crates/cluster/src/scenario.rs").contains(&Rule::D03));
        assert!(rules_for("tests/model_check.rs").contains(&Rule::D03));
        // D05 binds the distributed driver's production code only.
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D05));
        assert!(!rules_for("crates/core/tests/dnvme_e2e.rs").contains(&Rule::D05));
        assert!(!rules_for("crates/nvme/src/ctrl.rs").contains(&Rule::D05));
        // D11 binds the production I/O/serve paths, not tests (a test
        // awaiting an admin RPC unwrapped is the test's business).
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D11));
        assert!(rules_for("crates/core/src/client.rs").contains(&Rule::D11));
        assert!(rules_for("crates/nvme/src/engine.rs").contains(&Rule::D11));
        assert!(rules_for("crates/nvme/src/engine/sq.rs").contains(&Rule::D11));
        assert!(!rules_for("crates/nvme/src/ctrl.rs").contains(&Rule::D11));
        assert!(!rules_for("tests/fault_injection.rs").contains(&Rule::D11));
        // D23 binds the production sources of the four address-typed
        // crates plus nvmeof — not their tests, not the sim/cluster
        // scaffolding, not the explore fixture deck.
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D23));
        assert!(rules_for("crates/nvme/src/queue.rs").contains(&Rule::D23));
        assert!(rules_for("crates/nvmeof/src/target.rs").contains(&Rule::D23));
        assert!(!rules_for("crates/explore/src/fixtures.rs").contains(&Rule::D23));
        assert!(!rules_for("crates/nvme/tests/engine.rs").contains(&Rule::D23));
        assert!(!rules_for("crates/cluster/src/scenario.rs").contains(&Rule::D23));
        assert!(!rules_for("tests/sanitize.rs").contains(&Rule::D23));
    }

    #[test]
    fn sarif_report_is_well_formed() {
        let scan = scan_source_strict(
            "crates/fixture/src/lib.rs",
            "let m = HashMap::new(); // lint:allow(D05)\n\
             for k in m.keys() { log(\"now\", k); }\n",
            &[Rule::D03, Rule::D05],
        );
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.unused.len(), 1);
        let sarif = to_sarif(&scan.findings, &scan.unused);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"name\":\"dnvme-lint\""));
        assert!(sarif.contains("\"ruleId\":\"D03\""));
        assert!(sarif.contains("\"ruleId\":\"unused-allow\""));
        assert!(sarif.contains("\"uri\":\"crates/fixture/src/lib.rs\""));
        assert!(sarif.contains("\"startLine\":1"));
        assert!(sarif.contains("\"startLine\":2"));
        // Every rule is declared, and the excerpt's quotes are escaped.
        for r in &RULES {
            assert!(sarif.contains(&format!("\"id\":\"{}\"", r.code)));
        }
        assert!(sarif.contains("\\\"now\\\""));
        // Balanced braces/brackets outside strings — a cheap syntactic
        // sanity check on the hand-rolled writer.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in sarif.chars() {
            match c {
                _ if esc => esc = false,
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
