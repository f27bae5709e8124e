//! # dnvme-analyze — static determinism/protocol lint pass
//!
//! The evaluation rests on DESIGN.md §5's promise of a *deterministic*
//! virtual-time simulation and on the paper's PCIe ordering discipline
//! (posted writes only on the data path, SQ/CQ placement per Fig. 8).
//! This crate enforces the source-level half of those promises with a
//! dependency-free syntax pass (lexer → token stream → item tree, see
//! [`ast`]) instead of regexes, so rules can reason about function
//! bodies, call expressions, and statement order.
//!
//! The nineteen rules are the rows of one table, [`RULES`]: code,
//! one-line summary, `--explain` text, the paths the rule binds, and
//! the runner that implements it (`dnvme-lint --explain Dxx` and the
//! README table are the reader-facing views of it). Four families:
//! line/syntax rules (D01–D05, D08, D10); the domain, interval and guard
//! rules on the [`dataflow`] def-use engine and its abstract values
//! (D13, D15, D16, DESIGN §5.3); the interprocedural rules on the
//! [`interproc`] summary engine (D19, plus D13's helper-return
//! completion, with D07/D11/D17/D21 walking the same call graph, DESIGN
//! §5.4); and the path-sensitive rules on the [`cfg`] control-flow graph
//! (D22–D25, DESIGN §5.5).
//!
//! A rule exists only for what `rustc` cannot say: D06, D09, D12, D14 and
//! D18 are retired because a private type, two `[workspace.lints]` lines
//! and the fabric accessors' `PhysAddr` parameters reject the same code at
//! `cargo build`, with no `lint:allow` escape (README has the table).
//!
//! A scan is one pass over its sources: every file is parsed once,
//! every function gets one lazily-built fact set
//! ([`dataflow::FnFacts`]: calls, def-use chains, CFG, abstract values,
//! and the per-call site table) that the summary extractor and every
//! per-function rule share, and
//! all findings — engine findings included — go through one
//! suppression accounting.
//!
//! Suppression: an `// lint:allow(Dxx)` comment on the finding's line or
//! the line directly above silences it; `analyzer.toml` at the workspace
//! root allowlists paths per rule (`"*"` = every rule); a path covers
//! itself and everything below it.
//!
//! The pass runs as the `dnvme-lint` binary (`cargo run -p analyzer`,
//! exit 1 on findings, `--format github` for CI annotations) and as this
//! crate's `workspace_is_clean` test, so plain `cargo test` gates it.

mod ast;
pub(crate) mod cfg;
pub mod dataflow;
mod interproc;

use ast::{Ast, TokKind};
use cfg::Cfg;
use dataflow::FnFacts;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The nineteen lint rules (D06, D09, D12, D14, D18 and D20 are retired;
/// the other codes keep their names); `rule as usize` indexes [`RULES`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Rule {
    D01,
    D02,
    D03,
    D04,
    D05,
    D07,
    D08,
    D10,
    D11,
    D13,
    D15,
    D16,
    D17,
    D19,
    D21,
    D22,
    D23,
    D24,
    D25,
}

/// One row of the rule table.
pub struct RuleInfo {
    pub rule: Rule,
    /// The code used in reports, `analyzer.toml`, and `lint:allow(..)`.
    pub code: &'static str,
    /// One-line description (reports, annotations, SARIF metadata).
    pub summary: &'static str,
    /// Long-form documentation for `dnvme-lint --explain <rule>`: what
    /// the rule flags, why it matters in this codebase, a worked example,
    /// and how to suppress a justified finding.
    pub explain: &'static str,
    scope: Scope,
    run: &'static [Runner],
}

/// Which workspace-relative paths a rule binds (prefix match).
enum Scope {
    Under(&'static [&'static str]),
    Everywhere,
}

/// How a rule is evaluated. Callbacks take 1-based lines.
enum Runner {
    /// Any of these tokens on a sanitized code line.
    Patterns(&'static [&'static str]),
    /// A walk over the whole file's lines or token stream.
    File(fn(&Ast, &mut dyn FnMut(usize))),
    /// Per function, reading the scan's shared fact set.
    Function(fn(&FnFacts, &mut dyn FnMut(usize))),
    /// Reported by the whole-program [`interproc`] engine, with the call
    /// chain as related locations.
    Engine,
}

/// Crates whose state is reachable from simulation tasks: hasher-ordered
/// iteration here changes the event stream between runs.
pub const SIM_VISIBLE: [&str; 6] = [
    "crates/simcore",
    "crates/pcie",
    "crates/smartio",
    "crates/nvme",
    "crates/blklayer",
    "crates/nvmeof",
];
/// Files whose I/O paths the paper's read-free discipline binds (the
/// engine prefix covers `engine.rs` and its ring module under `engine/`).
const IO_SCOPE: [&str; 2] = ["crates/core/src", "crates/nvme/src/engine"];
/// Production crates the dataflow, interprocedural address/lock and
/// path-sensitive rules bind (src only — tests assert through raw values
/// on purpose).
const DF_SCOPE: [&str; 5] = [
    "crates/pcie/src",
    "crates/nvme/src",
    "crates/smartio/src",
    "crates/core/src",
    "crates/nvmeof/src",
];

/// Every rule, in code order.
pub static RULES: [RuleInfo; 19] = [
    RuleInfo {
        rule: Rule::D01,
        code: "D01",
        summary: "wall-clock time in simulation code (virtual clock only)",
        explain: "D01 — wall-clock time in simulation code\n\n\
                 Flags `std::time::Instant/SystemTime` (and friends) inside crates that run\n\
                 under the discrete-event simulator. Sim time is the virtual clock; reading\n\
                 the host clock makes traces non-reproducible.\n\n\
                 Example:\n    let t0 = std::time::Instant::now();      // D01\n    \
                 let t0 = ctx.now();                      // ok: virtual nanos\n\n\
                 Suppress with `// lint:allow(D01)` on or above the line — justified only\n\
                 in host-side tooling that never runs under the simulator.",
        scope: Scope::Everywhere,
        run: &[Runner::Patterns(&[
            "std::time::Instant",
            "std::time::SystemTime",
            "std::thread::sleep",
            "use std::time",
        ])],
    },
    RuleInfo {
        rule: Rule::D02,
        code: "D02",
        summary: "entropy-seeded RNG (streams must be seed-derived)",
        explain: "D02 — entropy-seeded RNG\n\n\
                 Flags RNG construction from OS entropy (`thread_rng`, `from_entropy`, ...).\n\
                 Every random stream must derive from the run seed so a schedule token\n\
                 replays byte-identically.\n\n\
                 Example:\n    let mut rng = rand::thread_rng();        // D02\n    \
                 let mut rng = ctx.rng_stream(\"arb\");     // ok: seed-derived\n\n\
                 Suppress with `// lint:allow(D02)` — essentially never justified in\n\
                 sim-visible code.",
        scope: Scope::Everywhere,
        run: &[Runner::Patterns(&["thread_rng", "from_entropy", "rand::random"])],
    },
    RuleInfo {
        rule: Rule::D03,
        code: "D03",
        summary: "order-dependent HashMap/HashSet iteration in sim-visible code",
        explain: "D03 — hasher-ordered iteration in sim-visible code\n\n\
                 Flags iteration over `HashMap`/`HashSet` in crates whose state feeds the\n\
                 event stream. Hasher order varies run to run, so it silently reorders\n\
                 events. Use `BTreeMap`/`BTreeSet` or sort before iterating.\n\n\
                 Suppress with `// lint:allow(D03)` when the loop provably folds into an\n\
                 order-insensitive value (a sum, a max).",
        scope: Scope::Under(&SIM_VISIBLE),
        run: &[Runner::File(scan_d03)],
    },
    RuleInfo {
        rule: Rule::D04,
        code: "D04",
        summary: "OS thread / raw Mutex in DES-driven code",
        explain: "D04 — OS thread / raw Mutex in DES-driven code\n\n\
                 Flags `std::thread::spawn` and `std::sync::{Mutex,RwLock,Condvar}` in\n\
                 simulator-scheduled crates. Real threads race the virtual clock; blocking\n\
                 a reactor on a kernel mutex deadlocks the single-threaded scheduler.\n\
                 Use simcore tasks and `RefCell`/`LocalKey` state instead.\n\n\
                 Suppress with `// lint:allow(D04)` only in host-side harness code.",
        scope: Scope::Everywhere,
        run: &[Runner::Patterns(&[
            "std::thread::spawn",
            "thread::spawn(",
            "thread::scope(",
            "std::sync::Mutex",
            "Mutex<",
        ])],
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
        run: &[Runner::File(scan_d05)],
    },
    RuleInfo {
        rule: Rule::D07,
        code: "D07",
        summary: "non-posted fabric read reachable from an I/O-path function (stalls a full NTB RTT)",
        explain: "D07 — non-posted fabric read on an I/O path\n\n\
                 Interprocedural: flags `cpu_read*`/`dma_read` reachable from a\n\
                 submit/poll/complete root. A non-posted read stalls the caller for a full\n\
                 NTB round trip; the datapath must stay posted-write-only (the paper's\n\
                 core latency argument).\n\n\
                 Example: submit() -> refresh_head() -> fabric.cpu_read_u32(db)   // D07\n\n\
                 Suppress with `// lint:allow(D07)` at the read site when the root is\n\
                 provably cold (slow-path recovery only).",
        scope: Scope::Under(&IO_SCOPE),
        run: &[Runner::Engine],
    },
    RuleInfo {
        rule: Rule::D08,
        code: "D08",
        summary: "SQE store after the doorbell ring in the same function (device may fetch early)",
        explain: "D08 — SQE store after the doorbell ring\n\n\
                 Within one function, flags a store into an SQE slot that happens after\n\
                 the doorbell write. The device may fetch the entry the moment the\n\
                 doorbell lands, reading a half-written command.\n\n\
                 Example:\n    sq.ring_doorbell(tail);\n    \
                 sq.slot_mut(tail).cdw0 = opcode;   // D08: device may already have fetched\n\n\
                 Fix by completing all stores before the ring. Suppress with\n\
                 `// lint:allow(D08)` never — reorder instead.",
        scope: Scope::Everywhere,
        run: &[Runner::Function(scan_d08)],
    },
    RuleInfo {
        rule: Rule::D10,
        code: "D10",
        summary: "queue segment allocated without its placement hint (SQ device-side, CQ local)",
        explain: "D10 — queue segment without its placement hint\n\n\
                 SQs belong device-side (doorbell locality), CQs host-local (polling\n\
                 locality). Allocating without the hint silently gets the default and\n\
                 costs a fabric crossing per access. Pass the placement hint explicitly.\n\n\
                 Suppress with `// lint:allow(D10)` in tests that don't measure placement.",
        scope: Scope::Everywhere,
        run: &[Runner::File(scan_d10)],
    },
    RuleInfo {
        rule: Rule::D11,
        code: "D11",
        summary: "unbounded await on a fabric read / admin RPC in an I/O-path or manager-serve \
                 function (wrap it in simcore::timeout so a lost event escalates, not hangs)",
        explain: "D11 — unbounded blocking await on an I/O or manager path\n\n\
                 Flags `.await` on fabric reads / admin RPCs reachable from datapath or\n\
                 manager-serve roots without a `simcore::timeout` wrapper. A lost\n\
                 completion must escalate through the recovery ladder, not hang the\n\
                 reactor. See D25 for the path-sensitive refinement.\n\n\
                 Fix:\n    simcore::timeout(deadline, fabric.cpu_read_u32(addr)).await\n\n\
                 Suppress with `// lint:allow(D11)` when an enclosing frame owns the\n\
                 deadline (name the frame in the comment).",
        // The same production paths as D07: the crates whose I/O and serve
        // loops must survive injected faults without hanging.
        scope: Scope::Under(&IO_SCOPE),
        run: &[Runner::Engine],
    },
    RuleInfo {
        rule: Rule::D13,
        code: "D13",
        summary: "address from one host's domain used against another host's region or fabric \
                 call with no NTB translation on the def-use path",
        explain: "D13 — cross-domain address without NTB translation\n\n\
                 Dataflow rule: an address whose def-use chain starts in host A's domain\n\
                 must pass `ntb_translate`/`to_domain` before hitting host B's region or\n\
                 a fabric call for B. The classic symptom is a DMA landing in the wrong\n\
                 host's window.\n\n\
                 Suppress with `// lint:allow(D13)` when both domains are provably the\n\
                 same host (say why).",
        // Intraprocedural pass plus the engine's helper-return completion.
        scope: Scope::Under(&DF_SCOPE),
        run: &[Runner::Function(scan_d13), Runner::Engine],
    },
    RuleInfo {
        rule: Rule::D15,
        code: "D15",
        summary: "offset/length arithmetic whose constant interval exceeds the region's \
                 literal bounds (slice would panic / DMA would stray)",
        explain: "D15 — interval arithmetic exceeds region bounds\n\n\
                 Dataflow rule: constant-interval analysis of offset/len arithmetic\n\
                 against the region's literal size. The lattice folds `min`/`max`/\n\
                 `saturating_sub`/`.len()`, so clamp-then-slice patterns stay precise\n\
                 instead of widening to Top.\n\n\
                 Example:\n    let off = base.min(region_len);          // folded, ok\n    \
                 let end = off + 128;                     // D15 iff 128 > slack\n\n\
                 Suppress with `// lint:allow(D15)` when bounds come from checked config.",
        scope: Scope::Under(&DF_SCOPE),
        run: &[Runner::Function(scan_d15)],
    },
    RuleInfo {
        rule: Rule::D16,
        code: "D16",
        summary: "lock/borrow guard held across an .await (reentrant-borrow panic or a lock \
                 held for a fabric round trip)",
        explain: "D16 — guard held across .await\n\n\
                 Dataflow rule: a `RefCell` borrow or lock guard live across an await\n\
                 point. Another task on the same reactor can re-enter and panic the\n\
                 borrow, or the lock is held for a fabric round trip.\n\
                 Drop the guard before awaiting (scope it or `drop()` it).\n\n\
                 Suppress with `// lint:allow(D16)` only for guards over task-local state.",
        scope: Scope::Under(&DF_SCOPE),
        run: &[Runner::Function(scan_d16)],
    },
    RuleInfo {
        rule: Rule::D17,
        code: "D17",
        summary: "plain fabric.alloc buffer on the client datapath (use SmartIo::alloc_hinted \
                 so the staging decision can pick zero-copy)",
        explain: "D17 — unhinted allocation on the client datapath\n\n\
                 Client buffers must come from `SmartIo::alloc_hinted` so the staging\n\
                 tier can choose zero-copy vs. bounce. Plain `fabric.alloc` pins the\n\
                 decision to bounce. Suppress with `// lint:allow(D17)` for control-plane\n\
                 metadata buffers.",
        // Files whose datapath buffers must stay hinted (zero-copy eligible).
        scope: Scope::Under(&["crates/core/src", "crates/blklayer/src"]),
        run: &[Runner::Engine],
    },
    RuleInfo {
        rule: Rule::D19,
        code: "D19",
        summary: "lock/RefCell acquisition-order cycle across functions (two guard classes \
                 each acquired while the other is held — deadlock/reentrant-borrow hazard)",
        explain: "D19 — cross-function lock-order cycle\n\n\
                 Summary-based: builds the acquired-while-held graph over guard classes\n\
                 and flags cycles. Two functions acquiring {A then B} and {B then A} can\n\
                 deadlock (or reentrant-panic RefCells) under interleaving. The related\n\
                 hops name both acquisition sites.\n\n\
                 Fix by imposing a global acquisition order. Suppress with\n\
                 `// lint:allow(D19)` only with a proof both paths can't interleave.",
        scope: Scope::Under(&DF_SCOPE),
        run: &[Runner::Engine],
    },
    RuleInfo {
        rule: Rule::D21,
        code: "D21",
        summary: "reset_qpair/engine teardown reachable from a datapath root outside the \
                 recovery ladder (pending tags may be live — escalate via recover*/recreate*)",
        explain: "D21 — teardown outside the recovery ladder\n\n\
                 Summary-based: `reset_qpair`/engine teardown reachable from a datapath\n\
                 root without an intervening `recover*`/`recreate*` frame. The ladder\n\
                 drains pending tags first; bypassing it drops them.\n\n\
                 Suppress with `// lint:allow(D21)` in shutdown-only paths.",
        // Where qpair engines live and are torn down.
        scope: Scope::Under(&["crates/core/src", "crates/nvme/src"]),
        run: &[Runner::Engine],
    },
    RuleInfo {
        rule: Rule::D22,
        code: "D22",
        summary: "SQE stored but the doorbell ring is reachable on only some paths to exit \
                 (an error/early-return path leaves a written entry the device never fetches)",
        explain: "D22 — doorbell reachable on only some paths after an SQE store\n\n\
                 Path-sensitive (CFG): after a store into an SQE slot, every path to the\n\
                 function's exit must pass a doorbell ring or an explicit failure\n\
                 resolution (`fail`/`complete`). A path that returns early leaves a\n\
                 written entry the device is never told about: the command is silently\n\
                 lost and its tag never completes.\n\n\
                 Example:\n    qp.sq.push(sqe)?;                 // store lands\n    \
                 if budget_exhausted {\n        return Ok(());                // D22: wrote SQE, never rang\n    \
                 }\n    qp.sq.ring().await?;\n\n\
                 The store's own `?` is benign (failure means nothing was written).\n\
                 Fix by ringing or failing the tag on every exit path. Suppress with\n\
                 `// lint:allow(D22)` only for deliberately-seeded fixtures.",
        scope: Scope::Under(&DF_SCOPE),
        run: &[Runner::Function(scan_d22)],
    },
    RuleInfo {
        rule: Rule::D23,
        code: "D23",
        summary: "tag/slot or hinted DMA allocation acquired but not retired/freed on every \
                 path to exit (leak through ? / early return drains the pool)",
        explain: "D23 — allocation not retired on every path\n\n\
                 Path-sensitive (CFG): a tag/slot acquire or hinted DMA allocation whose\n\
                 owning function also retires resources, but where some path from the\n\
                 acquire to exit skips every retire site — the `?`/early-return leak that\n\
                 drains the tag pool under fault injection. Functions with no retire\n\
                 site at all are assumed RAII and skipped.\n\n\
                 Fix by retiring in the error arm (or converting to an RAII guard).\n\
                 Suppress with `// lint:allow(D23)` when ownership transfers out.",
        scope: Scope::Under(&DF_SCOPE),
        run: &[Runner::Function(scan_d23)],
    },
    RuleInfo {
        rule: Rule::D24,
        code: "D24",
        summary: "doorbell ring or slot retire repeated along a single path with no \
                 intervening store/acquire (static double-complete)",
        explain: "D24 — ring/retire repeated along a single path\n\n\
                 Path-sensitive (CFG): two doorbell rings with no intervening SQE store\n\
                 (or timeout re-arm), or two textually-identical slot retires with no\n\
                 intervening acquire, connected by one control-flow path. This is the\n\
                 static shadow of the double-complete the lifecycle oracle catches\n\
                 dynamically.\n\n\
                 Suppress with `// lint:allow(D24)` for deliberate re-rings after a\n\
                 deadline (the timeout call already exempts the common shape).",
        scope: Scope::Under(&DF_SCOPE),
        run: &[Runner::Function(scan_d24)],
    },
    RuleInfo {
        rule: Rule::D25,
        code: "D25",
        summary: "blocking fabric/admin await reachable on a path that skipped the \
                 simcore::timeout deadline arm this function otherwise has (path-sensitive D11)",
        explain: "D25 — blocking await on a path that skipped the timeout arm\n\n\
                 Path-sensitive refinement of D11: the function does have a\n\
                 `simcore::timeout` deadline arm, but some entry path reaches a blocking\n\
                 fabric/admin await without passing it. D11 checks the await is guarded\n\
                 somewhere; D25 checks it is guarded on every path that reaches it.\n\n\
                 Fix by hoisting the timeout to dominate the await. Suppress with\n\
                 `// lint:allow(D25)` when the unguarded path is init-only.",
        // D11's path-sensitive refinement rides D11's scope.
        scope: Scope::Under(&IO_SCOPE),
        run: &[Runner::Function(scan_d25)],
    },
];

impl Rule {
    fn info(self) -> &'static RuleInfo {
        &RULES[self as usize]
    }

    /// The code used in reports, `analyzer.toml`, and `lint:allow(..)`.
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
/// check annotations. Strict-allow hits ride along under the synthetic
/// rule id `strict-allow`. An empty scan still yields a valid report
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
        "{\"id\":\"strict-allow\",\"shortDescription\":{\"text\":\
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
            .map(|u| sarif_result("strict-allow", &u.detail, &u.path, u.line.max(1), &[])),
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
// Configuration (analyzer.toml)
// ---------------------------------------------------------------------

/// Parsed `analyzer.toml`: per-rule path allowlist.
#[derive(Default, Debug)]
pub struct Config {
    /// `(rule code or "*", path)` pairs.
    allow: Vec<(String, String)>,
}

impl Config {
    /// Minimal hand-rolled parse of the `[allow]` table:
    /// `D03 = ["crates/bench", …]` entries, `#` comments, quoted keys.
    pub fn parse(text: &str) -> Config {
        let mut allow = Vec::new();
        let mut in_allow = false;
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                in_allow = line == "[allow]";
                continue;
            }
            if !in_allow {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim().trim_start_matches('[').trim_end_matches(']');
            for item in value.split(',') {
                let pattern = item.trim().trim_matches('"');
                if !pattern.is_empty() {
                    allow.push((key.clone(), pattern.to_string()));
                }
            }
        }
        Config { allow }
    }

    /// Load `analyzer.toml` from the workspace root (absent = empty).
    pub fn load(root: &Path) -> Config {
        match fs::read_to_string(root.join("analyzer.toml")) {
            Ok(text) => Config::parse(&text),
            Err(_) => Config::default(),
        }
    }

    /// Whether `rule` is allowlisted for the file at `rel`.
    pub fn allows(&self, rule: Rule, rel: &str) -> bool {
        self.allow
            .iter()
            .any(|(k, p)| (k == "*" || k == rule.code()) && path_matches(p, rel))
    }
}

/// Whether the allowlist path covers `rel`: the path itself or anything
/// below it — on component boundaries, so `crates/nvme` does NOT cover
/// `crates/nvmeof`.
pub fn path_matches(path: &str, rel: &str) -> bool {
    rel == path || (rel.starts_with(path) && rel.as_bytes().get(path.len()) == Some(&b'/'))
}

// ---------------------------------------------------------------------
// Pattern helpers (line-level rules)
// ---------------------------------------------------------------------

/// Whether `pat` occurs in `code` with no identifier character directly
/// before it (so `Mutex<` does not match `FakeMutex<`).
fn has_token(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        let bounded = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if bounded {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// The identifier ending at byte `end` of `code`, if any.
fn ident_ending_at(code: &str, end: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut start = end;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    (start < end).then(|| &code[start..end])
}

/// Strip trailing pass-through calls (`.borrow()`, `.lock()`, …) from an
/// expression so the receiver's own name is exposed.
fn strip_passthrough(mut expr: &str) -> &str {
    const PASS: [&str; 6] = [
        ".borrow()",
        ".borrow_mut()",
        ".lock()",
        ".as_ref()",
        ".as_mut()",
        ".unwrap()",
    ];
    loop {
        expr = expr.trim_end();
        let before = expr.len();
        for p in PASS {
            if let Some(s) = expr.strip_suffix(p) {
                expr = s;
                break;
            }
        }
        if expr.len() == before {
            return expr;
        }
    }
}

// ---------------------------------------------------------------------
// Rule vocabulary
// ---------------------------------------------------------------------

const D03_ITER: [&str; 4] = [".iter()", ".keys()", ".values()", ".drain("];
/// Calls whose `Result` encodes a fabric/DMA failure the distributed
/// driver must handle (windows can be torn down under it at any time).
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

/// Non-posted fabric/memory reads: each stalls the caller for a full NTB
/// round trip, so none may sit on the I/O path (D07).
///
/// Every list below carries both spellings of a fabric accessor: the slice
/// form and the owned-`Payload` form (`*_payload`, `mem_snapshot`,
/// `mem_adopt`) — same operation, same timing, same rules.
const D07_READS: [&str; 5] = [
    "cpu_read",
    "cpu_read_u32",
    "cpu_read_u64",
    "dma_read",
    "dma_read_payload",
];
/// Write-style calls D08 inspects for doorbell targets / SQE payloads.
const D08_WRITES: [&str; 7] = [
    "cpu_write",
    "cpu_write_payload",
    "cpu_write_u32",
    "mem_write",
    "mem_adopt",
    "dma_write",
    "dma_write_payload",
];

/// Awaits that park until a *remote* event arrives (D11): non-posted
/// fabric reads and the admin-queue RPCs. Under fault injection the
/// completing CQE or delivery may never come, so each of these must sit
/// inside a `simcore::timeout` wrapper on the paths that cannot stall.
const D11_BLOCKING: [&str; 11] = [
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

/// D13 sinks: operations that interpret an address *within a specific
/// host's domain* — region membership/slicing and the fabric accessors
/// (whose first argument names the domain).
const D13_REGION_SINKS: [&str; 2] = ["contains", "slice"];
const D13_FABRIC_SINKS: [&str; 8] = [
    "mem_write",
    "mem_adopt",
    "mem_read",
    "mem_snapshot",
    "dma_write",
    "dma_write_payload",
    "dma_read",
    "dma_read_payload",
];
/// D23 acquire sites: tag/slot grants and hinted DMA allocations.
const D23_ACQUIRE: [&str; 4] = ["acquire", "acquire_tag", "create_segment", "alloc_hinted"];
/// D23/D24 retire sites: buffer/tag release calls plus the segment,
/// mapping and tag-table teardown calls.
const D2X_RETIRE: [&str; 9] = [
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

/// One parsed file inside a scan: what the per-file rules and the
/// whole-program engine both read.
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
    /// `(1-based line, rule code)` of each unused suppression.
    pub unused_allows: Vec<(usize, String)>,
}

/// Scan one source text with the given rules. `lint:allow` suppressions
/// apply; the `analyzer.toml` allowlist is the caller's concern.
pub fn scan_source(rel: &str, text: &str, rules: &[Rule]) -> Vec<Finding> {
    scan_source_strict(rel, text, rules).findings
}

/// Like [`scan_source`], but also reports which suppression comments
/// never fired — a stale `lint:allow` hides nothing today and will
/// silently hide a real finding tomorrow.
pub fn scan_source_strict(rel: &str, text: &str, rules: &[Rule]) -> SourceScan {
    scan_program(&[(rel, text, rules.to_vec())]).0.remove(0)
}

/// Multi-file twin of [`scan_source`]: scan in-memory sources as one
/// program, so fixtures can exercise findings that only exist through
/// cross-file call chains (helper summaries, trait-impl dispatch).
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
/// counters. Each file is parsed once and
/// each function gets one [`FnFacts`]; the whole-program engine (built
/// only when some file carries an engine rule) and the per-file rules
/// read the same sets, and engine findings pass through the same
/// `lint:allow` accounting as the rest.
fn scan_program(inputs: &[(&str, &str, Vec<Rule>)]) -> (Vec<SourceScan>, ScanStats) {
    let parsed: Vec<(Ast, Vec<(String, u64)>)> = inputs
        .iter()
        .map(|(_, text, _)| {
            let ast = Ast::parse(text);
            let consts = dataflow::const_env(&ast);
            (ast, consts)
        })
        .collect();
    let files: Vec<SourceFile> = inputs
        .iter()
        .zip(&parsed)
        .map(|((rel, text, rules), (ast, consts))| SourceFile {
            rel,
            rules,
            ast,
            fns: ast
                .functions
                .iter()
                .map(|f| FnFacts::new(ast, f, consts))
                .collect(),
            raw_lines: text.lines().collect(),
        })
        .collect();
    let wants_engine = |r: &Rule| r.info().run.iter().any(|k| matches!(k, Runner::Engine));
    let prog = files
        .iter()
        .any(|f| f.rules.iter().any(wants_engine))
        .then(|| interproc::Program::build(&files));
    let mut engine: Vec<Vec<Finding>> = files.iter().map(|_| Vec::new()).collect();
    for pf in prog.iter().flat_map(|p| p.findings()) {
        let hop = |(file, line, note): (usize, usize, String)| Related {
            path: files[file].rel.to_string(),
            line,
            note,
        };
        engine[pf.file].push(Finding {
            rule: pf.rule,
            path: files[pf.file].rel.to_string(),
            line: pf.line,
            excerpt: String::new(),
            related: pf.related.into_iter().map(hop).collect(),
        });
    }
    let scans = files
        .iter()
        .zip(engine)
        .map(|(file, engine)| scan_file(file, engine))
        .collect();
    let stats = ScanStats {
        files: inputs.len(),
        summaries: prog.as_ref().map_or(0, |p| p.summary_count()),
        passes: prog.map_or(0, |p| p.passes),
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
/// engine's findings.
fn scan_file(file: &SourceFile, engine: Vec<Finding>) -> SourceScan {
    let lines = &file.ast.lines;
    let mut sups = Vec::new();
    for (idx, (_, comment)) in lines.iter().enumerate() {
        for rest in comment.split("lint:allow(").skip(1) {
            let inside = rest.split(')').next().unwrap_or("");
            // Anything shaped like a rule code is tracked. A retired or
            // mistyped code matches no finding, so it is never honoured
            // and `--strict-allow` reports it; prose like
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
        for runner in rule.info().run {
            match *runner {
                Runner::Patterns(pats) => {
                    for (idx, (code, _)) in lines.iter().enumerate() {
                        if pats.iter().any(|p| has_token(code, p)) {
                            rep.hit(rule, idx + 1, Vec::new());
                        }
                    }
                }
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
                Runner::Engine => {} // merged below
            }
        }
    }
    for f in engine {
        if file.rules.contains(&f.rule) {
            rep.hit(f.rule, f.line, f.related);
        }
    }
    rep.findings
        .sort_by(|a, b| (a.line, a.rule.code()).cmp(&(b.line, b.rule.code())));
    SourceScan {
        findings: rep.findings,
        unused_allows: rep
            .sups
            .into_iter()
            .filter(|s| !s.2)
            .map(|(line, code, _)| (line, code.to_string()))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Line and syntax rules
// ---------------------------------------------------------------------

/// D03: iteration over an identifier bound to a `HashMap`/`HashSet` (or
/// an alias of one) — `.iter()`/`.keys()`/`.values()`/`.drain(` through
/// pass-through chains, and `for x in &map`.
fn scan_d03(ast: &Ast, hit: &mut dyn FnMut(usize)) {
    // Pass 1: identifiers bound to HashMap/HashSet (or aliases).
    let mut map_names: Vec<&str> = Vec::new();
    let mut aliases: Vec<&str> = Vec::new();
    for (code, _) in &ast.lines {
        let trimmed = code.trim_start();
        if trimmed.starts_with("use ") {
            continue;
        }
        let mentions_map = has_token(code, "HashMap")
            || has_token(code, "HashSet")
            || aliases.iter().any(|a| has_token(code, a));
        if !mentions_map {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("type ") {
            if let Some(name) = rest.split(['=', '<', ' ']).next() {
                if !name.is_empty() {
                    aliases.push(name);
                }
            }
            continue;
        }
        // `name: HashMap<…>` (field or param) or `let name = HashMap::…`.
        let hit = ["HashMap", "HashSet"]
            .iter()
            .filter_map(|p| code.find(p))
            .chain(aliases.iter().filter_map(|a| code.find(a)))
            .min()
            .unwrap_or(0);
        let prefix = &code[..hit];
        // Bind via the last single `:` (field/param/let type) or `=`
        // (inferred let); `::` path separators don't count.
        let bytes = prefix.as_bytes();
        let type_colon = (0..bytes.len()).rev().find(|&i| {
            bytes[i] == b':' && (i == 0 || bytes[i - 1] != b':') && bytes.get(i + 1) != Some(&b':')
        });
        let binder = if let Some(colon) = type_colon {
            ident_ending_at(prefix, colon)
        } else if let Some(eq) = prefix.rfind('=') {
            let lhs = prefix[..eq].trim_end();
            ident_ending_at(lhs, lhs.len())
        } else {
            None
        };
        if let Some(name) = binder {
            if !map_names.contains(&name) {
                map_names.push(name);
            }
        }
    }
    // Pass 2: order-dependent walks over those names.
    for (idx, (code, _)) in ast.lines.iter().enumerate() {
        // `map.iter()` (and through `.borrow()` chains).
        for pat in D03_ITER {
            let mut from = 0;
            while let Some(pos) = code[from..].find(pat) {
                let at = from + pos;
                let recv = strip_passthrough(&code[..at]);
                if ident_ending_at(recv, recv.len()).is_some_and(|n| map_names.contains(&n)) {
                    hit(idx + 1);
                }
                from = at + pat.len();
            }
        }
        // `for x in &map` / `for x in map`.
        if let Some(pos) = code.find(" in ") {
            if code.trim_start().starts_with("for ") {
                let expr = code[pos + 4..].split('{').next().unwrap_or("").trim();
                let expr = expr
                    .trim_start_matches('&')
                    .trim_start_matches("mut ")
                    .trim();
                let expr = strip_passthrough(expr);
                if !expr.ends_with(')')
                    && ident_ending_at(expr, expr.len()).is_some_and(|n| map_names.contains(&n))
                {
                    hit(idx + 1);
                }
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

/// D10: every `create_segment`/`create_segment_hinted` call whose
/// `let`-binding names a queue (`…sq…` / `…cq…`) must pass the matching
/// `AccessHints` constructor (`sq()` device-side, `cq()` client-local).
/// Unclassifiable bindings (buffers, mailboxes, metadata) are skipped.
fn scan_d10(ast: &Ast, hit: &mut dyn FnMut(usize)) {
    let all = ast.calls_in((0, ast.tokens.len()));
    for call in &all {
        if call.name != "create_segment" && call.name != "create_segment_hinted" {
            continue;
        }
        let Some(binding) = ast.binding_for(call.args.0) else {
            continue;
        };
        let binding = binding.to_ascii_lowercase();
        let want = if binding.contains("cq") {
            "cq"
        } else if binding.contains("sq") {
            "sq"
        } else {
            continue;
        };
        if !ast.any_ident_in(call.args, |id| id == want) {
            hit(call.line);
        }
    }
}

// ---------------------------------------------------------------------
// Submission-protocol rules (D08, D22, D24) and the other CFG rules
// ---------------------------------------------------------------------

/// D08: an SQE store after a doorbell ring in token order; the finding
/// sits on the store.
fn scan_d08(facts: &FnFacts, hit: &mut dyn FnMut(usize)) {
    let ev = &facts.sites().events;
    for &(tok, line) in &ev.stores {
        if ev.rings.iter().any(|r| r.0 < tok) {
            hit(line);
        }
    }
}

/// The block holding the end of the statement containing token `pos`.
/// Path queries for "after this store/acquire landed" start here rather
/// than at the site itself, so the site's own `?`-failure edge (nothing
/// was written / nothing was acquired) is not mistaken for a path that
/// skips the ring/retire.
fn stmt_exit_block(ast: &Ast, cfg: &Cfg, pos: usize, body_end: usize) -> Option<usize> {
    // `pos` may sit *inside* the site's argument list, so track depth
    // from there and let it go negative while climbing out; the
    // statement ends at the first `;`/`,` at or above the start level,
    // or at an enclosing close brace.
    let end = body_end.min(ast.tokens.len());
    let mut depth = 0isize;
    let mut q = pos;
    for i in pos..end {
        let t = &ast.tokens[i];
        if t.punct('(') || t.punct('[') || t.punct('{') {
            depth += 1;
        } else if t.punct(')') || t.punct(']') {
            depth -= 1;
        } else if t.punct('}') {
            if depth <= 0 {
                // Close of an enclosing block: the statement cannot
                // extend past it.
                q = i;
                break;
            }
            depth -= 1;
        } else if (t.punct(';') || t.punct(',')) && depth <= 0 {
            q = i;
            break;
        }
        q = i;
    }
    (pos..=q).rev().find_map(|k| cfg.block_of(k))
}

/// D22: an SQE store in a function that also rings a doorbell, where
/// some path from the store to the exit passes neither a ring nor an
/// explicit failure resolution. Functions that never ring are not this
/// rule's business (the ring may live in the caller).
fn scan_d22(facts: &FnFacts, hit: &mut dyn FnMut(usize)) {
    let ev = &facts.sites().events;
    if ev.rings.is_empty() || ev.stores.is_empty() {
        return;
    }
    let (ast, f, cfg) = (facts.ast, facts.f, facts.cfg());
    // Positions that discharge a store: rings and resolutions.
    let done: Vec<usize> = ev
        .rings
        .iter()
        .map(|r| r.0)
        .chain(ev.resolves.iter().map(|r| r.0))
        .collect();
    let mut avoid = vec![false; cfg.blocks.len()];
    for &pos in &done {
        if let Some(b) = cfg.block_of(pos) {
            avoid[b] = true;
        }
    }
    for &(pos, line) in &ev.stores {
        let Some(sb) = cfg.block_of(pos) else {
            continue;
        };
        if !cfg.reachable(sb) {
            continue;
        }
        let start = stmt_exit_block(ast, cfg, pos, f.body.1).unwrap_or(sb);
        // A ring or resolution later in the store's own block — or in
        // the continuation block its `?` split off — covers the whole
        // straight-line continuation: blocks execute atomically.
        if done
            .iter()
            .any(|&r| r > pos && (cfg.block_of(r) == Some(sb) || cfg.block_of(r) == Some(start)))
        {
            continue;
        }
        if cfg.exit_reachable_avoiding(start, &avoid) {
            hit(line);
        }
    }
}

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
    let (acquires, retires) = (named(&D23_ACQUIRE), named(&D2X_RETIRE));
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
            let e = dataflow::stmt_end(ast, i + 1, f.body.1);
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
        let q = dataflow::stmt_end(ast, c.args.1 + 1, f.body.1).min(f.body.1 - 1);
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

/// Whether the statement on `line` consumes the call's result —
/// asserted, branched on, or bound. A checked ring/retire is observing
/// the protocol's defensive return; the D24 bug shape is the bare
/// statement that ignores it.
fn consumed_at(ast: &Ast, line: usize) -> bool {
    ast.lines.get(line - 1).is_some_and(|(code, _)| {
        let lt = code.trim_start();
        code.contains("assert")
            || lt.starts_with("if ")
            || lt.starts_with("while ")
            || lt.starts_with("match ")
            || lt.starts_with("let ")
    })
}

/// The textual identity of a call — receiver, name, and argument
/// tokens — used by D24 to tell a deliberate second retire (different
/// tag) from a double-complete of the same one.
fn call_text(ast: &Ast, c: &ast::Call) -> String {
    let mut s = c.receiver.clone().unwrap_or_default();
    s.push('.');
    s.push_str(&c.name);
    for t in &ast.tokens[c.args.0..c.args.1] {
        s.push_str(&t.text);
    }
    s
}

/// D24: a doorbell ring reachable from a ring (itself via a back edge,
/// or another site) with no intervening SQE store or `timeout` re-arm;
/// or a retire call reachable from a textually-identical retire with no
/// intervening acquire. Both are single-path repeats — the static
/// shadow of the lifecycle oracle's double-complete checks.
fn scan_d24(facts: &FnFacts, hit: &mut dyn FnMut(usize)) {
    let (ast, calls) = (facts.ast, facts.calls());
    if calls.is_empty() {
        return;
    }
    let ev = &facts.sites().events;
    let cfg = facts.cfg();
    // Whether site `to` (token, line) repeats site `from` along one path.
    let repeats = |from: usize, to: (usize, usize), blockers: &[usize]| -> bool {
        let (Some(b1), Some(b2)) = (cfg.block_of(from), cfg.block_of(to.0)) else {
            return false;
        };
        !consumed_at(ast, to.1)
            && cfg.reachable(b1)
            && cfg.site_reaches_site((b1, from), (b2, to.0), blockers)
    };
    let positions = |names: &[&str]| -> Vec<usize> {
        let named = calls.iter().filter(|c| names.contains(&c.name.as_str()));
        named.map(|c| c.args.0).collect()
    };
    // (a) ring repeated: blockers are events that justify a new ring —
    // an SQE store (new tail entry), a CQE pop (new head position),
    // or a timeout re-arm (deadline re-ring). Sites pair only within
    // one receiver — ringing two different queues back to back is
    // two protocols, not a repeat.
    let mut blockers: Vec<usize> = ev.stores.iter().map(|&(p, _)| p).collect();
    blockers.extend(positions(&[
        "timeout", "try_pop", "pop", "next", "drain", "recv",
    ]));
    for r1 in &ev.rings {
        for r2 in &ev.rings {
            if r1.2 == r2.2 && repeats(r1.0, (r2.0, r2.1), &blockers) {
                hit(r2.1);
            }
        }
    }
    // (b) identical retire repeated: blockers are acquires.
    let acquires = positions(&D23_ACQUIRE);
    let retires: Vec<&ast::Call> = calls
        .iter()
        .filter(|c| D2X_RETIRE.contains(&c.name.as_str()))
        .collect();
    for a in &retires {
        for b in &retires {
            if a.args.0 != b.args.0
                && call_text(ast, a) == call_text(ast, b)
                && repeats(a.args.0, (b.args.0, b.line), &acquires)
            {
                hit(b.line);
            }
        }
    }
}

/// D25: the function has a `simcore::timeout` deadline arm, but a
/// blocking fabric/admin await is reachable from the entry on a path
/// that never passes it — D11's guard holds on the measured path only.
fn scan_d25(facts: &FnFacts, hit: &mut dyn FnMut(usize)) {
    let sites = facts.sites();
    if sites.timeouts.is_empty() {
        return;
    }
    let cfg = facts.cfg();
    let mut avoid = vec![false; cfg.blocks.len()];
    for &(t, _) in &sites.timeouts {
        if let Some(b) = cfg.block_of(t) {
            avoid[b] = true;
        }
    }
    for (c, site) in facts.calls().iter().zip(&sites.calls) {
        if !site.blocking_await || site.in_timeout {
            continue;
        }
        let Some(cb) = cfg.block_of(c.args.0) else {
            continue;
        };
        if !cfg.reachable(cb) {
            continue;
        }
        // A timeout earlier in the await's own block guards every
        // path that reaches it (blocks execute atomically); one
        // later in the block does not, so the block itself must not
        // be treated as avoided for the entry query.
        let earlier = |&(t, _): &(usize, usize)| cfg.block_of(t) == Some(cb) && t < c.args.0;
        if sites.timeouts.iter().any(earlier) {
            continue;
        }
        let mut path_avoid = avoid.clone();
        path_avoid[cb] = false;
        if cfg.entry_reaches_avoiding(cb, &path_avoid) {
            hit(c.line);
        }
    }
}

// ---------------------------------------------------------------------
// Dataflow rules (D13, D15, D16)
// ---------------------------------------------------------------------

/// D13: per function, an address def carrying one host tag used inside a
/// sink bound to a *different* host tag — the receiving region's
/// constructor host for `contains`/`slice`, the first (domain) argument
/// for the fabric accessors — with no NTB translation call between the
/// def and the use.
fn scan_d13(facts: &FnFacts, hit: &mut dyn FnMut(usize)) {
    let (du, vals, sites) = (facts.du(), facts.vals(), facts.sites());
    for site in &sites.calls {
        let Some(ctx) = &site.domain else { continue };
        for u in &du.uses[site.uses.clone()] {
            let crosses = vals[u.def].host.as_ref().is_some_and(|h| h != ctx);
            if crosses && !sites.translated(du, u) {
                hit(u.line);
            }
        }
    }
}

/// D15: a `recv.slice(off, len)` whose receiver's literal region length
/// is known and whose `off`/`len` constant intervals can exceed it.
fn scan_d15(facts: &FnFacts, hit: &mut dyn FnMut(usize)) {
    let (ast, du, vals) = (facts.ast, facts.du(), facts.vals());
    for (call, site) in facts.calls().iter().zip(&facts.sites().calls) {
        if call.name != "slice" {
            continue;
        }
        let Some(limit) = site.recv_def.and_then(|ri| vals[ri].region_len) else {
            continue;
        };
        let args = &site.args;
        if args.len() != 2 {
            continue;
        }
        let range = |arg| dataflow::eval_range(ast, du, vals, arg, facts.consts);
        if let (Some(off), Some(len)) = (range(args[0]), range(args[1])) {
            if off.1.saturating_add(len.1) > limit {
                hit(call.line);
            }
        }
    }
}

/// D16: a `let`-bound lock/borrow guard with an `.await` inside its
/// liveness window ([`dataflow::live_end`]): up to its last use —
/// `drop(guard)` counts as one — or, for unused guards, to the point a
/// same-name rebind releases it, else the end of the body (Rust drops
/// at end of scope). A bare `let _ = …` drops immediately and is
/// exempt.
fn scan_d16(facts: &FnFacts, hit: &mut dyn FnMut(usize)) {
    let (ast, f, du, vals) = (facts.ast, facts.f, facts.du(), facts.vals());
    for (di, d) in du.defs.iter().enumerate() {
        if !vals[di].guard {
            continue;
        }
        let live_end = dataflow::live_end(du, di, f.body.1);
        let awaited = (d.expr.1..live_end.min(ast.tokens.len()))
            .any(|k| ast.tokens[k].is("await") && k > 0 && ast.tokens[k - 1].punct('.'));
        if awaited {
            hit(d.line);
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

/// Every `.rs` source under `crates/`, `tests/` and `examples/` as
/// `(workspace-relative path with forward slashes, text)`, in walk order.
fn workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_sources(&dir, &mut paths)?;
        }
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
    /// Function summaries the interprocedural engine computed.
    pub summaries: usize,
    /// Passes its summary fixpoint ran; at the engine's cap (50) it was
    /// cut off before converging.
    pub passes: usize,
}

/// Scan every workspace source ([`workspace_files`]), applying the
/// per-path rule scopes and the `analyzer.toml` allowlist.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    scan_workspace_stats(root).map(|(f, _)| f)
}

/// [`scan_workspace`] plus the scan counters. Allowlisted rules are
/// switched off before the scan, and a file left with none is skipped.
pub fn scan_workspace_stats(root: &Path) -> io::Result<(Vec<Finding>, ScanStats)> {
    let config = Config::load(root);
    let files = workspace_files(root)?;
    let inputs: Vec<(&str, &str, Vec<Rule>)> = files
        .iter()
        .map(|(rel, text)| {
            let mut rules = rules_for(rel);
            rules.retain(|r| !config.allows(*r, rel));
            (rel.as_str(), text.as_str(), rules)
        })
        .filter(|(_, _, rules)| !rules.is_empty())
        .collect();
    let (scans, stats) = scan_program(&inputs);
    let files = files.len(); // the walk's count, rule-less files included
    Ok((merge_findings(scans), ScanStats { files, ..stats }))
}

// ---------------------------------------------------------------------
// Strict-allow mode
// ---------------------------------------------------------------------

/// One `--strict-allow` diagnostic: a suppression mechanism that hides
/// nothing. `line` is 0 for `analyzer.toml` entries.
#[derive(Clone, Debug)]
pub struct AllowFinding {
    pub path: String,
    pub line: usize,
    pub detail: String,
}

impl fmt::Display for AllowFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "strict-allow {}: {}", self.path, self.detail)
        } else {
            write!(
                f,
                "strict-allow {}:{}: {}",
                self.path, self.line, self.detail
            )
        }
    }
}

impl AllowFinding {
    /// GitHub Actions annotation line (see [`Finding::to_github_annotation`]).
    pub fn to_github_annotation(&self) -> String {
        format!(
            "::error file={},line={},title=dnvme-lint strict-allow::{}",
            self.path,
            self.line.max(1),
            self.detail
        )
    }
}

/// The outcome of a strict scan: the ordinary findings, and every
/// unused `lint:allow` comment and dead `analyzer.toml` entry.
pub struct StrictReport {
    pub findings: Vec<Finding>,
    pub unused: Vec<AllowFinding>,
}

/// Strict scan over in-memory `(path, text)` sources. Every file is
/// scanned with its *full* rule set; an `analyzer.toml` entry is live
/// only if it covers a finding that would otherwise be reported, so
/// allowlist rot (an entry whose offending code was fixed or moved) is
/// flagged the moment it happens.
pub fn strict_scan_files(config: &Config, files: &[(String, String)]) -> StrictReport {
    let inputs: Vec<(&str, &str, Vec<Rule>)> = files
        .iter()
        .map(|(rel, text)| (rel.as_str(), text.as_str(), rules_for(rel)))
        .collect();
    let mut used_entries = vec![false; config.allow.len()];
    let mut findings = Vec::new();
    let mut unused = Vec::new();
    for ((rel, _), scan) in files.iter().zip(scan_program(&inputs).0) {
        for (line, code) in scan.unused_allows {
            let why = match explain(&code) {
                Some(_) => "suppresses nothing",
                None => "names no rule (retired or mistyped)",
            };
            unused.push(AllowFinding {
                path: rel.clone(),
                line,
                detail: format!("lint:allow({code}) {why} — remove it"),
            });
        }
        for f in scan.findings {
            let mut covered = false;
            for (i, (k, p)) in config.allow.iter().enumerate() {
                if (k == "*" || k == f.rule.code()) && path_matches(p, &f.path) {
                    used_entries[i] = true;
                    covered = true;
                }
            }
            if !covered {
                findings.push(f);
            }
        }
    }
    for (i, (k, p)) in config.allow.iter().enumerate() {
        if !used_entries[i] {
            unused.push(AllowFinding {
                path: "analyzer.toml".to_string(),
                line: 0,
                detail: format!("[allow] entry {k} = {p:?} covers no finding — remove it"),
            });
        }
    }
    StrictReport { findings, unused }
}

/// [`strict_scan_files`] over the workspace tree (same walk as
/// [`scan_workspace`]).
pub fn scan_workspace_strict(root: &Path) -> io::Result<StrictReport> {
    Ok(strict_scan_files(
        &Config::load(root),
        &workspace_files(root)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    thread_local! {
        /// How often this thread built each analysis product
        /// ("parse", "cfg", "def_use", "eval", "sites").
        static BUILDS: RefCell<BTreeMap<&'static str, usize>> = RefCell::default();
    }

    pub(crate) fn count(what: &'static str) {
        BUILDS.with(|b| *b.borrow_mut().entry(what).or_default() += 1);
    }

    /// One parse per file and one fact set per function: a scan with
    /// every rule on (engine extraction plus D08/D13/D15/D16/D22–D25
    /// all reading the facts, six of them the site table) builds each
    /// product exactly once.
    #[test]
    fn scan_parses_each_file_once_and_builds_facts_once_per_function() {
        let a = "async fn submit(&self, qp: &Qp, sqe: Sqe) -> Result<()> {\n    \
                 let g = self.state.borrow_mut();\n    qp.sq.push(sqe)?;\n    \
                 if g.paused { return Ok(()); }\n    helper(qp.base.as_u64());\n    \
                 simcore::timeout(d, qp.sq.ring()).await?;\n    Ok(())\n}\n\
                 fn helper(raw: u64) { fabric.dma_write(raw, 0, 8); }\n";
        let b = "fn poll(&self) { let r = MemRegion::new(h, PhysAddr(0), 64); r.slice(0, 128); }\n";
        let all: Vec<Rule> = RULES.iter().map(|r| r.rule).collect();
        BUILDS.with(|b| b.borrow_mut().clear());
        let findings = scan_sources(&[
            ("crates/core/src/a.rs", a, all.clone()),
            ("crates/core/src/b.rs", b, all),
        ]);
        assert!(!findings.is_empty());
        let builds = BUILDS.with(|b| b.borrow().clone());
        assert_eq!(builds["parse"], 2, "{builds:?}");
        for product in ["cfg", "def_use", "eval", "sites"] {
            assert_eq!(builds[product], 3, "three functions: {builds:?}");
        }
    }

    /// The table is indexed by `rule as usize`, and the README's rule
    /// table and `--explain` cover exactly its rows.
    #[test]
    fn rule_table_readme_and_explain_agree() {
        for (i, r) in RULES.iter().enumerate() {
            assert_eq!(r.rule as usize, i);
            assert_eq!(r.code, format!("{:?}", r.rule));
            assert!(!r.run.is_empty() && !r.summary.is_empty());
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
        for gone in ["D06", "D09", "D12", "D14", "D18", "D20", "D26"] {
            assert!(explain(gone).is_none(), "{gone} is not a rule");
        }
    }

    /// The summary fixpoint converges on the real tree instead of
    /// running into its pass cap (where summaries would be cut off
    /// mid-rotation and every scan would pay the cap's passes).
    #[test]
    fn workspace_fixpoint_converges_below_the_pass_cap() {
        let (_, stats) = scan_workspace_stats(&workspace_root()).expect("workspace scan");
        assert!(stats.summaries > 0, "the engine ran: {stats:?}");
        assert!(stats.passes < interproc::PASS_CAP, "{stats:?}");
    }

    /// Tier-1 gate: the workspace must be lint-clean.
    #[test]
    fn workspace_is_clean() {
        let findings = scan_workspace(&workspace_root()).expect("workspace scan");
        assert!(
            findings.is_empty(),
            "dnvme-lint found {} issue(s):\n{}",
            findings.len(),
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Tier-1 gate for `--strict-allow`: no stale `lint:allow` comments,
    /// no dead `analyzer.toml` entries.
    #[test]
    fn workspace_is_strict_allow_clean() {
        let report = scan_workspace_strict(&workspace_root()).expect("strict scan");
        assert!(
            report.findings.is_empty() && report.unused.is_empty(),
            "dnvme-lint --strict-allow found {} finding(s), {} unused suppression(s):\n{}\n{}",
            report.findings.len(),
            report.unused.len(),
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
            report
                .unused
                .iter()
                .map(|u| u.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn rule_scoping_follows_crate_layout() {
        assert!(rules_for("crates/pcie/src/fabric.rs").contains(&Rule::D03));
        assert!(!rules_for("crates/cluster/src/scenario.rs").contains(&Rule::D03));
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D05));
        assert!(!rules_for("crates/core/tests/dnvme_e2e.rs").contains(&Rule::D05));
        assert!(!rules_for("crates/nvme/src/ctrl.rs").contains(&Rule::D05));
        assert!(rules_for("tests/full_stack.rs").contains(&Rule::D01));
        // D07 binds the client/engine I/O paths only; D08/D10 apply
        // everywhere.
        assert!(rules_for("crates/core/src/client.rs").contains(&Rule::D07));
        assert!(rules_for("crates/nvme/src/engine.rs").contains(&Rule::D07));
        assert!(rules_for("crates/nvme/src/engine/sq.rs").contains(&Rule::D07));
        assert!(!rules_for("crates/nvme/src/ctrl.rs").contains(&Rule::D07));
        assert!(rules_for("tests/sanitize.rs").contains(&Rule::D08));
        // D11 rides the D07 scope: production I/O/serve paths, not tests
        // (a test awaiting an admin RPC unwrapped is the test's business).
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D11));
        assert!(rules_for("crates/nvme/src/engine.rs").contains(&Rule::D11));
        assert!(!rules_for("crates/nvme/src/ctrl.rs").contains(&Rule::D11));
        assert!(!rules_for("tests/fault_injection.rs").contains(&Rule::D11));
        assert!(rules_for("crates/cluster/src/scenario.rs").contains(&Rule::D10));
        // D13/D15/D16 bind the production sources of the four
        // address-typed crates plus nvmeof — not their tests (which assert
        // through raw wire values on purpose) and not the sim/cluster
        // scaffolding.
        assert!(rules_for("crates/pcie/src/fabric.rs").contains(&Rule::D13));
        assert!(rules_for("crates/nvme/src/engine/sq.rs").contains(&Rule::D13));
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D16));
        assert!(rules_for("crates/nvmeof/src/target.rs").contains(&Rule::D15));
        assert!(!rules_for("crates/nvme/tests/engine.rs").contains(&Rule::D13));
        assert!(!rules_for("tests/sanitize.rs").contains(&Rule::D16));
        assert!(!rules_for("crates/cluster/src/scenario.rs").contains(&Rule::D13));
        // D17 binds the client datapath crates; the reproduction allocates plain
        // bounce-mode buffers on purpose.
        assert!(rules_for("crates/core/src/client.rs").contains(&Rule::D17));
        assert!(rules_for("crates/blklayer/src/lib.rs").contains(&Rule::D17));
        assert!(!rules_for("crates/bench/src/datapath.rs").contains(&Rule::D17));
        assert!(!rules_for("crates/nvme/src/driver/local.rs").contains(&Rule::D17));
        // D19 rides the dataflow scope; tests stay exempt.
        assert!(rules_for("crates/core/src/client.rs").contains(&Rule::D19));
        assert!(!rules_for("tests/sanitize.rs").contains(&Rule::D19));
        // D21 binds the engine/teardown crates.
        assert!(rules_for("crates/core/src/client.rs").contains(&Rule::D21));
        assert!(rules_for("crates/nvme/src/engine.rs").contains(&Rule::D21));
        assert!(!rules_for("crates/smartio/src/service.rs").contains(&Rule::D21));
        // D22–D24 ride the dataflow scope (the explore fixture deck is
        // not production code); D25 refines D11, so it binds the
        // I/O/serve paths only.
        assert!(rules_for("crates/nvme/src/engine.rs").contains(&Rule::D22));
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D23));
        assert!(rules_for("crates/nvme/src/queue.rs").contains(&Rule::D24));
        assert!(!rules_for("crates/explore/src/fixtures.rs").contains(&Rule::D22));
        assert!(!rules_for("crates/nvme/tests/engine.rs").contains(&Rule::D22));
        assert!(!rules_for("tests/sanitize.rs").contains(&Rule::D23));
        assert!(rules_for("crates/core/src/manager.rs").contains(&Rule::D25));
        assert!(rules_for("crates/nvme/src/engine.rs").contains(&Rule::D25));
        assert!(!rules_for("crates/nvme/src/ctrl.rs").contains(&Rule::D25));
    }

    #[test]
    fn sarif_report_is_well_formed() {
        let findings = scan_source(
            "crates/fixture/src/lib.rs",
            "use std::time::Instant; // says \"now\"\n",
            &[Rule::D01],
        );
        assert_eq!(findings.len(), 1);
        let unused = vec![AllowFinding {
            path: "analyzer.toml".to_string(),
            line: 0,
            detail: "dead entry".to_string(),
        }];
        let sarif = to_sarif(&findings, &unused);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"name\":\"dnvme-lint\""));
        assert!(sarif.contains("\"ruleId\":\"D01\""));
        assert!(sarif.contains("\"ruleId\":\"strict-allow\""));
        assert!(sarif.contains("\"uri\":\"crates/fixture/src/lib.rs\""));
        assert!(sarif.contains("\"startLine\":1"));
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

    #[test]
    fn config_allowlist_parses_and_matches() {
        let cfg = Config::parse(
            "# comment\n[allow]\nD01 = [\"crates/bench\"]\n\"*\" = [\"crates/shims\"]\n",
        );
        assert!(cfg.allows(Rule::D01, "crates/bench/src/lib.rs"));
        assert!(!cfg.allows(Rule::D02, "crates/bench/src/lib.rs"));
        assert!(cfg.allows(Rule::D04, "crates/shims/parking_lot/src/lib.rs"));
    }

    #[test]
    fn allowlist_matches_on_component_boundaries_not_substrings() {
        // The historic bug: a `crates/nvme` entry must not bleed into
        // `crates/nvmeof`.
        let cfg = Config::parse("[allow]\nD03 = [\"crates/nvme\"]\n");
        assert!(cfg.allows(Rule::D03, "crates/nvme/src/engine.rs"));
        assert!(cfg.allows(Rule::D03, "crates/nvme"));
        assert!(!cfg.allows(Rule::D03, "crates/nvmeof/src/target.rs"));
    }
}
