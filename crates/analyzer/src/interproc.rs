//! dnvme-interproc: summary-based interprocedural dataflow (DESIGN §5.4).
//!
//! The intraprocedural values (D13, D15, D16) stop at a function
//! boundary: a host-tagged address handed back by one helper is
//! invisible to its caller, and the lock-order invariant is inherently
//! cross-function. This module closes that gap in two steps:
//!
//! 1. **Extraction** ([`FnLocal`]): per function, a small fact record
//!    read off the scan's shared [`FnFacts`] (calls, def-use chains,
//!    abstract values, the per-call site table) — a node graph
//!    (parameters + defs) with def-use flow edges and typed/host seeds,
//!    the nodes that bind a call's result, return-position facts, guard
//!    acquisitions with liveness windows, and D11-style blocking awaits.
//!    Extraction never looks at another file.
//! 2. **Composition** ([`Program`]): a bottom-up fixpoint over the whole
//!    program's call graph ([`Program::resolve`]: same-file definitions,
//!    `dyn Trait` dispatch by trait-impl enumeration, and program-unique
//!    free helpers) folds the records into per-function [`Summary`]s —
//!    the host tag of the returned address and the transitively acquired
//!    guard classes. The fixpoint iterates all functions until no
//!    summary changes. The fact *sets* only grow, but a summary keeps
//!    them as insertion-ordered lists and is compared as such, so inside
//!    a large call-graph cycle the order callees' facts arrive in can
//!    keep rotating: [`PASS_CAP`] bounds that, and [`Program::passes`]
//!    lets the tree's tests hold a scan below it.
//!
//! The rules grounded here:
//!
//! * **D07/D11/D17** (re-grounded): the reachability walk is now global
//!   — a root in `core::client` walks through `blklayer`, trait-object
//!   backends, and any helper file — instead of per-file.
//! * **D13** (re-grounded): a host-tagged address returned by a helper
//!   and used against another host's fabric domain is caught even
//!   though the tag was minted in a different function.
//! * **D19**: lock/RefCell acquisition-order cycles across functions
//!   (the interprocedural lock-order graph has `a → b` when `b` is
//!   acquired — directly or via a callee — while `a` is held; a 2-cycle
//!   is a deadlock/reentrant-borrow hazard, reported with both chains).
//! * **D21**: `reset_qpair` reachable from a datapath root without
//!   passing through the recovery-ladder frame (`recover*` /
//!   `recreate*`), i.e. a teardown while pending tags may be live.
//!
//! Findings carry the full call chain as related locations; the SARIF
//! and `--format github` writers render them.
//!
//! Raw addresses are not tracked: whether a bare `u64` reaches a fabric
//! sink — directly or through a helper's return, argument or `&mut`
//! out-parameter — is decided by the sinks' `PhysAddr` parameters at
//! `cargo build`.
//!
//! Precision notes (deliberate, mirrored in the fixtures): candidate
//! sets larger than [`CAND_CAP`] are treated as opaque unless the name
//! is a declared trait method (dispatch legitimately fans out there);
//! tail expressions containing block syntax only contribute direct
//! facts, not node flows; and only `let`-bound guards enter the D19
//! graph — expression temporaries drop before any call they could
//! order against.

use crate::ast::{Ast, Call, TokKind};
use crate::dataflow::{
    first_arg_path, live_end, stmt_end, AbstractVal, FnFacts, GUARD_CALLS, TRANSLATORS, WRAPPERS,
};
use crate::{Rule, SourceFile, D07_READS};
use std::collections::BTreeMap;

/// Candidate-set cap for summary composition: a callee name matched by
/// more functions than this is treated as opaque (no facts) unless it
/// is a declared trait method. Keeps ubiquitous names (`new`, `len`)
/// from smearing facts program-wide.
const CAND_CAP: usize = 6;
/// Call chains attached to findings are capped at this many hops.
const CHAIN_CAP: usize = 8;
/// Fixpoint pass cap — far above any real nesting depth. A call-graph
/// cycle whose summaries keep reordering the same facts (see the module
/// docs) stops here rather than hang; the scan reports its pass count,
/// so a tree that reaches the cap fails its test instead of being
/// truncated silently.
pub(crate) const PASS_CAP: usize = 50;

/// One hop of an interprocedural explanation: file index, 1-based line,
/// and a human-readable note.
pub(crate) type Chain = Vec<(usize, usize, String)>;

fn cap_chain(mut c: Chain) -> Chain {
    c.truncate(CHAIN_CAP);
    c
}

/// `hop` followed by a callee's explanation, capped.
fn hop_then(hop: (usize, usize, String), rest: &Chain) -> Chain {
    let mut chain = vec![hop];
    chain.extend(rest.iter().cloned());
    cap_chain(chain)
}

// ---------------------------------------------------------------------
// Per-function local facts
// ---------------------------------------------------------------------

/// Everything the composition pass needs to know about one function,
/// derived from its own file only. "Nodes" are the function's def-use
/// defs (parameters first); `vals` and `calls` are the shared fact set's
/// own lists, `vals` one entry per node, and the `call` indices below
/// index `calls`.
#[derive(Debug, Default)]
pub(crate) struct FnLocal<'a> {
    pub name: String,
    pub vals: &'a [AbstractVal],
    pub calls: &'a [Call],
    /// Def-use flow: `(src, dst)` — `dst`'s RHS reads `src`.
    pub flow: Vec<(usize, usize)>,
    /// `(call, node)` — the node's RHS is (or contains) this call.
    pub call_results: Vec<(usize, usize)>,
    /// Node used inside a fabric-sink argument list whose *local* host is
    /// unknown: `(domain ctx, line, node, translated)`.
    pub host_sink_uses: Vec<(String, usize, usize, bool)>,
    /// Nodes read in a return position (explicit `return` or tail expr).
    pub ret_nodes: Vec<usize>,
    /// Host tag minted directly in a return position.
    pub ret_host: Option<String>,
    /// `let`-bound guards: `(class, line)`.
    pub guards: Vec<(String, usize)>,
    /// Guard `b` acquired while guard `a` live: `(a, b, line_a, line_b)`.
    pub guard_pairs: Vec<(String, String, usize, usize)>,
    /// Call made while a guard is live: `(class, call, guard line)`.
    pub guard_over_calls: Vec<(String, usize, usize)>,
    /// Lines of directly-awaited unguarded blocking calls (D11).
    pub blocking_awaits: Vec<usize>,
}

/// Read one function's local facts off its shared fact set.
fn extract_fn<'a>(facts: &'a FnFacts) -> FnLocal<'a> {
    let (ast, f) = (facts.ast, facts.f);
    let toks = &ast.tokens;
    let (du, vals, calls, sites) = (facts.du(), facts.vals(), facts.calls(), facts.sites());
    let mut out = FnLocal {
        name: f.name.clone(),
        vals,
        calls,
        ..FnLocal::default()
    };
    // Flow edges: a use of `src` inside `dst`'s RHS.
    for u in &du.uses {
        for (di, d) in du.defs.iter().enumerate() {
            if d.expr.0 <= u.at && u.at < d.expr.1 && di != u.def {
                out.flow.push((u.def, di));
            }
        }
    }

    // ---- calls
    for (k, (call, site)) in calls.iter().zip(&sites.calls).enumerate() {
        let uses = &du.uses[site.uses.clone()];
        if let Some(ctx) = site.domain.as_ref().filter(|_| site.fabric_sink) {
            // Host-tagged uses are the intraprocedural D13 pass's.
            for u in uses.iter().filter(|u| vals[u.def].host.is_none()) {
                out.host_sink_uses
                    .push((ctx.clone(), u.line, u.def, sites.translated(du, u)));
            }
        }
        // Node whose RHS contains this call (result binding).
        for (di, d) in du.defs.iter().enumerate() {
            if d.expr.0 <= call.args.0 && call.args.1 <= d.expr.1 {
                out.call_results.push((k, di));
            }
        }
        // D11 facts: directly awaited, not inside a `timeout(..)` wrapper.
        if site.blocking_await && !site.in_timeout {
            out.blocking_awaits.push(call.line);
        }
    }

    // ---- return positions
    let mut ret_ranges: Vec<((usize, usize), bool)> = Vec::new(); // (range, full)
    let end = f.body.1.min(toks.len());
    for (i, t) in toks.iter().enumerate().take(end).skip(f.body.0) {
        if t.is("return") && t.kind == TokKind::Ident {
            ret_ranges.push(((i + 1, stmt_end(ast, i + 1, end)), true));
        }
    }
    // Tail expression: after the last `;` at body depth 0.
    let mut depth = 0isize;
    let mut tail_start = f.body.0 + 1;
    for (i, t) in toks.iter().enumerate().take(end).skip(f.body.0 + 1) {
        if t.punct('{') || t.punct('(') || t.punct('[') {
            depth += 1;
        } else if t.punct('}') || t.punct(')') || t.punct(']') {
            depth -= 1;
        } else if t.punct(';') && depth == 0 {
            tail_start = i + 1;
        }
    }
    if tail_start < end {
        // A tail containing block syntax is too coarse to attribute node
        // flows to the return value — only direct facts are taken.
        let simple = !(tail_start..end).any(|i| toks[i].punct('{'));
        ret_ranges.push(((tail_start, end), simple));
    }
    for &((a, b), full) in &ret_ranges {
        if full {
            for u in du.uses.iter().filter(|u| a <= u.at && u.at < b) {
                if !out.ret_nodes.contains(&u.def) {
                    out.ret_nodes.push(u.def);
                }
            }
        }
        let mut d = 0isize;
        for i in a..b {
            let t = &toks[i];
            if t.punct('{') {
                d += 1;
            } else if t.punct('}') {
                d -= 1;
            }
            if !full && d > 0 {
                continue;
            }
            if t.kind != TokKind::Ident {
                continue;
            }
            let minter = t.text != "PhysAddr"
                && (WRAPPERS.contains(&t.text.as_str()) || TRANSLATORS.contains(&t.text.as_str()));
            if minter && out.ret_host.is_none() {
                if let Some(open) = (i..b.min(i + 5)).find(|&x| toks[x].punct('(')) {
                    out.ret_host = first_arg_path(ast, open);
                }
            }
        }
    }

    // ---- guards (let-bound only; see module docs)
    let guard_info: Vec<(usize, String, usize, (usize, usize))> = du
        .defs
        .iter()
        .enumerate()
        .filter(|(di, d)| vals[*di].guard && d.name != "_")
        .filter_map(|(di, d)| {
            guard_class(ast, d.expr).map(|cls| {
                let live = (d.expr.1, live_end(du, di, f.body.1));
                (di, cls, d.line, live)
            })
        })
        .collect();
    for (i, (_, cls, line, live)) in guard_info.iter().enumerate() {
        out.guards.push((cls.clone(), *line));
        for (j, (_, cls2, line2, _)) in guard_info.iter().enumerate() {
            if i != j {
                let at2 = du.defs[guard_info[j].0].at;
                if live.0 <= at2 && at2 < live.1 {
                    out.guard_pairs
                        .push((cls.clone(), cls2.clone(), *line, *line2));
                }
            }
        }
        for (k, call) in calls.iter().enumerate() {
            if live.0 <= call.args.0 && call.args.0 < live.1 {
                out.guard_over_calls.push((cls.clone(), k, *line));
            }
        }
    }
    out
}

/// The lock-order class of a guard RHS: the receiver path component
/// directly before the outermost `.lock()`/`.borrow()`/`.borrow_mut()`.
fn guard_class(ast: &Ast, expr: (usize, usize)) -> Option<String> {
    let toks = &ast.tokens;
    let end = expr.1.min(toks.len());
    for i in (expr.0..end).rev() {
        if GUARD_CALLS.contains(&toks[i].text.as_str())
            && i >= 2
            && toks[i - 1].punct('.')
            && toks.get(i + 1).is_some_and(|n| n.punct('('))
            && toks[i - 2].kind == TokKind::Ident
        {
            return Some(toks[i - 2].text.clone());
        }
    }
    None
}

// ---------------------------------------------------------------------
// Summaries and composition
// ---------------------------------------------------------------------

/// The composed interprocedural summary of one function: the facts
/// the fixpoint compares. Why each holds is in the parallel [`Why`].
#[derive(Debug, Default, PartialEq)]
struct Summary {
    /// Returns an address tagged with this host path.
    ret_host: Option<String>,
    /// Guard classes acquired here or in any callee.
    acquired: Vec<String>,
}

/// The explanation of each [`Summary`] fact — the derivation found in
/// the pass that produced it, index-aligned with the fact lists.
#[derive(Debug, Default)]
struct Why {
    ret_host: Chain,
    acquired: Vec<Chain>,
}

/// Record `key` with its explanation unless the fact is already known.
fn learn(
    keys: &mut Vec<String>,
    chains: &mut Vec<Chain>,
    key: String,
    why: impl FnOnce() -> Chain,
) {
    if !keys.contains(&key) {
        keys.push(key);
        chains.push(why());
    }
}

/// One interprocedural finding: `file` and the chain's hops index the
/// scan's file list.
pub(crate) struct ProgFinding {
    pub rule: Rule,
    pub file: usize,
    pub line: usize,
    /// `(file, line, note)` related locations — the call chain.
    pub related: Chain,
}

/// The whole-program view: every file's per-function facts plus the
/// converged summaries.
pub(crate) struct Program<'a> {
    files: &'a [SourceFile<'a>],
    fns: Vec<FnLocal<'a>>,
    fn_file: Vec<usize>,
    by_name: BTreeMap<String, Vec<usize>>,
    trait_methods: Vec<String>,
    summaries: Vec<Summary>,
    why: Vec<Why>,
    /// Fixpoint passes run; [`PASS_CAP`] means it was cut off.
    pub passes: usize,
}

/// Per node: `(host tag, came through a call boundary, chain)`.
type NodeHosts = Vec<Option<(String, bool, Chain)>>;

impl<'a> Program<'a> {
    /// Extract every function of every file and run the summary
    /// fixpoint.
    pub(crate) fn build(files: &'a [SourceFile<'a>]) -> Program<'a> {
        let mut fns = Vec::new();
        let mut fn_file = Vec::new();
        let mut trait_methods: Vec<String> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            // Only *declared* traits widen dispatch: `impl Trait for`
            // blocks alone would drag in std names (`poll`, `drop`,
            // `fmt`) and smear summaries across the whole program.
            for m in file.ast.traits.iter().flat_map(|t| &t.methods) {
                if !trait_methods.contains(m) {
                    trait_methods.push(m.clone());
                }
            }
            for facts in &file.fns {
                fn_file.push(fi);
                fns.push(extract_fn(facts));
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut prog = Program {
            files,
            summaries: fns.iter().map(|_| Summary::default()).collect(),
            why: fns.iter().map(|_| Why::default()).collect(),
            fns,
            fn_file,
            by_name,
            trait_methods,
            passes: 0,
        };
        prog.fixpoint();
        prog
    }

    /// Number of function summaries computed (the BENCH counter).
    pub(crate) fn summary_count(&self) -> usize {
        self.fns.len()
    }

    /// Guard classes are keyed by defining file so same-named fields
    /// of unrelated types (`state` in the fabric vs `state` in the
    /// oracle) never alias into one lock class.
    fn guard_key(&self, file: usize, cls: &str) -> String {
        let rel = self.files[file].rel;
        let short = rel
            .strip_prefix("crates/")
            .unwrap_or(rel)
            .replace("/src/", "/");
        format!("{short}::{cls}")
    }

    /// Call-target resolution. Same-file definitions always resolve
    /// (the intraprocedural behaviour the engine grew out of); a call
    /// crosses a file boundary only through a trait-*declared* method
    /// name (`dyn` dispatch over a trait the workspace defines) or a
    /// free (non-method) call on a name with exactly one definition
    /// program-wide (a free-function helper). Method calls never
    /// cross files on a name match alone, whatever their receiver
    /// expression — `map.remove(k)` and `self.fabric().dma_write(..)`
    /// must not resolve to whatever single `fn remove`/`fn dma_write`
    /// the workspace happens to define — and `drop` never resolves at
    /// all: `drop(x)` is the
    /// std release function and `impl Drop` bodies are not explicitly
    /// callable. Without these fences a whole-program name walk
    /// smears through ubiquitous method names (`push`, `read`, `run`)
    /// and invents flows between unrelated crates.
    fn resolve(&self, caller_file: usize, call: &Call) -> Vec<usize> {
        if call.name == "drop" {
            return Vec::new();
        }
        let Some(all) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let dispatched = self.trait_methods.contains(&call.name);
        let unique_helper = all.len() == 1 && !call.method;
        all.iter()
            .copied()
            .filter(|&c| self.fn_file[c] == caller_file || dispatched || unique_helper)
            .collect()
    }

    /// Summary-composition candidates: [`Program::resolve`], but a
    /// non-dispatched name whose fan-out still exceeds [`CAND_CAP`]
    /// is treated as opaque rather than merging unrelated summaries.
    fn candidates(&self, caller_file: usize, call: &Call) -> Vec<usize> {
        let out = self.resolve(caller_file, call);
        if out.len() > CAND_CAP && !self.trait_methods.contains(&call.name) {
            return Vec::new();
        }
        out
    }

    fn fixpoint(&mut self) {
        while self.passes < PASS_CAP {
            self.passes += 1;
            let mut changed = false;
            for i in 0..self.fns.len() {
                let (s, w) = self.compute_summary(i);
                changed |= s != self.summaries[i];
                self.summaries[i] = s;
                self.why[i] = w;
            }
            if !changed {
                break;
            }
        }
    }

    fn compute_summary(&self, fidx: usize) -> (Summary, Why) {
        let f = &self.fns[fidx];
        let file = self.fn_file[fidx];
        let (mut s, mut w) = (Summary::default(), Why::default());

        // The returned address's host tag: minted in the return position,
        // or carried there by a node.
        if let Some(h) = &f.ret_host {
            s.ret_host = Some(h.clone());
        } else if !f.ret_nodes.is_empty() {
            let hosts = self.propagate(fidx);
            if let Some((h, _, ch)) = f.ret_nodes.iter().find_map(|&n| hosts[n].as_ref()) {
                s.ret_host = Some(h.clone());
                w.ret_host = cap_chain(ch.clone());
            }
        }
        // Acquired guard classes: local + transitive.
        for (cls, line) in &f.guards {
            let key = self.guard_key(file, cls);
            let note = format!("`{key}` guard acquired in `{}`", f.name);
            learn(&mut s.acquired, &mut w.acquired, key, || {
                vec![(file, *line, note)]
            });
        }
        for call in f.calls {
            for c in self.callees(fidx, call) {
                let held = self.summaries[c].acquired.iter().zip(&self.why[c].acquired);
                for (cls, ch) in held {
                    learn(&mut s.acquired, &mut w.acquired, cls.clone(), || {
                        let hop = (file, call.line, format!("via call to `{}`", call.name));
                        hop_then(hop, ch)
                    });
                }
            }
        }
        (s, w)
    }

    /// Whose summaries compose into `fidx` at `call`: its candidates,
    /// the caller itself excluded (recursion adds nothing new).
    fn callees(&self, fidx: usize, call: &Call) -> impl Iterator<Item = usize> {
        let cands = self.candidates(self.fn_file[fidx], call);
        cands.into_iter().filter(move |&c| c != fidx)
    }

    /// Propagate host tags over one function's node graph: tags minted
    /// locally and tags of callee-returned addresses seed it, def-use
    /// flow carries them, and a typed node keeps its own.
    fn propagate(&self, fidx: usize) -> NodeHosts {
        let f = &self.fns[fidx];
        let file = self.fn_file[fidx];
        let mut host: NodeHosts = f
            .vals
            .iter()
            .map(|v| v.host.as_ref().map(|h| (h.clone(), false, Vec::new())))
            .collect();
        for &(k, n) in &f.call_results {
            if f.vals[n].typed {
                continue;
            }
            let call = &f.calls[k];
            for c in self.callees(fidx, call) {
                if let (None, Some(h)) = (&host[n], &self.summaries[c].ret_host) {
                    let note = format!("`{}` returns an address in `{h}`'s domain", call.name);
                    let chain = hop_then((file, call.line, note), &self.why[c].ret_host);
                    host[n] = Some((h.clone(), true, chain));
                }
            }
        }
        loop {
            let mut changed = false;
            for &(src, dst) in &f.flow {
                if !f.vals[dst].typed && host[dst].is_none() && host[src].is_some() {
                    host[dst] = host[src].clone();
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        host
    }

    fn file_has(&self, file: usize, rule: Rule) -> bool {
        self.files[file].rules.contains(&rule)
    }

    /// All interprocedural findings, deduplicated by `(rule, file, line)`
    /// and sorted by `(file, line, rule)`.
    pub(crate) fn findings(&self) -> Vec<ProgFinding> {
        let mut out: Vec<ProgFinding> = Vec::new();
        let push = |out: &mut Vec<ProgFinding>, f: ProgFinding| {
            if !out
                .iter()
                .any(|x| x.rule == f.rule && x.file == f.file && x.line == f.line)
            {
                out.push(f);
            }
        };
        self.d13_findings(&mut |f| push(&mut out, f));
        self.d19_findings(&mut |f| push(&mut out, f));
        self.reach_findings(&mut |f| push(&mut out, f));
        out.sort_by(|a, b| (a.file, a.line, a.rule.code()).cmp(&(b.file, b.line, b.rule.code())));
        out
    }

    /// D13's helper-return completion: a node whose host tag arrived
    /// through a call, used untranslated against another host's domain.
    fn d13_findings(&self, hit: &mut dyn FnMut(ProgFinding)) {
        for (fidx, f) in self.fns.iter().enumerate() {
            let file = self.fn_file[fidx];
            if f.host_sink_uses.is_empty() || !self.file_has(file, Rule::D13) {
                continue;
            }
            let hosts = self.propagate(fidx);
            for (ctx, line, node, translated) in &f.host_sink_uses {
                if *translated {
                    continue;
                }
                if let Some((h, true, ch)) = &hosts[*node] {
                    if h != ctx {
                        hit(ProgFinding {
                            rule: Rule::D13,
                            file,
                            line: *line,
                            related: ch.clone(),
                        });
                    }
                }
            }
        }
    }

    fn d19_findings(&self, hit: &mut dyn FnMut(ProgFinding)) {
        // Lock-order edges: a → b when b is acquired (directly or via a
        // callee) while a is held. First derivation wins, deterministic
        // because functions and their facts are iterated in order.
        let mut edges: BTreeMap<(String, String), (usize, usize, Chain)> = BTreeMap::new();
        for (fidx, f) in self.fns.iter().enumerate() {
            let file = self.fn_file[fidx];
            for (a, b, la, lb) in &f.guard_pairs {
                let (ka, kb) = (self.guard_key(file, a), self.guard_key(file, b));
                if ka != kb {
                    edges.entry((ka.clone(), kb.clone())).or_insert_with(|| {
                        (
                            file,
                            *la,
                            vec![
                                (file, *la, format!("`{ka}` guard acquired in `{}`", f.name)),
                                (
                                    file,
                                    *lb,
                                    format!("`{kb}` guard acquired while `{ka}` held"),
                                ),
                            ],
                        )
                    });
                }
            }
            for (cls, k, la) in &f.guard_over_calls {
                let key = self.guard_key(file, cls);
                for c in self.callees(fidx, &f.calls[*k]) {
                    let held = self.summaries[c].acquired.iter().zip(&self.why[c].acquired);
                    for (h, hch) in held {
                        if *h != key {
                            edges.entry((key.clone(), h.clone())).or_insert_with(|| {
                                let mut chain = vec![
                                    (file, *la, format!("`{key}` guard acquired in `{}`", f.name)),
                                    (
                                        file,
                                        f.calls[*k].line,
                                        format!(
                                            "call into `{}` while `{key}` held",
                                            f.calls[*k].name
                                        ),
                                    ),
                                ];
                                chain.extend(hch.iter().cloned());
                                (file, *la, cap_chain(chain))
                            });
                        }
                    }
                }
            }
        }
        for ((a, b), (file, line, ch)) in &edges {
            if a >= b {
                continue;
            }
            let Some((rfile, rline, rch)) = edges.get(&(b.clone(), a.clone())) else {
                continue;
            };
            if !self.file_has(*file, Rule::D19) {
                continue;
            }
            let mut related = ch.clone();
            related.push((
                *rfile,
                *rline,
                format!("opposite order — `{b}` then `{a}`:"),
            ));
            related.extend(rch.iter().cloned());
            hit(ProgFinding {
                rule: Rule::D19,
                file: *file,
                line: *line,
                related: cap_chain(related),
            });
        }
    }

    /// D07/D11/D17/D21: one breadth-first walk of the call graph per
    /// [`REACH`] row, from the rule's roots. The walk tracks whether a
    /// `barrier`-prefixed frame (D21's recovery ladder) has been entered;
    /// a rule's sites count only in functions reachable outside one.
    fn reach_findings(&self, hit: &mut dyn FnMut(ProgFinding)) {
        let n = self.fns.len();
        for spec in &REACH {
            // Index 0: reached outside any barrier frame; 1: inside one.
            let mut parent: Vec<[Option<(usize, usize)>; 2]> = vec![[None; 2]; n];
            let mut visited = vec![[false; 2]; n];
            let mut queue: Vec<(usize, usize)> = Vec::new();
            for (i, f) in self.fns.iter().enumerate() {
                if self.file_has(self.fn_file[i], spec.rule)
                    && spec.roots.iter().any(|p| f.name.starts_with(p))
                {
                    visited[i][0] = true;
                    queue.push((i, 0));
                }
            }
            let mut qi = 0;
            while qi < queue.len() {
                let (i, state) = queue[qi];
                qi += 1;
                for call in self.fns[i].calls {
                    for c in self.resolve(self.fn_file[i], call) {
                        let inside = spec.barrier.iter().any(|p| self.fns[c].name.starts_with(p));
                        let state = state.max(usize::from(inside));
                        if !visited[c][state] {
                            visited[c][state] = true;
                            parent[c][state] = Some((i, call.line));
                            queue.push((c, state));
                        }
                    }
                }
            }
            for (i, f) in self.fns.iter().enumerate() {
                let file = self.fn_file[i];
                if !visited[i][0] || !self.file_has(file, spec.rule) {
                    continue;
                }
                for line in (spec.sites)(f) {
                    // The call chain back to the root (root first).
                    let mut related = Vec::new();
                    let mut j = i;
                    while let Some((p, line)) = parent[j][0] {
                        related.push((
                            self.fn_file[p],
                            line,
                            format!("`{}` calls `{}`", self.fns[p].name, self.fns[j].name),
                        ));
                        j = p;
                        if related.len() >= CHAIN_CAP {
                            break;
                        }
                    }
                    related.reverse();
                    hit(ProgFinding {
                        rule: spec.rule,
                        file,
                        line,
                        related,
                    });
                }
            }
        }
    }
}

/// One call-graph reachability rule: root-name prefixes, the frame
/// prefixes that fence the walk off, and the flagged sites of a reached
/// function (1-based lines).
struct ReachSpec {
    rule: Rule,
    roots: &'static [&'static str],
    barrier: &'static [&'static str],
    sites: fn(&FnLocal) -> Vec<usize>,
}

fn call_lines(f: &FnLocal, pred: impl Fn(&Call) -> bool) -> Vec<usize> {
    f.calls.iter().filter(|c| pred(c)).map(|c| c.line).collect()
}

const REACH: [ReachSpec; 4] = [
    // Teardown from a datapath root must pass the recovery ladder.
    ReachSpec {
        rule: Rule::D21,
        roots: &["submit", "issue"],
        barrier: &["recover", "recreate"],
        sites: |f| call_lines(f, |c| c.name == "reset_qpair"),
    },
    // I/O-path entry points: everything they (transitively) call is on
    // the I/O path and must stay free of non-posted reads.
    ReachSpec {
        rule: Rule::D07,
        roots: &["submit", "issue", "poll", "flush", "complet"],
        barrier: &[],
        sites: |f| call_lines(f, |c| D07_READS.contains(&c.name.as_str())),
    },
    // The I/O-path prefixes plus the manager's serve and reaper loops.
    // Bring-up (`connect`, `start`) may still block: a hung bring-up
    // fails the scenario immediately rather than wedging live I/O.
    ReachSpec {
        rule: Rule::D11,
        roots: &[
            "submit", "issue", "poll", "flush", "complet", "serve", "reap",
        ],
        barrier: &[],
        sites: |f| f.blocking_awaits.clone(),
    },
    // The client datapath entry points; `read*`/`write*` join the
    // submit/issue prefixes so blklayer-facing wrappers are walked too.
    ReachSpec {
        rule: Rule::D17,
        roots: &["submit", "issue", "read", "write"],
        barrier: &[],
        sites: |f| {
            call_lines(f, |c| {
                c.name == "alloc" && c.receiver.as_deref().is_some_and(|r| r.contains("fabric"))
            })
        },
    },
];
