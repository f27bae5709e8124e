//! dnvme-interproc: the whole-program call graph and D11's reachability
//! walk (DESIGN §5.4).
//!
//! D11 asks whether an unbounded blocking await is reachable from an I/O
//! or manager-serve root, and the root and the await rarely share a
//! function — or a file: a root in `core::client` reaches `blklayer`,
//! trait-object backends and helper files. [`Program`] holds every
//! function of the scan with its call list ([`FnFacts::calls`]),
//! resolves each call to its candidate definitions
//! ([`Program::resolve`]: same-file definitions, `dyn Trait` dispatch by
//! trait-impl enumeration, and program-unique free helpers), and walks
//! the graph breadth-first from the roots to every reached function's
//! unbounded blocking awaits (`blocking_awaits`). A finding carries the call
//! chain back to its root as related locations; the SARIF and `--format
//! github` writers render them.

use crate::ast::{Call, TokKind};
use crate::{FnFacts, Rule, SourceFile, D11_BLOCKING};
use std::collections::BTreeMap;

/// Call chains attached to findings are capped at this many hops.
const CHAIN_CAP: usize = 8;

/// Root-name prefixes of D11's walk: the I/O-path entry points plus the
/// manager's serve and reaper loops. Bring-up (`connect`, `start`) may
/// still block: a hung bring-up fails the scenario immediately rather
/// than wedging live I/O.
const D11_ROOTS: [&str; 7] = [
    "submit", "issue", "poll", "flush", "complet", "serve", "reap",
];

/// One interprocedural finding: `file` and the chain's hops index the
/// scan's file list; the chain is `(file, line, note)`, root first.
pub(crate) struct ProgFinding {
    pub rule: Rule,
    pub file: usize,
    pub line: usize,
    pub related: Vec<(usize, usize, String)>,
}

/// The whole-program view: every function of every file, with the name
/// index the resolver reads.
pub(crate) struct Program<'a> {
    files: &'a [SourceFile<'a>],
    /// `(file index, facts)` per function, in scan order.
    fns: Vec<(usize, &'a FnFacts<'a>)>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    trait_methods: Vec<&'a str>,
}

impl<'a> Program<'a> {
    pub(crate) fn build(files: &'a [SourceFile<'a>]) -> Program<'a> {
        let mut fns = Vec::new();
        let mut trait_methods: Vec<&str> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            // Only *declared* traits widen dispatch: `impl Trait for`
            // blocks alone would drag in std names (`poll`, `drop`,
            // `fmt`) and smear the walk across the whole program.
            for m in file.ast.traits.iter().flat_map(|t| &t.methods) {
                if !trait_methods.contains(&m.as_str()) {
                    trait_methods.push(m);
                }
            }
            fns.extend(file.fns.iter().map(|facts| (fi, facts)));
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, (_, facts)) in fns.iter().enumerate() {
            by_name.entry(facts.f.name.as_str()).or_default().push(i);
        }
        Program {
            files,
            fns,
            by_name,
            trait_methods,
        }
    }

    fn name(&self, i: usize) -> &str {
        &self.fns[i].1.f.name
    }

    /// Call-target resolution. Same-file definitions always resolve; a
    /// call crosses a file boundary only through a trait-*declared*
    /// method name (`dyn` dispatch over a trait the workspace defines) or
    /// a free (non-method) call on a name with exactly one definition
    /// program-wide (a free-function helper). Method calls never cross
    /// files on a name match alone, whatever their receiver expression —
    /// `map.remove(k)` and `self.fabric().dma_write(..)` must not resolve
    /// to whatever single `fn remove`/`fn dma_write` the workspace happens
    /// to define — and `drop` never resolves at all: `drop(x)` is the std
    /// release function and `impl Drop` bodies are not explicitly
    /// callable. Without these fences a whole-program name walk smears
    /// through ubiquitous method names (`push`, `read`, `run`) and
    /// invents paths between unrelated crates.
    fn resolve(&self, caller_file: usize, call: &Call) -> Vec<usize> {
        if call.name == "drop" {
            return Vec::new();
        }
        let Some(all) = self.by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        let dispatched = self.trait_methods.contains(&call.name.as_str());
        let unique_helper = all.len() == 1 && !call.method;
        all.iter()
            .copied()
            .filter(|&c| self.fns[c].0 == caller_file || dispatched || unique_helper)
            .collect()
    }

    /// D11: one breadth-first walk of the call graph from the roots of
    /// files D11 binds; every blocking await of a reached function in
    /// such a file is a finding, sorted by `(file, line)`.
    pub(crate) fn findings(&self) -> Vec<ProgFinding> {
        let binds = |file: usize| self.files[file].rules.contains(&Rule::D11);
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; self.fns.len()];
        let mut visited = vec![false; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (i, (file, facts)) in self.fns.iter().enumerate() {
            if binds(*file) && D11_ROOTS.iter().any(|p| facts.f.name.starts_with(p)) {
                visited[i] = true;
                queue.push(i);
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let i = queue[qi];
            qi += 1;
            let (file, facts) = self.fns[i];
            for call in facts.calls() {
                for c in self.resolve(file, call) {
                    if !visited[c] {
                        visited[c] = true;
                        parent[c] = Some((i, call.line));
                        queue.push(c);
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (i, &(file, facts)) in self.fns.iter().enumerate() {
            if !visited[i] || !binds(file) {
                continue;
            }
            for line in blocking_awaits(facts) {
                // The call chain back to the root (root first).
                let mut related = Vec::new();
                let mut j = i;
                while let Some((p, line)) = parent[j] {
                    let note = format!("`{}` calls `{}`", self.name(p), self.name(j));
                    related.push((self.fns[p].0, line, note));
                    j = p;
                    if related.len() >= CHAIN_CAP {
                        break;
                    }
                }
                related.reverse();
                out.push(ProgFinding {
                    rule: Rule::D11,
                    file,
                    line,
                    related,
                });
            }
        }
        out.sort_by_key(|f| (f.file, f.line));
        out.dedup_by_key(|f| (f.file, f.line));
        out
    }
}

/// D11's sites in one function: the lines of blocking calls awaited
/// outside any `timeout(..)` argument list — directly
/// (`admin.abort(q, c).await`) or through a `let` binding whose
/// right-hand side is the call (`let d = admin.delete_io_qpair(q); …
/// d.await`, reported on the await). A closure value or fn pointer does
/// not block, and handing the binding to `simcore::timeout(&h, t, d)` is
/// the guarded form.
fn blocking_awaits(facts: &FnFacts) -> Vec<usize> {
    let (ast, calls) = (facts.ast, facts.calls());
    let toks = &ast.tokens;
    let body_end = facts.f.body.1;
    let timeouts: Vec<(usize, usize)> = {
        let named = calls.iter().filter(|c| c.name == "timeout");
        named.map(|c| c.args).collect()
    };
    let guarded = |from: usize, to: usize| timeouts.iter().any(|t| t.0 < from && to <= t.1);
    // `.await` right after token `at`.
    let awaited = |at: usize| {
        toks.get(at + 1).is_some_and(|t| t.punct('.'))
            && toks.get(at + 2).is_some_and(|t| t.is("await"))
    };
    let mut lines = Vec::new();
    for call in calls {
        if !D11_BLOCKING.contains(&call.name.as_str()) {
            continue;
        }
        if awaited(call.args.1) {
            if !guarded(call.args.0, call.args.1) {
                lines.push(call.line);
            }
            continue;
        }
        // `let d = <call>;`: every later `d.await` blocks on the call.
        if !toks.get(call.args.1 + 1).is_some_and(|t| t.punct(';')) {
            continue;
        }
        let Some(name) = ast.binding_for(call.args.0) else {
            continue;
        };
        let later = toks.iter().enumerate().take(body_end).skip(call.args.1 + 2);
        for (at, t) in later {
            if t.kind == TokKind::Ident && t.is(name) && awaited(at) && !guarded(at, at + 1) {
                lines.push(t.line);
            }
        }
    }
    lines
}
