//! dnvme-dataflow: intraprocedural def-use chains and an abstract-value
//! lattice over the `crate::ast` token stream.
//!
//! The syntactic rules see single lines or call expressions; the domain,
//! interval and lock-order rules (D13, D15, D19) need to know *where a
//! value came from* — an address minted three statements ago in host A's
//! domain is still host A's when it reaches a fabric call for host B.
//! This module recovers that with two passes per function body:
//!
//! 1. **Def-use chains** (`def_use`): every `let` binding,
//!    reassignment, and `for` loop variable becomes a [`Def`]; every
//!    later mention of the name resolves to the nearest preceding def
//!    (shadowing-aware, so `let x = x + 1` reads the *old* `x`).
//! 2. **Abstract values** (`eval_fn`): each def's right-hand side is
//!    folded into an `AbstractVal` carrying
//!    * a host tag (the first-argument path of `MemRegion::new` /
//!      `DomainAddr::new`), so D13 can see an address minted in one
//!      host's domain crossing into another's, and a `typed` flag for
//!      values that just came out of a domain constructor or an NTB
//!      translation (such a value owns its tag: the interprocedural
//!      pass never overwrites it with one flowing in);
//!    * a constant interval for integers (literals, `for i in a..b`
//!      bounds, `+ - *` arithmetic, `const` items), so D15 can bound
//!      offset/length expressions against a region's literal length;
//!    * a flag for guard values (`.lock()` / `.borrow()` /
//!      `.borrow_mut()` as the outermost call), feeding D19.
//!
//! Everything is intraprocedural and name-based, matching the rest of
//! the analyzer: no type inference, no heap model. Whether an integer
//! is a *raw* address is not tracked at all: every fabric accessor takes
//! `PhysAddr`, so a `u64` at a sink is a type error (E0308), not a lint
//! finding.
//!
//! Since the CFG landed (`crate::cfg`), `eval_fn` is a forward
//! dataflow over basic blocks: defs are evaluated in reverse postorder
//! and, at every use, the values of all same-name definitions that
//! reach it merge under the lattice join (intervals take their hull,
//! disagreeing host tags drop to unknown). On a branch-free body no
//! merge fires; the property suite checks that case against values its
//! generator computes while it writes the body.
//!
//! A scan builds these products once per function: `FnFacts` holds the
//! call list, the parameter-aware def-use chains, the CFG, the abstract
//! values and the per-call site table (`Sites`) behind `OnceCell`s,
//! and both the interprocedural extractor and every per-function rule
//! read that one set.

use crate::ast::{Ast, Call, FnItem, TokKind};
use crate::cfg::Cfg;
use crate::{D08_WRITES, D11_BLOCKING, D13_FABRIC_SINKS, D13_REGION_SINKS};
use std::cell::OnceCell;
use std::ops::Range;

// ---------------------------------------------------------------------
// The per-function fact set
// ---------------------------------------------------------------------

/// One function's analysis products, each built on first use and then
/// shared by every reader in the scan. The def-use chains carry the
/// parameters ([`def_use_with_params`]) and the values are evaluated
/// with the file's `const` items in scope, so the one set serves the
/// summary extractor (parameter nodes) and D15 (constant intervals)
/// alike — the interval is the only lattice component the constants
/// can change.
pub(crate) struct FnFacts<'a> {
    pub ast: &'a Ast,
    pub f: &'a FnItem,
    /// The file's `const NAME: ty = <int>;` items ([`const_env`]).
    pub consts: &'a [(String, u64)],
    calls: OnceCell<Vec<Call>>,
    cfg: OnceCell<Cfg>,
    du: OnceCell<DefUse>,
    vals: OnceCell<Vec<AbstractVal>>,
    sites: OnceCell<Sites>,
}

impl<'a> FnFacts<'a> {
    pub(crate) fn new(ast: &'a Ast, f: &'a FnItem, consts: &'a [(String, u64)]) -> Self {
        FnFacts {
            ast,
            f,
            consts,
            calls: OnceCell::new(),
            cfg: OnceCell::new(),
            du: OnceCell::new(),
            vals: OnceCell::new(),
            sites: OnceCell::new(),
        }
    }

    /// Call expressions in the body, in token order.
    pub(crate) fn calls(&self) -> &[Call] {
        self.calls.get_or_init(|| self.ast.calls_in(self.f.body))
    }

    pub(crate) fn cfg(&self) -> &Cfg {
        self.cfg.get_or_init(|| Cfg::build(self.ast, self.f))
    }

    pub(crate) fn du(&self) -> &DefUse {
        self.du
            .get_or_init(|| def_use_with_params(self.ast, self.f.body, &self.f.params))
    }

    /// The abstract value of every def in [`FnFacts::du`].
    pub(crate) fn vals(&self) -> &[AbstractVal] {
        self.vals
            .get_or_init(|| eval_fn_cfg(self.ast, self.cfg(), self.du(), self.consts))
    }

    /// What the rules ask of each call site, and the submission events.
    pub(crate) fn sites(&self) -> &Sites {
        self.sites.get_or_init(|| build_sites(self))
    }
}

// ---------------------------------------------------------------------
// The per-call site table
// ---------------------------------------------------------------------

/// What the domain and bounds rules (D13, D15) and the summary
/// extractor ask of one call site.
pub(crate) struct CallSite {
    /// Region sinks (`contains`/`slice`): the def governing the receiver
    /// identifier at the call.
    pub recv_def: Option<usize>,
    /// Argument token ranges, split at top-level commas.
    pub args: Vec<(usize, usize)>,
    /// The [`DefUse::uses`] (token order) inside the argument list.
    pub uses: Range<usize>,
    /// D13: the host domain the call addresses — a fabric accessor's
    /// first-argument path, or the host of a region sink's receiver.
    pub domain: Option<String>,
    /// D11: a blocking fabric/admin call, directly `.await`ed (a closure
    /// value or fn pointer does not block).
    pub blocking_await: bool,
    /// Lexically inside a `timeout(..)` argument list: guarded.
    pub in_timeout: bool,
}

/// The submission-protocol events of one function body, in the
/// vocabulary shared by D08 (order) and D24 (repeated ring): doorbell
/// rings and SQE stores. Each event is `(token index, 1-based line)`;
/// rings also carry their receiver, which D24 pairs sites by.
#[derive(Default)]
pub(crate) struct SubmitEvents {
    pub rings: Vec<(usize, usize, String)>,
    pub stores: Vec<(usize, usize)>,
}

/// One function's call sites, read once off its tokens.
pub(crate) struct Sites {
    /// One entry per [`FnFacts::calls`] entry, same order.
    pub calls: Vec<CallSite>,
    pub events: SubmitEvents,
    /// Argument-list starts of the NTB translation calls.
    translations: Vec<usize>,
}

impl Sites {
    /// D13: an NTB translation call sits between the use's def and the
    /// use — the domain crossing is legitimate.
    pub(crate) fn translated(&self, du: &DefUse, u: &UseSite) -> bool {
        let def_at = du.defs[u.def].at;
        self.translations.iter().any(|&t| def_at < t && t < u.at)
    }
}

fn build_sites(facts: &FnFacts) -> Sites {
    #[cfg(test)]
    crate::tests::count("sites");
    let (ast, f, calls, du, vals) = (facts.ast, facts.f, facts.calls(), facts.du(), facts.vals());
    let toks = &ast.tokens;
    let timeouts: Vec<(usize, usize)> = {
        let named = calls.iter().filter(|c| c.name == "timeout");
        named.map(|c| c.args).collect()
    };
    let mut ev = SubmitEvents::default();
    let sites = calls
        .iter()
        .map(|call| {
            let (a, b) = (call.args.0, call.args.1.min(toks.len()));
            let name = call.name.as_str();
            let is_write = D08_WRITES.contains(&name);
            if name == "ring"
                || name == "ring_doorbell"
                || (is_write && ast.any_ident_in(call.args, |id| id.contains("doorbell")))
            {
                let recv = call.receiver.clone().unwrap_or_default();
                ev.rings.push((a, call.line, recv));
            } else if (is_write && ast.any_ident_in(call.args, |id| id.contains("sqe")))
                || (name == "push" && call.receiver.as_deref().is_some_and(|r| r.contains("sq")))
            {
                ev.stores.push((a, call.line));
            }
            let region_recv = call
                .receiver
                .as_ref()
                .filter(|_| D13_REGION_SINKS.contains(&name));
            let recv_def = region_recv.and_then(|r| {
                let before = |d: &Def| &d.name == r && d.at < a;
                du.defs.iter().rposition(before)
            });
            let domain = if D13_FABRIC_SINKS.contains(&name) {
                first_arg_path(ast, a - 1)
            } else {
                recv_def.and_then(|i| vals[i].host.clone())
            };
            CallSite {
                recv_def,
                args: split_args(ast, call.args),
                uses: du.uses.partition_point(|u| u.at < a)..du.uses.partition_point(|u| u.at < b),
                domain,
                blocking_await: D11_BLOCKING.contains(&name)
                    && toks.get(call.args.1 + 1).is_some_and(|t| t.punct('.'))
                    && toks.get(call.args.1 + 2).is_some_and(|t| t.is("await")),
                in_timeout: timeouts.iter().any(|t| t.0 < a && call.args.1 <= t.1),
            }
        })
        .collect();
    for fa in ast.field_assigns_in(f.body) {
        if fa.path.iter().any(|seg| seg.contains("sqe")) {
            ev.stores.push((fa.at, fa.line));
        }
    }
    ev.rings.sort_unstable();
    ev.stores.sort_unstable();
    let translators = calls
        .iter()
        .filter(|c| TRANSLATORS.contains(&c.name.as_str()));
    Sites {
        calls: sites,
        events: ev,
        translations: translators.map(|c| c.args.0).collect(),
    }
}

// ---------------------------------------------------------------------
// Def-use chains
// ---------------------------------------------------------------------

/// One definition: a `let` binding, a reassignment, or a `for` binding.
#[derive(Clone, Debug)]
pub struct Def {
    /// The bound identifier.
    pub name: String,
    /// Token index of the bound identifier.
    pub at: usize,
    /// 1-based source line of the binding.
    pub line: usize,
    /// Token range of the right-hand side (for `for` defs, the range
    /// expression), exclusive end.
    pub expr: (usize, usize),
}

/// One use: an identifier occurrence resolved to its governing def.
#[derive(Clone, Debug)]
pub struct UseSite {
    /// Index into the function's def list.
    pub def: usize,
    /// Token index of the identifier.
    pub at: usize,
    /// 1-based source line.
    pub line: usize,
}

/// A function body's def-use chains.
#[derive(Clone, Debug, Default)]
pub struct DefUse {
    pub defs: Vec<Def>,
    pub uses: Vec<UseSite>,
}

impl DefUse {
    /// The `(use ordinal → def ordinal)` shape: the part of the chains
    /// that must survive consistent renaming of any binding.
    pub fn shape(&self) -> Vec<usize> {
        self.uses.iter().map(|u| u.def).collect()
    }

    /// Uses of def `d`, in token order.
    pub(crate) fn uses_of(&self, d: usize) -> impl Iterator<Item = &UseSite> {
        self.uses.iter().filter(move |u| u.def == d)
    }
}

/// Def-use chains for every function in `src` (public so the property
/// tests can drive the builder on synthetic bodies).
pub fn build_def_use(src: &str) -> Vec<(String, DefUse)> {
    let ast = Ast::parse(src);
    ast.functions
        .iter()
        .map(|f| (f.name.clone(), def_use(&ast, f.body)))
        .collect()
}

/// Def-use chains for a body with the function's parameters prepended as
/// defs (empty RHS at the signature token). Uses inside the body resolve
/// to the parameter until a local binding shadows it, which is what the
/// interprocedural summaries need: "does param `i` reach a sink/return?"
/// is a plain reachability question over these chains.
fn def_use_with_params(ast: &Ast, body: (usize, usize), params: &[crate::ast::Param]) -> DefUse {
    let mut defs: Vec<Def> = params
        .iter()
        .map(|p| Def {
            name: p.name.clone(),
            at: p.at,
            line: ast.tokens.get(p.at).map_or(0, |t| t.line),
            expr: (p.at, p.at), // empty RHS: nothing to evaluate
        })
        .collect();
    defs.extend(body_defs(ast, body));
    // Parameter reassignments: the body pass cannot see `p = …` (and
    // deliberately skips `*p = …`) because parameter names are not
    // `let` defs there. Both forms rebind what later reads of the name
    // see, so both become defs here.
    {
        let toks = &ast.tokens;
        let end = body.1.min(toks.len());
        for i in body.0..end {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !toks.get(i + 1).is_some_and(|n| n.punct('='))
                || toks
                    .get(i + 2)
                    .is_some_and(|n| n.punct('=') || n.punct('>'))
                || i == 0
                || !params.iter().any(|p| p.name == t.text)
                || defs.iter().any(|d| d.at == i)
            {
                continue;
            }
            let prev = &toks[i - 1];
            let deref = prev.punct('*');
            let plain = !prev.punct('.')
                && !"=<>!+-*/%&|^".contains(prev.text.as_str())
                && !prev.is("let")
                && !prev.is("mut");
            if !(deref || plain) {
                continue;
            }
            let stop = stmt_end(ast, i + 2, end);
            defs.push(Def {
                name: t.text.clone(),
                at: i,
                line: t.line,
                expr: (i + 2, stop),
            });
        }
    }
    let uses = resolve_uses(ast, body, &defs);
    DefUse { defs, uses }
}

/// Token index where def `di`'s value stops being live: its last use, or
/// — for a never-used def — the point where a later same-name def
/// rebinds the name (shadowing/reassignment kills the old value), else
/// `body_end`. A bare `let _ = …` dies at the end of its own
/// initializer (Rust drops it immediately; a named `_g` still holds to
/// scope end). This is D19's liveness question: "is the guard still
/// held at token X?" — `drop(g)` counts as a last use, and a rebind
/// (`g = other.lock()`) releases the previous guard, so neither extends
/// liveness to the body end.
pub(crate) fn live_end(du: &DefUse, di: usize, body_end: usize) -> usize {
    let d = &du.defs[di];
    if let Some(last) = du.uses_of(di).map(|u| u.at).max() {
        return last + 1;
    }
    if d.name == "_" {
        return d.expr.1;
    }
    du.defs
        .iter()
        .find(|n| n.name == d.name && n.at > d.at)
        .map_or(body_end, |n| n.at)
}

/// Scan one body's tokens into def-use chains.
pub(crate) fn def_use(ast: &Ast, body: (usize, usize)) -> DefUse {
    let defs = body_defs(ast, body);
    let uses = resolve_uses(ast, body, &defs);
    DefUse { defs, uses }
}

/// Pass 1: a body's definitions, in token order.
fn body_defs(ast: &Ast, body: (usize, usize)) -> Vec<Def> {
    let toks = &ast.tokens;
    let end = body.1.min(toks.len());
    let mut defs: Vec<Def> = Vec::new();
    let mut i = body.0;
    while i < end {
        let t = &toks[i];
        if t.is("let") && t.kind == TokKind::Ident {
            // `let [mut] name [: ty] = rhs ;` — single-ident patterns
            // only; tuple/struct patterns are skipped (no chain).
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is("mut")) {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                // Find the `=` introducing the RHS before the statement
                // ends; a `;` or `{` first means no initializer here.
                let mut k = j + 1;
                let mut eq = None;
                while k < end {
                    let tk = &toks[k];
                    if tk.punct('=') && !toks.get(k + 1).is_some_and(|n| n.punct('=')) {
                        eq = Some(k);
                        break;
                    }
                    if tk.punct(';') || tk.punct('{') {
                        break;
                    }
                    k += 1;
                }
                if let Some(eq) = eq {
                    let stop = stmt_end(ast, eq + 1, end);
                    defs.push(Def {
                        name: name.text.clone(),
                        at: j,
                        line: name.line,
                        expr: (eq + 1, stop),
                    });
                    i = j;
                }
            }
        } else if t.is("for") && t.kind == TokKind::Ident {
            // `for name in range { … }` — the range tokens are the expr.
            if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                if toks.get(i + 2).is_some_and(|t| t.is("in")) {
                    let mut k = i + 3;
                    while k < end && !toks[k].punct('{') {
                        k += 1;
                    }
                    defs.push(Def {
                        name: name.text.clone(),
                        at: i + 1,
                        line: name.line,
                        expr: (i + 3, k),
                    });
                }
            }
        } else if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.punct('='))
            && !toks
                .get(i + 2)
                .is_some_and(|n| n.punct('=') || n.punct('>'))
            && i > body.0
            && !toks[i - 1].punct('.')
            && !"=<>!+-*/%&|^".contains(toks[i - 1].text.as_str())
            && !toks[i - 1].is("let")
            && !toks[i - 1].is("mut")
            && defs.iter().any(|d| d.name == t.text)
        {
            // Reassignment of a known binding: a fresh def.
            let stop = stmt_end(ast, i + 2, end);
            defs.push(Def {
                name: t.text.clone(),
                at: i,
                line: t.line,
                expr: (i + 2, stop),
            });
        }
        i += 1;
    }
    defs
}

/// Pass 2: uses. Each in-scope identifier mention resolves to the
/// nearest preceding def of that name — excluding a def whose own RHS
/// contains the mention (`let x = x + 1` reads the old `x`).
fn resolve_uses(ast: &Ast, body: (usize, usize), defs: &[Def]) -> Vec<UseSite> {
    #[cfg(test)]
    crate::tests::count("def_use");
    let toks = &ast.tokens;
    let mut uses = Vec::new();
    for i in body.0..body.1.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if defs.iter().any(|d| d.at == i) {
            continue; // the binding occurrence itself
        }
        if i > 0 && toks[i - 1].punct('.') {
            continue; // field or method name, not the value
        }
        // Struct-literal / parameter labels: `Foo { name: v }`.
        if toks.get(i + 1).is_some_and(|n| n.punct(':'))
            && !toks.get(i + 2).is_some_and(|n| n.punct(':'))
            && i > 0
            && (toks[i - 1].punct('{') || toks[i - 1].punct(',') || toks[i - 1].punct('('))
        {
            continue;
        }
        if let Some(d) = resolve_use(defs, &t.text, i) {
            uses.push(UseSite {
                def: d,
                at: i,
                line: t.line,
            });
        }
    }
    uses
}

/// The def governing a mention of `name` at token `at`: the latest def
/// with `def.at < at`, skipping a same-name def whose RHS contains `at`
/// (its initializer still reads the previous binding).
fn resolve_use(defs: &[Def], name: &str, at: usize) -> Option<usize> {
    defs.iter()
        .enumerate()
        .filter(|(_, d)| d.name == name && d.at < at && !(d.expr.0 <= at && at < d.expr.1))
        .max_by_key(|(_, d)| d.at)
        .map(|(i, _)| i)
}

/// Token index one past the statement starting at `from`: the `;` at
/// zero delimiter depth, or `end`.
pub(crate) fn stmt_end(ast: &Ast, from: usize, end: usize) -> usize {
    let mut depth = 0isize;
    for (k, t) in ast.tokens[from..end].iter().enumerate() {
        if t.punct('(') || t.punct('[') || t.punct('{') {
            depth += 1;
        } else if t.punct(')') || t.punct(']') || t.punct('}') {
            depth -= 1;
            if depth < 0 {
                return from + k;
            }
        } else if t.punct(';') && depth == 0 {
            return from + k;
        }
    }
    end
}

// ---------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------

/// What the dataflow pass knows about one def's value.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct AbstractVal {
    /// The RHS names a domain constructor ([`WRAPPERS`]) or an NTB
    /// translation ([`TRANSLATORS`]): the value owns its host tag.
    pub typed: bool,
    /// The host-domain tag: the dotted first-argument path of the
    /// `MemRegion::new` / `DomainAddr::new` that minted the value.
    pub host: Option<String>,
    /// Constant interval `[lo, hi]` when statically known.
    pub range: Option<(u64, u64)>,
    /// Literal region length, for defs minted by `MemRegion::new(_,_,N)`
    /// or `.slice(_, N)`.
    pub region_len: Option<u64>,
    /// The value is a lock/borrow guard (`.lock()` / `.borrow()` /
    /// `.borrow_mut()` as the outermost call).
    pub guard: bool,
}

/// The address-domain constructors.
pub(crate) const WRAPPERS: [&str; 3] = ["PhysAddr", "DomainAddr", "MemRegion"];
/// Calls that translate an address across an NTB (domain-crossing is
/// legitimate downstream of any of these).
pub(crate) const TRANSLATORS: [&str; 4] = [
    "translate",
    "map_for_device",
    "map_for_cpu",
    "program_window",
];
/// Guard-producing calls (D19).
pub(crate) const GUARD_CALLS: [&str; 3] = ["lock", "borrow", "borrow_mut"];

/// `const NAME: ty = <int literal>;` items in the file, for D15 ranges.
pub(crate) fn const_env(ast: &Ast) -> Vec<(String, u64)> {
    let toks = &ast.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is("const") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        // const NAME : TY = LIT ;
        let mut j = i + 2;
        while j < toks.len() && !toks[j].punct('=') && !toks[j].punct(';') {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.punct('=')) {
            continue;
        }
        if let Some(v) = toks.get(j + 1).and_then(|t| parse_num(&t.text)) {
            if toks.get(j + 2).is_some_and(|t| t.punct(';')) {
                out.push((name.text.clone(), v));
            }
        }
    }
    out
}

/// Parse an integer literal token (`4096`, `0x1000`, `512u64`, with
/// `_` separators).
pub(crate) fn parse_num(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    let t = t
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("u16")
        .trim_end_matches("u8")
        .trim_end_matches("usize");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// Evaluate every def of `f`'s body with the CFG-grounded forward
/// dataflow (builds the graph; use [`eval_fn_cfg`] to share one).
fn eval_fn(ast: &Ast, f: &FnItem, du: &DefUse, consts: &[(String, u64)]) -> Vec<AbstractVal> {
    let cfg = Cfg::build(ast, f);
    eval_fn_cfg(ast, &cfg, du, consts)
}

/// Forward dataflow over basic blocks: defs are evaluated in reverse
/// postorder (so a def in a loop body sees the header's bindings), and
/// at every use the values of all same-name definitions reaching it
/// merge under [`join_vals`]. A definition reaches a use when some
/// path from the end of its binding statement arrives at the use
/// without executing another binding of the name — on a straight-line
/// body no merge ever fires. Defs still changing at the
/// pass bound (loop-carried arithmetic) have their interval widened to
/// Top rather than keeping the last sample.
pub(crate) fn eval_fn_cfg(
    ast: &Ast,
    cfg: &Cfg,
    du: &DefUse,
    consts: &[(String, u64)],
) -> Vec<AbstractVal> {
    #[cfg(test)]
    crate::tests::count("eval");
    let n = du.defs.len();
    let mut vals: Vec<AbstractVal> = vec![AbstractVal::default(); n];
    if n == 0 {
        return vals;
    }
    // Parameters (signature tokens) and anything the lowering did not
    // place evaluate as entry-block defs.
    let dblock: Vec<usize> = du
        .defs
        .iter()
        .map(|d| cfg.block_of(d.at).unwrap_or(cfg.entry))
        .collect();
    let mut rpo_pos = vec![usize::MAX; cfg.blocks.len()];
    for (k, &b) in cfg.rpo().iter().enumerate() {
        rpo_pos[b] = k;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (rpo_pos[dblock[i]], du.defs[i].at));
    // Only same-name defs can merge; precompute the sibling sets and
    // the kill positions (every binding of the name).
    let siblings: Vec<Vec<usize>> = (0..n)
        .map(|di| {
            (0..n)
                .filter(|&j| j != di && du.defs[j].name == du.defs[di].name)
                .collect()
        })
        .collect();
    let mut grew = vec![false; n];
    for pass in 0..4 {
        let mut changed = false;
        for &di in &order {
            let mut v = eval_expr(ast, du, &vals, di, du.defs[di].expr, consts);
            for u in du.uses_of(di) {
                let Some(ub) = cfg.block_of(u.at) else {
                    continue;
                };
                for &dj in &siblings[di] {
                    if !cfg.reachable(dblock[dj]) {
                        continue;
                    }
                    // The sibling's value exists only once its binding
                    // statement completed; any other binding of the
                    // name on the way kills it.
                    let src = du.defs[dj].expr.1.max(du.defs[dj].at);
                    let kill: Vec<usize> = siblings[di]
                        .iter()
                        .copied()
                        .chain(std::iter::once(di))
                        .filter(|&k| k != dj)
                        .map(|k| du.defs[k].at)
                        .collect();
                    if cfg.site_reaches_site((dblock[dj], src), (ub, u.at), &kill) {
                        v = join_vals(&v, &vals[dj]);
                    }
                }
            }
            if vals[di] != v {
                grew[di] |= pass > 0;
                vals[di] = v;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if pass == 3 {
            // Still moving: widen whatever kept changing.
            for di in 0..n {
                if grew[di] {
                    vals[di].range = None;
                }
            }
        }
    }
    vals
}

/// Lattice join at a control-flow merge: intervals take their hull;
/// typed/host/region/guard facts survive only when both sides agree.
fn join_vals(a: &AbstractVal, b: &AbstractVal) -> AbstractVal {
    AbstractVal {
        typed: a.typed && b.typed,
        host: match (&a.host, &b.host) {
            (Some(x), Some(y)) if x == y => Some(x.clone()),
            _ => None,
        },
        range: match (a.range, b.range) {
            (Some(x), Some(y)) => Some((x.0.min(y.0), x.1.max(y.1))),
            _ => None,
        },
        region_len: match (a.region_len, b.region_len) {
            (Some(x), Some(y)) if x == y => Some(x),
            _ => None,
        },
        guard: a.guard && b.guard,
    }
}

/// Debug digest of every def's abstract value per function, from the
/// CFG-grounded engine (public for the property suite's oracle).
pub fn eval_digest(src: &str) -> Vec<(String, Vec<String>)> {
    let ast = Ast::parse(src);
    let consts = const_env(&ast);
    let per_fn = ast.functions.iter().map(|f| {
        let vals = eval_fn(&ast, f, &def_use(&ast, f.body), &consts);
        (
            f.name.clone(),
            vals.iter().map(|v| format!("{v:?}")).collect(),
        )
    });
    per_fn.collect()
}

/// Fold one RHS token range into an abstract value.
fn eval_expr(
    ast: &Ast,
    du: &DefUse,
    vals: &[AbstractVal],
    def_idx: usize,
    expr: (usize, usize),
    consts: &[(String, u64)],
) -> AbstractVal {
    let toks = &ast.tokens;
    let (start, end) = (expr.0, expr.1.min(toks.len()));
    let mut v = AbstractVal::default();

    let mut inherited_host = None;

    for i in start..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Domain constructors: `PhysAddr(…)` / `DomainAddr::new(h, …)`.
        if WRAPPERS.contains(&t.text.as_str()) {
            v.typed = true;
            if t.text != "PhysAddr" {
                // Host tag: first argument of `::new(h, …)`.
                if let Some(open) = (i..end.min(i + 5)).find(|&k| toks[k].punct('(')) {
                    if let Some(path) = first_arg_path(ast, open) {
                        v.host = Some(path);
                    }
                    // Region length: `MemRegion::new(h, a, LIT)`.
                    if t.text == "MemRegion" {
                        if let Some(n) = last_arg_literal(ast, open) {
                            v.region_len = Some(n);
                        }
                    }
                }
            }
        }
        if TRANSLATORS.contains(&t.text.as_str()) {
            v.typed = true; // translated values are device-visible
        }
        if GUARD_CALLS.contains(&t.text.as_str())
            && i > start
            && toks[i - 1].punct('.')
            && toks.get(i + 1).is_some_and(|n| n.punct('('))
            && guard_is_outermost(ast, i, end)
        {
            v.guard = true;
        }
        // `.slice(_, LIT)` re-derives a region with a literal length.
        if t.is("slice") && toks.get(i + 1).is_some_and(|n| n.punct('(')) {
            if let Some(n) = last_arg_literal(ast, i + 1) {
                v.region_len = Some(n);
            }
        }
        // Inherit from referenced defs (uses inside this RHS).
        if let Some(u) = du.uses.iter().find(|u| u.at == i) {
            if u.def < vals.len() && u.def != def_idx {
                let uv = &vals[u.def];
                if uv.host.is_some() && inherited_host.is_none() {
                    inherited_host.clone_from(&uv.host);
                }
                if v.region_len.is_none() {
                    v.region_len = uv.region_len;
                }
            }
        }
    }

    // Constant interval: literal, `a..b` range (for-loops), or a
    // left-associated `+ - *` chain over known terms.
    v.range = eval_range(ast, du, vals, expr, consts);
    if v.host.is_none() {
        v.host = inherited_host;
    }
    v
}

/// Whether a guard call at token `i` is the outermost producer of the
/// RHS: after its closing paren only `.unwrap()` / `.expect(…)` may
/// follow before the expression ends (a trailing field access or method
/// means the guard is a dropped temporary, not the bound value).
fn guard_is_outermost(ast: &Ast, i: usize, end: usize) -> bool {
    let toks = &ast.tokens;
    let close = crate::ast::match_delim(toks, i + 1, '(', ')');
    let mut k = close + 1;
    while k < end {
        if toks[k].punct('.')
            && toks
                .get(k + 1)
                .is_some_and(|t| t.is("unwrap") || t.is("expect"))
            && toks.get(k + 2).is_some_and(|t| t.punct('('))
        {
            k = crate::ast::match_delim(toks, k + 2, '(', ')') + 1;
        } else {
            return false;
        }
    }
    true
}

/// The dotted path of the first argument of the call whose `(` is at
/// `open`, when it is a simple `a.b.c` chain (`self.host`, `host_a`).
pub(crate) fn first_arg_path(ast: &Ast, open: usize) -> Option<String> {
    let toks = &ast.tokens;
    let close = crate::ast::match_delim(toks, open, '(', ')');
    let mut parts = Vec::new();
    let mut k = open + 1;
    while k < close {
        let t = &toks[k];
        if t.punct(',') {
            break;
        }
        if t.kind == TokKind::Ident {
            parts.push(t.text.clone());
        } else if !t.punct('.') && !t.punct('&') {
            return None; // not a simple path
        }
        k += 1;
    }
    (!parts.is_empty()).then(|| parts.join("."))
}

/// The literal value of the call's last argument, if it is a single
/// numeric token or a known `const`.
fn last_arg_literal(ast: &Ast, open: usize) -> Option<u64> {
    let toks = &ast.tokens;
    let close = crate::ast::match_delim(toks, open, '(', ')');
    // Walk back from the close paren: the last argument must be one
    // token (or `mod :: CONST`, from which we take the tail ident).
    let last = toks.get(close.checked_sub(1)?)?;
    let boundary = toks.get(close.checked_sub(2)?);
    let at_boundary = boundary.is_some_and(|t| t.punct(',') || t.punct('('));
    if last.kind == TokKind::Num && at_boundary {
        return parse_num(&last.text);
    }
    None
}

/// Split a call's argument token range at top-level commas.
fn split_args(ast: &Ast, args: (usize, usize)) -> Vec<(usize, usize)> {
    let toks = &ast.tokens;
    let (start, end) = (args.0, args.1.min(toks.len()));
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut from = start;
    for (i, t) in toks.iter().enumerate().take(end).skip(start) {
        if t.punct('(') || t.punct('[') || t.punct('{') {
            depth += 1;
        } else if t.punct(')') || t.punct(']') || t.punct('}') {
            depth -= 1;
        } else if t.punct(',') && depth == 0 {
            out.push((from, i));
            from = i + 1;
        }
    }
    if from < end {
        out.push((from, end));
    }
    out
}

/// Evaluate a token range as a constant interval: a literal, a known
/// const/def, an `a..b` range, or `+ - *` arithmetic over those.
pub(crate) fn eval_range(
    ast: &Ast,
    du: &DefUse,
    vals: &[AbstractVal],
    expr: (usize, usize),
    consts: &[(String, u64)],
) -> Option<(u64, u64)> {
    let toks = &ast.tokens;
    let (start, end) = (expr.0, expr.1.min(toks.len()));
    if start >= end {
        return None;
    }
    // `a..b` / `a..=b`: the for-loop interval [a, b-1] / [a, b].
    let mut depth = 0isize;
    for i in start..end.saturating_sub(1) {
        let t = &toks[i];
        if t.punct('(') || t.punct('[') {
            depth += 1;
        } else if t.punct(')') || t.punct(']') {
            depth -= 1;
        } else if depth == 0 && t.punct('.') && toks[i + 1].punct('.') {
            let inclusive = toks.get(i + 2).is_some_and(|t| t.punct('='));
            let lo = eval_range(ast, du, vals, (start, i), consts)?;
            let hi_start = if inclusive { i + 3 } else { i + 2 };
            let hi = eval_range(ast, du, vals, (hi_start, end), consts)?;
            let hi_val = if inclusive {
                hi.1
            } else {
                hi.1.checked_sub(1)?
            };
            return (lo.0 <= hi_val).then_some((lo.0, hi_val));
        }
    }
    // Left-associated `term (op term)*` over `+ - *`.
    let mut terms: Vec<(usize, usize)> = Vec::new();
    let mut ops: Vec<char> = Vec::new();
    let mut depth = 0isize;
    let mut term_start = start;
    for (i, t) in toks.iter().enumerate().take(end).skip(start) {
        if t.punct('(') || t.punct('[') {
            depth += 1;
        } else if t.punct(')') || t.punct(']') {
            depth -= 1;
        } else if depth == 0 && (t.punct('+') || t.punct('*') || t.punct('-')) && i > term_start {
            terms.push((term_start, i));
            ops.push(t.text.chars().next().unwrap_or('+'));
            term_start = i + 1;
        }
    }
    terms.push((term_start, end));
    if terms.len() > 1 {
        let mut acc = eval_range(ast, du, vals, terms[0], consts)?;
        for (op, term) in ops.iter().zip(&terms[1..]) {
            let rhs = eval_range(ast, du, vals, *term, consts)?;
            acc = match op {
                '+' => (acc.0.saturating_add(rhs.0), acc.1.saturating_add(rhs.1)),
                '*' => (acc.0.saturating_mul(rhs.0), acc.1.saturating_mul(rhs.1)),
                '-' => (acc.0.saturating_sub(rhs.1), acc.1.saturating_sub(rhs.0)),
                _ => return None,
            };
        }
        return Some(acc);
    }
    // Single term: strip parens / casts, then literal, const, or def.
    let mut s = start;
    let mut e = end;
    // `expr as u64` — the cast does not change the interval.
    if e >= s + 2 && toks[e - 2].is("as") {
        e -= 2;
    }
    // Clamp arithmetic: `recv.min(k)` / `.max(k)` / `.saturating_sub(k)`
    // fold their intervals instead of dropping the whole expression to
    // Top, and `region.len()` reads the receiver's literal region
    // length — the clamp-then-slice pattern D15 kept losing.
    {
        let mut depth = 0isize;
        for m in s..e {
            let t = &toks[m];
            if t.punct('(') || t.punct('[') {
                depth += 1;
            } else if t.punct(')') || t.punct(']') {
                depth -= 1;
            } else if depth == 0 && t.punct('.') && m + 2 < e {
                let name = &toks[m + 1];
                if name.kind != TokKind::Ident
                    || !toks[m + 2].punct('(')
                    || crate::ast::match_delim(toks, m + 2, '(', ')') != e - 1
                {
                    continue;
                }
                match name.text.as_str() {
                    "min" | "max" | "saturating_sub" => {
                        let recv = eval_range(ast, du, vals, (s, m), consts);
                        let arg = eval_range(ast, du, vals, (m + 3, e - 1), consts);
                        if let (Some(r), Some(a)) = (recv, arg) {
                            return Some(match name.text.as_str() {
                                "min" => (r.0.min(a.0), r.1.min(a.1)),
                                "max" => (r.0.max(a.0), r.1.max(a.1)),
                                _ => (r.0.saturating_sub(a.1), r.1.saturating_sub(a.0)),
                            });
                        }
                    }
                    "len" if m + 3 == e - 1 && m > s => {
                        if let Some(u) = du.uses.iter().find(|u| u.at == m - 1) {
                            if let Some(len) = vals.get(u.def).and_then(|v| v.region_len) {
                                return Some((len, len));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    while e > s && toks[s].punct('(') && toks[e - 1].punct(')') {
        s += 1;
        e -= 1;
    }
    if e == s + 1 {
        let t = &toks[s];
        if t.kind == TokKind::Num {
            return parse_num(&t.text).map(|v| (v, v));
        }
        if t.kind == TokKind::Ident {
            if let Some(u) = du.uses.iter().find(|u| u.at == s) {
                return vals.get(u.def).and_then(|v| v.range);
            }
            return consts
                .iter()
                .find(|(n, _)| n == &t.text)
                .map(|&(_, v)| (v, v));
        }
    }
    // `mod :: CONST` path (`a : : B`, four tokens): take the tail ident.
    if e >= s + 2 && toks[e - 1].kind == TokKind::Ident && toks[e - 2].punct(':') {
        return consts
            .iter()
            .find(|(n, _)| n == &toks[e - 1].text)
            .map(|&(_, v)| (v, v));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chains(src: &str) -> DefUse {
        let all = build_def_use(src);
        assert_eq!(all.len(), 1, "one function expected");
        all.into_iter().next().unwrap().1
    }

    #[test]
    fn lets_and_uses_chain_up() {
        let du = chains("fn f() { let a = 1; let b = a + 2; use_it(b, a); }");
        assert_eq!(du.defs.len(), 2);
        assert_eq!(du.defs[0].name, "a");
        assert_eq!(du.defs[1].name, "b");
        // a in b's RHS, then b and a as call args.
        let shape = du.shape();
        assert_eq!(shape, vec![0, 1, 0]);
    }

    #[test]
    fn shadowing_reads_the_old_binding() {
        let du = chains("fn f() { let x = 1; let x = x + 1; sink(x); }");
        assert_eq!(du.defs.len(), 2);
        // The RHS `x` resolves to def 0, the sink arg to def 1.
        assert_eq!(du.shape(), vec![0, 1]);
    }

    #[test]
    fn reassignment_is_a_fresh_def() {
        let du = chains("fn f() { let mut x = 1; x = x + 1; sink(x); }");
        assert_eq!(du.defs.len(), 2);
        assert_eq!(du.shape(), vec![0, 1]);
    }

    #[test]
    fn for_loop_binds_its_variable() {
        let du = chains("fn f() { for i in 0..4 { use_it(i); } }");
        assert_eq!(du.defs.len(), 1);
        assert_eq!(du.defs[0].name, "i");
        assert_eq!(du.shape(), vec![0]);
    }

    #[test]
    fn struct_labels_and_field_names_are_not_uses() {
        let du = chains("fn f() { let host = h(); let s = S { host: host, l: 1 }; t(s.host); }");
        // Uses: the struct-literal *value* `host`, and `s` in `t(s.host)`.
        assert_eq!(du.shape(), vec![0, 1]);
    }

    #[test]
    fn ranges_fold_through_arithmetic() {
        let src = "const K: u64 = 4096;\nfn f() { let a = 2; let b = a * K + 8; }";
        let ast = Ast::parse(src);
        let consts = const_env(&ast);
        assert_eq!(consts, vec![("K".to_string(), 4096)]);
        let du = def_use(&ast, ast.functions[0].body);
        let vals = eval_fn(&ast, &ast.functions[0], &du, &consts);
        assert_eq!(vals[0].range, Some((2, 2)));
        assert_eq!(vals[1].range, Some((2 * 4096 + 8, 2 * 4096 + 8)));
    }

    #[test]
    fn for_range_gives_interval() {
        let src = "fn f() { for i in 0..512 { let off = i * 8; } }";
        let ast = Ast::parse(src);
        let du = def_use(&ast, ast.functions[0].body);
        let vals = eval_fn(&ast, &ast.functions[0], &du, &[]);
        assert_eq!(vals[0].range, Some((0, 511)));
        assert_eq!(vals[1].range, Some((0, 511 * 8)));
    }

    /// `typed` is set by the RHS's own constructor or translator, never
    /// inherited through a copy.
    #[test]
    fn taint_seeds_propagates_and_clears() {
        let src = "fn f() { let raw = addr.as_u64(); let ok = PhysAddr(raw + 16); \
                   let copy = ok; let dev = ntb.map_for_device(copy); }";
        let ast = Ast::parse(src);
        let du = def_use(&ast, ast.functions[0].body);
        let vals = eval_fn(&ast, &ast.functions[0], &du, &[]);
        let typed: Vec<bool> = vals.iter().map(|v| v.typed).collect();
        assert_eq!(typed, [false, true, false, true]);
    }

    #[test]
    fn host_tags_flow_from_constructors() {
        let src = "fn f() { let r = MemRegion::new(host_a, PhysAddr(0), 4096); \
                   let s = r; }";
        let ast = Ast::parse(src);
        let du = def_use(&ast, ast.functions[0].body);
        let vals = eval_fn(&ast, &ast.functions[0], &du, &[]);
        assert_eq!(vals[0].host.as_deref(), Some("host_a"));
        assert_eq!(vals[0].region_len, Some(4096));
        assert_eq!(vals[1].host.as_deref(), Some("host_a"));
    }

    #[test]
    fn guards_only_when_outermost() {
        let src = "fn f() { let g = cell.borrow_mut(); let v = cell.borrow().field; }";
        let ast = Ast::parse(src);
        let du = def_use(&ast, ast.functions[0].body);
        let vals = eval_fn(&ast, &ast.functions[0], &du, &[]);
        assert!(vals[0].guard);
        assert!(!vals[1].guard, "a copied field is not a held guard");
    }
}
