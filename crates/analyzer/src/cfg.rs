//! Intra-function control-flow graph over the token stream.
//!
//! Basic blocks are maximal straight-line token runs: every `if`/`else`
//! chain, `match` arm, loop header, `return`, `break`, `continue`, and
//! `?` operator ends the current block and wires explicit edges. Two
//! virtual blocks exist per function: `entry` (index 0, where lowering
//! starts) and `exit` (index 1, the single sink every return/`?`/fall-
//! through edge targets). A block owns a list of disjoint half-open
//! token ranges (`segs`) rather than one range because join blocks
//! resume the enclosing statement sequence.
//!
//! The graph answers the one question the path-sensitive leak rule
//! (D23) needs and a token walk could not: can
//! the event at one token position be followed by the event at another
//! on *some* execution, without passing a blocker
//! ([`Cfg::site_reaches_site`])? "Every path from the acquire to an
//! error exit retires" is its negation with the retires as blockers.
//!
//! Blocks are atomic: entering a block executes all of its tokens, so
//! "path avoids block B" is exactly "path never executes B's tokens".
//! `?` splits its statement into a pre-block (ending at the `?`, with
//! an edge to exit) and a continuation block, which is what lets the
//! leak rule treat "acquire succeeded" and "acquire's own `?` fired"
//! as different program points.
//!
//! Known approximations, chosen deliberately: closure bodies are
//! lowered inline (a `return` inside a closure is treated as a fn
//! return), labeled `break`/`continue` target the innermost loop, and
//! `?`/branches inside `if` conditions or `match` scrutinees stay in
//! the pre-branch block. All three over- or under-split in ways the
//! rule tolerates; none manufacture an impossible path for D23.

use crate::ast::{match_delim, Ast, FnItem, Tok, TokKind};

/// One basic block: disjoint, ordered, half-open token ranges plus
/// successor edges.
#[derive(Debug, Default)]
pub(crate) struct Block {
    pub segs: Vec<(usize, usize)>,
    pub succs: Vec<usize>,
}

/// The per-function CFG with reachability precomputed.
#[derive(Debug)]
pub(crate) struct Cfg {
    pub blocks: Vec<Block>,
    reach: Vec<bool>,
}

impl Cfg {
    /// Lower `f`'s body into basic blocks and precompute reachability.
    pub(crate) fn build(ast: &Ast, f: &FnItem) -> Cfg {
        #[cfg(test)]
        crate::tests::count("cfg");
        let mut b = Builder {
            toks: &ast.tokens,
            blocks: vec![Block::default(), Block::default()],
        };
        let (open, close) = f.body;
        let lo = (open + 1).min(ast.tokens.len());
        let hi = close.min(ast.tokens.len());
        let last = if lo < hi {
            b.lower(lo, hi, 0, &[], 1)
        } else {
            0
        };
        b.edge(last, 1);
        let blocks = b.blocks;
        let n = blocks.len();
        // Reachability from the entry block.
        let mut reach = vec![false; n];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(node) = stack.pop() {
            for &s in &blocks[node].succs {
                if !reach[s] {
                    reach[s] = true;
                    stack.push(s);
                }
            }
        }
        Cfg { blocks, reach }
    }

    /// The block whose segs contain token position `pos`, if any.
    /// Brace delimiters of lowered bodies belong to no block.
    pub(crate) fn block_of(&self, pos: usize) -> Option<usize> {
        for (i, blk) in self.blocks.iter().enumerate() {
            if blk.segs.iter().any(|&(lo, hi)| lo <= pos && pos < hi) {
                return Some(i);
            }
        }
        None
    }

    pub(crate) fn reachable(&self, b: usize) -> bool {
        self.reach[b]
    }

    /// Path-sensitive event ordering: can the event at `from` =
    /// (block, token pos) be followed by the event at `to` on some
    /// execution, with no blocker token position executed in between?
    /// Handles the same-block straight-line case, cross-block paths,
    /// and self-reaching via a loop back edge (`from == to`).
    pub(crate) fn site_reaches_site(
        &self,
        from: (usize, usize),
        to: (usize, usize),
        blockers: &[usize],
    ) -> bool {
        let (fb, fp) = from;
        let (tb, tp) = to;
        let in_block = |b: usize, lo: usize, hi: usize| {
            blockers
                .iter()
                .any(|&p| p > lo && p < hi && self.block_of(p) == Some(b))
        };
        if fb == tb && tp > fp && !in_block(fb, fp, tp) {
            return true;
        }
        // Leaving `fb` executes its tail after `fp`.
        if in_block(fb, fp, usize::MAX) {
            return false;
        }
        let blocked = |b: usize| in_block(b, 0, usize::MAX);
        let mut seen = vec![false; self.blocks.len()];
        let mut stack: Vec<usize> = self.blocks[fb].succs.clone();
        while let Some(b) = stack.pop() {
            if b == tb && !in_block(tb, 0, tp) {
                return true;
            }
            if seen[b] || blocked(b) {
                continue;
            }
            seen[b] = true;
            for &s in &self.blocks[b].succs {
                stack.push(s);
            }
        }
        false
    }
}

struct Builder<'a> {
    toks: &'a [Tok],
    blocks: Vec<Block>,
}

impl Builder<'_> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, a: usize, b: usize) {
        if !self.blocks[a].succs.contains(&b) {
            self.blocks[a].succs.push(b);
        }
    }

    fn seg(&mut self, b: usize, lo: usize, hi: usize) {
        if lo < hi {
            self.blocks[b].segs.push((lo, hi));
        }
    }

    /// First `{` at zero paren/bracket depth in `[from, hi)`, or `hi`.
    fn find_brace(&self, from: usize, hi: usize) -> usize {
        let mut depth = 0isize;
        for i in from..hi {
            let t = &self.toks[i];
            if t.punct('(') || t.punct('[') {
                depth += 1;
            } else if t.punct(')') || t.punct(']') {
                depth -= 1;
            } else if depth == 0 && t.punct('{') {
                return i;
            }
        }
        hi
    }

    /// The first `{…}` group at zero paren/bracket depth from `from`, when
    /// it opens and closes inside `hi`: `(open, close)`.
    fn braces(&self, from: usize, hi: usize) -> Option<(usize, usize)> {
        let open = self.find_brace(from, hi);
        if open >= hi {
            return None;
        }
        let close = match_delim(self.toks, open, '{', '}');
        (close < hi).then_some((open, close))
    }

    /// Token index of the `;` or depth-0 `,` terminating the
    /// statement starting at `from`, or `hi` when the enclosing
    /// delimiter closes first.
    fn stmt_end_from(&self, from: usize, hi: usize) -> usize {
        let mut depth = 0isize;
        for i in from..hi {
            let t = &self.toks[i];
            if t.punct('(') || t.punct('[') || t.punct('{') {
                depth += 1;
            } else if t.punct(')') || t.punct(']') || t.punct('}') {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            } else if depth == 0 && (t.punct(';') || t.punct(',')) {
                return i;
            }
        }
        hi
    }

    /// Exclusive end of the whole `if … else if … else …` chain
    /// whose `if` token sits at `i`.
    fn if_extent(&self, i: usize, hi: usize) -> usize {
        let then_open = self.find_brace(i + 1, hi);
        if then_open >= hi {
            return hi;
        }
        let mut close = match_delim(self.toks, then_open, '{', '}');
        loop {
            if close + 1 < hi && self.is_kw(close + 1, "else") {
                if close + 2 < hi && self.is_kw(close + 2, "if") {
                    let to = self.find_brace(close + 3, hi);
                    if to >= hi {
                        return hi;
                    }
                    close = match_delim(self.toks, to, '{', '}');
                } else if close + 2 < hi && self.toks[close + 2].punct('{') {
                    let ec = match_delim(self.toks, close + 2, '{', '}');
                    return (ec + 1).min(hi);
                } else {
                    return (close + 1).min(hi);
                }
            } else {
                return (close + 1).min(hi);
            }
        }
    }

    fn is_kw(&self, i: usize, kw: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.is(kw))
    }

    /// Lower the token range `[lo, hi)` starting in block `cur`;
    /// returns the open fall-through block. `loops` is the stack of
    /// enclosing `(header, after)` pairs for `continue`/`break`.
    fn lower(
        &mut self,
        lo: usize,
        hi: usize,
        cur: usize,
        loops: &[(usize, usize)],
        exit: usize,
    ) -> usize {
        let mut cur = cur;
        let mut seg_start = lo;
        let mut i = lo;
        while i < hi {
            let t = &self.toks[i];
            if t.punct('?') {
                self.seg(cur, seg_start, i + 1);
                self.edge(cur, exit);
                let cont = self.new_block();
                self.edge(cur, cont);
                cur = cont;
                i += 1;
                seg_start = i;
                continue;
            }
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            if t.is("if") {
                let Some((then_open, then_close)) = self.braces(i + 1, hi) else {
                    i += 1;
                    continue;
                };
                let chain_end = self.if_extent(i, hi);
                self.seg(cur, seg_start, then_open);
                let then_b = self.new_block();
                self.edge(cur, then_b);
                let then_end = self.lower(then_open + 1, then_close, then_b, loops, exit);
                let join = self.new_block();
                self.edge(then_end, join);
                if self.is_kw(then_close + 1, "else") && then_close + 2 < hi {
                    let else_b = self.new_block();
                    self.edge(cur, else_b);
                    let else_end = if self.is_kw(then_close + 2, "if") {
                        self.lower(then_close + 2, chain_end, else_b, loops, exit)
                    } else if self.toks[then_close + 2].punct('{') {
                        let ec = match_delim(self.toks, then_close + 2, '{', '}');
                        self.lower(then_close + 3, ec.min(hi), else_b, loops, exit)
                    } else {
                        else_b
                    };
                    self.edge(else_end, join);
                } else {
                    self.edge(cur, join);
                }
                cur = join;
                i = chain_end;
                seg_start = i;
                continue;
            }
            if t.is("else") && self.toks.get(i + 1).is_some_and(|n| n.punct('{')) {
                // `let … else { diverge }`: the else block runs on the
                // refutation path; the binding path falls through.
                let ec = match_delim(self.toks, i + 1, '{', '}');
                if ec >= hi {
                    i += 1;
                    continue;
                }
                self.seg(cur, seg_start, i);
                let else_b = self.new_block();
                self.edge(cur, else_b);
                let else_end = self.lower(i + 2, ec, else_b, loops, exit);
                let after = self.new_block();
                self.edge(cur, after);
                self.edge(else_end, after);
                cur = after;
                i = ec + 1;
                seg_start = i;
                continue;
            }
            if t.is("match") {
                let Some((body_open, body_close)) = self.braces(i + 1, hi) else {
                    i += 1;
                    continue;
                };
                self.seg(cur, seg_start, body_open);
                let join = self.new_block();
                let mut arms = 0usize;
                let mut j = body_open + 1;
                while j < body_close {
                    // Find the arm's `=>` at delimiter depth zero.
                    let mut depth = 0isize;
                    let mut arrow = None;
                    let mut k = j;
                    while k < body_close {
                        let tk = &self.toks[k];
                        if tk.punct('(') || tk.punct('[') || tk.punct('{') {
                            depth += 1;
                        } else if tk.punct(')') || tk.punct(']') || tk.punct('}') {
                            depth -= 1;
                        } else if depth == 0
                            && tk.punct('=')
                            && self.toks.get(k + 1).is_some_and(|n| n.punct('>'))
                        {
                            arrow = Some(k);
                            break;
                        }
                        k += 1;
                    }
                    let Some(ar) = arrow else { break };
                    let body_start = ar + 2;
                    let arm_b = self.new_block();
                    self.edge(cur, arm_b);
                    self.seg(arm_b, j, body_start);
                    let arm_end;
                    if self.toks.get(body_start).is_some_and(|n| n.punct('{')) {
                        let bc = match_delim(self.toks, body_start, '{', '}');
                        arm_end =
                            self.lower(body_start + 1, bc.min(body_close), arm_b, loops, exit);
                        j = bc + 1;
                        if self.toks.get(j).is_some_and(|n| n.punct(',')) {
                            j += 1;
                        }
                    } else {
                        let e = self.stmt_end_from(body_start, body_close);
                        arm_end = self.lower(body_start, e, arm_b, loops, exit);
                        j = e + 1;
                    }
                    self.edge(arm_end, join);
                    arms += 1;
                }
                if arms == 0 {
                    self.edge(cur, join);
                }
                cur = join;
                i = body_close + 1;
                seg_start = i;
                continue;
            }
            if t.is("loop") {
                let Some((body_open, body_close)) = self.braces(i + 1, hi) else {
                    i += 1;
                    continue;
                };
                self.seg(cur, seg_start, body_open);
                let header = self.new_block();
                self.edge(cur, header);
                let after = self.new_block();
                let mut l2 = loops.to_vec();
                l2.push((header, after));
                let body_end = self.lower(body_open + 1, body_close, header, &l2, exit);
                self.edge(body_end, header);
                cur = after;
                i = body_close + 1;
                seg_start = i;
                continue;
            }
            if t.is("while") || t.is("for") {
                let Some((body_open, body_close)) = self.braces(i + 1, hi) else {
                    i += 1;
                    continue;
                };
                self.seg(cur, seg_start, i);
                let header = self.new_block();
                self.edge(cur, header);
                self.seg(header, i, body_open);
                let after = self.new_block();
                let body_b = self.new_block();
                self.edge(header, body_b);
                self.edge(header, after);
                let mut l2 = loops.to_vec();
                l2.push((header, after));
                let body_end = self.lower(body_open + 1, body_close, body_b, &l2, exit);
                self.edge(body_end, header);
                cur = after;
                i = body_close + 1;
                seg_start = i;
                continue;
            }
            if t.is("return") || t.is("break") || t.is("continue") {
                let target = match (t.text.as_str(), loops.last()) {
                    ("break", Some(&(_, after))) => after,
                    ("continue", Some(&(header, _))) => header,
                    _ => exit,
                };
                let e = self.stmt_end_from(i, hi);
                let stop = (e + 1).min(hi);
                self.seg(cur, seg_start, stop);
                self.edge(cur, target);
                cur = self.new_block();
                i = stop;
                seg_start = i;
                continue;
            }
            i += 1;
        }
        self.seg(cur, seg_start, hi);
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Ast;

    /// The entry and exit blocks' indices.
    const ENTRY: usize = 0;
    const EXIT: usize = 1;

    fn build(src: &str) -> (Ast, Cfg) {
        let ast = Ast::parse(src);
        let cfg = Cfg::build(&ast, &ast.functions[0]);
        (ast, cfg)
    }

    fn pos_of(ast: &Ast, text: &str) -> usize {
        ast.tokens
            .iter()
            .position(|t| t.is(text))
            .unwrap_or_else(|| panic!("token {text} not found"))
    }

    /// Whether some path from `from` = (block, token) reaches the exit
    /// without executing the block of any token in `avoid`.
    fn exit_avoiding(cfg: &Cfg, from: (usize, usize), avoid: &[usize]) -> bool {
        cfg.site_reaches_site(from, (EXIT, usize::MAX), avoid)
    }

    #[test]
    fn straight_line_body_is_one_block() {
        let (ast, cfg) = build("fn f() {\n let a = 1;\n let b = a + 2;\n}\n");
        let ba = cfg.block_of(pos_of(&ast, "a")).unwrap();
        let bb = cfg.block_of(pos_of(&ast, "b")).unwrap();
        assert_eq!(ba, ENTRY);
        assert_eq!(ba, bb);
        assert_eq!(cfg.blocks[ENTRY].succs, vec![EXIT]);
    }

    #[test]
    fn if_without_else_can_skip_the_branch() {
        let (ast, cfg) = build("fn f(x: u32) {\n if x > 0 {\n ring();\n }\n done();\n}\n");
        let (ring_at, done_at) = (pos_of(&ast, "ring"), pos_of(&ast, "done"));
        let ring = cfg.block_of(ring_at).unwrap();
        let done = cfg.block_of(done_at).unwrap();
        assert_ne!(ring, done);
        assert!(cfg.reachable(ring) && cfg.reachable(done));
        let entry = (ENTRY, 0);
        assert!(exit_avoiding(&cfg, entry, &[ring_at]));
        // Every path runs `done`; not every path runs `ring` first.
        assert!(!exit_avoiding(&cfg, entry, &[done_at]));
        assert!(cfg.site_reaches_site(entry, (done, done_at), &[ring_at]));
    }

    #[test]
    fn if_else_covers_both_paths() {
        let (ast, cfg) = build("fn f(c: bool) {\n if c {\n ring();\n } else {\n also();\n }\n}\n");
        let (ring, also) = (pos_of(&ast, "ring"), pos_of(&ast, "also"));
        let entry = (ENTRY, 0);
        assert!(!exit_avoiding(&cfg, entry, &[ring, also]));
        assert!(exit_avoiding(&cfg, entry, &[ring]));
    }

    #[test]
    fn match_has_no_fallthrough_edge() {
        let (ast, cfg) = build(
            "fn f(r: Result<u32, E>) {\n match r {\n Ok(v) => ring(v),\n Err(_) => return,\n }\n tail();\n}\n",
        );
        let ring = pos_of(&ast, "ring");
        let entry = (ENTRY, 0);
        // Some path reaches exit without ringing (the Err arm returns).
        assert!(exit_avoiding(&cfg, entry, &[ring]));
        // But not without taking any arm: match is exhaustive.
        let err_arm = pos_of(&ast, "Err");
        assert!(!exit_avoiding(&cfg, entry, &[ring, err_arm]));
        assert!(cfg.reachable(cfg.block_of(pos_of(&ast, "tail")).unwrap()));
    }

    #[test]
    fn question_mark_splits_the_statement() {
        let (ast, cfg) =
            build("fn f() -> Result<(), E> {\n let t = acquire()?;\n retire(t);\n Ok(())\n}\n");
        let (acq_at, ret_at) = (pos_of(&ast, "acquire"), pos_of(&ast, "retire"));
        let acq = cfg.block_of(acq_at).unwrap();
        let ret = cfg.block_of(ret_at).unwrap();
        assert_ne!(acq, ret);
        assert!(cfg.blocks[acq].succs.contains(&EXIT));
        assert!(cfg.blocks[acq].succs.contains(&ret));
        // The `?` path from the acquire block skips the retire block.
        assert!(exit_avoiding(&cfg, (acq, acq_at), &[ret_at]));
    }

    #[test]
    fn loop_breaks_reach_the_after_block() {
        let (ast, cfg) =
            build("fn f() {\n loop {\n if done() {\n break;\n }\n step();\n }\n after();\n}\n");
        let step_at = pos_of(&ast, "step");
        let step = cfg.block_of(step_at).unwrap();
        let after = cfg.block_of(pos_of(&ast, "after")).unwrap();
        assert!(cfg.reachable(after));
        // Back edge: the body tail loops to the header that holds `done`.
        let header = cfg.block_of(pos_of(&ast, "done")).unwrap();
        assert!(cfg.blocks[step].succs.contains(&header));
        assert!(exit_avoiding(&cfg, (ENTRY, 0), &[step_at]));
    }

    #[test]
    fn return_path_skips_the_tail() {
        let (ast, cfg) = build("fn f(x: bool) {\n if x {\n return;\n }\n tail();\n}\n");
        let tail_at = pos_of(&ast, "tail");
        assert!(cfg.reachable(cfg.block_of(tail_at).unwrap()));
        assert!(exit_avoiding(&cfg, (ENTRY, 0), &[tail_at]));
    }

    #[test]
    fn site_reaches_site_respects_blockers_and_back_edges() {
        let (ast, cfg) = build("fn f() {\n loop {\n ring();\n if stop() {\n break;\n }\n }\n}\n");
        let ring_pos = pos_of(&ast, "ring");
        let rb = cfg.block_of(ring_pos).unwrap();
        // The ring can reach itself around the loop with no blocker.
        assert!(cfg.site_reaches_site((rb, ring_pos), (rb, ring_pos), &[]));
        // A blocker on the back path (the stop call) cuts it off.
        let stop_pos = pos_of(&ast, "stop");
        assert!(!cfg.site_reaches_site((rb, ring_pos), (rb, ring_pos), &[stop_pos]));
    }

    #[test]
    fn else_if_chains_join_once() {
        let (ast, cfg) = build(
            "fn f(x: u32) {\n if x == 0 {\n a();\n } else if x == 1 {\n b();\n } else {\n c();\n }\n done();\n}\n",
        );
        let [a, b, c, done] = ["a", "b", "c", "done"].map(|t| pos_of(&ast, t));
        for at in [a, b, c, done] {
            assert!(cfg.reachable(cfg.block_of(at).unwrap()));
        }
        let entry = (ENTRY, 0);
        assert!(!exit_avoiding(&cfg, entry, &[a, b, c]));
        assert!(exit_avoiding(&cfg, entry, &[a, b]));
        assert!(!exit_avoiding(&cfg, entry, &[done]));
    }
}
