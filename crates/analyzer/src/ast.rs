//! Lightweight syntax layer for the lint pass: a lossless-enough lexer
//! (comments and literal bodies stripped, everything else tokenized with
//! line numbers) plus a shallow item parse that recovers what the
//! protocol rules need from real syntax — function items with body
//! extents, call expressions with receiver/argument token ranges, and
//! field-assignment statements. No external dependencies: the crate must
//! build offline, so this stands in for a `syn`-style AST.

/// Lexer state across lines (block comments and strings span lines).
enum LexState {
    Code,
    Block(u32),
    Str,
    RawStr(u32),
}

/// Per line: (code with comments and literal contents blanked, comment
/// text). Handles nested block comments, raw strings spanning lines, and
/// the char-literal/lifetime ambiguity well enough for this workspace.
pub(crate) fn lex_lines(text: &str) -> Vec<(String, String)> {
    let mut state = LexState::Code;
    let mut out = Vec::new();
    for line in text.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < chars.len() {
            match state {
                LexState::Block(depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            LexState::Code
                        } else {
                            LexState::Block(depth - 1)
                        };
                        i += 2;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(chars[i]);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if chars[i] == '\\' {
                        i += 2;
                    } else if chars[i] == '"' {
                        state = LexState::Code;
                        code.push('"');
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if chars[i] == '"'
                        && (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
                    {
                        state = LexState::Code;
                        code.push('"');
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
                LexState::Code => {
                    let c = chars[i];
                    let prev_ident =
                        i > 0 && (chars[i - 1].is_ascii_alphanumeric() || chars[i - 1] == '_');
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        comment.extend(&chars[i + 2..]);
                        break;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::Block(1);
                        i += 2;
                    } else if c == '"' {
                        state = LexState::Str;
                        code.push('"');
                        i += 1;
                    } else if (c == 'r' || c == 'b') && !prev_ident {
                        // r"…", r#"…"#, b"…", br#"…"# raw/byte strings.
                        let mut j = i + 1;
                        if c == 'b' && chars.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while chars.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if chars.get(j) == Some(&'"') && (c == 'r' || j > i + 1 || hashes > 0) {
                            state = if hashes == 0 && chars[i..j].iter().all(|&x| x != 'r') {
                                LexState::Str // plain byte string b"…"
                            } else {
                                LexState::RawStr(hashes)
                            };
                            code.push('"');
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        if chars.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: skip to the closing quote.
                            let mut j = i + 2;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            i = j + 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            i += 3; // plain char literal
                        } else {
                            i += 1; // lifetime
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        out.push((code, comment));
    }
    out
}

/// Token kinds the rules distinguish.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum TokKind {
    Ident,
    Num,
    Str,
    Punct,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub(crate) struct Tok {
    pub line: usize,
    pub kind: TokKind,
    pub text: String,
}

impl Tok {
    pub(crate) fn is(&self, text: &str) -> bool {
        self.text == text
    }

    pub(crate) fn punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One declared parameter of a `fn` item.
#[derive(Debug, Clone)]
pub(crate) struct Param {
    /// The bound identifier (`self` receivers and pattern parameters are
    /// not recorded).
    pub name: String,
    /// Token index of the identifier in the signature.
    pub at: usize,
}

/// A `fn` item: name, its line, parameters, and the token-index extent
/// of the body (inclusive of the braces). Trait-method declarations
/// without a body are not recorded as items (their names still surface
/// through [`Ast::traits`]).
#[derive(Debug)]
pub(crate) struct FnItem {
    pub name: String,
    /// 1-based line of the `fn` name.
    pub line: usize,
    pub params: Vec<Param>,
    pub body: (usize, usize),
}

/// A `trait` declaration: the method names it declares (bodied or
/// bodiless). A call on a `dyn Trait`/`impl Trait` receiver resolves to
/// every impl carrying that method name, so only the names matter here.
#[derive(Debug)]
pub(crate) struct TraitDecl {
    pub methods: Vec<String>,
}

/// A call expression `name(…)` inside a function body.
#[derive(Debug)]
pub(crate) struct Call {
    pub name: String,
    pub line: usize,
    /// A method call `<expr>.name(…)`, whatever the receiver expression.
    pub method: bool,
    /// The receiver, when it is a plain identifier (`recv.name(…)`); a
    /// chained receiver (`a().name(…)`, `x?.name(…)`, `(…).name(…)`)
    /// leaves this `None` with `method` set.
    pub receiver: Option<String>,
    /// Token-index range of the argument list (exclusive of the parens).
    pub args: (usize, usize),
}

/// A field-assignment statement `a.b.c = …` (plain `=`, not `let`
/// bindings, compound assignments, or comparisons).
#[derive(Debug)]
pub(crate) struct FieldAssign {
    pub line: usize,
    /// The dotted path's identifier segments, left to right.
    pub path: Vec<String>,
    /// Token index of the `=` sign (for ordering against calls).
    pub at: usize,
}

/// The parsed file: sanitized lines (for line-pattern rules and
/// `lint:allow` comments) plus the token stream and item structure the
/// syntax rules walk.
pub(crate) struct Ast {
    pub lines: Vec<(String, String)>,
    pub tokens: Vec<Tok>,
    pub functions: Vec<FnItem>,
    pub traits: Vec<TraitDecl>,
}

impl Ast {
    pub(crate) fn parse(text: &str) -> Ast {
        #[cfg(test)]
        crate::tests::count("parse");
        let lines = lex_lines(text);
        let tokens = tokenize(&lines);
        let functions = parse_functions(&tokens);
        let traits = parse_traits(&tokens);
        Ast {
            lines,
            tokens,
            functions,
            traits,
        }
    }

    /// Call expressions inside the token range, in token order. An ident
    /// followed by `(` — directly, or through a `::<…>` turbofish — is a
    /// call unless it is a definition (`fn name(`). Turbofish matters
    /// for the call-graph rules: `recv.probe::<u32>(…)` used to be
    /// invisible, so a non-posted read inside a generic trait method
    /// called through a `&dyn` / `impl Trait` receiver silently escaped
    /// the D07/D11 reachability walk.
    pub(crate) fn calls_in(&self, range: (usize, usize)) -> Vec<Call> {
        let mut out = Vec::new();
        let (start, end) = range;
        for i in start..end.min(self.tokens.len()) {
            if self.tokens[i].kind != TokKind::Ident {
                continue;
            }
            // Accept `name(` and `name::<T, …>(`.
            let mut open = i + 1;
            if self.tokens.get(i + 1).is_some_and(|t| t.punct(':'))
                && self.tokens.get(i + 2).is_some_and(|t| t.punct(':'))
                && self.tokens.get(i + 3).is_some_and(|t| t.punct('<'))
            {
                let mut depth = 0isize;
                let mut k = i + 3;
                while k < self.tokens.len() {
                    if self.tokens[k].punct('<') {
                        depth += 1;
                    } else if self.tokens[k].punct('>') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                open = k + 1;
            }
            if !self.tokens.get(open).is_some_and(|t| t.punct('(')) {
                continue;
            }
            if i > 0 && self.tokens[i - 1].is("fn") {
                continue; // definition, not a call
            }
            // `recv.name(` — but not the upper bound of a range, `a..name(`.
            let method = i >= 2 && self.tokens[i - 1].punct('.') && !self.tokens[i - 2].punct('.');
            let receiver = (method && self.tokens[i - 2].kind == TokKind::Ident)
                .then(|| self.tokens[i - 2].text.clone());
            let close = match_delim(&self.tokens, open, '(', ')');
            out.push(Call {
                name: self.tokens[i].text.clone(),
                line: self.tokens[i].line,
                method,
                receiver,
                args: (open + 1, close),
            });
        }
        out
    }

    /// Field assignments (`a.b = …`) inside the token range.
    pub(crate) fn field_assigns_in(&self, range: (usize, usize)) -> Vec<FieldAssign> {
        let mut out = Vec::new();
        let (start, end) = range;
        for i in start..end.min(self.tokens.len()) {
            if !self.tokens[i].punct('=') {
                continue;
            }
            // Not `==`, `=>`, `<=`, `>=`, `!=`, compound ops, or `..=`.
            if self
                .tokens
                .get(i + 1)
                .is_some_and(|t| t.punct('=') || t.punct('>'))
            {
                continue;
            }
            if i > 0
                && self.tokens[i - 1].kind == TokKind::Punct
                && "=<>!+-*/%&|^.".contains(&self.tokens[i - 1].text)
            {
                continue;
            }
            // Walk the dotted path backwards: ident (. ident)*.
            let mut j = i;
            let mut path_rev = Vec::new();
            while j >= 1 && self.tokens[j - 1].kind == TokKind::Ident {
                path_rev.push(self.tokens[j - 1].text.clone());
                if j >= 2 && self.tokens[j - 2].punct('.') {
                    j -= 2;
                } else {
                    j -= 1;
                    break;
                }
            }
            if path_rev.len() < 2 {
                continue; // plain rebinding / pattern, not a field store
            }
            if j >= 1 && (self.tokens[j - 1].is("let") || self.tokens[j - 1].is("mut")) {
                continue;
            }
            path_rev.reverse();
            out.push(FieldAssign {
                line: self.tokens[i].line,
                path: path_rev,
                at: i,
            });
        }
        out
    }

    /// The identifier bound by the statement enclosing token `at`: the
    /// ident after the nearest preceding `let` with no `;` in between
    /// (covers `let x = match … { … call … }` arms too).
    pub(crate) fn binding_for(&self, at: usize) -> Option<&str> {
        let mut i = at;
        while i > 0 {
            i -= 1;
            let t = &self.tokens[i];
            if t.punct(';') {
                return None;
            }
            if t.is("let") && t.kind == TokKind::Ident {
                let mut j = i + 1;
                if self.tokens.get(j).is_some_and(|t| t.is("mut")) {
                    j += 1;
                }
                return self
                    .tokens
                    .get(j)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.as_str());
            }
        }
        None
    }

    /// Whether any token in the range is an identifier for which `pred`
    /// holds.
    pub(crate) fn any_ident_in(&self, range: (usize, usize), pred: impl Fn(&str) -> bool) -> bool {
        self.tokens[range.0..range.1.min(self.tokens.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && pred(&t.text))
    }
}

/// Tokenize sanitized code lines (string/char bodies already blanked).
fn tokenize(lines: &[(String, String)]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (idx, (code, _)) in lines.iter().enumerate() {
        let line = idx + 1;
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c.is_ascii_whitespace() {
                i += 1;
            } else if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Tok {
                    line,
                    kind: TokKind::Ident,
                    text: code[start..i].to_string(),
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'.')
                {
                    // Numeric literals may embed `.`, `_`, type suffixes,
                    // and hex digits; a trailing range `..` is split back.
                    if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                out.push(Tok {
                    line,
                    kind: TokKind::Num,
                    text: code[start..i].to_string(),
                });
            } else if c == '"' {
                out.push(Tok {
                    line,
                    kind: TokKind::Str,
                    text: "\"".to_string(),
                });
                i += 1;
            } else {
                out.push(Tok {
                    line,
                    kind: TokKind::Punct,
                    text: c.to_string(),
                });
                i += 1;
            }
        }
    }
    out
}

/// Token index of the delimiter closing the one at `open`, or the end of
/// the stream if unbalanced.
pub(crate) fn match_delim(tokens: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.punct(open_c) {
            depth += 1;
        } else if t.punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len()
}

/// Recover `fn` items: `fn name … { body }`. The body is the first brace
/// group after the signature at zero paren/bracket depth; a `;` first
/// means a bodiless declaration.
fn parse_functions(tokens: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is("fn") && tokens[i].kind == TokKind::Ident {
            if let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let mut paren = 0isize;
                let mut bracket = 0isize;
                let mut angle = 0isize;
                let mut j = i + 2;
                let mut body = None;
                let mut sig = None;
                while j < tokens.len() {
                    let t = &tokens[j];
                    if t.punct('(') {
                        if paren == 0 && bracket == 0 && angle == 0 && sig.is_none() {
                            let close = match_delim(tokens, j, '(', ')');
                            sig = Some((j, close));
                        }
                        paren += 1;
                    } else if t.punct(')') {
                        paren -= 1;
                    } else if t.punct('[') {
                        bracket += 1;
                    } else if t.punct(']') {
                        bracket -= 1;
                    } else if sig.is_none() && t.punct('<') {
                        // Generic-parameter list before the signature.
                        angle += 1;
                    } else if sig.is_none() && t.punct('>') && !(tokens[j - 1].punct('-')) {
                        angle -= 1;
                    } else if paren == 0 && bracket == 0 {
                        if t.punct(';') {
                            break;
                        }
                        if t.punct('{') {
                            body = Some((j, match_delim(tokens, j, '{', '}')));
                            break;
                        }
                    }
                    j += 1;
                }
                if let Some(body) = body {
                    out.push(FnItem {
                        name: name_tok.text.clone(),
                        line: name_tok.line,
                        params: sig.map_or_else(Vec::new, |s| parse_params(tokens, s)),
                        body,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Parse the parameter list between the signature parens. Each top-level
/// comma-separated segment with a `name: type` shape yields a [`Param`];
/// `self` receivers and pattern parameters are skipped.
fn parse_params(tokens: &[Tok], sig: (usize, usize)) -> Vec<Param> {
    let mut out = Vec::new();
    let mut depth = 0isize;
    let mut seg_start = sig.0 + 1;
    let mut k = sig.0 + 1;
    while k <= sig.1 {
        let at_end = k == sig.1;
        if !at_end {
            let t = &tokens[k];
            if t.punct('(') || t.punct('[') || t.punct('<') {
                depth += 1;
            } else if t.punct(')')
                || t.punct(']')
                || (t.punct('>') && !(k > 0 && tokens[k - 1].punct('-')))
            {
                depth -= 1; // `>` after `-` is a return arrow, not a close
            }
        }
        if at_end || (depth == 0 && tokens[k].punct(',')) {
            if let Some(p) = parse_param_segment(tokens, seg_start, k) {
                out.push(p);
            }
            seg_start = k + 1;
        }
        k += 1;
    }
    out
}

fn parse_param_segment(tokens: &[Tok], start: usize, end: usize) -> Option<Param> {
    // Find the first `:` at segment depth 0 that is not part of `::`.
    let mut depth = 0isize;
    let mut colon = None;
    let mut k = start;
    while k < end {
        let t = &tokens[k];
        if t.punct('(') || t.punct('[') || t.punct('<') {
            depth += 1;
        } else if t.punct(')')
            || t.punct(']')
            || (t.punct('>') && !(k > 0 && tokens[k - 1].punct('-')))
        {
            depth -= 1;
        } else if depth == 0 && t.punct(':') {
            if tokens.get(k + 1).is_some_and(|n| n.punct(':')) {
                k += 2;
                continue;
            }
            colon = Some(k);
            break;
        }
        k += 1;
    }
    let colon = colon?;
    let name_tok = tokens.get(colon.checked_sub(1)?)?;
    if name_tok.kind != TokKind::Ident || colon - 1 < start {
        return None; // tuple/struct pattern parameter — not a plain binding
    }
    Some(Param {
        name: name_tok.text.clone(),
        at: colon - 1,
    })
}

/// Collect `trait Name { … }` declarations with the method names they
/// declare (bodied or bodiless — `parse_functions` skips the latter, so
/// this is how default-less trait methods enter the call graph).
fn parse_traits(tokens: &[Tok]) -> Vec<TraitDecl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is("trait")
            && tokens[i].kind == TokKind::Ident
            && !(i > 0 && tokens[i - 1].is("dyn"))
            && tokens.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            // Find the body brace at zero paren/angle depth.
            let mut depth = 0isize;
            let mut j = i + 2;
            let mut body = None;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.punct('(') || t.punct('<') || t.punct('[') {
                    depth += 1;
                } else if t.punct(')') || t.punct('>') || t.punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.punct(';') {
                    break;
                } else if depth == 0 && t.punct('{') {
                    body = Some((j, match_delim(tokens, j, '{', '}')));
                    break;
                }
                j += 1;
            }
            if let Some((open, close)) = body {
                let mut methods = Vec::new();
                let mut k = open + 1;
                while k < close {
                    if tokens[k].is("fn") && tokens[k].kind == TokKind::Ident {
                        if let Some(m) = tokens.get(k + 1).filter(|t| t.kind == TokKind::Ident) {
                            methods.push(m.text.clone());
                        }
                    }
                    k += 1;
                }
                out.push(TraitDecl { methods });
                i = close;
            }
        }
        i += 1;
    }
    out
}
