//! Recursive-descent parser: pragma text → `commint` directive IR.
//!
//! Accepts the paper's literal syntax (Listings 1–3, 5, 7):
//!
//! ```c
//! #pragma comm_parameters sender(rank-1) receiver(rank+1)
//!     sendwhen(rank%2==0) receivewhen(rank%2==1) count(size)
//!     max_comm_iter(n) place_sync(END_PARAM_REGION)
//! {
//!     #pragma comm_p2p sbuf(&buf1[p]) rbuf(&buf2[p])
//!     { }
//! }
//! ```
//!
//! Buffer element kinds and lengths come from a caller-supplied
//! [`SymbolTable`] (the role the compiler's symbol table plays); unknown
//! buffers produce a diagnostic and a byte-typed placeholder.

use std::collections::HashMap;

use commint::buffer::{BufMeta, ElemKind};
use commint::clause::{ClauseSet, Diagnostic, PlaceSync, Target};
use commint::coll::{CollKind, ReduceOp};
use commint::diag::{DirSpans, SrcSpan};
use commint::dir::{CollSpec, P2pSpec, ParamsSpec};
use commint::expr::{CondExpr, RankExpr};
use mpisim::dtype::BasicType;

use crate::lex::{lex, Span, Tok, Token};

/// Convert a lexer span into the IR-level source span.
fn src_span(s: Span) -> SrcSpan {
    SrcSpan {
        offset: s.offset,
        line: s.line,
        col: s.col,
    }
}

/// The deepest expression the parser accepts. Depth counts every operator,
/// comparison, unary operator and parenthesis on the path from a clause's
/// root to its deepest leaf. The parser recurses once per parenthesis and
/// unary operator, and the analyses (evaluation, normal forms, printing,
/// drop) recurse once per tree level, so this one bound keeps all of them
/// far from the end of a thread's stack, whatever the input. The deepest
/// shipped spec or fixture nests 5 levels (`sendwhen((rank+1)%n == 0)`-like
/// shapes); 64 leaves hand-written pragmas ample room.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Buffer declarations: name → (element kind, length in elements).
#[derive(Clone, Debug, Default)]
pub struct SymbolTable {
    entries: HashMap<String, (ElemKind, usize)>,
    /// Backing-memory size in bytes where it differs from `len * extent`
    /// (strided views over a larger array).
    mem_bytes: HashMap<String, usize>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a primitive-array buffer.
    pub fn declare_prim(&mut self, name: &str, ty: BasicType, len: usize) -> &mut Self {
        self.entries
            .insert(name.to_string(), (ElemKind::Prim(ty), len));
        self
    }

    /// Declare a strided view: `len` logical elements of `blocklen`
    /// contiguous `ty` values every `stride`, carved out of a backing
    /// array of `mem_elems` values of `ty`.
    pub fn declare_strided(
        &mut self,
        name: &str,
        ty: BasicType,
        blocklen: usize,
        stride: usize,
        len: usize,
        mem_elems: usize,
    ) -> &mut Self {
        self.entries.insert(
            name.to_string(),
            (
                ElemKind::Strided {
                    ty,
                    blocklen,
                    stride,
                },
                len,
            ),
        );
        self.mem_bytes
            .insert(name.to_string(), mem_elems * ty.size());
        self
    }

    /// Declare a composite buffer.
    pub fn declare_composite(
        &mut self,
        name: &str,
        layout: commint::buffer::CompositeLayout,
        len: usize,
    ) -> &mut Self {
        self.entries
            .insert(name.to_string(), (ElemKind::Composite(layout), len));
        self
    }

    fn lookup(&self, name: &str) -> Option<&(ElemKind, usize)> {
        self.entries.get(name)
    }

    fn mem_size(&self, name: &str) -> Option<usize> {
        self.mem_bytes.get(name).copied()
    }
}

/// A parse error with position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Message.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One parsed top-level directive.
#[derive(Clone, Debug)]
pub enum Item {
    /// A `comm_parameters` region with its body.
    Region(ParamsSpec),
    /// A standalone `comm_p2p`.
    P2p(P2pSpec),
    /// A collective directive (`comm_bcast` / `comm_gather` /
    /// `comm_scatter` / `comm_alltoall` / `comm_reduce`).
    Coll(CollSpec),
}

/// Parse result: items plus accumulated diagnostics (undeclared buffers,
/// clause violations).
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    /// Parsed directives in source order.
    pub items: Vec<Item>,
    /// Diagnostics (validation of each directive included).
    pub diagnostics: Vec<Diagnostic>,
}

impl Parsed {
    /// Whether any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        ClauseSet::has_errors(&self.diagnostics)
    }

    /// Certificate provenance: every `comm_p2p` site id paired with its
    /// best source span (the directive keyword), in source order. Region
    /// bodies contribute their sites; collectives have none. Lets
    /// downstream provers (`commprove`) anchor per-site claims back to the
    /// pragma text without re-walking the IR.
    pub fn site_spans(&self) -> Vec<(u32, Option<SrcSpan>)> {
        let mut out = Vec::new();
        for item in &self.items {
            match item {
                Item::Region(r) => {
                    for p in &r.body {
                        out.push((p.site, p.spans.directive.or(r.spans.directive)));
                    }
                }
                Item::P2p(p) => out.push((p.site, p.spans.directive)),
                Item::Coll(_) => {}
            }
        }
        out
    }
}

/// Parse pragma source text against a symbol table.
pub fn parse(src: &str, symbols: &SymbolTable) -> Result<Parsed, ParseError> {
    let tokens = lex(src).map_err(|e| ParseError {
        message: e.to_string(),
        span: e.span,
    })?;
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        symbols,
        diagnostics: Vec::new(),
        buf_addr_cursor: 0x1000,
        buf_addrs: HashMap::new(),
        site_counter: 0,
        nest: 0,
        too_deep: false,
    };
    let mut items = Vec::new();
    while !p.at(&Tok::Eof) {
        items.push(p.item()?);
    }
    // Validation of every directive.
    for item in &items {
        match item {
            Item::Region(spec) => p.diagnostics.extend(spec.validate()),
            Item::P2p(spec) => p.diagnostics.extend(spec.validate(None)),
            Item::Coll(spec) => p.diagnostics.extend(spec.validate()),
        }
    }
    Ok(Parsed {
        items,
        diagnostics: p.diagnostics,
    })
}

/// Builds a binary operator's node from its operands.
type Join<T> = fn(T, T) -> T;

struct Parser<'s> {
    toks: Vec<Token>,
    pos: usize,
    symbols: &'s SymbolTable,
    diagnostics: Vec<Diagnostic>,
    /// Synthesized stable addresses: same buffer name → same range, so the
    /// independence analysis sees aliasing through names.
    buf_addr_cursor: usize,
    buf_addrs: HashMap<String, (usize, usize)>,
    site_counter: u32,
    /// Parentheses and unary operators around the current token: the
    /// parser's own recursion depth inside an expression.
    nest: usize,
    /// Set once an expression exceeded [`MAX_EXPR_DEPTH`]: no other reading
    /// of the same tokens nests less, so backtracking must not retry.
    too_deep: bool,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn at(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.at(t) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            span: self.span(),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // -- directives -----------------------------------------------------------

    fn item(&mut self) -> Result<Item, ParseError> {
        let dspan = self.span();
        self.expect(&Tok::Pragma)?;
        let name = self.ident()?;
        match name.as_str() {
            "comm_parameters" => self.region(dspan).map(Item::Region),
            "comm_p2p" => self.p2p(dspan).map(Item::P2p),
            "comm_bcast" => self.coll(CollKind::Bcast).map(Item::Coll),
            "comm_gather" => self.coll(CollKind::Gather).map(Item::Coll),
            "comm_scatter" => self.coll(CollKind::Scatter).map(Item::Coll),
            "comm_alltoall" => self.coll(CollKind::AllToAll).map(Item::Coll),
            "comm_reduce" => self.coll(CollKind::Reduce(ReduceOp::Sum)).map(Item::Coll),
            other => Err(self.err(format!("unknown directive `{other}`"))),
        }
    }

    /// Parse a collective directive's clause list.
    fn coll(&mut self, mut kind: CollKind) -> Result<CollSpec, ParseError> {
        let mut spec = CollSpec {
            kind,
            root: None,
            groupwhen: None,
            count: None,
            target: None,
            sbuf: Vec::new(),
            rbuf: Vec::new(),
        };
        while let Tok::Ident(name) = self.peek().clone() {
            self.bump();
            self.expect(&Tok::LParen)?;
            match name.as_str() {
                "root" => spec.root = Some(self.expr()?),
                "groupwhen" => spec.groupwhen = Some(self.cond()?),
                "count" => spec.count = Some(self.expr()?),
                "target" => {
                    let kw = self.ident()?;
                    spec.target = Some(
                        Target::from_keyword(&kw)
                            .ok_or_else(|| self.err(format!("unknown target keyword `{kw}`")))?,
                    );
                }
                "op" => {
                    let kw = self.ident()?;
                    let op = match kw.as_str() {
                        "SUM" => ReduceOp::Sum,
                        "MAX" => ReduceOp::Max,
                        "MIN" => ReduceOp::Min,
                        other => return Err(self.err(format!("unknown reduce op `{other}`"))),
                    };
                    if !matches!(kind, CollKind::Reduce(_)) {
                        return Err(self.err("`op` may only be used with comm_reduce".to_string()));
                    }
                    kind = CollKind::Reduce(op);
                    spec.kind = kind;
                }
                "sbuf" => spec.sbuf = self.buf_list()?.0,
                "rbuf" => spec.rbuf = self.buf_list()?.0,
                other => return Err(self.err(format!("unknown clause `{other}`"))),
            }
            self.expect(&Tok::RParen)?;
        }
        // Optional empty body.
        if self.at(&Tok::LBrace) {
            self.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match self.bump() {
                    Tok::LBrace => depth += 1,
                    Tok::RBrace => depth -= 1,
                    Tok::Eof => return Err(self.err("unterminated comm_coll body".into())),
                    _ => {}
                }
            }
        }
        Ok(spec)
    }

    fn region(&mut self, dspan: Span) -> Result<ParamsSpec, ParseError> {
        let (clauses, _, _, mut spans) = self.clauses()?;
        spans.directive = Some(src_span(dspan));
        let mut body = Vec::new();
        self.expect(&Tok::LBrace)?;
        loop {
            match self.peek() {
                Tok::RBrace => {
                    self.bump();
                    break;
                }
                Tok::Pragma => {
                    let p2p_span = self.span();
                    self.bump();
                    let name = self.ident()?;
                    if name != "comm_p2p" {
                        return Err(self.err(format!(
                            "only comm_p2p may appear inside a comm_parameters region, found `{name}`"
                        )));
                    }
                    body.push(self.p2p(p2p_span)?);
                }
                Tok::Eof => return Err(self.err("unterminated comm_parameters region".into())),
                _ => {
                    // Arbitrary computation statements between directives:
                    // skip one balanced token.
                    self.skip_statement_token()?;
                }
            }
        }
        Ok(ParamsSpec {
            clauses,
            body,
            spans,
        })
    }

    fn p2p(&mut self, dspan: Span) -> Result<P2pSpec, ParseError> {
        let (clauses, sbuf, rbuf, mut spans) = self.clauses()?;
        spans.directive = Some(src_span(dspan));
        self.site_counter += 1;
        let mut has_overlap_body = false;
        // Optional body: `{ ... }` (overlapped computation).
        if self.at(&Tok::LBrace) {
            self.bump();
            let mut depth = 1usize;
            let mut any = false;
            while depth > 0 {
                match self.bump() {
                    Tok::LBrace => depth += 1,
                    Tok::RBrace => depth -= 1,
                    Tok::Eof => return Err(self.err("unterminated comm_p2p body".into())),
                    _ => any = true,
                }
            }
            has_overlap_body = any;
        }
        Ok(P2pSpec {
            clauses,
            sbuf,
            rbuf,
            has_overlap_body,
            site: self.site_counter,
            spans,
        })
    }

    fn skip_statement_token(&mut self) -> Result<(), ParseError> {
        match self.bump() {
            Tok::LBrace => {
                let mut depth = 1usize;
                while depth > 0 {
                    match self.bump() {
                        Tok::LBrace => depth += 1,
                        Tok::RBrace => depth -= 1,
                        Tok::Eof => return Err(self.err("unbalanced braces".into())),
                        _ => {}
                    }
                }
                Ok(())
            }
            Tok::Eof => Err(self.err("unexpected end of input".into())),
            _ => Ok(()),
        }
    }

    // -- clauses ---------------------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn clauses(&mut self) -> Result<(ClauseSet, Vec<BufMeta>, Vec<BufMeta>, DirSpans), ParseError> {
        let mut clauses = ClauseSet::default();
        let mut sbuf = Vec::new();
        let mut rbuf = Vec::new();
        let mut spans = DirSpans::default();
        while let Tok::Ident(name) = self.peek().clone() {
            // The clause-keyword token locates the clause in diagnostics.
            let kw_span = src_span(self.span());
            self.bump();
            self.expect(&Tok::LParen)?;
            match name.as_str() {
                "sender" => {
                    clauses.sender = Some(self.expr()?);
                    spans.sender = Some(kw_span);
                }
                "receiver" => {
                    clauses.receiver = Some(self.expr()?);
                    spans.receiver = Some(kw_span);
                }
                "count" => {
                    clauses.count = Some(self.expr()?);
                    spans.count = Some(kw_span);
                }
                "max_comm_iter" => {
                    clauses.max_comm_iter = Some(self.expr()?);
                    spans.max_comm_iter = Some(kw_span);
                }
                "sendwhen" => {
                    clauses.sendwhen = Some(self.cond()?);
                    spans.sendwhen = Some(kw_span);
                }
                "receivewhen" => {
                    clauses.receivewhen = Some(self.cond()?);
                    spans.receivewhen = Some(kw_span);
                }
                "target" => {
                    let kw = self.ident()?;
                    clauses.target = Some(
                        Target::from_keyword(&kw)
                            .ok_or_else(|| self.err(format!("unknown target keyword `{kw}`")))?,
                    );
                    spans.target = Some(kw_span);
                }
                "place_sync" => {
                    let kw = self.ident()?;
                    clauses.place_sync =
                        Some(PlaceSync::from_keyword(&kw).ok_or_else(|| {
                            self.err(format!("unknown place_sync keyword `{kw}`"))
                        })?);
                    spans.place_sync = Some(kw_span);
                }
                "sbuf" | "vsbuf" => (sbuf, spans.sbuf) = self.buf_list()?,
                "rbuf" => (rbuf, spans.rbuf) = self.buf_list()?,
                other => {
                    return Err(self.err(format!("unknown clause `{other}`")));
                }
            }
            self.expect(&Tok::RParen)?;
        }
        Ok((clauses, sbuf, rbuf, spans))
    }

    fn buf_list(&mut self) -> Result<(Vec<BufMeta>, Vec<SrcSpan>), ParseError> {
        let mut spans = vec![src_span(self.span())];
        let mut out = vec![self.buf_expr()?];
        while self.at(&Tok::Comma) {
            self.bump();
            spans.push(src_span(self.span()));
            out.push(self.buf_expr()?);
        }
        Ok((out, spans))
    }

    /// Buffer expression: `name`, `&name[expr]`, `&a.b[i].c[0]`, ...
    /// The *base name* indexes the symbol table; the rendered text is the
    /// display name.
    fn buf_expr(&mut self) -> Result<BufMeta, ParseError> {
        let start = src_span(self.span());
        let mut display = String::new();
        if self.at(&Tok::Amp) {
            self.bump();
            display.push('&');
        }
        let base = self.ident()?;
        display.push_str(&base);
        // Trailing member/index accesses (rendered, not interpreted).
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let m = self.ident()?;
                    display.push('.');
                    display.push_str(&m);
                }
                Tok::LBracket => {
                    self.bump();
                    let e = self.expr()?;
                    display.push('[');
                    display.push_str(&e.to_string());
                    display.push(']');
                    self.expect(&Tok::RBracket)?;
                }
                _ => break,
            }
        }
        let (elem, len) = match self.symbols.lookup(&base) {
            Some((k, l)) => (k.clone(), *l),
            None => {
                self.diagnostics.push(
                    Diagnostic::warning(format!(
                        "buffer `{base}` not declared in the symbol table; assuming char[0]"
                    ))
                    .at(start),
                );
                (ElemKind::Prim(BasicType::U8), 0)
            }
        };
        let addr = *self.buf_addrs.entry(base.clone()).or_insert_with(|| {
            let lo = self.buf_addr_cursor;
            let size = self
                .symbols
                .mem_size(&base)
                .unwrap_or(len * elem.extent())
                .max(1);
            self.buf_addr_cursor = lo + size + 64;
            (lo, lo + size)
        });
        Ok(BufMeta {
            name: display,
            elem,
            len,
            addr,
        })
    }

    // -- expressions -------------------------------------------------------------
    //
    // The inner productions return the depth of the tree they built, so a
    // left-deep chain (`a+a+…`) is bounded as well as nesting.

    /// Reject a subtree `depth` levels deep if it exceeds the limit.
    fn fit(&mut self, depth: usize) -> Result<usize, ParseError> {
        if depth > MAX_EXPR_DEPTH || self.nest > MAX_EXPR_DEPTH {
            self.too_deep = true;
            return Err(self.err(format!(
                "expression nests deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(depth)
    }

    /// Parse one nesting level down (inside a parenthesis or under a
    /// unary operator); the result is one level deeper than `inner`'s.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<(T, usize), ParseError>,
    ) -> Result<(T, usize), ParseError> {
        self.nest += 1;
        let r = self.fit(0).and_then(|_| inner(self));
        self.nest -= 1;
        let (v, depth) = r?;
        Ok((v, self.fit(depth + 1)?))
    }

    /// A left-associative chain `next (op next)*`, where `op` maps a token
    /// to the node it builds (`None` ends the chain). Each operator is one
    /// level above both operands, so a long flat chain is deep.
    fn chain<T>(
        &mut self,
        next: fn(&mut Self) -> Result<(T, usize), ParseError>,
        op: fn(&Tok) -> Option<Join<T>>,
    ) -> Result<(T, usize), ParseError> {
        let (mut lhs, mut depth) = next(self)?;
        while let Some(build) = op(self.peek()) {
            self.bump();
            let (rhs, d) = next(self)?;
            depth = self.fit(depth.max(d) + 1)?;
            lhs = build(lhs, rhs);
        }
        Ok((lhs, depth))
    }

    /// A rank expression (clause argument or buffer index).
    fn expr(&mut self) -> Result<RankExpr, ParseError> {
        Ok(self.sum()?.0)
    }

    fn sum(&mut self) -> Result<(RankExpr, usize), ParseError> {
        self.chain(Self::term, |t| match t {
            Tok::Plus => Some(|a, b| a + b),
            Tok::Minus => Some(|a, b| a - b),
            _ => None,
        })
    }

    fn term(&mut self) -> Result<(RankExpr, usize), ParseError> {
        self.chain(Self::factor, |t| match t {
            Tok::Star => Some(|a, b| a * b),
            Tok::Slash => Some(|a, b| a / b),
            Tok::Percent => Some(|a, b| a % b),
            _ => None,
        })
    }

    fn factor(&mut self) -> Result<(RankExpr, usize), ParseError> {
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                self.nested(|p| p.factor().map(|(e, d)| (-e, d)))
            }
            Tok::Int(v) => {
                self.bump();
                Ok((RankExpr::Const(v), 1))
            }
            Tok::Ident(name) => {
                self.bump();
                let leaf = match name.as_str() {
                    "rank" => RankExpr::Rank,
                    "nprocs" | "nranks" => RankExpr::NRanks,
                    _ => RankExpr::Var(name),
                };
                Ok((leaf, 1))
            }
            Tok::LParen => {
                self.bump();
                let e = self.nested(|p| p.sum())?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }

    // -- conditions ----------------------------------------------------------------

    /// A condition (`sendwhen`/`receivewhen`/`groupwhen` argument).
    fn cond(&mut self) -> Result<CondExpr, ParseError> {
        Ok(self.disj()?.0)
    }

    fn disj(&mut self) -> Result<(CondExpr, usize), ParseError> {
        self.chain(Self::conj, |t| (*t == Tok::OrOr).then_some(CondExpr::or))
    }

    fn conj(&mut self) -> Result<(CondExpr, usize), ParseError> {
        self.chain(Self::cond_primary, |t| {
            (*t == Tok::AndAnd).then_some(CondExpr::and)
        })
    }

    fn cond_primary(&mut self) -> Result<(CondExpr, usize), ParseError> {
        if self.at(&Tok::Bang) {
            self.bump();
            return self.nested(|p| p.cond_primary().map(|(c, d)| (c.not(), d)));
        }
        // '(' is ambiguous: try parenthesized condition, fall back to
        // arithmetic comparison.
        if self.at(&Tok::LParen) {
            let save = self.pos;
            self.bump();
            match self.nested(|p| p.disj()) {
                Ok(inner) if self.at(&Tok::RParen) => {
                    self.bump();
                    // Could continue as a comparison of a parenthesized
                    // *expression*; only accept if next is a boolean
                    // connective or the end of the clause.
                    if matches!(
                        self.peek(),
                        Tok::AndAnd | Tok::OrOr | Tok::RParen | Tok::Eof
                    ) {
                        return Ok(inner);
                    }
                }
                Err(e) if self.too_deep => return Err(e),
                _ => {}
            }
            self.pos = save;
        }
        let (lhs, l) = self.sum()?;
        let op = self.bump();
        let (rhs, r) = self.sum()?;
        let depth = self.fit(l.max(r) + 1)?;
        let c = match op {
            Tok::EqEq => lhs.eq(rhs),
            Tok::NotEq => lhs.ne(rhs),
            Tok::Lt => lhs.lt(rhs),
            Tok::Le => lhs.le(rhs),
            Tok::Gt => lhs.gt(rhs),
            Tok::Ge => lhs.ge(rhs),
            other => return Err(self.err(format!("expected comparison operator, found {other}"))),
        };
        Ok((c, depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commint::expr::EvalEnv;

    fn symbols() -> SymbolTable {
        let mut s = SymbolTable::new();
        s.declare_prim("buf1", BasicType::F64, 16)
            .declare_prim("buf2", BasicType::F64, 16)
            .declare_prim("ev", BasicType::F64, 48)
            .declare_prim("evec", BasicType::F64, 3);
        s
    }

    #[test]
    fn listing1_ring() {
        let src = "#pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)";
        let parsed = parse(src, &symbols()).unwrap();
        assert_eq!(parsed.items.len(), 1);
        let Item::P2p(p) = &parsed.items[0] else {
            panic!("expected p2p")
        };
        assert_eq!(p.clauses.sender.as_ref().unwrap().to_string(), "prev");
        assert_eq!(p.sbuf[0].name, "buf1");
        assert_eq!(p.rbuf[0].len, 16);
        assert!(!parsed.has_errors());
    }

    #[test]
    fn site_spans_cover_region_bodies_and_standalone_p2ps() {
        let src = "\
#pragma comm_parameters sender(rank-1) receiver(rank+1)
{
    #pragma comm_p2p sbuf(buf1) rbuf(buf2)
    { }
}
#pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)";
        let parsed = parse(src, &symbols()).unwrap();
        let spans = parsed.site_spans();
        assert_eq!(spans.len(), 2, "one site per comm_p2p: {spans:?}");
        // Sites are distinct and every span points into the source.
        assert_ne!(spans[0].0, spans[1].0);
        assert_eq!(spans[0].1.unwrap().line, 3);
        assert_eq!(spans[1].1.unwrap().line, 6);
    }

    #[test]
    fn listing2_even_odd() {
        let src = "#pragma comm_p2p sbuf(buf1) rbuf(buf2) \
                   sender(rank-1) receiver(rank+1) \
                   sendwhen(rank%2==0) receivewhen(rank%2==1)";
        let parsed = parse(src, &symbols()).unwrap();
        let Item::P2p(p) = &parsed.items[0] else {
            panic!()
        };
        let sw = p.clauses.sendwhen.as_ref().unwrap();
        assert!(sw.eval(&EvalEnv::new(2, 8)).unwrap());
        assert!(!sw.eval(&EvalEnv::new(3, 8)).unwrap());
    }

    #[test]
    fn listing3_region_with_loop_body() {
        let src = r#"
#pragma comm_parameters sender(rank-1)
    receiver(rank+1) sendwhen(rank%2==0)
    receivewhen(rank%2==1) count(size)
    max_comm_iter(n) place_sync(END_PARAM_REGION)
{
    for(p=0; p < n; p++)
    #pragma comm_p2p sbuf(&buf1[p]) rbuf(&buf2[p])
    { }
}
"#;
        // `for(...)` parses as unknown tokens? The region body skipper eats
        // non-pragma tokens, including the loop header.
        let mut syms = symbols();
        syms.declare_prim("size", BasicType::I32, 1);
        let parsed = parse(src, &syms).unwrap();
        let Item::Region(r) = &parsed.items[0] else {
            panic!()
        };
        assert_eq!(r.clauses.place_sync, Some(PlaceSync::EndParamRegion));
        assert_eq!(r.clauses.max_comm_iter.as_ref().unwrap().to_string(), "n");
        assert_eq!(r.body.len(), 1);
        assert_eq!(r.body[0].sbuf[0].name, "&buf1[p]");
    }

    #[test]
    fn listing5_buffer_lists_and_vsbuf() {
        let mut syms = SymbolTable::new();
        syms.declare_prim("vr", BasicType::F64, 100)
            .declare_prim("rhotot", BasicType::F64, 100)
            .declare_prim("ec", BasicType::F64, 50)
            .declare_prim("nc", BasicType::I32, 50)
            .declare_prim("lc", BasicType::I32, 50)
            .declare_prim("kc", BasicType::I32, 50)
            .declare_prim("scalaratomdata", BasicType::U8, 160);
        let src = r#"
#pragma comm_parameters sendwhen(rank==from_rank)
    receivewhen(rank==to_rank)
    sender(from_rank) receiver(to_rank)
{
    #pragma comm_p2p sbuf(scalaratomdata) rbuf(scalaratomdata) count(1)
    { }
    #pragma comm_p2p vsbuf(vr,rhotot) rbuf(vr,rhotot) count(size1)
    { }
    #pragma comm_p2p sbuf(ec,nc,lc,kc) rbuf(ec,nc,lc,kc) count(size2)
    { }
}
"#;
        let parsed = parse(src, &syms).unwrap();
        let Item::Region(r) = &parsed.items[0] else {
            panic!()
        };
        assert_eq!(r.body.len(), 3);
        assert_eq!(r.body[1].sbuf.len(), 2);
        assert_eq!(r.body[2].sbuf.len(), 4);
        assert_eq!(r.body[2].sbuf[1].name, "nc");
        // nc (i32) paired with nc (i32) — compatible; no errors.
        assert!(!parsed.has_errors(), "{:?}", parsed.diagnostics);
    }

    #[test]
    fn complex_conditions_parse() {
        let src = "#pragma comm_p2p sender(rank0) receiver(rcv_rank) \
                   sendwhen(rank == 0) receivewhen(rank != 0 && recv_p < num_local) \
                   sbuf(&ev[3*send_p]) rbuf(evec) count(3)";
        let parsed = parse(src, &symbols()).unwrap();
        let Item::P2p(p) = &parsed.items[0] else {
            panic!()
        };
        let rw = p.clauses.receivewhen.as_ref().unwrap();
        let env = EvalEnv::new(3, 8).with("recv_p", 0).with("num_local", 1);
        assert!(rw.eval(&env).unwrap());
        let env = EvalEnv::new(0, 8).with("recv_p", 0).with("num_local", 1);
        assert!(!rw.eval(&env).unwrap());
        assert_eq!(p.sbuf[0].name, "&ev[(3*send_p)]");
    }

    #[test]
    fn parenthesized_condition_groups() {
        let src = "#pragma comm_p2p sender(a) receiver(b) \
                   sendwhen((rank == 0 || rank == 1) && rank != 2) receivewhen(rank > 1) \
                   sbuf(buf1) rbuf(buf2)";
        let parsed = parse(src, &symbols()).unwrap();
        let Item::P2p(p) = &parsed.items[0] else {
            panic!()
        };
        let sw = p.clauses.sendwhen.as_ref().unwrap();
        assert!(sw.eval(&EvalEnv::new(1, 4)).unwrap());
        assert!(!sw.eval(&EvalEnv::new(2, 4)).unwrap());
    }

    #[test]
    fn undeclared_buffer_warns() {
        let src = "#pragma comm_p2p sender(a) receiver(b) sbuf(ghost) rbuf(buf2)";
        let parsed = parse(src, &symbols()).unwrap();
        let d = parsed
            .diagnostics
            .iter()
            .find(|d| d.message.contains("`ghost` not declared"))
            .expect("undeclared-buffer warning");
        // The diagnostic points at the buffer token (1-based line:col).
        let span = d.span.expect("warning carries the token span");
        assert_eq!(span.line, 1);
        assert_eq!(span.col, 1 + src.find("ghost").unwrap());
    }

    #[test]
    fn clause_spans_recorded() {
        let src =
            "#pragma comm_p2p sender(prev) receiver(next)\n    sbuf(buf1) rbuf(buf2) count(4)";
        let parsed = parse(src, &symbols()).unwrap();
        let Item::P2p(p) = &parsed.items[0] else {
            panic!()
        };
        let dir = p.spans.directive.expect("directive span");
        assert_eq!((dir.line, dir.col), (1, 1));
        let sender = p.spans.sender.expect("sender span");
        assert_eq!(sender.col, 1 + src.find("sender").unwrap());
        let count = p.spans.count.expect("count span");
        assert_eq!(count.line, 2);
        assert_eq!(p.spans.sbuf.len(), 1);
        assert_eq!(p.spans.rbuf.len(), 1);
        assert_eq!(p.spans.sbuf[0].line, 2);
    }

    #[test]
    fn violation_diagnostics_carry_clause_spans() {
        let src = "#pragma comm_p2p sender(a) receiver(b) sbuf(buf1) rbuf(buf2) \
                   place_sync(END_PARAM_REGION)";
        let parsed = parse(src, &symbols()).unwrap();
        let d = parsed
            .diagnostics
            .iter()
            .find(|d| d.message.contains("place_sync"))
            .expect("place_sync violation");
        let span = d.span.expect("violation points at the clause keyword");
        assert_eq!(span.col, 1 + src.find("place_sync").unwrap());
    }

    #[test]
    fn clause_violations_surface_as_diagnostics() {
        // place_sync on comm_p2p is illegal.
        let src = "#pragma comm_p2p sender(a) receiver(b) sbuf(buf1) rbuf(buf2) \
                   place_sync(END_PARAM_REGION)";
        let parsed = parse(src, &symbols()).unwrap();
        assert!(parsed.has_errors());
        assert!(parsed
            .diagnostics
            .iter()
            .any(|d| d.message.contains("place_sync")));
    }

    #[test]
    fn sendwhen_without_receivewhen_rejected() {
        let src = "#pragma comm_p2p sender(a) receiver(b) sendwhen(rank==0) sbuf(buf1) rbuf(buf2)";
        let parsed = parse(src, &symbols()).unwrap();
        assert!(parsed.has_errors());
    }

    #[test]
    fn bad_keyword_is_parse_error() {
        let src = "#pragma comm_p2p target(TARGET_COMM_PVM) sbuf(buf1) rbuf(buf2)";
        let err = parse(src, &symbols()).unwrap_err();
        assert!(err.message.contains("TARGET_COMM_PVM"));
    }

    #[test]
    fn same_name_buffers_alias() {
        let src = r#"
#pragma comm_parameters sender(a) receiver(b)
{
    #pragma comm_p2p sbuf(buf1) rbuf(buf2)
    { }
    #pragma comm_p2p sbuf(buf2) rbuf(buf1)
    { }
}
"#;
        let parsed = parse(src, &symbols()).unwrap();
        let Item::Region(r) = &parsed.items[0] else {
            panic!()
        };
        // p2p#0 writes buf2; p2p#1 reads buf2 — dependent buffers.
        let rep = commint::analysis::buffer_independence(r);
        assert!(!rep.independent());
    }

    #[test]
    fn overlap_body_flag() {
        let src = "#pragma comm_p2p sender(a) receiver(b) sbuf(buf1) rbuf(buf2) \
                   { calculateCoreState(comm, lsms, local); }";
        let parsed = parse(src, &symbols()).unwrap();
        let Item::P2p(p) = &parsed.items[0] else {
            panic!()
        };
        assert!(p.has_overlap_body);

        let src2 = "#pragma comm_p2p sender(a) receiver(b) sbuf(buf1) rbuf(buf2) { }";
        let parsed2 = parse(src2, &symbols()).unwrap();
        let Item::P2p(p2) = &parsed2.items[0] else {
            panic!()
        };
        assert!(!p2.has_overlap_body);
    }

    #[test]
    fn deep_expressions_are_parse_errors() {
        // The three shapes that used to overflow the stack: nested parens,
        // a flat left-deep chain, and nested `!(`.
        let n = 200_000;
        for (clause, open, leaf, close) in [
            ("sender", "(", "rank", ")"),
            ("sender", "rank+", "rank", ""),
            ("sendwhen", "!(", "rank==0", ")"),
        ] {
            let (open, close) = (open.repeat(n), close.repeat(n));
            let src = format!("#pragma comm_p2p {clause}({open}{leaf}{close}) receiver(b)");
            let err = parse(&src, &symbols()).expect_err("nesting limit");
            assert!(err.message.contains("nests deeper than"), "{err}");
            assert_eq!(err.span.line, 1);
        }
    }

    #[test]
    fn expression_depth_limit_is_exact() {
        // `rank` is one level and every `+rank` adds one.
        let at = |levels: usize| {
            let src = format!(
                "#pragma comm_p2p sender(rank{}) receiver(b)",
                "+rank".repeat(levels - 1)
            );
            parse(&src, &symbols())
        };
        assert!(at(MAX_EXPR_DEPTH).is_ok());
        assert!(at(MAX_EXPR_DEPTH + 1).is_err());
    }
}
