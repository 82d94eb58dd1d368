//! Recursive-descent parser for the C/C++ subset.
//!
//! The same parser serves two clients:
//!
//! * target code — plain C/C++ translation units;
//! * SMPL rule bodies — when [`ParseOptions::pattern`] is set, the grammar
//!   is extended with SMPL pattern constructs (`...` dots, `\( \| \)`
//!   disjunction, `\&` conjunction branches, `@pos` attachments,
//!   metavariable-aware type and statement recognition through a
//!   [`MetaLookup`]).
//!
//! Declaration/expression disambiguation uses the classic heuristics: a
//! registry of known type names seeded with builtins, extended by
//! `typedef`s encountered, type metavariables, and the `ident ident`
//! / `ident * ident ;` lookahead patterns.
//!
//! Those heuristics ask the same questions of every identifier token: is
//! it a keyword, a builtin type word, a `_t` name, a declaration
//! specifier, a qualifier, `struct`/`union`/`enum`, or a keyword that is
//! an expression (`true`, `nullptr`, ...)? The parser answers them once
//! per token when it is built, from the token's symbol and text, as a set
//! of class flags; the heuristics then test bits. Typedef names are kept
//! by symbol, and a one-word type name reuses its token's symbol, so
//! recognising a type resolves no symbol and builds no string.

use crate::ast::*;
use crate::lexer::{lex, lex_fragment, LexError, LexMode};
use crate::token::{Class, Punct, Token, TokenKind};
use cocci_source::{FnvBuild, Span, Symbol};
use std::collections::HashSet;

/// Metavariable kinds a [`MetaLookup`] can report. Mirrors the SMPL
/// declaration kinds that affect *parsing* (others, like `constant`,
/// parse as plain identifiers and are resolved at match time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaKind {
    /// `type T;`
    Type,
    /// `identifier f;` / `symbol a;` / `function f;` / `constant k;`
    Ident,
    /// `expression x;`
    Expr,
    /// `expression list el;`
    ExprList,
    /// `statement S;`
    Stmt,
    /// `statement list SL;`
    StmtList,
    /// `parameter list PL;`
    ParamList,
    /// `position p;`
    Pos,
    /// `pragmainfo pi;`
    PragmaInfo,
}

/// Resolves metavariable names while parsing SMPL pattern bodies.
pub trait MetaLookup {
    /// Kind of `name` if it is a declared metavariable.
    fn kind(&self, name: &str) -> Option<MetaKind>;
}

/// A [`MetaLookup`] that knows no metavariables (plain C parsing).
pub struct NoMeta;

impl MetaLookup for NoMeta {
    fn kind(&self, _name: &str) -> Option<MetaKind> {
        None
    }
}

/// Language dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    /// C (the default).
    C,
    /// C++ (enables `::` paths, references, range-`for`, multi-index).
    Cpp,
}

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Enable SMPL pattern constructs.
    pub pattern: bool,
    /// Dialect.
    pub lang: Lang,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            pattern: false,
            lang: Lang::C,
        }
    }
}

impl ParseOptions {
    /// Options for plain C.
    pub fn c() -> Self {
        Self::default()
    }

    /// Options for C++.
    pub fn cpp() -> Self {
        ParseOptions {
            pattern: false,
            lang: Lang::Cpp,
        }
    }

    /// Options for SMPL pattern bodies (C++ superset grammar).
    pub fn pattern() -> Self {
        ParseOptions {
            pattern: true,
            lang: Lang::Cpp,
        }
    }
}

/// Parse error with location.
#[derive(Debug, Clone)]
pub struct ParseErr {
    /// Byte offset of the problem.
    pub span: Span,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseErr {}

impl From<LexError> for ParseErr {
    fn from(e: LexError) -> Self {
        ParseErr {
            span: Span::empty(e.at),
            message: e.message,
        }
    }
}

/// Parse a full translation unit.
pub fn parse_translation_unit(
    src: &str,
    opts: ParseOptions,
    meta: &dyn MetaLookup,
) -> Result<TranslationUnit, ParseErr> {
    Parser::new(src, opts, meta)?.translation_unit()
}

/// A whole text's parse and the tables the parser leaves beside the tree.
#[derive(Debug)]
pub struct UnitParse {
    /// The tree.
    pub tu: TranslationUnit,
    /// The symbol and start offset of every [`TokenKind::Ident`] token
    /// (keywords included), in source order. Comments, string literals
    /// and directives hold no identifier tokens.
    pub idents: Vec<(Symbol, u32)>,
    /// Every name a `typedef` declared, with the offset where its
    /// declaration ends (from there on the parser reads the name as a
    /// type), in source order.
    pub typedefs: Vec<(Symbol, u32)>,
}

/// Parse a full translation unit and hand over the parser's tables. The
/// parser holds its token vector anyway, so a caller that indexes a
/// text's identifiers does not lex it a second time.
pub fn parse_with_tables(
    src: &str,
    opts: ParseOptions,
    meta: &dyn MetaLookup,
) -> Result<UnitParse, ParseErr> {
    let mut p = Parser::new(src, opts, meta)?;
    let tu = p.translation_unit()?;
    Ok(UnitParse {
        tu,
        idents: p.idents(),
        typedefs: p.typedef_decls,
    })
}

/// List elements parsed in place: the nodes, and the symbol and offset
/// of each identifier token among them, in source order.
#[derive(Debug)]
pub struct Fragment<T> {
    /// The parsed elements, in source order.
    pub nodes: Vec<T>,
    /// The fragment's identifier tokens, as in [`UnitParse::idents`].
    pub idents: Vec<(Symbol, u32)>,
    /// Where the fragment's first token starts; `None` when it has none.
    pub first: Option<u32>,
}

/// Parse `src[span]`, a run of statements of a C or C++ text, as the
/// whole-text parse would: spans are offsets into `src`, and `typedefs`
/// are the names read as types (those declared before `span`). Fails
/// unless the run lexes to exactly its own extent (no comment, literal,
/// directive or token runs past its end, and a `#` at its end still
/// begins a line) and parses to whole statements, and when it declares a
/// typedef, which would change how the text after it parses.
pub fn parse_stmts_at(
    src: &str,
    span: Span,
    typedefs: impl IntoIterator<Item = Symbol>,
    lang: Lang,
) -> Result<Fragment<Stmt>, ParseErr> {
    fragment(src, span, typedefs, lang, |p| p.statement())
}

/// [`parse_stmts_at`] for a run of top-level items (or the items of a
/// `namespace` or `extern "C"` block).
pub fn parse_items_at(
    src: &str,
    span: Span,
    typedefs: impl IntoIterator<Item = Symbol>,
    lang: Lang,
) -> Result<Fragment<Item>, ParseErr> {
    fragment(src, span, typedefs, lang, |p| p.item())
}

fn fragment<T>(
    src: &str,
    span: Span,
    typedefs: impl IntoIterator<Item = Symbol>,
    lang: Lang,
    mut one: impl FnMut(&mut Parser<'_>) -> Result<T, ParseErr>,
) -> Result<Fragment<T>, ParseErr> {
    let toks = lex_fragment(src, span.start, span.end)?;
    let first = toks
        .first()
        .filter(|t| t.kind != TokenKind::Eof)
        .map(|t| t.span.start);
    let opts = ParseOptions {
        pattern: false,
        lang,
    };
    let mut p = Parser::with_tokens(src, toks, opts, &NoMeta);
    p.typedefs.extend(typedefs);
    let mut nodes = Vec::new();
    while !p.at_eof() {
        nodes.push(one(&mut p)?);
    }
    if let Some(&(name, at)) = p.typedef_decls.first() {
        return Err(ParseErr {
            span: Span::empty(at),
            message: format!("fragment declares typedef `{name}`"),
        });
    }
    Ok(Fragment {
        nodes,
        idents: p.idents(),
        first,
    })
}

/// Parse a statement sequence (used for SMPL statement-level patterns).
pub fn parse_statements(
    src: &str,
    opts: ParseOptions,
    meta: &dyn MetaLookup,
) -> Result<Vec<Stmt>, ParseErr> {
    let mut p = Parser::new(src, opts, meta)?;
    let mut stmts = Vec::new();
    while !p.at_eof() {
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

/// Parse a single expression consuming all input (used for SMPL
/// expression-level patterns).
pub fn parse_expression(
    src: &str,
    opts: ParseOptions,
    meta: &dyn MetaLookup,
) -> Result<Expr, ParseErr> {
    let mut p = Parser::new(src, opts, meta)?;
    let e = p.expr()?;
    if !p.at_eof() {
        return Err(p.err_here("trailing input after expression"));
    }
    Ok(e)
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    /// The class of each token (empty for non-identifiers).
    classes: Vec<Class>,
    pos: usize,
    opts: ParseOptions,
    meta: &'a dyn MetaLookup,
    typedefs: HashSet<Symbol, FnvBuild>,
    /// The typedefs this parse declared, as [`UnitParse::typedefs`].
    typedef_decls: Vec<(Symbol, u32)>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, opts: ParseOptions, meta: &'a dyn MetaLookup) -> Result<Self, ParseErr> {
        let mode = if opts.pattern {
            LexMode::Smpl
        } else {
            LexMode::C
        };
        Ok(Parser::with_tokens(src, lex(src, mode)?, opts, meta))
    }

    fn with_tokens(
        src: &'a str,
        toks: Vec<Token>,
        opts: ParseOptions,
        meta: &'a dyn MetaLookup,
    ) -> Self {
        let classes = toks
            .iter()
            .map(|t| {
                t.sym
                    .map_or(Class::default(), |sym| Class::of(sym, t.text(src)))
            })
            .collect();
        Parser {
            src,
            toks,
            classes,
            pos: 0,
            opts,
            meta,
            typedefs: HashSet::default(),
            typedef_decls: Vec::new(),
        }
    }

    /// The symbol and start offset of each identifier token.
    fn idents(&self) -> Vec<(Symbol, u32)> {
        self.toks
            .iter()
            .filter_map(|t| Some((t.sym?, t.span.start)))
            .collect()
    }

    // ---- token helpers ----

    fn peek(&self) -> Token {
        self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek_at(&self, n: usize) -> Token {
        self.toks[(self.pos + n).min(self.toks.len() - 1)]
    }

    /// The class of the token [`peek_at`](Self::peek_at) returns.
    fn class_at(&self, n: usize) -> Class {
        self.classes[(self.pos + n).min(self.toks.len() - 1)]
    }

    fn text(&self, t: Token) -> &'a str {
        t.text(self.src)
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, p: Punct) -> bool {
        if self.peek().is(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        let t = self.peek();
        if t.kind == TokenKind::Ident && self.text(t) == kw {
            self.bump();
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        let t = self.peek();
        t.kind == TokenKind::Ident && self.text(t) == kw
    }

    fn expect(&mut self, p: Punct) -> Result<Token, ParseErr> {
        if self.peek().is(p) {
            Ok(self.bump())
        } else {
            Err(self.err_here(format!(
                "expected `{}`, found {}",
                p.text(),
                self.describe_current()
            )))
        }
    }

    fn describe_current(&self) -> String {
        let t = self.peek();
        match t.kind {
            TokenKind::Eof => "end of input".to_string(),
            _ => format!("`{}`", self.text(t)),
        }
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseErr {
        ParseErr {
            span: self.peek().span,
            message: msg.into(),
        }
    }

    fn ident(&mut self) -> Result<Ident, ParseErr> {
        let t = self.peek();
        if t.kind == TokenKind::Ident && !self.class_at(0).is(Class::KEYWORD) {
            self.bump();
            Ok(Ident {
                name: t.ident_sym(),
                span: t.span,
            })
        } else {
            Err(self.err_here(format!(
                "expected identifier, found {}",
                self.describe_current()
            )))
        }
    }

    /// Parse a possibly `::`-qualified identifier path into one Ident
    /// whose name contains the `::` separators.
    fn ident_path(&mut self) -> Result<Ident, ParseErr> {
        let mut id = self.ident()?;
        if !(self.peek().is(Punct::ColonColon) && self.peek_at(1).kind == TokenKind::Ident) {
            return Ok(id);
        }
        let mut path = id.as_str().to_string();
        while self.peek().is(Punct::ColonColon) && self.peek_at(1).kind == TokenKind::Ident {
            self.bump();
            let seg = self.ident()?;
            path.push_str("::");
            path.push_str(seg.as_str());
            id.span = id.span.merge(seg.span);
        }
        id.name = Symbol::intern(&path);
        Ok(id)
    }

    // ---- type recognition ----

    /// Whether the token [`peek_at(n)`](Self::peek_at) names a type.
    fn is_type_name(&self, n: usize) -> bool {
        let t = self.peek_at(n);
        t.kind == TokenKind::Ident
            && (self.class_at(n).is(Class::BUILTIN | Class::T_SUFFIX)
                || self.typedefs.contains(&t.ident_sym())
                || self.meta.kind(self.text(t)) == Some(MetaKind::Type))
    }

    /// Does a declaration plausibly start at the current position?
    fn looks_like_decl(&self) -> bool {
        let mut i = 0;
        // Skip specifiers, qualifiers and attributes.
        loop {
            let t = self.peek_at(i);
            if t.kind != TokenKind::Ident {
                return false;
            }
            let class = self.class_at(i);
            if class.is(Class::SPECIFIER | Class::QUALIFIER) {
                i += 1;
                continue;
            }
            if class.is(Class::RECORD) {
                return true;
            }
            if self.is_type_name(i) {
                // Multi-word builtins keep consuming below; single check
                // suffices: type name followed by declarator-ish token.
                break;
            }
            // Unknown identifier: `ident ident`, `ident * ident`,
            // `ident & ident` (C++) are declaration-shaped.
            let t1 = self.peek_at(i + 1);
            let t2 = self.peek_at(i + 2);
            if t1.kind == TokenKind::Ident
                && !self.class_at(i + 1).is(Class::KEYWORD)
                && self.meta.kind(self.text(t1)) != Some(MetaKind::Stmt)
                && matches!(
                    t2.kind,
                    TokenKind::Punct(
                        Punct::Semi | Punct::Eq | Punct::Comma | Punct::LBracket | Punct::LParen
                    )
                )
            {
                return true;
            }
            if (t1.is(Punct::Star) || (t1.is(Punct::Amp) && self.opts.lang == Lang::Cpp))
                && t2.kind == TokenKind::Ident
                && !self.class_at(i + 2).is(Class::KEYWORD)
            {
                let t3 = self.peek_at(i + 3);
                return matches!(
                    t3.kind,
                    TokenKind::Punct(
                        Punct::Semi
                            | Punct::Eq
                            | Punct::Comma
                            | Punct::LBracket
                            | Punct::LParen
                            | Punct::Colon
                    )
                );
            }
            return false;
        }
        // Known type name at position i: check what follows.
        let mut j = i + 1;
        // Skip further type words (unsigned long long) and template args.
        while self.is_type_name(j) {
            j += 1;
        }
        if self.peek_at(j).is(Punct::Lt) {
            // Template args make this a type in C++; assume decl.
            return self.opts.lang == Lang::Cpp;
        }
        loop {
            let t = self.peek_at(j);
            match t.kind {
                TokenKind::Punct(Punct::Star) | TokenKind::Punct(Punct::Amp) => j += 1,
                TokenKind::Ident if !self.class_at(j).is(Class::KEYWORD) => return true,
                // Abstract: `int;` is silly but `int f(void)` prototypes
                // in casts are handled elsewhere.
                _ => return false,
            }
        }
    }

    /// Parse a type *specifier* (no pointers — those belong to
    /// declarators), e.g. `unsigned long`, `struct particle`,
    /// `std::vector<double>`, `const double`.
    fn type_specifier(&mut self) -> Result<Type, ParseErr> {
        let start = self.peek().span;
        let mut quals: Vec<Symbol> = Vec::new();
        self.qualifiers(&mut quals);
        let t = self.peek();
        if t.kind != TokenKind::Ident {
            return Err(self.err_here("expected type name"));
        }
        let first_sym = t.ident_sym();
        let class = self.class_at(0);
        let base = if class.is(Class::RECORD) {
            self.bump();
            let name = if self.peek().kind == TokenKind::Ident {
                Some(self.ident()?.name)
            } else {
                None
            };
            if self.peek().is(Punct::LBrace) {
                let body_start = self.peek().span.start;
                self.skip_balanced(Punct::LBrace, Punct::RBrace)?;
                let body_end = self.toks[self.pos - 1].span.end;
                let raw_body = self.src[body_start as usize..body_end as usize].to_string();
                let span = start.merge(Span::new(body_start, body_end));
                Type {
                    kind: TypeKind::Record {
                        keyword: first_sym,
                        name,
                        raw_body,
                    },
                    span,
                }
            } else {
                let name = name.ok_or_else(|| self.err_here("expected struct/union/enum tag"))?;
                let end = self.toks[self.pos - 1].span;
                Type::named(format!("{} {name}", self.text(t)), start.merge(end))
            }
        } else if self.meta.kind(self.text(t)) == Some(MetaKind::Type) {
            self.bump();
            Type {
                kind: TypeKind::Meta { name: first_sym },
                span: t.span,
            }
        } else {
            // Multi-word builtin or single named type (possibly :: path).
            let (name, mut end) = if class.is(Class::BUILTIN) {
                let from = self.pos;
                while self.peek().kind == TokenKind::Ident && self.class_at(0).is(Class::BUILTIN) {
                    self.bump();
                }
                let words = &self.toks[from..self.pos];
                let name = match words {
                    [one] => one.ident_sym(),
                    _ => {
                        let mut name = String::new();
                        for w in words {
                            if !name.is_empty() {
                                name.push(' ');
                            }
                            name.push_str(self.text(*w));
                        }
                        Symbol::intern(&name)
                    }
                };
                (name, self.toks[self.pos - 1].span)
            } else {
                let id = self.ident_path()?;
                (id.name, id.span)
            };
            // Template arguments: capture raw balanced <...> in C++.
            let template_args = if self.opts.lang == Lang::Cpp
                && self.peek().is(Punct::Lt)
                && self.template_args_ahead()
            {
                let s = self.peek().span.start;
                self.skip_template_args()?;
                let e = self.toks[self.pos - 1].span.end;
                end = Span::new(s, e);
                Some(self.src[s as usize..e as usize].to_string())
            } else {
                None
            };
            Type {
                kind: TypeKind::Named {
                    name,
                    template_args,
                },
                span: start.merge(end),
            }
        };
        // Trailing qualifiers: `double const`.
        let mut ty = base;
        self.qualifiers(&mut quals);
        if !quals.is_empty() {
            // Sort by name, not by symbol id: qualifier order is
            // user-visible through the renderer.
            quals.sort_by_key(|q| q.as_str());
            quals.dedup();
            let span = ty.span.merge(start);
            ty = Type {
                kind: TypeKind::Qualified {
                    quals,
                    inner: Box::new(ty),
                },
                span,
            };
        }
        Ok(ty)
    }

    /// Consume the qualifiers at the current position, pushing each onto
    /// `quals`.
    fn qualifiers(&mut self, quals: &mut Vec<Symbol>) {
        while self.peek().kind == TokenKind::Ident && self.class_at(0).is(Class::QUALIFIER) {
            quals.push(self.bump().ident_sym());
        }
    }

    /// Heuristic: `<` begins template arguments (rather than comparison)
    /// if a matching `>` appears before any `;`/`{`/`)` at depth 0 and the
    /// contents look type-ish. Conservative by design.
    fn template_args_ahead(&self) -> bool {
        let mut depth = 0usize;
        let mut i = 0usize;
        loop {
            let t = self.peek_at(i);
            match t.kind {
                TokenKind::Punct(Punct::Lt) => depth += 1,
                TokenKind::Punct(Punct::Gt) => {
                    depth -= 1;
                    if depth == 0 {
                        return true;
                    }
                }
                TokenKind::Punct(Punct::Shr) => {
                    if depth >= 2 {
                        depth -= 2;
                        if depth == 0 {
                            return true;
                        }
                    } else {
                        return false;
                    }
                }
                TokenKind::Punct(Punct::Semi | Punct::LBrace | Punct::RParen) | TokenKind::Eof => {
                    return false
                }
                TokenKind::Punct(
                    Punct::PlusPlus | Punct::MinusMinus | Punct::AmpAmp | Punct::PipePipe,
                ) => return false,
                _ => {}
            }
            i += 1;
            if i > 64 {
                return false;
            }
        }
    }

    fn skip_template_args(&mut self) -> Result<(), ParseErr> {
        let mut depth = 0usize;
        loop {
            let t = self.peek();
            match t.kind {
                TokenKind::Punct(Punct::Lt) => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Punct(Punct::Gt) => {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return Ok(());
                    }
                }
                TokenKind::Punct(Punct::Shr) if depth >= 2 => {
                    depth -= 2;
                    self.bump();
                    if depth == 0 {
                        return Ok(());
                    }
                }
                TokenKind::Eof => return Err(self.err_here("unterminated template arguments")),
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn skip_balanced(&mut self, open: Punct, close: Punct) -> Result<(), ParseErr> {
        let mut depth = 0usize;
        loop {
            let t = self.peek();
            if t.is(open) {
                depth += 1;
                self.bump();
            } else if t.is(close) {
                depth -= 1;
                self.bump();
                if depth == 0 {
                    return Ok(());
                }
            } else if t.kind == TokenKind::Eof {
                return Err(self.err_here(format!("unbalanced `{}`", open.text())));
            } else {
                self.bump();
            }
        }
    }

    // ---- items ----

    fn translation_unit(&mut self) -> Result<TranslationUnit, ParseErr> {
        let start = self.peek().span;
        let mut items = Vec::new();
        while !self.at_eof() {
            items.push(self.item()?);
        }
        let end = self.peek().span;
        Ok(TranslationUnit {
            items,
            span: start.merge(end),
        })
    }

    fn item(&mut self) -> Result<Item, ParseErr> {
        let t = self.peek();
        if t.kind == TokenKind::Directive {
            let d = self.directive();
            return Ok(Item::Directive(d));
        }
        if self.peek_kw("namespace") {
            let start = self.bump().span;
            let name = if self.peek().kind == TokenKind::Ident {
                Some(self.ident()?)
            } else {
                None
            };
            self.expect(Punct::LBrace)?;
            let mut items = Vec::new();
            while !self.peek().is(Punct::RBrace) {
                if self.at_eof() {
                    return Err(self.err_here("unterminated namespace"));
                }
                items.push(self.item()?);
            }
            let end = self.expect(Punct::RBrace)?.span;
            return Ok(Item::Namespace {
                name,
                items,
                span: start.merge(end),
            });
        }
        if self.peek_kw("extern") && self.peek_at(1).kind == TokenKind::StrLit {
            let start = self.bump().span;
            self.bump(); // "C"
            if self.peek().is(Punct::LBrace) {
                self.bump();
                let mut items = Vec::new();
                while !self.peek().is(Punct::RBrace) {
                    if self.at_eof() {
                        return Err(self.err_here("unterminated extern block"));
                    }
                    items.push(self.item()?);
                }
                let end = self.expect(Punct::RBrace)?.span;
                return Ok(Item::ExternBlock {
                    items,
                    span: start.merge(end),
                });
            }
            // `extern "C" decl;` — fall through to declaration with the
            // extern already consumed; treat as plain decl.
        }
        self.function_or_decl()
    }

    fn directive(&mut self) -> Directive {
        let t = self.bump();
        let raw = self.text(t).to_string();
        let body = raw.trim_start_matches('#').trim_start();
        let (kind, payload) = if let Some(rest) = body.strip_prefix("include") {
            (DirectiveKind::Include, rest.trim().to_string())
        } else if let Some(rest) = body.strip_prefix("pragma") {
            (DirectiveKind::Pragma, rest.trim().to_string())
        } else if let Some(rest) = body.strip_prefix("define") {
            (DirectiveKind::Define, rest.trim().to_string())
        } else {
            (DirectiveKind::Other, body.to_string())
        };
        Directive {
            kind,
            raw,
            payload,
            span: t.span,
        }
    }

    /// Parse `__attribute__((...))` groups.
    fn attributes(&mut self) -> Result<Vec<Attribute>, ParseErr> {
        let mut attrs = Vec::new();
        while self.peek_kw("__attribute__") {
            let start = self.bump().span;
            self.expect(Punct::LParen)?;
            self.expect(Punct::LParen)?;
            let mut items = Vec::new();
            while !self.peek().is(Punct::RParen) {
                let name = self.ident()?;
                let mut ispan = name.span;
                let args = if self.peek().is(Punct::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    while !self.peek().is(Punct::RParen) {
                        args.push(self.assign_expr()?);
                        if !self.eat(Punct::Comma) {
                            break;
                        }
                    }
                    let e = self.expect(Punct::RParen)?;
                    ispan = ispan.merge(e.span);
                    Some(args)
                } else {
                    None
                };
                items.push(AttrItem {
                    name,
                    args,
                    span: ispan,
                });
                if !self.eat(Punct::Comma) {
                    break;
                }
            }
            self.expect(Punct::RParen)?;
            let end = self.expect(Punct::RParen)?.span;
            attrs.push(Attribute {
                items,
                span: start.merge(end),
            });
        }
        Ok(attrs)
    }

    fn specifiers(&mut self) -> Vec<Ident> {
        let mut specs = Vec::new();
        loop {
            let t = self.peek();
            if t.kind == TokenKind::Ident && self.class_at(0).is(Class::SPECIFIER) {
                specs.push(Ident {
                    name: t.ident_sym(),
                    span: t.span,
                });
                self.bump();
            } else {
                break;
            }
        }
        specs
    }

    fn function_or_decl(&mut self) -> Result<Item, ParseErr> {
        let start = self.peek().span;
        let attrs = self.attributes()?;
        let mut specifiers = self.specifiers();
        // Specifiers may also appear after attributes in either order.
        let attrs = if attrs.is_empty() {
            let a = self.attributes()?;
            specifiers.extend(self.specifiers());
            a
        } else {
            attrs
        };
        let ty = self.type_specifier()?;

        // Struct/union/enum definition without declarators: `struct S {...};`
        if matches!(ty.kind, TypeKind::Record { .. }) && self.peek().is(Punct::Semi) {
            let end = self.bump().span;
            let is_typedef = specifiers.iter().any(|s| s.name == "typedef");
            let decl = Declaration {
                attrs,
                specifiers,
                ty,
                declarators: Vec::new(),
                span: start.merge(end),
            };
            let _ = is_typedef;
            return Ok(Item::Decl(decl));
        }

        // First declarator: pointers, name.
        let mut ptr = 0u8;
        let mut reference = false;
        while self.peek().is(Punct::Star) || self.peek().is(Punct::Amp) {
            if self.bump().is(Punct::Star) {
                ptr += 1;
            } else {
                reference = true;
            }
        }
        let name = self.ident_path()?;

        if self.peek().is(Punct::LParen) && !self.is_function_ptr_decl() {
            // Function definition or prototype.
            let params_start = self.bump().span;
            let (params, varargs) = self.params()?;
            let rp = self.expect(Punct::RParen)?;
            let _ = params_start;
            let sig_span = ty.span.merge(rp.span);
            // Trailing attributes / specifiers after the param list.
            let mut post_attrs = self.attributes()?;
            while self.peek_kw("override") || self.peek_kw("final") || self.peek_kw("const") {
                self.bump();
            }
            if self.peek().is(Punct::LBrace) {
                let body = self.block()?;
                let span = start.merge(body.span);
                let mut all_attrs = attrs;
                all_attrs.append(&mut post_attrs);
                let mut ret = ty;
                for _ in 0..ptr {
                    let sp = ret.span;
                    ret = Type {
                        kind: TypeKind::Ptr(Box::new(ret)),
                        span: sp,
                    };
                }
                return Ok(Item::Function(FunctionDef {
                    attrs: all_attrs,
                    specifiers,
                    ret,
                    name,
                    params,
                    varargs,
                    body,
                    span,
                    sig_span,
                }));
            }
            // Prototype: `T f(params);`
            let end = self.expect(Punct::Semi)?.span;
            let decl = Declaration {
                attrs,
                specifiers,
                ty,
                declarators: vec![Declarator {
                    name,
                    ptr,
                    reference,
                    array: Vec::new(),
                    init: None,
                    fn_params: Some(params),
                    span: sig_span,
                }],
                span: start.merge(end),
            };
            return Ok(Item::Decl(decl));
        }

        // Variable declaration(s).
        let first = self.declarator_tail(name, ptr, reference)?;
        let mut declarators = vec![first];
        while self.eat(Punct::Comma) {
            let mut ptr = 0u8;
            let mut reference = false;
            while self.peek().is(Punct::Star) || self.peek().is(Punct::Amp) {
                if self.bump().is(Punct::Star) {
                    ptr += 1;
                } else {
                    reference = true;
                }
            }
            let name = self.ident_path()?;
            declarators.push(self.declarator_tail(name, ptr, reference)?);
        }
        let end = self.expect(Punct::Semi)?.span;
        if specifiers.iter().any(|s| s.name == "typedef") {
            for d in &declarators {
                self.typedefs.insert(d.name.name);
                self.typedef_decls.push((d.name.name, end.end));
            }
        }
        Ok(Item::Decl(Declaration {
            attrs,
            specifiers,
            ty,
            declarators,
            span: start.merge(end),
        }))
    }

    /// Lookahead to rule out `T (*f)(...)` function-pointer declarators
    /// (we only need to not mis-parse them; they are rare in patterns).
    fn is_function_ptr_decl(&self) -> bool {
        self.peek().is(Punct::LParen) && self.peek_at(1).is(Punct::Star)
    }

    fn declarator_tail(
        &mut self,
        name: Ident,
        ptr: u8,
        reference: bool,
    ) -> Result<Declarator, ParseErr> {
        let mut span = name.span;
        let mut array = Vec::new();
        while self.peek().is(Punct::LBracket) {
            self.bump();
            if self.peek().is(Punct::RBracket) {
                array.push(None);
            } else {
                array.push(Some(self.assign_expr()?));
            }
            let e = self.expect(Punct::RBracket)?;
            span = span.merge(e.span);
        }
        let init = if self.eat(Punct::Eq) {
            let e = if self.peek().is(Punct::LBrace) {
                self.init_list()?
            } else {
                self.assign_expr()?
            };
            span = span.merge(e.span());
            Some(e)
        } else {
            None
        };
        Ok(Declarator {
            name,
            ptr,
            reference,
            array,
            init,
            fn_params: None,
            span,
        })
    }

    fn init_list(&mut self) -> Result<Expr, ParseErr> {
        let start = self.expect(Punct::LBrace)?.span;
        let mut elems = Vec::new();
        while !self.peek().is(Punct::RBrace) {
            if self.peek().is(Punct::LBrace) {
                elems.push(self.init_list()?);
            } else {
                elems.push(self.assign_expr()?);
            }
            if !self.eat(Punct::Comma) {
                break;
            }
        }
        let end = self.expect(Punct::RBrace)?.span;
        Ok(Expr::InitList {
            elems,
            span: start.merge(end),
        })
    }

    fn params(&mut self) -> Result<(Vec<Param>, bool), ParseErr> {
        let mut params = Vec::new();
        let mut varargs = false;
        if self.peek().is(Punct::RParen) {
            return Ok((params, varargs));
        }
        // `(void)` empty list.
        if self.peek_kw("void") && self.peek_at(1).is(Punct::RParen) {
            self.bump();
            return Ok((params, varargs));
        }
        loop {
            if self.peek().is(Punct::Ellipsis) {
                self.bump();
                varargs = true;
                break;
            }
            let t = self.peek();
            // Pattern: `parameter list` metavariable occurrence.
            if self.opts.pattern
                && t.kind == TokenKind::Ident
                && self.meta.kind(self.text(t)) == Some(MetaKind::ParamList)
            {
                self.bump();
                params.push(Param {
                    ty: Type::named("<paramlist>", t.span),
                    name: Some(Ident {
                        name: t.ident_sym(),
                        span: t.span,
                    }),
                    meta_list: true,
                    span: t.span,
                });
                if !self.eat(Punct::Comma) {
                    break;
                }
                continue;
            }
            let ty = self.full_type()?;
            let (name, span) =
                if self.peek().kind == TokenKind::Ident && !self.class_at(0).is(Class::KEYWORD) {
                    let id = self.ident()?;
                    let mut sp = ty.span.merge(id.span);
                    // Array suffix on parameter.
                    while self.peek().is(Punct::LBracket) {
                        self.bump();
                        if !self.peek().is(Punct::RBracket) {
                            self.assign_expr()?;
                        }
                        sp = sp.merge(self.expect(Punct::RBracket)?.span);
                    }
                    (Some(id), sp)
                } else {
                    (None, ty.span)
                };
            params.push(Param {
                ty,
                name,
                meta_list: false,
                span,
            });
            if !self.eat(Punct::Comma) {
                break;
            }
        }
        Ok((params, varargs))
    }

    /// A full type including pointer/reference suffixes (for params and
    /// casts).
    fn full_type(&mut self) -> Result<Type, ParseErr> {
        let mut ty = self.type_specifier()?;
        loop {
            if self.peek().is(Punct::Star) {
                let s = self.bump().span;
                let sp = ty.span.merge(s);
                ty = Type {
                    kind: TypeKind::Ptr(Box::new(ty)),
                    span: sp,
                };
                // `* const`
                self.qualifiers(&mut Vec::new());
            } else if self.peek().is(Punct::Amp) && self.opts.lang == Lang::Cpp {
                let s = self.bump().span;
                let sp = ty.span.merge(s);
                ty = Type {
                    kind: TypeKind::Ref(Box::new(ty)),
                    span: sp,
                };
            } else {
                break;
            }
        }
        Ok(ty)
    }

    // ---- statements ----

    fn block(&mut self) -> Result<Block, ParseErr> {
        let start = self.expect(Punct::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.peek().is(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.err_here("unterminated block"));
            }
            stmts.push(self.statement()?);
        }
        let end = self.expect(Punct::RBrace)?.span;
        Ok(Block {
            stmts,
            span: start.merge(end),
        })
    }

    /// Parse one statement.
    pub(crate) fn statement(&mut self) -> Result<Stmt, ParseErr> {
        let t = self.peek();
        match t.kind {
            TokenKind::Directive => Ok(Stmt::Directive(self.directive())),
            TokenKind::Punct(Punct::LBrace) => Ok(Stmt::Block(self.block()?)),
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Empty { span: t.span })
            }
            TokenKind::Punct(Punct::Ellipsis) if self.opts.pattern => {
                self.bump();
                // Optional `when` constraints on the dots:
                //   when != expr    (skipped code must not contain expr)
                //   when any        (explicitly unconstrained)
                //   when exists     (some path suffices — EF)
                //   when strict     (all paths, spelled out — AF)
                let mut when_not = Vec::new();
                let mut quant = DotsQuant::Default;
                while self.peek_kw("when") {
                    self.bump();
                    if self.eat_kw("any") {
                        continue;
                    }
                    if self.eat_kw("exists") {
                        if quant == DotsQuant::Strict {
                            return Err(self.err_here("`when exists` conflicts with `when strict`"));
                        }
                        quant = DotsQuant::Exists;
                        continue;
                    }
                    if self.eat_kw("strict") {
                        if quant == DotsQuant::Exists {
                            return Err(self.err_here("`when strict` conflicts with `when exists`"));
                        }
                        quant = DotsQuant::Strict;
                        continue;
                    }
                    if self.eat(Punct::BangEq) {
                        when_not.push(self.assign_expr()?);
                    } else {
                        return Err(self.err_here(
                            "expected `!= expr`, `any`, `exists` or `strict` after `when`",
                        ));
                    }
                }
                Ok(Stmt::Dots {
                    span: t.span,
                    when_not,
                    quant,
                })
            }
            TokenKind::Punct(Punct::DisjOpen) if self.opts.pattern => self.pat_group(),
            TokenKind::Ident => {
                let kw = self.text(t);
                match kw {
                    "if" => self.if_stmt(),
                    "while" => self.while_stmt(),
                    "do" => self.do_stmt(),
                    "for" => self.for_stmt(),
                    "return" => {
                        let start = self.bump().span;
                        let value = if self.peek().is(Punct::Semi) {
                            None
                        } else {
                            Some(self.expr()?)
                        };
                        let end = self.stmt_semi(start)?;
                        Ok(Stmt::Return {
                            value,
                            span: start.merge(end),
                        })
                    }
                    "break" => {
                        let start = self.bump().span;
                        let end = self.stmt_semi(start)?;
                        Ok(Stmt::Break {
                            span: start.merge(end),
                        })
                    }
                    "continue" => {
                        let start = self.bump().span;
                        let end = self.stmt_semi(start)?;
                        Ok(Stmt::Continue {
                            span: start.merge(end),
                        })
                    }
                    "goto" => {
                        let start = self.bump().span;
                        let label = self.ident()?;
                        let end = self.stmt_semi(start)?;
                        Ok(Stmt::Goto {
                            label,
                            span: start.merge(end),
                        })
                    }
                    "switch" => {
                        let start = self.bump().span;
                        self.expect(Punct::LParen)?;
                        let scrutinee = self.expr()?;
                        self.expect(Punct::RParen)?;
                        let body = Box::new(self.statement()?);
                        let span = start.merge(body.span());
                        Ok(Stmt::Switch {
                            scrutinee,
                            body,
                            span,
                        })
                    }
                    "case" => {
                        let start = self.bump().span;
                        let value = self.expr()?;
                        self.expect(Punct::Colon)?;
                        let stmt = Box::new(self.statement()?);
                        let span = start.merge(stmt.span());
                        Ok(Stmt::Case {
                            value: Some(value),
                            stmt,
                            span,
                        })
                    }
                    "default" => {
                        let start = self.bump().span;
                        self.expect(Punct::Colon)?;
                        let stmt = Box::new(self.statement()?);
                        let span = start.merge(stmt.span());
                        Ok(Stmt::Case {
                            value: None,
                            stmt,
                            span,
                        })
                    }
                    _ => {
                        // Pattern: statement / statement-list metavars.
                        if self.opts.pattern {
                            match self.meta.kind(kw) {
                                Some(MetaKind::Stmt) => {
                                    let name = t.ident_sym();
                                    self.bump();
                                    let mut span = t.span;
                                    let pos = if self.eat(Punct::At) {
                                        let p = self.ident()?;
                                        span = span.merge(p.span);
                                        Some(p.name)
                                    } else {
                                        None
                                    };
                                    // Optional semicolon after a stmt metavar.
                                    if self.peek().is(Punct::Semi) {
                                        span = span.merge(self.bump().span);
                                    }
                                    return Ok(Stmt::MetaStmt { name, pos, span });
                                }
                                Some(MetaKind::StmtList) => {
                                    let name = t.ident_sym();
                                    self.bump();
                                    return Ok(Stmt::MetaStmtList { name, span: t.span });
                                }
                                _ => {}
                            }
                        }
                        // Label?
                        if self.peek_at(1).is(Punct::Colon)
                            && !self.peek_at(2).is(Punct::Colon)
                            && !self.class_at(0).is(Class::KEYWORD)
                        {
                            let label = self.ident()?;
                            self.bump(); // :
                            let stmt = Box::new(self.statement()?);
                            let span = label.span.merge(stmt.span());
                            return Ok(Stmt::Label { label, stmt, span });
                        }
                        if self.looks_like_decl() {
                            let start = self.peek().span;
                            match self.function_or_decl()? {
                                Item::Decl(d) => Ok(Stmt::Decl(d)),
                                Item::Function(_) => Err(ParseErr {
                                    span: start,
                                    message: "function definition in statement position".into(),
                                }),
                                _ => unreachable!(),
                            }
                        } else {
                            self.expr_stmt()
                        }
                    }
                }
            }
            _ => self.expr_stmt(),
        }
    }

    /// Expect `;` after a statement; in pattern mode a missing semicolon
    /// is tolerated when the next token closes a pattern group/block.
    fn stmt_semi(&mut self, _start: Span) -> Result<Span, ParseErr> {
        if self.peek().is(Punct::Semi) {
            return Ok(self.bump().span);
        }
        if self.opts.pattern && self.semi_optional_here() {
            return Ok(self.toks[self.pos.saturating_sub(1)].span);
        }
        Err(self.err_here(format!("expected `;`, found {}", self.describe_current())))
    }

    fn semi_optional_here(&self) -> bool {
        matches!(
            self.peek().kind,
            TokenKind::Punct(Punct::DisjPipe | Punct::ConjAmp | Punct::DisjClose | Punct::RBrace)
                | TokenKind::Eof
        )
    }

    fn expr_stmt(&mut self) -> Result<Stmt, ParseErr> {
        let expr = self.expr()?;
        let start = expr.span();
        let end = self.stmt_semi(start)?;
        Ok(Stmt::Expr {
            span: start.merge(end),
            expr,
        })
    }

    /// Pattern group `\( branch (\| branch)* \)` or `\( b \& b \)`.
    fn pat_group(&mut self) -> Result<Stmt, ParseErr> {
        let start = self.expect(Punct::DisjOpen)?.span;
        let mut branches = Vec::new();
        let mut conj = false;
        loop {
            let mut seq = Vec::new();
            while !matches!(
                self.peek().kind,
                TokenKind::Punct(Punct::DisjPipe | Punct::ConjAmp | Punct::DisjClose)
            ) {
                if self.at_eof() {
                    return Err(self.err_here("unterminated pattern group"));
                }
                seq.push(self.statement()?);
            }
            branches.push(seq);
            match self.peek().kind {
                TokenKind::Punct(Punct::DisjPipe) => {
                    self.bump();
                }
                TokenKind::Punct(Punct::ConjAmp) => {
                    conj = true;
                    self.bump();
                }
                _ => break,
            }
        }
        let end = self.expect(Punct::DisjClose)?.span;
        Ok(Stmt::PatGroup {
            conj,
            branches,
            span: start.merge(end),
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseErr> {
        let start = self.bump().span;
        self.expect(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect(Punct::RParen)?;
        let then_branch = Box::new(self.statement()?);
        let (else_branch, span) = if self.peek_kw("else") {
            self.bump();
            let e = Box::new(self.statement()?);
            let sp = start.merge(e.span());
            (Some(e), sp)
        } else {
            let sp = start.merge(then_branch.span());
            (None, sp)
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseErr> {
        let start = self.bump().span;
        self.expect(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect(Punct::RParen)?;
        let body = Box::new(self.statement()?);
        let span = start.merge(body.span());
        Ok(Stmt::While { cond, body, span })
    }

    fn do_stmt(&mut self) -> Result<Stmt, ParseErr> {
        let start = self.bump().span;
        let body = Box::new(self.statement()?);
        if !self.eat_kw("while") {
            return Err(self.err_here("expected `while` after do-body"));
        }
        self.expect(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect(Punct::RParen)?;
        let end = self.stmt_semi(start)?;
        Ok(Stmt::DoWhile {
            body,
            cond,
            span: start.merge(end),
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseErr> {
        let start = self.bump().span;
        let hstart = self.expect(Punct::LParen)?.span;

        // Range-for detection: `for (T x : range)` / `for (T &x : range)`.
        if self.opts.lang == Lang::Cpp {
            if let Some((ty, by_ref, var, after)) = self.try_range_for_head()? {
                self.pos = after;
                let range = self.expr()?;
                let hend = self.expect(Punct::RParen)?.span;
                let body = Box::new(self.statement()?);
                let span = start.merge(body.span());
                let _ = hstart.merge(hend);
                return Ok(Stmt::RangeFor {
                    ty,
                    by_ref,
                    var,
                    range,
                    body,
                    span,
                });
            }
        }

        // Classic for.
        let init = if self.peek().is(Punct::Semi) {
            self.bump();
            None
        } else if self.opts.pattern
            && self.peek().is(Punct::Ellipsis)
            && self.peek_at(1).is(Punct::Semi)
        {
            let d = self.bump().span;
            self.bump();
            Some(Box::new(ForInit::Dots { span: d }))
        } else if self.looks_like_decl() {
            let dstart = self.peek().span;
            let ty = self.type_specifier()?;
            let mut ptr = 0u8;
            let mut reference = false;
            while self.peek().is(Punct::Star) || self.peek().is(Punct::Amp) {
                if self.bump().is(Punct::Star) {
                    ptr += 1;
                } else {
                    reference = true;
                }
            }
            let name = self.ident()?;
            let first = self.declarator_tail(name, ptr, reference)?;
            let mut declarators = vec![first];
            while self.eat(Punct::Comma) {
                let name = self.ident()?;
                declarators.push(self.declarator_tail(name, 0, false)?);
            }
            let dend = self.expect(Punct::Semi)?.span;
            Some(Box::new(ForInit::Decl(Declaration {
                attrs: Vec::new(),
                specifiers: Vec::new(),
                ty,
                declarators,
                span: dstart.merge(dend),
            })))
        } else {
            let e = self.expr()?;
            self.expect(Punct::Semi)?;
            Some(Box::new(ForInit::Expr(e)))
        };

        let cond = if self.peek().is(Punct::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Punct::Semi)?;
        let step = if self.peek().is(Punct::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        let hend = self.expect(Punct::RParen)?.span;
        let header_span = start.merge(hend);
        let body = Box::new(self.statement()?);
        let span = start.merge(body.span());
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
            header_span,
        })
    }

    /// Lookahead for a range-for head `T [&|*] name :`. Returns the parsed
    /// pieces and the position just after the `:`.
    fn try_range_for_head(&mut self) -> Result<Option<(Type, bool, Ident, usize)>, ParseErr> {
        let save = self.pos;
        let result = (|| -> Result<Option<(Type, bool, Ident, usize)>, ParseErr> {
            if !self.looks_like_decl() && self.peek().kind != TokenKind::Ident {
                return Ok(None);
            }
            let ty = match self.type_specifier() {
                Ok(t) => t,
                Err(_) => return Ok(None),
            };
            let mut by_ref = false;
            while self.peek().is(Punct::Amp) || self.peek().is(Punct::Star) {
                by_ref = true;
                self.bump();
            }
            let var = match self.ident() {
                Ok(v) => v,
                Err(_) => return Ok(None),
            };
            if self.peek().is(Punct::Colon) && !self.peek_at(1).is(Punct::Colon) {
                self.bump();
                Ok(Some((ty, by_ref, var, self.pos)))
            } else {
                Ok(None)
            }
        })();
        self.pos = save;
        result
    }

    // ---- expressions ----

    /// Full expression including comma operator.
    pub(crate) fn expr(&mut self) -> Result<Expr, ParseErr> {
        let mut e = self.assign_expr()?;
        while self.peek().is(Punct::Comma) {
            self.bump();
            let rhs = self.assign_expr()?;
            let span = e.span().merge(rhs.span());
            e = Expr::Binary {
                op: BinOp::Comma,
                lhs: Box::new(e),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(e)
    }

    /// Assignment expression (no top-level comma).
    fn assign_expr(&mut self) -> Result<Expr, ParseErr> {
        let lhs = self.ternary()?;
        let op = match self.peek().kind {
            TokenKind::Punct(Punct::Eq) => Some(AssignOp::Assign),
            TokenKind::Punct(Punct::PlusEq) => Some(AssignOp::AddAssign),
            TokenKind::Punct(Punct::MinusEq) => Some(AssignOp::SubAssign),
            TokenKind::Punct(Punct::StarEq) => Some(AssignOp::MulAssign),
            TokenKind::Punct(Punct::SlashEq) => Some(AssignOp::DivAssign),
            TokenKind::Punct(Punct::PercentEq) => Some(AssignOp::RemAssign),
            TokenKind::Punct(Punct::ShlEq) => Some(AssignOp::ShlAssign),
            TokenKind::Punct(Punct::ShrEq) => Some(AssignOp::ShrAssign),
            TokenKind::Punct(Punct::AmpEq) => Some(AssignOp::AndAssign),
            TokenKind::Punct(Punct::CaretEq) => Some(AssignOp::XorAssign),
            TokenKind::Punct(Punct::PipeEq) => Some(AssignOp::OrAssign),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.assign_expr()?;
            let span = lhs.span().merge(rhs.span());
            Ok(Expr::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            })
        } else {
            Ok(lhs)
        }
    }

    fn ternary(&mut self) -> Result<Expr, ParseErr> {
        let cond = self.binary(0)?;
        if self.peek().is(Punct::Question) {
            self.bump();
            let then_val = self.expr()?;
            self.expect(Punct::Colon)?;
            let else_val = self.assign_expr()?;
            let span = cond.span().merge(else_val.span());
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_val: Box::new(then_val),
                else_val: Box::new(else_val),
                span,
            })
        } else {
            Ok(cond)
        }
    }

    fn bin_op_here(&self) -> Option<(BinOp, u8)> {
        let op = match self.peek().kind {
            TokenKind::Punct(Punct::PipePipe) => (BinOp::Or, 1),
            TokenKind::Punct(Punct::AmpAmp) => (BinOp::And, 2),
            TokenKind::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
            TokenKind::Punct(Punct::Caret) => (BinOp::BitXor, 4),
            TokenKind::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
            TokenKind::Punct(Punct::EqEq) => (BinOp::EqEq, 6),
            TokenKind::Punct(Punct::BangEq) => (BinOp::Ne, 6),
            TokenKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
            TokenKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
            TokenKind::Punct(Punct::LtEq) => (BinOp::Le, 7),
            TokenKind::Punct(Punct::GtEq) => (BinOp::Ge, 7),
            TokenKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
            TokenKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
            TokenKind::Punct(Punct::Plus) => (BinOp::Add, 9),
            TokenKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
            TokenKind::Punct(Punct::Star) => (BinOp::Mul, 10),
            TokenKind::Punct(Punct::Slash) => (BinOp::Div, 10),
            TokenKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
            _ => return None,
        };
        Some(op)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseErr> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.bin_op_here() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseErr> {
        let t = self.peek();
        let op = match t.kind {
            TokenKind::Punct(Punct::Minus) => Some(UnOp::Neg),
            TokenKind::Punct(Punct::Plus) => Some(UnOp::Pos),
            TokenKind::Punct(Punct::Bang) => Some(UnOp::Not),
            TokenKind::Punct(Punct::Tilde) => Some(UnOp::BitNot),
            TokenKind::Punct(Punct::Star) => Some(UnOp::Deref),
            TokenKind::Punct(Punct::Amp) => Some(UnOp::AddrOf),
            TokenKind::Punct(Punct::PlusPlus) => Some(UnOp::PreInc),
            TokenKind::Punct(Punct::MinusMinus) => Some(UnOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.unary()?;
            let span = t.span.merge(expr.span());
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
                span,
            });
        }
        if t.kind == TokenKind::Ident && self.text(t) == "sizeof" {
            let start = self.bump().span;
            if self.peek().is(Punct::LParen) {
                let s = self.peek().span.start;
                self.skip_balanced(Punct::LParen, Punct::RParen)?;
                let e = self.toks[self.pos - 1].span.end;
                let arg = Symbol::intern(self.src[s as usize + 1..e as usize - 1].trim());
                return Ok(Expr::Sizeof {
                    arg,
                    span: start.merge(Span::new(s, e)),
                });
            }
            let e = self.unary()?;
            let span = start.merge(e.span());
            let arg = if e.span().is_synthetic() {
                Symbol::intern("")
            } else {
                Symbol::intern(&self.src[e.span().start as usize..e.span().end as usize])
            };
            return Ok(Expr::Sizeof { arg, span });
        }
        // C-style cast: `(T)expr`.
        if t.is(Punct::LParen) {
            if let Some((ty, after)) = self.try_cast_head()? {
                self.pos = after;
                let expr = self.unary()?;
                let span = t.span.merge(expr.span());
                return Ok(Expr::Cast {
                    ty,
                    expr: Box::new(expr),
                    span,
                });
            }
        }
        self.postfix()
    }

    /// Lookahead for `(T)` cast heads.
    fn try_cast_head(&mut self) -> Result<Option<(Type, usize)>, ParseErr> {
        let save = self.pos;
        let result = (|| {
            self.bump(); // (
            let t = self.peek();
            if t.kind != TokenKind::Ident {
                return Ok(None);
            }
            let starts_type =
                self.is_type_name(0) || self.class_at(0).is(Class::RECORD | Class::QUALIFIER);
            if !starts_type {
                return Ok(None);
            }
            let ty = match self.full_type() {
                Ok(ty) => ty,
                Err(_) => return Ok(None),
            };
            if !self.peek().is(Punct::RParen) {
                return Ok(None);
            }
            self.bump();
            // Must be followed by something that can start a unary expr.
            let next = self.peek();
            let ok = match next.kind {
                TokenKind::Ident => {
                    !self.class_at(0).is(Class::KEYWORD) || self.text(next) == "sizeof"
                }
                TokenKind::IntLit
                | TokenKind::FloatLit
                | TokenKind::StrLit
                | TokenKind::CharLit => true,
                TokenKind::Punct(
                    Punct::LParen
                    | Punct::Minus
                    | Punct::Plus
                    | Punct::Star
                    | Punct::Amp
                    | Punct::Bang
                    | Punct::Tilde,
                ) => true,
                _ => false,
            };
            if ok {
                Ok(Some((ty, self.pos)))
            } else {
                Ok(None)
            }
        })();
        self.pos = save;
        result
    }

    fn postfix(&mut self) -> Result<Expr, ParseErr> {
        let mut e = self.primary()?;
        loop {
            let t = self.peek();
            match t.kind {
                TokenKind::Punct(Punct::LParen) => {
                    self.bump();
                    let args = self.call_args()?;
                    let end = self.expect(Punct::RParen)?.span;
                    let span = e.span().merge(end);
                    e = Expr::Call {
                        callee: Box::new(e),
                        args,
                        span,
                    };
                }
                TokenKind::Punct(Punct::TripleLt) => {
                    self.bump();
                    let mut config = Vec::new();
                    while !self.peek().is(Punct::TripleGt) {
                        if self.at_eof() {
                            return Err(self.err_here("unterminated `<<<`"));
                        }
                        config.push(self.assign_or_dots()?);
                        if !self.eat(Punct::Comma) {
                            break;
                        }
                    }
                    self.expect(Punct::TripleGt)?;
                    self.expect(Punct::LParen)?;
                    let args = self.call_args()?;
                    let end = self.expect(Punct::RParen)?.span;
                    let span = e.span().merge(end);
                    e = Expr::KernelCall {
                        callee: Box::new(e),
                        config,
                        args,
                        span,
                    };
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let mut indices = Vec::new();
                    while !self.peek().is(Punct::RBracket) {
                        indices.push(self.assign_or_dots()?);
                        if !self.eat(Punct::Comma) {
                            break;
                        }
                    }
                    let end = self.expect(Punct::RBracket)?.span;
                    let span = e.span().merge(end);
                    e = Expr::Index {
                        base: Box::new(e),
                        indices,
                        span,
                    };
                }
                TokenKind::Punct(Punct::Dot) | TokenKind::Punct(Punct::Arrow) => {
                    let arrow = t.is(Punct::Arrow);
                    self.bump();
                    let field = self.ident()?;
                    let span = e.span().merge(field.span);
                    e = Expr::Member {
                        base: Box::new(e),
                        arrow,
                        field,
                        span,
                    };
                }
                TokenKind::Punct(Punct::PlusPlus) | TokenKind::Punct(Punct::MinusMinus) => {
                    let inc = t.is(Punct::PlusPlus);
                    self.bump();
                    let span = e.span().merge(t.span);
                    e = Expr::PostIncDec {
                        expr: Box::new(e),
                        inc,
                        span,
                    };
                }
                TokenKind::Punct(Punct::At) if self.opts.pattern => {
                    self.bump();
                    let p = self.ident()?;
                    let span = e.span().merge(p.span);
                    e = Expr::PosAnn {
                        inner: Box::new(e),
                        pos: p.name,
                        span,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseErr> {
        let mut args = Vec::new();
        while !self.peek().is(Punct::RParen) {
            if self.at_eof() {
                return Err(self.err_here("unterminated argument list"));
            }
            args.push(self.assign_or_dots()?);
            if !self.eat(Punct::Comma) {
                break;
            }
        }
        Ok(args)
    }

    /// Assignment expression, or `...` in pattern mode.
    fn assign_or_dots(&mut self) -> Result<Expr, ParseErr> {
        if self.opts.pattern && self.peek().is(Punct::Ellipsis) {
            let t = self.bump();
            return Ok(Expr::Dots { span: t.span });
        }
        self.assign_expr()
    }

    fn primary(&mut self) -> Result<Expr, ParseErr> {
        let t = self.peek();
        match t.kind {
            TokenKind::IntLit => {
                self.bump();
                let raw = self.text(t);
                let value = parse_int(raw).ok_or_else(|| ParseErr {
                    span: t.span,
                    message: format!("bad integer literal `{raw}`"),
                })?;
                Ok(Expr::IntLit {
                    value,
                    raw: Symbol::intern(raw),
                    span: t.span,
                })
            }
            TokenKind::FloatLit => {
                self.bump();
                Ok(Expr::FloatLit {
                    raw: Symbol::intern(self.text(t)),
                    span: t.span,
                })
            }
            TokenKind::StrLit => {
                self.bump();
                Ok(Expr::StrLit {
                    raw: Symbol::intern(self.text(t)),
                    span: t.span,
                })
            }
            TokenKind::CharLit => {
                self.bump();
                Ok(Expr::CharLit {
                    raw: Symbol::intern(self.text(t)),
                    span: t.span,
                })
            }
            TokenKind::Punct(Punct::Ellipsis) if self.opts.pattern => {
                self.bump();
                Ok(Expr::Dots { span: t.span })
            }
            TokenKind::Punct(Punct::DisjOpen) if self.opts.pattern => {
                let start = self.bump().span;
                let mut branches = vec![self.assign_expr()?];
                while self.eat(Punct::DisjPipe) {
                    branches.push(self.assign_expr()?);
                }
                let end = self.expect(Punct::DisjClose)?.span;
                Ok(Expr::Disj {
                    branches,
                    span: start.merge(end),
                })
            }
            TokenKind::Punct(Punct::LParen) => {
                let start = self.bump().span;
                let inner = self.expr()?;
                let end = self.expect(Punct::RParen)?.span;
                Ok(Expr::Paren {
                    inner: Box::new(inner),
                    span: start.merge(end),
                })
            }
            TokenKind::Punct(Punct::LBrace) => self.init_list(),
            TokenKind::Ident => {
                let class = self.class_at(0);
                if class.is(Class::LITERAL) {
                    self.bump();
                    return Ok(Expr::Ident(Ident {
                        name: t.ident_sym(),
                        span: t.span,
                    }));
                }
                if class.is(Class::KEYWORD) {
                    let name = self.text(t);
                    return Err(self.err_here(format!("unexpected keyword `{name}`")));
                }
                let id = self.ident_path()?;
                Ok(Expr::Ident(id))
            }
            _ => Err(self.err_here(format!(
                "expected expression, found {}",
                self.describe_current()
            ))),
        }
    }
}

/// Parse a C integer literal (decimal/hex/octal/binary, suffixes
/// stripped).
pub fn parse_int(raw: &str) -> Option<i128> {
    let s = raw.trim_end_matches(['u', 'U', 'l', 'L']);
    if s.contains('_') {
        return parse_digits(&s.replace('_', ""));
    }
    parse_digits(s)
}

/// Parse the digits of an integer literal, with its base prefix.
fn parse_digits(s: &str) -> Option<i128> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        i128::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = s.strip_prefix("0b").or_else(|| s.strip_prefix("0B")) {
        i128::from_str_radix(bin, 2).ok()
    } else if s.len() > 1 && s.starts_with('0') {
        i128::from_str_radix(&s[1..], 8).ok()
    } else {
        s.parse().ok()
    }
}
