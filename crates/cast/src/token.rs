//! Token definitions for the C/C++ lexer.
//!
//! The same lexer is reused by `cocci-smpl` for rule bodies, so the token
//! set includes everything SMPL patterns can mention: the full C operator
//! set, CUDA's `<<<`/`>>>` kernel-launch chevrons, C++ `::`, and the
//! ellipsis `...` (varargs in C, "dots" in SMPL).

use cocci_source::{FnvBuild, Span, Symbol};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Lexical category of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are distinguished by the parser via
    /// [`is_keyword`]) — the lexer stays keyword-agnostic so that SMPL can
    /// use keyword-shaped metavariable names.
    Ident,
    /// Integer literal (decimal, hex `0x`, octal, binary `0b`, with
    /// optional suffix).
    IntLit,
    /// Floating literal.
    FloatLit,
    /// String literal, including both quotes.
    StrLit,
    /// Character literal, including both quotes.
    CharLit,
    /// A whole preprocessor line starting with `#` (logical line: `\`
    /// continuations joined).
    Directive,
    /// Punctuation / operator.
    Punct(Punct),
    /// End of input sentinel.
    Eof,
}

/// All punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    ColonColon,
    Question,
    Dot,
    Ellipsis,
    Arrow,
    Plus,
    PlusPlus,
    PlusEq,
    Minus,
    MinusMinus,
    MinusEq,
    Star,
    StarEq,
    Slash,
    SlashEq,
    Percent,
    PercentEq,
    Amp,
    AmpAmp,
    AmpEq,
    Pipe,
    PipePipe,
    PipeEq,
    Caret,
    CaretEq,
    Tilde,
    Bang,
    BangEq,
    Eq,
    EqEq,
    Lt,
    LtEq,
    Shl,
    ShlEq,
    TripleLt,
    Gt,
    GtEq,
    Shr,
    ShrEq,
    TripleGt,
    /// SMPL-only: `@` for position metavariable attachment.
    At,
    /// SMPL-only: `\(` disjunction open.
    DisjOpen,
    /// SMPL-only: `\|` disjunction separator.
    DisjPipe,
    /// SMPL-only: `\&` conjunction separator.
    ConjAmp,
    /// SMPL-only: `\)` disjunction close.
    DisjClose,
    /// SMPL-only: `##` identifier concatenation.
    HashHash,
}

impl Punct {
    /// Canonical text of the punctuation token.
    pub fn text(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Colon => ":",
            ColonColon => "::",
            Question => "?",
            Dot => ".",
            Ellipsis => "...",
            Arrow => "->",
            Plus => "+",
            PlusPlus => "++",
            PlusEq => "+=",
            Minus => "-",
            MinusMinus => "--",
            MinusEq => "-=",
            Star => "*",
            StarEq => "*=",
            Slash => "/",
            SlashEq => "/=",
            Percent => "%",
            PercentEq => "%=",
            Amp => "&",
            AmpAmp => "&&",
            AmpEq => "&=",
            Pipe => "|",
            PipePipe => "||",
            PipeEq => "|=",
            Caret => "^",
            CaretEq => "^=",
            Tilde => "~",
            Bang => "!",
            BangEq => "!=",
            Eq => "=",
            EqEq => "==",
            Lt => "<",
            LtEq => "<=",
            Shl => "<<",
            ShlEq => "<<=",
            TripleLt => "<<<",
            Gt => ">",
            GtEq => ">=",
            Shr => ">>",
            ShrEq => ">>=",
            TripleGt => ">>>",
            At => "@",
            DisjOpen => "\\(",
            DisjPipe => "\\|",
            ConjAmp => "\\&",
            DisjClose => "\\)",
            HashHash => "##",
        }
    }
}

/// A lexed token: kind plus the byte span of its text.
///
/// Identifier tokens additionally carry the interned [`Symbol`] of their
/// text (minted once by the lexer), so the parser never re-slices or
/// allocates identifier strings and keyword checks are integer compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexical category.
    pub kind: TokenKind,
    /// Where in the file the token's text lives.
    pub span: Span,
    /// Interned text for [`TokenKind::Ident`] tokens; `None` otherwise
    /// (punctuation text is canonical via [`Punct::text`], literal and
    /// directive text is sliced on demand).
    pub sym: Option<Symbol>,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        if self.span.is_synthetic() {
            ""
        } else {
            &src[self.span.start as usize..self.span.end as usize]
        }
    }

    /// The interned symbol of an identifier token.
    ///
    /// Panics if called on a non-identifier token — parser code paths
    /// only reach this after checking `kind == TokenKind::Ident`.
    pub fn ident_sym(&self) -> Symbol {
        self.sym.expect("ident_sym on non-identifier token")
    }

    /// Whether this token is a specific punctuation.
    pub fn is(&self, p: Punct) -> bool {
        self.kind == TokenKind::Punct(p)
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident => write!(f, "identifier"),
            TokenKind::IntLit => write!(f, "integer literal"),
            TokenKind::FloatLit => write!(f, "float literal"),
            TokenKind::StrLit => write!(f, "string literal"),
            TokenKind::CharLit => write!(f, "char literal"),
            TokenKind::Directive => write!(f, "preprocessor directive"),
            TokenKind::Punct(p) => write!(f, "`{}`", p.text()),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// C/C++ keywords that can never be identifiers in target code.
///
/// Deliberately *not* including SMPL metavariable-kind words
/// (`expression`, `statement`, …) which are only keywords inside rule
/// headers.
pub const KEYWORDS: &[&str] = &[
    "auto",
    "break",
    "case",
    "char",
    "const",
    "constexpr",
    "continue",
    "default",
    "do",
    "double",
    "else",
    "enum",
    "extern",
    "float",
    "for",
    "goto",
    "if",
    "inline",
    "int",
    "long",
    "register",
    "restrict",
    "return",
    "short",
    "signed",
    "sizeof",
    "static",
    "struct",
    "switch",
    "typedef",
    "union",
    "unsigned",
    "void",
    "volatile",
    "while",
    "bool",
    "true",
    "false",
    "class",
    "public",
    "private",
    "protected",
    "template",
    "typename",
    "namespace",
    "using",
    "new",
    "delete",
    "this",
    "operator",
    "virtual",
    "override",
    "final",
    "nullptr",
    "decltype",
];

/// Whether `s` is a C/C++ keyword.
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Storage/function specifiers that may prefix a declaration.
pub const DECL_SPECIFIERS: &[&str] = &[
    "static",
    "extern",
    "inline",
    "register",
    "typedef",
    "virtual",
    "constexpr",
];

/// Builtin type names recognized without registration.
pub(crate) const BUILTIN_TYPES: &[&str] = &[
    "void",
    "char",
    "short",
    "int",
    "long",
    "float",
    "double",
    "signed",
    "unsigned",
    "bool",
    "size_t",
    "ssize_t",
    "ptrdiff_t",
    "intptr_t",
    "uintptr_t",
    "int8_t",
    "int16_t",
    "int32_t",
    "int64_t",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "wchar_t",
    "FILE",
    "va_list",
    "dim3",
    "cudaStream_t",
    "cudaError_t",
    "hipStream_t",
    "hipError_t",
    "__half",
    "rocblas_half",
    "curandState_t",
    "auto",
];

/// Type qualifiers, which may precede or follow a type specifier.
pub(crate) const QUALIFIERS: &[&str] = &[
    "const",
    "volatile",
    "restrict",
    "__restrict__",
    "__restrict",
];

/// What an identifier token's word is to the parser: a set of flags,
/// worked out once per token from its symbol and text (see the parser's
/// module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Class(u8);

impl Class {
    /// A C/C++ keyword ([`KEYWORDS`]): never an identifier.
    pub(crate) const KEYWORD: u8 = 1;
    /// A builtin type word ([`BUILTIN_TYPES`]).
    pub(crate) const BUILTIN: u8 = 1 << 1;
    /// A name ending in `_t`, taken for a type.
    pub(crate) const T_SUFFIX: u8 = 1 << 2;
    /// A storage or function specifier ([`DECL_SPECIFIERS`]).
    pub(crate) const SPECIFIER: u8 = 1 << 3;
    /// A type qualifier ([`QUALIFIERS`]).
    pub(crate) const QUALIFIER: u8 = 1 << 4;
    /// `struct`, `union` or `enum`.
    pub(crate) const RECORD: u8 = 1 << 5;
    /// A keyword that is an expression on its own.
    pub(crate) const LITERAL: u8 = 1 << 6;

    /// The class of an identifier token with symbol `sym` and text `text`.
    pub(crate) fn of(sym: Symbol, text: &str) -> Class {
        static WORDS: OnceLock<HashMap<Symbol, u8, FnvBuild>> = OnceLock::new();
        let words = WORDS.get_or_init(|| {
            let tables: [(&[&str], u8); 6] = [
                (KEYWORDS, Class::KEYWORD),
                (BUILTIN_TYPES, Class::BUILTIN),
                (DECL_SPECIFIERS, Class::SPECIFIER),
                (QUALIFIERS, Class::QUALIFIER),
                (&["struct", "union", "enum"], Class::RECORD),
                (&["true", "false", "nullptr", "this"], Class::LITERAL),
            ];
            let mut words = HashMap::default();
            for (table, flag) in tables {
                for w in table {
                    *words.entry(Symbol::intern(w)).or_default() |= flag;
                }
            }
            words
        });
        let suffix = if text.ends_with("_t") {
            Class::T_SUFFIX
        } else {
            0
        };
        Class(words.get(&sym).copied().unwrap_or(0) | suffix)
    }

    /// Whether the word has any of `flags`.
    pub(crate) fn is(self, flags: u8) -> bool {
        self.0 & flags != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_table() {
        assert!(is_keyword("for"));
        assert!(is_keyword("restrict"));
        assert!(!is_keyword("kernel"));
        assert!(!is_keyword("expression")); // SMPL-only keyword
    }

    #[test]
    fn keyword_sym_tables_agree_with_string_tables() {
        for s in [
            "for",
            "restrict",
            "kernel",
            "expression",
            "static",
            "int",
            "size_t",
            "struct",
            "nullptr",
            "__restrict",
        ] {
            let class = Class::of(Symbol::intern(s), s);
            assert_eq!(class.is(Class::KEYWORD), is_keyword(s), "{s}");
            assert_eq!(
                class.is(Class::SPECIFIER),
                DECL_SPECIFIERS.contains(&s),
                "{s}"
            );
            assert_eq!(class.is(Class::BUILTIN), BUILTIN_TYPES.contains(&s), "{s}");
            assert_eq!(class.is(Class::QUALIFIER), QUALIFIERS.contains(&s), "{s}");
        }
        assert!(Class::of(Symbol::intern("my_t"), "my_t").is(Class::T_SUFFIX));
    }

    #[test]
    fn punct_text_roundtrip() {
        assert_eq!(Punct::TripleLt.text(), "<<<");
        assert_eq!(Punct::Ellipsis.text(), "...");
        assert_eq!(Punct::HashHash.text(), "##");
    }

    #[test]
    fn token_text_slicing() {
        let src = "int foo;";
        let t = Token {
            kind: TokenKind::Ident,
            span: Span::new(4, 7),
            sym: Some(Symbol::intern("foo")),
        };
        assert_eq!(t.text(src), "foo");
        assert_eq!(t.ident_sym(), "foo");
    }

    #[test]
    fn synthetic_token_text_is_empty() {
        let t = Token {
            kind: TokenKind::Ident,
            span: Span::SYNTHETIC,
            sym: Some(Symbol::intern("")),
        };
        assert_eq!(t.text("whatever"), "");
    }
}
