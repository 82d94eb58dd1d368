//! Lexer for C/C++ (and, in [`LexMode::Smpl`], for SMPL rule bodies).
//!
//! Differences between the two modes:
//! * C mode treats `#` at the start of a logical line as a preprocessor
//!   directive consumed to end-of-line (joining `\` continuations).
//! * SMPL mode additionally recognizes `\(`, `\|`, `\&`, `\)` (pattern
//!   disjunction/conjunction), `@` (position attachment) and `##`
//!   (fresh-identifier concatenation) as punctuation.
//!
//! Comments and whitespace are skipped; their extents are recoverable from
//! inter-token span gaps, which is all the minimal-diff unparser needs.

use crate::token::{Punct, Token, TokenKind};
use cocci_source::{Span, Symbol};

/// Lexing dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LexMode {
    /// Plain C/C++ target code.
    C,
    /// SMPL rule bodies (adds `\(`-family, `@`, `##`).
    Smpl,
}

/// Lexer error (unterminated literal / stray byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the problem.
    pub at: u32,
    /// Description.
    pub message: String,
}

/// Lex `src` fully.
pub fn lex(src: &str, mode: LexMode) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        end: src.len(),
        mode,
        at_line_start: true,
        tokens: Vec::with_capacity(src.len() / 6 + 8),
    };
    lx.run()?;
    Ok(lx.tokens)
}

/// Lex the C text `src[start..end]` in place: token spans are offsets
/// into `src`, the lexer starts in the state it would have at `start`
/// (which must be a token boundary of `src`), and the `Eof` token sits at
/// `end`. Fails unless lexing all of `src` would also stop at `end`: a
/// comment, literal, directive or token that runs past `end` is an
/// error, and so is a `#` at `end` that would no longer begin a line.
pub(crate) fn lex_fragment(src: &str, start: u32, end: u32) -> Result<Vec<Token>, LexError> {
    let (start, end) = (start as usize, end as usize);
    let line = &src.as_bytes()[..start];
    let line = &line[line
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |nl| nl + 1)..];
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: start,
        end,
        mode: LexMode::C,
        at_line_start: line
            .iter()
            .all(|b| matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)),
        tokens: Vec::with_capacity((end - start) / 6 + 8),
    };
    lx.run()?;
    if lx.pos > end {
        return Err(lx.err(end, "text runs past the fragment's end"));
    }
    if lx.src.get(end) == Some(&b'#') && !lx.at_line_start {
        return Err(lx.err(end, "directive no longer begins a line"));
    }
    Ok(lx.tokens)
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    /// Where lexing stops: the end of `src`, or of a fragment.
    end: usize,
    mode: LexMode,
    /// True when only whitespace has been seen since the last newline —
    /// the condition for `#` starting a directive.
    at_line_start: bool,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn err(&self, at: usize, msg: impl Into<String>) -> LexError {
        LexError {
            at: at as u32,
            message: msg.into(),
        }
    }

    fn peek(&self) -> u8 {
        self.src.get(self.pos).copied().unwrap_or(0)
    }

    fn peek2(&self) -> u8 {
        self.src.get(self.pos + 1).copied().unwrap_or(0)
    }

    fn peek3(&self) -> u8 {
        self.src.get(self.pos + 2).copied().unwrap_or(0)
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
            sym: None,
        });
        self.at_line_start = false;
    }

    fn punct(&mut self, p: Punct, start: usize, len: usize) {
        self.pos = start + len;
        self.push(TokenKind::Punct(p), start);
    }

    fn run(&mut self) -> Result<(), LexError> {
        while self.pos < self.end {
            let c = self.peek();
            let start = self.pos;
            match c {
                b'\n' => {
                    self.pos += 1;
                    self.at_line_start = true;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                    self.pos += 1;
                }
                b'\\' if self.peek2() == b'\n' => {
                    // Line continuation in normal code: whitespace.
                    self.pos += 2;
                }
                b'\\'
                    if self.mode == LexMode::Smpl
                        && matches!(self.peek2(), b'(' | b')' | b'|' | b'&') =>
                {
                    let p = match self.peek2() {
                        b'(' => Punct::DisjOpen,
                        b')' => Punct::DisjClose,
                        b'|' => Punct::DisjPipe,
                        _ => Punct::ConjAmp,
                    };
                    self.punct(p, start, 2);
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    self.pos += 2;
                    loop {
                        if self.pos + 1 >= self.src.len() {
                            return Err(self.err(start, "unterminated block comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.pos += 2;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                b'#' if self.at_line_start && self.mode == LexMode::C => {
                    self.directive(start)?;
                }
                b'#' if self.mode == LexMode::Smpl && self.peek2() == b'#' => {
                    self.punct(Punct::HashHash, start, 2);
                }
                b'#' if self.mode == LexMode::Smpl => {
                    // SMPL bodies contain `#pragma`/`#include` pattern lines;
                    // the SMPL layer pre-splits bodies into lines, so here a
                    // `#` always begins a directive-shaped line.
                    self.directive(start)?;
                }
                b'"' => self.string(start, b'"')?,
                b'\'' => self.string(start, b'\'')?,
                b'0'..=b'9' => self.number(start)?,
                b'.' if self.peek2().is_ascii_digit() => self.number(start)?,
                c if c == b'_' || c.is_ascii_alphabetic() => {
                    while self.pos < self.src.len()
                        && (self.peek() == b'_' || self.peek().is_ascii_alphanumeric())
                    {
                        self.pos += 1;
                    }
                    // Intern once at lex time; every later use of the
                    // identifier (parser, matcher) is a Symbol compare.
                    let text = std::str::from_utf8(&self.src[start..self.pos])
                        .expect("identifier bytes are ASCII");
                    let sym = Symbol::intern(text);
                    self.tokens.push(Token {
                        kind: TokenKind::Ident,
                        span: Span::new(start as u32, self.pos as u32),
                        sym: Some(sym),
                    });
                    self.at_line_start = false;
                }
                _ => self.operator(start)?,
            }
        }
        self.tokens.push(Token {
            kind: TokenKind::Eof,
            span: Span::empty(self.end as u32),
            sym: None,
        });
        Ok(())
    }

    /// Consume a preprocessor logical line (joining `\` continuations).
    fn directive(&mut self, start: usize) -> Result<(), LexError> {
        while self.pos < self.src.len() {
            match self.peek() {
                b'\n' => break,
                b'\\' if self.peek2() == b'\n' => {
                    self.pos += 2;
                }
                b'\\' if self.peek2() == b'\r' && self.peek3() == b'\n' => {
                    self.pos += 3;
                }
                _ => self.pos += 1,
            }
        }
        // Trim trailing spaces from the token span for cleaner raw text.
        let mut end = self.pos;
        while end > start && matches!(self.src[end - 1], b' ' | b'\t' | b'\r') {
            end -= 1;
        }
        let save = self.pos;
        self.pos = end;
        self.push(TokenKind::Directive, start);
        self.pos = save;
        Ok(())
    }

    fn string(&mut self, start: usize, quote: u8) -> Result<(), LexError> {
        self.pos += 1;
        loop {
            if self.pos >= self.src.len() {
                return Err(self.err(start, "unterminated literal"));
            }
            match self.peek() {
                b'\\' => {
                    if self.pos + 1 >= self.src.len() {
                        return Err(self.err(start, "unterminated literal"));
                    }
                    self.pos += 2;
                }
                b'\n' => return Err(self.err(start, "newline in literal")),
                c if c == quote => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.push(
            if quote == b'"' {
                TokenKind::StrLit
            } else {
                TokenKind::CharLit
            },
            start,
        );
        Ok(())
    }

    fn number(&mut self, start: usize) -> Result<(), LexError> {
        let mut is_float = false;
        if self.peek() == b'0' && matches!(self.peek2(), b'x' | b'X' | b'b' | b'B') {
            self.pos += 2;
            while self.pos < self.src.len()
                && (self.peek().is_ascii_alphanumeric() || self.peek() == b'_')
            {
                self.pos += 1;
            }
            self.push(TokenKind::IntLit, start);
            return Ok(());
        }
        while self.pos < self.src.len() {
            match self.peek() {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !is_float && self.peek2() != b'.' => {
                    // `1..` would be a range-ish typo; `1.` is a float.
                    is_float = true;
                    self.pos += 1;
                }
                b'e' | b'E'
                    if matches!(self.peek2(), b'+' | b'-') || self.peek2().is_ascii_digit() =>
                {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), b'+' | b'-') {
                        self.pos += 1;
                    }
                }
                b'f' | b'F' | b'l' | b'L' | b'u' | b'U' => self.pos += 1,
                _ => break,
            }
        }
        self.push(
            if is_float {
                TokenKind::FloatLit
            } else {
                TokenKind::IntLit
            },
            start,
        );
        Ok(())
    }

    fn operator(&mut self, start: usize) -> Result<(), LexError> {
        use Punct::*;
        let (a, b, c) = (self.peek(), self.peek2(), self.peek3());
        let (p, len) = match (a, b, c) {
            (b'.', b'.', b'.') => (Ellipsis, 3),
            (b'<', b'<', b'<') => (TripleLt, 3),
            (b'>', b'>', b'>') => (TripleGt, 3),
            (b'<', b'<', b'=') => (ShlEq, 3),
            (b'>', b'>', b'=') => (ShrEq, 3),
            (b':', b':', _) => (ColonColon, 2),
            (b'-', b'>', _) => (Arrow, 2),
            (b'+', b'+', _) => (PlusPlus, 2),
            (b'+', b'=', _) => (PlusEq, 2),
            (b'-', b'-', _) => (MinusMinus, 2),
            (b'-', b'=', _) => (MinusEq, 2),
            (b'*', b'=', _) => (StarEq, 2),
            (b'/', b'=', _) => (SlashEq, 2),
            (b'%', b'=', _) => (PercentEq, 2),
            (b'&', b'&', _) => (AmpAmp, 2),
            (b'&', b'=', _) => (AmpEq, 2),
            (b'|', b'|', _) => (PipePipe, 2),
            (b'|', b'=', _) => (PipeEq, 2),
            (b'^', b'=', _) => (CaretEq, 2),
            (b'!', b'=', _) => (BangEq, 2),
            (b'=', b'=', _) => (EqEq, 2),
            (b'<', b'<', _) => (Shl, 2),
            (b'>', b'>', _) => (Shr, 2),
            (b'<', b'=', _) => (LtEq, 2),
            (b'>', b'=', _) => (GtEq, 2),
            (b'(', ..) => (LParen, 1),
            (b')', ..) => (RParen, 1),
            (b'{', ..) => (LBrace, 1),
            (b'}', ..) => (RBrace, 1),
            (b'[', ..) => (LBracket, 1),
            (b']', ..) => (RBracket, 1),
            (b';', ..) => (Semi, 1),
            (b',', ..) => (Comma, 1),
            (b':', ..) => (Colon, 1),
            (b'?', ..) => (Question, 1),
            (b'.', ..) => (Dot, 1),
            (b'+', ..) => (Plus, 1),
            (b'-', ..) => (Minus, 1),
            (b'*', ..) => (Star, 1),
            (b'/', ..) => (Slash, 1),
            (b'%', ..) => (Percent, 1),
            (b'&', ..) => (Amp, 1),
            (b'|', ..) => (Pipe, 1),
            (b'^', ..) => (Caret, 1),
            (b'~', ..) => (Tilde, 1),
            (b'!', ..) => (Bang, 1),
            (b'=', ..) => (Eq, 1),
            (b'<', ..) => (Lt, 1),
            (b'>', ..) => (Gt, 1),
            (b'@', ..) if self.mode == LexMode::Smpl => (At, 1),
            _ => return Err(self.err(start, format!("unexpected character `{}`", a as char))),
        };
        self.punct(p, start, len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src, LexMode::C)
            .unwrap()
            .into_iter()
            .filter(|t| t.kind != TokenKind::Eof)
            .map(|t| t.text(src).to_string())
            .collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(texts("int x = 42;"), vec!["int", "x", "=", "42", ";"]);
    }

    #[test]
    fn operators_maximal_munch() {
        assert_eq!(
            texts("a<<=b>>=c<<<d>>>e"),
            vec!["a", "<<=", "b", ">>=", "c", "<<<", "d", ">>>", "e"]
        );
        assert_eq!(
            texts("i+=1; j++; k--;"),
            vec!["i", "+=", "1", ";", "j", "++", ";", "k", "--", ";"]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(texts("a /* mid */ b // tail\nc"), vec!["a", "b", "c"]);
    }

    #[test]
    fn directive_whole_line() {
        let src = "#include <omp.h>\nint x;";
        let toks = lex(src, LexMode::C).unwrap();
        assert_eq!(toks[0].kind, TokenKind::Directive);
        assert_eq!(toks[0].text(src), "#include <omp.h>");
        assert_eq!(toks[1].text(src), "int");
    }

    #[test]
    fn directive_with_continuation() {
        let src = "#pragma omp parallel \\\n    for\nx;";
        let toks = lex(src, LexMode::C).unwrap();
        assert_eq!(toks[0].kind, TokenKind::Directive);
        assert!(toks[0].text(src).contains("for"));
        assert_eq!(toks[1].text(src), "x");
    }

    #[test]
    fn hash_mid_line_is_error_in_c() {
        assert!(lex("a # b", LexMode::C).is_err());
    }

    #[test]
    fn directive_only_at_line_start() {
        let src = "int a;\n  #pragma omp simd\nint b;";
        let toks = lex(src, LexMode::C).unwrap();
        let dirs: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Directive)
            .collect();
        assert_eq!(dirs.len(), 1);
        assert_eq!(dirs[0].text(src), "#pragma omp simd");
    }

    #[test]
    fn string_and_char_literals() {
        let src = r#"f("a\"b", 'c', '\n');"#;
        let toks = lex(src, LexMode::C).unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokenKind::StrLit));
        assert_eq!(
            kinds.iter().filter(|&&k| k == TokenKind::CharLit).count(),
            2
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"abc", LexMode::C).is_err());
        assert!(lex("\"abc\ndef\"", LexMode::C).is_err());
    }

    #[test]
    fn numbers() {
        let src = "0 42 0x1fUL 0b101 3.14 1e-9 2.f 10ull";
        let toks = lex(src, LexMode::C).unwrap();
        let kinds: Vec<_> = toks
            .iter()
            .filter(|t| t.kind != TokenKind::Eof)
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::IntLit,
                TokenKind::IntLit,
                TokenKind::IntLit,
                TokenKind::IntLit,
                TokenKind::FloatLit,
                TokenKind::FloatLit,
                TokenKind::FloatLit,
                TokenKind::IntLit,
            ]
        );
    }

    #[test]
    fn ellipsis_vs_dots() {
        assert_eq!(texts("f(int, ...)"), vec!["f", "(", "int", ",", "...", ")"]);
    }

    #[test]
    fn smpl_mode_extras() {
        let src = r"\( a \| b \& c \) x@p f##g";
        let toks = lex(src, LexMode::Smpl).unwrap();
        let ts: Vec<_> = toks
            .iter()
            .filter(|t| t.kind != TokenKind::Eof)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(
            ts,
            vec![r"\(", "a", r"\|", "b", r"\&", "c", r"\)", "x", "@", "p", "f", "##", "g"]
        );
    }

    #[test]
    fn smpl_pragma_line() {
        let src = "#pragma omp pi";
        let toks = lex(src, LexMode::Smpl).unwrap();
        assert_eq!(toks[0].kind, TokenKind::Directive);
    }

    #[test]
    fn line_continuation_in_code() {
        assert_eq!(texts("int \\\n x;"), vec!["int", "x", ";"]);
    }

    #[test]
    fn eof_token_terminates() {
        let toks = lex("x", LexMode::C).unwrap();
        assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
    }

    #[test]
    fn spans_are_exact() {
        let src = "ab + cd";
        let toks = lex(src, LexMode::C).unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(5, 7));
    }
}
