//! Recursive-descent regex parser.

use crate::ast::{ClassItem, Node};
use std::fmt;

/// Regex syntax error with a byte offset into the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position of the problem in the pattern.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse `pattern` into a [`Node`].
pub fn parse(pattern: &str) -> Result<Node, ParseError> {
    let mut p = Parser {
        bytes: pattern.as_bytes(),
        pos: 0,
    };
    let node = p.alternation()?;
    if p.pos != p.bytes.len() {
        return Err(p.err("unexpected character (unbalanced ')'?)"));
    }
    Ok(node)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// alternation := concat ('|' concat)*
    fn alternation(&mut self) -> Result<Node, ParseError> {
        let mut alts = vec![self.concat()?];
        while self.eat(b'|') {
            alts.push(self.concat()?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().unwrap()
        } else {
            Node::Alt(alts)
        })
    }

    /// concat := repeat*
    fn concat(&mut self) -> Result<Node, ParseError> {
        let mut items = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(match items.len() {
            0 => Node::Empty,
            1 => items.pop().unwrap(),
            _ => Node::Concat(items),
        })
    }

    /// repeat := atom ('*' | '+' | '?' | '{m,n}')*
    fn repeat(&mut self) -> Result<Node, ParseError> {
        let mut node = self.atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.check_repeatable(&node)?;
                    self.bump();
                    node = Node::Repeat {
                        node: Box::new(node),
                        min: 0,
                        max: None,
                    };
                }
                Some(b'+') => {
                    self.check_repeatable(&node)?;
                    self.bump();
                    node = Node::Repeat {
                        node: Box::new(node),
                        min: 1,
                        max: None,
                    };
                }
                Some(b'?') => {
                    self.check_repeatable(&node)?;
                    self.bump();
                    node = Node::Repeat {
                        node: Box::new(node),
                        min: 0,
                        max: Some(1),
                    };
                }
                Some(b'{') => {
                    // Only treat as a bound if it looks like {digits...};
                    // otherwise '{' is a literal (PCRE behaviour).
                    if let Some((min, max, consumed)) = self.try_bound()? {
                        self.check_repeatable(&node)?;
                        self.pos += consumed;
                        if let Some(m) = max {
                            if m < min {
                                return Err(self.err("bound {m,n} with n < m"));
                            }
                        }
                        node = Node::Repeat {
                            node: Box::new(node),
                            min,
                            max,
                        };
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        Ok(node)
    }

    fn check_repeatable(&self, node: &Node) -> Result<(), ParseError> {
        match node {
            Node::Empty | Node::StartAnchor | Node::EndAnchor => Err(self.err("nothing to repeat")),
            _ => Ok(()),
        }
    }

    /// Attempt to read `{m}`, `{m,}` or `{m,n}` starting at the current
    /// `{`. Returns (min, max, bytes consumed) without consuming on
    /// failure (literal `{`).
    fn try_bound(&self) -> Result<Option<(u32, Option<u32>, usize)>, ParseError> {
        let rest = &self.bytes[self.pos..];
        debug_assert_eq!(rest.first(), Some(&b'{'));
        let mut i = 1;
        let mut min = String::new();
        while i < rest.len() && rest[i].is_ascii_digit() {
            min.push(rest[i] as char);
            i += 1;
        }
        if min.is_empty() {
            return Ok(None);
        }
        let min_v: u32 = min.parse().map_err(|_| self.err("bound too large"))?;
        match rest.get(i) {
            Some(b'}') => Ok(Some((min_v, Some(min_v), i + 1))),
            Some(b',') => {
                i += 1;
                let mut max = String::new();
                while i < rest.len() && rest[i].is_ascii_digit() {
                    max.push(rest[i] as char);
                    i += 1;
                }
                if rest.get(i) != Some(&b'}') {
                    return Ok(None);
                }
                let max_v = if max.is_empty() {
                    None
                } else {
                    Some(max.parse().map_err(|_| self.err("bound too large"))?)
                };
                Ok(Some((min_v, max_v, i + 1)))
            }
            _ => Ok(None),
        }
    }

    /// atom := literal | '.' | class | group | anchor | escape
    fn atom(&mut self) -> Result<Node, ParseError> {
        match self.peek() {
            None => Err(self.err("unexpected end of pattern")),
            Some(b'(') => {
                self.bump();
                let inner = self.alternation()?;
                if !self.eat(b')') {
                    return Err(self.err("missing ')'"));
                }
                Ok(inner)
            }
            Some(b')') => Err(self.err("unmatched ')'")),
            Some(b'[') => self.class(),
            Some(b'.') => {
                self.bump();
                Ok(Node::AnyByte)
            }
            Some(b'^') => {
                self.bump();
                Ok(Node::StartAnchor)
            }
            Some(b'$') => {
                self.bump();
                Ok(Node::EndAnchor)
            }
            Some(b'*') | Some(b'+') | Some(b'?') => Err(self.err("nothing to repeat")),
            Some(b'\\') => {
                self.bump();
                self.escape()
            }
            Some(b) => {
                self.bump();
                Ok(Node::Byte(b))
            }
        }
    }

    fn escape(&mut self) -> Result<Node, ParseError> {
        match self.bump() {
            None => Err(self.err("trailing backslash")),
            Some(b'd') => Ok(Node::digit(false)),
            Some(b'D') => Ok(Node::digit(true)),
            Some(b'w') => Ok(Node::word(false)),
            Some(b'W') => Ok(Node::word(true)),
            Some(b's') => Ok(Node::space(false)),
            Some(b'S') => Ok(Node::space(true)),
            Some(b'n') => Ok(Node::Byte(b'\n')),
            Some(b't') => Ok(Node::Byte(b'\t')),
            Some(b'r') => Ok(Node::Byte(b'\r')),
            // Any other escaped byte matches itself: \. \* \[ \\ etc.
            Some(b) => Ok(Node::Byte(b)),
        }
    }

    /// class := '[' '^'? item+ ']'
    fn class(&mut self) -> Result<Node, ParseError> {
        let opened = self.eat(b'[');
        debug_assert!(opened, "class() starts at a `[`");
        let negated = self.eat(b'^');
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated character class")),
                Some(b']') if !items.is_empty() => {
                    self.bump();
                    break;
                }
                _ => {
                    let lo = self.class_byte()?;
                    // Range only when a '-' is followed by something other
                    // than the closing bracket.
                    if self.peek() == Some(b'-') && self.bytes.get(self.pos + 1) != Some(&b']') {
                        self.bump(); // '-'
                        let hi = self.class_byte()?;
                        if hi < lo {
                            return Err(self.err("invalid range in character class"));
                        }
                        items.push(ClassItem::Range(lo, hi));
                    } else {
                        items.push(ClassItem::Byte(lo));
                    }
                }
            }
        }
        Ok(Node::Class { items, negated })
    }

    fn class_byte(&mut self) -> Result<u8, ParseError> {
        match self.bump() {
            None => Err(self.err("unterminated character class")),
            Some(b'\\') => match self.bump() {
                None => Err(self.err("trailing backslash in class")),
                Some(b'n') => Ok(b'\n'),
                Some(b't') => Ok(b'\t'),
                Some(b'r') => Ok(b'\r'),
                Some(b) => Ok(b),
            },
            Some(b) => Ok(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literal_concat() {
        assert_eq!(
            parse("ab").unwrap(),
            Node::Concat(vec![Node::Byte(b'a'), Node::Byte(b'b')])
        );
    }

    #[test]
    fn parses_alternation_flat() {
        match parse("a|b|c").unwrap() {
            Node::Alt(v) => assert_eq!(v.len(), 3),
            other => panic!("expected alt, got {other:?}"),
        }
    }

    #[test]
    fn literal_brace_when_not_a_bound() {
        // "{a}" has no digits => literal braces.
        let n = parse("x{a}").unwrap();
        match n {
            Node::Concat(v) => assert_eq!(v.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exact_bound() {
        match parse("a{3}").unwrap() {
            Node::Repeat { min, max, .. } => {
                assert_eq!(min, 3);
                assert_eq!(max, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn open_bound() {
        match parse("a{2,}").unwrap() {
            Node::Repeat { min, max, .. } => {
                assert_eq!(min, 2);
                assert_eq!(max, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_inverted_bound() {
        assert!(parse("a{3,2}").is_err());
    }

    #[test]
    fn class_negation_and_ranges() {
        match parse("[^a-z_]").unwrap() {
            Node::Class { items, negated } => {
                assert!(negated);
                assert_eq!(items.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dash_at_class_end_is_literal() {
        match parse("[a-]").unwrap() {
            Node::Class { items, .. } => {
                assert_eq!(items, vec![ClassItem::Byte(b'a'), ClassItem::Byte(b'-')]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
