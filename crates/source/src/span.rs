//! Byte spans.

use std::fmt;

/// Half-open byte range `[start, end)` into a single source file.
///
/// Spans are deliberately file-agnostic: the text they index is known
/// from context (the file being parsed or matched), which keeps the
/// per-node footprint at 8 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Span {
    /// Inclusive start offset.
    pub start: u32,
    /// Exclusive end offset.
    pub end: u32,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Self {
        debug_assert!(start <= end, "span start {start} > end {end}");
        Span { start, end }
    }

    /// The empty span at `offset`. Used for pure insertions.
    pub fn empty(offset: u32) -> Self {
        Span {
            start: offset,
            end: offset,
        }
    }

    /// A synthetic span for nodes that do not originate from source text
    /// (e.g. code produced by `+` lines of a semantic patch).
    pub const SYNTHETIC: Span = Span {
        start: u32::MAX,
        end: u32::MAX,
    };

    /// Whether this span is the synthetic marker.
    pub fn is_synthetic(self) -> bool {
        self.start == u32::MAX
    }

    /// Number of bytes covered.
    pub fn len(self) -> u32 {
        self.end - self.start
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Smallest span covering both `self` and `other`.
    /// Synthetic spans are absorbed by real ones.
    pub fn merge(self, other: Span) -> Span {
        if self.is_synthetic() {
            return other;
        }
        if other.is_synthetic() {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Whether `self` fully contains `other`.
    pub fn contains(self, other: Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_synthetic() {
            write!(f, "<syn>")
        } else {
            write!(f, "{}..{}", self.start, self.end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_overlapping() {
        assert_eq!(Span::new(1, 5).merge(Span::new(3, 9)), Span::new(1, 9));
    }

    #[test]
    fn merge_disjoint() {
        assert_eq!(Span::new(10, 12).merge(Span::new(2, 4)), Span::new(2, 12));
    }

    #[test]
    fn merge_synthetic_is_identity() {
        let s = Span::new(4, 8);
        assert_eq!(s.merge(Span::SYNTHETIC), s);
        assert_eq!(Span::SYNTHETIC.merge(s), s);
        assert!(Span::SYNTHETIC.merge(Span::SYNTHETIC).is_synthetic());
    }

    #[test]
    fn contains() {
        assert!(Span::new(0, 10).contains(Span::new(3, 7)));
        assert!(Span::new(0, 10).contains(Span::new(0, 10)));
        assert!(!Span::new(0, 10).contains(Span::new(3, 11)));
    }

    #[test]
    fn empty_and_len() {
        assert!(Span::empty(5).is_empty());
        assert_eq!(Span::new(2, 6).len(), 4);
    }
}
