//! Byte spans and the [`SourceMap`] that converts them to line:column.
//!
//! Every token, AST node, and frontend diagnostic carries a [`Span`]: a
//! half-open byte range `[lo, hi)` into the original source text. Spans
//! stay cheap (`Copy`, two `u32`s) so the AST can carry one per node; the
//! [`SourceMap`] owns the text plus a line-start table and performs the
//! offset → line:column conversion lazily, only when a diagnostic is
//! actually rendered.

use std::fmt;

/// A half-open byte range `[lo, hi)` into one source file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Start byte offset, inclusive.
    pub lo: u32,
    /// End byte offset, exclusive.
    pub hi: u32,
}

impl Span {
    /// A span over `[lo, hi)`.
    pub fn new(lo: usize, hi: usize) -> Span {
        Span {
            lo: lo as u32,
            hi: hi as u32,
        }
    }

    /// The zero-width placeholder span (offset 0); used when a construct
    /// has no principled anchor, e.g. an EOF-adjacent recovery point.
    pub const DUMMY: Span = Span { lo: 0, hi: 0 };

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Byte length of the span.
    pub fn len(self) -> u32 {
        self.hi.saturating_sub(self.lo)
    }

    /// True when the span covers no bytes.
    pub fn is_empty(self) -> bool {
        self.hi <= self.lo
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// One source file with its line-start table: the span → line:column
/// oracle for diagnostic rendering. It borrows the file's name and text.
#[derive(Debug, Clone)]
pub struct SourceMap<'a> {
    name: &'a str,
    src: &'a str,
    /// Byte offset of the start of each line, ascending; `line_starts[0]`
    /// is always 0.
    line_starts: Vec<u32>,
    /// Lines of code, counted in the same pass (see [`Self::loc`]).
    loc: usize,
}

impl<'a> SourceMap<'a> {
    /// Build the map for `src`, displayed as `name` in diagnostics: one
    /// pass over the bytes finds the line starts and counts the lines of
    /// code.
    pub fn new(name: &'a str, src: &'a str) -> SourceMap<'a> {
        let bytes = src.as_bytes();
        let mut line_starts = vec![0u32];
        let mut loc = 0;
        let mut i = 0;
        while i < bytes.len() {
            // The line's leading blank, then its first character decides.
            let b = bytes[i];
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
                i += 1;
                continue;
            }
            if b.is_ascii_whitespace() || b == 0x0b {
                i += 1;
                continue;
            }
            if !b.is_ascii() {
                let ch = src[i..].chars().next().expect("on a char boundary");
                if ch.is_whitespace() {
                    i += ch.len_utf8();
                    continue;
                }
            }
            let comment = b == b'*' || (b == b'/' && matches!(bytes.get(i + 1), Some(b'/' | b'*')));
            loc += usize::from(!comment);
            // The rest of the line.
            match bytes[i..].iter().position(|&b| b == b'\n') {
                Some(n) => i += n,
                None => break,
            }
        }
        SourceMap {
            name,
            src,
            line_starts,
            loc,
        }
    }

    /// The display name (usually the file path).
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The full source text.
    pub fn src(&self) -> &'a str {
        self.src
    }

    /// Number of lines (a trailing newline does not open a new line).
    pub fn line_count(&self) -> u32 {
        let n = self.line_starts.len() as u32;
        if self
            .line_starts
            .last()
            .is_some_and(|&s| s as usize >= self.src.len())
            && n > 1
        {
            n - 1
        } else {
            n
        }
    }

    /// Convert a byte offset to 1-based `(line, column)`, the column
    /// counted in characters. Offsets past the end of the text land on the
    /// last line, one column per byte past the end.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let start = self.line_starts[line_idx] as usize;
        // An offset inside a character lands on that character.
        let mut end = (offset as usize).min(self.src.len());
        while !self.src.is_char_boundary(end) {
            end -= 1;
        }
        let chars = self.src[start..end].chars().count();
        let past_end = (offset as usize).saturating_sub(self.src.len());
        (line_idx as u32 + 1, (chars + past_end) as u32 + 1)
    }

    /// The text of 1-based `line`, without its trailing newline.
    pub fn line_text(&self, line: u32) -> &'a str {
        let idx = (line as usize).saturating_sub(1);
        let start = match self.line_starts.get(idx) {
            Some(&s) => s as usize,
            None => return "",
        };
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|&e| e as usize)
            .unwrap_or(self.src.len());
        self.src[start..end].trim_end_matches(['\n', '\r'])
    }

    /// The source text the span covers.
    pub fn snippet(&self, span: Span) -> &'a str {
        let lo = (span.lo as usize).min(self.src.len());
        let hi = (span.hi as usize).min(self.src.len()).max(lo);
        &self.src[lo..hi]
    }

    /// Lines of code: lines that are neither blank nor start, after
    /// their leading whitespace (Unicode, as [`str::trim`] counts it), with
    /// `//`, `/*` or `*`. The throughput denominator E13 publishes.
    pub fn loc(&self) -> usize {
        self.loc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_arithmetic() {
        let a = Span::new(3, 7);
        let b = Span::new(10, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert!(Span::DUMMY.is_empty());
        assert_eq!(a.to_string(), "3..7");
    }

    #[test]
    fn line_col_conversion() {
        let sm = SourceMap::new("T.java", "ab\ncde\n\nf");
        assert_eq!(sm.line_col(0), (1, 1));
        assert_eq!(sm.line_col(1), (1, 2));
        assert_eq!(sm.line_col(3), (2, 1));
        assert_eq!(sm.line_col(5), (2, 3));
        assert_eq!(sm.line_col(7), (3, 1));
        assert_eq!(sm.line_col(8), (4, 1));
        assert_eq!(sm.line_count(), 4);
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // `é` is two bytes and `€` three: the `€` is the 24th character.
        let src = "class Café { int x = 0 € 1; }";
        let sm = SourceMap::new("Café.java", src);
        assert_eq!(sm.line_col(src.find('€').unwrap() as u32), (1, 24));
        assert_eq!(sm.line_col(src.find('1').unwrap() as u32), (1, 26));
        // An offset inside a character lands on that character.
        assert_eq!(sm.line_col(src.find('€').unwrap() as u32 + 1), (1, 24));
        assert_eq!(sm.line_col(src.len() as u32 + 2), (1, 32));
    }

    #[test]
    fn line_text_strips_newline() {
        let sm = SourceMap::new("T.java", "ab\r\ncde\n");
        assert_eq!(sm.line_text(1), "ab");
        assert_eq!(sm.line_text(2), "cde");
        assert_eq!(sm.line_text(99), "");
    }

    #[test]
    fn snippet_clamps_to_text() {
        let sm = SourceMap::new("T.java", "hello");
        assert_eq!(sm.snippet(Span::new(1, 4)), "ell");
        assert_eq!(sm.snippet(Span::new(3, 99)), "lo");
    }

    /// The reference `loc`: each line trimmed as `str::trim` does.
    fn loc_by_lines(src: &str) -> usize {
        src.lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("//") && !t.starts_with('*') && !t.starts_with("/*")
            })
            .count()
    }

    #[test]
    fn loc_matches_trimmed_lines_on_unicode_blanks_and_line_ends() {
        let cases = [
            "",
            "\n",
            "x",
            "x\n\n",
            "/\n/\r\n /x\n//\n/*\n*/\n *\n",
            "\u{2003}\n\u{a0}// c\n\u{2003}* d\n\u{3000}x\n\u{85}\u{2028}y\r\n",
            "a\rb\r\n\r\n\x0b\x0c\t z\n\x0b/",
            "class Café {\r\n\t// é\r\n  int ñ = 0; € \r\n}\r",
        ];
        for src in cases {
            assert_eq!(
                SourceMap::new("T.java", src).loc(),
                loc_by_lines(src),
                "{src:?}"
            );
        }
    }

    #[test]
    fn loc_skips_blank_and_comment_lines() {
        let sm = SourceMap::new(
            "T.java",
            "// header\nclass A {\n\n  /* doc */\n  int x;\n}\n",
        );
        assert_eq!(sm.loc(), 3);
    }
}
