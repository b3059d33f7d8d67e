//! Lexer for the Java subset. Every token carries its byte [`Span`]; lex
//! errors become recoverable [`FrontDiag`]s (skip the offending character,
//! keep tokenizing) so one stray byte cannot hide the rest of the file.
//!
//! Tokens borrow from the source: an identifier is a slice of it, and a
//! string literal is one too unless it holds an escape, the only case that
//! allocates.

use std::borrow::Cow;
use std::fmt;

use super::diag::{FrontDiag, Phase};
use super::span::Span;

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'src> {
    /// Kind and payload.
    pub kind: Tok<'src>,
    /// Byte range in the source.
    pub span: Span,
}

/// Token kinds of the Java subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'src> {
    // Keywords.
    /// `package`
    Package,
    /// `import`
    Import,
    /// `public`
    Public,
    /// `private`
    Private,
    /// `protected`
    Protected,
    /// `static`
    Static,
    /// `final`
    Final,
    /// `volatile`
    Volatile,
    /// `abstract`
    Abstract,
    /// `class`
    Class,
    /// `extends`
    Extends,
    /// `implements`
    Implements,
    /// `synchronized`
    Synchronized,
    /// `void`
    Void,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `boolean`
    Boolean,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `return`
    Return,
    /// `new`
    New,
    /// `this`
    This,
    /// `true`
    True,
    /// `false`
    False,
    /// `null`
    Null,
    /// `throws`
    Throws,

    // Literals and identifiers.
    /// Decimal integer literal.
    IntLit(i64),
    /// String literal (unescaped contents): borrowed from the source
    /// unless it holds an escape.
    StrLit(Cow<'src, str>),
    /// Identifier (including class names like `String`, `Object`).
    Ident(&'src str),

    // Punctuation.
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,

    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Tok::*;
        match self {
            IntLit(n) => write!(f, "{n}"),
            StrLit(s) => write!(f, "{s:?}"),
            Ident(s) => write!(f, "{s}"),
            other => f.write_str(match other {
                Package => "package",
                Import => "import",
                Public => "public",
                Private => "private",
                Protected => "protected",
                Static => "static",
                Final => "final",
                Volatile => "volatile",
                Abstract => "abstract",
                Class => "class",
                Extends => "extends",
                Implements => "implements",
                Synchronized => "synchronized",
                Void => "void",
                Int => "int",
                Long => "long",
                Boolean => "boolean",
                If => "if",
                Else => "else",
                While => "while",
                Return => "return",
                New => "new",
                This => "this",
                True => "true",
                False => "false",
                Null => "null",
                Throws => "throws",
                LBrace => "{",
                RBrace => "}",
                LParen => "(",
                RParen => ")",
                LBracket => "[",
                RBracket => "]",
                Semi => ";",
                Comma => ",",
                Dot => ".",
                Assign => "=",
                PlusAssign => "+=",
                MinusAssign => "-=",
                PlusPlus => "++",
                MinusMinus => "--",
                EqEq => "==",
                NotEq => "!=",
                Lt => "<",
                Le => "<=",
                Gt => ">",
                Ge => ">=",
                Plus => "+",
                Minus => "-",
                Star => "*",
                Slash => "/",
                Percent => "%",
                AndAnd => "&&",
                OrOr => "||",
                Bang => "!",
                Eof => "<eof>",
                IntLit(_) | StrLit(_) | Ident(_) => unreachable!(),
            }),
        }
    }
}

fn keyword(word: &str) -> Option<Tok<'static>> {
    Some(match word {
        "package" => Tok::Package,
        "import" => Tok::Import,
        "public" => Tok::Public,
        "private" => Tok::Private,
        "protected" => Tok::Protected,
        "static" => Tok::Static,
        "final" => Tok::Final,
        "volatile" => Tok::Volatile,
        "abstract" => Tok::Abstract,
        "class" => Tok::Class,
        "extends" => Tok::Extends,
        "implements" => Tok::Implements,
        "synchronized" => Tok::Synchronized,
        "void" => Tok::Void,
        "int" => Tok::Int,
        "long" => Tok::Long,
        "boolean" => Tok::Boolean,
        "if" => Tok::If,
        "else" => Tok::Else,
        "while" => Tok::While,
        "return" => Tok::Return,
        "new" => Tok::New,
        "this" => Tok::This,
        "true" => Tok::True,
        "false" => Tok::False,
        "null" => Tok::Null,
        "throws" => Tok::Throws,
        _ => return None,
    })
}

/// The string literal whose opening quote is at `start`: its unescaped
/// contents and the offset just past it. A literal without escapes is a
/// slice of `src`; the first escape copies what came before it, and runs
/// of plain characters after it are copied as UTF-8 (each ends at an
/// ASCII byte, so on a char boundary).
fn string_literal<'src>(
    src: &'src str,
    start: usize,
    diags: &mut Vec<FrontDiag>,
) -> (Cow<'src, str>, usize) {
    let bytes = src.as_bytes();
    let mut j = start + 1;
    while bytes
        .get(j)
        .is_some_and(|b| !matches!(b, b'"' | b'\n' | b'\\'))
    {
        j += 1;
    }
    if bytes.get(j) != Some(&b'\\') {
        let text = Cow::Borrowed(&src[start + 1..j]);
        return (text, end_of_literal(start, j, bytes, diags));
    }
    let mut s = src[start + 1..j].to_string();
    loop {
        match bytes.get(j) {
            None | Some(&b'"') | Some(&b'\n') => {
                return (Cow::Owned(s), end_of_literal(start, j, bytes, diags));
            }
            Some(&b'\\') => {
                // The escaped character, whole: a non-ASCII one spans
                // several bytes.
                let escaped = src[j + 1..].chars().next().map_or(1, char::len_utf8);
                match bytes.get(j + 1) {
                    Some(&b'n') => s.push('\n'),
                    Some(&b't') => s.push('\t'),
                    Some(&b'"') => s.push('"'),
                    Some(&b'\\') => s.push('\\'),
                    _ => diags.push(FrontDiag::new(
                        Phase::Parse,
                        Span::new(j, j + 1 + escaped),
                        "unknown escape sequence",
                    )),
                }
                j += 1 + escaped;
            }
            Some(_) => {
                let run = j;
                while bytes
                    .get(j)
                    .is_some_and(|b| !matches!(b, b'"' | b'\n' | b'\\'))
                {
                    j += 1;
                }
                s.push_str(&src[run..j]);
            }
        }
    }
}

/// The offset just past a string literal opened at `start` whose plain
/// text ends at `j`, reporting a literal the line or file cuts short.
fn end_of_literal(start: usize, j: usize, bytes: &[u8], diags: &mut Vec<FrontDiag>) -> usize {
    let message = match bytes.get(j) {
        Some(&b'"') => return j + 1,
        Some(_) => "newline in string literal",
        None => "unterminated string literal",
    };
    diags.push(FrontDiag::new(Phase::Parse, Span::new(start, j), message));
    j
}

/// The end of the identifier whose first character ends at `i`: Java
/// identifiers go on with ASCII letters, digits, `_` and `$`, and with
/// non-ASCII letters and digits.
fn ident_end(src: &str, mut i: usize) -> usize {
    let bytes = src.as_bytes();
    loop {
        match bytes.get(i) {
            Some(b) if b.is_ascii_alphanumeric() || *b == b'_' || *b == b'$' => i += 1,
            Some(b) if !b.is_ascii() => match src[i..].chars().next() {
                Some(ch) if ch.is_alphanumeric() => i += ch.len_utf8(),
                _ => return i,
            },
            _ => return i,
        }
    }
}

/// Source bytes per token the token buffer is first sized for. The `lint`
/// workload's Java runs about 5.25 bytes a token, so the buffer seldom
/// grows, and it is shrunk to fit once lexing is done.
const BYTES_PER_TOKEN: usize = 4;

/// Tokenize `src`. Always returns a token stream ending in [`Tok::Eof`];
/// unlexable input is reported in the diagnostic list and skipped.
pub fn lex(src: &str) -> (Vec<Token<'_>>, Vec<FrontDiag>) {
    let bytes = src.as_bytes();
    let mut tokens = Vec::with_capacity(bytes.len() / BYTES_PER_TOKEN + 1);
    let mut diags = Vec::new();
    let mut i = 0usize;

    macro_rules! two {
        ($kind:expr) => {{
            tokens.push(Token {
                kind: $kind,
                span: Span::new(i, i + 2),
            });
            i += 2;
        }};
    }
    macro_rules! one {
        ($kind:expr) => {{
            tokens.push(Token {
                kind: $kind,
                span: Span::new(i, i + 1),
            });
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let c1 = bytes.get(i + 1).copied();
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'/' if c1 == Some(b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if c1 == Some(b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        diags.push(FrontDiag::new(
                            Phase::Parse,
                            Span::new(start, bytes.len()),
                            "unterminated block comment",
                        ));
                        i = bytes.len();
                        break;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'{' => one!(Tok::LBrace),
            b'}' => one!(Tok::RBrace),
            b'(' => one!(Tok::LParen),
            b')' => one!(Tok::RParen),
            b'[' => one!(Tok::LBracket),
            b']' => one!(Tok::RBracket),
            b';' => one!(Tok::Semi),
            b',' => one!(Tok::Comma),
            b'.' => one!(Tok::Dot),
            b'*' => one!(Tok::Star),
            b'/' => one!(Tok::Slash),
            b'%' => one!(Tok::Percent),
            b'=' if c1 == Some(b'=') => two!(Tok::EqEq),
            b'=' => one!(Tok::Assign),
            b'+' if c1 == Some(b'+') => two!(Tok::PlusPlus),
            b'+' if c1 == Some(b'=') => two!(Tok::PlusAssign),
            b'+' => one!(Tok::Plus),
            b'-' if c1 == Some(b'-') => two!(Tok::MinusMinus),
            b'-' if c1 == Some(b'=') => two!(Tok::MinusAssign),
            b'-' => one!(Tok::Minus),
            b'!' if c1 == Some(b'=') => two!(Tok::NotEq),
            b'!' => one!(Tok::Bang),
            b'<' if c1 == Some(b'=') => two!(Tok::Le),
            b'<' => one!(Tok::Lt),
            b'>' if c1 == Some(b'=') => two!(Tok::Ge),
            b'>' => one!(Tok::Gt),
            b'&' if c1 == Some(b'&') => two!(Tok::AndAnd),
            b'|' if c1 == Some(b'|') => two!(Tok::OrOr),
            b'&' | b'|' => {
                let op = if c == b'&' { "&&" } else { "||" };
                diags.push(FrontDiag::new(
                    Phase::Parse,
                    Span::new(i, i + 1),
                    format!("bitwise `{}` is not in the subset; expected `{op}`", c as char),
                ));
                i += 1;
            }
            b'"' => {
                let (lit, end) = string_literal(src, i, &mut diags);
                tokens.push(Token {
                    kind: Tok::StrLit(lit),
                    span: Span::new(i, end),
                });
                i = end;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // Tolerate Java's long suffix: `0L` lowers to plain Int.
                if i < bytes.len() && (bytes[i] == b'L' || bytes[i] == b'l') {
                    i += 1;
                }
                let text = src[start..i].trim_end_matches(['L', 'l']);
                match text.parse::<i64>() {
                    Ok(n) => tokens.push(Token {
                        kind: Tok::IntLit(n),
                        span: Span::new(start, i),
                    }),
                    Err(_) => diags.push(FrontDiag::new(
                        Phase::Parse,
                        Span::new(start, i),
                        format!("integer literal out of range: {text}"),
                    )),
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                let start = i;
                i = ident_end(src, i + 1);
                let word = &src[start..i];
                tokens.push(Token {
                    kind: keyword(word).unwrap_or(Tok::Ident(word)),
                    span: Span::new(start, i),
                });
            }
            c if !c.is_ascii() => {
                // A whole UTF-8 character: `i` is always on a boundary.
                let ch = src[i..].chars().next().expect("non-empty rest");
                if ch.is_alphabetic() {
                    let start = i;
                    i = ident_end(src, i + ch.len_utf8());
                    tokens.push(Token {
                        kind: Tok::Ident(&src[start..i]),
                        span: Span::new(start, i),
                    });
                } else {
                    diags.push(FrontDiag::new(
                        Phase::Parse,
                        Span::new(i, i + ch.len_utf8()),
                        format!("unexpected character `{ch}`"),
                    ));
                    i += ch.len_utf8();
                }
            }
            other => {
                diags.push(FrontDiag::new(
                    Phase::Parse,
                    Span::new(i, i + 1),
                    format!("unexpected character `{}`", other as char),
                ));
                i += 1;
            }
        }
    }
    tokens.push(Token {
        kind: Tok::Eof,
        span: Span::new(bytes.len(), bytes.len()),
    });
    tokens.shrink_to_fit();
    (tokens, diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        let (toks, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_identifiers() {
        assert_eq!(
            kinds("public synchronized void await(String name)"),
            vec![
                Tok::Public,
                Tok::Synchronized,
                Tok::Void,
                Tok::Ident("await"),
                Tok::LParen,
                Tok::Ident("String"),
                Tok::Ident("name"),
                Tok::RParen,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("== != <= >= && || ++ -- += -= = < > ! . ,"),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::PlusPlus,
                Tok::MinusMinus,
                Tok::PlusAssign,
                Tok::MinusAssign,
                Tok::Assign,
                Tok::Lt,
                Tok::Gt,
                Tok::Bang,
                Tok::Dot,
                Tok::Comma,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_long_suffix() {
        assert_eq!(
            kinds("x /* block\ncomment */ 42L // line\ny"),
            vec![
                Tok::Ident("x"),
                Tok::IntLit(42),
                Tok::Ident("y"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let (toks, _) = lex("ab\n  cd");
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(5, 7));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""a\nb" "q\"q""#),
            vec![
                Tok::StrLit("a\nb".into()),
                Tok::StrLit("q\"q".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_literals_decode_utf8_around_escapes() {
        assert_eq!(
            kinds(r#""é" "\t😀\"é\\" "a𝄞\nb""#),
            vec![
                Tok::StrLit("é".into()),
                Tok::StrLit("\t😀\"é\\".into()),
                Tok::StrLit("a𝄞\nb".into()),
                Tok::Eof
            ]
        );
        // An unknown escape of a non-ASCII character skips the whole
        // character, and the literal goes on after it.
        let (toks, diags) = lex(r#""a\éb""#);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].span, Span::new(2, 5));
        assert_eq!(toks[0].kind, Tok::StrLit("ab".into()));
    }

    #[test]
    fn only_escaped_string_literals_own_their_text() {
        let (toks, _) = lex(r#""plain é" "esc\n" "cut"#);
        assert!(matches!(
            &toks[0].kind,
            Tok::StrLit(Cow::Borrowed("plain é"))
        ));
        assert!(matches!(&toks[1].kind, Tok::StrLit(Cow::Owned(s)) if s == "esc\n"));
        assert!(matches!(&toks[2].kind, Tok::StrLit(Cow::Borrowed("cut"))));
        assert_eq!(
            toks.len(),
            toks.capacity(),
            "the token buffer is kept tight"
        );
    }

    #[test]
    fn lex_errors_recover_and_keep_tokenizing() {
        let (toks, diags) = lex("a # b & c");
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.contains('#'));
        assert!(diags[1].message.contains("&&"));
        let idents = toks
            .iter()
            .filter(|t| matches!(t.kind, Tok::Ident(_)))
            .count();
        assert_eq!(idents, 3, "all three identifiers survive");
    }

    #[test]
    fn non_ascii_letters_and_digits_make_identifiers() {
        assert_eq!(
            kinds("class Café { int ñ1 = 0; } é_$٣"),
            vec![
                Tok::Class,
                Tok::Ident("Café"),
                Tok::LBrace,
                Tok::Int,
                Tok::Ident("ñ1"),
                Tok::Assign,
                Tok::IntLit(0),
                Tok::Semi,
                Tok::RBrace,
                Tok::Ident("é_$٣"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn other_non_ascii_characters_are_reported_once_each() {
        // `€` is three bytes: one diagnostic spanning all of them, naming
        // the character, and lexing resumes right after it.
        let src = "class A { int x = 0 € 1; }";
        let (toks, diags) = lex(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].span, Span::new(20, 23));
        assert_eq!(diags[0].message, "unexpected character `€`");
        let map = super::super::span::SourceMap::new("A.java", src);
        assert_eq!(map.line_col(diags[0].span.lo), (1, 21));
        assert!(toks
            .iter()
            .any(|t| t.kind == Tok::IntLit(1) && t.span == Span::new(24, 25)));
        // A digit cannot start an identifier, a letter after one can.
        let (toks, diags) = lex("x٣ ٣x");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].span, Span::new(4, 6));
        assert_eq!(toks[0].kind, Tok::Ident("x٣"));
        assert_eq!(toks[1].kind, Tok::Ident("x"));
    }

    #[test]
    fn unterminated_string_is_reported_once() {
        let (_, diags) = lex("\"oops");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unterminated"));
    }
}
