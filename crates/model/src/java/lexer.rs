//! Lexer for the Java subset. Every token carries its byte [`Span`]; lex
//! errors become recoverable [`FrontDiag`]s (skip the offending character,
//! keep tokenizing) so one stray byte cannot hide the rest of the file.

use std::fmt;

use super::diag::{FrontDiag, Phase};
use super::span::Span;

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Kind and payload.
    pub kind: Tok,
    /// Byte range in the source.
    pub span: Span,
}

/// Token kinds of the Java subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
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
    /// String literal (unescaped contents).
    StrLit(String),
    /// Identifier (including class names like `String`, `Object`).
    Ident(String),

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

impl fmt::Display for Tok {
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

fn keyword(word: &str) -> Option<Tok> {
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

/// Tokenize `src`. Always returns a token stream ending in [`Tok::Eof`];
/// unlexable input is reported in the diagnostic list and skipped.
pub fn lex(src: &str) -> (Vec<Token>, Vec<FrontDiag>) {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
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
                let start = i;
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    match bytes.get(j) {
                        None => {
                            diags.push(FrontDiag::new(
                                Phase::Parse,
                                Span::new(start, j),
                                "unterminated string literal",
                            ));
                            break;
                        }
                        Some(&b'"') => {
                            j += 1;
                            break;
                        }
                        Some(&b'\n') => {
                            diags.push(FrontDiag::new(
                                Phase::Parse,
                                Span::new(start, j),
                                "newline in string literal",
                            ));
                            break;
                        }
                        Some(&b'\\') => {
                            match bytes.get(j + 1) {
                                Some(&b'n') => s.push('\n'),
                                Some(&b't') => s.push('\t'),
                                Some(&b'"') => s.push('"'),
                                Some(&b'\\') => s.push('\\'),
                                _ => diags.push(FrontDiag::new(
                                    Phase::Parse,
                                    Span::new(j, j + 2),
                                    "unknown escape sequence",
                                )),
                            }
                            j += 2;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            j += 1;
                        }
                    }
                }
                tokens.push(Token {
                    kind: Tok::StrLit(s),
                    span: Span::new(start, j),
                });
                i = j;
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
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                let word = &src[start..i];
                tokens.push(Token {
                    kind: keyword(word).unwrap_or_else(|| Tok::Ident(word.to_string())),
                    span: Span::new(start, i),
                });
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
    (tokens, diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
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
                Tok::Ident("await".into()),
                Tok::LParen,
                Tok::Ident("String".into()),
                Tok::Ident("name".into()),
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
                Tok::Ident("x".into()),
                Tok::IntLit(42),
                Tok::Ident("y".into()),
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
    fn unterminated_string_is_reported_once() {
        let (_, diags) = lex("\"oops");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unterminated"));
    }
}
