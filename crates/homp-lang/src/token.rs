//! Lexer for the HOMP directive language.
//!
//! Directives are single logical lines such as
//!
//! ```text
//! #pragma omp parallel target device(*) \
//!     map(tofrom: y[0:n] partition([BLOCK])) \
//!     map(to: x[0:n] partition([BLOCK]), a, n)
//! ```
//!
//! The lexer understands identifiers, integer literals, percentages
//! (`2%`), punctuation, and strips the `#pragma omp` prefix and
//! line-continuation backslashes. Tokens borrow the text they were
//! lexed from, so lexing allocates only the token buffer.

use std::borrow::Cow;

/// A lexical token with its byte offset in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// What kind of token.
    pub kind: TokenKind<'a>,
    /// Byte offset of the first character, for error messages.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword: `parallel`, `map`, `tofrom`, `BLOCK`, …
    Ident(&'a str),
    /// Unsigned integer literal.
    Int(u64),
    /// Integer percentage, e.g. `15%` (used by schedule parameters).
    Percent(u64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// End of input.
    Eof,
}

impl std::fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Percent(v) => write!(f, "percentage `{v}%`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Eof => write!(f, "end of directive"),
        }
    }
}

/// Lexing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Strip an optional `#pragma omp` (or `#pragma homp`) prefix and
/// line-continuation backslashes, returning the clause text. The text is
/// borrowed from `src` unless `src` holds a backslash.
pub fn strip_pragma(src: &str) -> Cow<'_, str> {
    if src.contains('\\') {
        let joined = src.replace("\\\n", " ").replace('\\', " ");
        Cow::Owned(clause_text(&joined).to_string())
    } else {
        Cow::Borrowed(clause_text(src))
    }
}

/// `src` trimmed and without its `#pragma omp` or `#pragma homp` prefix.
fn clause_text(src: &str) -> &str {
    let trimmed = src.trim();
    trimmed
        .strip_prefix("#pragma")
        .map(str::trim_start)
        .map(|rest| {
            rest.strip_prefix("omp")
                .or_else(|| rest.strip_prefix("homp"))
                .map(str::trim_start)
                .unwrap_or(rest)
        })
        .unwrap_or(trimmed)
}

/// Tokenize directive text (after [`strip_pragma`]).
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => {
                out.push(Token { kind: TokenKind::LParen, offset: start });
                i += 1;
            }
            ')' => {
                out.push(Token { kind: TokenKind::RParen, offset: start });
                i += 1;
            }
            '[' => {
                out.push(Token { kind: TokenKind::LBracket, offset: start });
                i += 1;
            }
            ']' => {
                out.push(Token { kind: TokenKind::RBracket, offset: start });
                i += 1;
            }
            ',' => {
                out.push(Token { kind: TokenKind::Comma, offset: start });
                i += 1;
            }
            ':' => {
                out.push(Token { kind: TokenKind::Colon, offset: start });
                i += 1;
            }
            '*' => {
                out.push(Token { kind: TokenKind::Star, offset: start });
                i += 1;
            }
            '+' => {
                out.push(Token { kind: TokenKind::Plus, offset: start });
                i += 1;
            }
            '-' => {
                out.push(Token { kind: TokenKind::Minus, offset: start });
                i += 1;
            }
            '/' => {
                out.push(Token { kind: TokenKind::Slash, offset: start });
                i += 1;
            }
            '0'..='9' => {
                let mut v: u64 = 0;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    v = v
                        .checked_mul(10)
                        .and_then(|v| v.checked_add((bytes[i] - b'0') as u64))
                        .ok_or(LexError {
                            offset: start,
                            message: "integer literal overflows u64".into(),
                        })?;
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'%' {
                    i += 1;
                    out.push(Token { kind: TokenKind::Percent(v), offset: start });
                } else {
                    out.push(Token { kind: TokenKind::Int(v), offset: start });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token { kind: TokenKind::Ident(&src[start..i]), offset: start });
            }
            _ => {
                // Every arm above consumes ASCII, so `start` is a char
                // boundary: name the whole character, not its first byte.
                let other = src[start..].chars().next().unwrap_or_default();
                return Err(LexError {
                    offset: start,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    out.push(Token { kind: TokenKind::Eof, offset: bytes.len() });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_device_clause() {
        assert_eq!(
            kinds("device(0:*)"),
            vec![
                TokenKind::Ident("device"),
                TokenKind::LParen,
                TokenKind::Int(0),
                TokenKind::Colon,
                TokenKind::Star,
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_percentage() {
        assert_eq!(kinds("2%"), vec![TokenKind::Percent(2), TokenKind::Eof]);
    }

    #[test]
    fn detached_percent_rejected() {
        assert!(lex("%").is_err());
        assert!(lex("15 %").is_err());
    }

    #[test]
    fn strips_pragma_and_continuations() {
        let s = strip_pragma("#pragma omp parallel target \\\n device(*)");
        assert_eq!(s, "parallel target   device(*)");
    }

    #[test]
    fn strip_pragma_passthrough_without_prefix() {
        assert_eq!(strip_pragma("map(to: x)"), "map(to: x)");
    }

    #[test]
    fn lexes_array_section() {
        let k = kinds("y[0:n]");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("y"),
                TokenKind::LBracket,
                TokenKind::Int(0),
                TokenKind::Colon,
                TokenKind::Ident("n"),
                TokenKind::RBracket,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn offsets_point_into_source() {
        let toks = lex("map(to: x)").unwrap();
        let x = toks.iter().find(|t| t.kind == TokenKind::Ident("x")).unwrap();
        assert_eq!(x.offset, 8);
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("map(to: x @)").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.offset, 10);
    }

    #[test]
    fn names_the_non_ascii_character_at_the_offset() {
        let err = lex("parallel target map(to: x×y)").unwrap_err();
        assert_eq!(err.offset, 25);
        assert_eq!(err.message, "unexpected character `×`");
        let err = lex("parallel target map(to: naïve[0:n])").unwrap_err();
        assert_eq!(err.offset, 26);
        assert_eq!(err.message, "unexpected character `ï`");
    }

    #[test]
    fn overflow_is_an_error() {
        assert!(lex("99999999999999999999999999").is_err());
    }
}
