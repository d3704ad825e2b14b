//! Lexer for the concrete Signal syntax.

use crate::error::{LangError, Pos};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier.
    Ident(String),
    /// An integer literal's magnitude, at most 2^63: the parser folds a
    /// preceding minus into it, and only a negative literal may reach
    /// `i64::MIN`.
    Int(u64),
    /// `process`
    KwProcess,
    /// `input`
    KwInput,
    /// `output`
    KwOutput,
    /// `local`
    KwLocal,
    /// `int`
    KwIntTy,
    /// `bool`
    KwBoolTy,
    /// `true`
    KwTrue,
    /// `false`
    KwFalse,
    /// `pre`
    KwPre,
    /// `when`
    KwWhen,
    /// `default`
    KwDefault,
    /// `not`
    KwNot,
    /// `and`
    KwAnd,
    /// `or`
    KwOr,
    /// `sync` — alternative spelling for clock constraints
    KwSync,
    /// `:=`
    Assign,
    /// `^=`
    SyncEq,
    /// `^`
    Caret,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `/=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Where it starts.
    pub pos: Pos,
}

/// Tokenizes a source string.
///
/// Comments run from `--` to end of line.
///
/// # Errors
///
/// Returns [`LangError::Lex`] on unexpected characters or malformed
/// literals.
///
/// ```
/// use polysig_lang::lexer::{tokenize, Token};
/// let toks = tokenize("x := y when z;")?;
/// assert_eq!(toks[1].token, Token::Assign);
/// # Ok::<(), polysig_lang::LangError>(())
/// ```
pub fn tokenize(src: &str) -> Result<Vec<Spanned>, LangError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    let keyword = |s: &str| -> Option<Token> {
        Some(match s {
            "process" => Token::KwProcess,
            "input" => Token::KwInput,
            "output" => Token::KwOutput,
            "local" => Token::KwLocal,
            "int" => Token::KwIntTy,
            "bool" => Token::KwBoolTy,
            "true" => Token::KwTrue,
            "false" => Token::KwFalse,
            "pre" => Token::KwPre,
            "when" => Token::KwWhen,
            "default" => Token::KwDefault,
            "not" => Token::KwNot,
            "and" => Token::KwAnd,
            "or" => Token::KwOr,
            "sync" => Token::KwSync,
            _ => return None,
        })
    };

    while i < bytes.len() {
        let c = bytes[i];
        let pos = Pos { line, col };
        let advance = |i: &mut usize, col: &mut u32, n: usize| {
            *i += n;
            *col += n as u32;
        };
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            c if c.is_whitespace() => advance(&mut i, &mut col, 1),
            '-' if bytes.get(i + 1) == Some(&'-') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                col += (i - start) as u32;
                let token = keyword(&word).unwrap_or(Token::Ident(word));
                out.push(Spanned { token, pos });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                col += (i - start) as u32;
                let value =
                    word.parse::<u64>().ok().filter(|&m| m <= 1 << 63).ok_or_else(|| {
                        LangError::Lex {
                            pos,
                            message: format!("integer literal `{word}` out of range"),
                        }
                    })?;
                out.push(Spanned { token: Token::Int(value), pos });
            }
            ':' => {
                if bytes.get(i + 1) == Some(&'=') {
                    advance(&mut i, &mut col, 2);
                    out.push(Spanned { token: Token::Assign, pos });
                } else {
                    advance(&mut i, &mut col, 1);
                    out.push(Spanned { token: Token::Colon, pos });
                }
            }
            '^' => {
                if bytes.get(i + 1) == Some(&'=') {
                    advance(&mut i, &mut col, 2);
                    out.push(Spanned { token: Token::SyncEq, pos });
                } else {
                    advance(&mut i, &mut col, 1);
                    out.push(Spanned { token: Token::Caret, pos });
                }
            }
            '/' => {
                if bytes.get(i + 1) == Some(&'=') {
                    advance(&mut i, &mut col, 2);
                    out.push(Spanned { token: Token::Ne, pos });
                } else {
                    return Err(LangError::Lex { pos, message: "expected `/=`".into() });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    advance(&mut i, &mut col, 2);
                    out.push(Spanned { token: Token::Le, pos });
                } else {
                    advance(&mut i, &mut col, 1);
                    out.push(Spanned { token: Token::Lt, pos });
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    advance(&mut i, &mut col, 2);
                    out.push(Spanned { token: Token::Ge, pos });
                } else {
                    advance(&mut i, &mut col, 1);
                    out.push(Spanned { token: Token::Gt, pos });
                }
            }
            ';' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::Semi, pos });
            }
            ',' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::Comma, pos });
            }
            '{' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::LBrace, pos });
            }
            '}' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::RBrace, pos });
            }
            '(' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::LParen, pos });
            }
            ')' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::RParen, pos });
            }
            '+' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::Plus, pos });
            }
            '-' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::Minus, pos });
            }
            '*' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::Star, pos });
            }
            '=' => {
                advance(&mut i, &mut col, 1);
                out.push(Spanned { token: Token::Eq, pos });
            }
            other => {
                return Err(LangError::Lex {
                    pos,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        tokenize(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            toks("process P default defaulted"),
            vec![
                Token::KwProcess,
                Token::Ident("P".into()),
                Token::KwDefault,
                Token::Ident("defaulted".into())
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            toks(":= ^= ^ <= < >= > = /= + - *"),
            vec![
                Token::Assign,
                Token::SyncEq,
                Token::Caret,
                Token::Le,
                Token::Lt,
                Token::Ge,
                Token::Gt,
                Token::Eq,
                Token::Ne,
                Token::Plus,
                Token::Minus,
                Token::Star
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("42 0"), vec![Token::Int(42), Token::Int(0)]);
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            toks("x -- the rest is ignored ;;;\ny"),
            vec![Token::Ident("x".into()), Token::Ident("y".into())]
        );
    }

    #[test]
    fn tracks_positions() {
        let spanned = tokenize("x\n  y").unwrap();
        assert_eq!(spanned[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(spanned[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(tokenize("x ? y"), Err(LangError::Lex { .. })));
        assert!(matches!(tokenize("x / y"), Err(LangError::Lex { .. })));
    }

    #[test]
    fn rejects_huge_literals() {
        assert!(matches!(tokenize("999999999999999999999999"), Err(LangError::Lex { .. })));
    }
}
