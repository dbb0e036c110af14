//! Tokenizer for MiniPy: a Python-like, indentation-sensitive surface syntax.
//!
//! The lexer produces a flat token stream in which block structure is made
//! explicit through [`TokenKind::Indent`] / [`TokenKind::Dedent`] tokens,
//! exactly like CPython's tokenizer. Blank lines and comment-only lines do not
//! affect indentation.

use crate::error::{MpError, MpResult, Span};

/// The kind of a lexical token.
#[allow(missing_docs)] // keyword/operator variants are self-describing
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals and names.
    /// Integer literal (decimal).
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal, already unescaped.
    Str(String),
    /// Identifier (not a keyword).
    Name(String),

    // Keywords.
    Def,
    Return,
    If,
    Elif,
    Else,
    While,
    For,
    In,
    Break,
    Continue,
    Pass,
    And,
    Or,
    Not,
    True,
    False,
    NoneLit,
    Global,
    Del,

    // Operators and punctuation.
    Plus,
    Minus,
    Star,
    StarStar,
    Slash,
    SlashSlash,
    Percent,
    Eq,
    EqEq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    SlashSlashEq,
    PercentEq,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Dot,

    // Layout.
    /// End of a logical line.
    Newline,
    /// Indentation increased.
    Indent,
    /// Indentation decreased.
    Dedent,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description used in parse error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Int(v) => format!("integer {v}"),
            TokenKind::Float(v) => format!("float {v}"),
            TokenKind::Str(_) => "string literal".to_string(),
            TokenKind::Name(n) => format!("name '{n}'"),
            TokenKind::Newline => "newline".to_string(),
            TokenKind::Indent => "indent".to_string(),
            TokenKind::Dedent => "dedent".to_string(),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("'{}'", other.lexeme()),
        }
    }

    fn lexeme(&self) -> &'static str {
        match self {
            TokenKind::Def => "def",
            TokenKind::Return => "return",
            TokenKind::If => "if",
            TokenKind::Elif => "elif",
            TokenKind::Else => "else",
            TokenKind::While => "while",
            TokenKind::For => "for",
            TokenKind::In => "in",
            TokenKind::Break => "break",
            TokenKind::Continue => "continue",
            TokenKind::Pass => "pass",
            TokenKind::And => "and",
            TokenKind::Or => "or",
            TokenKind::Not => "not",
            TokenKind::True => "True",
            TokenKind::False => "False",
            TokenKind::NoneLit => "None",
            TokenKind::Global => "global",
            TokenKind::Del => "del",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::StarStar => "**",
            TokenKind::Slash => "/",
            TokenKind::SlashSlash => "//",
            TokenKind::Percent => "%",
            TokenKind::Eq => "=",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::LtEq => "<=",
            TokenKind::Gt => ">",
            TokenKind::GtEq => ">=",
            TokenKind::PlusEq => "+=",
            TokenKind::MinusEq => "-=",
            TokenKind::StarEq => "*=",
            TokenKind::SlashEq => "/=",
            TokenKind::SlashSlashEq => "//=",
            TokenKind::PercentEq => "%=",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Comma => ",",
            TokenKind::Colon => ":",
            TokenKind::Dot => ".",
            _ => "?",
        }
    }
}

/// A token paired with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from in the source.
    pub span: Span,
}

/// Tokenizes an entire MiniPy source module.
///
/// # Errors
///
/// Returns [`MpError::Lex`] on invalid characters, malformed numbers,
/// unterminated strings or inconsistent indentation.
pub fn tokenize(source: &str) -> MpResult<Vec<Token>> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    indents: Vec<usize>,
    tokens: Vec<Token>,
    paren_depth: usize,
    at_line_start: bool,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            text: source,
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            indents: vec![0],
            tokens: Vec::new(),
            paren_depth: 0,
            at_line_start: true,
        }
    }

    fn err(&self, message: impl Into<String>) -> MpError {
        MpError::Lex {
            message: message.into(),
            span: Span::new(self.pos, self.pos + 1, self.line),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start, self.pos, self.line),
        });
    }

    fn run(mut self) -> MpResult<Vec<Token>> {
        loop {
            if self.at_line_start && self.paren_depth == 0 && !self.handle_line_start()? {
                break;
            }
            match self.peek() {
                None => break,
                Some(b' ') | Some(b'\t') => {
                    self.pos += 1;
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'\r') => {
                    self.pos += 1;
                }
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    if self.paren_depth == 0 {
                        // Suppress newline tokens for blank lines: only emit if the
                        // last token on this logical line was real content.
                        if matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(k) if !matches!(k, TokenKind::Newline | TokenKind::Indent | TokenKind::Dedent)
                        ) {
                            self.push(TokenKind::Newline, self.pos - 1);
                        }
                        self.at_line_start = true;
                    }
                }
                Some(c) if c.is_ascii_digit() => self.lex_number()?,
                Some(b'"') | Some(b'\'') => self.lex_string()?,
                Some(c) if c == b'_' || c.is_ascii_alphabetic() => self.lex_name(),
                Some(_) => self.lex_operator()?,
            }
        }
        // Final newline (if missing) and closing dedents.
        if matches!(
            self.tokens.last().map(|t| &t.kind),
            Some(k) if !matches!(k, TokenKind::Newline | TokenKind::Indent | TokenKind::Dedent)
        ) {
            self.push(TokenKind::Newline, self.pos);
        }
        while self.indents.len() > 1 {
            self.indents.pop();
            self.push(TokenKind::Dedent, self.pos);
        }
        self.push(TokenKind::Eof, self.pos);
        Ok(self.tokens)
    }

    /// Measures indentation at the start of a logical line and emits
    /// Indent/Dedent tokens. Returns `false` at end of input.
    fn handle_line_start(&mut self) -> MpResult<bool> {
        loop {
            let line_start = self.pos;
            let mut width = 0usize;
            loop {
                match self.peek() {
                    Some(b' ') => {
                        width += 1;
                        self.pos += 1;
                    }
                    Some(b'\t') => {
                        // Tabs advance to the next multiple of 8, like CPython.
                        width = (width / 8 + 1) * 8;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            match self.peek() {
                None => {
                    self.at_line_start = false;
                    return Ok(false);
                }
                Some(b'\n') => {
                    // Blank line: skip entirely.
                    self.pos += 1;
                    self.line += 1;
                    continue;
                }
                Some(b'\r') => {
                    self.pos += 1;
                    continue;
                }
                Some(b'#') => {
                    // Comment-only line: consume to end of line and skip.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                    continue;
                }
                Some(_) => {
                    let current = *self.indents.last().expect("indent stack never empty");
                    if width > current {
                        self.indents.push(width);
                        self.tokens.push(Token {
                            kind: TokenKind::Indent,
                            span: Span::new(line_start, self.pos, self.line),
                        });
                    } else if width < current {
                        while width < *self.indents.last().expect("indent stack never empty") {
                            self.indents.pop();
                            self.tokens.push(Token {
                                kind: TokenKind::Dedent,
                                span: Span::new(line_start, self.pos, self.line),
                            });
                        }
                        if width != *self.indents.last().expect("indent stack never empty") {
                            return Err(self.err("unindent does not match any outer level"));
                        }
                    }
                    self.at_line_start = false;
                    return Ok(true);
                }
            }
        }
    }

    fn lex_number(&mut self) -> MpResult<()> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'_') {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let save = self.pos;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            } else {
                self.pos = save;
            }
        }
        let text: String = std::str::from_utf8(&self.src[start..self.pos])
            .expect("numeric bytes are ASCII")
            .chars()
            .filter(|&c| c != '_')
            .collect();
        let kind = if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| self.err(format!("bad float literal '{text}'")))?;
            TokenKind::Float(v)
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| self.err(format!("bad int literal '{text}'")))?;
            TokenKind::Int(v)
        };
        self.push(kind, start);
        Ok(())
    }

    fn lex_string(&mut self) -> MpResult<()> {
        let start = self.pos;
        let quote = self.bump().expect("caller saw a quote");
        let mut out = String::new();
        // Literal text is copied in runs straight from the source, so it
        // stays UTF-8. A run ends only at an ASCII byte (a quote or a
        // backslash), which is always a char boundary.
        let mut run = self.pos;
        loop {
            let at = self.pos;
            match self.bump() {
                None | Some(b'\n') => {
                    return Err(self.err("unterminated string literal"));
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..at]);
                    run = at + 2;
                    match self.bump() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'\'') => out.push('\''),
                        Some(b'"') => out.push('"'),
                        Some(b'0') => out.push('\0'),
                        Some(_) => {
                            // Unknown escape: keep the backslash, and the
                            // char after it starts the next run.
                            out.push('\\');
                            run = at + 1;
                        }
                        None => return Err(self.err("unterminated string literal")),
                    }
                }
                Some(c) if c == quote => {
                    out.push_str(&self.text[run..at]);
                    break;
                }
                Some(_) => {}
            }
        }
        self.push(TokenKind::Str(out), start);
        Ok(())
    }

    fn lex_name(&mut self) {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c == b'_' || c.is_ascii_alphanumeric()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("name bytes are ASCII");
        let kind = match text {
            "def" => TokenKind::Def,
            "return" => TokenKind::Return,
            "if" => TokenKind::If,
            "elif" => TokenKind::Elif,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "in" => TokenKind::In,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "pass" => TokenKind::Pass,
            "and" => TokenKind::And,
            "or" => TokenKind::Or,
            "not" => TokenKind::Not,
            "True" => TokenKind::True,
            "False" => TokenKind::False,
            "None" => TokenKind::NoneLit,
            "global" => TokenKind::Global,
            "del" => TokenKind::Del,
            _ => TokenKind::Name(text.to_string()),
        };
        self.push(kind, start);
    }

    fn lex_operator(&mut self) -> MpResult<()> {
        let start = self.pos;
        let c = self.bump().expect("caller saw a char");
        let next = self.peek();
        let kind = match (c, next) {
            (b'*', Some(b'*')) => {
                self.pos += 1;
                TokenKind::StarStar
            }
            (b'*', Some(b'=')) => {
                self.pos += 1;
                TokenKind::StarEq
            }
            (b'*', _) => TokenKind::Star,
            (b'/', Some(b'/')) => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    TokenKind::SlashSlashEq
                } else {
                    TokenKind::SlashSlash
                }
            }
            (b'/', Some(b'=')) => {
                self.pos += 1;
                TokenKind::SlashEq
            }
            (b'/', _) => TokenKind::Slash,
            (b'+', Some(b'=')) => {
                self.pos += 1;
                TokenKind::PlusEq
            }
            (b'+', _) => TokenKind::Plus,
            (b'-', Some(b'=')) => {
                self.pos += 1;
                TokenKind::MinusEq
            }
            (b'-', _) => TokenKind::Minus,
            (b'%', Some(b'=')) => {
                self.pos += 1;
                TokenKind::PercentEq
            }
            (b'%', _) => TokenKind::Percent,
            (b'=', Some(b'=')) => {
                self.pos += 1;
                TokenKind::EqEq
            }
            (b'=', _) => TokenKind::Eq,
            (b'!', Some(b'=')) => {
                self.pos += 1;
                TokenKind::NotEq
            }
            (b'!', _) => return Err(self.err("unexpected character '!'")),
            (b'<', Some(b'=')) => {
                self.pos += 1;
                TokenKind::LtEq
            }
            (b'<', _) => TokenKind::Lt,
            (b'>', Some(b'=')) => {
                self.pos += 1;
                TokenKind::GtEq
            }
            (b'>', _) => TokenKind::Gt,
            (b'(', _) => {
                self.paren_depth += 1;
                TokenKind::LParen
            }
            (b')', _) => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RParen
            }
            (b'[', _) => {
                self.paren_depth += 1;
                TokenKind::LBracket
            }
            (b']', _) => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RBracket
            }
            (b'{', _) => {
                self.paren_depth += 1;
                TokenKind::LBrace
            }
            (b'}', _) => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RBrace
            }
            (b',', _) => TokenKind::Comma,
            (b':', _) => TokenKind::Colon,
            (b'.', _) => TokenKind::Dot,
            (other, _) => {
                return Err(self.err(format!("unexpected character '{}'", other as char)));
            }
        };
        self.push(kind, start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src)
            .expect("tokenize")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn simple_expression() {
        let ks = kinds("x = 1 + 2\n");
        assert_eq!(
            ks,
            vec![
                TokenKind::Name("x".into()),
                TokenKind::Eq,
                TokenKind::Int(1),
                TokenKind::Plus,
                TokenKind::Int(2),
                TokenKind::Newline,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn indentation_blocks() {
        let ks = kinds("if x:\n    y = 1\nz = 2\n");
        assert!(ks.contains(&TokenKind::Indent));
        assert!(ks.contains(&TokenKind::Dedent));
        let indent_pos = ks.iter().position(|k| *k == TokenKind::Indent).unwrap();
        let dedent_pos = ks.iter().position(|k| *k == TokenKind::Dedent).unwrap();
        assert!(indent_pos < dedent_pos);
    }

    #[test]
    fn nested_dedents_close_all_levels() {
        let ks = kinds("if a:\n    if b:\n        c = 1\n");
        let dedents = ks.iter().filter(|k| **k == TokenKind::Dedent).count();
        assert_eq!(dedents, 2);
    }

    #[test]
    fn blank_and_comment_lines_ignored_for_indent() {
        let ks = kinds("if a:\n    x = 1\n\n    # comment\n    y = 2\n");
        let dedents = ks.iter().filter(|k| **k == TokenKind::Dedent).count();
        assert_eq!(dedents, 1);
        let indents = ks.iter().filter(|k| **k == TokenKind::Indent).count();
        assert_eq!(indents, 1);
    }

    #[test]
    fn float_and_int_literals() {
        let ks = kinds("a = 1.5\nb = 2e3\nc = 10\nd = 1_000\n");
        assert!(ks.contains(&TokenKind::Float(1.5)));
        assert!(ks.contains(&TokenKind::Float(2000.0)));
        assert!(ks.contains(&TokenKind::Int(10)));
        assert!(ks.contains(&TokenKind::Int(1000)));
    }

    #[test]
    fn string_escapes() {
        let ks = kinds("s = \"a\\nb\"\nt = 'q\\t'\n");
        assert!(ks.contains(&TokenKind::Str("a\nb".into())));
        assert!(ks.contains(&TokenKind::Str("q\t".into())));
    }

    #[test]
    fn operators_two_char() {
        let ks = kinds("a //= 2\nb ** 3\nc != d\ne <= f\n");
        assert!(ks.contains(&TokenKind::SlashSlashEq));
        assert!(ks.contains(&TokenKind::StarStar));
        assert!(ks.contains(&TokenKind::NotEq));
        assert!(ks.contains(&TokenKind::LtEq));
    }

    #[test]
    fn newline_suppressed_inside_parens() {
        let ks = kinds("a = (1 +\n     2)\n");
        let newlines = ks.iter().filter(|k| **k == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn bad_indent_is_error() {
        let r = tokenize("if a:\n    x = 1\n  y = 2\n");
        assert!(r.is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("s = \"abc\n").is_err());
    }

    #[test]
    fn keywords_vs_names() {
        let ks = kinds("formula = 1\nfor i in x:\n    pass\n");
        assert!(ks.contains(&TokenKind::Name("formula".into())));
        assert!(ks.contains(&TokenKind::For));
        assert!(ks.contains(&TokenKind::Pass));
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let ks = kinds("x = 1");
        assert_eq!(ks.last(), Some(&TokenKind::Eof));
        assert!(ks.contains(&TokenKind::Newline));
    }

    #[test]
    fn del_keyword() {
        let ks = kinds("del x\n");
        assert_eq!(ks[0], TokenKind::Del);
    }
}
