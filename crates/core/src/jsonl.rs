//! The one convention of every JSONL file `rigor` appends to: the
//! checkpoint journal, the campaign journal, the trace and the archive.
//!
//! A journal opens with a tagged header line,
//! `{"<tag>":"<magic>","version":N}` followed by the fields of its identity
//! (the trace has none), and a writer appends one complete line at a time.
//! A kill can therefore leave at most one *unterminated* final line, and
//! that is the only torn line a reader forgives: it drops it, unparsed, and
//! says so. A newline-terminated line that fails to parse is corruption, an
//! error that names its line.

use serde::json::{get_field, JsonValue};
use serde::Serialize;

/// The tagged header line of a JSONL file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The key whose value names the format (`"journal"`, `"store"`, ...).
    pub tag: &'static str,
    /// That value (`"rigor-checkpoint"`, `"rigor-archive"`, ...).
    pub magic: &'static str,
    /// The format version a reader accepts.
    pub version: u32,
}

impl Header {
    /// The header line, without its newline: the tag, the version, then
    /// the fields of `meta`, which must serialize to an object.
    pub fn line(&self, meta: &impl Serialize) -> String {
        let mut fields = vec![
            (self.tag.to_string(), JsonValue::Str(self.magic.to_string())),
            ("version".to_string(), self.version.to_value()),
        ];
        if let JsonValue::Object(meta) = meta.to_value() {
            fields.extend(meta);
        }
        serde_json::to_string(&JsonValue::Object(fields)).expect("a header is plain data")
    }

    /// Parses a file's first line and checks its tag and version; returns
    /// the whole line, whose other fields are the file's identity.
    ///
    /// # Errors
    ///
    /// A line that is not UTF-8 JSON, lacks the tag, or carries another
    /// version (a missing version reads as 0).
    pub fn check(&self, line: &[u8]) -> Result<JsonValue, String> {
        let head: JsonValue = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))?;
        if head.get(self.tag).and_then(JsonValue::as_str) != Some(self.magic) {
            return Err(format!("missing `\"{}\":\"{}\"` tag", self.tag, self.magic));
        }
        let version: u32 = get_field(&head, "version").unwrap_or(0);
        if version != self.version {
            return Err(format!(
                "unsupported version {version} (expected {})",
                self.version
            ));
        }
        Ok(head)
    }
}

/// Splits the journal into its newline-*terminated* lines, each with its
/// byte offset and without its `\n`. The flag is true when an unterminated
/// (torn) final segment follows; that segment is never parsed. Every reader
/// shares this scan, so the archive's `open` and `verify` agree on line
/// numbers and byte offsets.
pub fn journal_lines(bytes: &[u8]) -> (Vec<(usize, &[u8])>, bool) {
    let mut lines = Vec::new();
    let mut offset = 0;
    for piece in bytes.split_inclusive(|&b| b == b'\n') {
        match piece.strip_suffix(b"\n") {
            Some(line) => lines.push((offset, line)),
            None => return (lines, true),
        }
        offset += piece.len();
    }
    (lines, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: Header = Header {
        tag: "kind",
        magic: "rigor-test",
        version: 2,
    };

    #[test]
    fn the_header_line_round_trips_and_refuses_other_formats() {
        let meta = JsonValue::Object(vec![("id".into(), JsonValue::Str("x".into()))]);
        let line = HEADER.line(&meta);
        assert_eq!(line, r#"{"kind":"rigor-test","version":2,"id":"x"}"#);
        let head = HEADER.check(line.as_bytes()).unwrap();
        assert_eq!(head.get("id").and_then(JsonValue::as_str), Some("x"));

        assert!(HEADER.check(b"not json").is_err());
        assert!(HEADER.check(br#"{"kind":"other","version":2}"#).is_err());
        let err = HEADER.check(br#"{"kind":"rigor-test"}"#).unwrap_err();
        assert!(err.contains("unsupported version 0"), "{err}");
        assert!(HEADER.check(&[0xff, b'{', b'}']).is_err());
    }

    #[test]
    fn only_an_unterminated_tail_is_torn() {
        let (lines, torn) = journal_lines(b"a\n\nbc\n{}");
        assert_eq!(lines, vec![(0, &b"a"[..]), (2, &b""[..]), (3, &b"bc"[..])]);
        assert!(
            torn,
            "a tail without its newline is torn, even when it parses"
        );
        let (lines, torn) = journal_lines(b"a\n");
        assert_eq!(lines.len(), 1);
        assert!(!torn);
        assert_eq!(journal_lines(b""), (Vec::new(), false));
    }
}
