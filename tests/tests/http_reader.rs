//! Hostile input at the HTTP reader of `rigor serve`. `read_request` and
//! `read_response` read any byte stream, so valid messages are mangled in
//! memory — truncated, bit-flipped, spliced with arbitrary bytes — and fed
//! back in reads of arbitrary size: each must parse or fail with a typed
//! `io::Error`, and none may panic or ask for bytes past the end of its
//! input. The head and body caps are pinned at their edges.

use std::io::{self, Read};

use integration_tests::mangle;
use proptest::prelude::*;
use rigor_serve::http::{read_request, read_response, write_request, write_response};

/// Largest head the reader accepts, and largest body, as documented.
const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 64 * 1024 * 1024;

/// `bytes` as a stream handed out at most `chunk` bytes per read, counting
/// the reads that found it at its end.
struct Feed<'a> {
    bytes: &'a [u8],
    chunk: usize,
    ends: u32,
}

impl<'a> Feed<'a> {
    fn new(bytes: &'a [u8], chunk: usize) -> Feed<'a> {
        Feed {
            bytes,
            chunk,
            ends: 0,
        }
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.bytes.len().min(self.chunk).min(buf.len());
        if n == 0 {
            self.ends += 1;
        }
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// A failed read is the reader's typed protocol error, never another kind
/// (the feed itself cannot fail).
fn typed<T>(result: &io::Result<T>) -> Result<(), TestCaseError> {
    match result {
        Err(e) if e.kind() != io::ErrorKind::InvalidData => Err(TestCaseError::fail(format!(
            "untyped error {:?}: {e}",
            e.kind()
        ))),
        _ => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mangled_requests_parse_or_fail_typed(
        method in prop::sample::select(vec!["GET", "PUT", "POST"]),
        path in prop::sample::select(vec![
            "/health",
            "/runs",
            "/completed?seq=3&label=sieve/interp/2x5/1",
            "/history?last=2",
        ]),
        body in ".{0,300}",
        mangling in (0u8..3, any::<usize>(), 0u8..8),
        junk in prop::collection::vec(any::<u8>(), 0..64),
        chunk in 1usize..600,
    ) {
        let mut bytes = Vec::new();
        write_request(&mut bytes, method, path, &body).unwrap();
        let clean = read_request(&mut Feed::new(&bytes, chunk)).unwrap();
        prop_assert_eq!(clean.method.as_str(), method);
        prop_assert_eq!(clean.body, body);

        let (how, at, bit) = mangling;
        let bytes = mangle(bytes, how, at, bit, junk);
        let mut feed = Feed::new(&bytes, chunk);
        let result = read_request(&mut feed);
        typed(&result)?;
        prop_assert!(feed.ends <= 1, "read {} times past the end", feed.ends);
    }

    #[test]
    fn mangled_responses_parse_or_fail_typed(
        status in prop::sample::select(vec![200u16, 400, 404, 409, 500]),
        body in ".{0,300}",
        mangling in (0u8..3, any::<usize>(), 0u8..8),
        junk in prop::collection::vec(any::<u8>(), 0..64),
        chunk in 1usize..600,
    ) {
        let mut bytes = Vec::new();
        write_response(&mut bytes, status, "application/json", &body).unwrap();
        let clean = read_response(&mut Feed::new(&bytes, chunk)).unwrap();
        prop_assert_eq!(clean, (status, body));

        let (how, at, bit) = mangling;
        let bytes = mangle(bytes, how, at, bit, junk);
        let mut feed = Feed::new(&bytes, chunk);
        let result = read_response(&mut feed);
        typed(&result)?;
        prop_assert!(feed.ends <= 1, "read {} times past the end", feed.ends);
    }
}

/// A request whose head (the bytes before the blank line) is `len` bytes
/// long, padded by a header.
fn request_with_head(len: usize, body: &str) -> Vec<u8> {
    let start = format!(
        "PUT /runs HTTP/1.1\r\nContent-Length: {}\r\nX-Pad: ",
        body.len()
    );
    let mut bytes = start.into_bytes();
    bytes.resize(len, b'a');
    bytes.extend_from_slice(b"\r\n\r\n");
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[test]
fn heads_up_to_16_kib_parse_and_longer_ones_fail() {
    // Reads of several sizes end before, across and at the separator.
    for chunk in [1, 3, 4096, 5000, 1 << 20] {
        for len in [MAX_HEAD - 3, MAX_HEAD - 1, MAX_HEAD] {
            let bytes = request_with_head(len, "{}");
            let req = read_request(&mut Feed::new(&bytes, chunk))
                .unwrap_or_else(|e| panic!("head of {len} B in reads of {chunk}: {e}"));
            assert_eq!(req.body, "{}");
        }
        for len in [MAX_HEAD + 1, MAX_HEAD + 4, MAX_HEAD + 5000] {
            let bytes = request_with_head(len, "{}");
            let err = read_request(&mut Feed::new(&bytes, chunk)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("16 KiB"), "{len} B: {err}");
        }
    }
    // A head that never ends fails at the cap, not at the end of input.
    let endless = vec![b'a'; 4 * MAX_HEAD];
    let mut feed = Feed::new(&endless, 4096);
    assert!(read_request(&mut feed).is_err());
    assert_eq!(feed.ends, 0);
}

#[test]
fn content_lengths_over_the_cap_negative_or_not_numbers_fail() {
    let over = (MAX_BODY + 1).to_string();
    let huge = "1".repeat(40);
    for (value, message) in [
        (over.as_str(), "64 MiB"),
        (huge.as_str(), "bad Content-Length"),
        ("-1", "bad Content-Length"),
        ("-0", "bad Content-Length"),
        ("twelve", "bad Content-Length"),
        ("0x10", "bad Content-Length"),
        ("", "bad Content-Length"),
    ] {
        let request = format!("PUT /runs HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}");
        let response = format!("HTTP/1.1 200 OK\r\nContent-Length: {value}\r\n\r\n{{}}");
        let err = read_request(&mut Feed::new(request.as_bytes(), 4096)).unwrap_err();
        assert!(err.to_string().contains(message), "{value:?}: {err}");
        let err = read_response(&mut Feed::new(response.as_bytes(), 4096)).unwrap_err();
        assert!(err.to_string().contains(message), "{value:?}: {err}");
    }
    // A length at the cap is honoured, and a body shorter than it is a
    // typed error once the input ends.
    let at_cap = format!("PUT /runs HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n{{}}");
    let mut feed = Feed::new(at_cap.as_bytes(), 4096);
    let err = read_request(&mut feed).unwrap_err();
    assert!(err.to_string().contains("mid-body"), "{err}");
    assert_eq!(feed.ends, 1);
}
