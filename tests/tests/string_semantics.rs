//! String semantics on both engines, checked against a reference built
//! from Rust's `chars()`: indexing, `len`, iteration and slicing count
//! chars, never bytes, for ASCII and non-ASCII text alike. ASCII strings
//! take a byte-indexed fast path and non-ASCII ones walk chars, so the
//! cases mix both, with multi-byte chars at either end.

use minipy::{
    check_engines_agree, EngineKind, JitConfig, JitMode, MpError, RuntimeErrorKind, Session,
    VmConfig,
};
use proptest::prelude::*;

/// A JIT that compiles after two back-edges, so the loops below run as
/// compiled code (with type guards on the string ops' operands).
fn eager_jit() -> VmConfig {
    VmConfig {
        engine: EngineKind::Jit(JitConfig {
            hot_threshold: 2,
            max_guard_failures: 2,
            mode: JitMode::Full,
        }),
        ..VmConfig::default()
    }
}

/// The rendered result of `run()` on the interpreter, which the default
/// and the eager JIT must both reproduce.
fn run_on_both_engines(src: &str) -> Result<String, MpError> {
    let checksum = check_engines_agree(src, 7)?;
    let eager = Session::start(src, 7, eager_jit())?.checksum()?;
    assert_eq!(checksum, eager, "eager JIT diverged on:\n{src}");
    Ok(checksum)
}

/// A program returning `len(S)`, `S[i]` for every valid positive and
/// negative `i`, every char of `for c in S`, and `S[a:b]`, `S[a:]` and
/// `S[:a]` for every bound in `-n-2..=n+2`, then `S[:]`.
fn probe_program(s: &str) -> String {
    format!(
        "\
S = '{s}'
def run():
    out = []
    n = len(S)
    out.append(n)
    i = -n
    while i < n:
        out.append(S[i])
        i = i + 1
    for c in S:
        out.append(c)
    a = -n - 2
    while a <= n + 2:
        out.append(S[a:])
        out.append(S[:a])
        b = -n - 2
        while b <= n + 2:
            out.append(S[a:b])
            b = b + 1
        a = a + 1
    out.append(S[:])
    return out
"
    )
}

/// What [`probe_program`] must return, from Rust's `chars()`.
fn expected_probe(s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    let n = chars.len() as i64;
    let text = |a: i64, b: i64| -> String { chars[a as usize..b as usize].iter().collect() };
    // Python's slice-bound normalization: negative counts from the end,
    // then clamp into [0, n]; an inverted slice is empty.
    let norm = |v: i64| (if v < 0 { v + n } else { v }).clamp(0, n);
    let slice = |a: Option<i64>, b: Option<i64>| -> String {
        let lo = a.map_or(0, norm);
        let hi = b.map_or(n, norm);
        text(lo, hi.max(lo))
    };
    let mut out = vec![n.to_string()];
    for i in -n..n {
        let at = if i < 0 { i + n } else { i };
        out.push(text(at, at + 1));
    }
    out.extend(chars.iter().map(char::to_string));
    for a in -n - 2..=n + 2 {
        out.push(slice(Some(a), None));
        out.push(slice(None, Some(a)));
        for b in -n - 2..=n + 2 {
            out.push(slice(Some(a), Some(b)));
        }
    }
    out.push(s.to_string());
    let items: Vec<String> = out
        .into_iter()
        .enumerate()
        .map(|(k, v)| if k == 0 { v } else { format!("'{v}'") })
        .collect();
    format!("[{}]", items.join(", "))
}

/// `S[k]` for an out-of-range `k` raises an IndexError on every engine.
fn assert_index_error(s: &str, k: i64) {
    let src = format!("S = '{s}'\ndef run():\n    return S[{k}]\n");
    for cfg in [VmConfig::interp(), VmConfig::jit(), eager_jit()] {
        let err = Session::start(&src, 7, cfg)
            .expect("session")
            .checksum()
            .expect_err("index out of range");
        assert!(
            matches!(
                err,
                MpError::Runtime {
                    kind: RuntimeErrorKind::Index,
                    ..
                }
            ),
            "S = {s:?}, S[{k}]: {err:?}"
        );
    }
}

fn check_string(s: &str) {
    let got = run_on_both_engines(&probe_program(s)).expect("probe runs");
    assert_eq!(got, expected_probe(s), "S = {s:?}");
    let n = s.chars().count() as i64;
    assert_index_error(s, n);
    assert_index_error(s, -n - 1);
}

#[test]
fn fixed_strings_index_by_char() {
    for s in [
        "",
        "a",
        "é",
        "😀",
        "hello",
        "héllo",
        "€abc",
        "abc€",
        "😀 x€yé",
        "日本語",
    ] {
        check_string(s);
    }
}

/// Letters, a space and chars of two, three and four UTF-8 bytes.
const ALPHABET: [char; 8] = ['a', 'b', 'Z', '0', ' ', 'é', '€', '😀'];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_strings_index_by_char(
        chars in prop::collection::vec(prop::sample::select(ALPHABET.to_vec()), 0..7),
    ) {
        let s: String = chars.into_iter().collect();
        check_string(&s);
    }
}

#[test]
fn non_ascii_literals_decode_as_utf8() {
    let src = "\
def run():
    return [len('héllo'), ord('é'), 'é' == chr(233), len('\\é'), '\\é'[1]]
";
    assert_eq!(
        run_on_both_engines(src).expect("runs"),
        "[5, 233, True, 2, 'é']"
    );
}

#[test]
fn find_returns_a_char_offset() {
    let src = "\
def run():
    s = 'é!x'
    return [s.find('x'), s[s.find('!')], s.find('é'), s.find('?'), 'ab!'.find('!')]
";
    assert_eq!(
        run_on_both_engines(src).expect("runs"),
        "[2, '!', 0, -1, 2]"
    );
}
