//! Structure-aware property tests aimed straight at the wire decoder,
//! `Json::parse` and `decode_request_with`, in process. The documents
//! sit where decoders break: nesting around the 128-level cap, very
//! wide containers, huge and non-integral numbers, lone and paired
//! surrogate escapes, and duplicate object keys. Each document carries
//! its own verdict (how deep it nests, whether every token is valid),
//! so the properties are exact: decoding never panics, accepts exactly
//! the valid documents within the cap, and decodes every request
//! integer to the value the client wrote or not at all.

use biorank::service::wire::{decode_request_with, Json, RequestBody, RequestDefaults};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::LazyLock;

/// The decoder's nesting cap: arrays and objects open at once.
const MAX_DEPTH: usize = 128;

/// Valid scalars: huge, tiny, negative-zero and non-integral numbers,
/// escapes (a surrogate pair among them), raw UTF-8, literals.
static VALID: LazyLock<Vec<&str>> = LazyLock::new(|| {
    tokens(
        r#"0 -0 42 1.5 1e3 1E+2 2.5e-3 1e400 -1e400 1e-400 9007199254740993
    18446744073709551616 123456789012345678901234567890 "" "\u00e9" "\ud83d\ude00"
    "\n\t\\\"\/" "é日本😀" "\u0000" true false null"#,
    )
});

/// Invalid scalars: malformed numbers, lone or mispaired surrogates,
/// bad escapes, a raw control byte, truncated literals.
static INVALID: LazyLock<Vec<&str>> = LazyLock::new(|| {
    tokens(concat!(
        r#"- 1e +1 .5 --1 "\ud800" "\udc00" "\ud800\u0041" "\ud800x" "\u+041" "\uZZZZ""#,
        r#" "\x" nul tru "#,
        "\"a\u{1}b\""
    ))
});

/// Object keys: few, so duplicates are common.
static KEYS: LazyLock<Vec<&str>> = LazyLock::new(|| tokens(r#""a" "b" "id" "a""#));

/// Request-field integer literals and the value each decodes to.
const EXACT: &[(&str, u64)] = &[
    ("0", 0),
    ("-0", 0),
    ("4096", 4096),
    ("1e3", 1000),
    ("2.0", 2),
    ("9007199254740991", (1 << 53) - 1),
];

/// Request-field values that must be decode errors: integers past
/// what an `f64` holds exactly, non-integral, negative, not numbers.
static INEXACT: LazyLock<Vec<&str>> = LazyLock::new(|| {
    tokens(
        "9007199254740992 9007199254740993 18446744073709551615 18446744073709551616
         1e400 1.5 0.001 -1 true null",
    )
});

/// The whitespace-separated tokens of `pool`.
fn tokens(pool: &'static str) -> Vec<&'static str> {
    pool.split_whitespace().collect()
}

/// Builds one JSON text from a byte tape (the vendored proptest has no
/// recursive strategies), recording how deep it nests and whether all
/// its tokens are valid. An exhausted tape reads as zeros.
struct Gen<'a> {
    tape: &'a [u8],
    text: String,
    /// Most arrays and objects open at once, enclosing levels included.
    depth: usize,
    valid: bool,
    /// Draws an occasional invalid scalar.
    hostile: bool,
}

impl<'a> Gen<'a> {
    /// A value whose spine of nested containers is `spine` levels
    /// deep, written inside `base_depth` enclosing containers.
    fn generate(base_depth: usize, spine: usize, hostile: bool, tape: &'a [u8]) -> Gen<'a> {
        let mut g = Gen {
            tape,
            text: String::new(),
            depth: base_depth,
            valid: true,
            hostile,
        };
        g.value(base_depth, spine);
        g
    }

    fn next(&mut self) -> usize {
        let (&b, rest) = self.tape.split_first().unwrap_or((&0, &[]));
        self.tape = rest;
        usize::from(b)
    }

    /// One of the whitespace-separated tokens of `pool`.
    fn push(&mut self, pool: &[&str]) {
        let token = pool[self.next() % pool.len()];
        self.text.push_str(token);
    }

    fn space(&mut self) {
        let space = ["", " ", "\n", "\t ", "\r\n"][self.next() % 5];
        self.text.push_str(space);
    }

    fn scalar(&mut self) {
        if self.hostile && self.next() % 16 == 15 {
            self.valid = false;
            self.push(&INVALID);
        } else {
            self.push(&VALID);
        }
    }

    /// A value at `level` open containers: containers until the spine
    /// is complete, then mostly scalars and a few short side branches.
    fn value(&mut self, level: usize, spine: usize) {
        if level < spine {
            self.container(level, spine);
        } else if self.next() % 8 == 7 {
            let branch = level + 1 + self.next() % 2;
            self.container(level, branch);
        } else {
            self.scalar();
        }
    }

    /// An array or object at `level`: a few siblings (one time in 32,
    /// hundreds) around the child that carries the spine on.
    fn container(&mut self, level: usize, spine: usize) {
        let object = self.next().is_multiple_of(2);
        self.depth = self.depth.max(level + 1);
        self.text.push(if object { '{' } else { '[' });
        let siblings = if self.next() % 32 == 31 {
            50 + 2 * self.next()
        } else {
            self.next() % 4
        };
        let spine_at = self.next() % (siblings + 1);
        for i in 0..=siblings {
            if i > 0 {
                self.text.push(',');
            }
            self.space();
            if object {
                self.push(&KEYS);
                self.space();
                self.text.push(':');
            }
            if i == spine_at {
                self.value(level + 1, spine);
            } else {
                self.scalar();
            }
            self.space();
        }
        self.text.push(if object { '}' } else { ']' });
    }
}

/// Spine depths: mostly straddling the cap, sometimes shallow.
fn spine() -> impl Strategy<Value = usize> {
    (0u8..4, 120usize..=136, 0usize..6)
        .prop_map(|(tag, deep, shallow)| if tag == 0 { shallow } else { deep })
}

/// Entry `i` of `EXACT` then `INEXACT`: the literal and its value.
fn integer(i: usize) -> (&'static str, Option<u64>) {
    match EXACT.get(i) {
        Some(&(text, value)) => (text, Some(value)),
        None => (INEXACT[i - EXACT.len()], None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn json_parse_accepts_exactly_the_valid_documents_within_the_cap(
        spine in spine(),
        hostile in proptest::bool::ANY,
        tape in vec(0u8..=255, 0..2048),
    ) {
        let doc = Gen::generate(0, spine, hostile, &tape);
        let parsed = Json::parse(&doc.text);
        let expect_ok = doc.valid && doc.depth <= MAX_DEPTH;
        prop_assert_eq!(parsed.is_ok(), expect_ok, "{} levels: {}", doc.depth, doc.text);
        if doc.valid && !expect_ok {
            prop_assert!(parsed.unwrap_err().message.contains("nesting too deep"));
        }
    }

    #[test]
    fn request_integers_decode_exactly_or_not_at_all(
        // id, top, deadline_ms, seed: each written 0–2 times.
        fields in vec(vec(0..EXACT.len() + INEXACT.len(), 0..=2), 4),
        extra in (spine(), proptest::bool::ANY, vec(0u8..=255, 0..2048)),
    ) {
        // An unknown `extra` field holds a generated value, one level
        // down inside the request object.
        let extra = Gen::generate(1, extra.0, extra.1, &extra.2);
        let mut line = String::from(
            "{\"input\":\"EntrezProtein\",\"attribute\":\"name\",\"value\":\"GALT\",\
             \"outputs\":[\"AmiGO\"],\"method\":\"inedge\"",
        );
        // Per field: absent (None), or the last occurrence's value
        // (Some(None) when it must not decode).
        let mut expected = Vec::new();
        for (name, picks) in ["id", "top", "deadline_ms", "seed"].into_iter().zip(&fields) {
            for &i in picks {
                line.push_str(&format!(",\"{name}\":{}", integer(i).0));
            }
            let positive = |v: &u64| *v > 0 || name != "deadline_ms";
            expected.push(picks.last().map(|&i| integer(i).1.filter(positive)));
        }
        line.push_str(&format!(",\"extra\":{}}}", extra.text));
        let [id, top, deadline, seed] = expected[..] else {
            unreachable!()
        };
        let expect_ok = extra.valid
            && extra.depth <= MAX_DEPTH
            && matches!(id, Some(Some(_)))
            && [top, deadline, seed].iter().all(|f| *f != Some(None));
        match decode_request_with(&line, &RequestDefaults::default()) {
            Ok(request) => {
                prop_assert!(expect_ok, "accepted: {line}");
                let RequestBody::Query(query) = request.body else {
                    return Err(format!("not a query: {line}"));
                };
                prop_assert_eq!(Some(Some(request.id)), id);
                prop_assert_eq!(query.top.map(|t| t as u64), top.flatten());
                prop_assert_eq!(query.deadline_ms, deadline.flatten());
                prop_assert!(seed.is_none() || seed == Some(Some(query.spec.seed)));
            }
            Err(err) => {
                prop_assert!(!expect_ok, "rejected ({err}): {line}");
                if extra.valid && extra.depth > MAX_DEPTH {
                    prop_assert!(err.message.contains("nesting too deep"), "{err}");
                }
            }
        }
    }
}
