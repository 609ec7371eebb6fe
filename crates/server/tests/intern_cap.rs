//! Client-chosen strings cannot grow the process-wide atom table past
//! its byte cap.
//!
//! Every `Value::Str` / `Value::Sym` a client sends becomes an `Atom`
//! when its frame is decoded, and interned atoms are never freed, so the
//! table stops at `Atom::INTERN_CAP_BYTES` and later strings fall back to
//! refcounted heap atoms. This is its own test binary because it fills
//! the table for the whole process.

use dps_server::Request;
use dps_wm::{Atom, Value};

const DIGITS: usize = 6;

/// A long string (the wire's `u32` length prefix allows up to a
/// frame's 1 MiB; this many fill the table in a few hundred frames).
const LONG: usize = 60_000;

/// The `i`-th distinct string of length `len`.
fn text(len: usize, i: usize) -> String {
    format!("{}{i:0DIGITS$}", "x".repeat(len - DIGITS))
}

/// One `Insert` frame body per `i < n`, carrying `text(len, i)`, built by
/// patching the digits of a template so that only `Request::decode`
/// creates atoms for the values.
fn frames(len: usize, n: usize) -> impl Iterator<Item = Vec<u8>> {
    let template = Request::Insert {
        class: "note".into(),
        attrs: vec![("text".into(), Value::Str(text(len, 0).into()))],
    }
    .encode();
    let at = template.len() - DIGITS;
    (0..n).map(move |i| {
        let mut body = template.clone();
        body[at..].copy_from_slice(format!("{i:0DIGITS$}").as_bytes());
        body
    })
}

fn decoded(body: &[u8]) -> Atom {
    match Request::decode(body).unwrap() {
        Request::Insert { mut attrs, .. } => match attrs.pop().unwrap().1 {
            Value::Str(s) => s,
            other => panic!("decoded {other:?}"),
        },
        other => panic!("decoded {other:?}"),
    }
}

#[test]
fn client_strings_never_take_the_table_past_its_byte_cap() {
    let cap = Atom::INTERN_CAP_BYTES;

    // Long strings: more of them than the cap's worth.
    let n = cap / LONG + 16;
    let long: Vec<Atom> = frames(LONG, n).map(|body| decoded(&body)).collect();
    assert!(Atom::interned_bytes() <= cap);
    assert!(
        long[0].is_interned(),
        "strings seen before the cap stay interned"
    );
    assert!(
        !long[n - 1].is_interned(),
        "past the cap a new string is a heap atom"
    );
    assert_eq!(long[n - 1].as_str(), text(LONG, n - 1));

    // Decoding again neither grows the table nor changes what compares
    // equal: an interned string decodes to the same entry, a heap one to
    // an equal (content-compared) atom.
    let full = Atom::interned_bytes();
    assert!(frames(LONG, n).map(|body| decoded(&body)).eq(long));
    assert_eq!(Atom::interned_bytes(), full);

    // Short strings still fit in what the long ones left, until they do
    // not either: the count of strings is bounded by the same bytes.
    let short: Vec<Atom> = frames(16, cap / 16)
        .map(|body| decoded(&body))
        .take_while(Atom::is_interned)
        .collect();
    assert!(short.len() < cap / 16, "short strings never hit the cap");
    assert!(Atom::interned_bytes() <= cap);
    let past = decoded(&frames(16, short.len() + 1).last().unwrap());
    assert!(!past.is_interned());
    assert_eq!(format!("{past:?}"), format!("{:?}", text(16, short.len())));
}
