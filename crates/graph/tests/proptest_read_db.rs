//! The byte-level parser on random input: the writer's output, dressed in
//! everything the format allows (CRLF, tabs, runs of spaces, full-line and
//! trailing comments holding any bytes), reads back as the same database
//! through read buffers of any size; arbitrary bytes never panic it; and a
//! number is accepted exactly when `str::parse::<u32>` accepts it.

use std::io::BufReader;

use proptest::prelude::*;

use graphmine_graph::io::{read_db, write_db, ParseError};
use graphmine_graph::{CsrScratch, Graph, GraphDb};

/// A database of simple graphs (isolated vertices and edgeless graphs
/// included).
fn any_db() -> impl Strategy<Value = GraphDb> {
    let graph = (0..=7usize).prop_flat_map(|n| {
        let ids = 0..(n as u32).max(1);
        let vl = proptest::collection::vec(0..5u32, n);
        let raw = proptest::collection::vec((ids.clone(), ids, 0..4u32), 0..=2 * n);
        (vl, raw).prop_map(|(vl, raw)| {
            let n = vl.len() as u32;
            let mut seen = std::collections::BTreeSet::new();
            let edges: Vec<_> = raw
                .into_iter()
                .filter(|&(u, v, _)| u < n && v < n && u != v && seen.insert((u.min(v), u.max(v))))
                .collect();
            Graph::from_edges(&vl, &edges, &mut CsrScratch::default()).expect("simple graph")
        })
    });
    proptest::collection::vec(graph, 0..6).prop_map(GraphDb::from_graphs)
}

/// A tiny deterministic stream of choices, so one drawn seed decorates a
/// whole file.
struct Choices(u64);

impl Choices {
    fn next(&mut self, bound: u64) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }

    fn blank(&mut self) -> &'static [u8] {
        [&b" "[..], b"\t", b"  ", b" \t ", b"\t\t"][self.next(5) as usize]
    }

    /// Comment text: printable ASCII, tabs, carriage returns and bytes
    /// that are not UTF-8 on their own — anything but a line break.
    fn comment(&mut self, out: &mut Vec<u8>) {
        out.push(b'#');
        for _ in 0..self.next(12) {
            out.push(match self.next(4) {
                0 => 0x80 + self.next(0x80) as u8,
                1 => [b'\t', b'\r', b' ', b'#'][self.next(4) as usize],
                _ => b' ' + self.next(95) as u8,
            });
        }
    }
}

/// `text` line by line, with separators, line ends and comments redrawn.
fn decorate(text: &[u8], seed: u64) -> Vec<u8> {
    let mut c = Choices(seed);
    let mut out = Vec::new();
    for line in text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        for _ in 0..c.next(3) {
            match c.next(3) {
                0 => {}
                1 => out.extend_from_slice(c.blank()),
                _ => {
                    if c.next(2) == 0 {
                        out.extend_from_slice(c.blank());
                    }
                    c.comment(&mut out);
                }
            }
            out.extend_from_slice(if c.next(2) == 0 { b"\n" } else { b"\r\n" });
        }
        if c.next(3) == 0 {
            out.extend_from_slice(c.blank());
        }
        for (i, field) in line.split(|&b| b == b' ').enumerate() {
            if i > 0 {
                out.extend_from_slice(c.blank());
            }
            out.extend_from_slice(field);
        }
        if c.next(3) == 0 {
            out.extend_from_slice(c.blank());
            c.comment(&mut out);
        }
        out.extend_from_slice(if c.next(2) == 0 { b"\n" } else { b"\r\n" });
    }
    out
}

/// Bytes drawn mostly from the format's own alphabet, so random input
/// reaches past the first token.
fn tokenish_bytes() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"tve# \t\r\n\n\n0123456789-+x\xe9\xff";
    proptest::collection::vec(0..ALPHABET.len(), 0..160)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

proptest! {
    #[test]
    fn decorated_output_reads_back_as_the_database(
        db in any_db(),
        seed in any::<u64>(),
        capacity in 1usize..40,
    ) {
        let mut text = Vec::new();
        write_db(&mut text, &db).expect("write to memory");
        let decorated = decorate(&text, seed);
        for read in [
            read_db(decorated.as_slice()),
            read_db(BufReader::with_capacity(capacity, decorated.as_slice())),
        ] {
            match read {
                Ok(back) => prop_assert_eq!(&back, &db),
                Err(e) => panic!("{e} in {:?}", String::from_utf8_lossy(&decorated)),
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in proptest::collection::vec(any::<u8>(), 0..200),
        tokenish in tokenish_bytes(),
        capacity in 1usize..16,
    ) {
        for bytes in [raw, tokenish] {
            let whole = read_db(bytes.as_slice());
            let chunked = read_db(BufReader::with_capacity(capacity, bytes.as_slice()));
            match (&whole, &chunked) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a, b);
                    for (_, g) in a.iter() {
                        prop_assert_eq!(g.check_invariants(), Ok(()));
                    }
                }
                (
                    Err(ParseError::Malformed { line: la, what: wa }),
                    Err(ParseError::Malformed { line: lb, what: wb }),
                ) => prop_assert_eq!((la, wa), (lb, wb)),
                _ => panic!("buffer size changed the outcome: {whole:?} vs {chunked:?}"),
            }
        }
    }

    /// A vertex label is read exactly when `str::parse::<u32>` reads the
    /// token: digits with at most one leading `+`, no sign, no overflow.
    #[test]
    fn numbers_are_refused_as_str_parse_refuses_them(
        sign in 0usize..5,
        digits in proptest::collection::vec(0u8..10, 0..12),
        tail in 0usize..3,
    ) {
        let token = format!(
            "{}{}{}",
            ["", "+", "-", "++", "+-"][sign],
            digits.iter().map(|d| char::from(b'0' + d)).collect::<String>(),
            ["", "", "x"][tail],
        );
        let text = format!("t # 0\nv 0 {token}\n");
        match (read_db(text.as_bytes()), token.parse::<u32>()) {
            (Ok(db), Ok(label)) => prop_assert_eq!(db.graph(0).vlabels(), &[label]),
            (Err(ParseError::Malformed { line, what }), Err(_)) => {
                prop_assert_eq!((line, what.as_str()), (2, "missing or invalid vertex label"));
            }
            (got, want) => panic!("`{token}`: read {got:?}, str::parse {want:?}"),
        }
    }
}
