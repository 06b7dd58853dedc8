use super::*;

fn sample_db() -> GraphDb {
    let mut g1 = Graph::new();
    let a = g1.add_vertex(3);
    let b = g1.add_vertex(5);
    g1.add_edge(a, b, 2).unwrap();
    let mut g2 = Graph::new();
    for l in 0..3 {
        g2.add_vertex(l);
    }
    g2.add_edge(0, 1, 0).unwrap();
    g2.add_edge(1, 2, 1).unwrap();
    g2.add_edge(2, 0, 0).unwrap();
    GraphDb::from_graphs(vec![g1, g2])
}

#[test]
fn round_trip() {
    let db = sample_db();
    let mut bytes = Vec::new();
    write_db(&mut bytes, &db).unwrap();
    let back = read_db(&bytes[..]).unwrap();
    assert_eq!(back.len(), db.len());
    for gid in 0..db.len() as u32 {
        assert_eq!(back.graph(gid), db.graph(gid));
    }
}

#[test]
fn parses_comments_and_blank_lines() {
    // Both comment forms: `#comment` and the usual `# comment`.
    let text = "\n#comment\n# c\n  # indented\nt # 0\nv 0 1\nv 1 2\n#\ne 0 1 7\n\nt # -1\n";
    let db = read_db(text.as_bytes()).unwrap();
    assert_eq!(db.len(), 1);
    assert_eq!(db.graph(0).edge(0), (0, 1, 7));
    db.graph(0).check_invariants().unwrap();
}

#[test]
fn trailing_comments_do_not_change_a_record() {
    let text = "t # 0   # graph 0 begins\nv 0 3  # vertex 0\nv 1 5\ne 0 1 2  # an edge\n";
    let db = read_db(text.as_bytes()).unwrap();
    assert_eq!(db.len(), 1);
    assert_eq!(db.graph(0).vlabels(), &[3, 5]);
    assert_eq!(db.graph(0).edge(0), (0, 1, 2));
}

#[test]
fn sentinel_ends_stream() {
    // Bare, and as docs/FORMATS.md writes it: with a trailing comment.
    for sentinel in ["t # -1", "t # -1   # end of stream", "t -1"] {
        let text = format!("t # 0\nv 0 1\n{sentinel}\nt # 1\nv 0 9\nnot a record\n");
        let db = read_db(text.as_bytes()).unwrap();
        assert_eq!(db.len(), 1, "`{sentinel}`: records after the sentinel are ignored");
        assert_eq!(db.graph(0).vlabels(), &[1]);
    }
}

#[test]
fn rejects_malformed_input() {
    let line_of = |text: &str| match read_db(text.as_bytes()) {
        Err(ParseError::Malformed { line, what }) => (line, what),
        other => panic!("`{text}` parsed as {other:?}"),
    };
    assert_eq!(line_of("v 0 1\n").0, 1);
    assert_eq!(line_of("t # 0\nv 1 0\n").0, 2);
    assert_eq!(line_of("t # 0\nv 0 1\ne 0 5 1\n").0, 3);
    assert_eq!(line_of("t # 0\nx what\n").0, 2);
    assert_eq!(line_of("t # 0\ne 0 one 1\n").0, 2);
    // An edge may only name vertices declared above it.
    assert_eq!(line_of("t # 0\nv 0 1\ne 0 1 4\nv 1 2\n").0, 3);
    let (line, what) = line_of("t # 0\nv 0 1\nv 1 2\n\ne 1 1 4\n");
    assert_eq!((line, what.as_str()), (5, "self-loop on vertex 1 is not allowed"));
    // A duplicate is pinned to the line of the *second* copy, whether
    // the graph is closed by a `t` line, the sentinel or the end of file.
    for tail in ["", "t # 1\nv 0 0\n", "t # -1\n"] {
        let text = format!("t # 0\nv 0 1\nv 1 2\nv 2 2\ne 0 1 4\n# c\ne 1 2 4\ne 1 0 9\n{tail}");
        let (line, what) = line_of(&text);
        assert_eq!((line, what.as_str()), (8, "edge (1, 0) already exists"), "tail `{tail}`");
    }
    // The first error of the file wins, even when it is a duplicate
    // that only surfaces once its graph is built.
    assert_eq!(line_of("t # 0\nv 0 1\nv 1 2\ne 0 1 4\ne 0 1 4\ne 0 7 1\n").0, 5);
    assert_eq!(line_of("t # 0\nv 0 1\nv 1 2\ne 0 1 4\ne 0 7 1\ne 0 1 4\n").0, 5);
}

#[test]
fn comments_may_hold_any_bytes() {
    // A Latin-1 `é` (not UTF-8) in a full-line and in a trailing comment.
    let text = b"t # 0\n# caf\xe9\nv 0 1\nv 1 2  # caf\xe9\ne 0 1 3\n";
    let db = read_db(&text[..]).unwrap();
    assert_eq!(db.len(), 1);
    assert_eq!(db.graph(0).vlabels(), &[1, 2]);
    assert_eq!(db.graph(0).edge(0), (0, 1, 3));
}

#[test]
fn non_ascii_bytes_in_a_record_are_malformed() {
    let line_of = |text: &[u8]| match read_db(text) {
        Err(ParseError::Malformed { line, what }) => (line, what),
        other => panic!("{:?} parsed as {other:?}", String::from_utf8_lossy(text)),
    };
    assert_eq!(line_of(b"t # 0\nv 0 1\nv 1 \xe9\n"), (3, "missing or invalid vertex label".into()));
    assert_eq!(line_of(b"t # 0\n\xe9 0 1\n"), (2, "unknown record type `\u{fffd}`".into()));
    // Separators are ASCII whitespace: U+3000 (ideographic space) is not one.
    let ideographic = "t # 0\nv 0\u{3000}1\n";
    assert_eq!(line_of(ideographic.as_bytes()), (2, "missing or invalid vertex id".into()));
}
