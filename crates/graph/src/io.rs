//! Text serialization of graph databases in the de-facto standard gSpan
//! format, so databases can be exchanged with other miners:
//!
//! ```text
//! t # 0          # graph 0
//! v 0 3          # vertex 0, label 3
//! v 1 5
//! e 0 1 2        # edge between vertices 0 and 1, label 2
//! t # 1
//! ...
//! ```
//!
//! Lines whose first non-blank byte is `#` (and blank lines) are ignored; a
//! `t # -1` sentinel (emitted by some tools) ends the stream. Separators are
//! ASCII whitespace.

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use crate::graph::check_endpoints;
use crate::{CsrScratch, Graph, GraphDb};

/// Errors from parsing the gSpan text format.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Malformed { line, what } => write!(f, "line {line}: {what}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses a graph database from gSpan-format text.
///
/// Lines are read as bytes and split on ASCII whitespace; nothing is decoded
/// as UTF-8, so a comment may hold any bytes. A line whose first non-blank
/// byte is `#` is a comment; a `t` line takes its id from the token after the
/// `#` marker, and a negative id ends the stream. Each graph is collected as
/// a label vector and an edge list in buffers reused from graph to graph,
/// then built in one pass ([`Graph::from_edges`]).
///
/// # Errors
///
/// I/O failures and malformed lines (unknown record type, bad numbers,
/// out-of-order vertex ids, invalid edges) — the first one in the file.
pub fn read_db(mut reader: impl BufRead) -> Result<GraphDb, ParseError> {
    let mut db = GraphDb::new();
    let mut pending = Pending::default();
    // The start of a line the last buffer ended inside.
    let mut carry = Vec::new();
    let mut lineno = 0;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            break;
        }
        let mut rest = buf;
        while let Some(end) = rest.iter().position(|&b| b == b'\n') {
            let (mut line, tail) = rest.split_at(end + 1);
            rest = tail;
            if !carry.is_empty() {
                carry.extend_from_slice(line);
                line = &carry;
            }
            lineno += 1;
            if pending.step(line, lineno, &mut db)? == Flow::EndOfStream {
                return Ok(db);
            }
            carry.clear();
        }
        carry.extend_from_slice(rest);
        let read = buf.len();
        reader.consume(read);
    }
    if !carry.is_empty() {
        lineno += 1;
        if pending.step(&carry, lineno, &mut db)? == Flow::EndOfStream {
            return Ok(db);
        }
    }
    pending.finish(&mut db)?;
    Ok(db)
}

#[derive(PartialEq)]
enum Flow {
    Continue,
    EndOfStream,
}

/// The graph being read: its records so far, and the buffers every graph
/// of the file is collected in.
#[derive(Default)]
struct Pending {
    open: bool,
    vlabels: Vec<u32>,
    edges: Vec<(u32, u32, u32)>,
    /// Line number of each entry of `edges`.
    edge_lines: Vec<usize>,
    scratch: CsrScratch,
}

impl Pending {
    /// [`Pending::record`], except that an error first builds the open
    /// graph: a duplicate edge on an earlier line of it is the first error.
    fn step(&mut self, line: &[u8], lineno: usize, db: &mut GraphDb) -> Result<Flow, ParseError> {
        self.record(line, lineno, db).or_else(|e| {
            self.finish(db)?;
            Err(e)
        })
    }

    fn record(&mut self, line: &[u8], lineno: usize, db: &mut GraphDb) -> Result<Flow, ParseError> {
        let malformed = |what: String| ParseError::Malformed { line: lineno, what };
        let mut parts = line.split(u8::is_ascii_whitespace).filter(|t| !t.is_empty());
        match parts.next() {
            None => {}
            Some([b'#', ..]) => {}
            Some(b"t") => {
                // `t # <id>`; a negative id is the end-of-stream sentinel.
                let id = match parts.next() {
                    Some(b"#") => parts.next(),
                    unmarked => unmarked,
                };
                self.finish(db)?;
                if id.is_some_and(|id| id.starts_with(b"-")) {
                    return Ok(Flow::EndOfStream);
                }
                self.open = true;
            }
            Some(b"v") => {
                if !self.open {
                    return Err(malformed("vertex before any `t` line".into()));
                }
                let id = parse(parts.next(), lineno, "vertex id")?;
                let label = parse(parts.next(), lineno, "vertex label")?;
                if id as usize != self.vlabels.len() {
                    return Err(malformed(format!(
                        "vertex id {id} out of order (expected {})",
                        self.vlabels.len()
                    )));
                }
                self.vlabels.push(label);
            }
            Some(b"e") => {
                if !self.open {
                    return Err(malformed("edge before any `t` line".into()));
                }
                let u = parse(parts.next(), lineno, "edge endpoint")?;
                let v = parse(parts.next(), lineno, "edge endpoint")?;
                let label = parse(parts.next(), lineno, "edge label")?;
                // Against the vertices declared so far, as `add_edge` would.
                check_endpoints(self.vlabels.len() as u32, u, v)
                    .map_err(|e| malformed(e.to_string()))?;
                self.edges.push((u, v, label));
                self.edge_lines.push(lineno);
            }
            Some(other) => {
                let other = String::from_utf8_lossy(other);
                return Err(malformed(format!("unknown record type `{other}`")));
            }
        }
        Ok(Flow::Continue)
    }

    /// Builds the open graph, if any, into `db` and empties the buffers.
    fn finish(&mut self, db: &mut GraphDb) -> Result<(), ParseError> {
        if !std::mem::take(&mut self.open) {
            return Ok(());
        }
        let built = Graph::from_edges(&self.vlabels, &self.edges, &mut self.scratch).map_err(
            |(edge, e)| ParseError::Malformed { line: self.edge_lines[edge], what: e.to_string() },
        );
        self.vlabels.clear();
        self.edges.clear();
        self.edge_lines.clear();
        db.push(built?);
        Ok(())
    }
}

/// Writes a graph database in gSpan-format text.
///
/// # Errors
///
/// Propagates write failures.
pub fn write_db(mut writer: impl Write, db: &GraphDb) -> std::io::Result<()> {
    let mut buf = String::new();
    for (gid, g) in db.iter() {
        buf.clear();
        let _ = writeln!(buf, "t # {gid}");
        for v in 0..g.vertex_count() as u32 {
            let _ = writeln!(buf, "v {v} {}", g.vlabel(v));
        }
        for (_, u, v, el) in g.edges() {
            let _ = writeln!(buf, "e {u} {v} {el}");
        }
        writer.write_all(buf.as_bytes())?;
    }
    writer.write_all(b"t # -1\n")?;
    Ok(())
}

fn parse(token: Option<&[u8]>, line: usize, what: &str) -> Result<u32, ParseError> {
    token
        .and_then(parse_u32)
        .ok_or_else(|| ParseError::Malformed { line, what: format!("missing or invalid {what}") })
}

/// A decimal `u32` with an optional leading `+` — what `str::parse::<u32>`
/// accepts — or `None`.
fn parse_u32(token: &[u8]) -> Option<u32> {
    let digits = token.strip_prefix(b"+").unwrap_or(token);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u32, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u32::from(d))
    })
}

#[cfg(test)]
mod tests;
