//! Text serialization of pattern sets, so mining results can be stored,
//! diffed, and consumed by other tools.
//!
//! One pattern per line: the support followed by the canonical DFS code as
//! whitespace-separated 5-tuples.
//!
//! ```text
//! # support  (i j l_i l_e l_j)*
//! 412  0 1 0 5 1
//! 230  0 1 0 5 1  1 2 1 6 2
//! ```

use std::io::{BufRead, Write};
use std::sync::Arc;

use crate::dfscode::is_min_with;
use crate::{DfsCode, DfsEdge, Pattern, PatternSet};

/// Errors from parsing the pattern format.
#[derive(Debug)]
pub enum PatternParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for PatternParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternParseError::Io(e) => write!(f, "I/O error: {e}"),
            PatternParseError::Malformed { line, what } => write!(f, "line {line}: {what}"),
        }
    }
}

impl std::error::Error for PatternParseError {}

impl From<std::io::Error> for PatternParseError {
    fn from(e: std::io::Error) -> Self {
        PatternParseError::Io(e)
    }
}

/// Writes a pattern set, sorted by descending support then canonical code
/// (deterministic output for diffing).
///
/// # Errors
///
/// Propagates write failures.
pub fn write_patterns(mut writer: impl Write, set: &PatternSet) -> std::io::Result<()> {
    let mut sorted: Vec<&Pattern> = set.iter().collect();
    sorted.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.code.cmp(&b.code)));
    writeln!(writer, "# support  (i j l_i l_e l_j)*")?;
    for p in sorted {
        write!(writer, "{}", p.support)?;
        for e in &p.code.0 {
            write!(
                writer,
                "  {} {} {} {} {}",
                e.from, e.to, e.from_label, e.edge_label, e.to_label
            )?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Parses a pattern set. Codes are validated: they must parse as integer
/// 5-tuples, rebuild into a graph, be canonical (minimum DFS codes), and
/// appear once.
///
/// # Errors
///
/// I/O failures, malformed or non-canonical lines, and a code on a second
/// line (the earliest such line is named).
pub fn read_patterns(reader: impl BufRead) -> Result<PatternSet, PatternParseError> {
    let mut read: Vec<(usize, Pattern)> = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut nums = content.split_whitespace().map(str::parse::<u32>);
        fn next(
            nums: &mut impl Iterator<Item = Result<u32, std::num::ParseIntError>>,
            lineno: usize,
            what: &str,
        ) -> Result<u32, PatternParseError> {
            match nums.next() {
                Some(Ok(v)) => Ok(v),
                _ => Err(PatternParseError::Malformed {
                    line: lineno,
                    what: format!("missing or invalid {what}"),
                }),
            }
        }
        let support = next(&mut nums, lineno, "support")?;
        let mut edges = Vec::new();
        loop {
            let from = match nums.next() {
                None => break,
                Some(Ok(v)) => v,
                Some(Err(_)) => {
                    return Err(PatternParseError::Malformed {
                        line: lineno,
                        what: "invalid code entry".into(),
                    })
                }
            };
            let to = next(&mut nums, lineno, "to")?;
            let fl = next(&mut nums, lineno, "from label")?;
            let el = next(&mut nums, lineno, "edge label")?;
            let tl = next(&mut nums, lineno, "to label")?;
            edges.push(DfsEdge::new(from, to, fl, el, tl));
        }
        if edges.is_empty() {
            return Err(PatternParseError::Malformed { line: lineno, what: "empty code".into() });
        }
        let code = DfsCode(edges);
        let graph = code
            .try_to_graph()
            .map_err(|what| PatternParseError::Malformed { line: lineno, what })?;
        if !is_min_with(&code, &graph) {
            return Err(PatternParseError::Malformed {
                line: lineno,
                what: "code is not a minimum DFS code".into(),
            });
        }
        read.push((lineno, Pattern { code, graph: Arc::new(graph), support }));
    }
    // The stable sort keeps a repeated code's lines in file order.
    read.sort_by(|a, b| a.1.code.cmp(&b.1.code));
    let repeats = read.windows(2).filter(|w| w[0].1.code == w[1].1.code);
    if let Some((line, first)) = repeats.map(|w| (w[1].0, w[0].0)).min() {
        return Err(PatternParseError::Malformed {
            line,
            what: format!("duplicate code (first on line {first})"),
        });
    }
    Ok(read.into_iter().map(|(_, p)| p).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfscode::min_dfs_code;
    use crate::Graph;

    fn sample_set() -> PatternSet {
        let mut g1 = Graph::new();
        let a = g1.add_vertex(0);
        let b = g1.add_vertex(1);
        g1.add_edge(a, b, 5).unwrap();
        let mut g2 = g1.clone();
        let c = g2.add_vertex(2);
        g2.add_edge(1, c, 6).unwrap();
        vec![Pattern::from_code(min_dfs_code(&g1), 412), Pattern::from_code(min_dfs_code(&g2), 230)]
            .into_iter()
            .collect()
    }

    #[test]
    fn round_trip() {
        let set = sample_set();
        let mut bytes = Vec::new();
        write_patterns(&mut bytes, &set).unwrap();
        let back = read_patterns(&bytes[..]).unwrap();
        assert!(back.same_codes_and_supports(&set));
    }

    #[test]
    fn output_is_deterministic() {
        let set = sample_set();
        let mut a = Vec::new();
        write_patterns(&mut a, &set).unwrap();
        let mut b = Vec::new();
        write_patterns(&mut b, &set).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_and_non_canonical() {
        assert!(read_patterns("garbage\n".as_bytes()).is_err());
        assert!(read_patterns("5  0 1 0\n".as_bytes()).is_err(), "truncated tuple");
        assert!(read_patterns("5\n".as_bytes()).is_err(), "empty code");
        // A structurally valid but non-minimum code: the triangle code
        // starting with the 'wrong' orientation.
        let non_min = "5  0 1 1 0 0\n";
        assert!(read_patterns(non_min.as_bytes()).is_err(), "non-canonical rejected");
        // Structurally invalid codes are errors, not panics.
        for bad in [
            "5  0 2 0 0 0\n",            // forward edge skips vertex 1
            "5  0 1 0 0 0  0 1 0 0 0\n", // forward edge rediscovers vertex 1
            "5  0 0 0 0 0\n",            // self-loop
            "5  0 1 0 0 0  1 0 0 0 0\n", // duplicate edge as a backward one
            "5  0 4294967295 0 0 0\n",   // vertex id at the top of u32
        ] {
            let err = read_patterns(bad.as_bytes()).unwrap_err();
            assert!(err.to_string().starts_with("line 1: invalid DFS code"), "{bad:?}: {err}");
        }
        // One code on two lines is refused, naming both lines.
        let dup = "5  0 1 0 5 1\n4  0 1 0 0 0\n9  0 1 0 5 1\n";
        let err = read_patterns(dup.as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "line 3: duplicate code (first on line 1)");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\n3  0 1 0 5 1  # trailing comment\n";
        let set = read_patterns(text.as_bytes()).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap().support, 3);
    }
}
