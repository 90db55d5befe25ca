//! Matrix Market (`.mtx`) coordinate-format reader and writer.
//!
//! The paper's dataset is distributed in Matrix Market form; this module
//! implements the subset of the format the study needs: `matrix
//! coordinate` with `real`, `integer` or `pattern` fields and `general`
//! or `symmetric` symmetry. Symmetric files are expanded on read exactly
//! as the paper describes (§4.1): every off-diagonal entry inserts two
//! nonzeros.

use crate::{CooMatrix, CsrMatrix, SparseError};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Parsed Matrix Market header information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarketHeader {
    /// Value field: `real`, `integer` or `pattern`.
    pub field: MarketField,
    /// Symmetry: `general` or `symmetric`.
    pub symmetry: MarketSymmetry,
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of entry lines in the file (before symmetric expansion).
    pub entries: usize,
}

/// Matrix Market value field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketField {
    /// Real-valued entries.
    Real,
    /// Integer-valued entries (read as `f64`).
    Integer,
    /// Pattern-only entries (values set to 1.0).
    Pattern,
}

/// Matrix Market symmetry kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; expanded on read.
    Symmetric,
}

/// The most entries reserved before reading any: the header's count is
/// a claim about the file, not a size to trust.
const RESERVE_CAP: usize = 1 << 20;

fn parse_error(line: usize, message: impl Into<String>) -> SparseError {
    SparseError::Parse {
        line,
        message: message.into(),
    }
}

/// Read a Matrix Market file from disk into CSR form.
pub fn read_matrix_market(path: &Path) -> Result<(CsrMatrix, MarketHeader), SparseError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_impl(BufReader::new(file))
}

/// Parse a Matrix Market document held in memory.
pub fn read_matrix_market_str(text: &str) -> Result<(CsrMatrix, MarketHeader), SparseError> {
    read_matrix_market_impl(BufReader::new(text.as_bytes()))
}

fn read_matrix_market_impl<R: BufRead>(
    mut reader: R,
) -> Result<(CsrMatrix, MarketHeader), SparseError> {
    let mut line = String::new();
    let mut lineno = 0usize;

    // Banner.
    lineno += 1;
    if reader.read_line(&mut line)? == 0 {
        return Err(parse_error(lineno, "empty file"));
    }
    let banner: Vec<String> = line.split_whitespace().map(str::to_lowercase).collect();
    if banner.len() < 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" {
        return Err(parse_error(lineno, "missing %%MatrixMarket matrix banner"));
    }
    if banner[2] != "coordinate" {
        return Err(parse_error(
            lineno,
            format!(
                "unsupported format '{}': only coordinate is supported",
                banner[2]
            ),
        ));
    }
    let field = match banner[3].as_str() {
        "real" => MarketField::Real,
        "integer" => MarketField::Integer,
        "pattern" => MarketField::Pattern,
        other => return Err(parse_error(lineno, format!("unsupported field '{other}'"))),
    };
    let symmetry = match banner[4].as_str() {
        "general" => MarketSymmetry::General,
        "symmetric" => MarketSymmetry::Symmetric,
        other => {
            return Err(parse_error(
                lineno,
                format!("unsupported symmetry '{other}'"),
            ))
        }
    };

    // Size line (skipping comments and blanks).
    let (nrows, ncols, entries) = loop {
        line.clear();
        lineno += 1;
        if reader.read_line(&mut line)? == 0 {
            return Err(parse_error(lineno, "missing size line"));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let nrows: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_error(lineno, "bad row count"))?;
        let ncols: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_error(lineno, "bad column count"))?;
        let entries: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_error(lineno, "bad entry count"))?;
        if nrows > u32::MAX as usize || ncols > u32::MAX as usize {
            return Err(parse_error(
                lineno,
                format!("{nrows}x{ncols} exceeds the 32-bit index limit"),
            ));
        }
        break (nrows, ncols, entries);
    };

    let reserve = entries.min(RESERVE_CAP);
    let mut coo = CooMatrix::with_capacity(
        nrows,
        ncols,
        if symmetry == MarketSymmetry::Symmetric {
            reserve * 2
        } else {
            reserve
        },
    );
    let mut seen = 0usize;
    while seen < entries {
        line.clear();
        lineno += 1;
        if reader.read_line(&mut line)? == 0 {
            return Err(parse_error(
                lineno,
                format!("expected {entries} entries, found {seen}"),
            ));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_error(lineno, "bad row index"))?;
        let c: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_error(lineno, "bad column index"))?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(parse_error(
                lineno,
                format!("index ({r}, {c}) out of bounds (1-based) for {nrows}x{ncols}"),
            ));
        }
        let v = match field {
            MarketField::Pattern => 1.0,
            MarketField::Real | MarketField::Integer => it
                .next()
                .and_then(|t| t.parse::<f64>().ok())
                .ok_or_else(|| parse_error(lineno, "bad value"))?,
        };
        // `str::parse` accepts `NaN` and `inf`; no SpMV answer survives
        // one.
        if !v.is_finite() {
            return Err(parse_error(lineno, format!("non-finite value {v}")));
        }
        match symmetry {
            MarketSymmetry::General => coo.push(r - 1, c - 1, v),
            MarketSymmetry::Symmetric => coo.push_symmetric(r - 1, c - 1, v),
        }
        seen += 1;
    }
    // The header's count is the whole file: a further entry is not
    // dropped but refused.
    loop {
        line.clear();
        lineno += 1;
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('%') {
            return Err(parse_error(
                lineno,
                format!("data past the {entries} declared entries"),
            ));
        }
    }

    let header = MarketHeader {
        field,
        symmetry,
        nrows,
        ncols,
        entries,
    };
    Ok((CsrMatrix::from_coo(&coo), header))
}

/// Write a matrix to disk in `general real coordinate` Matrix Market form.
pub fn write_matrix_market(path: &Path, a: &CsrMatrix) -> Result<(), SparseError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (i, j, v) in a.iter() {
        writeln!(w, "{} {} {v}", i + 1, j + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 2.5\n\
                    2 3 -1\n\
                    3 1 4.0\n\
                    3 3 1e2\n";
        let (a, h) = read_matrix_market_str(text).unwrap();
        assert_eq!(h.nrows, 3);
        assert_eq!(h.field, MarketField::Real);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), Some(2.5));
        assert_eq!(a.get(1, 2), Some(-1.0));
        assert_eq!(a.get(2, 2), Some(100.0));
    }

    #[test]
    fn parse_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 3\n\
                    1 1 1.0\n\
                    2 1 5.0\n\
                    3 3 2.0\n";
        let (a, h) = read_matrix_market_str(text).unwrap();
        assert_eq!(h.symmetry, MarketSymmetry::Symmetric);
        assert_eq!(a.nnz(), 4); // diagonal entries not doubled
        assert_eq!(a.get(0, 1), Some(5.0));
        assert_eq!(a.get(1, 0), Some(5.0));
    }

    #[test]
    fn parse_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 2\n\
                    2 1\n";
        let (a, h) = read_matrix_market_str(text).unwrap();
        assert_eq!(h.field, MarketField::Pattern);
        assert_eq!(a.get(0, 1), Some(1.0));
        assert_eq!(a.get(1, 0), Some(1.0));
    }

    #[test]
    fn rejects_bad_banner_and_indices() {
        assert!(read_matrix_market_str("nonsense\n1 1 0\n").is_err());
        assert!(read_matrix_market_str(
            "%%MatrixMarket matrix array real general\n2 2 1\n1 1 1.0\n"
        )
        .is_err());
        // 0-based index is invalid (format is 1-based).
        assert!(read_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"
        )
        .is_err());
        // Out-of-range index.
        assert!(read_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        .is_err());
        // Truncated entries.
        assert!(read_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        .is_err());
    }

    #[test]
    fn an_entry_past_the_declared_count_is_a_parse_error() {
        let err = read_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n% note\n\n2 2 2.0\n",
        )
        .unwrap_err();
        assert!(
            matches!(&err, SparseError::Parse { line: 6, message } if message.contains("1 declared")),
            "{err}"
        );
        // Trailing comments and blank lines are still fine.
        let (a, _) = read_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n% end\n\n",
        )
        .unwrap();
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn a_non_finite_value_is_a_parse_error() {
        for value in ["NaN", "inf", "-inf", "1e999"] {
            let err = read_matrix_market_str(&format!(
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 1 {value}\n"
            ))
            .unwrap_err();
            assert!(
                matches!(&err, SparseError::Parse { line: 4, message } if message.contains("non-finite")),
                "{value}: {err}"
            );
        }
    }

    #[test]
    fn dimensions_past_the_index_limit_are_a_parse_error() {
        let err = read_matrix_market_str(
            "%%MatrixMarket matrix coordinate real general\n4294967298 4294967298 1\n1 1 1.0\n",
        )
        .unwrap_err();
        assert!(
            matches!(&err, SparseError::Parse { line: 2, message } if message.contains("32-bit")),
            "{err}"
        );
    }

    #[test]
    fn a_huge_entry_count_is_read_not_reserved() {
        let err = read_matrix_market_str(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 9223372036854775807\n2 1 1.0\n",
        )
        .unwrap_err();
        assert!(
            matches!(&err, SparseError::Parse { message, .. } if message.contains("found 1")),
            "{err}"
        );
    }

    #[test]
    fn write_read_roundtrip() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 3, 1.5);
        coo.push(2, 0, -2.25);
        coo.push(1, 1, 7.0);
        let a = CsrMatrix::from_coo(&coo);

        let dir = std::env::temp_dir().join("sparsemat_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.mtx");
        write_matrix_market(&path, &a).unwrap();
        let (b, h) = read_matrix_market(&path).unwrap();
        assert_eq!(h.nrows, 3);
        assert_eq!(h.ncols, 4);
        assert_eq!(b, a);
        std::fs::remove_file(&path).ok();
    }
}
