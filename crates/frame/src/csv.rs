//! CSV import/export for DataFrames.
//!
//! The pipeline's end product — the state representation — is handed to
//! domain experts and downstream mining tools; CSV is the lingua franca for
//! both. Quoting follows RFC 4180 (fields containing `,`, `"` or newlines
//! are quoted; quotes double).

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

use crate::batch::Batch;
use crate::column::Column;
use crate::datatype::{DataType, Schema};
use crate::error::{Error, Result};
use crate::frame::DataFrame;
use crate::value::Value;

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes the frame as CSV with a header row. A `&mut` reference to any
/// writer can be passed.
///
/// Nulls serialize as empty fields; byte payloads as lowercase hex.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv<W: Write>(frame: &DataFrame, mut writer: W) -> Result<()> {
    let io = |e: std::io::Error| Error::Eval(format!("csv write failed: {e}"));
    let header: Vec<String> = frame
        .schema()
        .fields()
        .iter()
        .map(|f| escape(f.name()))
        .collect();
    writeln!(writer, "{}", header.join(",")).map_err(io)?;
    for batch in frame.partitions() {
        for row in 0..batch.num_rows() {
            let cells: Vec<String> = (0..batch.num_columns())
                .map(|ci| match batch.column(ci).get(row) {
                    Value::Null => String::new(),
                    other => escape(&other.to_string()),
                })
                .collect();
            writeln!(writer, "{}", cells.join(",")).map_err(io)?;
        }
    }
    Ok(())
}

/// Splits one CSV record into fields, honoring RFC 4180 quoting.
fn split_record(line: &str) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(ch) = chars.next() {
        if quoted {
            match ch {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => quoted = false,
                other => field.push(other),
            }
        } else {
            match ch {
                '"' if field.is_empty() => quoted = true,
                ',' => fields.push(std::mem::take(&mut field)),
                other => field.push(other),
            }
        }
    }
    if quoted {
        return Err(Error::Eval("csv record has unterminated quote".into()));
    }
    fields.push(field);
    Ok(fields)
}

fn parse_cell(cell: &str, dtype: DataType) -> Result<Value> {
    if cell.is_empty() {
        return Ok(Value::Null);
    }
    Ok(match dtype {
        DataType::Bool => Value::Bool(
            cell.parse()
                .map_err(|_| Error::Eval(format!("csv cell {cell:?} is not a bool")))?,
        ),
        DataType::Int => Value::Int(
            cell.parse()
                .map_err(|_| Error::Eval(format!("csv cell {cell:?} is not an int")))?,
        ),
        DataType::Float => Value::Float(
            cell.parse()
                .map_err(|_| Error::Eval(format!("csv cell {cell:?} is not a float")))?,
        ),
        DataType::Str => Value::from(cell),
        DataType::Bytes => {
            if !cell.len().is_multiple_of(2) {
                return Err(Error::Eval(format!("csv cell {cell:?} is not hex bytes")));
            }
            let bytes = (0..cell.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&cell[i..i + 2], 16))
                .collect::<std::result::Result<Vec<u8>, _>>()
                .map_err(|_| Error::Eval(format!("csv cell {cell:?} is not hex bytes")))?;
            Value::from(bytes)
        }
    })
}

/// Rows per partition batch produced by [`read_csv`]. Bounds the working
/// set of the parse (one batch of columns) independent of file size, and
/// gives downstream operators partitions to parallelize over.
const READ_BATCH_ROWS: usize = 8 * 1024;

/// Reads CSV written by [`write_csv`] into a frame with the given schema
/// (the header row is validated against it). A `&mut` reference to any
/// reader can be passed.
///
/// The input is streamed: one reused line buffer plus at most
/// `READ_BATCH_ROWS` decoded rows are held at a time, and every
/// `READ_BATCH_ROWS` rows are sealed into their own partition. Line
/// endings may be LF or CRLF. Errors cite the 1-based physical line of
/// the offending record.
///
/// # Errors
///
/// Returns [`Error::SchemaMismatch`] for header/schema disagreement or
/// field-count mismatches, and [`Error::Eval`] for unparsable cells and
/// I/O failures.
pub fn read_csv<R: Read>(reader: R, schema: Arc<Schema>) -> Result<DataFrame> {
    let mut reader = BufReader::new(reader);
    let mut line = String::new();
    let mut line_no = 0u64;
    if read_trimmed_line(&mut reader, &mut line, &mut line_no)?.is_none() {
        return Err(Error::Eval("csv input is empty".into()));
    }
    let names = split_record(&line)?;
    let expected: Vec<&str> = schema.fields().iter().map(|f| f.name()).collect();
    if names != expected {
        return Err(Error::SchemaMismatch(format!(
            "csv header {names:?} does not match schema {expected:?}"
        )));
    }
    let new_columns = |schema: &Schema| -> Vec<Column> {
        schema
            .fields()
            .iter()
            .map(|f| Column::new_empty(f.data_type()))
            .collect()
    };
    let mut columns = new_columns(&schema);
    let mut batch_rows = 0usize;
    let mut batches = Vec::new();
    while read_trimmed_line(&mut reader, &mut line, &mut line_no)?.is_some() {
        if line.is_empty() {
            continue;
        }
        let cells =
            split_record(&line).map_err(|e| Error::Eval(format!("csv line {line_no}: {e}")))?;
        if cells.len() != schema.len() {
            return Err(Error::SchemaMismatch(format!(
                "csv line {} has {} fields, schema has {}",
                line_no,
                cells.len(),
                schema.len()
            )));
        }
        for (ci, cell) in cells.iter().enumerate() {
            let value = parse_cell(cell, schema.fields()[ci].data_type())
                .map_err(|e| Error::Eval(format!("csv line {line_no}: {e}")))?;
            columns[ci].push(value)?;
        }
        batch_rows += 1;
        if batch_rows >= READ_BATCH_ROWS {
            batches.push(Batch::new(
                schema.clone(),
                std::mem::replace(&mut columns, new_columns(&schema)),
            )?);
            batch_rows = 0;
        }
    }
    if batch_rows > 0 || batches.is_empty() {
        batches.push(Batch::new(schema.clone(), columns)?);
    }
    DataFrame::from_partitions(schema, batches)
}

/// Reads one physical line into `line` (reusing its allocation), strips
/// the LF / CRLF terminator, and bumps the line counter. Returns `None`
/// at end of input.
fn read_trimmed_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    line_no: &mut u64,
) -> Result<Option<()>> {
    line.clear();
    let n = reader
        .read_line(line)
        .map_err(|e| Error::Eval(format!("csv read failed: {e}")))?;
    if n == 0 {
        return Ok(None);
    }
    *line_no += 1;
    if line.ends_with('\n') {
        line.pop();
        if line.ends_with('\r') {
            line.pop();
        }
    }
    Ok(Some(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Field;

    fn frame() -> DataFrame {
        let schema = Schema::from_pairs([
            ("t", DataType::Float),
            ("name", DataType::Str),
            ("n", DataType::Int),
            ("ok", DataType::Bool),
            ("raw", DataType::Bytes),
        ])
        .unwrap()
        .into_shared();
        DataFrame::from_rows(
            schema,
            vec![
                vec![
                    Value::Float(1.5),
                    Value::from("plain"),
                    Value::Int(-3),
                    Value::Bool(true),
                    Value::from(vec![0xAB, 0x01]),
                ],
                vec![
                    Value::Float(2.0),
                    Value::from("has,comma and \"quote\""),
                    Value::Null,
                    Value::Bool(false),
                    Value::Null,
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let f = frame();
        let mut buf = Vec::new();
        write_csv(&f, &mut buf).unwrap();
        let parsed = read_csv(buf.as_slice(), f.schema().clone()).unwrap();
        assert_eq!(parsed.collect_rows().unwrap(), f.collect_rows().unwrap());
    }

    #[test]
    fn quoting_follows_rfc4180() {
        let f = frame();
        let mut buf = Vec::new();
        write_csv(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"has,comma and \"\"quote\"\"\""));
        assert!(text.starts_with("t,name,n,ok,raw\n"));
    }

    #[test]
    fn nulls_are_empty_fields() {
        let f = frame();
        let mut buf = Vec::new();
        write_csv(&f, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let second = text.lines().nth(2).unwrap();
        assert!(second.ends_with(",false,"));
    }

    #[test]
    fn header_mismatch_rejected() {
        let f = frame();
        let mut buf = Vec::new();
        write_csv(&f, &mut buf).unwrap();
        let other = Schema::new(vec![Field::new("x", DataType::Int)])
            .unwrap()
            .into_shared();
        assert!(matches!(
            read_csv(buf.as_slice(), other),
            Err(Error::SchemaMismatch(_))
        ));
    }

    #[test]
    fn bad_cells_rejected() {
        let schema = Schema::from_pairs([("n", DataType::Int)])
            .unwrap()
            .into_shared();
        let err = read_csv("n\nabc\n".as_bytes(), schema.clone()).unwrap_err();
        assert!(matches!(err, Error::Eval(_)));
        let err = read_csv("n\n1,2\n".as_bytes(), schema).unwrap_err();
        assert!(matches!(err, Error::SchemaMismatch(_)));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let schema = Schema::from_pairs([("s", DataType::Str)])
            .unwrap()
            .into_shared();
        assert!(read_csv("s\n\"oops\n".as_bytes(), schema).is_err());
    }

    #[test]
    fn empty_rows_skipped() {
        let schema = Schema::from_pairs([("s", DataType::Str)])
            .unwrap()
            .into_shared();
        let f = read_csv("s\na\n\nb\n".as_bytes(), schema).unwrap();
        assert_eq!(f.num_rows(), 2);
    }

    #[test]
    fn crlf_line_endings_accepted() {
        let schema = Schema::from_pairs([("s", DataType::Str), ("n", DataType::Int)])
            .unwrap()
            .into_shared();
        let f = read_csv("s,n\r\na,1\r\n\r\nb,2\r\n".as_bytes(), schema).unwrap();
        assert_eq!(f.num_rows(), 2);
        let rows = f.collect_rows().unwrap();
        // The \r is part of the terminator, not the last field.
        assert_eq!(rows[0][0], Value::from("a"));
        assert_eq!(rows[1][1], Value::Int(2));
    }

    #[test]
    fn errors_cite_physical_lines() {
        let schema = Schema::from_pairs([("n", DataType::Int)])
            .unwrap()
            .into_shared();
        // Bad cell on physical line 5 (header, row, two blanks, bad row).
        let err = read_csv("n\n1\n\n\nabc\n".as_bytes(), schema.clone()).unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
        // Field-count mismatch on physical line 3.
        let err = read_csv("n\n1\n2,3\n".as_bytes(), schema).unwrap_err();
        assert!(
            matches!(&err, Error::SchemaMismatch(m) if m.contains("line 3")),
            "{err}"
        );
    }

    #[test]
    fn long_inputs_stream_into_multiple_partitions() {
        let schema = Schema::from_pairs([("n", DataType::Int)])
            .unwrap()
            .into_shared();
        let mut text = String::from("n\n");
        let total = READ_BATCH_ROWS + 17;
        for i in 0..total {
            text.push_str(&i.to_string());
            text.push('\n');
        }
        let f = read_csv(text.as_bytes(), schema).unwrap();
        assert_eq!(f.num_rows(), total);
        assert_eq!(f.num_partitions(), 2);
        let rows = f.collect_rows().unwrap();
        assert_eq!(rows[total - 1][0], Value::Int(total as i64 - 1));
    }
}
