//! The one table printer: any suite's JSON rows as a fixed-width table.

use serde_json::Value;

/// Print a JSON array of rows as a table under `title`: one line per row,
/// one column per scalar leaf. Nested objects become `outer.inner` columns
/// (a row that is itself an array, like a tuple, is keyed by index), arrays
/// of scalars are joined with spaces and arrays of objects show their
/// length. Text and boolean columns come first; the rest are in name order.
pub fn print_rows(title: &str, json: &str) {
    println!("\n== {title} ==");
    let Ok(Value::Array(rows)) = serde_json::from_str(json) else {
        return println!("(not a JSON array of rows)");
    };
    let rows: Vec<Vec<Leaf>> = rows.iter().map(|r| flatten(r, "")).collect();
    let mut columns: Vec<(&str, bool)> = Vec::new();
    for (path, _, label) in rows.iter().flatten() {
        if !columns.iter().any(|(c, _)| c == path) {
            columns.push((path, *label));
        }
    }
    columns.sort_by_key(|(_, label)| !label);
    let header: Vec<String> = columns.iter().map(|(c, _)| c.to_string()).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let text = |c: &str| row.iter().find(|(p, ..)| p == c).map(|(_, t, _)| t.clone());
            header.iter().map(|c| text(c).unwrap_or_default()).collect()
        })
        .collect();
    let widths: Vec<usize> = (0..header.len())
        .map(|i| {
            cells
                .iter()
                .map(|r| r[i].len())
                .fold(header[i].len(), usize::max)
        })
        .collect();
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", padded.join("  "));
    };
    line(&header);
    println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum()));
    for row in &cells {
        line(row);
    }
}

/// A scalar leaf of a row: its dotted path, its cell text, and whether it
/// labels the row (a string or a boolean) rather than measuring it.
type Leaf = (String, String, bool);

/// The leaves of `value`, keyed by their path under `prefix`.
fn flatten(value: &Value, prefix: &str) -> Vec<Leaf> {
    let path = |key: String| match prefix {
        "" => key,
        _ => format!("{prefix}.{key}"),
    };
    let children: Vec<(String, &Value)> = match value {
        Value::Object(fields) => fields.iter().map(|(k, v)| (path(k.clone()), v)).collect(),
        Value::Array(items) if prefix.is_empty() => items
            .iter()
            .enumerate()
            .map(|(i, v)| (i.to_string(), v))
            .collect(),
        Value::Array(items) => {
            let text = if items
                .iter()
                .any(|v| matches!(v, Value::Object(_) | Value::Array(_)))
            {
                format!("[{}]", items.len())
            } else {
                items.iter().map(cell).collect::<Vec<_>>().join(" ")
            };
            return vec![(prefix.to_string(), text, false)];
        }
        scalar => {
            let label = matches!(scalar, Value::String(_) | Value::Bool(_));
            return vec![(prefix.to_string(), cell(scalar), label)];
        }
    };
    children
        .into_iter()
        .flat_map(|(k, v)| flatten(v, &k))
        .collect()
}

/// One table cell: whole numbers as integers, fractions to about four
/// significant digits.
fn cell(value: &Value) -> String {
    match value {
        Value::Null => "-".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::String(s) => s.clone(),
        Value::Number(n) if n.fract() == 0.0 => format!("{n:.0}"),
        Value::Number(n) if n.abs() >= 100.0 => format!("{n:.1}"),
        Value::Number(n) if n.abs() >= 1.0 => format!("{n:.2}"),
        Value::Number(n) => format!("{n:.4}"),
        nested => format!("{nested:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_flatten_into_dotted_scalar_columns() {
        let row = serde_json::from_str(
            r#"{"mode": "warm", "recovery": {"losers": 3, "share": 0.5},
                "runs": [0.25, 1.0], "windows": [{"tpm": 9}]}"#,
        )
        .unwrap();
        let cells: Vec<(String, String)> = flatten(&row, "")
            .into_iter()
            .map(|(path, text, _)| (path, text))
            .collect();
        let expect = [
            ("mode", "warm"),
            ("recovery.losers", "3"),
            ("recovery.share", "0.5000"),
            ("runs", "0.2500 1"),
            ("windows", "[1]"),
        ];
        assert_eq!(
            cells,
            expect.map(|(k, v)| (k.to_string(), v.to_string())).to_vec()
        );
    }

    #[test]
    fn tuple_rows_are_keyed_by_index_and_ragged_rows_print() {
        let tuple = serde_json::from_str(r#"["read-only", 0.25, {"hits": 4}]"#).unwrap();
        let keys: Vec<String> = flatten(&tuple, "").into_iter().map(|(k, ..)| k).collect();
        assert_eq!(keys, ["0", "1", "2.hits"]);
        print_rows("demo", r#"[{"a": 1}, {"b": "x", "a": 1234.5678}, 7]"#);
        print_rows("broken", "[");
    }
}
