//! Plain-text table rendering for the reproduce harness.

/// Renders a fixed-width table with a header rule, matching the
/// row/column layout of the paper's tables.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("{h:<w$}  "));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (c, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{c:<w$}  "));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Two-decimal formatting used for F1/P/R cells.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Percentage formatting for gain columns.
pub fn pct(v: f64) -> String {
    format!("{:+.1}%", v * 100.0)
}

/// Seconds with two decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            "T",
            &["a", "long-header"],
            &[vec!["x".into(), "1".into()], vec!["yyyy".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].starts_with("a     long-header"));
        assert!(lines[3].starts_with("x     1"));
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(0.666), "0.67");
        assert_eq!(pct(0.4704), "+47.0%");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.50");
    }
}
