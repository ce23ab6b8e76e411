//! Plain-text table formatting and JSON report writing for the
//! reproduction binaries.

use mcsim::json::Value;

/// Print a titled table: a header row and aligned numeric rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(header.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// A report number, rounded to the three decimals the committed
/// `BENCH_*.json` files carry (more would only record noise).
pub fn num(x: f64) -> Value {
    Value::Num((x * 1e3).round() / 1e3)
}

/// Write a JSON report file through the workspace codec (adds a trailing
/// newline).
pub fn write_report(path: &str, report: &Value) -> std::io::Result<()> {
    std::fs::write(path, report.to_json() + "\n")
}

/// Format a simulated-milliseconds value the way the paper prints times.
pub fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_keeps_three_decimals() {
        assert_eq!(num(87.06649).to_json(), "87.066");
        assert_eq!(num(5.0).to_json(), "5.0");
    }

    #[test]
    fn fmt_ms_ranges() {
        assert_eq!(fmt_ms(1234.5), "1234");
        assert_eq!(fmt_ms(56.78), "56.8");
        assert_eq!(fmt_ms(3.456), "3.46");
    }

    #[test]
    fn print_table_is_total() {
        // Smoke test: must not panic on uneven widths.
        print_table(
            "t",
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333333".into(), "4".into()],
            ],
        );
    }
}
