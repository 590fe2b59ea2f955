//! Table formatting and simple statistics for the harness output.

use std::time::Duration;

/// Mean, standard deviation and best (smallest) of a sample of
/// durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: Duration,
    /// Population standard deviation.
    pub stddev: Duration,
    /// The smallest sample: a host stall only ever adds time, so the
    /// best of several reps is the estimate one stall cannot move.
    pub best: Duration,
}

/// Computes [`Stats`] over a sample.
pub fn stats(samples: &[Duration]) -> Stats {
    if samples.is_empty() {
        return Stats {
            mean: Duration::ZERO,
            stddev: Duration::ZERO,
            best: Duration::ZERO,
        };
    }
    let mean_ns = samples.iter().map(|d| d.as_nanos()).sum::<u128>() / samples.len() as u128;
    let variance = samples
        .iter()
        .map(|d| {
            let diff = d.as_nanos().abs_diff(mean_ns);
            diff * diff
        })
        .sum::<u128>()
        / samples.len() as u128;
    Stats {
        mean: Duration::from_nanos(mean_ns as u64),
        stddev: Duration::from_nanos((variance as f64).sqrt() as u64),
        best: samples.iter().copied().min().unwrap_or_default(),
    }
}

/// A fixed-width text table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (index, cell) in row.iter().enumerate() {
                widths[index] = widths[index].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let joined: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(cell, width)| format!("{cell:<width$}"))
                .collect();
            format!("| {} |\n", joined.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", rule.join("-|-")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(duration: Duration) -> String {
    let nanos = duration.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.2} s", duration.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

/// Formats a byte count in adaptive units.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// `s` as the body of a JSON string literal: quotes, backslashes and
/// control characters escaped.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes a figure's JSON document to `results/<name>.json`, creating
/// the directory, and says where it went. A failed write is reported on
/// stderr, not fatal: the caller validated the document first.
pub fn write_result(name: &str, json: &str) {
    let path = format!("results/{name}.json");
    if let Err(err) = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, json))
    {
        eprintln!("\n(could not write {path}: {err})");
    } else {
        println!("\nwrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_identical_samples_has_zero_stddev() {
        let s = stats(&[Duration::from_micros(10); 5]);
        assert_eq!(s.mean, Duration::from_micros(10));
        assert_eq!(s.stddev, Duration::ZERO);
    }

    #[test]
    fn stats_best_is_the_smallest_sample() {
        let s = stats(&[
            Duration::from_micros(12),
            Duration::from_micros(10),
            Duration::from_micros(89),
        ]);
        assert_eq!(s.best, Duration::from_micros(10));
        assert_eq!(s.mean, Duration::from_micros(37));
    }

    #[test]
    fn stats_of_empty_sample_is_zero() {
        let s = stats(&[]);
        assert_eq!(s.mean, Duration::ZERO);
    }

    #[test]
    fn table_renders_all_rows() {
        let mut table = Table::new(&["app", "time"]);
        table.row(&["nginx".into(), "1 ms".into()]);
        table.row(&["redis".into(), "2 ms".into()]);
        let text = table.render();
        assert!(text.contains("nginx"));
        assert!(text.contains("redis"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(10)), "10 ns");
        assert!(fmt_duration(Duration::from_micros(15)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(15)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains("s"));
    }

    #[test]
    fn json_escape_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("phase.dump"), "phase.dump");
        assert_eq!(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\u0009e");
        assert_eq!(json_escape("µs"), "µs");
    }

    #[test]
    fn byte_formatting_picks_units() {
        assert_eq!(fmt_bytes(100), "100 B");
        assert!(fmt_bytes(4096).contains("KiB"));
        assert!(fmt_bytes(5 << 20).contains("MiB"));
    }
}
