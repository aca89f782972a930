//! Console table rendering and JSON result persistence for the harness
//! binaries.

use crate::nets::artifact_dir;
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Duration;

/// A fixed-width console table with a title and aligned columns.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String| {
            for (i, w) in width.iter().enumerate() {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
                if i + 1 == cols {
                    let _ = writeln!(out, "+");
                }
            }
        };
        line(&mut out);
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(out, "| {:w$} ", h, w = width[i]);
        }
        let _ = writeln!(out, "|");
        line(&mut out);
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                let _ = write!(out, "| {:w$} ", c, w = width[i]);
            }
            let _ = writeln!(out, "|");
        }
        line(&mut out);
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a duration like the paper's columns (`0.3s`, `4.8h`).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.2}s", s)
    } else if s < 120.0 {
        format!("{:.1}s", s)
    } else if s < 7200.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{:.1}h", s / 3600.0)
    }
}

/// Persists a serializable result under `artifacts/results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = artifact_dir().join("results");
    let _ = std::fs::create_dir_all(&dir);
    save_json_at(&dir.join(format!("{name}.json")), value);
}

/// Persists a serializable result at an explicit path (the machine-readable
/// output behind every harness binary's `--json <path>` flag, so CI and the
/// cross-PR perf trajectory can consume results without scraping tables).
pub fn save_json_at<T: Serialize>(path: &std::path::Path, value: &T) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(results saved to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {}: {e}", path.display()),
    }
}

/// Parses a `--json <path>` flag from a raw argument list.
pub fn json_flag(args: &[String]) -> Option<std::path::PathBuf> {
    path_flag(args, "--json")
}

/// Parses a `<flag> <path>` pair from a raw argument list.
pub fn path_flag(args: &[String], flag: &str) -> Option<std::path::PathBuf> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

/// Writes a grayscale image (`values` in `[0,1]`, row-major) as a binary PGM
/// under `artifacts/figures/`.
pub fn save_pgm(name: &str, width: usize, height: usize, values: &[f64]) {
    assert_eq!(values.len(), width * height, "image size mismatch");
    let dir = artifact_dir().join("figures");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.pgm"));
    let mut bytes = format!("P5\n{width} {height}\n255\n").into_bytes();
    bytes.extend(
        values
            .iter()
            .map(|v| (v.clamp(0.0, 1.0) * 255.0).round() as u8),
    );
    if let Err(e) = std::fs::write(&path, bytes) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("(figure saved to {})", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["id", "value"]);
        t.row(&["1".into(), "short".into()]);
        t.row(&["22".into(), "much longer cell".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.lines().all(|l| l.is_empty()
            || l.starts_with('+')
            || l.starts_with('|')
            || l.starts_with("==")));
    }

    #[test]
    fn durations_format_like_paper() {
        assert_eq!(fmt_duration(Duration::from_millis(300)), "0.30s");
        assert_eq!(fmt_duration(Duration::from_secs(130 * 60)), "2.2h");
    }
}
