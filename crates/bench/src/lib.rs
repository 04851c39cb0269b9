//! # autopilot-bench
//!
//! Shared infrastructure for the paper-reproduction binaries (one per
//! table/figure of the MICRO 2022 AutoPilot paper), the Phase-2
//! counting probe (`timing_probe`) and the perf budget gate
//! (`budget_gate`).
//!
//! Each `src/bin/figN.rs` / `src/bin/tableN.rs` binary regenerates the
//! rows or series of the corresponding exhibit and prints them as an
//! aligned text table; `repro_all` runs every experiment and writes the
//! results under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autopilot_obs as obs;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple aligned text table for experiment output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> TextTable {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut TextTable {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[i] + 2);
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let rule: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(rule.min(160)));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Directory where experiment binaries persist their outputs.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes `content` to `results/<name>` and echoes it to stdout.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let path = results_dir().join(name);
    if let Err(e) = fs::write(&path, content) {
        obs::obs_warn!("warning: could not persist {}: {e}", path.display());
    } else {
        obs::obs_info!("[saved {}]", path.display());
    }
}

/// Writes the global telemetry snapshot to
/// `results/telemetry_<run>.json` and returns the path.
///
/// A no-op returning `None` when `AUTOPILOT_OBS` metrics are off, so
/// every experiment binary can call it unconditionally at exit without
/// paying anything in the default configuration.
pub fn write_telemetry(run: &str) -> Option<PathBuf> {
    if !obs::metrics_enabled() {
        return None;
    }
    let path = results_dir().join(format!("telemetry_{run}.json"));
    match obs::snapshot().write_json(&path) {
        Ok(()) => {
            obs::obs_info!("[telemetry {}]", path.display());
            Some(path)
        }
        Err(e) => {
            obs::obs_warn!("warning: could not write telemetry {}: {e}", path.display());
            None
        }
    }
}

/// Drains the per-event trace and writes it as Chrome trace-event JSON
/// to `results/trace_<run>.json` (Perfetto / `chrome://tracing`
/// loadable), returning the path.
///
/// A no-op returning `None` when `AUTOPILOT_TRACE` is off or nothing
/// was recorded, so every experiment binary can call it unconditionally
/// at exit.
pub fn write_trace(run: &str) -> Option<PathBuf> {
    if !obs::trace::enabled() {
        return None;
    }
    let trace = obs::trace::take();
    if trace.is_empty() {
        return None;
    }
    let path = results_dir().join(format!("trace_{run}.json"));
    match fs::write(&path, trace.to_chrome_json()) {
        Ok(()) => {
            obs::obs_info!(
                "[trace {} ({} events, {} dropped)]",
                path.display(),
                trace.len(),
                trace.dropped
            );
            Some(path)
        }
        Err(e) => {
            obs::obs_warn!("warning: could not write trace {}: {e}", path.display());
            None
        }
    }
}

/// Formats a ratio like `2.25x`.
pub fn ratio(a: f64, b: f64) -> String {
    if b > 0.0 {
        format!("{:.2}x", a / b)
    } else {
        "inf".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["design", "fps"]);
        t.row(vec!["AP", "46"]);
        t.row(vec!["HT (high throughput)", "205"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("design"));
        assert!(lines[3].contains("205"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(9.0, 4.0), "2.25x");
        assert_eq!(ratio(1.0, 0.0), "inf");
    }
}

pub mod experiments;
