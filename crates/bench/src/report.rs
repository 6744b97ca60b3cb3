//! The one row schema every `repro` artifact emits, the `host` block that
//! says where the numbers were measured, and table rendering / CSV output.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// A simple aligned-text table matching the paper's presentation.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; arity must match the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "| {:w$} ", c, w = widths[i]);
            }
            s.push('|');
            s
        };
        let header = line(&self.header, &widths);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Number of data rows (excluding the header).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }
}

/// Directory `repro` drops its CSV in (git-ignored).
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var("ULP_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()),
    )
}

/// One measured value: the single schema every artifact emits, the shape
/// checks read and the CSV holds.
#[derive(Debug, Clone)]
pub struct Row {
    /// The `repro` subcommand that produced it (`table3` … `locks`).
    pub artifact: &'static str,
    /// What was measured: a table's row label or a figure's curve.
    pub series: String,
    /// Architecture profile (`native`, `wallaby(x86_64)`, …) or `host`.
    pub profile: String,
    /// Position on the artifact's sweep (`256B`, `8 ranks`), else empty.
    pub x: String,
    /// Which quantity (`time`, `slowdown`, `switches_per_op`, …).
    pub metric: &'static str,
    /// The value, in `unit`.
    pub value: f64,
    /// `ns`, `us`, `ratio`, `%` or `1/op`.
    pub unit: &'static str,
}

impl Row {
    /// Where it was measured: everything but the value and its unit.
    pub fn key(&self) -> [&str; 5] {
        [
            self.artifact,
            &self.series,
            &self.profile,
            &self.x,
            self.metric,
        ]
    }

    fn cell(&self) -> String {
        match self.unit {
            "ratio" | "1/op" => format!("{:.3}", self.value),
            _ => format!("{:.1}", self.value),
        }
    }
}

/// Lay `rows` out for reading: one line per distinct `line` key (the
/// columns named by `lead`, minus those empty on every line), one column per
/// distinct `column` key, both in first-seen order.
pub fn pivot(
    title: &str,
    lead: &[&str],
    rows: &[Row],
    line: impl Fn(&Row) -> Vec<String>,
    column: impl Fn(&Row) -> String,
) -> Table {
    let mut columns: Vec<String> = Vec::new();
    let mut lines: Vec<(Vec<String>, Vec<String>)> = Vec::new();
    for r in rows {
        let (l, c) = (line(r), column(r));
        let ci = columns.iter().position(|k| *k == c).unwrap_or_else(|| {
            columns.push(c);
            columns.len() - 1
        });
        let li = lines.iter().position(|(k, _)| *k == l).unwrap_or_else(|| {
            lines.push((l, Vec::new()));
            lines.len() - 1
        });
        let cells = &mut lines[li].1;
        cells.resize(cells.len().max(ci + 1), String::new());
        cells[ci] = r.cell();
    }
    let used = |i: &usize| lines.iter().any(|(key, _)| !key[*i].is_empty());
    let keys: Vec<usize> = (0..lead.len()).filter(used).collect();
    let header = keys.iter().map(|&i| lead[i]);
    let header: Vec<&str> = header.chain(columns.iter().map(String::as_str)).collect();
    let mut t = Table::new(title, &header);
    for (key, mut cells) in lines {
        cells.resize(columns.len(), String::new());
        t.row(keys.iter().map(|&i| key[i].clone()).chain(cells).collect());
    }
    t
}

/// Write `rows` to `path` as CSV in the one schema, under the host block
/// as leading `# host.<probe>: <value>` comment lines.
pub fn write_csv(rows: &[Row], path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    for (k, v) in host_block() {
        writeln!(f, "# host.{k}: {v}")?;
    }
    writeln!(f, "artifact,series,profile,x,metric,value,unit")?;
    for r in rows {
        let (a, s, p, x, m, v, u) = (
            r.artifact, &r.series, &r.profile, &r.x, r.metric, r.value, r.unit,
        );
        writeln!(f, "{a},{s},{p},{x},{m},{v},{u}")?;
    }
    Ok(())
}

/// Where the numbers were measured, and by which code — a number without its
/// machine cannot be compared with anything. A probe that fails reads
/// `unknown`.
pub fn host_block() -> Vec<(&'static str, String)> {
    let first_line_of = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        let line = String::from_utf8(out.stdout)
            .ok()?
            .lines()
            .next()?
            .to_string();
        out.status.success().then_some(line)
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        let is_model = |l: &&str| l.starts_with("model name") || l.starts_with("Model");
        Some(
            s.lines()
                .find(is_model)?
                .split(':')
                .nth(1)?
                .trim()
                .to_string(),
        )
    });
    [
        ("nproc", Some(crate::baselines::n_cpus().to_string())),
        ("cpu_model", cpu_model),
        // The commit the binary was built from (`build.rs`), not the
        // directory it runs in.
        ("git_sha", Some(env!("ULP_GIT_SHA").to_string())),
        ("rustc", first_line_of("rustc", &["-V"])),
    ]
    .map(|(probe, value)| (probe, value.unwrap_or_else(|| "unknown".to_string())))
    .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| longer-name | 22    |") || s.contains("| longer-name | 22"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("ulp-bench-test");
        let path = dir.join("t.csv");
        let row = Row {
            artifact: "table4",
            series: "ULP yield".into(),
            profile: "native".into(),
            x: String::new(),
            metric: "time",
            value: 41.5,
            unit: "ns",
        };
        write_csv(&[row], &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let (host, rows): (Vec<&str>, Vec<&str>) =
            content.lines().partition(|l| l.starts_with('#'));
        assert_eq!(host.len(), host_block().len());
        assert!(host[0].starts_with("# host.nproc: "), "{}", host[0]);
        let header = "artifact,series,profile,x,metric,value,unit";
        assert_eq!(rows, [header, "table4,ULP yield,native,,time,41.5,ns"]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
