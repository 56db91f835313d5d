//! EXPERIMENTS.md's measured figure tables say what `all_experiments`
//! prints. Every number in its Fig. 8, Fig. 19 (batch 1, large) and
//! Fig. 22 tables must equal the cell of `crates/bench/golden/
//! all_experiments.txt` for the same kernel and column, and every kernel
//! of the golden table must have a row, so the prose cannot drift from
//! the modeled machine again without this failing.

/// A table of the golden file: its column names and rows of cells.
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// The cell of `kernel`'s row under `column`.
    fn cell(&self, kernel: &str, column: &str) -> Option<&str> {
        let col = self.header.iter().position(|h| h == column)?;
        let row = self.rows.iter().find(|r| r[0] == kernel)?;
        Some(&row[col])
    }
}

/// The cells of a `|`-delimited table line.
fn cells(line: &str) -> Vec<String> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(|c| c.trim().to_string()).collect()
}

/// The first `|` table after the first line that starts with `heading`,
/// skipping `skip` earlier matches of the heading.
fn table_after(text: &str, heading: &str, skip: usize) -> Table {
    let mut lines = text.lines();
    for _ in 0..=skip {
        lines
            .by_ref()
            .find(|l| l.starts_with(heading))
            .unwrap_or_else(|| panic!("no heading {heading:?}"));
    }
    let mut lines = lines.skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'));
    let header = cells(lines.next().expect("a header row"));
    // Rows, past the `|---|` separator.
    let rows = lines.filter(|l| !l.starts_with("|-")).map(cells).collect();
    Table { header, rows }
}

/// The number of a cell without its unit (`8.9%`, `1.43×`, `1.43x`).
fn number(cell: &str) -> &str {
    cell.trim_end_matches(['%', '×', 'x'])
}

/// Checks one figure: `columns` pairs EXPERIMENTS.md's column names with
/// the golden file's.
fn check(doc: &Table, golden: &Table, figure: &str, columns: &[(&str, &str)]) -> usize {
    let mut checked = 0;
    let mut covered = Vec::new();
    for row in &doc.rows {
        // A row may stand for several kernels: `fft / gemm / fir`.
        for kernel in row[0].split(" / ") {
            covered.push(kernel.to_string());
            for (doc_column, golden_column) in columns {
                let col = doc.header.iter().position(|h| h == doc_column).unwrap_or_else(|| {
                    panic!("{figure}: EXPERIMENTS.md has no column {doc_column:?}")
                });
                let want = golden.cell(kernel, golden_column).unwrap_or_else(|| {
                    panic!("{figure}: the golden file has no {kernel} / {golden_column} cell")
                });
                assert_eq!(
                    number(&row[col]),
                    number(want),
                    "{figure}, {kernel}, {doc_column}: EXPERIMENTS.md says {}, all_experiments \
                     prints {want}",
                    row[col]
                );
                checked += 1;
            }
        }
    }
    for row in &golden.rows {
        assert!(covered.contains(&row[0]), "{figure}: EXPERIMENTS.md has no row for {}", row[0]);
    }
    checked
}

#[test]
fn experiments_figure_tables_match_the_golden_output() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let doc = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let golden =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/golden/all_experiments.txt"))
            .expect("golden all_experiments output");
    let same = |names: &[&'static str]| -> Vec<(&'static str, &'static str)> {
        names.iter().map(|n| (*n, *n)).collect()
    };
    let mut checked = 0;
    checked += check(
        &table_after(&doc, "## Figure 8 ", 0),
        &table_after(&golden, "=== Figure 8:", 0),
        "Figure 8",
        &same(&["systolic", "dataflow", "revel"]),
    );
    // The golden file prints Figure 19 for the small suite, then for the
    // large one; EXPERIMENTS.md's table is the large suite's.
    checked += check(
        &table_after(&doc, "## Figures 19/20", 0),
        &table_after(&golden, "=== Figure 19:", 1),
        "Figure 19",
        &same(&["revel", "systolic", "dataflow"]),
    );
    checked += check(
        &table_after(&doc, "## Figure 22 ", 0),
        &table_after(&golden, "=== Figure 22:", 0),
        "Figure 22",
        &[
            ("+inductive streams", "+ind-streams"),
            ("+hybrid", "+hybrid"),
            ("+stream predication", "+stream-pred"),
        ],
    );
    assert_eq!(checked, 3 * 7 * 3, "every cell of the three tables is checked");
}
