//! The grid model: cells, grids, and merged reports.

use crate::config::HarnessConfig;
use crate::pool;
use riot_core::Stats;
use riot_sim::{Json, ToJson};
use std::collections::BTreeMap;
use std::time::Duration;

/// One independent unit of sweep work: an id, a seed, parameter bindings
/// and the closure that produces the cell's value.
///
/// The closure runs on a worker thread under `catch_unwind`; it must own
/// everything it needs (`Send + 'static`) and must not share mutable state
/// with other cells — each cell is its own isolated deterministic
/// simulation.
pub struct Cell<T> {
    pub(crate) id: String,
    pub(crate) seed: u64,
    pub(crate) params: Vec<(String, String)>,
    pub(crate) run: Box<dyn FnOnce() -> T + Send + 'static>,
}

impl<T> Cell<T> {
    /// Creates a cell with a display id, the seed it runs under, and its
    /// work closure.
    pub fn new(
        id: impl Into<String>,
        seed: u64,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> Cell<T> {
        Cell {
            id: id.into(),
            seed,
            params: Vec::new(),
            run: Box::new(run),
        }
    }

    /// Attaches a named parameter binding (builder-style). Bindings are
    /// carried into the merged report for grouping, display and error
    /// rows; insertion order is preserved.
    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Cell<T> {
        self.params.push((key.into(), value.to_string()));
        self
    }
}

impl<T> std::fmt::Debug for Cell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cell")
            .field("id", &self.id)
            .field("seed", &self.seed)
            .field("params", &self.params)
            .finish()
    }
}

/// An ordered collection of cells; the declaration side of a sweep.
///
/// Grid order is the canonical result order: [`Grid::run`] merges worker
/// output back by grid index, so reports and their JSON renderings do not
/// depend on the thread count.
pub struct Grid<T> {
    cells: Vec<Cell<T>>,
}

impl<T> Default for Grid<T> {
    fn default() -> Self {
        Grid::new()
    }
}

impl<T> Grid<T> {
    /// An empty grid.
    pub fn new() -> Grid<T> {
        Grid { cells: Vec::new() }
    }

    /// Appends a cell; returns `&mut self` for chaining.
    pub fn cell(&mut self, cell: Cell<T>) -> &mut Grid<T> {
        self.cells.push(cell);
        self
    }

    /// `true` when no cells have been declared.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl<T: Send> Grid<T> {
    /// Executes every cell across the worker pool and merges the results
    /// in grid order. Panicking cells become [`CellError`] rows; the rest
    /// of the grid completes.
    pub fn run(self, config: &HarnessConfig) -> GridReport<T> {
        let (cells, wall, threads) = pool::run_cells(self.cells, config);
        GridReport {
            cells,
            wall,
            threads,
        }
    }
}

/// A cell that crashed: the panic payload, carried as a structured result
/// row instead of killing the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The panic message (or a placeholder for non-string payloads).
    pub panic: String,
    /// The last kernel events before the crash, as JSON lines — harvested
    /// from a forensic `riot_sim::RingTrace` the cell had registered (e.g.
    /// via `ScenarioSpec::trace_tail`). Empty when the cell ran without one.
    pub trace_tail: Vec<String>,
}

impl CellError {
    /// An error row carrying just a panic message (no forensics).
    pub fn message(panic: impl Into<String>) -> CellError {
        CellError {
            panic: panic.into(),
            trace_tail: Vec::new(),
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell panicked: {}", self.panic)?;
        if !self.trace_tail.is_empty() {
            write!(f, " ({} trace events captured)", self.trace_tail.len())?;
        }
        Ok(())
    }
}

/// One merged result row: the cell's identity plus its outcome.
#[derive(Debug)]
pub struct CellRecord<T> {
    /// Position in the declared grid (result order).
    pub index: usize,
    /// The cell's display id.
    pub id: String,
    /// The seed the cell ran under.
    pub seed: u64,
    /// The cell's parameter bindings, in insertion order.
    pub params: Vec<(String, String)>,
    /// Wall-clock execution time of this cell. Observability only — never
    /// serialized, so reports stay byte-identical across runs and thread
    /// counts.
    pub wall: Duration,
    /// The cell's value, or the structured panic row.
    pub outcome: Result<T, CellError>,
}

/// The merged outcome of a grid run, in grid order.
#[derive(Debug)]
pub struct GridReport<T> {
    /// One record per declared cell, ordered by grid index.
    pub cells: Vec<CellRecord<T>>,
    /// Wall-clock time of the whole sweep (observability only).
    pub wall: Duration,
    /// Worker threads actually used (after clamping to the cell count).
    pub threads: usize,
}

impl<T> GridReport<T> {
    /// The successful cell values, in grid order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref().ok())
    }

    /// Consumes the report, returning the successful values in grid order.
    pub fn into_values(self) -> Vec<T> {
        self.cells
            .into_iter()
            .filter_map(|c| c.outcome.ok())
            .collect()
    }

    /// The records whose cells panicked, in grid order.
    pub fn failed(&self) -> impl Iterator<Item = &CellRecord<T>> {
        self.cells.iter().filter(|c| c.outcome.is_err())
    }

    /// Number of cells that panicked.
    pub fn error_count(&self) -> usize {
        self.failed().count()
    }

    /// Prints one stderr line per failed cell (no-op on a clean sweep),
    /// so experiment binaries surface crashes without aborting.
    pub fn report_failures(&self) {
        for rec in self.failed() {
            if let Err(e) = &rec.outcome {
                eprintln!(
                    "riot-harness: cell '{}' (seed {}) failed: {}",
                    rec.id, rec.seed, e.panic
                );
            }
        }
    }

    /// First-class multi-seed aggregation: groups the *successful* cells
    /// by key and summarizes `metric` over each group as
    /// [`riot_core::Stats`] (mean, stddev, 95% CI). Panicked cells are
    /// excluded — their absence is visible via [`GridReport::failed`].
    pub fn seed_stats<K: Ord>(
        &self,
        key: impl Fn(&CellRecord<T>) -> K,
        metric: impl Fn(&T) -> f64,
    ) -> BTreeMap<K, Stats> {
        let mut samples: BTreeMap<K, Vec<f64>> = BTreeMap::new();
        for rec in &self.cells {
            if let Ok(value) = &rec.outcome {
                samples.entry(key(rec)).or_default().push(metric(value));
            }
        }
        samples
            .into_iter()
            .map(|(k, xs)| (k, Stats::from_samples(&xs)))
            .collect()
    }
}

impl<T: ToJson> ToJson for CellRecord<T> {
    fn to_json(&self) -> Json {
        let params = Json::Obj(
            self.params
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let mut fields = vec![
            ("id".to_owned(), Json::Str(self.id.clone())),
            ("seed".to_owned(), Json::UInt(self.seed)),
            ("params".to_owned(), params),
        ];
        match &self.outcome {
            Ok(value) => {
                fields.push(("ok".to_owned(), Json::Bool(true)));
                fields.push(("value".to_owned(), value.to_json()));
            }
            Err(e) => {
                fields.push(("ok".to_owned(), Json::Bool(false)));
                fields.push(("error".to_owned(), Json::Str(e.panic.clone())));
                if !e.trace_tail.is_empty() {
                    let tail = e.trace_tail.iter().cloned().map(Json::Str).collect();
                    fields.push(("trace_tail".to_owned(), Json::Arr(tail)));
                }
            }
        }
        Json::Obj(fields)
    }
}

impl<T: ToJson> ToJson for GridReport<T> {
    /// Renders the merged rows (wall-clock and thread count deliberately
    /// excluded): byte-identical for any thread count.
    fn to_json(&self) -> Json {
        Json::Arr(self.cells.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_quiet<T: Send>(grid: Grid<T>, threads: usize) -> GridReport<T> {
        grid.run(&HarnessConfig::with_threads(threads).quiet())
    }

    #[test]
    fn values_come_back_in_grid_order() {
        let mut grid = Grid::new();
        for i in 0u64..16 {
            grid.cell(Cell::new(format!("c{i}"), i, move || i * i));
        }
        let report = run_quiet(grid, 4);
        assert_eq!(report.cells.len(), 16);
        let values: Vec<u64> = report.values().copied().collect();
        assert_eq!(values, (0u64..16).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.threads, 4);
    }

    #[test]
    fn panicking_cell_becomes_an_error_row() {
        let mut grid = Grid::new();
        grid.cell(Cell::new("ok-1", 1, || 1u32));
        grid.cell(Cell::new("boom", 2, || -> u32 {
            panic!("deliberate test panic")
        }));
        grid.cell(Cell::new("ok-3", 3, || 3u32));
        let report = run_quiet(grid, 2);
        assert_eq!(report.values().count(), 2);
        assert_eq!(report.error_count(), 1);
        let failed: Vec<&str> = report.failed().map(|r| r.id.as_str()).collect();
        assert_eq!(failed, vec!["boom"]);
        let err = report.cells[1]
            .outcome
            .as_ref()
            .err()
            .map(|e| e.panic.clone());
        assert_eq!(err.as_deref(), Some("deliberate test panic"));
        assert_eq!(report.into_values(), vec![1, 3]);
    }

    #[test]
    fn json_is_identical_across_thread_counts_and_excludes_wall_clock() {
        let build = || {
            let mut grid = Grid::new();
            for i in 0u64..9 {
                grid.cell(Cell::new(format!("c{i}"), i, move || i + 100).param("i", i));
            }
            grid
        };
        let one = run_quiet(build(), 1).to_json().render();
        let four = run_quiet(build(), 4).to_json().render();
        assert_eq!(one, four);
        assert!(one.contains(r#""params":{"i":"0"}"#));
        assert!(!one.contains("wall"), "wall-clock must never be serialized");
    }

    #[test]
    fn grouping_and_seed_stats_aggregate_across_seeds() {
        let mut grid = Grid::new();
        for level in ["a", "b"] {
            for seed in [1u64, 2, 3] {
                grid.cell(
                    Cell::new(format!("{level}/s{seed}"), seed, move || seed as f64)
                        .param("level", level),
                );
            }
        }
        let report = run_quiet(grid, 3);
        let stats = report.seed_stats(|r| r.id.split('/').next().unwrap_or("").to_owned(), |v| *v);
        let a = stats.get("a").copied().unwrap_or(Stats::from_samples(&[]));
        assert_eq!(a.n, 3);
        assert!((a.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_grid_runs_cleanly() {
        let grid: Grid<u8> = Grid::new();
        assert!(grid.is_empty());
        let report = run_quiet(grid, 4);
        assert!(report.cells.is_empty());
        assert_eq!(report.to_json().render(), "[]");
    }
}
