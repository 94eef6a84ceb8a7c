//! # riot-lint — workspace determinism & panic-safety static analysis
//!
//! The reproduction's headline claim is *bit-for-bit determinism*: the same
//! scenario seed must produce the same event trace on every run and every
//! machine (DESIGN.md, "Determinism & panic-safety policy"). The compiler
//! cannot enforce that — `HashMap` iteration, `Instant::now()` and
//! `thread_rng()` are all safe Rust — so this crate does, as a
//! dependency-free lexical pass over every `.rs` file in the workspace:
//!
//! - **D1** — no `HashMap`/`HashSet` in sim-visible crates (their iteration
//!   order is randomized per process);
//! - **D2** — no ambient wall-clock time, anywhere;
//! - **D3** — no ambient entropy, anywhere;
//! - **P1** — no `.unwrap()` / `.expect(..)` / `panic!` / bare indexing in
//!   non-test library code.
//!
//! A second, workspace-wide pass builds a symbol table ([`symbols`]) and a
//! best-effort call graph ([`callgraph`]), computes reachability from the
//! roots declared in `lint-hotpaths.toml` ([`reach`]), and applies two
//! transitive rule families over the reachable sets:
//!
//! - **A1** — no allocating or formatting calls (`format!`, `.to_string()`,
//!   `Box::new`, un-pre-sized `Vec::new`/`.collect()`, `.clone()`, …) in
//!   any function reachable from a declared *hot* root;
//! - **P2** — no panic paths (the P1 site set) in any function reachable
//!   from a declared sim-visible *entry* point — P1 upgraded from lexical
//!   file scope to transitive call coverage.
//!
//! A1/P2 diagnostics carry the full call chain from the root to the
//! offending function (`sim::Sim::step → sim::Kernel::emit`), so a finding
//! is actionable without re-deriving the graph by hand. The graph pass
//! runs whenever the scanned root contains a `lint-hotpaths.toml`; a root
//! pattern that resolves to no function is itself a `LINT` error.
//!
//! Reviewed exceptions are carried in-line and must state a reason:
//!
//! ```text
//! // riot-lint: allow(P1, reason = "fixed-size array, index < 16 by construction")
//! ```
//!
//! placed on the offending line (trailing) or the line directly above. A
//! whole file can opt out of one rule with `allow-file`; this is reserved
//! for dense numeric kernels where per-line annotations would drown the
//! code. Malformed or reason-less directives are themselves reported (rule
//! `LINT`) and cannot be suppressed.
//!
//! The pass runs as `cargo run -p riot-lint` (add `--json` for machine
//! consumption, `--rule <id>` to filter) and as an integration test, so
//! `cargo test` fails on new violations.
//!
//! ## `--json` schema
//!
//! The machine-readable report is one JSON object:
//!
//! ```text
//! {
//!   "clean": bool,            // no violations after filtering
//!   "files_scanned": uint,    // .rs files inspected
//!   "graph": {                // present when lint-hotpaths.toml was found
//!     "fns_indexed": uint,    //   functions in the symbol table
//!     "hot_roots": uint,      //   declared [hot] root patterns
//!     "entry_roots": uint,    //   declared [entry] root patterns
//!     "hot_reachable": uint,  //   functions reachable from a hot root
//!     "entry_reachable": uint //   functions reachable from an entry root
//!   },
//!   "violations": [           // sorted by (file, line, rule)
//!     {
//!       "file": "crates/sim/src/kernel.rs",  // workspace-relative, `/`-separated
//!       "line": uint,                        // 1-based
//!       "rule": "D1"|"D2"|"D3"|"P1"|"A1"|"P2"|"LINT",
//!       "message": "...",                    // what is wrong
//!       "suggestion": "...",                 // how to fix it
//!       "chain": ["sim::Sim::step", ...]     // root → … → function, A1/P2 only
//!     }
//!   ]
//! }
//! ```

pub mod callgraph;
pub mod context;
pub mod lexer;
pub mod reach;
pub mod rules;
pub mod symbols;

use riot_sim::Json;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose state feeds simulation results: a stray source of
/// nondeterminism in any of these shows up as a diverging event trace.
pub const SIM_VISIBLE_CRATES: &[&str] = &[
    "sim", "net", "coord", "adapt", "data", "formal", "core", "model", "harness", "campaign",
];

/// The rule identifiers. `Lint` flags problems with the directives
/// themselves and cannot be allowed away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Hashed collections in sim-visible crates.
    D1,
    /// Ambient wall-clock time.
    D2,
    /// Ambient entropy.
    D3,
    /// Panic paths in non-test library code.
    P1,
    /// Allocating/formatting calls reachable from a hot root.
    A1,
    /// Panic paths reachable from a sim-visible entry point.
    P2,
    /// Malformed `riot-lint:` directive.
    Lint,
}

impl RuleId {
    /// The stable textual id used in diagnostics and allow directives.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::P1 => "P1",
            RuleId::A1 => "A1",
            RuleId::P2 => "P2",
            RuleId::Lint => "LINT",
        }
    }

    /// Parses an id as written in an allow directive. `LINT` is absent on
    /// purpose: directive problems cannot be allowed away.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "P1" => Some(RuleId::P1),
            "A1" => Some(RuleId::A1),
            "P2" => Some(RuleId::P2),
            _ => None,
        }
    }

    /// Parses any id including `LINT` — for the CLI `--rule` filter, which
    /// may legitimately select the unsuppressable rule.
    pub fn parse_cli(s: &str) -> Option<RuleId> {
        match s {
            "LINT" => Some(RuleId::Lint),
            other => RuleId::parse(other),
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation, pointing at a file and 1-based line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Which rule fired.
    pub rule: RuleId,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
    /// For reachability rules (A1/P2): the canonical call chain from the
    /// declared root to the function containing the site, as display paths.
    /// Empty for lexical rules.
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    fix: {}",
            self.file, self.line, self.rule, self.message, self.suggestion
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    via: {}", self.chain.join(" → "))?;
        }
        Ok(())
    }
}

impl riot_sim::ToJson for Diagnostic {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("file".into(), Json::Str(self.file.clone())),
            ("line".into(), Json::UInt(self.line as u64)),
            ("rule".into(), Json::Str(self.rule.id().into())),
            ("message".into(), Json::Str(self.message.clone())),
            ("suggestion".into(), Json::Str(self.suggestion.clone())),
            (
                "chain".into(),
                Json::Arr(self.chain.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
        ])
    }
}

/// The scope of an allow directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Covers the directive's own line (trailing) or the next line
    /// (standalone).
    Line,
    /// Covers the whole file.
    File,
}

/// A parsed `riot-lint: allow(...)` directive.
#[derive(Debug, Clone)]
pub struct Directive {
    /// The rule being allowed.
    pub rule: RuleId,
    /// Line or file scope.
    pub scope: Scope,
    /// The mandatory human reason.
    pub reason: String,
}

/// Parses a line comment. Returns `None` when the comment is not a
/// directive at all, `Some(Err(why))` when it tries to be one and fails.
/// A directive is a comment whose text — after the `//`/`///`/`//!`
/// marker — *starts with* `riot-lint:`; prose that merely mentions the
/// marker mid-sentence (docs, this file) is not a directive attempt.
pub fn parse_directive(comment: &str) -> Option<Result<Directive, String>> {
    let text = comment.trim_start_matches(['/', '!']).trim_start();
    let rest = text.strip_prefix("riot-lint:")?.trim();
    Some(parse_directive_body(rest))
}

fn parse_directive_body(rest: &str) -> Result<Directive, String> {
    let (scope, body) = if let Some(b) = rest.strip_prefix("allow-file(") {
        (Scope::File, b)
    } else if let Some(b) = rest.strip_prefix("allow(") {
        (Scope::Line, b)
    } else {
        return Err("expected `allow(<rule>, reason = \"...\")` or `allow-file(...)`".into());
    };
    let (rule_s, after) = body
        .split_once(',')
        .ok_or("missing `, reason = \"...\"` after the rule id")?;
    let rule = RuleId::parse(rule_s.trim()).ok_or_else(|| {
        format!(
            "unknown rule id `{}` (want D1, D2, D3 or P1)",
            rule_s.trim()
        )
    })?;
    let after = after
        .trim_start()
        .strip_prefix("reason")
        .ok_or("expected `reason = \"...\"`")?
        .trim_start()
        .strip_prefix('=')
        .ok_or("expected `=` after `reason`")?
        .trim_start()
        .strip_prefix('"')
        .ok_or("reason must be a double-quoted string")?;
    let (reason, tail) = after.split_once('"').ok_or("unterminated reason string")?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".into());
    }
    if !tail.trim_start().starts_with(')') {
        return Err("missing closing `)`".into());
    }
    Ok(Directive {
        rule,
        scope,
        reason: reason.to_string(),
    })
}

/// Which rule families apply to a given file, derived from its
/// workspace-relative path by [`classify`].
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// D1 applies (file belongs to a sim-visible crate).
    pub sim_visible: bool,
    /// P1 applies (file is non-test library code).
    pub panic_checked: bool,
}

impl FileClass {
    /// A class with every rule enabled — what fixture tests use.
    pub const STRICT: FileClass = FileClass {
        sim_visible: true,
        panic_checked: true,
    };
}

/// Classifies a workspace-relative path (`crates/sim/src/kernel.rs`, with
/// `/` separators) into the rule scopes that apply to it.
pub fn classify(rel: &str) -> FileClass {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("root");
    // Root-level tests/ and examples/ drive the sim crates directly, so
    // they are sim-visible too.
    let sim_visible = crate_name == "root" || SIM_VISIBLE_CRATES.contains(&crate_name);
    let panic_checked =
        rel.contains("/src/") && !rel.contains("/bin/") && !rel.ends_with("src/main.rs");
    FileClass {
        sim_visible,
        panic_checked,
    }
}

/// Per-file state the lexical pass produces and the graph pass reuses:
/// scrubbed code lines, test-region classification, and the allow
/// directives in force.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub rel: String,
    /// Scrubbed code, one entry per source line.
    pub codes: Vec<String>,
    /// `in_test[i]`: 0-based line `i` is inside a `#[cfg(test)]` region.
    pub in_test: Vec<bool>,
    file_allows: Vec<RuleId>,
    /// `allowed[i]` = rules excused on 0-based line `i`.
    allowed: Vec<Vec<RuleId>>,
}

impl FileAnalysis {
    /// Is `rule` excused on 0-based line `idx`? An `allow(P1)` excuses `P2`
    /// as well: a reviewed panic invariant covers both the lexical and the
    /// transitive rule.
    pub fn excused(&self, idx: usize, rule: RuleId) -> bool {
        let direct = |r: RuleId| {
            self.file_allows.contains(&r)
                || self
                    .allowed
                    .get(idx)
                    .is_some_and(|rules| rules.contains(&r))
        };
        direct(rule) || (rule == RuleId::P2 && direct(RuleId::P1))
    }
}

/// Lints one file's source. `file` is used only for diagnostics.
pub fn lint_source(file: &str, source: &str, class: FileClass) -> Vec<Diagnostic> {
    analyze_source(file, source, class).0
}

/// Runs the lexical pass on one file, returning its diagnostics plus the
/// retained [`FileAnalysis`] the workspace-level graph pass builds on.
pub fn analyze_source(
    file: &str,
    source: &str,
    class: FileClass,
) -> (Vec<Diagnostic>, FileAnalysis) {
    let scrubbed = lexer::scrub(source);
    let codes: Vec<String> = scrubbed.lines.iter().map(|l| l.code.clone()).collect();
    let in_test = context::test_lines(&codes);

    let mut diags = Vec::new();
    let mut file_allows: Vec<RuleId> = Vec::new();
    // allowed[i] = rules excused on line i (0-based).
    let mut allowed: Vec<Vec<RuleId>> = vec![Vec::new(); scrubbed.lines.len()];

    for (idx, line) in scrubbed.lines.iter().enumerate() {
        if line.stray_directive {
            // A directive inside a block comment parses as prose and would
            // silently suppress nothing — that is always a mistake.
            diags.push(Diagnostic {
                file: file.into(),
                line: idx + 1,
                rule: RuleId::Lint,
                message: "riot-lint directive inside a block comment has no effect".into(),
                suggestion: "use a line comment: // riot-lint: allow(<rule>, reason = \"...\")"
                    .into(),
                chain: Vec::new(),
            });
        }
        for comment in &line.comments {
            match parse_directive(comment) {
                None => {}
                Some(Err(why)) => diags.push(Diagnostic {
                    file: file.into(),
                    line: idx + 1,
                    rule: RuleId::Lint,
                    message: format!("malformed riot-lint directive: {why}"),
                    suggestion: "write: // riot-lint: allow(<rule>, reason = \"...\")".into(),
                    chain: Vec::new(),
                }),
                Some(Ok(d)) => match d.scope {
                    Scope::File => file_allows.push(d.rule),
                    Scope::Line => {
                        // Trailing directives cover their own line;
                        // standalone ones cover the next line.
                        let target = if line.code.trim().is_empty() {
                            idx + 1
                        } else {
                            idx
                        };
                        if let Some(slot) = allowed.get_mut(target) {
                            slot.push(d.rule);
                        }
                    }
                },
            }
        }
    }

    let analysis = FileAnalysis {
        rel: file.to_string(),
        codes,
        in_test,
        file_allows,
        allowed,
    };

    for (idx, code) in analysis.codes.iter().enumerate() {
        let lineno = idx + 1;
        let mut findings: Vec<rules::Finding> = Vec::new();
        if class.sim_visible {
            findings.extend(rules::check_d1(code));
        }
        findings.extend(rules::check_d2(code));
        findings.extend(rules::check_d3(code));
        if class.panic_checked && !analysis.in_test.get(idx).copied().unwrap_or(false) {
            findings.extend(rules::check_p1(code));
        }
        for (rule, message, suggestion) in findings {
            if !analysis.excused(idx, rule) {
                diags.push(Diagnostic {
                    file: file.into(),
                    line: lineno,
                    rule,
                    message,
                    suggestion,
                    chain: Vec::new(),
                });
            }
        }
    }
    (diags, analysis)
}

/// Size and coverage statistics from the call-graph pass, surfaced in the
/// report so the gate can assert the analysis actually ran over a
/// non-trivial graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Functions in the flattened workspace symbol table.
    pub fns_indexed: usize,
    /// Declared `[hot]` root patterns.
    pub hot_roots: usize,
    /// Declared `[entry]` root patterns.
    pub entry_roots: usize,
    /// Functions reachable from a hot root (A1 scope).
    pub hot_reachable: usize,
    /// Functions reachable from an entry root (P2 scope).
    pub entry_reachable: usize,
}

/// The result of a full workspace scan.
#[derive(Debug)]
pub struct ScanReport {
    /// All violations, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were inspected.
    pub files_scanned: usize,
    /// Call-graph pass statistics; `None` when the scanned root has no
    /// `lint-hotpaths.toml` (the graph pass did not run).
    pub graph: Option<GraphStats>,
}

impl ScanReport {
    /// True when no rule fired.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The machine-readable form emitted by `riot-lint --json`; the schema
    /// is documented in the crate docs.
    pub fn to_json(&self) -> Json {
        use riot_sim::ToJson;
        let mut fields = vec![
            ("clean".into(), Json::Bool(self.clean())),
            (
                "files_scanned".into(),
                Json::UInt(self.files_scanned as u64),
            ),
        ];
        if let Some(g) = &self.graph {
            fields.push((
                "graph".into(),
                Json::Obj(vec![
                    ("fns_indexed".into(), Json::UInt(g.fns_indexed as u64)),
                    ("hot_roots".into(), Json::UInt(g.hot_roots as u64)),
                    ("entry_roots".into(), Json::UInt(g.entry_roots as u64)),
                    ("hot_reachable".into(), Json::UInt(g.hot_reachable as u64)),
                    (
                        "entry_reachable".into(),
                        Json::UInt(g.entry_reachable as u64),
                    ),
                ]),
            ));
        }
        fields.push(("violations".into(), self.diagnostics.to_json()));
        Json::Obj(fields)
    }
}

/// Directory names never descended into: build output, VCS metadata, the
/// lint crate's own deliberately-violating fixtures, and experiment output.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results"];

/// Scans every `.rs` file under `root` (the workspace checkout): the
/// lexical pass per file, then — when `root/lint-hotpaths.toml` exists —
/// the workspace call-graph pass for A1/P2. Diagnostics come back sorted
/// by `(file, line, rule)`.
pub fn scan_workspace(root: &Path) -> Result<ScanReport, String> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut diagnostics = Vec::new();
    let mut analyses = Vec::with_capacity(files.len());
    let mut tables = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (diags, analysis) = analyze_source(&rel, &source, classify(&rel));
        diagnostics.extend(diags);
        tables.push(symbols::extract(&rel, &analysis.codes));
        analyses.push(analysis);
    }
    let graph = graph_pass(root, &analyses, &tables, &mut diagnostics)?;
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(ScanReport {
        diagnostics,
        files_scanned: files.len(),
        graph,
    })
}

/// Parses the workspace crate dependency relation from the `riot-*` lines
/// of each crate manifest. The `root` pseudo-crate (workspace-level
/// `tests/` and `examples/`) may call into every crate.
fn workspace_deps(root: &Path) -> callgraph::CrateDeps {
    let mut deps = callgraph::CrateDeps::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            let Ok(text) = std::fs::read_to_string(entry.path().join("Cargo.toml")) else {
                continue;
            };
            for line in text.lines() {
                if let Some(rest) = line.trim().strip_prefix("riot-") {
                    if let Some((dep, _)) = rest.split_once('=') {
                        deps.add(&name, dep.trim());
                    }
                }
            }
            deps.add("root", &name);
        }
    }
    deps.close();
    deps
}

/// The workspace call-graph pass: flattens the per-file symbol tables,
/// resolves call sites into edges, BFS-walks from the declared roots, and
/// scans the reachable functions' lines for A1/P2 sites. Returns `None`
/// (pass skipped) when `root` has no `lint-hotpaths.toml`.
fn graph_pass(
    root: &Path,
    analyses: &[FileAnalysis],
    tables: &[symbols::FileSymbols],
    diagnostics: &mut Vec<Diagnostic>,
) -> Result<Option<GraphStats>, String> {
    let Ok(text) = std::fs::read_to_string(root.join("lint-hotpaths.toml")) else {
        return Ok(None);
    };
    let hp = reach::parse_hotpaths(&text).map_err(|e| format!("lint-hotpaths.toml: {e}"))?;

    // Flatten the symbol tables; `bases[i]` maps file `i`'s local function
    // indices into the global table.
    let mut fns: Vec<symbols::FnDef> = Vec::new();
    let mut bases = Vec::with_capacity(tables.len());
    for t in tables {
        bases.push(fns.len());
        fns.extend(t.fns.iter().cloned());
    }

    let deps = workspace_deps(root);
    let resolver = callgraph::Resolver::new(&fns, &deps);

    // Call edges per caller, discovered in line order, deduplicated so BFS
    // chains stay canonical.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for ((analysis, table), base) in analyses.iter().zip(tables).zip(&bases) {
        for (idx, code) in analysis.codes.iter().enumerate() {
            let Some(local) = table.owner.get(idx).copied().flatten() else {
                continue;
            };
            let caller = base + local;
            let Some(caller_def) = fns.get(caller) else {
                continue;
            };
            for call in callgraph::calls_in_line(code) {
                for target in resolver.resolve(&call, caller_def) {
                    if let Some(out) = edges.get_mut(caller) {
                        if !out.contains(&target) {
                            out.push(target);
                        }
                    }
                }
            }
        }
    }

    // Resolve declared root patterns; one that matches nothing is a LINT
    // error — a typo must fail the gate, not shrink the checked set.
    let mut resolve_roots = |specs: &[reach::RootSpec]| -> Vec<usize> {
        let mut out = Vec::new();
        for spec in specs {
            let matched: Vec<usize> = fns
                .iter()
                .enumerate()
                .filter(|(_, f)| reach::root_matches(&spec.pattern, f))
                .map(|(i, _)| i)
                .collect();
            if matched.is_empty() {
                diagnostics.push(Diagnostic {
                    file: "lint-hotpaths.toml".into(),
                    line: spec.line,
                    rule: RuleId::Lint,
                    message: format!("root `{}` matches no workspace function", spec.pattern),
                    suggestion: "fix the pattern (crate::…::name, suffix-matched) or delete \
                                 the stale root"
                        .into(),
                    chain: Vec::new(),
                });
            }
            out.extend(matched);
        }
        out
    };
    let hot_parents = reach::reachable(&edges, &resolve_roots(&hp.hot));
    let entry_parents = reach::reachable(&edges, &resolve_roots(&hp.entry));

    // Site scan over function-owned lines in the reachable sets.
    for ((analysis, table), base) in analyses.iter().zip(tables).zip(&bases) {
        for (idx, code) in analysis.codes.iter().enumerate() {
            let Some(local) = table.owner.get(idx).copied().flatten() else {
                continue;
            };
            let g = base + local;
            if hot_parents.get(g).is_some_and(Option::is_some) {
                if let Some(site) = rules::a1_site(code) {
                    if !analysis.excused(idx, RuleId::A1) {
                        diagnostics.push(Diagnostic {
                            file: analysis.rel.clone(),
                            line: idx + 1,
                            rule: RuleId::A1,
                            message: format!("{site} on the allocation-free hot path"),
                            suggestion: "pre-size or intern outside the hot loop; if the \
                                         allocation is provably cold, annotate: // riot-lint: \
                                         allow(A1, reason = \"...\")"
                                .into(),
                            chain: reach::chain(&fns, &hot_parents, g),
                        });
                    }
                }
            }
            if entry_parents.get(g).is_some_and(Option::is_some) {
                if let Some(site) = rules::p2_site(code) {
                    if !analysis.excused(idx, RuleId::P2) {
                        diagnostics.push(Diagnostic {
                            file: analysis.rel.clone(),
                            line: idx + 1,
                            rule: RuleId::P2,
                            message: format!("{site} reachable from a sim-visible entry point"),
                            suggestion: "return a Result or handle the None case; if the \
                                         invariant is structural, annotate: // riot-lint: \
                                         allow(P1, reason = \"...\")"
                                .into(),
                            chain: reach::chain(&fns, &entry_parents, g),
                        });
                    }
                }
            }
        }
    }

    let count = |parents: &[Option<usize>]| parents.iter().filter(|p| p.is_some()).count();
    Ok(Some(GraphStats {
        fns_indexed: fns.len(),
        hot_roots: hp.hot.len(),
        entry_roots: hp.entry.len(),
        hot_reachable: count(&hot_parents),
        entry_reachable: count(&entry_parents),
    }))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_parses() {
        let d = parse_directive("// riot-lint: allow(P1, reason = \"bounded by len\")")
            .expect("is a directive")
            .expect("well-formed");
        assert_eq!(d.rule, RuleId::P1);
        assert_eq!(d.scope, Scope::Line);
        assert_eq!(d.reason, "bounded by len");
    }

    #[test]
    fn directive_file_scope() {
        let d = parse_directive("//! riot-lint: allow-file(P1, reason = \"chacha kernel\")")
            .expect("is a directive")
            .expect("well-formed");
        assert_eq!(d.scope, Scope::File);
    }

    #[test]
    fn directive_rejects_missing_reason() {
        assert!(parse_directive("// riot-lint: allow(P1)")
            .expect("directive")
            .is_err());
        assert!(parse_directive("// riot-lint: allow(P1, reason = \"\")")
            .expect("directive")
            .is_err());
        assert!(parse_directive("// riot-lint: allow(Q9, reason = \"x\")")
            .expect("directive")
            .is_err());
    }

    #[test]
    fn non_directive_comments_are_ignored() {
        assert!(parse_directive("// plain comment").is_none());
    }

    #[test]
    fn classify_scopes() {
        let sim = classify("crates/sim/src/kernel.rs");
        assert!(sim.sim_visible && sim.panic_checked);
        let bench_lib = classify("crates/bench/src/lib.rs");
        assert!(!bench_lib.sim_visible && bench_lib.panic_checked);
        let bin = classify("crates/bench/src/bin/riot.rs");
        assert!(!bin.panic_checked);
        let root_test = classify("tests/determinism.rs");
        assert!(root_test.sim_visible && !root_test.panic_checked);
        // The harness merges results into sim-visible output, so it is held
        // to the same determinism bar (its progress module carries the one
        // reviewed D2 allow-file).
        let harness = classify("crates/harness/src/grid.rs");
        assert!(harness.sim_visible && harness.panic_checked);
        // The observability bus feeds recorded traces and online monitor
        // verdicts: the observer modules are fully inside the determinism
        // perimeter, on both the kernel and the scenario side.
        let observer = classify("crates/sim/src/observer.rs");
        assert!(observer.sim_visible && observer.panic_checked);
        let observe = classify("crates/core/src/observe.rs");
        assert!(observe.sim_visible && observe.panic_checked);
        // The metric-key intern table sits under every recorded result: it
        // must stay inside the determinism perimeter (no ambient hashing)
        // and panic-checked like the rest of the kernel.
        let intern = classify("crates/sim/src/intern.rs");
        assert!(intern.sim_visible && intern.panic_checked);
        // Streaming telemetry operators compute sim-visible aggregates on
        // the per-event hot path: full determinism perimeter, and their
        // leaf updates are declared hot roots in lint-hotpaths.toml.
        let stream = classify("crates/sim/src/stream.rs");
        assert!(stream.sim_visible && stream.panic_checked);
        // The campaign subsystem generates, compiles and shrinks the
        // disruption schedules that scenarios replay: any nondeterminism
        // here diverges a fuzz sweep, so it sits inside the determinism
        // perimeter (rule D3 keeps its entropy behind explicit SimRng
        // seeds) and is panic-checked like the rest.
        let campaign = classify("crates/campaign/src/gen.rs");
        assert!(campaign.sim_visible && campaign.panic_checked);
    }

    #[test]
    fn trailing_and_standalone_allows() {
        let src = "fn f(xs: &[u32], i: usize) -> u32 {\n\
                   // riot-lint: allow(P1, reason = \"caller checks i\")\n\
                   xs[i] +\n\
                   xs[i] // riot-lint: allow(P1, reason = \"same\")\n\
                   }\n";
        let diags = lint_source("x.rs", src, FileClass::STRICT);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn file_allow_covers_everything() {
        let src = "//! riot-lint: allow-file(P1, reason = \"kernel\")\n\
                   fn f(xs: &[u32]) -> u32 { xs[0] }\n";
        assert!(lint_source("x.rs", src, FileClass::STRICT).is_empty());
    }

    #[test]
    fn malformed_directive_is_reported_and_suppresses_nothing() {
        let src = "// riot-lint: allow(P1)\nfn f(xs: &[u32]) -> u32 { xs[0] }\n";
        let diags = lint_source("x.rs", src, FileClass::STRICT);
        let rules: Vec<RuleId> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![RuleId::Lint, RuleId::P1]);
    }
}
