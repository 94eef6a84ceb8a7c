//! Golden tests over `crates/lint/fixtures/`: each fixture carries known
//! violations at known lines, and the scan must report exactly those —
//! rule id and line number both — with zero false positives on the clean
//! (allow-annotated) fixture.

use riot_lint::{lint_source, parse_directive, FileClass, RuleId};

fn scan(fixture: &str) -> Vec<(usize, RuleId)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut got: Vec<(usize, RuleId)> = lint_source(fixture, &source, FileClass::STRICT)
        .iter()
        .map(|d| (d.line, d.rule))
        .collect();
    got.sort();
    got
}

#[test]
fn d1_hash_iteration_exact_lines() {
    assert_eq!(
        scan("d1_hash_iteration.rs"),
        vec![(5, RuleId::D1), (9, RuleId::D1), (21, RuleId::D1)]
    );
}

#[test]
fn d2_ambient_time_exact_lines() {
    assert_eq!(
        scan("d2_ambient_time.rs"),
        vec![(8, RuleId::D2), (14, RuleId::D2)]
    );
}

#[test]
fn d3_ambient_entropy_exact_lines() {
    // Line 14 names RandomState in a return type, line 15 constructs it:
    // both are uses of an ambient-entropy source.
    assert_eq!(
        scan("d3_ambient_entropy.rs"),
        vec![
            (6, RuleId::D3),
            (11, RuleId::D3),
            (14, RuleId::D3),
            (15, RuleId::D3)
        ]
    );
}

#[test]
fn p1_panic_paths_exact_lines() {
    assert_eq!(
        scan("p1_panic_paths.rs"),
        vec![
            (6, RuleId::P1),
            (10, RuleId::P1),
            (15, RuleId::P1),
            (17, RuleId::P1)
        ]
    );
}

#[test]
fn allow_annotated_fixture_is_clean() {
    assert_eq!(scan("allowed_clean.rs"), vec![]);
}

#[test]
fn malformed_directives_reported_and_void() {
    assert_eq!(
        scan("malformed_allow.rs"),
        vec![
            (6, RuleId::Lint),
            (7, RuleId::P1),
            (11, RuleId::P1),
            (11, RuleId::Lint),
            (15, RuleId::Lint),
        ]
    );
}

#[test]
fn unknown_rule_error_names_every_rule() {
    let why = parse_directive("// riot-lint: allow(X9, reason = \"r\")")
        .expect("is a directive attempt")
        .expect_err("X9 is no rule");
    for id in ["D1", "D2", "D3", "P1", "A1", "P2"] {
        assert!(why.contains(id), "{why:?} does not name {id}");
    }
}

#[test]
fn suggestions_name_the_fix() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("d1_hash_iteration.rs");
    let source = std::fs::read_to_string(path).expect("fixture readable");
    let diags = lint_source("d1_hash_iteration.rs", &source, FileClass::STRICT);
    assert!(diags.iter().all(|d| d.suggestion.contains("BTreeMap")));
}
