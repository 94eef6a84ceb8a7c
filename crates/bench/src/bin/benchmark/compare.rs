//! `BENCHMARK.json` as the benchmark itself reads it: the metric names a run
//! must emit (`--smoke`) and the bounds two runs are compared under
//! (`--compare`, the tool for the repeatability criterion).

use crate::json::{as_array, as_f64, as_str, get, parse};
use riot_sim::Json;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base by which the metric may get worse; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(root: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = get(root, key)
        .and_then(as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                get(m, f)
                    .and_then(as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
            };
            Ok(MetricSpec {
                name: field("name")?.to_owned(),
                unit: field("unit")?.to_owned(),
                higher_is_better: field("better")? == "higher",
                bound: get(m, "bound").and_then(as_f64),
            })
        })
        .collect()
}

pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let root = parse(text)?;
    let workloads = get(&root, "workloads")
        .and_then(as_array)
        .ok_or("BENCHMARK.json: no `workloads` list")?
        .iter()
        .filter_map(|w| get(w, "name").and_then(as_str).map(str::to_owned))
        .collect();
    Ok(Spec {
        workloads,
        end_to_end: metric_specs(&root, "end_to_end")?,
        per_layer: metric_specs(&root, "per_layer")?,
    })
}

/// Reads `BENCHMARK.json` from the current directory (the root of the
/// checkout the benchmark is run from).
pub fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    parse_spec(&text)
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What is wrong with the metrics one run emitted, against the names and
/// units `wanted`: every name exactly once, well-formed, with its unit.
pub fn name_problems(wanted: &[MetricSpec], emitted: &[(&str, &str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for spec in wanted {
        let hits: Vec<_> = emitted.iter().filter(|(n, _)| *n == spec.name).collect();
        match hits.as_slice() {
            [] => problems.push(format!("`{}` is not emitted", spec.name)),
            [(_, unit)] if *unit != spec.unit => problems.push(format!(
                "`{}` is emitted in `{unit}`, BENCHMARK.json says `{}`",
                spec.name, spec.unit
            )),
            [_] => {}
            many => problems.push(format!("`{}` is emitted {} times", spec.name, many.len())),
        }
    }
    for (name, unit) in emitted {
        if !well_formed(name) {
            problems.push(format!("`{name}` is not a well-formed metric name"));
        }
        if unit.is_empty() {
            problems.push(format!("`{name}` has no unit"));
        }
        if !wanted.iter().any(|s| s.name == *name) {
            problems.push(format!("`{name}` is emitted but not in BENCHMARK.json"));
        }
    }
    problems
}

/// How much worse `new` is than `base`, as a share of `base` (negative when
/// it is better).
fn worsening(spec: &MetricSpec, base: f64, new: f64) -> f64 {
    if spec.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    }
}

fn metric_value(file: &Json, name: &str) -> Option<f64> {
    get(get(get(file, "metrics")?, name)?, "value").and_then(as_f64)
}

/// Compares result file `new` against `base`. Returns the printed table and
/// whether `new` is acceptable: every end-to-end metric within its bound,
/// every count and the `sim_digest` exactly equal, no failed ops.
pub fn compare(spec: &Spec, base: &Json, new: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let ident = |file: &Json, key: &str| get(file, key).cloned().unwrap_or(Json::Null);
    for key in ["workload", "seed", "traced"] {
        if ident(base, key) != ident(new, key) {
            out.push_str(&format!(
                "FAIL  `{key}` differs: {} vs {}\n",
                ident(base, key).render(),
                ident(new, key).render()
            ));
            ok = false;
        }
    }
    if ident(base, "sim_digest") != ident(new, "sim_digest") {
        out.push_str(&format!(
            "FAIL  sim_digest {} vs {}\n",
            ident(base, "sim_digest").render(),
            ident(new, "sim_digest").render()
        ));
        ok = false;
    }
    for (label, file) in [("base", base), ("new", new)] {
        if get(file, "failed").and_then(as_f64) != Some(0.0) {
            out.push_str(&format!("FAIL  {label} run has failed ops\n"));
            ok = false;
        }
    }
    for spec in spec.end_to_end.iter().chain(&spec.per_layer) {
        let (Some(a), Some(b)) = (
            metric_value(base, &spec.name),
            metric_value(new, &spec.name),
        ) else {
            continue;
        };
        let ratio = if a == 0.0 { f64::NAN } else { b / a };
        let verdict = if let Some(bound) = spec.bound {
            let worse = worsening(spec, a, b);
            if worse > bound {
                ok = false;
                format!(
                    "FAIL  worse by {:.1}% > {:.0}%",
                    worse * 100.0,
                    bound * 100.0
                )
            } else {
                format!("ok    within {:.0}%", bound * 100.0)
            }
        } else if spec.unit == "count" {
            if a == b {
                "ok    equal".to_owned()
            } else {
                ok = false;
                "FAIL  counts differ".to_owned()
            }
        } else {
            "      (no bound)".to_owned()
        };
        out.push_str(&format!(
            "{:<28} {:>14.6e} / {:>14.6e} = {:>7.4} of base  {}  {verdict}\n",
            spec.name, b, a, ratio, spec.unit
        ));
    }
    (out, ok)
}

/// The result files of a directory (not the `trace_*.json` side files), or
/// the file itself.
fn result_files(path: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.starts_with("trace_")
        })
        .collect();
    files.sort();
    Ok(files)
}

/// `--compare base new` over two result files, or over two `--out`
/// directories (every result file of `base` against its namesake in `new`).
pub fn compare_paths(base: &Path, new: &Path) -> Result<bool, String> {
    let spec = load_spec()?;
    let read = |p: &Path| {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let mut all_ok = true;
    for base_file in result_files(base)? {
        let new_file = if new.is_dir() {
            new.join(base_file.file_name().unwrap_or_default())
        } else {
            new.to_path_buf()
        };
        println!("== {} vs {}", new_file.display(), base_file.display());
        let (table, ok) = compare(&spec, &read(&base_file)?, &read(&new_file)?);
        print!("{table}");
        all_ok &= ok;
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "workloads": [{"name": "w", "why": "because"}],
        "end_to_end": [
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}
        ],
        "per_layer": [
            {"name": "sim.events", "unit": "count", "better": "lower"},
            {"name": "sim.ns", "unit": "ns", "better": "lower"}
        ]
    }"#;

    fn file(rate: f64, setup: f64, events: u64, digest: &str) -> Json {
        parse(&format!(
            r#"{{"workload": "w", "seed": 1, "traced": false, "failed": 0,
                "sim_digest": "{digest}",
                "metrics": {{"rate": {{"value": {rate}, "unit": "1/s"}},
                             "setup_s": {{"value": {setup}, "unit": "s"}},
                             "sim.events": {{"value": {events}, "unit": "count"}},
                             "sim.ns": {{"value": 5.0, "unit": "ns"}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn spec_parses() {
        let spec = parse_spec(SPEC).unwrap();
        assert_eq!(spec.workloads, ["w"]);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert!(spec.end_to_end[0].higher_is_better);
        assert!(!spec.end_to_end[1].higher_is_better);
        assert_eq!(spec.per_layer[0].bound, None);
        assert!(parse_spec("{}").is_err());
    }

    #[test]
    fn bounds_apply_in_the_direction_of_worse() {
        let spec = parse_spec(SPEC).unwrap();
        let base = file(100.0, 1.0, 7, "aa");
        assert!(
            compare(&spec, &base, &file(91.0, 1.19, 7, "aa")).1,
            "inside both"
        );
        assert!(
            compare(&spec, &base, &file(500.0, 0.1, 7, "aa")).1,
            "better is fine"
        );
        assert!(
            !compare(&spec, &base, &file(89.0, 1.0, 7, "aa")).1,
            "rate fell 11%"
        );
        assert!(
            !compare(&spec, &base, &file(100.0, 1.21, 7, "aa")).1,
            "setup rose 21%"
        );
    }

    #[test]
    fn counts_and_digests_must_agree_exactly() {
        let spec = parse_spec(SPEC).unwrap();
        let base = file(100.0, 1.0, 7, "aa");
        assert!(!compare(&spec, &base, &file(100.0, 1.0, 8, "aa")).1);
        assert!(!compare(&spec, &base, &file(100.0, 1.0, 7, "ab")).1);
        let (table, _) = compare(&spec, &base, &base);
        assert!(
            table.contains("of base"),
            "every ratio names its base: {table}"
        );
    }

    #[test]
    fn names_are_checked_once_each_with_units() {
        let spec = parse_spec(SPEC).unwrap();
        let ok = [("rate", "1/s"), ("setup_s", "s")];
        assert!(name_problems(&spec.end_to_end, &ok).is_empty());
        let problems = name_problems(
            &spec.end_to_end,
            &[
                ("rate", "1/s"),
                ("rate", "1/s"),
                ("bad name", "s"),
                ("extra", ""),
            ],
        );
        let text = problems.join("\n");
        assert!(text.contains("`rate` is emitted 2 times"), "{text}");
        assert!(text.contains("`setup_s` is not emitted"), "{text}");
        assert!(text.contains("`bad name` is not a well-formed"), "{text}");
        assert!(text.contains("`extra` has no unit"), "{text}");
        let wrong_unit = name_problems(&spec.end_to_end, &[("rate", "ms"), ("setup_s", "s")]);
        assert_eq!(wrong_unit.len(), 1);
    }
}
