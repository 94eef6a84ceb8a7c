//! What one invocation reports, and the bookkeeping of ops and failures.

use crate::json;
use crate::workloads::{Rep, Workload};
use riot_sim::Json;

/// One reported number, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A JSON array of numbers.
pub fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Float).collect())
}

/// What one invocation reports.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// One op per scenario executed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `sim_digest` of the first rep.
    pub digest: u64,
    /// Why `failed` is not zero or a cross-check did not hold.
    pub problems: Vec<String>,
    /// Everything else worth keeping in the result file.
    pub detail: Vec<(String, Json)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line result the contract asks for on stdout.
    pub fn result_line(&self) -> Json {
        Json::Obj(self.result_fields())
    }

    fn result_fields(&self) -> Vec<(String, Json)> {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.to_owned(), value)
            })
            .collect();
        vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]
    }

    /// The result file: identification, the result line's fields, digest,
    /// and (untraced) dispersion and per-rep samples — what `--compare` reads.
    pub fn result_file(&self) -> Json {
        let mut fields = vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("seed".into(), Json::UInt(self.seed)),
            ("traced".into(), Json::Bool(self.traced)),
        ];
        fields.extend(self.result_fields());
        fields.push((
            "sim_digest".into(),
            Json::Str(format!("{:016x}", self.digest)),
        ));
        fields.push((
            "problems".into(),
            Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
        ));
        fields.extend(self.detail.iter().cloned());
        Json::Obj(fields)
    }
}

/// Digests pinned in `expected.json`, beside the code.
pub fn pinned_digest(workload: Workload, seed: u64) -> Option<u64> {
    let expected = json::parse(include_str!("expected.json")).expect("expected.json parses");
    let hex = json::get(json::get(&expected, workload.name())?, &seed.to_string())?;
    u64::from_str_radix(json::as_str(hex)?, 16).ok()
}

/// Tracks ops and the three ways one can fail: a panic, a rep that does not
/// repeat the first rep's digest, a first digest that is not the pinned one.
#[derive(Debug)]
pub struct Checker {
    pinned: Option<u64>,
    pub first: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    pub fn new(pinned: Option<u64>) -> Checker {
        Checker {
            pinned,
            first: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Counts a rep's ops. `modelled` is false for ablation reruns, which
    /// change the architecture and so cannot repeat the digest.
    pub fn rep(&mut self, what: &str, rep: &Rep, modelled: bool) {
        self.attempted += rep.attempted();
        if rep.panicked > 0 {
            self.failed += rep.panicked;
            self.problems
                .push(format!("{what}: {} scenario(s) panicked", rep.panicked));
        }
        if !modelled {
            return;
        }
        let (against, wanted) = match (self.first, self.pinned) {
            (Some(first), _) => ("the first rep's", first),
            (None, Some(pinned)) => ("the pinned", pinned),
            (None, None) => ("", rep.digest),
        };
        self.first.get_or_insert(rep.digest);
        if rep.digest != wanted {
            self.failed += rep.outcomes.len() as u64;
            self.problems.push(format!(
                "{what}: sim_digest {:016x} differs from {against} {wanted:016x}",
                rep.digest
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ScenarioOutcome;

    fn rep(digest: u64, panicked: u64) -> Rep {
        Rep {
            digest,
            panicked,
            outcomes: vec![ScenarioOutcome::default(); 2],
            ..Rep::default()
        }
    }

    #[test]
    fn ops_fail_on_panic_digest_drift_and_pin_mismatch() {
        let mut ok = Checker::new(Some(7));
        ok.rep("warm-up", &rep(7, 0), true);
        ok.rep("rep 1", &rep(7, 0), true);
        ok.rep("ablation", &rep(99, 0), false);
        assert_eq!((ok.attempted, ok.failed, ok.first), (6, 0, Some(7)));

        let mut drift = Checker::new(None);
        drift.rep("warm-up", &rep(7, 0), true);
        drift.rep("rep 1", &rep(8, 1), true);
        assert_eq!((drift.attempted, drift.failed), (5, 3));
        assert!(drift.problems[1].contains("the first rep's"));

        let mut mispinned = Checker::new(Some(1));
        mispinned.rep("warm-up", &rep(7, 0), true);
        mispinned.rep("rep 1", &rep(7, 0), true);
        assert_eq!(mispinned.failed, 2, "only the first rep answers to the pin");
        assert!(mispinned.problems[0].contains("the pinned"));
    }

    #[test]
    fn pins_exist_for_the_two_baseline_seeds_only() {
        for w in Workload::ALL {
            assert!(pinned_digest(w, 11).is_some(), "{w:?}");
            assert!(pinned_digest(w, 23).is_some(), "{w:?}");
            assert_eq!(pinned_digest(w, 12), None);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            workload: Workload::Mesh1e3,
            seed: 3,
            traced: false,
            attempted: 4,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.5,
            }],
            digest: 0xabc,
            problems: Vec::new(),
            detail: Vec::new(),
        };
        assert_eq!(
            report.result_line().render(),
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        let file = report.result_file();
        assert_eq!(
            json::get(&file, "sim_digest"),
            Some(&Json::Str("0000000000000abc".into()))
        );
        assert_eq!(
            json::get(&file, "workload"),
            Some(&Json::Str("mesh_1e3".into()))
        );
    }
}
