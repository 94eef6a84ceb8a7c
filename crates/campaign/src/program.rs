//! The campaign *program*: a self-contained, line-oriented text format
//! binding a scenario shape, monitor oracles, a [`Campaign`] and the
//! expected findings into one reproducible artifact.
//!
//! Programs are what the fuzzer shrinks failing campaigns into and what
//! `tests/campaigns/*.campaign` regression files contain. The grammar is
//! deliberately flat — one directive per line, `#` comments — so a
//! reproducer diff reads like a configuration change:
//!
//! ```text
//! campaign "blackout-storm"
//! scenario level=ml2 edges=2 devices=3 duration=48 warmup=12 seed=7
//! oracle coverage_safe "G coverage"
//! vector cloud-blackout onset=30 heal=0
//! vector fault-storm onset=31 spacing=1 per-edge=2 stride=1 offset=0
//! expect violated coverage_safe
//! ```
//!
//! Parsing and [`CampaignProgram::render`] round-trip exactly:
//! `parse(render(p)) == p` for every valid program, which the tier-1
//! regression suite pins.

use crate::compile::Campaign;
use crate::vector::{AdversaryMode, CampaignVector, Dim};
use riot_core::{MonitorSpec, ScenarioSpec};
use riot_model::MaturityLevel;
use riot_sim::{SimDuration, SimTime};
use std::fmt::Write as _;

/// The scenario shape a program runs against. A compact, `Copy` subset of
/// [`ScenarioSpec`]: everything else (thresholds, architecture, sampling)
/// stays at the spec defaults so a reproducer pins only what it varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioParams {
    /// Maturity level under test.
    pub level: MaturityLevel,
    /// Edge count.
    pub edges: usize,
    /// Devices per edge.
    pub devices_per_edge: usize,
    /// Run length (virtual seconds).
    pub duration_s: u64,
    /// Calm window before disruptions (virtual seconds).
    pub warmup_s: u64,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for ScenarioParams {
    /// The deliberately weakened fuzzing deployment: a small ML2 system
    /// whose only MAPE loop lives in the cloud — severing or saturating
    /// the cloud leaves faults unrepaired, so the monitor oracles have
    /// something to find.
    fn default() -> Self {
        ScenarioParams {
            level: MaturityLevel::Ml2,
            edges: 2,
            devices_per_edge: 3,
            duration_s: 48,
            warmup_s: 12,
            seed: 7,
        }
    }
}

impl ScenarioParams {
    /// Materializes a full [`ScenarioSpec`] (no disruptions, no monitors —
    /// the program layers those on in [`CampaignProgram::spec`]).
    pub fn to_spec(&self, name: &str) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(name, self.level, self.seed);
        spec.edges = self.edges;
        spec.devices_per_edge = self.devices_per_edge;
        spec.duration = SimDuration::from_secs(self.duration_s);
        spec.warmup = SimDuration::from_secs(self.warmup_s);
        spec
    }
}

/// A finding the program expects its run to produce (the regression
/// contract of a committed reproducer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// The named monitor's property fails to hold at end of run.
    Violated {
        /// Monitor name, matching an `oracle` directive.
        monitor: String,
    },
    /// The run panics (crash finding).
    Crash,
}

/// A parsed campaign program. See the module docs for the grammar.
#[derive(Debug, Clone)]
pub struct CampaignProgram {
    /// Program name (becomes the scenario name).
    pub name: String,
    /// Scenario shape.
    pub scenario: ScenarioParams,
    /// Monitor oracles, in declaration order.
    pub oracles: Vec<MonitorSpec>,
    /// The disruption campaign.
    pub campaign: Campaign,
    /// Expected findings, in declaration order (empty for a program that
    /// has not found anything yet).
    pub expect: Vec<Expectation>,
}

impl PartialEq for CampaignProgram {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.scenario == other.scenario
            && self.campaign == other.campaign
            && self.expect == other.expect
            && self.oracles.len() == other.oracles.len()
            && self
                .oracles
                .iter()
                .zip(&other.oracles)
                .all(|(a, b)| a.name == b.name && a.formula == b.formula)
    }
}

/// A parse or validation error, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignParseError {
    /// 1-based line number (0 for whole-program validation errors).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for CampaignParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "campaign program: {}", self.msg)
        } else {
            write!(f, "campaign program line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for CampaignParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, CampaignParseError> {
    Err(CampaignParseError {
        line,
        msg: msg.into(),
    })
}

/// Renders a maturity level as its DSL keyword.
fn level_keyword(level: MaturityLevel) -> &'static str {
    match level {
        MaturityLevel::Ml1 => "ml1",
        MaturityLevel::Ml2 => "ml2",
        MaturityLevel::Ml3 => "ml3",
        MaturityLevel::Ml4 => "ml4",
    }
}

fn parse_level(s: &str) -> Option<MaturityLevel> {
    match s {
        "ml1" => Some(MaturityLevel::Ml1),
        "ml2" => Some(MaturityLevel::Ml2),
        "ml3" => Some(MaturityLevel::Ml3),
        "ml4" => Some(MaturityLevel::Ml4),
        _ => None,
    }
}

/// The canonical `key=value` parameter list of a vector kind, as
/// `(key, dim)` pairs in render order (after the implicit `onset`).
fn kind_keys(kind: &str) -> Option<&'static [(&'static str, Dim)]> {
    match kind {
        "cascade" => Some(&[
            ("count", Dim::Count),
            ("spacing", Dim::Spacing),
            ("recover", Dim::Heal),
        ]),
        "firmware-wave" => Some(&[
            ("batch", Dim::Count),
            ("spacing", Dim::Spacing),
            ("outage", Dim::Heal),
        ]),
        "fault-storm" => Some(&[
            ("spacing", Dim::Spacing),
            ("per-edge", Dim::Count),
            ("stride", Dim::Stride),
            ("offset", Dim::Offset),
        ]),
        "mobility-burst" => Some(&[("roamers", Dim::Count), ("spacing", Dim::Spacing)]),
        "jurisdiction-flip" => Some(&[("edge", Dim::Offset)]),
        "cloud-blackout" => Some(&[("heal", Dim::Heal)]),
        "split-brain" => Some(&[("heal", Dim::Heal)]),
        "adversary" => Some(&[
            ("factor", Dim::Factor),
            ("duration", Dim::Heal),
            ("links", Dim::Links),
        ]),
        _ => None,
    }
}

/// A zero-valued vector of the named kind (parameters filled in by the
/// parser through the [`Dim`] lattice).
fn kind_template(kind: &str, mode: AdversaryMode) -> Option<CampaignVector> {
    match kind {
        "cascade" => Some(CampaignVector::Cascade {
            onset: 0,
            count: 1,
            spacing: 0,
            recover: 0,
        }),
        "firmware-wave" => Some(CampaignVector::FirmwareWave {
            onset: 0,
            batch: 1,
            spacing: 0,
            outage: 0,
        }),
        "fault-storm" => Some(CampaignVector::FaultStorm {
            onset: 0,
            spacing: 0,
            per_edge: 1,
            stride: 1,
            offset: 0,
        }),
        "mobility-burst" => Some(CampaignVector::MobilityBurst {
            onset: 0,
            roamers: 1,
            spacing: 0,
        }),
        "jurisdiction-flip" => Some(CampaignVector::JurisdictionFlip { onset: 0, edge: 0 }),
        "cloud-blackout" => Some(CampaignVector::CloudBlackout { onset: 0, heal: 0 }),
        "split-brain" => Some(CampaignVector::SplitBrain { onset: 0, heal: 0 }),
        "adversary" => Some(CampaignVector::Adversary {
            onset: 0,
            mode,
            factor: 1,
            duration: 0,
            links: 1,
        }),
        _ => None,
    }
}

/// Parses one `key=value` token.
fn parse_kv(token: &str, line: usize) -> Result<(&str, &str), CampaignParseError> {
    match token.split_once('=') {
        Some((k, v)) if !k.is_empty() && !v.is_empty() => Ok((k, v)),
        _ => err(line, format!("expected key=value, got '{token}'")),
    }
}

fn parse_u64(key: &str, value: &str, line: usize) -> Result<u64, CampaignParseError> {
    match value.parse::<u64>() {
        Ok(n) => Ok(n),
        Err(_) => err(
            line,
            format!("{key}: '{value}' is not a non-negative integer"),
        ),
    }
}

/// Parses one `vector <kind> key=val…` directive body.
fn parse_vector(rest: &str, line: usize) -> Result<CampaignVector, CampaignParseError> {
    let mut tokens = rest.split_whitespace();
    let Some(kind) = tokens.next() else {
        return err(line, "vector: missing kind");
    };
    let Some(keys) = kind_keys(kind) else {
        return err(line, format!("vector: unknown kind '{kind}'"));
    };
    // First pass: pull mode (adversary only) so the template is complete,
    // collect the numeric assignments.
    let mut mode = None;
    let mut assigns: Vec<(&str, u64)> = Vec::new();
    for token in tokens {
        let (k, v) = parse_kv(token, line)?;
        if k == "mode" {
            if kind != "adversary" {
                return err(line, format!("{kind}: 'mode' only applies to adversary"));
            }
            match AdversaryMode::parse(v) {
                Some(m) => mode = Some(m),
                None => return err(line, format!("mode: unknown '{v}'")),
            }
        } else {
            assigns.push((k, parse_u64(k, v, line)?));
        }
    }
    if kind == "adversary" && mode.is_none() {
        return err(line, "adversary: missing mode=delay|drop|flap");
    }
    let Some(mut vector) = kind_template(kind, mode.unwrap_or(AdversaryMode::Delay)) else {
        return err(line, format!("vector: unknown kind '{kind}'"));
    };
    let mut seen_onset = false;
    let mut seen = [false; 8];
    for (k, n) in assigns {
        if k == "onset" {
            if seen_onset {
                return err(line, "duplicate key 'onset'");
            }
            seen_onset = true;
            vector.set(Dim::Onset, n);
            if vector.get(Dim::Onset) != Some(n) {
                return err(line, format!("onset: {n} out of range"));
            }
            continue;
        }
        let mut found = None;
        for ((key, dim), flag) in keys.iter().zip(seen.iter_mut()) {
            if *key == k {
                found = Some((*dim, flag));
                break;
            }
        }
        let Some((dim, flag)) = found else {
            return err(line, format!("{kind}: unknown key '{k}'"));
        };
        if *flag {
            return err(line, format!("duplicate key '{k}'"));
        }
        *flag = true;
        vector.set(dim, n);
        if vector.get(dim) != Some(n) {
            return err(
                line,
                format!("{k}: {n} below the minimum of {}", dim.floor()),
            );
        }
    }
    if !seen_onset {
        return err(line, format!("{kind}: missing key 'onset'"));
    }
    for ((key, _), flag) in keys.iter().zip(seen.iter()) {
        if !*flag {
            return err(line, format!("{kind}: missing key '{key}'"));
        }
    }
    Ok(vector)
}

/// Parses a quoted string (`"..."` with no embedded quotes), returning the
/// content and the remainder.
fn parse_quoted(rest: &str, line: usize) -> Result<(&str, &str), CampaignParseError> {
    let rest = rest.trim_start();
    let Some(body) = rest.strip_prefix('"') else {
        return err(line, format!("expected a quoted string, got '{rest}'"));
    };
    let Some(end) = body.find('"') else {
        return err(line, "unterminated quoted string");
    };
    let (content, tail) = body.split_at(end);
    let tail = tail.strip_prefix('"').unwrap_or(tail);
    Ok((content, tail.trim()))
}

impl CampaignProgram {
    /// A program over the default (weakened) scenario with no vectors, no
    /// oracles and no expectations.
    pub fn new(name: impl Into<String>) -> CampaignProgram {
        CampaignProgram {
            name: name.into(),
            scenario: ScenarioParams::default(),
            oracles: Vec::new(),
            campaign: Campaign::new(),
            expect: Vec::new(),
        }
    }

    /// Parses a program from DSL text. Validates structure (directive
    /// syntax, known kinds/keys), scenario sanity (≥1 edge and device,
    /// warmup < duration), oracle formulas (must parse as LTL) and
    /// expectation references (must name a declared oracle).
    pub fn parse(text: &str) -> Result<CampaignProgram, CampaignParseError> {
        let mut name: Option<String> = None;
        let mut scenario = ScenarioParams::default();
        let mut oracles: Vec<MonitorSpec> = Vec::new();
        let mut campaign = Campaign::new();
        let mut expect: Vec<Expectation> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (directive, rest) = match line.split_once(char::is_whitespace) {
                Some((d, r)) => (d, r.trim()),
                None => (line, ""),
            };
            match directive {
                "campaign" => {
                    if name.is_some() {
                        return err(lineno, "duplicate 'campaign' directive");
                    }
                    let (n, tail) = parse_quoted(rest, lineno)?;
                    if !tail.is_empty() {
                        return err(lineno, format!("trailing input '{tail}'"));
                    }
                    if n.is_empty() {
                        return err(lineno, "campaign name must be non-empty");
                    }
                    name = Some(n.to_owned());
                }
                "scenario" => {
                    for token in rest.split_whitespace() {
                        let (k, v) = parse_kv(token, lineno)?;
                        match k {
                            "level" => match parse_level(v) {
                                Some(l) => scenario.level = l,
                                None => return err(lineno, format!("level: unknown '{v}'")),
                            },
                            "edges" => scenario.edges = parse_u64(k, v, lineno)? as usize,
                            "devices" => {
                                scenario.devices_per_edge = parse_u64(k, v, lineno)? as usize;
                            }
                            "duration" => scenario.duration_s = parse_u64(k, v, lineno)?,
                            "warmup" => scenario.warmup_s = parse_u64(k, v, lineno)?,
                            "seed" => scenario.seed = parse_u64(k, v, lineno)?,
                            _ => return err(lineno, format!("scenario: unknown key '{k}'")),
                        }
                    }
                }
                "oracle" => {
                    let (oname, quoted) = match rest.split_once(char::is_whitespace) {
                        Some((n, r)) => (n, r.trim()),
                        None => return err(lineno, "oracle: expected <name> \"<formula>\""),
                    };
                    let (formula, tail) = parse_quoted(quoted, lineno)?;
                    if !tail.is_empty() {
                        return err(lineno, format!("trailing input '{tail}'"));
                    }
                    let oracle = MonitorSpec::new(oname, formula);
                    if let Err(e) = oracle.validate() {
                        return err(lineno, format!("oracle {oname}: {e}"));
                    }
                    if oracles.iter().any(|m| m.name == oname) {
                        return err(lineno, format!("duplicate oracle '{oname}'"));
                    }
                    oracles.push(oracle);
                }
                "vector" => campaign.push(parse_vector(rest, lineno)?),
                "expect" => match rest.split_once(char::is_whitespace) {
                    Some(("violated", monitor)) => {
                        let monitor = monitor.trim();
                        expect.push(Expectation::Violated {
                            monitor: monitor.to_owned(),
                        });
                    }
                    None if rest == "crash" => expect.push(Expectation::Crash),
                    _ => {
                        return err(lineno, "expect: expected 'violated <monitor>' or 'crash'");
                    }
                },
                _ => return err(lineno, format!("unknown directive '{directive}'")),
            }
        }
        let Some(name) = name else {
            return err(0, "missing 'campaign \"<name>\"' directive");
        };
        let program = CampaignProgram {
            name,
            scenario,
            oracles,
            campaign,
            expect,
        };
        program.validate()?;
        Ok(program)
    }

    /// Whole-program validation (also run by [`CampaignProgram::parse`]).
    pub fn validate(&self) -> Result<(), CampaignParseError> {
        if self.scenario.edges == 0 || self.scenario.devices_per_edge == 0 {
            return err(0, "scenario needs at least one edge and one device");
        }
        if self.scenario.duration_s == 0 {
            return err(0, "scenario duration must be positive");
        }
        if self.scenario.warmup_s >= self.scenario.duration_s {
            return err(0, "scenario warmup must be shorter than the duration");
        }
        for e in &self.expect {
            if let Expectation::Violated { monitor } = e {
                if !self.oracles.iter().any(|m| &m.name == monitor) {
                    return err(0, format!("expect references unknown oracle '{monitor}'"));
                }
            }
        }
        Ok(())
    }

    /// Renders the canonical DSL text. `parse(render(p)) == p`.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = writeln!(out, "# riot-campaign program (generated; do not hand-sort)");
        let _ = writeln!(out, "campaign \"{}\"", self.name);
        let s = &self.scenario;
        let _ = writeln!(
            out,
            "scenario level={} edges={} devices={} duration={} warmup={} seed={}",
            level_keyword(s.level),
            s.edges,
            s.devices_per_edge,
            s.duration_s,
            s.warmup_s,
            s.seed
        );
        for m in &self.oracles {
            let _ = writeln!(out, "oracle {} \"{}\"", m.name, m.formula);
        }
        for v in self.campaign.vectors() {
            let _ = write!(out, "vector {} onset={}", v.kind_name(), v.onset());
            if let CampaignVector::Adversary { mode, .. } = v {
                let _ = write!(out, " mode={}", mode.name());
            }
            if let Some(keys) = kind_keys(v.kind_name()) {
                for (key, dim) in keys {
                    if let Some(value) = v.get(*dim) {
                        let _ = write!(out, " {key}={value}");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for e in &self.expect {
            match e {
                Expectation::Violated { monitor } => {
                    let _ = writeln!(out, "expect violated {monitor}");
                }
                Expectation::Crash => {
                    let _ = writeln!(out, "expect crash");
                }
            }
        }
        out
    }

    /// The fully-assembled [`ScenarioSpec`]: scenario shape, oracles as
    /// online monitors, and the campaign compiled then clamped to the run
    /// horizon (an event at or past the end can never fire).
    pub fn spec(&self) -> ScenarioSpec {
        let mut spec = self.scenario.to_spec(&self.name);
        spec.monitors = self.oracles.clone();
        let mut schedule = self.campaign.compile(&spec);
        schedule.clamp_to(SimTime::ZERO + spec.duration);
        spec.disruptions = schedule;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
# a hand-written reproducer
campaign "blackout-storm"
scenario level=ml2 edges=2 devices=3 duration=48 warmup=12 seed=7
oracle coverage_safe "G coverage"
oracle goal_recovers "G (!goal -> F goal)"
vector cloud-blackout onset=30 heal=0
vector fault-storm onset=31 spacing=1 per-edge=2 stride=1 offset=0
vector adversary onset=20 mode=flap factor=4 duration=16 links=2
expect violated coverage_safe
"#;

    #[test]
    fn parses_the_example() {
        let p = CampaignProgram::parse(EXAMPLE).expect("parses");
        assert_eq!(p.name, "blackout-storm");
        assert_eq!(p.scenario.level, MaturityLevel::Ml2);
        assert_eq!(p.scenario.edges, 2);
        assert_eq!(p.oracles.len(), 2);
        assert_eq!(p.campaign.len(), 3);
        assert_eq!(
            p.expect,
            vec![Expectation::Violated {
                monitor: "coverage_safe".to_owned()
            }]
        );
        assert!(matches!(
            p.campaign.vectors()[2],
            CampaignVector::Adversary {
                mode: AdversaryMode::Flap,
                factor: 4,
                ..
            }
        ));
    }

    #[test]
    fn render_parse_round_trips() {
        let p = CampaignProgram::parse(EXAMPLE).expect("parses");
        let rendered = p.render();
        let back = CampaignProgram::parse(&rendered).expect("round-trip parses");
        assert_eq!(back, p);
        assert_eq!(back.render(), rendered, "render is a fixpoint");
    }

    #[test]
    fn compile_round_trips_through_the_dsl() {
        // parse → compile → render → parse → compile: identical schedules.
        let p = CampaignProgram::parse(EXAMPLE).expect("parses");
        let spec = p.scenario.to_spec(&p.name);
        let direct = p.campaign.compile(&spec);
        let back = CampaignProgram::parse(&p.render()).expect("parses");
        assert_eq!(back.campaign.compile(&spec), direct);
        assert!(!direct.is_empty());
    }

    #[test]
    fn spec_clamps_to_the_run_horizon() {
        let mut p = CampaignProgram::parse(EXAMPLE).expect("parses");
        p.campaign.push(CampaignVector::CloudBlackout {
            onset: 9_999,
            heal: 0,
        });
        let spec = p.spec();
        assert_eq!(spec.monitors.len(), 2);
        assert!(spec
            .disruptions
            .last_at()
            .is_some_and(|t| t < SimTime::ZERO + spec.duration));
        // The unclamped compile retains the dead event.
        assert!(p
            .campaign
            .compile(&spec)
            .last_at()
            .is_some_and(|t| t >= SimTime::ZERO + spec.duration));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("campaign \"x\"\nvector warp onset=1", "unknown kind"),
            (
                "campaign \"x\"\nvector cascade onset=1 count=2",
                "missing key",
            ),
            (
                "campaign \"x\"\nvector cascade onset=1 count=2 spacing=1 recover=0 count=3",
                "duplicate key",
            ),
            (
                "campaign \"x\"\nvector adversary onset=1 factor=2 duration=4 links=1",
                "missing mode",
            ),
            ("campaign \"x\"\noracle bad \"G (\"", "bad formula"),
            (
                "campaign \"x\"\noracle c \"G !covrage\"",
                "oracle c: unknown atom 'covrage' (known: all goal latency availability coverage freshness privacy)",
            ),
            ("campaign \"x\"\nexpect violated ghost", "unknown oracle"),
            ("campaign \"x\"\nscenario warmup=50 duration=40", "warmup"),
            ("vector cloud-blackout onset=1 heal=0", "missing 'campaign"),
            ("campaign \"x\"\nflux onset=1", "unknown directive"),
            ("campaign \"x\"\nscenario edges=0", "at least one edge"),
            (
                "campaign \"x\"\nvector cascade onset=1 count=0 spacing=1 recover=0",
                "below the minimum",
            ),
        ];
        for (text, needle) in cases {
            let e = CampaignProgram::parse(text).expect_err(text);
            assert!(
                e.to_string().contains(needle),
                "'{}' should mention '{needle}', got: {e}",
                text.escape_debug()
            );
        }
        let e = CampaignProgram::parse("campaign \"x\"\nvector warp onset=1").unwrap_err();
        assert_eq!(e.line, 2, "line numbers are 1-based");
        // Hostile: more atoms than a valuation has bits is an error on the
        // oracle's line, not the vocabulary's panic.
        let wide: Vec<String> = (0..70).map(|i| format!("p{i}")).collect();
        let text = format!("campaign \"x\"\n\noracle wide \"G ({})\"", wide.join(" | "));
        let e = CampaignProgram::parse(&text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("oracle wide: bad formula"), "{e}");
    }

    #[test]
    fn scenario_defaults_are_the_weakened_deployment() {
        let p = CampaignProgram::parse("campaign \"d\"").expect("parses");
        assert_eq!(p.scenario, ScenarioParams::default());
        let spec = p.spec();
        assert_eq!(spec.edges, 2);
        assert_eq!(spec.devices_per_edge, 3);
        assert_eq!(spec.duration, SimDuration::from_secs(48));
        assert!(spec.disruptions.is_empty());
    }
}
