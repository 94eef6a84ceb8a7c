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
//!
//! Validation refuses a vector whose last event plus its heal passes the
//! simulation clock, or that expands to more than 2²⁰ events
//! (`MAX_VECTOR_EVENTS`), counting both from the parameters before
//! anything is allocated for it.

use crate::compile::{extent, Campaign};
use crate::vector::{CampaignVector, Dim, KINDS, MODES};
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
#[derive(Debug, Clone, PartialEq)]
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

/// The most events one vector may expand to (2²⁰: one firmware wave over
/// 10⁶ devices fits). `spec()` compiles every event of a vector before it
/// clamps the schedule to the run, so a count past this is a units mistake
/// or hostile input, and validation says so instead of allocating it.
const MAX_VECTOR_EVENTS: u64 = 1 << 20;

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

/// The DSL keyword of each maturity level.
const LEVELS: [(&str, MaturityLevel); 4] = [
    ("ml1", MaturityLevel::Ml1),
    ("ml2", MaturityLevel::Ml2),
    ("ml3", MaturityLevel::Ml3),
    ("ml4", MaturityLevel::Ml4),
];

/// The keyword a keyword table gives `value`.
pub(crate) fn keyword<T: PartialEq>(table: &[(&'static str, T)], value: T) -> &'static str {
    table
        .iter()
        .find(|(_, v)| *v == value)
        .map_or("", |(k, _)| k)
}

/// The value a keyword table gives `word`.
pub(crate) fn parse_keyword<T: Copy>(table: &[(&str, T)], word: &str) -> Option<T> {
    table.iter().find(|(k, _)| *k == word).map(|&(_, v)| v)
}

/// The implicit first key of every vector kind.
const ONSET: [(&str, Dim); 1] = [("onset", Dim::Onset)];

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
    let Some(row) = KINDS.iter().find(|k| k.name == kind) else {
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
            match parse_keyword(&MODES, v) {
                Some(m) => mode = Some(m),
                None => return err(line, format!("mode: unknown '{v}'")),
            }
        } else {
            assigns.push((k, parse_u64(k, v, line)?));
        }
    }
    let mut vector = row.template;
    if let CampaignVector::Adversary { mode: slot, .. } = &mut vector {
        let Some(m) = mode else {
            return err(line, "adversary: missing mode=delay|drop|flap");
        };
        *slot = m;
    }
    let mut seen = [false; 8];
    for (k, n) in assigns {
        let mut keys = ONSET.iter().chain(row.keys).zip(seen.iter_mut());
        let Some((&(_, dim), flag)) = keys.find(|((key, _), _)| *key == k) else {
            return err(line, format!("{kind}: unknown key '{k}'"));
        };
        if *flag {
            return err(line, format!("duplicate key '{k}'"));
        }
        *flag = true;
        if n < dim.floor() {
            return err(
                line,
                format!("{k}: {n} below the minimum of {}", dim.floor()),
            );
        }
        vector.set(dim, n);
    }
    for ((key, _), flag) in ONSET.iter().chain(row.keys).zip(&seen) {
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
                            "level" => match parse_keyword(&LEVELS, v) {
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
        // Every instant the run and its schedule name must fit the clock:
        // the duration (the warmup is shorter), and each vector's last
        // event plus its heal.
        let fits = |secs: u64| SimDuration::checked_from_secs(secs).is_some();
        if !fits(self.scenario.duration_s) {
            return err(0, "scenario duration does not fit the simulation clock");
        }
        // The spec's own shape checks (the kernel numbers every node with a
        // `u32`), once the duration is known to fit the spec's clock.
        if let Err(e) = self.scenario.to_spec(&self.name).validate() {
            return err(0, format!("scenario: {e}"));
        }
        let (edges, devices) = (self.scenario.edges, self.scenario.devices_per_edge);
        for v in self.campaign.vectors() {
            let kind = v.kind().name;
            let Some((events, _)) = extent(v, edges, devices).filter(|&(_, reach)| fits(reach))
            else {
                return err(
                    0,
                    format!("vector {kind}: its schedule runs past the simulation clock"),
                );
            };
            if events > MAX_VECTOR_EVENTS {
                let most = MAX_VECTOR_EVENTS;
                return err(
                    0,
                    format!("vector {kind}: {events} events exceed the maximum of {most}"),
                );
            }
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
            keyword(&LEVELS, s.level),
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
            let kind = v.kind();
            let _ = write!(out, "vector {} onset={}", kind.name, v.onset());
            if let CampaignVector::Adversary { mode, .. } = *v {
                let _ = write!(out, " mode={}", keyword(&MODES, mode));
            }
            for &(key, dim) in kind.keys {
                if let Some(value) = v.get(dim) {
                    let _ = write!(out, " {key}={value}");
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
    use crate::vector::AdversaryMode;
    use riot_sim::SimRng;

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

    /// One vector of every kind renders to this text: the DSL keyword,
    /// `onset`, the adversary's `mode`, then each kind's keys in order.
    #[test]
    fn one_vector_of_every_kind_renders_as_pinned() {
        let mut p = CampaignProgram::new("kinds");
        for v in crate::vector::tests::samples() {
            p.campaign.push(v);
        }
        let rendered = p.render();
        let vectors: Vec<&str> = rendered
            .lines()
            .filter(|l| l.starts_with("vector "))
            .collect();
        assert_eq!(
            vectors,
            [
                "vector cascade onset=40 count=2 spacing=5 recover=20",
                "vector firmware-wave onset=30 batch=3 spacing=4 outage=6",
                "vector fault-storm onset=62 spacing=1 per-edge=3 stride=2 offset=1",
                "vector mobility-burst onset=40 roamers=4 spacing=10",
                "vector jurisdiction-flip onset=45 edge=0",
                "vector cloud-blackout onset=40 heal=25",
                "vector split-brain onset=80 heal=15",
                "vector adversary onset=20 mode=flap factor=4 duration=16 links=2",
            ]
        );
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
                "campaign \"x\"\nscenario edges=4294967296 devices=4294967296",
                "u32 process ids",
            ),
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

    /// One seeded mutant of `base`: one to four byte flips, inserts,
    /// deletes, duplications and line splices (lines drawn from `corpus`),
    /// read back as UTF-8 with invalid sequences replaced.
    fn mutant(rng: &mut SimRng, base: &str, corpus: &[&str]) -> String {
        const BYTES: &[u8] = b"0123456789=\" #\n\t-_.!|&()GFXUabcdefgmlovxyz\x00\xff";
        let mut bytes = base.as_bytes().to_vec();
        for _ in 0..rng.range_u64(1, 5) {
            let at = rng.range_u64(0, bytes.len() as u64 + 1) as usize;
            match rng.range_u64(0, 5) {
                0 if at < bytes.len() => bytes[at] ^= 1 << rng.range_u64(0, 8),
                1 => {
                    let byte = *rng.pick(BYTES).unwrap_or(&b' ');
                    bytes.insert(at, byte);
                }
                2 if at < bytes.len() => {
                    let end = (at + rng.range_u64(1, 4) as usize).min(bytes.len());
                    bytes.drain(at..end);
                }
                3 if at < bytes.len() => {
                    let end = (at + rng.range_u64(1, 9) as usize).min(bytes.len());
                    let copy = bytes[at..end].to_vec();
                    bytes.splice(at..at, copy);
                }
                _ => {
                    let lines: Vec<&str> = corpus.iter().flat_map(|t| t.lines()).collect();
                    let line = rng.pick(&lines).copied().unwrap_or("");
                    let text = String::from_utf8_lossy(&bytes).into_owned();
                    let mut out: Vec<&str> = text.lines().collect();
                    let pos = rng.range_u64(0, out.len() as u64 + 1) as usize;
                    out.insert(pos, line);
                    bytes = out.join("\n").into_bytes();
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Hostile input: seeded byte mutants of the committed reproducers and
    /// the example never panic the parser. Each parses to a program that
    /// round-trips through `render` and compiles without a panic, or fails
    /// with an error on a line the text has (0 for whole-program checks).
    #[test]
    fn mutated_programs_parse_or_fail_on_a_line() {
        let corpus = [
            EXAMPLE,
            include_str!("../../../tests/campaigns/blackout_availability.campaign"),
            include_str!("../../../tests/campaigns/storm_coverage.campaign"),
        ];
        let (mut parsed, mut failed) = (0, 0);
        for seed in [1, 2, 3, 4] {
            let mut rng = SimRng::seed_from(0xCA3D_0000 + seed);
            for i in 0..2_000 {
                let base = corpus[i % corpus.len()];
                let text = mutant(&mut rng, base, &corpus);
                let outcome = std::panic::catch_unwind(|| CampaignProgram::parse(&text));
                let Ok(outcome) = outcome else {
                    panic!("seed {seed} mutant {i} panics the parser: {text:?}");
                };
                match outcome {
                    Ok(p) => {
                        let back = CampaignProgram::parse(&p.render());
                        assert_eq!(back.as_ref(), Ok(&p), "seed {seed} mutant {i}: {text:?}");
                        let compiled = std::panic::catch_unwind(|| {
                            let spec = p.spec();
                            p.campaign.compile(&spec)
                        });
                        assert!(
                            compiled.is_ok(),
                            "seed {seed} mutant {i} panics compile: {text:?}"
                        );
                        parsed += 1;
                    }
                    Err(e) => {
                        let lines = text.lines().count();
                        assert!(e.line <= lines, "seed {seed} mutant {i}: {e} of {lines}");
                        failed += 1;
                    }
                }
            }
        }
        assert!(
            parsed > 100 && failed > 100,
            "{parsed} parsed, {failed} failed"
        );
    }

    /// Hostile input: a number of seconds that the clock cannot hold — on
    /// its own or with the offsets compiling adds — is a validation error,
    /// not an overflow in `spec()`; the largest accepted values compile.
    #[test]
    fn seconds_past_the_clock_are_rejected_and_the_last_that_fit_compile() {
        let last = u64::MAX / 1_000_000;
        let half = last / 2;
        let max = u64::MAX;
        let program = |body: &str| format!("campaign \"clock\"\n{body}");
        for body in [
            format!("scenario duration={max}"),
            format!("scenario duration={}", last + 1),
            format!("vector cloud-blackout onset={max} heal=0"),
            format!("vector cloud-blackout onset={last} heal=1"),
            format!("vector split-brain onset=1 heal={max}"),
            format!(
                "vector cascade onset=1 count=3 spacing={} recover=0",
                half + 1
            ),
            format!("vector fault-storm onset=0 spacing={max} per-edge=2 stride=1 offset=0"),
            format!("vector firmware-wave onset=0 batch=1 spacing={last} outage=0"),
            format!("vector adversary onset=0 mode=flap factor=4 duration={max} links=1"),
        ] {
            let e = CampaignProgram::parse(&program(&body)).expect_err(&body);
            assert!(e.to_string().contains("simulation clock"), "{body}: {e}");
        }
        for body in [
            format!("scenario duration={last} warmup={}", last - 1),
            format!("vector cloud-blackout onset={last} heal=0"),
            format!("vector cloud-blackout onset=30 heal={}", last - 30),
            format!("vector cascade onset=1 count=3 spacing={half} recover=0"),
            format!("vector adversary onset=0 mode=drop factor=2 duration={last} links=1"),
        ] {
            let p = CampaignProgram::parse(&program(&body)).expect(&body);
            let spec = p.spec();
            p.campaign.compile(&spec);
        }
    }

    /// Hostile input: a vector that would expand to more than 2²⁰ events is
    /// a validation error on line 0, found by counting them, so `parse`
    /// never allocates them; an expansion at the bound parses.
    #[test]
    fn expansions_past_the_event_bound_are_rejected() {
        let huge = 1_000_000_000_000_000_000u64;
        let over = (1u64 << 20) + 1;
        // 2 × 10⁶ devices is a fleet the kernel can number.
        let fleet = |edges: u64| {
            format!("campaign \"big\"\nscenario edges={edges} devices=1000 duration=60 warmup=10")
        };
        for (edges, vector) in [
            (
                2,
                format!("cascade onset=20 count={huge} spacing=0 recover=0"),
            ),
            (
                2_000,
                format!("cascade onset=20 count={over} spacing=0 recover=0"),
            ),
            (
                2,
                format!("mobility-burst onset=20 roamers={huge} spacing=0"),
            ),
            (
                2_000,
                "firmware-wave onset=20 batch=1 spacing=0 outage=0".to_owned(),
            ),
        ] {
            let text = format!("{}\nvector {vector}", fleet(edges));
            let e = CampaignProgram::parse(&text).expect_err(&vector);
            assert_eq!(e.line, 0, "{vector}: {e}");
            assert!(e.to_string().contains("events"), "{vector}: {e}");
        }
        for (edges, vector) in [
            (
                2,
                format!("cascade onset=20 count={} spacing=0 recover=0", over - 1),
            ),
            (
                1_000,
                "firmware-wave onset=20 batch=1 spacing=0 outage=0".to_owned(),
            ),
        ] {
            let text = format!("{}\nvector {vector}", fleet(edges));
            CampaignProgram::parse(&text).expect(&vector);
        }
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
