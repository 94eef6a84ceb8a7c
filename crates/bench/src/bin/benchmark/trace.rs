//! Instrumentation for the traced run, all of it on the benchmark's side of
//! the layer boundaries: in-memory spans around each call into a layer, and a
//! counting observer on the kernel's bus. Nothing here runs in an untraced
//! (end-to-end) measurement.

use riot_sim::{Json, ProcessId, SimEvent, SimEventKind, SimObserver, SimTime};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One timed interval: a call the benchmark made into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the process epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one scenario share its id (rep-local running number).
    pub scenario: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory until the benchmark ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span, its duration minus the part of it its child spans cover.
    /// Children of one parent never overlap here (one client, one thread),
    /// so the covered part is the sum of their durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Per span name: call count, total and self time. The trace file holds
    /// this roll-up plus the first `keep` raw spans (a 4 000-case sweep makes
    /// 28 000 of them; the roll-up is what the layer budget reads).
    pub fn to_json(&self, keep: usize) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let self_ns = self.self_times_ns();
        let rollup = names
            .iter()
            .map(|&name| {
                let mut calls = 0u64;
                let mut total = 0u64;
                let mut own = 0u64;
                for (s, self_ns) in self.spans.iter().zip(&self_ns) {
                    if s.name == name {
                        calls += 1;
                        total += s.duration_ns();
                        own += self_ns;
                    }
                }
                Json::Obj(vec![
                    ("name".into(), Json::Str(name.into())),
                    ("calls".into(), Json::UInt(calls)),
                    ("total_s".into(), Json::Float(total as f64 / 1e9)),
                    ("self_s".into(), Json::Float(own as f64 / 1e9)),
                ])
            })
            .collect();
        let raw = self
            .spans
            .iter()
            .take(keep)
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::UInt(s.start_ns)),
                    ("end_ns".into(), Json::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("scenario".into(), Json::UInt(s.scenario)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("span_count".into(), Json::UInt(self.spans.len() as u64)),
            ("by_name".into(), Json::Arr(rollup)),
            ("spans".into(), Json::Arr(raw)),
        ])
    }
}

/// Which tier a process belongs to, from the scenario's id layout
/// (`ScenarioSpec::cloud_id/edge_id/device_id`): cloud, then edges, then
/// devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Cloud = 0,
    Edge = 1,
    Device = 2,
    /// The scenario runner's own annotations (`ProcessId(usize::MAX)`).
    External = 3,
}

/// Maps process ids to tiers for one scenario shape.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub edges: usize,
}

impl Layout {
    pub fn tier(self, id: ProcessId) -> Tier {
        match id.0 {
            0 => Tier::Cloud,
            usize::MAX => Tier::External,
            i if i <= self.edges => Tier::Edge,
            _ => Tier::Device,
        }
    }
}

/// Bus event kinds, in `SimEventKind` declaration order with the two
/// lifecycle transitions folded together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sent = 0,
    Delivered = 1,
    Dropped = 2,
    TimerFired = 3,
    Lifecycle = 4,
    Note = 5,
    Measure = 6,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Sent,
        Kind::Delivered,
        Kind::Dropped,
        Kind::TimerFired,
        Kind::Lifecycle,
        Kind::Note,
        Kind::Measure,
    ];

    /// The name the kind's count is reported under (`sim.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sent => "sent",
            Kind::Delivered => "delivered",
            Kind::Dropped => "dropped",
            Kind::TimerFired => "timer_fired",
            Kind::Lifecycle => "lifecycle",
            Kind::Note => "notes",
            Kind::Measure => "measures",
        }
    }
}

/// Exactly repeatable work counts of one or more traced scenarios.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// `[Kind][Tier]`. A message event belongs to the
    /// tier that did the work: the sender of a `sent`, the receiver of a
    /// `delivered` or `dropped`.
    pub by_kind_tier: [[u64; 4]; 7],
    /// Sent messages by link class: device–edge, edge–edge, edge–cloud,
    /// device–cloud (either direction).
    pub by_link: [u64; 4],
    /// Most messages submitted and not yet delivered or dropped, over any
    /// one scenario.
    pub peak_inflight: u64,
    /// Distinct unordered sender–receiver pairs, summed over scenarios.
    pub pairs: u64,
    /// Sends that were the first of their pair since the last topology
    /// change: each makes `Network` resolve a route afresh.
    pub cold_routes: u64,
}

impl Counts {
    pub fn kind(&self, kind: Kind) -> u64 {
        self.by_kind_tier[kind as usize].iter().sum()
    }

    /// Events whose work a process of `tier` did.
    pub fn tier(&self, tier: Tier) -> u64 {
        self.by_kind_tier.iter().map(|k| k[tier as usize]).sum()
    }

    fn merge(&mut self, other: &Counts) {
        for (mine, theirs) in self.by_kind_tier.iter_mut().zip(&other.by_kind_tier) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        for (m, t) in self.by_link.iter_mut().zip(&other.by_link) {
            *m += t;
        }
        self.peak_inflight = self.peak_inflight.max(other.peak_inflight);
        self.pairs += other.pairs;
        self.cold_routes += other.cold_routes;
    }
}

/// Where observers of finished scenarios leave their counts.
pub type CountSink = Arc<Mutex<Counts>>;

/// Counts every bus event by kind and tier. Registered through
/// `ScenarioSpec::observers` with the default (ALL) interest mask; it counts
/// into plain fields and hands the totals to the sink when the scenario drops
/// it, so the per-event cost is a few adds.
pub struct CountingObserver {
    layout: Layout,
    counts: Counts,
    inflight: u64,
    /// Virtual times at which the schedule changes the topology, ascending.
    changes: Arc<[SimTime]>,
    /// How many of `changes` have passed.
    epoch: usize,
    /// Per unordered pair, the epoch of its latest send.
    last_sent: HashMap<(usize, usize), usize>,
    sink: CountSink,
}

impl CountingObserver {
    pub fn new(layout: Layout, changes: Arc<[SimTime]>, sink: CountSink) -> CountingObserver {
        CountingObserver {
            layout,
            counts: Counts::default(),
            inflight: 0,
            changes,
            epoch: 0,
            last_sent: HashMap::new(),
            sink,
        }
    }

    /// Notes a send between `a` and `b` at `at`; counts it as a cold route
    /// when the pair has not sent since the latest topology change.
    fn note_pair(&mut self, at: SimTime, a: usize, b: usize) {
        while self.changes.get(self.epoch).is_some_and(|&c| c <= at) {
            self.epoch += 1;
        }
        let last = self.last_sent.insert((a.min(b), a.max(b)), self.epoch);
        if last != Some(self.epoch) {
            self.counts.cold_routes += 1;
        }
    }

    fn link_class(&self, from: ProcessId, to: ProcessId) -> Option<usize> {
        let (a, b) = (self.layout.tier(from), self.layout.tier(to));
        let has = |t: Tier| a == t || b == t;
        match () {
            () if a == Tier::Edge && b == Tier::Edge => Some(1),
            () if has(Tier::Device) && has(Tier::Edge) => Some(0),
            () if has(Tier::Edge) && has(Tier::Cloud) => Some(2),
            () if has(Tier::Device) && has(Tier::Cloud) => Some(3),
            () => None,
        }
    }
}

impl SimObserver for CountingObserver {
    fn on_event(&mut self, event: &SimEvent) {
        let (kind, actor) = match &event.kind {
            SimEventKind::Sent { from, to } => {
                if let Some(class) = self.link_class(*from, *to) {
                    self.counts.by_link[class] += 1;
                }
                self.note_pair(event.at, from.0, to.0);
                self.inflight += 1;
                self.counts.peak_inflight = self.counts.peak_inflight.max(self.inflight);
                (Kind::Sent, *from)
            }
            SimEventKind::Delivered { to, .. } => {
                self.inflight = self.inflight.saturating_sub(1);
                (Kind::Delivered, *to)
            }
            SimEventKind::Dropped { to, .. } => {
                self.inflight = self.inflight.saturating_sub(1);
                (Kind::Dropped, *to)
            }
            SimEventKind::TimerFired { owner, .. } => (Kind::TimerFired, *owner),
            SimEventKind::ProcessDown { id } | SimEventKind::ProcessUp { id } => {
                (Kind::Lifecycle, *id)
            }
            SimEventKind::Note { id, .. } => (Kind::Note, *id),
            SimEventKind::Measure { id, .. } => (Kind::Measure, *id),
        };
        self.counts.by_kind_tier[kind as usize][self.layout.tier(actor) as usize] += 1;
    }

    fn name(&self) -> &str {
        "benchmark-counts"
    }
}

impl Drop for CountingObserver {
    fn drop(&mut self) {
        self.counts.pairs = self.last_sent.len() as u64;
        // A poisoned sink means another scenario panicked mid-merge; its
        // counts are already void, so there is nothing to add to.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&self.counts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            scenario: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::default();
        let root = log.push(span("harness.grid", 0, 1_000, None));
        let a = log.push(span("core.build", 100, 300, Some(root)));
        let b = log.push(span("core.run", 300, 900, Some(root)));
        let own = log.self_times_ns();
        assert_eq!(own[root], 1_000 - 200 - 600);
        assert_eq!((own[a], own[b]), (200, 600));
        assert_eq!(log.total_s("core.run"), 600e-9);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let mut log = SpanLog::default();
        let root = log.push(span("outer", 0, 100, None));
        // A child that (through clock skew) reads longer than its parent.
        log.push(span("inner", 0, 150, Some(root)));
        assert_eq!(log.self_times_ns()[root], 0);
    }

    fn event_at(secs: u64, kind: SimEventKind) -> SimEvent {
        SimEvent {
            at: SimTime::from_secs(secs),
            kind,
            detail: String::new(),
        }
    }

    fn event(kind: SimEventKind) -> SimEvent {
        event_at(0, kind)
    }

    #[test]
    fn observer_counts_by_kind_tier_and_link_and_flushes_on_drop() {
        let sink = CountSink::default();
        let layout = Layout { edges: 2 };
        // Layout: cloud 0, edges 1..=2, devices 3...
        let (cloud, edge, edge2, dev) = (ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3));
        let mut obs = CountingObserver::new(layout, Arc::from([]), sink.clone());
        for (from, to) in [(dev, edge), (edge, cloud), (edge, edge2), (dev, cloud)] {
            obs.on_event(&event(SimEventKind::Sent { from, to }));
        }
        obs.on_event(&event(SimEventKind::Sent {
            from: dev,
            to: edge,
        }));
        obs.on_event(&event(SimEventKind::Delivered {
            from: dev,
            to: edge,
        }));
        obs.on_event(&event(SimEventKind::Dropped {
            from: edge,
            to: cloud,
            reason: "loss",
        }));
        obs.on_event(&event(SimEventKind::TimerFired { owner: dev, tag: 0 }));
        obs.on_event(&event(SimEventKind::Note {
            id: ProcessId(usize::MAX),
            text: String::new(),
        }));
        assert_eq!(
            *sink.lock().unwrap(),
            Counts::default(),
            "nothing before drop"
        );
        drop(obs);
        let c = sink.lock().unwrap().clone();
        assert_eq!(c.by_link, [2, 1, 1, 1]);
        assert_eq!(c.kind(Kind::Sent), 5);
        assert_eq!(c.kind(Kind::Delivered), 1);
        assert_eq!(c.kind(Kind::Dropped), 1);
        assert_eq!(c.peak_inflight, 5);
        assert_eq!(c.pairs, 4);
        assert_eq!(c.cold_routes, 4, "no topology change: one per pair");
        assert_eq!(c.tier(Tier::Device), 3 + 1, "three sends and a timer");
        assert_eq!(c.tier(Tier::Edge), 2 + 1, "two sends and a delivery");
        assert_eq!(c.tier(Tier::Cloud), 1, "the drop was the cloud's");
        assert_eq!(c.tier(Tier::External), 1);
    }

    #[test]
    fn a_pair_is_cold_again_after_each_topology_change() {
        let sink = CountSink::default();
        let changes: Arc<[SimTime]> = Arc::from([SimTime::from_secs(10), SimTime::from_secs(20)]);
        let mut obs = CountingObserver::new(Layout { edges: 1 }, changes, sink.clone());
        let (edge, dev) = (ProcessId(1), ProcessId(2));
        let there = SimEventKind::Sent {
            from: dev,
            to: edge,
        };
        let back = SimEventKind::Sent {
            from: edge,
            to: dev,
        };
        // Before any change: cold once, either direction.
        obs.on_event(&event_at(1, there.clone()));
        obs.on_event(&event_at(2, back.clone()));
        // After the first change: cold once more.
        obs.on_event(&event_at(10, back));
        obs.on_event(&event_at(11, there.clone()));
        // Silent through the second change, then cold a third time.
        obs.on_event(&event_at(25, there));
        drop(obs);
        let c = sink.lock().unwrap().clone();
        assert_eq!((c.pairs, c.cold_routes, c.kind(Kind::Sent)), (1, 3, 5));
    }
}
