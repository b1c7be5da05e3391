//! Zero-allocation telemetry primitives for the slot pipeline.
//!
//! The paper's assessment process is a pipeline of observable evidence —
//! symptoms, ONAs, fault patterns, trust. This module makes the pipeline
//! itself observable: preallocated counters keyed by a static registry
//! ([`Counter`]), gauges ([`Gauge`]), and per-phase wall-time spans with
//! fixed log₂ histograms ([`Spans`]), all sized at compile time so the
//! steady-state slot loop records into them without a single heap
//! allocation.
//!
//! Telemetry is **off by default**: a disabled [`Spans`] never calls
//! `Instant::now` and costs one branch per record site, so the
//! counting-allocator regression and bit-for-bit determinism of
//! uninstrumented runs are unaffected. When enabled, all *counter* and
//! *gauge* values remain a pure function of the simulation seed — two
//! same-seed runs produce byte-identical [`TelemetrySnapshot::counter_fingerprint`]s —
//! while wall-time fields vary run to run and are excluded from the
//! determinism contract.

use serde::value::{field, DeError, Value};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;

/// Pipeline phases of the slot loop, in execution order.
///
/// `Kernel` and `TtNet` are timed by the cluster simulation (job dispatch
/// vs. bus resolution + reception); the remaining phases are timed inside
/// the diagnostic engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Simulation kernel: restarts, clock sync, job dispatch, sender side.
    Kernel,
    /// Time-triggered network: channel resolution and receiver side.
    TtNet,
    /// Symptom detection over the slot record.
    Detect,
    /// Diagnostic-network offer + round delivery.
    Dissemination,
    /// Distributed-state ingestion.
    State,
    /// ONA bank evaluation.
    Ona,
    /// Trust update and advisor ingestion.
    Trust,
}

impl Phase {
    /// All phases, pipeline order (the static registry).
    pub const ALL: [Phase; 7] = [
        Phase::Kernel,
        Phase::TtNet,
        Phase::Detect,
        Phase::Dissemination,
        Phase::State,
        Phase::Ona,
        Phase::Trust,
    ];

    /// Number of registered phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Kernel => "kernel",
            Phase::TtNet => "ttnet",
            Phase::Detect => "detect",
            Phase::Dissemination => "dissemination",
            Phase::State => "state",
            Phase::Ona => "ona",
            Phase::Trust => "trust",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The static counter registry. Every snapshot carries every counter, in
/// this order, so snapshots merge positionally and fingerprints are
/// directly comparable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// TDMA slots simulated.
    SlotsSimulated,
    /// TDMA rounds simulated.
    RoundsSimulated,
    /// Symptoms offered to the diagnostic network (detectors + forgeries).
    SymptomsOffered,
    /// Symptoms delivered to the diagnostic DAS.
    SymptomsDelivered,
    /// Symptoms dropped (bandwidth or transit loss).
    SymptomsDropped,
    /// Frames discarded by the per-frame CRC.
    FramesCorrupted,
    /// Frames rejected by plausibility screening.
    FramesRejected,
    /// Frames that arrived late through the delay line.
    FramesDelayed,
    /// Frames flagged by the rate screen as forged.
    FramesForgedSuspected,
    /// ONA pattern matches produced by the bank.
    OnaMatches,
    /// Rounds the trust assessor froze for lack of evidence flow.
    TrustFrozenRounds,
    /// Cold-standby failovers of the diagnostic component.
    Failovers,
    /// Rounds lost to a crashed diagnostic component.
    CrashedRounds,
    /// Vehicles simulated (1 for a single campaign).
    Vehicles,
    /// Vehicles whose diagnostic path the engine flagged degraded.
    DegradedVehicles,
    /// Ground-truth faults that manifested within the horizon
    /// (flight-recorder lifecycle fold).
    FaultsInjected,
    /// Manifested faults with at least one attributed symptom.
    FaultsDetected,
    /// Manifested faults whose FRU reached a stable conviction.
    FaultsConvicted,
    /// Conviction events attributable to no injected fault.
    WrongFruConvictions,
    /// Summed onset→first-symptom latency over detected faults, rounds.
    DetectLatencyRounds,
    /// Summed onset→conviction latency over convicted faults, rounds.
    ConvictLatencyRounds,
    /// Journal records written by the campaign store this process.
    JournalRecords,
    /// Journal bytes written by the campaign store this process.
    JournalBytes,
    /// Journal fsyncs issued by the campaign store this process.
    JournalFsyncs,
    /// Full snapshots written by the campaign store this process.
    SnapshotsWritten,
    /// Committed journal records recovered when the store opened.
    StoreRecoveredRecords,
    /// Torn-tail bytes the store's recovery quarantined at open.
    StoreQuarantinedBytes,
}

impl Counter {
    /// All counters, registry order.
    pub const ALL: [Counter; 27] = [
        Counter::SlotsSimulated,
        Counter::RoundsSimulated,
        Counter::SymptomsOffered,
        Counter::SymptomsDelivered,
        Counter::SymptomsDropped,
        Counter::FramesCorrupted,
        Counter::FramesRejected,
        Counter::FramesDelayed,
        Counter::FramesForgedSuspected,
        Counter::OnaMatches,
        Counter::TrustFrozenRounds,
        Counter::Failovers,
        Counter::CrashedRounds,
        Counter::Vehicles,
        Counter::DegradedVehicles,
        Counter::FaultsInjected,
        Counter::FaultsDetected,
        Counter::FaultsConvicted,
        Counter::WrongFruConvictions,
        Counter::DetectLatencyRounds,
        Counter::ConvictLatencyRounds,
        Counter::JournalRecords,
        Counter::JournalBytes,
        Counter::JournalFsyncs,
        Counter::SnapshotsWritten,
        Counter::StoreRecoveredRecords,
        Counter::StoreQuarantinedBytes,
    ];

    /// Number of registered counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SlotsSimulated => "slots_simulated",
            Counter::RoundsSimulated => "rounds_simulated",
            Counter::SymptomsOffered => "symptoms_offered",
            Counter::SymptomsDelivered => "symptoms_delivered",
            Counter::SymptomsDropped => "symptoms_dropped",
            Counter::FramesCorrupted => "frames_corrupted",
            Counter::FramesRejected => "frames_rejected",
            Counter::FramesDelayed => "frames_delayed",
            Counter::FramesForgedSuspected => "frames_forged_suspected",
            Counter::OnaMatches => "ona_matches",
            Counter::TrustFrozenRounds => "trust_frozen_rounds",
            Counter::Failovers => "failovers",
            Counter::CrashedRounds => "crashed_rounds",
            Counter::Vehicles => "vehicles",
            Counter::DegradedVehicles => "degraded_vehicles",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultsDetected => "faults_detected",
            Counter::FaultsConvicted => "faults_convicted",
            Counter::WrongFruConvictions => "wrong_fru_convictions",
            Counter::DetectLatencyRounds => "detect_latency_rounds",
            Counter::ConvictLatencyRounds => "convict_latency_rounds",
            Counter::JournalRecords => "journal_records",
            Counter::JournalBytes => "journal_bytes",
            Counter::JournalFsyncs => "journal_fsyncs",
            Counter::SnapshotsWritten => "snapshots_written",
            Counter::StoreRecoveredRecords => "store_recovered_records",
            Counter::StoreQuarantinedBytes => "store_quarantined_bytes",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The static gauge registry (deterministic floating-point observables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Mean delivery quality of the diagnostic path.
    DeliveryQuality,
    /// No-fault-found ratio of the integrated diagnosis (fleet scope).
    NffRatio,
    /// Mean onset→first-symptom latency over detected faults, rounds.
    DetectLatency,
    /// Mean onset→stable-conviction latency over convicted faults, rounds.
    ConvictLatency,
}

impl Gauge {
    /// All gauges, registry order.
    pub const ALL: [Gauge; 4] =
        [Gauge::DeliveryQuality, Gauge::NffRatio, Gauge::DetectLatency, Gauge::ConvictLatency];

    /// Number of registered gauges.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::DeliveryQuality => "delivery_quality",
            Gauge::NffRatio => "nff_ratio",
            Gauge::DetectLatency => "detect_latency",
            Gauge::ConvictLatency => "convict_latency",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Preallocated counter storage, one slot per [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSet {
    vals: [u64; Counter::COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterSet {
    /// All-zero counters.
    pub const fn new() -> Self {
        CounterSet { vals: [0; Counter::COUNT] }
    }

    /// Adds to one counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c.index()] += n;
    }

    /// Overwrites one counter.
    pub fn set(&mut self, c: Counter, n: u64) {
        self.vals[c.index()] = n;
    }

    /// Reads one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c.index()]
    }

    /// Element-wise sum (fleet aggregation).
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            *a += b;
        }
    }
}

/// Preallocated gauge storage, one slot per [`Gauge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSet {
    vals: [f64; Gauge::COUNT],
}

impl Default for GaugeSet {
    fn default() -> Self {
        Self::new()
    }
}

impl GaugeSet {
    /// All-zero gauges.
    pub const fn new() -> Self {
        GaugeSet { vals: [0.0; Gauge::COUNT] }
    }

    /// Overwrites one gauge.
    pub fn set(&mut self, g: Gauge, v: f64) {
        self.vals[g.index()] = v;
    }

    /// Reads one gauge.
    pub fn get(&self, g: Gauge) -> f64 {
        self.vals[g.index()]
    }
}

/// Number of log₂ latency buckets per phase. Bucket `k` holds spans whose
/// duration in nanoseconds satisfies `2^k ≤ ns < 2^(k+1)` (bucket 0 also
/// absorbs 0 ns); 40 buckets reach ≈18 minutes, far beyond any slot phase.
pub const SPAN_BUCKETS: usize = 40;

/// Fixed-bucket wall-time statistics of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
    buckets: [u64; SPAN_BUCKETS],
}

impl SpanStats {
    /// Empty statistics.
    pub const ZERO: SpanStats =
        SpanStats { count: 0, total_ns: 0, max_ns: 0, buckets: [0; SPAN_BUCKETS] };

    fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            ((u64::BITS - 1 - ns.leading_zeros()) as usize).min(SPAN_BUCKETS - 1)
        }
    }

    /// Records one span.
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// Merges another phase's statistics (fleet aggregation).
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean span duration, nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Quantile estimate from the log₂ histogram (upper bucket bound —
    /// pessimistic within a factor of two, which is what a trend gate
    /// needs, not a profiler).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if k + 1 >= 64 { u64::MAX } else { (1u64 << (k + 1)) - 1 };
            }
        }
        u64::MAX
    }
}

/// Per-phase wall-time spans for the whole pipeline, preallocated.
///
/// Disabled (the default) it records nothing and never reads the clock.
/// The `begin`/`lap` pair is shaped for straight-line instrumentation of
/// a multi-phase body without closures:
///
/// ```
/// use decos_sim::telemetry::{Phase, Spans};
/// let mut spans = Spans::disabled();
/// spans.enable();
/// let mut mark = spans.begin();
/// // ... phase work ...
/// spans.lap(Phase::Kernel, &mut mark);
/// // ... next phase ...
/// spans.lap(Phase::TtNet, &mut mark);
/// assert_eq!(spans.stat(Phase::Kernel).count, 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Spans {
    enabled: bool,
    /// Position within the current [`SPAN_SAMPLE_STRIDE`] window.
    tick: u32,
    stats: [SpanStats; Phase::COUNT],
}

/// Default sampling stride for the hot slot loop: one timed slot per
/// `SPAN_SAMPLE_STRIDE` `begin` sequences. A clock read costs tens of
/// nanoseconds — comparable to the phases being measured — so timing
/// every slot would perturb exactly what the spans exist to observe.
/// Sampling is deterministic (a pure function of the call sequence, no
/// randomness), so span *counts* stay a pure function of the simulated
/// horizon and identical across same-seed runs.
pub const SPAN_SAMPLE_STRIDE: u32 = 16;

impl Spans {
    /// Inert spans: recording is a no-op, the clock is never read.
    pub const fn disabled() -> Self {
        Spans { enabled: false, tick: 0, stats: [SpanStats::ZERO; Phase::COUNT] }
    }

    /// Turns recording on with 1-in-[`SPAN_SAMPLE_STRIDE`] sampling: only
    /// every stride-th `begin` sequence reads the clock (the first one
    /// samples immediately, so even short runs record at least one span
    /// per exercised phase). Laps between sampled begins are no-ops.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.tick = SPAN_SAMPLE_STRIDE - 1;
    }

    /// Starts a phase sequence: `Some(now)` on a sampled sequence, `None`
    /// when disabled or between samples.
    pub fn begin(&mut self) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        self.tick += 1;
        if self.tick >= SPAN_SAMPLE_STRIDE {
            self.tick = 0;
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes the current phase: records the time since `mark` under
    /// `phase` and restarts `mark` for the next phase. No-op when `mark`
    /// is `None` (disabled at `begin` time).
    pub fn lap(&mut self, phase: Phase, mark: &mut Option<Instant>) {
        if let Some(prev) = mark {
            let now = Instant::now();
            let ns = now.duration_since(*prev).as_nanos().min(u64::MAX as u128) as u64;
            self.stats[phase.index()].record_ns(ns);
            *mark = Some(now);
        }
    }

    /// Statistics of one phase.
    pub fn stat(&self, phase: Phase) -> &SpanStats {
        &self.stats[phase.index()]
    }

    /// Merges another span set (pipeline halves, fleet aggregation).
    pub fn merge(&mut self, other: &Spans) {
        self.enabled |= other.enabled;
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.merge(b);
        }
    }
}

/// One counter on the wire: the snapshot's JSON `counters` array and a
/// journaled fleet vehicle's counters are lists of these, registry order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Registry name.
    pub name: String,
    /// Value.
    pub value: u64,
}

impl CounterSet {
    /// The wire form: every counter with its registry name, registry order.
    pub fn to_values(&self) -> Vec<CounterValue> {
        Counter::ALL
            .iter()
            .map(|c| CounterValue { name: c.name().to_string(), value: self.get(*c) })
            .collect()
    }

    /// Reads the wire form back, rejecting any list that is not exactly
    /// this registry — every counter once, in registry order, under its
    /// registry name — so values written by another registry version never
    /// land in the wrong counter.
    pub fn from_values(values: &[CounterValue]) -> Result<Self, String> {
        if !values.iter().map(|v| v.name.as_str()).eq(Counter::ALL.map(Counter::name)) {
            return Err("counters are not this build's registry".to_string());
        }
        let mut set = CounterSet::new();
        for (c, v) in Counter::ALL.iter().zip(values) {
            set.set(*c, v.value);
        }
        Ok(set)
    }
}

/// A point-in-time copy of the whole telemetry layer: the counter and
/// gauge registries plus per-phase timing, held as the fixed registry
/// arrays themselves. Names appear only where the snapshot is rendered:
/// [`Self::counter`] / [`Self::gauge`], [`Self::counter_fingerprint`] and
/// JSON, whose shape is `{name, value}` arrays in registry order and one
/// `{name, count, total_ns, mean_ns, p50_ns, p99_ns, max_ns, buckets}`
/// object per phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySnapshot {
    /// The counter registry.
    pub counters: CounterSet,
    /// The gauge registry.
    pub gauges: GaugeSet,
    /// Every registered phase, pipeline order. Wall-clock derived and
    /// **excluded** from the determinism contract, except each `count`,
    /// which is a pure function of the simulated horizon.
    pub phases: [SpanStats; Phase::COUNT],
}

impl TelemetrySnapshot {
    /// Assembles a snapshot from live storage.
    pub fn assemble(counters: &CounterSet, gauges: &GaugeSet, spans: &Spans) -> Self {
        TelemetrySnapshot { counters: *counters, gauges: *gauges, phases: spans.stats }
    }

    /// Value of one counter by registry name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        Counter::ALL.iter().find(|c| c.name() == name).map(|c| self.counters.get(*c))
    }

    /// Value of one gauge by registry name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        Gauge::ALL.iter().find(|g| g.name() == name).map(|g| self.gauges.get(*g))
    }

    /// The deterministic part of the snapshot as one canonical string:
    /// counters and gauges, registry order. Two same-seed runs must
    /// produce byte-identical fingerprints; wall-time fields are excluded.
    pub fn counter_fingerprint(&self) -> String {
        let mut s = String::new();
        for c in Counter::ALL {
            let _ = write!(s, "{}={};", c.name(), self.counters.get(c));
        }
        for g in Gauge::ALL {
            let _ = write!(s, "{}={:?};", g.name(), self.gauges.get(g));
        }
        s
    }

    /// Merges another snapshot (fleet aggregation): counters and phase
    /// statistics add element-wise. Gauges are **not** merged — ratios
    /// don't sum; the aggregating caller must re-set them from the
    /// aggregate outcome.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.counters.merge(&other.counters);
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.merge(b);
        }
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (Value::Str(k.to_string()), v)).collect())
}

/// The `key` array of a snapshot document, rejected unless its entries
/// carry exactly the registry `names`, in order.
fn registry_entries<'v, const N: usize>(
    m: &'v [(Value, Value)],
    key: &str,
    names: [&str; N],
) -> Result<Vec<&'v [(Value, Value)]>, DeError> {
    let entries =
        field(m, key)?.as_seq()?.iter().map(Value::as_map).collect::<Result<Vec<_>, _>>()?;
    let found =
        entries.iter().map(|e| field(e, "name")?.as_str()).collect::<Result<Vec<_>, _>>()?;
    if found != names {
        return Err(DeError::new(format!("{key} are not this build's registry")));
    }
    Ok(entries)
}

impl Serialize for TelemetrySnapshot {
    fn to_value(&self) -> Value {
        let gauges = Gauge::ALL
            .iter()
            .map(|g| {
                object([("name", g.name().to_value()), ("value", self.gauges.get(*g).to_value())])
            })
            .collect();
        let phases = Phase::ALL
            .iter()
            .zip(&self.phases)
            .map(|(p, s)| {
                object([
                    ("name", p.name().to_value()),
                    ("count", s.count.to_value()),
                    ("total_ns", s.total_ns.to_value()),
                    ("mean_ns", s.mean_ns().to_value()),
                    ("p50_ns", s.quantile_ns(0.50).to_value()),
                    ("p99_ns", s.quantile_ns(0.99).to_value()),
                    ("max_ns", s.max_ns.to_value()),
                    ("buckets", s.buckets.to_value()),
                ])
            })
            .collect();
        object([
            ("counters", self.counters.to_values().to_value()),
            ("gauges", Value::Seq(gauges)),
            ("phases", Value::Seq(phases)),
        ])
    }
}

impl Deserialize for TelemetrySnapshot {
    /// The inverse of [`Serialize`], rejecting a document whose counters,
    /// gauges or phases are not exactly this registry. Phase means and
    /// quantiles are derived from the histogram, so they are not read.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map()?;
        let counters = Vec::<CounterValue>::from_value(field(m, "counters")?)?;
        let counters = CounterSet::from_values(&counters).map_err(DeError::new)?;
        let mut gauges = GaugeSet::new();
        let entries = registry_entries(m, "gauges", Gauge::ALL.map(Gauge::name))?;
        for (g, e) in Gauge::ALL.iter().zip(entries) {
            gauges.set(*g, field(e, "value")?.as_f64()?);
        }
        let mut phases = [SpanStats::ZERO; Phase::COUNT];
        let entries = registry_entries(m, "phases", Phase::ALL.map(Phase::name))?;
        for (s, e) in phases.iter_mut().zip(entries) {
            *s = SpanStats {
                count: field(e, "count")?.as_u64()?,
                total_ns: field(e, "total_ns")?.as_u64()?,
                max_ns: field(e, "max_ns")?.as_u64()?,
                buckets: Deserialize::from_value(field(e, "buckets")?)?,
            };
        }
        Ok(TelemetrySnapshot { counters, gauges, phases })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_consistent() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        let names: std::collections::BTreeSet<&str> =
            Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::COUNT, "counter names must be unique");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut spans = Spans::disabled();
        let mut mark = spans.begin();
        assert!(mark.is_none());
        spans.lap(Phase::Kernel, &mut mark);
        assert_eq!(spans.stat(Phase::Kernel).count, 0);
    }

    #[test]
    fn enabled_spans_record_laps() {
        let mut spans = Spans::disabled();
        spans.enable();
        let mut mark = spans.begin();
        spans.lap(Phase::Kernel, &mut mark);
        spans.lap(Phase::TtNet, &mut mark);
        assert_eq!(spans.stat(Phase::Kernel).count, 1);
        assert_eq!(spans.stat(Phase::TtNet).count, 1);
        assert_eq!(spans.stat(Phase::Detect).count, 0);
    }

    #[test]
    fn span_buckets_and_quantiles() {
        let mut s = SpanStats::ZERO;
        for ns in [1u64, 2, 3, 1000, 1_000_000] {
            s.record_ns(ns);
        }
        assert_eq!(s.count, 5);
        assert_eq!(s.max_ns, 1_000_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 5);
        // p50 of {1,2,3,1000,1e6} lands in the bucket containing 3.
        assert!(s.quantile_ns(0.5) < 1000, "p50 {}", s.quantile_ns(0.5));
        assert!(s.quantile_ns(0.99) >= 1_000_000);
        assert_eq!(SpanStats::ZERO.quantile_ns(0.5), 0);
    }

    #[test]
    fn snapshot_fingerprint_covers_counters_and_gauges_only() {
        let mut counters = CounterSet::new();
        counters.add(Counter::SymptomsOffered, 41);
        counters.add(Counter::SymptomsOffered, 1);
        let mut gauges = GaugeSet::new();
        gauges.set(Gauge::DeliveryQuality, 0.75);
        let mut spans = Spans::disabled();
        spans.enable();
        let mut mark = spans.begin();
        spans.lap(Phase::Kernel, &mut mark);

        let a = TelemetrySnapshot::assemble(&counters, &gauges, &spans);
        assert_eq!(a.counter("symptoms_offered"), Some(42));
        assert_eq!(a.gauge("delivery_quality"), Some(0.75));
        // A second snapshot with different timing but equal counters must
        // fingerprint identically.
        let mut spans2 = Spans::disabled();
        spans2.enable();
        let mut mark2 = spans2.begin();
        std::thread::yield_now();
        spans2.lap(Phase::Kernel, &mut mark2);
        let b = TelemetrySnapshot::assemble(&counters, &gauges, &spans2);
        assert_eq!(a.counter_fingerprint(), b.counter_fingerprint());
        assert!(a.counter_fingerprint().contains("symptoms_offered=42;"));
    }

    #[test]
    fn snapshot_merge_sums_counters_and_recomputes_quantiles() {
        let mut counters = CounterSet::new();
        counters.set(Counter::Vehicles, 1);
        counters.set(Counter::SlotsSimulated, 100);
        let gauges = GaugeSet::new();
        let mut s1 = SpanStats::ZERO;
        s1.record_ns(10);
        let mut spans = Spans::disabled();
        spans.enable();
        spans.stats[Phase::Kernel.index()] = s1;

        let mut a = TelemetrySnapshot::assemble(&counters, &gauges, &spans);
        let b = a;
        a.merge(&b);
        assert_eq!(a.counter("vehicles"), Some(2));
        assert_eq!(a.counter("slots_simulated"), Some(200));
        assert_eq!(a.phases[0].count, 2);
        assert_eq!(a.phases[0].buckets.iter().sum::<u64>(), 2);
        assert_eq!(a.phases[0].quantile_ns(0.99), 15, "quantiles read the merged histogram");
    }

    /// The snapshot JSON shape BENCH files and their readers depend on.
    const GOLDEN_JSON: &str = concat!(
        r#"{"counters":[{"name":"slots_simulated","value":4000},"#,
        r#"{"name":"rounds_simulated","value":0},{"name":"symptoms_offered","value":0},"#,
        r#"{"name":"symptoms_delivered","value":0},{"name":"symptoms_dropped","value":0},"#,
        r#"{"name":"frames_corrupted","value":0},{"name":"frames_rejected","value":0},"#,
        r#"{"name":"frames_delayed","value":0},{"name":"frames_forged_suspected","value":0},"#,
        r#"{"name":"ona_matches","value":0},{"name":"trust_frozen_rounds","value":0},"#,
        r#"{"name":"failovers","value":0},{"name":"crashed_rounds","value":0},"#,
        r#"{"name":"vehicles","value":2},{"name":"degraded_vehicles","value":0},"#,
        r#"{"name":"faults_injected","value":0},{"name":"faults_detected","value":0},"#,
        r#"{"name":"faults_convicted","value":0},{"name":"wrong_fru_convictions","value":0},"#,
        r#"{"name":"detect_latency_rounds","value":0},"#,
        r#"{"name":"convict_latency_rounds","value":0},{"name":"journal_records","value":0},"#,
        r#"{"name":"journal_bytes","value":0},{"name":"journal_fsyncs","value":0},"#,
        r#"{"name":"snapshots_written","value":0},{"name":"store_recovered_records","value":0},"#,
        r#"{"name":"store_quarantined_bytes","value":18446744073709551615}],"gauges":["#,
        r#"{"name":"delivery_quality","value":0.75},{"name":"nff_ratio","value":0.0},"#,
        r#"{"name":"detect_latency","value":0.0},"#,
        r#"{"name":"convict_latency","value":0.3333333333333333}],"phases":["#,
        r#"{"name":"kernel","count":3,"total_ns":1007,"mean_ns":335.6666666666667,"p50_ns":7,"#,
        r#""p99_ns":1023,"max_ns":1000,"buckets":[1,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"#,
        r#"{"name":"ttnet","count":0,"total_ns":0,"mean_ns":0.0,"p50_ns":0,"p99_ns":0,"max_ns":0,"#,
        r#""buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0]},"#,
        r#"{"name":"detect","count":0,"total_ns":0,"mean_ns":0.0,"p50_ns":0,"p99_ns":0,"max_ns":0,"#,
        r#""buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0]},"#,
        r#"{"name":"dissemination","count":0,"total_ns":0,"mean_ns":0.0,"p50_ns":0,"p99_ns":0,"#,
        r#""max_ns":0,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0,0,0,0,0,0]},"#,
        r#"{"name":"state","count":0,"total_ns":0,"mean_ns":0.0,"p50_ns":0,"p99_ns":0,"max_ns":0,"#,
        r#""buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0]},"#,
        r#"{"name":"ona","count":1,"total_ns":5000000,"mean_ns":5000000.0,"p50_ns":8388607,"#,
        r#""p99_ns":8388607,"max_ns":5000000,"buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},"#,
        r#"{"name":"trust","count":0,"total_ns":0,"mean_ns":0.0,"p50_ns":0,"p99_ns":0,"max_ns":0,"#,
        r#""buckets":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
        r#"0,0]}]}"#,
    );

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut counters = CounterSet::new();
        counters.set(Counter::SlotsSimulated, 4000);
        counters.set(Counter::Vehicles, 2);
        counters.set(Counter::StoreQuarantinedBytes, u64::MAX);
        let mut gauges = GaugeSet::new();
        gauges.set(Gauge::DeliveryQuality, 0.75);
        gauges.set(Gauge::ConvictLatency, 1.0 / 3.0);
        let mut spans = Spans::disabled();
        for ns in [0, 7, 1000] {
            spans.stats[Phase::Kernel.index()].record_ns(ns);
        }
        spans.stats[Phase::Ona.index()].record_ns(5_000_000);
        let snap = TelemetrySnapshot::assemble(&counters, &gauges, &spans);
        let json = serde_json::to_string(&snap).expect("serializable");
        assert_eq!(json, GOLDEN_JSON);
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(snap, back);
        // A document from another registry version does not decode.
        for (from, to) in [("ona_matches", "ona_hits"), ("nff_ratio", "nff"), ("ttnet", "bus")] {
            let renamed = json.replace(&format!("\"{from}\""), &format!("\"{to}\""));
            assert!(serde_json::from_str::<TelemetrySnapshot>(&renamed).is_err(), "{from}");
        }
    }
}
