//! The per-figure experiments (E1–E11). Each function returns a
//! serializable result struct with a `render()` text view; the `repro`
//! binary dispatches on experiment id. EXPERIMENTS.md records paper-vs-
//! measured for every entry.

use decos::diagnosis::{ConfusionMatrix, Subject, SymptomDetectors};
use decos::faults::{campaign, FaultClass, FaultEnvironment, FaultKind, FaultSpec, FruRef};
use decos::fleet_exec::{default_shards, map_ordered};
use decos::prelude::*;
use decos::reliability::{
    empirical_hazard, fleet_failure_rates, AlphaCount, AlphaParams, BathtubModel,
};
use decos::sim::rng::SampleExt as _;
use decos::sim::SeedSource;
use rand::RngExt as _;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Scaling knob: 1.0 = the sizes used for EXPERIMENTS.md; smaller values
/// give quick smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Effort(pub f64);

impl Effort {
    /// Scales a nominal workload size by the effort factor (min 1).
    pub fn scale(&self, n: u64) -> u64 {
        ((n as f64 * self.0).round() as u64).max(1)
    }
}

// ===========================================================================
// E1 — Figures 1 & 2: the integrated architecture, structurally.
// ===========================================================================

/// Structural self-description of the reference cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E1Architecture {
    /// Components with hosted jobs per DAS.
    pub components: Vec<(String, Vec<String>)>,
    /// DAS inventory: (name, criticality, #jobs, network kind).
    pub dases: Vec<(String, String, usize, String)>,
    /// Core/high-level service inventory.
    pub services: Vec<String>,
    /// Number of LIF records derived.
    pub lif_records: usize,
}

/// Runs E1.
pub fn e1_architecture() -> E1Architecture {
    let spec = fig10::reference_spec();
    let sim = ClusterSim::new(spec.clone(), 0).expect("valid");
    let components = spec
        .components
        .iter()
        .map(|c| {
            let jobs: Vec<String> = spec
                .jobs
                .iter()
                .filter(|j| j.host == c.node)
                .map(|j| format!("{} ({})", j.name, j.das))
                .collect();
            (c.node.to_string(), jobs)
        })
        .collect();
    let dases = spec
        .dases
        .iter()
        .map(|d| {
            let njobs = spec.jobs.iter().filter(|j| j.das == d.id).count();
            let kind = spec
                .jobs
                .iter()
                .filter(|j| j.das == d.id)
                .filter_map(|j| j.behavior.output_vnet())
                .next()
                .and_then(|v| spec.vnets.iter().find(|c| c.id == v))
                .map(|c| format!("{:?}", c.kind))
                .unwrap_or_else(|| "-".into());
            (d.name.clone(), format!("{:?}", d.criticality), njobs, kind)
        })
        .collect();
    E1Architecture {
        components,
        dases,
        services: vec![
            "C1 predictable transport (TDMA schedule)".into(),
            "C2 fault-tolerant clock synchronization (FTA)".into(),
            "C3 strong fault isolation (bus guardians)".into(),
            "C4 consistent diagnosis of failing nodes (membership)".into(),
            "H1 virtual networks (encapsulated overlays)".into(),
            "H2 encapsulation (SC/NSC partitioning)".into(),
            "H3 redundancy management (TMR voting)".into(),
            "H4 virtual diagnostic network + diagnostic DAS".into(),
        ],
        lif_records: sim.lif().len(),
    }
}

impl E1Architecture {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("E1 — integrated system architecture (Figs. 1 & 2)\n\n");
        for (c, jobs) in &self.components {
            let _ = writeln!(s, "  {c}: {}", jobs.join(", "));
        }
        s.push('\n');
        for (name, crit, n, kind) in &self.dases {
            let _ = writeln!(s, "  DAS {name:<16} {crit:<18} {n} jobs  [{kind}]");
        }
        s.push('\n');
        for svc in &self.services {
            let _ = writeln!(s, "  service: {svc}");
        }
        let _ = writeln!(s, "\n  LIF records derived: {}", self.lif_records);
        s
    }
}

// ===========================================================================
// E2 — Figures 3 & 6: full-taxonomy classification.
// ===========================================================================

/// Confusion-matrix experiment over the whole taxonomy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E2Taxonomy {
    /// Vehicles simulated.
    pub vehicles: u64,
    /// The confusion matrix.
    pub confusion: ConfusionMatrix,
    /// Overall accuracy.
    pub accuracy: f64,
    /// Ground-truth class counts.
    pub class_counts: BTreeMap<String, u64>,
}

/// Runs E2.
pub fn e2_taxonomy(effort: Effort) -> E2Taxonomy {
    let cfg = FleetConfig {
        vehicles: effort.scale(200),
        rounds: effort.scale(4_000),
        accel: 10.0,
        seed: 2005,
    };
    let out = run_fleet(&fig10::reference_spec(), cfg).expect("reference spec analyzes clean");
    E2Taxonomy {
        vehicles: cfg.vehicles,
        accuracy: out.confusion.accuracy(),
        confusion: out.confusion,
        class_counts: out.class_counts,
    }
}

impl E2Taxonomy {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "E2 — taxonomy classification over {} vehicles (Figs. 3 & 6)\n\n{}",
            self.vehicles,
            self.confusion.render()
        );
        let _ = writeln!(s, "\n  accuracy: {:.1} %", self.accuracy * 100.0);
        for (c, n) in &self.class_counts {
            let _ = writeln!(s, "  truth {c:<26} {n}");
        }
        s
    }
}

// ===========================================================================
// E3 / E4 — Figures 4 & 5: per-level classification quality.
// ===========================================================================

/// Precision/recall per class at one FRU level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EClassQuality {
    /// Experiment label.
    pub label: String,
    /// Rows: (class, campaigns, recall, precision).
    pub rows: Vec<(String, u64, f64, f64)>,
    /// The underlying confusion matrix.
    pub confusion: ConfusionMatrix,
}

fn classify_campaigns(
    label: &str,
    cases: &[(ClusterSpec, Vec<FaultSpec>, f64, u64)],
    classes: &[FaultClass],
) -> EClassQuality {
    let outcomes: Vec<(FaultClass, Option<FaultClass>)> =
        map_ordered(cases.len() as u64, default_shards(), |i| {
            let (spec, faults, accel, rounds) = &cases[i as usize];
            let truth_fru = faults.first().map(|f| f.target);
            let truth_class =
                faults.first().map(|f| f.class()).unwrap_or(FaultClass::JobBorderline);
            let c = Campaign {
                spec: spec.clone(),
                faults: faults.clone(),
                accel: *accel,
                rounds: *rounds,
                seed: 9_000 + i,
            };
            let out = run_campaign(&c).expect("valid spec");
            let predicted = truth_fru
                .or(Some(FruRef::Job(fig10::jobs::C3)))
                .and_then(|f| out.report.verdict_of(f))
                .and_then(|v| v.class);
            (truth_class, predicted)
        });
    let mut confusion = ConfusionMatrix::new();
    let mut per_class: BTreeMap<FaultClass, (u64, u64)> = BTreeMap::new();
    for (t, p) in &outcomes {
        confusion.record(*t, *p);
        let e = per_class.entry(*t).or_insert((0, 0));
        e.0 += 1;
        if *p == Some(*t) {
            e.1 += 1;
        }
    }
    let rows = classes
        .iter()
        .map(|c| {
            let (n, _) = per_class.get(c).copied().unwrap_or((0, 0));
            (c.to_string(), n, confusion.recall(*c), confusion.precision(*c))
        })
        .collect();
    EClassQuality { label: label.into(), rows, confusion }
}

impl EClassQuality {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!("{}\n\n", self.label);
        let _ = writeln!(s, "  {:<26}{:>6}{:>9}{:>11}", "class", "n", "recall", "precision");
        for (c, n, r, p) in &self.rows {
            let _ = writeln!(s, "  {c:<26}{n:>6}{:>8.1}%{:>10.1}%", r * 100.0, p * 100.0);
        }
        s.push('\n');
        s.push_str(&self.confusion.render());
        s
    }
}

/// Runs E3 (component fault model, Fig. 4).
pub fn e3_component(effort: Effort) -> EClassQuality {
    let spec = fig10::reference_spec();
    let n = effort.scale(15);
    let mut cases = Vec::new();
    let seeds = SeedSource::new(31);
    for i in 0..n {
        let mut rng = seeds.stream("e3", i);
        let node = NodeId((rng.random::<u32>() % 4) as u16);
        // external: EMI at the node's zone
        cases.push((
            spec.clone(),
            vec![FaultSpec {
                id: 1,
                kind: FaultKind::EmiBurst {
                    rate_per_hour: 4_000.0,
                    duration_ms: 10.0,
                    center: spec.components[node.0 as usize].position,
                    radius_m: 1.0,
                },
                target: FruRef::Component(node),
                onset: SimTime::ZERO,
            }],
            10.0,
            4_000,
        ));
        // borderline: connector
        cases.push((spec.clone(), campaign::connector_campaign(node, 4_000.0), 10.0, 4_000));
        // internal: recurring transient
        cases.push((
            spec.clone(),
            vec![FaultSpec {
                id: 1,
                kind: FaultKind::IcTransient { rate_per_hour: 9_000.0, duration_ms: 4.0 },
                target: FruRef::Component(node),
                onset: SimTime::ZERO,
            }],
            10.0,
            4_000,
        ));
    }
    classify_campaigns(
        "E3 — component fault model (Fig. 4): external / borderline / internal",
        &cases,
        &[
            FaultClass::ComponentExternal,
            FaultClass::ComponentBorderline,
            FaultClass::ComponentInternal,
        ],
    )
}

/// Runs E4 (job fault model, Fig. 5).
pub fn e4_job(effort: Effort) -> EClassQuality {
    let spec = fig10::reference_spec();
    let n = effort.scale(12);
    let mut cases = Vec::new();
    for i in 0..n {
        // job borderline: misconfiguration
        let (mspec, truth) = campaign::misconfiguration_campaign(spec.clone(), 16);
        cases.push((mspec, truth, 1.0, 4_000));
        // job inherent software: Bohrbug or Heisenbug
        cases.push((
            spec.clone(),
            campaign::software_campaign(fig10::jobs::A1, i % 2 == 0),
            1.0,
            6_000,
        ));
        // job inherent transducer: stuck or drift
        let kind = if i % 2 == 0 {
            FaultKind::SensorStuck { value: 99.0 }
        } else {
            FaultKind::SensorDrift { per_hour: 2_000.0 }
        };
        cases.push((spec.clone(), campaign::sensor_campaign(fig10::jobs::A1, kind), 1.0, 8_000));
    }
    classify_campaigns(
        "E4 — job fault model (Fig. 5): borderline / software / transducer",
        &cases,
        &[
            FaultClass::JobBorderline,
            FaultClass::JobInherentSoftware,
            FaultClass::JobInherentTransducer,
        ],
    )
}

// ===========================================================================
// E5 — Figure 7: the bathtub curve.
// ===========================================================================

/// The regenerated bathtub curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E5Bathtub {
    /// Fleet size sampled.
    pub units: u64,
    /// (years, hazard per year) series.
    pub hazard_per_year: Vec<(f64, f64)>,
    /// Useful-life plateau, failures per 10⁶ units per year.
    pub plateau_per_million_year: f64,
    /// Yearly fleet failure rates (per 10⁶ per year) for the first years.
    pub fleet_rates: Vec<f64>,
}

/// Runs E5.
pub fn e5_bathtub(effort: Effort) -> E5Bathtub {
    let units = effort.scale(300_000);
    let model = BathtubModel::automotive_ecu();
    let seeds = SeedSource::new(5);
    let lifetimes: Vec<f64> = map_ordered(units, default_shards(), |i| {
        let mut rng = seeds.stream("bathtub", i);
        model.sample_failure_hours(&mut rng).hours
    });
    let hpy = 365.25 * 24.0;
    let horizon = 25.0 * hpy;
    let series = empirical_hazard(&lifetimes, horizon, 50);
    let hazard_per_year: Vec<(f64, f64)> =
        series.iter().map(|&(h, hz)| (h / hpy, hz * hpy)).collect();
    let plateau = {
        let window: Vec<f64> = hazard_per_year
            .iter()
            .filter(|(y, _)| (*y > 2.0) && (*y < 6.0))
            .map(|(_, h)| h * 1e6)
            .collect();
        window.iter().sum::<f64>() / window.len().max(1) as f64
    };
    let rates = fleet_failure_rates(&lifetimes, 15);
    E5Bathtub {
        units,
        hazard_per_year,
        plateau_per_million_year: plateau,
        fleet_rates: rates.per_million_per_year,
    }
}

impl E5Bathtub {
    /// Text rendering (log-scale bar chart).
    pub fn render(&self) -> String {
        let mut s = format!("E5 — bathtub curve from {} simulated ECUs (Fig. 7)\n\n", self.units);
        for &(y, h) in &self.hazard_per_year {
            let per_million = h * 1e6;
            let bar = ((per_million.max(1.0)).log10() * 8.0) as usize;
            let _ = writeln!(
                s,
                "  {y:>5.1} y  {per_million:>12.1} /10⁶/y  {}",
                "#".repeat(bar.min(70))
            );
        }
        let _ = writeln!(
            s,
            "\n  useful-life plateau ≈ {:.0} per 10⁶ per year (paper anchor [16]: ~50)",
            self.plateau_per_million_year
        );
        s
    }
}

// ===========================================================================
// E6 — Figure 8: the three fault patterns in time / space / value.
// ===========================================================================

/// Measured dimensional signature of one fault-pattern campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatternSignature {
    /// Campaign label (wearout / massive transient / connector).
    pub label: String,
    /// Time dimension: relative growth of the error frequency (OLS slope of
    /// the per-window rate divided by the mean rate; ≫0 = rising).
    pub frequency_trend: f64,
    /// Space dimension: distinct components the matched pattern implicates.
    pub components_affected: usize,
    /// Value dimension: fraction of comm errors that are corruption
    /// (multi-bit) rather than omission.
    pub corruption_fraction: f64,
    /// Value dimension: slope of job output deviation over time (wearout's
    /// "increasing deviation").
    pub deviation_trend: f64,
    /// Which pattern the ONA bank matched most often.
    pub dominant_pattern: String,
    /// Fraction of rounds with symptoms in which the correct pattern fired.
    pub detection_rate: f64,
}

/// The full E6 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E6Patterns {
    /// One signature per Fig. 8 column.
    pub signatures: Vec<PatternSignature>,
}

fn pattern_signature(
    label: &str,
    spec: ClusterSpec,
    faults: Vec<FaultSpec>,
    accel: f64,
    rounds: u64,
    expected_patterns: &[&str],
    seed: u64,
) -> PatternSignature {
    let c = Campaign { spec, faults, accel, rounds, seed };
    let mut freq = decos::sim::stats::RateWindows::new(
        SimTime::ZERO,
        decos::sim::SimDuration::from_millis(400),
    );
    let mut implicated: std::collections::BTreeSet<FruRef> = Default::default();
    let mut om = 0u64;
    let mut crc = 0u64;
    let mut dev_points: Vec<(f64, f64)> = Vec::new();
    let mut pattern_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut rounds_with_matches = 0u64;
    let mut rounds_with_correct = 0u64;
    let mut sim_lif: Vec<decos::platform::PortLif> = Vec::new();

    run_campaign_opts(
        &c,
        EngineParams::default(),
        RunOptions::default(),
        &mut [],
        |sim, engine, rec| {
            if sim_lif.is_empty() {
                sim_lif = sim.lif().to_vec();
            }
            for (i, o) in rec.observations.iter().enumerate() {
                use decos::platform::ObsKind;
                match o {
                    ObsKind::Omission | ObsKind::TimingViolation { .. } => {
                        om += 1;
                        freq.record(rec.start);
                    }
                    ObsKind::InvalidCrc => {
                        crc += 1;
                        freq.record(rec.start);
                    }
                    _ => {}
                }
                let _ = i;
            }
            // Value deviation of carried messages vs their nominal span.
            for (_, msgs) in &rec.sent {
                for m in msgs {
                    if let Some(l) = sim_lif.iter().find(|l| l.port == m.src) {
                        let dev = if m.value > l.nominal_max {
                            m.value - l.nominal_max
                        } else if m.value < l.nominal_min {
                            l.nominal_min - m.value
                        } else {
                            0.0
                        };
                        if dev > 0.0 {
                            dev_points.push((rec.start.as_secs_f64(), dev));
                        }
                    }
                }
            }
            if rec.addr.slot.0 == 3 {
                let matches = engine.last_matches();
                if !matches.is_empty() {
                    rounds_with_matches += 1;
                    let expected = |p: &str| expected_patterns.iter().any(|e| p.starts_with(e));
                    if matches.iter().any(|m| expected(m.pattern)) {
                        rounds_with_correct += 1;
                    }
                    for m in matches {
                        *pattern_counts.entry(m.pattern.to_string()).or_insert(0) += 1;
                        if expected(m.pattern) {
                            implicated.insert(m.fru);
                        }
                    }
                }
            }
        },
    )
    .expect("valid spec");

    let dominant_pattern = pattern_counts
        .iter()
        .max_by_key(|(_, &n)| n)
        .map(|(p, _)| p.clone())
        .unwrap_or_else(|| "(none)".into());
    // Relative frequency growth: slope of the per-window rate normalized
    // by the mean rate (dimensionless growth per window).
    let rates = freq.rates_per_hour();
    let mean_rate = rates.iter().sum::<f64>() / rates.len().max(1) as f64;
    let rel_trend =
        if mean_rate > 0.0 { freq.trend_slope().unwrap_or(0.0) / mean_rate } else { 0.0 };
    PatternSignature {
        label: label.into(),
        frequency_trend: rel_trend,
        components_affected: implicated.len(),
        corruption_fraction: if om + crc > 0 { crc as f64 / (om + crc) as f64 } else { 0.0 },
        deviation_trend: decos::sim::stats::ols_slope(&dev_points).unwrap_or(0.0),
        dominant_pattern,
        detection_rate: if rounds_with_matches > 0 {
            rounds_with_correct as f64 / rounds_with_matches as f64
        } else {
            0.0
        },
    }
}

/// Runs E6.
pub fn e6_patterns(effort: Effort) -> E6Patterns {
    let spec = fig10::reference_spec();
    let rounds = effort.scale(12_000);
    let signatures = vec![
        pattern_signature(
            "wearout (Fig. 8 col 1)",
            spec.clone(),
            campaign::wearout_campaign(NodeId(1), 100.0, 600_000.0),
            1.0,
            rounds,
            &["wearout", "recurring-internal", "cohost-correlation"],
            61,
        ),
        pattern_signature(
            "massive transient (Fig. 8 col 2)",
            spec.clone(),
            vec![FaultSpec {
                id: 1,
                kind: FaultKind::EmiBurst {
                    rate_per_hour: 3_000.0,
                    duration_ms: 10.0,
                    center: Position { x: 0.2, y: 0.1 },
                    radius_m: 1.0,
                },
                target: FruRef::Component(NodeId(0)),
                onset: SimTime::ZERO,
            }],
            10.0,
            rounds / 2,
            &["massive-transient"],
            62,
        ),
        pattern_signature(
            "connector fault (Fig. 8 col 3)",
            spec,
            campaign::connector_campaign(NodeId(2), 3_000.0),
            10.0,
            rounds / 2,
            &["connector"],
            63,
        ),
    ];
    E6Patterns { signatures }
}

impl E6Patterns {
    /// Text rendering as the Fig. 8 table, measured.
    pub fn render(&self) -> String {
        let mut s = String::from("E6 — fault patterns in time/space/value (Fig. 8), measured\n\n");
        let _ = writeln!(
            s,
            "  {:<34}{:>12}{:>8}{:>10}{:>12}{:>22}{:>10}",
            "pattern", "freq-trend", "#comps", "crc-frac", "dev-trend", "dominant ONA", "detect"
        );
        for sig in &self.signatures {
            let _ = writeln!(
                s,
                "  {:<34}{:>12.2}{:>8}{:>10.2}{:>12.4}{:>22}{:>9.0}%",
                sig.label,
                sig.frequency_trend,
                sig.components_affected,
                sig.corruption_fraction,
                sig.deviation_trend,
                sig.dominant_pattern,
                sig.detection_rate * 100.0
            );
        }
        s.push_str(
            "\n  expected shapes: wearout → rising frequency, 1 component, rising deviation;\n   \
             massive transient → flat trend, ≥2 close components, corruption-dominant;\n   \
             connector → flat trend, 1 component, omission-dominant.\n",
        );
        s
    }
}

// ===========================================================================
// E7 — Figure 9: LRU assessment trajectories.
// ===========================================================================

/// The two assessment trajectories.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E7Trust {
    /// Trajectory A: degrading FRU, (seconds, trust).
    pub trajectory_a: Vec<(f64, f64)>,
    /// Trajectory B: healthy FRU under external disturbances.
    pub trajectory_b: Vec<(f64, f64)>,
}

/// Runs E7.
pub fn e7_trust(effort: Effort) -> E7Trust {
    let mut faults = campaign::wearout_campaign(NodeId(1), 100.0, 300_000.0);
    faults.push(FaultSpec {
        id: 99,
        kind: FaultKind::EmiBurst {
            rate_per_hour: 2_000.0,
            duration_ms: 10.0,
            center: Position { x: 0.2, y: 0.1 },
            radius_m: 1.0,
        },
        target: FruRef::Component(NodeId(0)),
        onset: SimTime::ZERO,
    });
    let c = Campaign::reference(faults, 1.0, effort.scale(20_000), 11);
    let series =
        trust_trajectories(&c, &[FruRef::Component(NodeId(1)), FruRef::Component(NodeId(0))], 250)
            .expect("valid spec");
    E7Trust { trajectory_a: series[0].1.clone(), trajectory_b: series[1].1.clone() }
}

impl E7Trust {
    /// Text rendering.
    pub fn render(&self) -> String {
        fn line(series: &[(f64, f64)]) -> String {
            const L: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
            series.iter().map(|&(_, t)| L[((t * 7.0).round() as usize).min(7)]).collect()
        }
        let mut s = String::from("E7 — LRU assessment trajectories (Fig. 9)\n\n");
        let a_end = self.trajectory_a.last().map(|x| x.1).unwrap_or(1.0);
        let b_end = self.trajectory_b.last().map(|x| x.1).unwrap_or(1.0);
        let _ = writeln!(s, "  A (wearing out, final {:.3}):", a_end);
        let _ = writeln!(s, "    {}", line(&self.trajectory_a));
        let _ = writeln!(s, "  B (healthy + EMI, final {:.3}):", b_end);
        let _ = writeln!(s, "    {}", line(&self.trajectory_b));
        s
    }
}

// ===========================================================================
// E8 — Figure 10: judgment in time, value and space.
// ===========================================================================

/// Outcome of the Fig. 10 discrimination scenarios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E8Judgment {
    /// Scenario A: job-inherent fault at S2 — verdict for S2 and for its
    /// host component.
    pub job_fault_verdict: (String, String),
    /// Scenario A: DASs containing symptomatic jobs (must be only DAS S).
    pub job_fault_dases: Vec<String>,
    /// Scenario B: component fault at component 1 — verdict for the
    /// component.
    pub comp_fault_verdict: String,
    /// Scenario B: symptomatic jobs per DAS on component 1.
    pub comp_fault_dases: Vec<String>,
    /// Scenario B: whether the cohost-correlation pattern fired.
    pub cohost_fired: bool,
}

/// Runs E8.
pub fn e8_judgment(effort: Effort) -> E8Judgment {
    let spec = fig10::reference_spec();
    // --- scenario A: stuck replica sensor ---------------------------------
    let ca = Campaign::reference(
        campaign::sensor_campaign(fig10::jobs::S2, FaultKind::SensorStuck { value: 50.0 }),
        1.0,
        effort.scale(4_000),
        21,
    );
    let mut sym_dases_a: std::collections::BTreeSet<String> = Default::default();
    let mut env = FaultEnvironment::for_cluster(
        ca.faults.clone(),
        &ca.spec,
        ca.accel,
        SeedSource::new(ca.seed).child(1),
    );
    let mut sim = ClusterSim::new(ca.spec.clone(), ca.seed).expect("valid");
    let mut det = SymptomDetectors::new(&sim);
    let mut batch = Vec::new();
    for _ in 0..ca.rounds * 4 {
        let rec = sim.step_slot(&mut env);
        det.detect(&sim, &rec, &mut batch);
    }
    for s in &batch {
        if let Subject::Job(j) = s.subject {
            if let Some(job) = spec.jobs.iter().find(|x| x.id == j) {
                sym_dases_a.insert(format!("{}", job.das));
            }
        }
    }
    let out_a = run_campaign(&ca).expect("valid");
    let s2_verdict = out_a
        .report
        .verdict_of(FruRef::Job(fig10::jobs::S2))
        .and_then(|v| v.class)
        .map(|c| c.to_string())
        .unwrap_or_else(|| "(undecided)".into());
    let host_verdict = out_a
        .report
        .verdict_of(FruRef::Component(NodeId(1)))
        .and_then(|v| v.class)
        .map(|c| c.to_string())
        .unwrap_or_else(|| "(no verdict)".into());

    // --- scenario B: internal fault at the shared component ---------------
    let cb = Campaign::reference(
        vec![FaultSpec {
            id: 1,
            kind: FaultKind::CapacitorAging { bias_per_hour: 40_000.0 },
            target: FruRef::Component(NodeId(1)),
            onset: SimTime::ZERO,
        }],
        1.0,
        effort.scale(15_000),
        22,
    );
    let out_b = run_campaign(&cb).expect("valid");
    let comp_verdict = out_b
        .report
        .verdict_of(FruRef::Component(NodeId(1)))
        .and_then(|v| v.class)
        .map(|c| c.to_string())
        .unwrap_or_else(|| "(undecided)".into());
    let cohost_fired = out_b
        .report
        .verdict_of(FruRef::Component(NodeId(1)))
        .map(|v| v.patterns.contains_key("cohost-correlation"))
        .unwrap_or(false);
    let comp_dases: Vec<String> = spec
        .jobs
        .iter()
        .filter(|j| j.host == NodeId(1))
        .map(|j| format!("{} hosts {} ({})", j.host, j.name, j.das))
        .collect();

    E8Judgment {
        job_fault_verdict: (s2_verdict, host_verdict),
        job_fault_dases: sym_dases_a.into_iter().collect(),
        comp_fault_verdict: comp_verdict,
        comp_fault_dases: comp_dases,
        cohost_fired,
    }
}

impl E8Judgment {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("E8 — three-dimensional judgment (Fig. 10)\n\n");
        let _ = writeln!(s, "  scenario A (stuck sensor at S2):");
        let _ = writeln!(s, "    S2 verdict:        {}", self.job_fault_verdict.0);
        let _ = writeln!(s, "    host N1 verdict:   {}", self.job_fault_verdict.1);
        let _ = writeln!(
            s,
            "    symptomatic DASs:  {:?} (containment: fault stays in DAS S)",
            self.job_fault_dases
        );
        let _ = writeln!(s, "\n  scenario B (internal fault at shared component 1):");
        let _ = writeln!(s, "    component verdict: {}", self.comp_fault_verdict);
        let _ = writeln!(s, "    cohost ONA fired:  {}", self.cohost_fired);
        for d in &self.comp_fault_dases {
            let _ = writeln!(s, "    {d}");
        }
        s
    }
}

// ===========================================================================
// E9 — Figure 11: maintenance actions and the NFF economics.
// ===========================================================================

/// The DECOS-vs-OBD comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E9Actions {
    /// Vehicles simulated.
    pub vehicles: u64,
    /// Integrated-diagnosis score.
    pub decos: decos::diagnosis::ActionScore,
    /// Baseline score.
    pub obd: decos::diagnosis::ActionScore,
    /// Per-class action-correctness of the integrated diagnosis.
    pub per_class_correct: BTreeMap<String, (u64, u64)>,
}

/// Runs E9.
pub fn e9_actions(effort: Effort) -> E9Actions {
    let cfg = FleetConfig {
        vehicles: effort.scale(200),
        rounds: effort.scale(4_000),
        accel: 10.0,
        seed: 808,
    };
    let out = run_fleet(&fig10::reference_spec(), cfg).expect("reference spec analyzes clean");
    // Exact per-class aggregates from the streaming accumulator — E9 no
    // longer depends on which vehicles the retention policy sampled.
    let mut per_class: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (class, &cases) in &out.class_counts {
        let correct = out.class_correct.get(class).copied().unwrap_or(0);
        per_class.insert(class.clone(), (cases, correct));
    }
    E9Actions {
        vehicles: cfg.vehicles,
        decos: out.decos,
        obd: out.obd,
        per_class_correct: per_class,
    }
}

impl E9Actions {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "E9 — maintenance actions & NFF economics over {} vehicles (Fig. 11)\n\n",
            self.vehicles
        );
        let _ = writeln!(s, "  {:<28}{:>12}{:>12}", "", "integrated", "OBD");
        let _ =
            writeln!(s, "  {:<28}{:>12}{:>12}", "removals", self.decos.removals, self.obd.removals);
        let _ = writeln!(
            s,
            "  {:<28}{:>12}{:>12}",
            "NFF removals", self.decos.nff_removals, self.obd.nff_removals
        );
        let _ = writeln!(
            s,
            "  {:<28}{:>11.1}%{:>11.1}%",
            "NFF ratio",
            self.decos.nff_ratio() * 100.0,
            self.obd.nff_ratio() * 100.0
        );
        let _ = writeln!(
            s,
            "  {:<28}{:>11.0}${:>11.0}$",
            "wasted cost ($800/removal)",
            self.decos.wasted_cost_usd(),
            self.obd.wasted_cost_usd()
        );
        let _ = writeln!(
            s,
            "  {:<28}{:>12}{:>12}",
            "missed repairs", self.decos.missed_removals, self.obd.missed_removals
        );
        let _ = writeln!(
            s,
            "  {:<28}{:>12}{:>12}",
            "correct Fig.11 actions", self.decos.correct_actions, self.obd.correct_actions
        );
        let _ = writeln!(s, "\n  per-class correct actions (integrated):");
        for (c, (n, ok)) in &self.per_class_correct {
            let _ = writeln!(s, "    {c:<26} {ok}/{n}");
        }
        s
    }
}

// ===========================================================================
// E10 — §III-E: assumptions, measured.
// ===========================================================================

/// Paper-stated vs. measured quantities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E10Assumptions {
    /// Rows: (assumption, paper value, measured value).
    pub rows: Vec<(String, String, String)>,
}

/// Runs E10.
pub fn e10_assumptions(effort: Effort) -> E10Assumptions {
    let mut rows = Vec::new();
    // Rate anchors.
    rows.push((
        "permanent HW rate".into(),
        "100 FIT (≈1000 y MTTF)".into(),
        format!("{:.0} y MTTF", decos::reliability::PERMANENT_HW_FIT.mttf_years()),
    ));
    rows.push((
        "transient HW rate".into(),
        "100 000 FIT (≈1 y MTTF)".into(),
        format!("{:.2} y MTTF", decos::reliability::TRANSIENT_HW_FIT.mttf_years()),
    ));

    // Transient duration.
    let spec = fig10::reference_spec();
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::PcbCrack {
            base_rate_per_hour: 50_000.0,
            growth_per_hour: 0.0,
            outage_ms: 30.0,
        },
        target: FruRef::Component(NodeId(1)),
        onset: SimTime::ZERO,
    }];
    let mut env = FaultEnvironment::for_cluster(faults, &spec, 1.0, SeedSource::new(4));
    let mut sim = ClusterSim::new(spec.clone(), 4).expect("valid");
    for _ in 0..effort.scale(20_000) * 4 {
        sim.step_slot(&mut env);
    }
    let mean_ms = {
        let ws = &env.log().windows;
        ws.iter().map(|w| w.until.saturating_since(w.from).as_secs_f64() * 1e3).sum::<f64>()
            / ws.len().max(1) as f64
    };
    rows.push((
        "transient duration".into(),
        "tens of ms (<50 ms [34])".into(),
        format!("{mean_ms:.1} ms mean"),
    ));

    // EMI burst duration.
    let faults = vec![FaultSpec {
        id: 1,
        kind: FaultKind::EmiBurst {
            rate_per_hour: 50_000.0,
            duration_ms: 10.0,
            center: Position { x: 0.2, y: 0.1 },
            radius_m: 1.0,
        },
        target: FruRef::Component(NodeId(0)),
        onset: SimTime::ZERO,
    }];
    let mut env = FaultEnvironment::for_cluster(faults, &spec, 1.0, SeedSource::new(5));
    let mut sim = ClusterSim::new(spec.clone(), 5).expect("valid");
    for _ in 0..effort.scale(20_000) * 4 {
        sim.step_slot(&mut env);
    }
    let emi_ms = {
        let ws = &env.log().windows;
        ws.iter().map(|w| w.until.saturating_since(w.from).as_secs_f64() * 1e3).sum::<f64>()
            / ws.len().max(1) as f64
    };
    rows.push((
        "EMI burst duration".into(),
        "~10 ms (ISO 7637)".into(),
        format!("{emi_ms:.1} ms mean"),
    ));

    // Detection of slot-length transients: reuse the assumptions test logic.
    rows.push((
        "detection bound".into(),
        "transients > 1 TDMA slot detected".into(),
        "validated (tests/assumptions.rs)".into(),
    ));

    // 500 ms OBD threshold.
    rows.push((
        "OBD recording threshold".into(),
        "≥ 500 ms recorded; shorter undetected".into(),
        "modelled in ObdParams::default".into(),
    ));

    // Useful-life field rate.
    let model = BathtubModel::automotive_ecu();
    let seeds = SeedSource::new(7);
    let n = effort.scale(200_000);
    let lifetimes: Vec<f64> = map_ordered(n, default_shards(), |i| {
        let mut rng = seeds.stream("fleet10", i);
        model.sample_failure_hours(&mut rng).hours
    });
    let rates = fleet_failure_rates(&lifetimes, 10);
    let plateau: f64 = rates.per_million_per_year[2..6].iter().sum::<f64>() / 4.0;
    rows.push((
        "useful-life field rate".into(),
        "~50 per 10⁶ ECUs per year [16]".into(),
        format!("{plateau:.0} per 10⁶ per year"),
    ));

    // 20-80 rule.
    let mut rng = SeedSource::new(8).stream("modules", 0);
    let counts: Vec<u64> = (0..100).map(|i| rng.poisson(if i < 20 { 40.0 } else { 2.5 })).collect();
    let conc = decos::reliability::concentration(&counts);
    rows.push((
        "software fault distribution".into(),
        "20 % of modules → 80 % of failures [21]".into(),
        format!("top-20 % share = {:.0} %", conc.top20_share * 100.0),
    ));

    E10Assumptions { rows }
}

impl E10Assumptions {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("E10 — assumptions behind the fault model (§III-E), measured\n\n");
        let _ = writeln!(s, "  {:<28}{:<40}measured", "assumption", "paper");
        for (a, p, m) in &self.rows {
            let _ = writeln!(s, "  {a:<28}{p:<40}{m}");
        }
        s
    }
}

// ===========================================================================
// E12 — ablations of the design choices DESIGN.md calls out.
// ===========================================================================

/// One ablation configuration's fleet outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Classification accuracy.
    pub accuracy: f64,
    /// NFF ratio of the integrated diagnosis under this configuration.
    pub nff_ratio: f64,
    /// Correct Fig. 11 actions.
    pub correct_actions: u64,
    /// Vehicles.
    pub vehicles: u64,
}

/// The E12 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E12Ablation {
    /// One row per configuration.
    pub rows: Vec<AblationRow>,
}

/// Runs E12: full engine vs. engine without the spatial ONA, without the
/// co-host correlation, and without α-count memory.
pub fn e12_ablation(effort: Effort) -> E12Ablation {
    use decos::diagnosis::EngineParams;
    use decos::reliability::AlphaParams;
    let cfg = FleetConfig {
        vehicles: effort.scale(120),
        rounds: effort.scale(4_000),
        accel: 10.0,
        seed: 1212,
    };
    let spec = fig10::reference_spec();

    let mut configs: Vec<(String, EngineParams)> = Vec::new();
    configs.push(("full".into(), EngineParams::default()));
    let mut p = EngineParams::default();
    p.ona.enable_spatial = false;
    configs.push(("no-spatial-ona".into(), p));
    let mut p = EngineParams::default();
    p.ona.enable_cohost = false;
    configs.push(("no-cohost-correlation".into(), p));
    let mut p = EngineParams::default();
    p.ona.alpha = AlphaParams { decay: 0.0, threshold: p.ona.alpha.threshold };
    configs.push(("no-alpha-memory".into(), p));

    let rows = configs
        .into_iter()
        .map(|(label, params)| {
            let out =
                decos::fleet::run_fleet_configured(&spec, cfg, params, &FleetOptions::default())
                    .expect("ablation spec analyzes clean");
            AblationRow {
                config: label,
                accuracy: out.confusion.accuracy(),
                nff_ratio: out.decos.nff_ratio(),
                correct_actions: out.decos.correct_actions,
                vehicles: cfg.vehicles,
            }
        })
        .collect();
    E12Ablation { rows }
}

impl E12Ablation {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("E12 — design-choice ablations (fleet classification)\n\n");
        let _ = writeln!(
            s,
            "  {:<26}{:>10}{:>11}{:>18}",
            "configuration", "accuracy", "NFF ratio", "correct actions"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "  {:<26}{:>9.1}%{:>10.1}%{:>12}/{}",
                r.config,
                r.accuracy * 100.0,
                r.nff_ratio * 100.0,
                r.correct_actions,
                r.vehicles
            );
        }
        s
    }
}

// ===========================================================================
// E13 — §V closed maintenance loop: repeat visits until resolution.
// ===========================================================================

/// Aggregate service-loop statistics for one strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Strategy label.
    pub strategy: String,
    /// Vehicles whose defect was actually eliminated within the budget.
    pub resolved: u64,
    /// Mean workshop visits over resolved vehicles.
    pub mean_visits: f64,
    /// Mean total cost per vehicle (resolved or not).
    pub mean_cost_usd: f64,
    /// Total no-fault-found removals across the fleet.
    pub nff_removals: u64,
}

/// The E13 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E13ServiceLoop {
    /// Vehicles per strategy.
    pub vehicles: u64,
    /// Integrated vs OBD statistics.
    pub rows: Vec<ServiceStats>,
}

/// Runs E13: each vehicle gets one sampled fault and is driven through the
/// closed maintenance loop (drive → diagnose → act → drive …) under both
/// strategies.
pub fn e13_service_loop(effort: Effort) -> E13ServiceLoop {
    use decos::workshop::{service_loop, CostModel, Strategy};
    let vehicles = effort.scale(60);
    let rounds = effort.scale(4_000);
    let spec = fig10::reference_spec();
    let seeds = SeedSource::new(1313);

    let run_strategy = |strategy: Strategy, label: &str| -> ServiceStats {
        let histories: Vec<decos::workshop::ServiceHistory> =
            map_ordered(vehicles, default_shards(), |i| {
                let (vspec, faults) = campaign::sample_mixed_fault(&spec, seeds, i);
                service_loop(
                    vspec,
                    faults,
                    strategy,
                    CostModel::default(),
                    10.0,
                    rounds,
                    seeds.child(i).master(),
                    5,
                )
                .expect("valid spec")
            });
        let resolved: Vec<&decos::workshop::ServiceHistory> =
            histories.iter().filter(|h| h.resolved).collect();
        // Mean visits among vehicles that actually needed the workshop.
        let serviced: Vec<usize> =
            resolved.iter().filter(|h| !h.visits.is_empty()).map(|h| h.visits.len()).collect();
        let mean_visits = if serviced.is_empty() {
            f64::NAN
        } else {
            serviced.iter().sum::<usize>() as f64 / serviced.len() as f64
        };
        ServiceStats {
            strategy: label.into(),
            resolved: resolved.len() as u64,
            mean_visits,
            mean_cost_usd: histories.iter().map(|h| h.total_cost_usd).sum::<f64>()
                / vehicles as f64,
            nff_removals: histories.iter().map(|h| h.nff_removals).sum(),
        }
    };

    E13ServiceLoop {
        vehicles,
        rows: vec![
            run_strategy(Strategy::Integrated, "integrated"),
            run_strategy(Strategy::Obd, "obd"),
        ],
    }
}

impl E13ServiceLoop {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "E13 — closed maintenance loop over {} vehicles (§V, max 5 visits)\n\n",
            self.vehicles
        );
        let _ = writeln!(
            s,
            "  {:<14}{:>10}{:>14}{:>14}{:>14}",
            "strategy", "resolved", "visits/fix", "mean cost $", "NFF removals"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "  {:<14}{:>7}/{:<3}{:>13.2}{:>14.0}{:>14}",
                r.strategy,
                r.resolved,
                self.vehicles,
                r.mean_visits,
                r.mean_cost_usd,
                r.nff_removals
            );
        }
        s.push_str(
            "\n  the paper's question — does the replacement end the malfunction? —\n  \
             answered per strategy: integrated resolves in ~1 visit without waste;\n  \
             the baseline swaps working ECUs and the complaint returns.\n",
        );
        s
    }
}

// ===========================================================================
// E11 — §V-C: α-count discrimination ROC.
// ===========================================================================

/// One ROC point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RocPoint {
    /// Declaration threshold swept.
    pub threshold: f64,
    /// True-positive rate (internal declared recurring).
    pub tpr: f64,
    /// False-positive rate (external declared recurring).
    pub fpr: f64,
}

/// The E11 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E11Alpha {
    /// ROC of the α-count (decay 0.95).
    pub alpha_roc: Vec<RocPoint>,
    /// ROC of naive counting (decay 0 ≙ consecutive-failure counter).
    pub naive_roc: Vec<RocPoint>,
    /// Area under the α-count ROC.
    pub alpha_auc: f64,
    /// Area under the naive ROC.
    pub naive_auc: f64,
    /// Samples per class.
    pub samples: u64,
}

/// Runs E11: internal faults recur at ~10× the external rate (§V-C);
/// sweep the declaration threshold and measure discrimination.
pub fn e11_alpha(effort: Effort) -> E11Alpha {
    let samples = effort.scale(400);
    let windows = 400usize;
    // A deliberately hard setting: internal faults recur only 3× more often
    // than environmental transients (§V-C's separation is usually larger);
    // this is where the memory of the α-count pays off over a naive
    // consecutive-failure counter.
    let p_ext = 0.06;
    let p_int = 0.18;

    let run_max_alpha = |decay: f64, p: f64, seed: u64| -> f64 {
        let mut rng = SeedSource::new(seed).stream("e11", 0);
        let mut a = AlphaCount::new(AlphaParams { decay, threshold: f64::INFINITY });
        let mut max = 0.0f64;
        for _ in 0..windows {
            a.observe(rng.chance(p));
            max = max.max(a.alpha());
        }
        max
    };

    let roc = |decay: f64| -> Vec<RocPoint> {
        let ext: Vec<f64> = (0..samples).map(|i| run_max_alpha(decay, p_ext, 1_000 + i)).collect();
        let int: Vec<f64> = (0..samples).map(|i| run_max_alpha(decay, p_int, 2_000 + i)).collect();
        (0..40)
            .map(|k| {
                let threshold = k as f64 * 0.5;
                let tpr = int.iter().filter(|&&x| x >= threshold).count() as f64 / samples as f64;
                let fpr = ext.iter().filter(|&&x| x >= threshold).count() as f64 / samples as f64;
                RocPoint { threshold, tpr, fpr }
            })
            .collect()
    };

    let auc = |points: &[RocPoint]| -> f64 {
        // Trapezoid over (fpr, tpr), sorted by fpr.
        let mut pts: Vec<(f64, f64)> = points.iter().map(|p| (p.fpr, p.tpr)).collect();
        pts.push((0.0, 0.0));
        pts.push((1.0, 1.0));
        pts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        pts.windows(2).map(|w| (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0).sum()
    };

    let alpha_roc = roc(0.95);
    let naive_roc = roc(0.0);
    let alpha_auc = auc(&alpha_roc);
    let naive_auc = auc(&naive_roc);
    E11Alpha { alpha_roc, naive_roc, alpha_auc, naive_auc, samples }
}

impl E11Alpha {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "E11 — α-count internal/external discrimination ({} samples/class)\n\n",
            self.samples
        );
        let _ = writeln!(
            s,
            "  {:<12}{:>8}{:>8}    {:<12}{:>8}{:>8}",
            "α-count", "tpr", "fpr", "naive", "tpr", "fpr"
        );
        for (a, n) in self.alpha_roc.iter().zip(&self.naive_roc).step_by(4) {
            let _ = writeln!(
                s,
                "  thr {:<8.1}{:>7.2}{:>8.2}    thr {:<8.1}{:>7.2}{:>8.2}",
                a.threshold, a.tpr, a.fpr, n.threshold, n.tpr, n.fpr
            );
        }
        let _ =
            writeln!(s, "\n  AUC: α-count = {:.3}, naive = {:.3}", self.alpha_auc, self.naive_auc);
        s
    }
}

// ===========================================================================
// E14 — robustness: the diagnostic path under its own fault model.
// ===========================================================================

/// One sweep point of the degradation experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationPoint {
    /// Injected symptom-frame loss probability.
    pub loss: f64,
    /// Injected symptom-frame corruption probability.
    pub corrupt: f64,
    /// Mean delivery quality over informative rounds, as reported.
    pub delivery_quality: f64,
    /// Symptom frames that survived transit and screening.
    pub delivered: u64,
    /// Symptom frames offered to the virtual diagnostic network.
    pub offered: u64,
    /// Whether the report flagged the diagnostic path degraded.
    pub degraded: bool,
    /// The true FRU still carries its true fault class in the verdicts.
    pub truth_found: bool,
    /// Replacement actions recommended against healthy FRUs.
    pub false_replacements: u64,
    /// Any action recommended at all.
    pub actions: u64,
}

/// The E14 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct E14Degradation {
    /// Ground truth of every sweep point.
    pub truth: String,
    /// Loss sweep (corruption fixed at 0).
    pub loss_sweep: Vec<DegradationPoint>,
    /// Corruption sweep (loss fixed at 0).
    pub corruption_sweep: Vec<DegradationPoint>,
    /// The bottom-line soundness claim: with the symptom stream fully
    /// severed, the engine flags the degradation and recommends nothing.
    pub sound_at_total_loss: bool,
    /// Flight-recorder dump of the total-loss endpoint, written because
    /// that endpoint is anomalous by construction (degraded path).
    pub flightrec_dump: Option<String>,
}

/// Runs E14: a fixed connector fault plus an increasingly hostile
/// diagnostic path. The architecture must degrade *gracefully*: verdicts
/// may starve, but the report must say so (`degraded`), and no healthy
/// FRU may be condemned on a distorted symptom stream — absence of
/// evidence is never treated as evidence of health, and a silent channel
/// must not be mistaken for a silent fault.
pub fn e14_diag_degradation(effort: Effort) -> E14Degradation {
    let rounds = effort.scale(8_000);
    let truth_fru = FruRef::Component(NodeId(2));
    let truth_class = FaultClass::ComponentBorderline;
    let levels = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];

    let run_point = |loss: f64, corrupt: f64, seed: u64| -> DegradationPoint {
        let mut faults = campaign::connector_campaign(NodeId(2), 2000.0);
        faults.extend(campaign::diag_degradation_campaign(loss, corrupt, 0));
        let c = Campaign::reference(faults, 10.0, rounds, seed);
        let out = run_campaign(&c).expect("degradation campaign analyzes clean");
        let truth_found =
            out.report.verdict_of(truth_fru).is_some_and(|v| v.class == Some(truth_class));
        let false_replacements = out
            .report
            .actions()
            .iter()
            .filter(|(fru, a)| *a == MaintenanceAction::ReplaceComponent && *fru != truth_fru)
            .count() as u64;
        DegradationPoint {
            loss,
            corrupt,
            delivery_quality: out.report.delivery_quality,
            delivered: out.dissemination.delivered,
            offered: out.dissemination.offered,
            degraded: out.report.degraded,
            truth_found,
            false_replacements,
            actions: out.report.actions().len() as u64,
        }
    };

    let loss_sweep: Vec<DegradationPoint> =
        map_ordered(levels.len() as u64, default_shards(), |i| {
            run_point(levels[i as usize], 0.0, 1_400 + i)
        });
    let corruption_sweep: Vec<DegradationPoint> =
        map_ordered(levels.len() as u64, default_shards(), |i| {
            run_point(0.0, levels[i as usize], 1_500 + i)
        });

    // Soundness under a fully severed path: both the total-loss and the
    // total-corruption endpoint must flag degradation, recommend nothing,
    // and report near-zero delivery quality.
    let sound = |p: &DegradationPoint| {
        p.degraded && p.actions == 0 && p.false_replacements == 0 && p.delivery_quality < 0.1
    };
    let sound_at_total_loss = sound(loss_sweep.last().expect("non-empty sweep"))
        && sound(corruption_sweep.last().expect("non-empty sweep"));

    // Black-box flight recorder over the total-loss endpoint: rerun it with
    // the recorder armed and keep the tape under the on-anomaly policy. A
    // fully severed path flags `degraded`, so the tape is always kept and
    // `repro trace-report e14_flightrec.jsonl` can replay how the symptom
    // stream starved.
    let flightrec_dump = {
        let mut faults = campaign::connector_campaign(NodeId(2), 2000.0);
        faults.extend(campaign::diag_degradation_campaign(1.0, 0.0, 0));
        let c = Campaign::reference(faults, 10.0, rounds, 1_400 + (levels.len() - 1) as u64);
        let opts = RunOptions { telemetry: true, flightrec: true, ..Default::default() };
        let out = decos::runner::run_campaign_opts(
            &c,
            EngineParams::default(),
            opts,
            &mut [],
            |_, _, _| {},
        )
        .expect("degradation campaign analyzes clean");
        let path = "e14_flightrec.jsonl";
        match crate::flightdump::dump_on_anomaly(&out, path) {
            Ok(true) => Some(path.to_string()),
            Ok(false) => None,
            Err(e) => {
                eprintln!("warning: cannot write {path}: {e}");
                None
            }
        }
    };

    E14Degradation {
        truth: "connector fault at component 2 (expected action: inspect-connector)".into(),
        loss_sweep,
        corruption_sweep,
        sound_at_total_loss,
        flightrec_dump,
    }
}

impl E14Degradation {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = String::from("E14 — diagnostic-path degradation sweep (robustness)\n\n");
        let _ = writeln!(s, "  truth: {}\n", self.truth);
        let table = |s: &mut String, label: &str, points: &[DegradationPoint]| {
            let _ = writeln!(
                *s,
                "  {:<18}{:>9}{:>18}{:>10}{:>7}{:>15}",
                label, "quality", "delivered/offered", "degraded", "truth", "false-replace"
            );
            for p in points {
                let knob = if label.starts_with("loss") { p.loss } else { p.corrupt };
                let _ = writeln!(
                    *s,
                    "  {:<18}{:>9.3}{:>11}/{:<7}{:>9}{:>7}{:>14}",
                    format!("p = {knob:.2}"),
                    p.delivery_quality,
                    p.delivered,
                    p.offered,
                    if p.degraded { "yes" } else { "no" },
                    if p.truth_found { "yes" } else { "no" },
                    p.false_replacements
                );
            }
            s.push('\n');
        };
        table(&mut s, "loss sweep", &self.loss_sweep);
        table(&mut s, "corruption sweep", &self.corruption_sweep);
        if let Some(path) = &self.flightrec_dump {
            let _ = writeln!(s, "  flight-recorder dump (total-loss endpoint): {path}");
        }
        let _ = writeln!(
            s,
            "  sound-under-total-loss: {}",
            if self.sound_at_total_loss { "PASS" } else { "FAIL" }
        );
        s
    }
}
