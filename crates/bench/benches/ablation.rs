//! Ablation benches for DESIGN.md's design choices:
//!
//! * α-count vs. naive consecutive-failure counting (cost per judgement);
//! * guardian on vs. off (cost of temporal isolation);
//! * diagnostic-network budget (symptom flood handling);
//! * fleet parallel scaling on the `fleet_exec` executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use decos::diagnosis::{DiagnosticNetwork, Subject, Symptom, SymptomKind};
use decos::prelude::*;
use decos::reliability::{AlphaCount, AlphaParams};
use decos::timebase::LatticePoint;
use decos::ttnet::GuardianMode;

fn bench_alpha(c: &mut Criterion) {
    let mut g = c.benchmark_group("alpha_count");
    g.throughput(Throughput::Elements(1));
    g.bench_function("observe_with_decay", |b| {
        let mut a = AlphaCount::new(AlphaParams { decay: 0.95, threshold: 3.0 });
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            a.observe(i % 17 == 0)
        });
    });
    g.bench_function("observe_naive", |b| {
        let mut a = AlphaCount::new(AlphaParams { decay: 0.0, threshold: 3.0 });
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            a.observe(i % 17 == 0)
        });
    });
    g.finish();
}

fn bench_guardian_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("guardian_ablation");
    g.sample_size(20);
    const SLOTS: u64 = 2_000;
    g.throughput(Throughput::Elements(SLOTS));
    for (label, mode) in [
        ("enforcing", GuardianMode::Enforcing { window_half_ns: 10_000 }),
        ("none", GuardianMode::None),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            b.iter(|| {
                let mut spec = fig10::reference_spec();
                spec.channel.guardian = mode;
                let mut sim = ClusterSim::new(spec, 5).unwrap();
                let mut env = decos::platform::NullEnvironment;
                for _ in 0..SLOTS {
                    std::hint::black_box(sim.step_slot(&mut env));
                }
            });
        });
    }
    g.finish();
}

fn bench_dissemination_budget(c: &mut Criterion) {
    let mut g = c.benchmark_group("diag_network_budget");
    let flood: Vec<Symptom> = (0..256)
        .map(|i| Symptom {
            at: SimTime::ZERO,
            point: LatticePoint(0),
            observer: NodeId((i % 4) as u16),
            subject: Subject::Component(NodeId(((i + 1) % 4) as u16)),
            kind: SymptomKind::Omission,
        })
        .collect();
    for &cap in &[16usize, 64, 256] {
        g.throughput(Throughput::Elements(flood.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            let mut net = DiagnosticNetwork::new(cap, cap * 8).expect("valid budget");
            b.iter(|| {
                net.offer(&flood);
                std::hint::black_box(net.deliver_round())
            });
        });
    }
    g.finish();
}

fn bench_fleet_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_scaling");
    g.sample_size(10);
    let spec = fig10::reference_spec();
    for &vehicles in &[4u64, 16] {
        g.throughput(Throughput::Elements(vehicles));
        g.bench_with_input(BenchmarkId::new("fleet_exec", vehicles), &vehicles, |b, &v| {
            b.iter(|| {
                let cfg = FleetConfig { vehicles: v, rounds: 400, accel: 10.0, seed: 7 };
                std::hint::black_box(run_fleet(&spec, cfg))
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_alpha,
    bench_guardian_ablation,
    bench_dissemination_budget,
    bench_fleet_scaling
);
criterion_main!(benches);
