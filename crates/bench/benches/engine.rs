//! End-to-end scheduling-engine throughput: whole continuous runs, the
//! unit of work behind every Table 3 / Figure 6-9 cell.

use commsched_core::SelectorKind;
use commsched_slurmsim::{Engine, EngineConfig};
use commsched_topology::SystemPreset;
use commsched_workload::{LogSpec, SystemModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_continuous_run(c: &mut Criterion) {
    let tree = SystemPreset::Theta.build();
    let log = LogSpec::new(SystemModel::theta(), 200, 42)
        .comm_percent(90)
        .generate();
    let mut group = c.benchmark_group("engine_theta_200_jobs");
    group.sample_size(10);
    for kind in SelectorKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter(|| {
                let s = Engine::new(&tree, EngineConfig::new(k))
                    .run(black_box(&log))
                    .unwrap();
                black_box(s.makespan)
            })
        });
    }
    group.finish();
}

fn bench_mira_scale_run(c: &mut Criterion) {
    // The heaviest cell: Mira topology, large jobs, adaptive selector.
    let tree = SystemPreset::Mira.build();
    let log = LogSpec::new(SystemModel::mira(), 100, 42)
        .comm_percent(90)
        .generate();
    let mut group = c.benchmark_group("engine_mira_100_jobs");
    group.sample_size(10);
    group.bench_function("adaptive", |b| {
        b.iter(|| {
            let s = Engine::new(&tree, EngineConfig::new(SelectorKind::Adaptive))
                .run(black_box(&log))
                .unwrap();
            black_box(s.makespan)
        })
    });
    group.finish();
}

fn bench_placement_eval(c: &mut Criterion) {
    // The per-job placement evaluation inside the engine: adaptive select
    // plus the Eq. 6/Eq. 7 numbers through the shared evaluator.
    use commsched_bench::perf::PlacementCase;
    use commsched_core::PlacementEvaluator;
    use std::sync::{Arc, Mutex};

    let case = PlacementCase::new(SystemPreset::Theta, 256);
    let eval = Arc::new(Mutex::new(PlacementEvaluator::new()));
    c.bench_function("placement_eval_theta_256", |b| {
        b.iter(|| black_box(case.place_fast(&eval)))
    });
}

criterion_group!(
    benches,
    bench_continuous_run,
    bench_mira_scale_run,
    bench_placement_eval
);
criterion_main!(benches);
