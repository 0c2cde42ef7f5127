//! Flow-simulator throughput: one full collective under varying fan-out,
//! concurrent-job interference, and whole runs of the steady-state and
//! churn scenarios.

use commsched_bench::perf::NetsimCase;
use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_netsim::{FlowSim, NetConfig, Workload};
use commsched_topology::{NodeId, Tree};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_solo_collective(c: &mut Criterion) {
    let tree = Tree::regular_two_level(8, 32);
    let sim = FlowSim::new(&tree, NetConfig::gigabit_ethernet());
    let mut group = c.benchmark_group("netsim_solo");
    for logp in [3u32, 5, 7] {
        let p = 1usize << logp;
        let nodes: Vec<NodeId> = (0..p).map(NodeId).collect();
        let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
        group.bench_with_input(BenchmarkId::new("rhvd", p), &nodes, |b, nodes| {
            b.iter(|| black_box(sim.solo_time(black_box(nodes), spec)))
        });
    }
    group.finish();
}

fn bench_interference(c: &mut Criterion) {
    // The Figure 1 scenario: two jobs sharing switches for many iterations.
    let tree = Tree::irregular_two_level(&[13, 13, 12, 12]);
    let sim = FlowSim::new(&tree, NetConfig::gigabit_ethernet());
    let spec = CollectiveSpec::new(Pattern::Rhvd, 1 << 20);
    let j1: Vec<NodeId> = (0..4).chain(13..17).map(NodeId).collect();
    let j2: Vec<NodeId> = (4..10).chain(17..23).map(NodeId).collect();
    c.bench_function("netsim_fig1_20_iterations", |b| {
        b.iter(|| {
            let res = sim.run(vec![
                Workload {
                    id: 1,
                    nodes: j1.clone(),
                    spec,
                    submit: 0.0,
                    iterations: 20,
                },
                Workload {
                    id: 2,
                    nodes: j2.clone(),
                    spec,
                    submit: 0.01,
                    iterations: 20,
                },
            ]);
            black_box(res[0].end)
        })
    });
}

fn bench_steady_state(c: &mut Criterion) {
    // Machine-spanning collectives: one large coupled component per solve,
    // the incremental solver's worst case.
    let case = NetsimCase::steady_state();
    c.bench_function("netsim_steady_state", |b| {
        b.iter(|| black_box(case.run_fast()))
    });
}

fn bench_churn(c: &mut Criterion) {
    // Many short flows arriving/finishing on a 2,048-node machine: events
    // touch tiny components, where the dirty-link frontier pays off.
    let case = NetsimCase::churn();
    let mut group = c.benchmark_group("netsim_churn");
    group.sample_size(10);
    group.bench_function("run", |b| b.iter(|| black_box(case.run_fast())));
    group.finish();
}

criterion_group!(
    benches,
    bench_solo_collective,
    bench_interference,
    bench_steady_state,
    bench_churn
);
criterion_main!(benches);
