//! Cost-model (Eq. 6) evaluation time: the inner loop of the adaptive
//! selector and of every Eq. 7 runtime adjustment.

use commsched_collectives::{CollectiveSpec, Pattern};
use commsched_core::{ClusterState, CostModel, JobId, JobNature, Placement};
use commsched_topology::{NodeId, SystemPreset, Tree};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn scattered_allocation(tree: &Tree, n: usize) -> Vec<NodeId> {
    // Every (num_nodes / n)-th node: a worst-ish case that touches many
    // leaf switches.
    let stride = (tree.num_nodes() / n).max(1);
    (0..n).map(|i| NodeId(i * stride)).collect()
}

fn bench_job_cost(c: &mut Criterion) {
    let tree = SystemPreset::Mira.build();
    let mut group = c.benchmark_group("job_cost_eq6");
    for pattern in Pattern::PAPER {
        for logn in [8u32, 11, 14] {
            let n = 1usize << logn;
            let nodes = scattered_allocation(&tree, n);
            let mut state = ClusterState::new(&tree);
            let placement = Placement::from_nodes(&tree, &nodes).unwrap();
            state
                .allocate(&tree, JobId(1), &placement, JobNature::CommIntensive)
                .unwrap();
            let spec = CollectiveSpec::new(pattern, 1 << 20);
            group.bench_with_input(
                BenchmarkId::new(pattern.to_string(), n),
                &spec,
                |b, spec| {
                    b.iter(|| {
                        black_box(CostModel::HOP_BYTES.job_cost(
                            &tree,
                            &state,
                            black_box(&nodes),
                            spec,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_contention(c: &mut Criterion) {
    let tree = SystemPreset::Theta.build();
    let mut state = ClusterState::new(&tree);
    let nodes: Vec<NodeId> = (0..512).map(|i| NodeId(i * 8)).collect();
    let placement = Placement::from_nodes(&tree, &nodes).unwrap();
    state
        .allocate(&tree, JobId(1), &placement, JobNature::CommIntensive)
        .unwrap();
    c.bench_function("contention_factor_eq3", |b| {
        b.iter(|| {
            black_box(CostModel::HOPS.contention(
                &tree,
                &state,
                black_box(NodeId(0)),
                black_box(NodeId(4000)),
            ))
        })
    });
}

criterion_group!(benches, bench_job_cost, bench_contention);
criterion_main!(benches);
