//! Selector throughput at production scale.
//!
//! The paper claims its algorithms add negligible scheduler overhead
//! ("less than 0.1 second", §5.2). These benches time one `select()` call
//! for each algorithm on the Mira-scale topology (49,152 nodes, 144 leaf
//! switches) against a half-occupied cluster, across request sizes.

use commsched_core::{AllocRequest, ClusterState, JobId, JobNature, Placement, SelectorKind};
use commsched_topology::{NodeId, SystemPreset};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;

fn half_occupied(tree: &commsched_topology::Tree) -> ClusterState {
    let mut state = ClusterState::new(tree);
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let mut nodes: Vec<NodeId> = (0..tree.num_nodes()).map(NodeId).collect();
    nodes.shuffle(&mut rng);
    for (job, chunk) in nodes[..tree.num_nodes() / 2].chunks(512).enumerate() {
        let nature = if job.is_multiple_of(2) {
            JobNature::CommIntensive
        } else {
            JobNature::ComputeIntensive
        };
        let placement = Placement::from_nodes(tree, chunk).unwrap();
        state
            .allocate(tree, JobId(job as u64), &placement, nature)
            .unwrap();
    }
    state
}

fn bench_selectors(c: &mut Criterion) {
    let tree = SystemPreset::Mira.build();
    let state = half_occupied(&tree);
    let mut group = c.benchmark_group("select_mira_scale");
    for kind in SelectorKind::ALL {
        for nodes in [256usize, 2048, 16384] {
            let selector = kind.build();
            let req = AllocRequest {
                job: JobId(999_999),
                nodes,
                nature: JobNature::CommIntensive,
                pattern: None,
                attempt: 0,
            };
            group.bench_with_input(BenchmarkId::new(kind.name(), nodes), &req, |b, req| {
                b.iter(|| {
                    let got = selector.select(&tree, &state, black_box(req)).unwrap();
                    black_box(got.len())
                })
            });
        }
    }
    group.finish();
}

fn bench_placement_eval_mira(c: &mut Criterion) {
    // One whole placement evaluation (adaptive decision + Eq. 6/Eq. 7
    // numbers through the shared evaluator) at Mira scale.
    use commsched_bench::perf::PlacementCase;
    use commsched_core::PlacementEvaluator;
    use std::sync::{Arc, Mutex};

    let case = PlacementCase::new(SystemPreset::Mira, 2048);
    let eval = Arc::new(Mutex::new(PlacementEvaluator::new()));
    let mut group = c.benchmark_group("placement_eval_mira_2048");
    group.sample_size(10);
    group.bench_function("place", |b| b.iter(|| black_box(case.place_fast(&eval))));
    group.finish();
}

criterion_group!(benches, bench_selectors, bench_placement_eval_mira);
criterion_main!(benches);
