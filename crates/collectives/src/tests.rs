use crate::{CollectiveSpec, Pattern, RankParts, Step};

fn pairs_of(steps: &[Step]) -> Vec<Vec<(usize, usize)>> {
    steps.iter().map(|s| s.pairs.clone()).collect()
}

#[test]
fn rd_eight_ranks_matches_figure3() {
    // Figure 3 of the paper: recursive doubling over 8 ranks.
    // Step 1: distance 1; Step 2: distance 2; Step 3: distance 4.
    let steps = CollectiveSpec::new(Pattern::Rd, 1024).steps(8);
    assert_eq!(
        pairs_of(&steps),
        vec![
            vec![(0, 1), (2, 3), (4, 5), (6, 7)],
            vec![(0, 2), (1, 3), (4, 6), (5, 7)],
            vec![(0, 4), (1, 5), (2, 6), (3, 7)],
        ]
    );
    // Allreduce RD moves the full vector every step.
    assert!(steps.iter().all(|s| s.msize == 1024));
}

#[test]
fn rd_two_ranks() {
    let steps = CollectiveSpec::new(Pattern::Rd, 8).steps(2);
    assert_eq!(pairs_of(&steps), vec![vec![(0, 1)]]);
}

#[test]
fn rd_single_rank_is_empty() {
    assert!(CollectiveSpec::new(Pattern::Rd, 8).steps(1).is_empty());
    assert!(CollectiveSpec::new(Pattern::Rd, 8).steps(0).is_empty());
}

#[test]
fn rd_non_power_of_two_folds() {
    // p = 6 -> pow2 = 4, r = 2: pre pairs (0,1), (2,3); core = {1, 3, 4, 5}.
    let steps = CollectiveSpec::new(Pattern::Rd, 64).steps(6);
    assert_eq!(steps.len(), 4); // pre + 2 core + post
    assert_eq!(steps[0].pairs, vec![(0, 1), (2, 3)]);
    assert_eq!(steps[1].pairs, vec![(1, 3), (4, 5)]); // core distance 1
    assert_eq!(steps[2].pairs, vec![(1, 4), (3, 5)]); // core distance 2
    assert_eq!(steps[3].pairs, steps[0].pairs); // mirror post-step
}

#[test]
fn rhvd_eight_ranks_structure() {
    // Distances halve (4, 2, 1) while payloads double (m/8, m/4, m/2).
    let m = 1u64 << 20;
    let steps = CollectiveSpec::new(Pattern::Rhvd, m).steps(8);
    assert_eq!(steps.len(), 3);
    assert_eq!(steps[0].pairs, vec![(0, 4), (1, 5), (2, 6), (3, 7)]);
    assert_eq!(steps[0].msize, m / 8);
    assert_eq!(steps[1].pairs, vec![(0, 2), (1, 3), (4, 6), (5, 7)]);
    assert_eq!(steps[1].msize, m / 4);
    assert_eq!(steps[2].pairs, vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
    assert_eq!(steps[2].msize, m / 2);
}

#[test]
fn rhvd_conserves_the_gathered_vector() {
    // An allgather assembles msize bytes on each rank: per-rank received
    // bytes over all steps must total msize * (p-1)/p.
    for logp in 1u32..8 {
        let p = 1u64 << logp;
        let m = 1u64 << 20;
        let steps = CollectiveSpec::new(Pattern::Rhvd, m).steps(p as usize);
        let per_rank: u64 = steps.iter().map(|s| s.msize).sum();
        assert_eq!(per_rank, m - m / p, "p = {p}");
    }
}

#[test]
fn rhvd_first_half_stops_talking_to_second_half() {
    // Section 6.1: "in the recursive halving communication pattern, the
    // first half of the nodes do not communicate with the second half after
    // the first step" — the property that makes power-of-two splits good.
    let steps = CollectiveSpec::new(Pattern::Rhvd, 1 << 20).steps(16);
    for (k, step) in steps.iter().enumerate().skip(1) {
        for &(a, b) in &step.pairs {
            assert_eq!(
                (a < 8),
                (b < 8),
                "step {k} crosses the halves with pair ({a}, {b})"
            );
        }
    }
    // And the one crossing step carries the smallest payload.
    assert!(steps[0].msize <= steps.iter().map(|s| s.msize).min().unwrap());
}

#[test]
fn rhvd_tiny_message_never_zero() {
    let steps = CollectiveSpec::new(Pattern::Rhvd, 1).steps(1024);
    assert!(steps.iter().all(|s| s.msize >= 1));
}

#[test]
fn binomial_eight_ranks() {
    let steps = CollectiveSpec::new(Pattern::Binomial, 4096).steps(8);
    assert_eq!(
        pairs_of(&steps),
        vec![
            vec![(0, 1)],
            vec![(0, 2), (1, 3)],
            vec![(0, 4), (1, 5), (2, 6), (3, 7)],
        ]
    );
    assert!(steps.iter().all(|s| s.msize == 4096));
}

#[test]
fn binomial_ragged_tree() {
    // p = 6: last step only sends where the target exists.
    let steps = CollectiveSpec::new(Pattern::Binomial, 1).steps(6);
    assert_eq!(
        pairs_of(&steps),
        vec![vec![(0, 1)], vec![(0, 2), (1, 3)], vec![(0, 4), (1, 5)],]
    );
}

#[test]
fn binomial_reaches_every_rank() {
    // Broadcast correctness: simulate receipt from root 0.
    for p in [2usize, 3, 5, 8, 17, 64, 100] {
        let steps = CollectiveSpec::new(Pattern::Binomial, 1).steps(p);
        let mut has = vec![false; p];
        has[0] = true;
        for step in &steps {
            let mut next = has.clone();
            for &(a, b) in &step.pairs {
                if has[a] || has[b] {
                    next[a] = true;
                    next[b] = true;
                }
            }
            has = next;
        }
        assert!(has.into_iter().all(|h| h), "p={p} left ranks without data");
    }
}

#[test]
fn ring_structure() {
    let steps = CollectiveSpec::new(Pattern::Ring, 1000).steps(5);
    assert_eq!(steps.len(), 4);
    for s in &steps {
        assert_eq!(s.pairs, vec![(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(s.msize, 200);
    }
}

#[test]
fn ring_two_ranks_dedups() {
    let steps = CollectiveSpec::new(Pattern::Ring, 10).steps(2);
    assert_eq!(steps.len(), 1);
    assert_eq!(steps[0].pairs, vec![(0, 1)]);
}

#[test]
fn stencil_square_grid() {
    // p = 9 -> 3x3 grid; 4 direction waves.
    let steps = CollectiveSpec::new(Pattern::Stencil2D, 512).steps(9);
    assert_eq!(steps.len(), 4);
    let all: Vec<(usize, usize)> = steps.iter().flat_map(|s| s.pairs.clone()).collect();
    // 3x3 five-point stencil has 6 horizontal + 6 vertical undirected edges.
    assert_eq!(all.len(), 12);
    assert!(all.contains(&(0, 1)));
    assert!(all.contains(&(0, 3)));
    assert!(all.contains(&(4, 5)));
    assert!(all.contains(&(5, 8)));
}

#[test]
fn alltoall_pow2_pairs_every_rank_each_step() {
    let steps = CollectiveSpec::new(Pattern::Alltoall, 8000).steps(8);
    assert_eq!(steps.len(), 7);
    for (k, step) in steps.iter().enumerate() {
        assert_eq!(step.pairs.len(), 4, "step {k}");
        assert_eq!(step.msize, 1000);
        let mut seen = [false; 8];
        for &(a, b) in &step.pairs {
            assert_eq!(b, a ^ (k + 1));
            assert!(!seen[a] && !seen[b]);
            seen[a] = true;
            seen[b] = true;
        }
    }
}

#[test]
fn alltoall_every_rank_pair_communicates_exactly_once() {
    // All-to-all semantics: over the whole schedule each unordered pair
    // appears exactly once (power-of-two ranks).
    let steps = CollectiveSpec::new(Pattern::Alltoall, 1 << 20).steps(16);
    let mut count = std::collections::BTreeMap::new();
    for s in &steps {
        for &pr in &s.pairs {
            *count.entry(pr).or_insert(0usize) += 1;
        }
    }
    assert_eq!(count.len(), 16 * 15 / 2);
    assert!(count.values().all(|&c| c == 1));
}

#[test]
fn alltoall_non_pow2_covers_all_pairs() {
    let steps = CollectiveSpec::new(Pattern::Alltoall, 700).steps(7);
    assert_eq!(steps.len(), 6);
    let mut seen = std::collections::HashSet::new();
    for s in &steps {
        for &pr in &s.pairs {
            seen.insert(pr);
        }
    }
    assert_eq!(seen.len(), 7 * 6 / 2);
}

#[test]
fn pattern_parsing_and_display() {
    for p in Pattern::ALL {
        let s = p.to_string();
        assert_eq!(s.parse::<Pattern>().unwrap(), p);
    }
    assert_eq!("rhvd".parse::<Pattern>().unwrap(), Pattern::Rhvd);
    assert!("bogus".parse::<Pattern>().is_err());
}

#[test]
fn total_bytes_rd() {
    // 8 ranks, 3 steps, 4 pairs each, msize 10 -> 120.
    let spec = CollectiveSpec::new(Pattern::Rd, 10);
    assert_eq!(spec.total_bytes(8), 120);
}

/// Simulate data propagation: every rank starts with its own block; each
/// step's pairs merge their sets (bidirectional exchange). Returns true if
/// all ranks end holding all blocks — the correctness invariant of any
/// allgather/allreduce schedule.
fn full_coverage(pattern: Pattern, p: usize) -> bool {
    let steps = CollectiveSpec::new(pattern, 1 << 20).steps(p);
    let mut sets: Vec<std::collections::BTreeSet<usize>> = (0..p)
        .map(|i| std::collections::BTreeSet::from([i]))
        .collect();
    for step in &steps {
        let mut next = sets.clone();
        for &(a, b) in &step.pairs {
            next[a].extend(sets[b].iter().copied());
            next[b].extend(sets[a].iter().copied());
        }
        sets = next;
    }
    sets.iter().all(|s| s.len() == p)
}

#[test]
fn allgather_style_schedules_reach_everyone() {
    // RD and RHVD are all-to-all-knowledge algorithms: their schedules
    // must fully disseminate every rank's block, for powers of two AND the
    // folded non-power-of-two cases.
    for p in [2usize, 3, 4, 6, 8, 12, 16, 31, 32, 100, 128] {
        assert!(full_coverage(Pattern::Rd, p), "RD failed at p={p}");
        assert!(full_coverage(Pattern::Rhvd, p), "RHVD failed at p={p}");
    }
    // Ring disseminates too (p-1 neighbour exchanges).
    for p in [2usize, 3, 5, 9, 16] {
        assert!(full_coverage(Pattern::Ring, p), "Ring failed at p={p}");
    }
    // (Binomial is a broadcast tree — only the root's block must reach
    // everyone, which `binomial_reaches_every_rank` already checks.)
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn paper_pattern() -> impl Strategy<Value = Pattern> {
        prop::sample::select(Pattern::PAPER.to_vec())
    }

    fn any_pattern() -> impl Strategy<Value = Pattern> {
        prop::sample::select(Pattern::ALL.to_vec())
    }

    proptest! {
        /// num_steps always equals the materialized schedule length.
        #[test]
        fn num_steps_consistent(pat in any_pattern(), p in 0usize..200, m in 1u64..1_000_000) {
            let spec = CollectiveSpec::new(pat, m);
            prop_assert_eq!(spec.num_steps(p), spec.steps(p).len());
        }

        /// Every rank talks to at most one partner per step (the schedules
        /// are phase-synchronous pairwise exchanges).
        #[test]
        fn at_most_one_partner_per_step(pat in paper_pattern(), p in 2usize..130, m in 1u64..1_000_000) {
            let spec = CollectiveSpec::new(pat, m);
            for (k, step) in spec.steps(p).into_iter().enumerate() {
                let mut seen = vec![false; p];
                for (a, b) in step.pairs {
                    prop_assert!(a < p && b < p, "rank out of range in step {k}");
                    prop_assert!(a != b, "self pair in step {k}");
                    prop_assert!(!seen[a], "rank {a} has two partners in step {k}");
                    prop_assert!(!seen[b], "rank {b} has two partners in step {k}");
                    seen[a] = true;
                    seen[b] = true;
                }
            }
        }

        /// Pairs are normalized, sorted and unique; msize positive.
        #[test]
        fn steps_are_normalized(pat in any_pattern(), p in 2usize..100, m in 1u64..1_000_000) {
            for step in CollectiveSpec::new(pat, m).steps(p) {
                prop_assert!(step.msize >= 1);
                for w in step.pairs.windows(2) {
                    prop_assert!(w[0] < w[1], "unsorted or duplicate pairs");
                }
                for (a, b) in step.pairs {
                    prop_assert!(a < b);
                }
            }
        }

        /// For powers of two, RD touches every rank every step.
        #[test]
        fn rd_pow2_all_ranks_active(logp in 1u32..9, m in 1u64..1_000_000) {
            let p = 1usize << logp;
            for step in CollectiveSpec::new(Pattern::Rd, m).steps(p) {
                prop_assert_eq!(step.pairs.len(), p / 2);
            }
        }

        /// `total_bytes` is a fold over the segment description; the
        /// expansion counts the same pairs (one for the 2-rank ring).
        #[test]
        fn total_bytes_counts_expanded_pairs(pat in any_pattern(), p in 0usize..=300, m in 1u64..1_000_000) {
            let spec = CollectiveSpec::new(pat, m);
            let expanded: u64 = spec.steps(p).iter().map(|s| s.msize * s.pairs.len() as u64).sum();
            prop_assert_eq!(spec.total_bytes(p), expanded);
        }

        /// RHVD payloads strictly double step over step (for vectors large
        /// enough not to hit the 1-byte floor).
        #[test]
        fn rhvd_payloads_double(logp in 1u32..9, logm in 12u32..24) {
            let p = 1usize << logp;
            let m = 1u64 << logm;
            prop_assume!(logm >= logp); // avoid the 1-byte floor
            let steps = CollectiveSpec::new(Pattern::Rhvd, m).steps(p);
            for w in steps.windows(2) {
                prop_assert_eq!(w[1].msize, 2 * w[0].msize);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// What the placement evaluator's exactness rests on: over any
        /// partition of the ranks into contiguous parts, the interval
        /// intersection reports, step by step, exactly the set of
        /// (part, part) pairs that mapping every expanded rank pair through
        /// a rank → part table yields — single-rank parts and parts the
        /// fold leaves empty included.
        #[test]
        fn part_pairs_match_expanded_pairs(
            pat in any_pattern(),
            p in 2usize..=300,
            cuts in proptest::collection::vec(any::<u16>(), 0..40),
        ) {
            let mut bounds = vec![0, p];
            for c in cuts {
                let at = usize::from(c) % p;
                bounds.push(at);
                // Half the cuts come with their successor: a one-rank part.
                if c >= 1 << 15 {
                    bounds.push(at + 1);
                }
            }
            bounds.sort_unstable();
            bounds.dedup();
            if let Err(e) = check_part_pairs(pat, &bounds) {
                return Err(proptest::test_runner::TestCaseError::fail(e));
            }
        }

        /// The narrow XOR steps' closed form ([`crate::XorLevels`]) names
        /// exactly the part pairs the sweep reports, over partitions of up
        /// to 700 ranks into one-rank parts, parts of a few ranks and parts
        /// of up to 160, for RD, RHVD and the power-of-two all-to-all.
        #[test]
        fn xor_levels_match_swept_pairs(
            pat in prop::sample::select(vec![Pattern::Rd, Pattern::Rhvd, Pattern::Alltoall]),
            p in 2usize..=700,
            lens in proptest::collection::vec((0u8..4, 1usize..=160), 1..24),
        ) {
            let p = if pat == Pattern::Alltoall { 1 << p.ilog2() } else { p };
            let mut bounds = vec![0];
            for (kind, len) in lens {
                let len = match kind {
                    0 => 1,
                    1 => len % 8 + 1,
                    _ => len,
                };
                let at = bounds[bounds.len() - 1] + len;
                if at >= p {
                    break;
                }
                bounds.push(at);
            }
            bounds.push(p);
            if let Err(e) = check_xor_levels(pat, &bounds) {
                return Err(proptest::test_runner::TestCaseError::fail(e));
            }
        }
    }
}

/// Over the partition of `0..bounds.last()` at `bounds`, check that
/// [`crate::StepSegments::narrow_xor`] calls a step narrow exactly when it
/// is XOR by a power of two `d` and every part holds an index of the fold
/// and every interior part at least `d` of them — the ends mapped here,
/// apart from [`RankParts`] — and that the closed form then names exactly
/// the deduplicated part pairs of [`crate::StepSegments::for_each_part_pair`].
/// Returns how many narrow steps it checked.
fn check_xor_levels(pat: Pattern, bounds: &[usize]) -> Result<usize, String> {
    use std::collections::BTreeSet;
    let p = bounds[bounds.len() - 1];
    let core = 1usize << p.ilog2();
    let excess = if pat == Pattern::Alltoall {
        0
    } else {
        p - core
    };
    let fold = |b: usize| if b <= 2 * excess { b / 2 } else { b - excess };
    let lens: Vec<usize> = bounds.windows(2).map(|w| fold(w[1]) - fold(w[0])).collect();
    let interior = &lens[1..lens.len().saturating_sub(1).max(1)];
    let limit = if lens.contains(&0) {
        0
    } else {
        interior.iter().copied().min().unwrap_or(usize::MAX)
    };
    let mut parts = RankParts::default();
    for w in bounds.windows(2) {
        parts.push(w[1] - w[0]);
    }
    let spec = CollectiveSpec::new(pat, 1 << 16);
    let folded = usize::from(excess > 0);
    let mut narrow = 0;
    for (s, step) in spec.step_segments(p).enumerate() {
        let d = match pat {
            Pattern::Rd | Pattern::Rhvd if s < folded || s == p.ilog2() as usize + folded => None,
            Pattern::Rd => Some(1 << (s - folded)),
            Pattern::Rhvd => Some(core >> (s - folded + 1)),
            _ => Some(s + 1).filter(|k| k.is_power_of_two() && p.is_power_of_two()),
        };
        let want = d.filter(|&d| d <= limit);
        let got = step.narrow_xor(&mut parts).map(|(k, levels)| {
            let cross = (levels.joins().iter().enumerate())
                .filter(|&(_, &j)| usize::from(j) <= k)
                .map(|(t, _)| (t, t + 1));
            let selves = (levels.selves().iter().enumerate())
                .filter(|&(_, &n)| usize::from(n) > k)
                .map(|(t, _)| (t, t));
            (1usize << k, cross.chain(selves).collect::<BTreeSet<_>>())
        });
        let case = format!("{pat} over {p}, step {s}, bounds {bounds:?}");
        if got.as_ref().map(|g| g.0) != want {
            return Err(format!(
                "{case}: narrow at {:?}, want {want:?}",
                got.map(|g| g.0)
            ));
        }
        if let Some((_, rule)) = got {
            let mut swept = BTreeSet::new();
            step.for_each_part_pair(&mut parts, |a, b| {
                swept.insert((a, b));
            });
            if rule != swept {
                return Err(format!("{case}: rule {rule:?}, swept {swept:?}"));
            }
            narrow += 1;
        }
    }
    Ok(narrow)
}

/// Whether, over the partition of `0..bounds.last()` at `bounds` (strictly
/// ascending from 0), every step's interval intersection reports exactly
/// the set of (part, part) pairs that mapping its expanded rank pairs
/// through a rank → part table yields.
fn check_part_pairs(pat: Pattern, bounds: &[usize]) -> Result<(), String> {
    use std::collections::BTreeSet;
    let p = bounds[bounds.len() - 1];
    let part_of: Vec<usize> = bounds
        .windows(2)
        .enumerate()
        .flat_map(|(t, w)| std::iter::repeat_n(t, w[1] - w[0]))
        .collect();
    let mut parts = RankParts::default();
    for w in bounds.windows(2) {
        parts.push(w[1] - w[0]);
    }
    let spec = CollectiveSpec::new(pat, 1 << 16);
    let steps = spec.steps(p);
    if spec.step_segments(p).count() != steps.len() {
        return Err(format!("{pat} over {p}: step count"));
    }
    for (k, (desc, step)) in spec.step_segments(p).zip(&steps).enumerate() {
        if desc.msize != step.msize {
            return Err(format!("{pat} over {p}, step {k}: msize"));
        }
        let mut got = BTreeSet::new();
        desc.for_each_part_pair(&mut parts, |a, b| {
            got.insert((a, b));
        });
        let want: BTreeSet<(usize, usize)> = step
            .pairs
            .iter()
            .map(|&(i, j)| (part_of[i], part_of[j]))
            .collect();
        if got != want {
            return Err(format!(
                "{pat} over {p}, step {k}: got {got:?}, want {want:?} over bounds {bounds:?}"
            ));
        }
    }
    Ok(())
}

/// The part-pair tie past the proptest's 300 ranks, on [`FIXED_CASES`]
/// cut the [`fixed_partitions`] ways.
#[test]
fn part_pairs_match_expanded_pairs_past_300_ranks() {
    for (pat, p) in FIXED_CASES {
        for bounds in fixed_partitions(p) {
            if let Err(e) = check_part_pairs(pat, &bounds) {
                panic!("{e}");
            }
        }
    }
}

/// `xor_levels_match_swept_pairs` past the proptest's 700 ranks, on the
/// same counts and cuts as the part-pair tie, where the cuts every 64 and
/// 256 ranks leave every boundary a multiple of `2d` for the narrower
/// steps — no neighbour pair joined — and Intrepid-sized parts keep the
/// steps up to 256 narrow.
#[test]
fn xor_levels_match_swept_pairs_past_700_ranks() {
    let mut narrow = 0;
    for (pat, p) in FIXED_CASES {
        for bounds in fixed_partitions(p) {
            narrow += check_xor_levels(pat, &bounds).unwrap_or_else(|e| panic!("{e}"));
        }
    }
    assert!(narrow > 250, "{narrow} narrow steps checked");
}

/// The rank counts where the fold's excess has its edges — one below, at
/// and one above a power of two, a ragged 1,000 and 4,097 (excess 1 over a
/// 4,096 core) — for RD and RHVD, and for all-to-all at powers of two
/// (its XOR steps; other counts shift).
const FIXED_CASES: [(Pattern, usize); 12] = [
    (Pattern::Rd, 511),
    (Pattern::Rd, 512),
    (Pattern::Rd, 513),
    (Pattern::Rd, 1000),
    (Pattern::Rd, 4097),
    (Pattern::Rhvd, 511),
    (Pattern::Rhvd, 512),
    (Pattern::Rhvd, 513),
    (Pattern::Rhvd, 1000),
    (Pattern::Rhvd, 4097),
    (Pattern::Alltoall, 512),
    (Pattern::Alltoall, 1024),
];

/// `0..p` cut five ways: Intrepid-sized parts, seeded ragged cuts with
/// one-rank parts among them, one-rank parts on both sides of the fold
/// boundary `2 · excess`, and aligned cuts every 64 and every 256 ranks.
fn fixed_partitions(p: usize) -> Vec<Vec<usize>> {
    let core = 1usize << p.ilog2();
    let fold = 2 * (p - core);
    let mut seed = p as u64;
    let mut ragged = vec![0, p];
    for _ in 0..24 {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let at = (seed >> 33) as usize % p;
        ragged.extend([at, (at + 1).min(p)]);
    }
    let mut edge = vec![0, p];
    for at in [
        fold.saturating_sub(2),
        fold.saturating_sub(1),
        fold,
        fold + 1,
        core / 2,
    ] {
        edge.extend([at.min(p), (at + 1).min(p)]);
    }
    let every = |n: usize| (0..p).step_by(n).chain([p]).collect::<Vec<usize>>();
    let mut all = vec![every(347), ragged, edge, every(64), every(256)];
    for bounds in &mut all {
        bounds.sort_unstable();
        bounds.dedup();
    }
    all
}

/// Every pair of every step in order, plus `msize`, for a spread of rank
/// counts — pinned by one FNV-1a digest per pattern, so a rewrite of the
/// generators cannot move sort order, `(lo, hi)` normalisation, the
/// 2-rank-ring dedup or the fold's pre/post steps.
mod step_digests {
    use super::*;

    fn fnv1a(h: u64, word: u64) -> u64 {
        word.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Blessed on the generators of commit 1c72329 (one materialising
    /// function per pattern), the way `topology`'s preset `to_conf()`
    /// digests were.
    const BLESSED: [(Pattern, u64); 6] = [
        (Pattern::Rd, 0x4ed4_4151_b7a4_2078),
        (Pattern::Rhvd, 0x2190_7b8c_9da5_1a64),
        (Pattern::Binomial, 0xa704_f743_c1d1_e259),
        (Pattern::Ring, 0x1b48_51bd_4d8b_e546),
        (Pattern::Stencil2D, 0x7b5e_8a24_0a9a_61b1),
        (Pattern::Alltoall, 0x3858_67c8_aff9_0763),
    ];

    #[test]
    fn every_pattern_expands_to_the_blessed_pairs() {
        let mut moved = Vec::new();
        for (pattern, want) in BLESSED {
            // Ring and alltoall are quadratic in the rank count.
            let quadratic = matches!(pattern, Pattern::Ring | Pattern::Alltoall);
            let large = [511usize, 512, 513, 1000, 4096, 5000];
            let ranks = (2usize..=300).chain(large.into_iter().filter(|_| !quadratic));
            let spec = CollectiveSpec::new(pattern, 1 << 16);
            let mut got = 0xcbf2_9ce4_8422_2325u64;
            for p in ranks {
                got = fnv1a(got, p as u64);
                for step in spec.steps(p) {
                    got = fnv1a(got, step.msize);
                    got = fnv1a(got, step.pairs.len() as u64);
                    for (a, b) in step.pairs {
                        got = fnv1a(fnv1a(got, a as u64), b as u64);
                    }
                }
            }
            if got != want {
                moved.push(format!("{pattern}: steps() digest {got:#018x}"));
            }
        }
        assert!(moved.is_empty(), "{moved:#?}");
    }
}
