//! Schedule generation for each supported communication pattern.

use serde::Serialize;
use std::fmt;

/// Communication pattern families considered by the scheduler.
///
/// `Rd`, `Rhvd` and `Binomial` are the three patterns evaluated in the paper;
/// `Ring` and `Stencil2D` are the extensions named in its future work (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Pattern {
    /// Recursive doubling/halving (the paper's "RD"): `MPI_Allreduce`.
    Rd,
    /// Recursive halving with vector doubling: `MPI_Allgather`,
    /// Rabenseifner-style `MPI_Allreduce`.
    Rhvd,
    /// Binomial tree: `MPI_Bcast`, `MPI_Reduce`, `MPI_Gather`.
    Binomial,
    /// Ring allgather: `p - 1` steps of neighbour exchange.
    Ring,
    /// Five-point 2-D halo exchange on a near-square process grid.
    Stencil2D,
    /// Pairwise-exchange all-to-all (`MPI_Alltoall`, the FFTW/CPMD
    /// workhorse named in the paper's introduction): `p - 1` steps, rank
    /// `i` exchanging its block with `i XOR k` (power-of-two ranks) or
    /// with `(i ± k) mod p` otherwise.
    Alltoall,
}

impl Pattern {
    /// All patterns the paper evaluates (RD, RHVD, binomial).
    pub const PAPER: [Pattern; 3] = [Pattern::Rd, Pattern::Rhvd, Pattern::Binomial];

    /// Every supported pattern including future-work extensions.
    pub const ALL: [Pattern; 6] = [
        Pattern::Rd,
        Pattern::Rhvd,
        Pattern::Binomial,
        Pattern::Ring,
        Pattern::Stencil2D,
        Pattern::Alltoall,
    ];
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pattern::Rd => "RD",
            Pattern::Rhvd => "RHVD",
            Pattern::Binomial => "Binomial",
            Pattern::Ring => "Ring",
            Pattern::Stencil2D => "Stencil2D",
            Pattern::Alltoall => "Alltoall",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Pattern {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "rd" => Ok(Pattern::Rd),
            "rhvd" => Ok(Pattern::Rhvd),
            "binomial" | "bin" => Ok(Pattern::Binomial),
            "ring" => Ok(Pattern::Ring),
            "stencil2d" | "stencil" => Ok(Pattern::Stencil2D),
            "alltoall" | "a2a" => Ok(Pattern::Alltoall),
            other => Err(format!("unknown pattern {other:?}")),
        }
    }
}

/// One step of a collective: the rank pairs that communicate concurrently
/// and the bytes each pair exchanges.
///
/// Pairs are normalized to `(lo, hi)` with `lo < hi`; each pair denotes a
/// bidirectional exchange (or a send for one-directional algorithms such as
/// binomial broadcast — the cost model and the flow simulator treat both the
/// same way, as the paper's hop model does).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Step {
    /// Concurrently communicating rank pairs, `(lo, hi)`, sorted.
    pub pairs: Vec<(usize, usize)>,
    /// Bytes exchanged per pair in this step.
    pub msize: u64,
}

/// `reps` affine runs of index pairs: run `q` pairs `lo + q·period + j`
/// with `hi + q·period + j` for every `j < len`.
///
/// Every generator keeps `lo < hi`, `len ≥ 1` and `period ≥ hi + len − lo`
/// (runs follow one another without interleaving), and no two segments of
/// a step share a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    lo: usize,
    hi: usize,
    len: usize,
    period: usize,
    reps: usize,
}

impl Segment {
    /// The single run `(lo + j, hi + j)`, `j < len`.
    fn run(lo: usize, hi: usize, len: usize) -> Self {
        let period = hi + len - lo;
        Segment {
            lo,
            hi,
            len,
            period,
            reps: 1,
        }
    }
}

/// How a step's segments are enumerated — a closed form of the segment
/// index, so a step that does not compress (XOR by an odd `k`) is a lazy
/// sequence, never a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// The one segment given.
    One(Segment),
    /// Every rank `i` of `p` paired with `(i + k) mod p`, normalized: the
    /// pairs that do not wrap are a shift by `k`, those that do a shift by
    /// `p − k` — the same pairs when `2k = p` (the 2-rank ring), which
    /// then count once.
    Shift { k: usize, p: usize },
    /// `i ↔ i XOR k` over `n` indices, `n` a power of two and `0 < k < n`.
    /// With `2^l` the lowest and `2^h` the highest set bit of `k`, XOR by
    /// `k` maps each aligned `2^l`-block whose bit `h` is clear onto the
    /// aligned block at `base XOR k`, and does so alike in every aligned
    /// `2^(h+1)`-block: `2^(h−l)` segments, one (of `n / 2k` runs) when `k`
    /// is a power of two.
    Xor { k: usize, n: usize },
    /// Stencil row wave: in each of `rows` rows of `cols` ranks, the
    /// columns `parity, parity + 2, …` pair with their right neighbour.
    /// One segment per row.
    Rows {
        rows: usize,
        cols: usize,
        parity: usize,
    },
}

/// One step of a collective, described rather than listed: a short
/// sequence of affine index segments that [`CollectiveSpec::steps`]
/// expands into [`Step::pairs`] and that [`Self::for_each_part_pair`]
/// intersects with a partition of the ranks without expanding anything.
///
/// Two values compare equal exactly when they describe the same pairs
/// with the same `msize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSegments {
    /// Bytes exchanged per pair in this step.
    pub msize: u64,
    /// Ranks the MPICH fold has set aside while this step runs; the
    /// segments are then written over *core* indices, index `c` standing
    /// for rank `2c + 1` below `excess` and `c + excess` from there on — a
    /// monotone map, the identity when `excess` is 0.
    excess: usize,
    shape: Shape,
}

impl StepSegments {
    /// A step over the ranks themselves (no fold).
    fn over_ranks(msize: u64, shape: Shape) -> Self {
        StepSegments {
            msize,
            excess: 0,
            shape,
        }
    }

    fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let count = match self.shape {
            Shape::One(_) => 1,
            Shape::Shift { k, p } => 1 + usize::from(2 * k != p),
            Shape::Xor { k, .. } => 1 << (floor_log2(k) - k.trailing_zeros() as usize),
            Shape::Rows { rows, .. } => rows,
        };
        (0..count).map(move |m| match self.shape {
            Shape::One(segment) => segment,
            Shape::Shift { k, p } if m == 0 => Segment::run(0, k, p - k),
            Shape::Shift { k, p } => Segment::run(0, p - k, k),
            Shape::Xor { k, n } => {
                let (h, l) = (floor_log2(k), k.trailing_zeros() as usize);
                let lo = m << l;
                Segment {
                    lo,
                    hi: lo ^ k,
                    len: 1 << l,
                    period: 2 << h,
                    reps: n >> (h + 1),
                }
            }
            Shape::Rows { cols, parity, .. } => {
                let lo = m * cols + parity;
                Segment {
                    lo,
                    hi: lo + 1,
                    len: 1,
                    period: 2,
                    reps: (cols - parity) / 2,
                }
            }
        })
    }

    fn num_pairs(&self) -> usize {
        self.segments().map(|s| s.len * s.reps).sum()
    }

    fn expand(&self) -> Step {
        let rank = |c: usize| {
            if c < self.excess {
                2 * c + 1
            } else {
                c + self.excess
            }
        };
        let mut pairs = Vec::with_capacity(self.num_pairs());
        for seg in self.segments() {
            for q in 0..seg.reps {
                let (lo, hi) = (seg.lo + q * seg.period, seg.hi + q * seg.period);
                pairs.extend((0..seg.len).map(|j| (rank(lo + j), rank(hi + j))));
            }
        }
        pairs.sort_unstable();
        debug_assert!(pairs.windows(2).all(|w| w[0] != w[1]));
        Step {
            pairs,
            msize: self.msize,
        }
    }

    /// Call `emit(a, b)`, `a <= b`, for every pair of *parts* some rank
    /// pair of this step joins, where part `t` is the rank interval
    /// `parts.bounds[t]..parts.bounds[t + 1]` and the parts hold the rank
    /// count the step was generated for. A part pair may be reported more
    /// than once; none is reported that no rank pair joins.
    ///
    /// Nothing is expanded: a run whose ranks all fall in one part is that
    /// part paired with itself, and so is every later run of the segment
    /// that still ends inside the part, skipped in one division; a run
    /// that straddles a boundary is a merge walk over the boundaries it
    /// crosses. Within a segment both sides of the runs ascend, so the two
    /// part cursors only ever move forward. A step of one segment (XOR by a
    /// power of two — RD, RHVD, the power-of-two all-to-all's doubling
    /// distances — binomial, the fold's pre- and post-steps, the stencil's
    /// vertical waves) is swept in one ascending pass whose cursors advance
    /// part by part; a step of several segments starts each from part 0
    /// and gallops to its runs. Either way a segment costs on the order of
    /// the parts it touches, whatever its `reps · len`.
    pub fn for_each_part_pair(&self, parts: &mut RankParts, mut emit: impl FnMut(usize, usize)) {
        // One segment ascends as a whole: its cursors step; several
        // restart per segment: they gallop.
        let one = match self.shape {
            Shape::One(_) => true,
            Shape::Xor { k, .. } => k.is_power_of_two(),
            Shape::Shift { .. } | Shape::Rows { .. } => false,
        };
        let ends = parts.ends(self.excess);
        for seg in self.segments() {
            if one {
                sweep_segment(seg, ends, step_to, &mut emit);
            } else {
                sweep_segment(seg, ends, gallop_to, &mut emit);
            }
        }
    }

    /// `Some((k, levels))` when this step is XOR by `2^k` and narrow over
    /// `parts` ([`XorLevels`]): its part pairs are then `levels`' closed
    /// form at level `k`, and [`Self::for_each_part_pair`] would report
    /// exactly those. `None` for every other step.
    pub fn narrow_xor<'p>(&self, parts: &'p mut RankParts) -> Option<(usize, &'p XorLevels)> {
        let Shape::Xor { k, .. } = self.shape else {
            return None;
        };
        if !k.is_power_of_two() {
            return None;
        }
        let level = k.trailing_zeros() as usize;
        let levels = parts.xor_levels(self.excess);
        (level < levels.narrow).then_some((level, levels))
    }
}

/// The part pairs of every *narrow* XOR step over a partition, in closed
/// form, for one fold.
///
/// The fold maps part `t` to the index interval `[s_t, e_t)`, and XOR by
/// `d = 2^k` over a power-of-two index count pairs `i` with `i + d` for
/// every `i` whose bit `k` is clear. The step is narrow when every part
/// holds an index and every *interior* part (neither the first nor the
/// last) holds at least `d`. Then:
///
/// - a cross pair joins neighbours only, since `i` and `i + d` are less
///   than an interior part apart; `(t, t + 1)` is joined iff some `i` with
///   bit `k` clear lies in `[e_t − d, e_t)`, and a window of `d`
///   consecutive indices has bit `k` set throughout iff it ends on a
///   multiple of `2d`. So the pair is joined iff `k ≥ trailing_zeros(e_t)`
///   ([`Self::joins`]). A short first or last part obeys the same rule:
///   a first part shorter than `d` has bit `k` clear throughout and pairs
///   into the next part, and every `i < e_t` with bit `k` clear has
///   `i + d` below the index count, a multiple of `2d`.
/// - `(t, t)` is joined iff `[s_t, e_t − d)` holds an index with bit `k`
///   clear: always when `d ≤ (len − 1) / 2` (the interval is longer than
///   `d`), never when `d ≥ len` (it is empty), and, at the one level in
///   between, iff the first index at or after `s_t` with bit `k` clear
///   lies below `e_t − d`. So the levels with a self pair are a prefix
///   ([`Self::selves`]).
///
/// A part left no index by the fold makes no step narrow.
#[derive(Debug, Clone, Default)]
pub struct XorLevels {
    /// Per boundary `t`, between parts `t` and `t + 1`: the lowest level
    /// whose step joins them, `trailing_zeros(e_t)`.
    joins: Vec<u8>,
    /// Per part: how many levels, from 0, pair the part with itself.
    selves: Vec<u8>,
    /// Levels `0..narrow` are narrow; 0 when some part is empty, and then
    /// `joins` and `selves` are not read.
    narrow: usize,
    /// The fold excess the levels were computed for.
    fold: usize,
}

impl XorLevels {
    /// Per boundary `t`: the lowest level whose step joins parts `t` and
    /// `t + 1`; every narrow step at or above it joins them.
    pub fn joins(&self) -> &[u8] {
        &self.joins
    }

    /// Per part: how many levels, from 0, pair the part with itself.
    pub fn selves(&self) -> &[u8] {
        &self.selves
    }

    /// XOR by `2^k` is narrow iff `k < narrow()`; never more than the
    /// index count's `log2`.
    pub fn narrow(&self) -> usize {
        self.narrow
    }

    /// The fold excess these levels describe: tables a caller builds from
    /// them hold for every narrow step of that fold.
    pub fn fold(&self) -> usize {
        self.fold
    }

    /// The levels of the parts ending at `ends` (index space, ascending
    /// from the first end) under fold `fold`.
    fn fill(&mut self, ends: &[usize], fold: usize) {
        self.joins.clear();
        self.selves.clear();
        self.fold = fold;
        self.narrow = 0;
        let last = ends.len() - 1;
        let mut limit = usize::MAX;
        let mut start = 0;
        for (t, &end) in ends.iter().enumerate() {
            if end == start {
                return;
            }
            if t > 0 && t < last {
                limit = limit.min(end - start);
            }
            if t < last {
                self.joins.push(end.trailing_zeros() as u8);
            }
            self.selves.push(self_levels(start, end));
            start = end;
        }
        self.narrow = floor_log2(start).min(floor_log2(limit) + 1);
    }
}

/// How many levels `k`, from 0, pair an index of `[s, e)` with bit `k`
/// clear with the index `2^k` above it inside the interval: every `k` with
/// `2^k ≤ (len − 1) / 2`, plus `top = floor_log2(len − 1)` — the one level
/// with `(len − 1) / 2 < 2^k < len` — when the first index at or after `s`
/// with bit `top` clear lies below `e − 2^top`.
fn self_levels(s: usize, e: usize) -> u8 {
    let len = e - s;
    if len < 2 {
        return 0;
    }
    let top = floor_log2(len - 1);
    let d = 1 << top;
    let clear = if s & d == 0 { s } else { (s | (2 * d - 1)) + 1 };
    (top + usize::from(clear + d < e)) as u8
}

/// A partition of the ranks `0..ranks()` into consecutive non-empty parts
/// — a placement's takes laid end to end — as
/// [`StepSegments::for_each_part_pair`] reads it.
///
/// A folded step's segments run over core indices, so a sweep reads each
/// part's end in that index space. The steps of one schedule share their
/// fold excess, so the partition keeps the ends it mapped for the last
/// excess asked for: the bounds are mapped once per schedule, not once per
/// step, and never per lookup.
#[derive(Debug, Clone, Default)]
pub struct RankParts {
    /// `bounds[t]..bounds[t + 1]` are part `t`'s ranks; empty or starting
    /// at 0.
    bounds: Vec<usize>,
    /// Each part's end in the core index space of the excess `folded`;
    /// stale when `folded` is 0 (an unfolded step reads `bounds[1..]`).
    folded_ends: Vec<usize>,
    folded: usize,
    /// The narrow XOR steps' closed form for the fold `levels_for`.
    levels: XorLevels,
    levels_for: Option<usize>,
}

impl RankParts {
    /// Drop every part.
    pub fn clear(&mut self) {
        self.bounds.clear();
        self.folded = 0;
        self.levels_for = None;
    }

    /// Append a part of `ranks > 0` ranks.
    pub fn push(&mut self, ranks: usize) {
        debug_assert!(ranks > 0, "parts are non-empty");
        let start = self.ranks();
        if self.bounds.is_empty() {
            self.bounds.push(0);
        }
        self.bounds.push(start + ranks);
        self.folded = 0;
        self.levels_for = None;
    }

    /// The ranks the parts hold together.
    pub fn ranks(&self) -> usize {
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Each part's end in the index space of a step folded by `excess`.
    /// The fold's index → rank map is monotone, so part `t` is an index
    /// interval too, ending where the ranks below `bounds[t + 1]` do:
    /// every second rank below `2 · excess`, every rank above. (A part of
    /// one even rank below the fold is left no index: its end repeats the
    /// previous one.)
    fn ends(&mut self, excess: usize) -> &[usize] {
        debug_assert!(self.bounds.len() >= 2, "a sweep needs a part");
        if excess == 0 {
            return &self.bounds[1..];
        }
        if self.folded != excess {
            let fold = |b: usize| if b <= 2 * excess { b / 2 } else { b - excess };
            self.folded_ends.clear();
            self.folded_ends
                .extend(self.bounds[1..].iter().map(|&b| fold(b)));
            self.folded = excess;
        }
        &self.folded_ends
    }

    /// The narrow XOR steps' levels under fold `excess`, computed once per
    /// excess like the folded ends they read.
    fn xor_levels(&mut self, excess: usize) -> &XorLevels {
        if self.levels_for != Some(excess) {
            self.ends(excess);
            let ends = if excess == 0 {
                &self.bounds[1..]
            } else {
                &self.folded_ends
            };
            self.levels.fill(ends, excess);
            self.levels_for = Some(excess);
        }
        &self.levels
    }
}

/// The part holding index `x`, at or after part `from`, stepping one part
/// at a time — for cursors that cross each part once in a whole sweep.
fn step_to(ends: &[usize], x: usize, mut from: usize) -> usize {
    while ends[from] <= x {
        from += 1;
    }
    from
}

/// The part holding index `x`, at or after part `from`, by galloping, then
/// bisection: the answer is nearly always `from` or a near neighbour, but a
/// segment that starts over from part 0 may have far to go.
fn gallop_to(ends: &[usize], x: usize, from: usize) -> usize {
    let last = ends.len() - 1;
    let (mut lo, mut reach) = (from, 1);
    while lo + reach <= last && ends[lo + reach - 1] <= x {
        lo += reach;
        reach *= 2;
    }
    let mut hi = (lo + reach - 1).min(last);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if ends[mid] <= x {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Report the part pairs of one segment's runs over the parts ending at
/// `ends` (index space), moving both cursors forward with `seek`.
fn sweep_segment(
    seg: Segment,
    ends: &[usize],
    seek: impl Fn(&[usize], usize, usize) -> usize,
    emit: &mut impl FnMut(usize, usize),
) {
    let (mut a, mut b) = (0, 0);
    let mut q = 0;
    while q < seg.reps {
        let (lo, hi) = (seg.lo + q * seg.period, seg.hi + q * seg.period);
        a = seek(ends, lo, a);
        let reach = ends[a];
        if hi + seg.len <= reach {
            emit(a, a);
            q += (reach - hi - seg.len) / seg.period + 1;
            continue;
        }
        b = seek(ends, hi, b.max(a));
        // Walk both sides of the run at once; `left_*` is how far into the
        // run each side's current part reaches.
        let (mut left_a, mut left_b) = (reach - lo, ends[b] - hi);
        loop {
            emit(a, b);
            let j = left_a.min(left_b);
            if j >= seg.len {
                break;
            }
            while left_a <= j {
                a += 1;
                left_a = ends[a] - lo;
            }
            while left_b <= j {
                b += 1;
                left_b = ends[b] - hi;
            }
        }
        q += 1;
    }
}

/// A collective operation: the algorithm family plus the base message size.
///
/// `msize` follows the convention of each algorithm's standard description:
/// for RD (allreduce) it is the full vector exchanged every step; for RHVD
/// and Ring it is the *total* vector being assembled (per-step payloads are
/// derived fractions); for Binomial it is the broadcast payload; for
/// Stencil2D it is the per-neighbour halo size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CollectiveSpec {
    /// Algorithm family.
    pub pattern: Pattern,
    /// Base message size in bytes (see type-level docs for the convention).
    pub msize: u64,
}

impl CollectiveSpec {
    /// Create a spec. `msize` must be positive.
    pub fn new(pattern: Pattern, msize: u64) -> Self {
        assert!(msize > 0, "message size must be positive");
        CollectiveSpec { pattern, msize }
    }

    /// Number of steps this collective takes over `ranks` processes, without
    /// materializing the schedule.
    pub fn num_steps(&self, ranks: usize) -> usize {
        if ranks <= 1 {
            return 0;
        }
        let log = floor_log2(ranks);
        let pow2 = ranks.is_power_of_two();
        let extra = usize::from(!pow2);
        match self.pattern {
            // pre-step + log2 core steps + post-step
            Pattern::Rd => log + 2 * extra,
            Pattern::Rhvd => log + 2 * extra,
            Pattern::Binomial => log + extra,
            Pattern::Ring => ranks - 1,
            Pattern::Stencil2D => 4,
            Pattern::Alltoall => ranks - 1,
        }
    }

    /// The schedule for `ranks` processes, one description per step, in
    /// step order — the single generator behind [`Self::steps`],
    /// [`Self::total_bytes`] and the placement evaluator. Empty for fewer
    /// than two ranks.
    pub fn step_segments(&self, ranks: usize) -> impl Iterator<Item = StepSegments> {
        let spec = *self;
        (0..self.num_steps(ranks)).map(move |s| spec.step_at(ranks, s))
    }

    /// Generate the full schedule for `ranks` processes.
    ///
    /// Returns an empty schedule for fewer than two ranks.
    pub fn steps(&self, ranks: usize) -> Vec<Step> {
        self.step_segments(ranks).map(|s| s.expand()).collect()
    }

    /// Total bytes moved by the whole collective (all pairs, all steps).
    pub fn total_bytes(&self, ranks: usize) -> u64 {
        self.step_segments(ranks)
            .map(|s| s.msize * s.num_pairs() as u64)
            .sum()
    }

    /// Step `s` of the `num_steps(p)` over `p >= 2` ranks. Inlined into
    /// each caller's step loop: an Eq. 6 evaluation of a few takes spends
    /// more on calling it than on pricing its narrow steps.
    #[inline]
    fn step_at(&self, p: usize, s: usize) -> StepSegments {
        let msize = self.msize;
        match self.pattern {
            // Recursive doubling, and recursive halving with vector
            // doubling — the allgather formulation the paper's name
            // describes literally. Both run `log2` XOR-partner steps over a
            // power-of-two core: RD at distances `1, 2, 4, …` with the full
            // vector every step; RHVD at distances that *halve* from
            // `cores / 2` while the payload *doubles* from `msize / cores`
            // as the gathered vector grows.
            //
            // RHVD is the schedule behind the paper's §6.1 observation that
            // "the first half of the nodes do not communicate with the
            // second half after the first step": only step 0 crosses the
            // halves, and it carries the *smallest* payload — which is
            // precisely why power-of-two balanced allocations keep the
            // heavy traffic intra-switch.
            //
            // Other rank counts take the MPICH fold onto a `2^⌊log2 p⌋`
            // core: the first `2 · excess` ranks pair up `(even, even + 1)`
            // in a pre-step (for RHVD the excess ranks' block moves into
            // the core), the evens sit the core phase out, and a mirror
            // post-step hands the result (the fully gathered vector) back.
            Pattern::Rd | Pattern::Rhvd => {
                let log = floor_log2(p);
                let cores = 1usize << log;
                let excess = p - cores;
                let halving = self.pattern == Pattern::Rhvd;
                let block = (msize / cores as u64).max(1);
                if excess > 0 && (s == 0 || s == log + 1) {
                    let bytes = if halving && s == 0 { block } else { msize };
                    let fold = Segment {
                        lo: 0,
                        hi: 1,
                        len: 1,
                        period: 2,
                        reps: excess,
                    };
                    return StepSegments::over_ranks(bytes, Shape::One(fold));
                }
                let k = s - usize::from(excess > 0);
                let (dist, bytes) = if halving {
                    (cores >> (k + 1), block << k)
                } else {
                    (1 << k, msize)
                };
                StepSegments {
                    msize: bytes,
                    excess,
                    shape: Shape::Xor { k: dist, n: cores },
                }
            }
            // Binomial tree broadcast: in step `s`, ranks `i < 2^s` send
            // the full payload to `i + 2^s` (when that rank exists).
            // Non-powers of two need no fold — the tree just has a ragged
            // last level.
            Pattern::Binomial => {
                let dist = 1usize << s;
                let tree = Segment::run(0, dist, dist.min(p - dist));
                StepSegments::over_ranks(msize, Shape::One(tree))
            }
            // Ring allgather: `p - 1` steps; every rank sends `msize / p`
            // to its right neighbour each step.
            Pattern::Ring => {
                StepSegments::over_ranks((msize / p as u64).max(1), Shape::Shift { k: 1, p })
            }
            // Pairwise-exchange all-to-all: `p - 1` steps; in step `k`,
            // rank `i` swaps one `msize / p` block with partner `i XOR k`
            // when `p` is a power of two (a perfect pairing), or sends to
            // `(i + k) mod p` otherwise (the classic non-power-of-two
            // fallback, where send and receive partners differ).
            Pattern::Alltoall => {
                let (k, block) = (s + 1, (msize / p as u64).max(1));
                let shape = if p.is_power_of_two() {
                    Shape::Xor { k, n: p }
                } else {
                    Shape::Shift { k, p }
                };
                StepSegments::over_ranks(block, shape)
            }
            // Five-point stencil halo exchange on a near-square
            // `rows x cols` grid (row-major ranks), each pair exchanging
            // the halo payload: horizontal exchanges in two waves so a rank
            // talks to one partner per step (even-odd column pairing), then
            // vertical likewise — rows `parity, parity + 2, …` with the row
            // below, which in rank order is whole rows shifted by `cols`.
            Pattern::Stencil2D => {
                let (rows, cols) = near_square_grid(p);
                let parity = s % 2;
                let shape = if s < 2 {
                    Shape::Rows { rows, cols, parity }
                } else {
                    let lo = parity * cols;
                    Shape::One(Segment {
                        lo,
                        hi: lo + cols,
                        len: cols,
                        period: 2 * cols,
                        reps: (rows - parity) / 2,
                    })
                };
                StepSegments::over_ranks(msize, shape)
            }
        }
    }
}

fn floor_log2(p: usize) -> usize {
    debug_assert!(p >= 1);
    (usize::BITS - 1 - p.leading_zeros()) as usize
}

/// Factor `p` into the most square `rows x cols == p` grid with
/// `rows <= cols`.
fn near_square_grid(p: usize) -> (usize, usize) {
    let mut best = (1, p);
    let mut r = (p as f64).sqrt() as usize;
    while r >= 1 {
        if p.is_multiple_of(r) {
            best = (r, p / r);
            break;
        }
        r -= 1;
    }
    best
}
