//! Dominance-pruned exact power DP — an optimization beyond the paper.
//!
//! The §4.3 algorithm keys its tables by the full state vector
//! `(n₁…n_M, e₁₁…e_MM)`, which is what drives the `O(N^{2M²+2M+1})` bound.
//! But observe that both objectives are *additive per server* with
//! coefficients that depend only on the server's (origin, assigned mode):
//!
//! * power: `P_static + W_m^α` per server (Eq. 3 term by term);
//! * cost: Eq. 4 regroups as
//!   `Σᵢ deleteᵢ·Eᵢ + Σ_new (1 + create_m) + Σ_reused (1 + changed_om − delete_o)`
//!   — a global constant plus one additive weight per placed server.
//!
//! Hence a subtree's influence on any completion is fully captured by the
//! triple **(traversing flow, partial cost, partial power)**, and a triple
//! that is component-wise dominated can never beat its dominator under any
//! budget: every table can be pruned to its 3-D Pareto front. The state
//! *vector* disappears entirely; what remains is exactly the information
//! the root scan needs. On paper-sized instances this shrinks tables by an
//! order of magnitude and more (see the `ablation` bench), while the
//! returned optima are bit-equal to [`dp_power`](crate::dp_power) — the
//! test suite and the oracle enforce this.
//!
//! The forward pass caches each fold's prefixes: the accumulated table
//! before every child merge. The backtrack walks each fold backwards
//! over exactly those operands, so it matches partial costs/powers with
//! exact `f64` equality and never re-merges. The prefixes belong to the
//! run and are dropped with it.
//!
//! ## Hot path
//!
//! The forward pass iterates the [`FlatTree`] post-order layout (one dense
//! scan, children as position windows). The layout, the per-position
//! tables, the merge kernel's buffers and the flattened weight arrays live
//! in a [`PrunedScratch`] that [`PrunedPowerDp::run_in`] borrows and
//! [`PrunedPowerDp::recycle`] returns, so fleet batches reuse them across
//! solves; only the fold prefixes are allocated per run. The batch and the
//! incremental solver share one forward step (`compute_position`) and
//! one backtrack (`backtrack`). Results are bit-identical to the
//! pre-flat pointer traversal ([`crate::reference::pruned_solve`] pins
//! this).
//!
//! Nearly all of the time goes into merging a child's table into the fold
//! (`merge_into`). Most merges are tiny and take the direct path: one sort
//! and sweep of every candidate. The large merges near the root take the
//! flow-grouped staircase kernel instead, which builds each output flow's
//! front from already-sorted rows and sorts only the survivors. On a
//! 10⁵-node α = 1 tree (2-core x86 container, 64 single-delta epochs of
//! `IncrementalDp`), an epoch folds ~27 merges along the root path and
//! enumerates ~967k candidate pairs, of which 7,979 survive. The kernel
//! drops all but ~338k at generation, and the epoch's merges take
//! ~7.5 ms of ~9.7 ms. The sort-and-prune kernel it replaced pushed ~317k
//! candidates into sorts and spent ~40 ms of a ~43 ms epoch merging.

use replica_model::{le_tolerant, Instance, ModeIdx, ModeSet, ModelError, Placement};
use replica_tree::FlatTree;

/// One table entry: everything a completion needs to know about a subtree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Triple {
    /// Requests traversing the subtree root upward.
    pub flow: u64,
    /// Additive cost of the servers placed inside (excluding the global
    /// deletion constant).
    pub cost: f64,
    /// Additive power of the servers placed inside.
    pub power: f64,
}

/// A feasible aggregate solution at the root.
#[derive(Clone, Copy, Debug)]
pub struct PrunedCandidate {
    /// Table triple this candidate extends.
    pub triple: Triple,
    /// Mode of a replica placed at the root, if any.
    pub root_mode: Option<ModeIdx>,
    /// Full Eq. 4 cost (deletion constant included).
    pub cost: f64,
    /// Full Eq. 3 power.
    pub power: f64,
}

/// Reusable working memory for [`PrunedPowerDp::run_in`].
///
/// Holds the flat layout, the per-position Pareto tables, the merge/prune
/// buffers, and the flattened per-(position, mode) weight arrays. After
/// one solve has grown them, later solves of same-sized trees reuse them.
/// [`crate::incremental::IncrementalDp`] embeds one as its live state.
#[derive(Default)]
pub struct PrunedScratch {
    pub(crate) flat: FlatTree,
    /// `tables[p]`: the Pareto table of position `p`.
    pub(crate) tables: Vec<Vec<Triple>>,
    pub(crate) merge: MergeScratch,
    /// `wcost[p * m + mode]`: additive cost of a server at position `p`.
    pub(crate) wcost: Vec<f64>,
    /// `wpower[mode]`: additive power of a server at `mode`.
    pub(crate) wpower: Vec<f64>,
}

/// The read-only inputs every forward-pass and backtrack step shares:
/// the instance, its flat layout, and the flattened server weights.
#[derive(Clone, Copy)]
pub(crate) struct DpView<'a> {
    pub(crate) instance: &'a Instance,
    pub(crate) flat: &'a FlatTree,
    /// `wcost[p * m + mode]`: additive cost of a server at position `p`.
    pub(crate) wcost: &'a [f64],
    /// `wpower[mode]`: additive power of a server at `mode`.
    pub(crate) wpower: &'a [f64],
}

impl PrunedScratch {
    /// Runs the full forward pass and the root scan for `instance`:
    /// rebuilds the layout and the weights, folds every position
    /// bottom-up (filling `tables` and the run's fold prefixes `prefix`,
    /// see [`compute_position`]), then scans the root table into
    /// `candidates`.
    pub(crate) fn forward(
        &mut self,
        instance: &Instance,
        prefix: &mut Vec<Vec<Triple>>,
        candidates: &mut Vec<PrunedCandidate>,
    ) {
        self.flat.rebuild(instance.tree());
        fill_weights(instance, &self.flat, &mut self.wcost, &mut self.wpower);
        let n = self.flat.len();
        // Every slot is overwritten below (the root's prefix slot is
        // never read), so only the lengths need resetting.
        self.tables.resize_with(n, Vec::new);
        prefix.resize_with(n, Vec::new);
        let view = DpView {
            instance,
            flat: &self.flat,
            wcost: &self.wcost,
            wpower: &self.wpower,
        };
        for p in self.flat.positions() {
            compute_position(&view, p, 0, &mut self.tables, prefix, &mut self.merge);
        }
        let root_table = &self.tables[self.flat.root_position()];
        scan_root(&view, root_table, deletion_constant(instance), candidates);
    }
}

/// A completed pruned-DP run.
pub struct PrunedPowerDp<'a> {
    instance: &'a Instance,
    scratch: PrunedScratch,
    /// The run's fold prefixes (see [`compute_position`]). They are the
    /// backtrack's input and are dropped with the run, not kept in the
    /// arena.
    prefix: Vec<Vec<Triple>>,
    candidates: Vec<PrunedCandidate>,
}

/// Fills the flattened per-server additive weights (position-indexed).
fn fill_weights(instance: &Instance, flat: &FlatTree, wcost: &mut Vec<f64>, wpower: &mut Vec<f64>) {
    let modes = instance.modes();
    let cost_model = instance.cost();
    let pre = instance.pre_existing();
    let m = modes.count();
    wpower.clear();
    wpower.extend(
        modes
            .indices()
            .map(|mode| instance.power().server_power(modes, mode)),
    );
    wcost.clear();
    wcost.reserve(flat.len() * m);
    for p in flat.positions() {
        let node = flat.node_at(p);
        for mode in modes.indices() {
            wcost.push(match pre.mode_of(node) {
                // Reusing cancels the deletion this server would have paid
                // inside the global constant.
                Some(o) => cost_model.reused_server(o, mode) - cost_model.deleted_server(o),
                None => cost_model.new_server(mode),
            });
        }
    }
}

/// Flow ceiling up to which the merge groups entries by flow (the
/// staircase kernel, and [`prune_into`]'s O(1) bucketed dominance test);
/// larger capacities fall back to the direct path's front scan.
const MAX_FLOW_BUCKETS: u64 = 4096;

/// Merges whose `left × child` product is at most this many pairs take
/// the direct path: on the many tiny merges of a wide tree, one sort of a
/// few hundred candidates beats the staircase kernel's per-flow setup.
const DIRECT_MAX_PAIRS: usize = 256;

/// Writes the 3-D Pareto front (minimal flow/cost/power) of `entries` to
/// `kept`, sorted by `(cost, power, flow)`; `minpow` is the bucket
/// buffer. `wmax` is the instance's flow ceiling — every entry's flow is
/// ≤ `wmax` by construction (infeasible combinations are never pushed).
fn prune_into(entries: &mut [Triple], kept: &mut Vec<Triple>, minpow: &mut Vec<f64>, wmax: u64) {
    // Unstable sort is safe: comparator-equal triples are bit-identical
    // (total_cmp is a total order on the raw representation), so any
    // permutation of an equal run yields the same sequence.
    entries.sort_unstable_by(cost_power_flow);
    kept.clear();
    // Everything already kept has cost ≤ e.cost (sort order), so e is
    // dominated iff some kept entry also has power ≤ and flow ≤.
    if wmax <= MAX_FLOW_BUCKETS {
        // minpow[f] = min power over kept entries with flow ≤ f. It is
        // non-increasing in f, so the membership test collapses to one
        // lookup and inserts stop updating at the first already-lower
        // slot.
        minpow.clear();
        minpow.resize(wmax as usize + 1, f64::INFINITY);
        for &e in entries.iter() {
            if minpow[e.flow as usize] <= e.power {
                continue;
            }
            kept.push(e);
            for slot in &mut minpow[e.flow as usize..] {
                if *slot > e.power {
                    *slot = e.power;
                } else {
                    break;
                }
            }
        }
    } else {
        for &e in entries.iter() {
            if !kept.iter().any(|k| k.power <= e.power && k.flow <= e.flow) {
                kept.push(e);
            }
        }
    }
}

/// The table order: `(cost, power, flow)` under `total_cmp`. The
/// backtrack's first-match search depends on it.
fn cost_power_flow(a: &Triple, b: &Triple) -> std::cmp::Ordering {
    a.cost
        .total_cmp(&b.cost)
        .then(a.power.total_cmp(&b.power))
        .then(a.flow.cmp(&b.flow))
}

/// The direct path's candidates are compacted whenever they outgrow this
/// floor (or four times their last Pareto front, whichever is larger):
/// the buffer and every sort stay proportional to the front, not to the
/// full `left × child` product.
const COMPACT_FLOOR: usize = 8 * 1024;

/// One point of a 2-D `(cost, power)` staircase.
#[derive(Clone, Copy, Default)]
struct Step {
    cost: f64,
    power: f64,
}

/// Appends `s` to the staircase `buf[from..]`, whose points arrive in
/// non-decreasing cost order, keeping it strict: cost ascending, power
/// strictly descending.
///
/// The last point has the lowest power of every kept point, and all of
/// them cost no more than `s`, so `s` is dominated iff the last point's
/// power is ≤. Otherwise `s` dominates only a last point of *equal*
/// cost, which it replaces — distinct addends can round to the same sum,
/// so a row of strictly ascending inputs can still produce such a run.
#[inline]
fn push_step(buf: &mut Vec<Step>, from: usize, s: Step) {
    if buf.len() > from {
        let last = buf.last_mut().expect("non-empty");
        if last.power <= s.power {
            return;
        }
        #[allow(clippy::float_cmp)] // collapsing bit-equal rounded sums
        if last.cost == s.cost {
            *last = s;
            return;
        }
    }
    buf.push(s);
}

/// Appends the 2-D front of two staircases to `out` (one linear merge).
fn merge_steps(a: &[Step], b: &[Step], out: &mut Vec<Step>) {
    let from = out.len();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let s = if (a[i].cost, a[i].power) <= (b[j].cost, b[j].power) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        push_step(out, from, s);
    }
    for &s in a[i..].iter().chain(&b[j..]) {
        push_step(out, from, s);
    }
}

/// A bucketed lower bound on a staircase's power floor, for dropping
/// dominated row points before they are merged.
///
/// Buckets split the staircase's cost span evenly, and `floor[b]` is the
/// least power of the points in buckets *below* `b`. A cost's bucket
/// never decreases as the cost grows — however the arithmetic rounds —
/// so each of those points costs less than anything in bucket `b`: a
/// point `(c, p)` with `p ≥ floor[bucket(c)]` is dominated. The test is
/// one lookup and never wrong; the points it misses (a dominator in the
/// same bucket) are left to the exact filter.
#[derive(Default)]
struct BucketFloor {
    base: f64,
    scale: f64,
    floor: Vec<f64>,
}

impl BucketFloor {
    fn rebuild(&mut self, stair: &[Step]) {
        self.floor.clear();
        let buckets = (4 * stair.len()).clamp(64, 4096);
        self.floor.resize(buckets + 1, f64::INFINITY);
        let (Some(first), Some(last)) = (stair.first(), stair.last()) else {
            return;
        };
        let span = last.cost - first.cost;
        self.base = first.cost;
        // The last point lands in bucket `buckets - 1`, so costs past it
        // reach the final bucket, whose floor includes it.
        self.scale = if span > 0.0 {
            (buckets - 1) as f64 / span
        } else {
            0.0
        };
        for step in stair {
            let above = self.bucket(step.cost) + 1;
            if let Some(slot) = self.floor.get_mut(above) {
                *slot = slot.min(step.power);
            }
        }
        for b in 1..self.floor.len() {
            self.floor[b] = self.floor[b].min(self.floor[b - 1]);
        }
    }

    #[inline]
    fn bucket(&self, cost: f64) -> usize {
        // `as` saturates (negative to 0), so this never decreases in cost.
        (((cost - self.base) * self.scale) as usize).min(self.floor.len() - 1)
    }

    #[inline]
    fn dominates(&self, s: Step) -> bool {
        self.floor[self.bucket(s.cost)] <= s.power
    }
}

/// Reusable working memory for [`merge_into`]: the output buffer plus
/// everything either merge path needs. One instance serves a whole
/// forward pass; after the first large merge has grown the buffers
/// nothing allocates.
#[derive(Default)]
pub(crate) struct MergeScratch {
    /// The merged table (each [`merge_into`] call overwrites it).
    pub(crate) out: Vec<Triple>,
    /// The direct path's candidates, and [`prune_into`]'s bucket buffer.
    /// Candidates never leave the scratch, so the tables that `out` is
    /// swapped into stay front-sized.
    candidates: Vec<Triple>,
    minpow: Vec<f64>,
    /// `left` and `child` counting-sorted by flow: flow group `f` is
    /// `left_by_flow[left_at[f]..left_at[f + 1]]` (likewise for `child`).
    left_by_flow: Vec<Step>,
    left_at: Vec<usize>,
    child_by_flow: Vec<Step>,
    child_at: Vec<usize>,
    cursor: Vec<usize>,
    /// Per mode, the staircase of child entries it can serve (see
    /// [`served_staircases`]); both paths use it.
    served: Vec<Step>,
    served_at: Vec<usize>,
    /// The current output flow's rows (`row_ends[r]` closes row `r`),
    /// and the tournament's second buffer (which ends up holding the
    /// flow's survivors).
    rows: Vec<Step>,
    row_ends: Vec<usize>,
    rows_next: Vec<Step>,
    row_ends_next: Vec<usize>,
    /// The running staircase of kept lower-flow entries, its bucketed
    /// floor, and its rebuild buffer.
    lower: Vec<Step>,
    lower_floor: BucketFloor,
    lower_next: Vec<Step>,
}

/// Fills `served[served_at[mode]..served_at[mode + 1]]` with the
/// `(cost, power)` staircase of the child entries `mode` can serve.
///
/// A served candidate's weights depend only on the mode, so a child
/// entry that another one dominates in cost and power can never yield a
/// front entry through that mode. `child` is in cost order already.
fn served_staircases(
    modes: &ModeSet,
    child: &[Triple],
    served: &mut Vec<Step>,
    served_at: &mut Vec<usize>,
) {
    served.clear();
    served_at.clear();
    for mode in 0..modes.count() {
        let from = served.len();
        served_at.push(from);
        for c in child.iter().filter(|c| modes.fits(mode, c.flow)) {
            let step = Step {
                cost: c.cost,
                power: c.power,
            };
            push_step(served, from, step);
        }
    }
    served_at.push(served.len());
}

/// Counting-sorts `src` by flow (stable, so each group keeps `src`'s cost
/// order) into `dst`, with group `f` at `dst[at[f]..at[f + 1]]`.
fn group_by_flow(
    src: &[Triple],
    w: usize,
    dst: &mut Vec<Step>,
    at: &mut Vec<usize>,
    cursor: &mut Vec<usize>,
) {
    at.clear();
    at.resize(w + 2, 0);
    for t in src {
        at[t.flow as usize + 1] += 1;
    }
    for f in 0..=w {
        at[f + 1] += at[f];
    }
    cursor.clone_from(at);
    dst.clear();
    dst.resize(src.len(), Step::default());
    for t in src {
        let slot = &mut cursor[t.flow as usize];
        dst[*slot] = Step {
            cost: t.cost,
            power: t.power,
        };
        *slot += 1;
    }
}

/// One merge step: folds `child` (the table of the child at `child_pos`)
/// into the accumulated table `left`, leaving the 3-D Pareto front of
/// every combination in `scratch.out`, sorted by `(cost, power, flow)`.
///
/// A combination either sends the child's flow upward (`l + c`, if the
/// sum fits the flow ceiling) or places a replica at the child in a mode
/// that can serve it (`(l + c) + w`, keeping `l`'s flow). The front is a
/// pure function of that candidate *set*, and both paths below produce
/// it with the same sums in the same association order, so they are
/// bit-identical (`staircase_kernel_matches_direct_path` pins this). The
/// staircase kernel compares with `<` and `==` where [`prune_into`] sorts
/// with `total_cmp`; the two agree because no table value is NaN or
/// `-0.0` (validated models keep every weight finite, and every entry is
/// a sum seeded with `+0.0`).
///
/// Large merges take [`merge_staircase`]; tiny ones, and flow ceilings
/// above [`MAX_FLOW_BUCKETS`], take [`merge_direct`].
pub(crate) fn merge_into(
    view: &DpView<'_>,
    child_pos: usize,
    left: &[Triple],
    child: &[Triple],
    scratch: &mut MergeScratch,
) {
    let modes = view.instance.modes();
    let m = modes.count();
    let wcost = &view.wcost[child_pos * m..(child_pos + 1) * m];
    if modes.max_capacity() > MAX_FLOW_BUCKETS || left.len() * child.len() <= DIRECT_MAX_PAIRS {
        merge_direct(modes, wcost, view.wpower, left, child, scratch);
    } else {
        merge_staircase(modes, wcost, view.wpower, left, child, scratch);
    }
}

/// The direct path (and the staircase kernel's test oracle): enumerate
/// every feasible pair and served candidate, then [`prune_into`] once.
/// `wcost[mode]` and `wpower[mode]` are the child's server weights.
/// Served candidates come from [`served_staircases`] only, which keeps
/// the candidate count near the pair count on tiny merges.
///
/// Only at flow ceilings above [`MAX_FLOW_BUCKETS`] can the product be
/// large, so only there does the [`COMPACT_FLOOR`] compaction fire.
fn merge_direct(
    modes: &ModeSet,
    wcost: &[f64],
    wpower: &[f64],
    left: &[Triple],
    child: &[Triple],
    scratch: &mut MergeScratch,
) {
    let wmax = modes.max_capacity();
    let m = modes.count();
    served_staircases(modes, child, &mut scratch.served, &mut scratch.served_at);
    let candidates = &mut scratch.candidates;
    candidates.clear();
    let mut compact_at = COMPACT_FLOOR;
    for l in left {
        for c in child.iter().filter(|c| l.flow + c.flow <= wmax) {
            candidates.push(Triple {
                flow: l.flow + c.flow,
                cost: l.cost + c.cost,
                power: l.power + c.power,
            });
        }
        for mode in 0..m {
            for c in &scratch.served[scratch.served_at[mode]..scratch.served_at[mode + 1]] {
                // (l + c) + w, as the staircase kernel sums it.
                candidates.push(Triple {
                    flow: l.flow,
                    cost: l.cost + c.cost + wcost[mode],
                    power: l.power + c.power + wpower[mode],
                });
            }
        }
        if candidates.len() >= compact_at {
            prune_into(candidates, &mut scratch.out, &mut scratch.minpow, wmax);
            candidates.clone_from(&scratch.out);
            compact_at = COMPACT_FLOOR.max(candidates.len() * 4);
        }
    }
    prune_into(candidates, &mut scratch.out, &mut scratch.minpow, wmax);
}

/// The flow-grouped staircase kernel: builds each output flow's front by
/// linear merges of already-sorted rows and sorts only the survivors.
///
/// Every flow group of a pruned table is a strict 2-D staircase (cost
/// ascending, power strictly descending), and a served candidate's
/// weights depend only on the mode, so per mode only the staircase of
/// the child entries it can serve matters. IEEE addition is monotone, so
/// adding one left entry to a child group — or one left entry plus a
/// mode's weights to that mode's served staircase — gives a *row* whose
/// cost never falls and whose power never rises. For each output flow
/// `f` ascending:
///
/// 1. rows: `l + C[f − fl]` for each left entry `l` of flow `fl ≤ f`, and
///    `(l + s) + w` per mode for each left entry of flow `f`, each
///    normalized to a strict staircase by [`push_step`] as it is
///    generated; a point the kept lower-flow entries (`lower`, itself a
///    staircase) dominate by [`BucketFloor`] is dropped on the spot;
/// 2. a tournament of pairwise [`merge_steps`] reduces the rows to flow
///    `f`'s 2-D front;
/// 3. one linear walk drops the front entries that `lower` dominates, and
///    the survivors join the output and are merged into `lower`.
///
/// Dropping a point that `lower` dominates early is safe: whatever it
/// would have dominated in step 2, `lower` dominates too. The survivors
/// are exactly the 3-D front's flow-`f` entries, with the sums
/// [`merge_direct`] computes; one final sort puts them in
/// [`prune_into`]'s order.
fn merge_staircase(
    modes: &ModeSet,
    wcost: &[f64],
    wpower: &[f64],
    left: &[Triple],
    child: &[Triple],
    s: &mut MergeScratch,
) {
    let w = modes.max_capacity() as usize;
    let m = modes.count();
    group_by_flow(left, w, &mut s.left_by_flow, &mut s.left_at, &mut s.cursor);
    group_by_flow(
        child,
        w,
        &mut s.child_by_flow,
        &mut s.child_at,
        &mut s.cursor,
    );

    served_staircases(modes, child, &mut s.served, &mut s.served_at);

    s.out.clear();
    s.lower.clear();
    s.lower_floor.rebuild(&s.lower);
    for f in 0..=w {
        s.rows.clear();
        s.row_ends.clear();
        for fl in 0..=f {
            let group = &s.child_by_flow[s.child_at[f - fl]..s.child_at[f - fl + 1]];
            if group.is_empty() {
                continue;
            }
            for l in &s.left_by_flow[s.left_at[fl]..s.left_at[fl + 1]] {
                let from = s.rows.len();
                for c in group {
                    let step = Step {
                        cost: l.cost + c.cost,
                        power: l.power + c.power,
                    };
                    if !s.lower_floor.dominates(step) {
                        push_step(&mut s.rows, from, step);
                    }
                }
                if s.rows.len() > from {
                    s.row_ends.push(s.rows.len());
                }
            }
        }
        for l in &s.left_by_flow[s.left_at[f]..s.left_at[f + 1]] {
            for mode in 0..m {
                let source = &s.served[s.served_at[mode]..s.served_at[mode + 1]];
                if source.is_empty() {
                    continue;
                }
                let from = s.rows.len();
                for c in source {
                    // Same association as the direct path: (l + c) + w.
                    let step = Step {
                        cost: l.cost + c.cost + wcost[mode],
                        power: l.power + c.power + wpower[mode],
                    };
                    if !s.lower_floor.dominates(step) {
                        push_step(&mut s.rows, from, step);
                    }
                }
                if s.rows.len() > from {
                    s.row_ends.push(s.rows.len());
                }
            }
        }
        if s.row_ends.is_empty() {
            continue;
        }

        while s.row_ends.len() > 1 {
            s.rows_next.clear();
            s.row_ends_next.clear();
            let mut start = 0;
            for pair in s.row_ends.chunks(2) {
                match *pair {
                    [mid, end] => {
                        merge_steps(&s.rows[start..mid], &s.rows[mid..end], &mut s.rows_next);
                        start = end;
                    }
                    [end] => {
                        s.rows_next.extend_from_slice(&s.rows[start..end]);
                        start = end;
                    }
                    _ => unreachable!("chunks of two"),
                }
                s.row_ends_next.push(s.rows_next.len());
            }
            std::mem::swap(&mut s.rows, &mut s.rows_next);
            std::mem::swap(&mut s.row_ends, &mut s.row_ends_next);
        }

        // `lower` has power strictly descending, so the last entry with
        // cost ≤ e.cost carries the least power that could dominate e.
        // The survivors land in the tournament's spare buffer.
        let survivors = &mut s.rows_next;
        survivors.clear();
        let mut k = 0;
        let mut floor = f64::INFINITY;
        for &e in &s.rows {
            while k < s.lower.len() && s.lower[k].cost <= e.cost {
                floor = s.lower[k].power;
                k += 1;
            }
            if e.power < floor {
                survivors.push(e);
            }
        }
        if survivors.is_empty() {
            continue;
        }
        s.out.extend(survivors.iter().map(|e| Triple {
            flow: f as u64,
            cost: e.cost,
            power: e.power,
        }));
        s.lower_next.clear();
        merge_steps(&s.lower, survivors, &mut s.lower_next);
        std::mem::swap(&mut s.lower, &mut s.lower_next);
        s.lower_floor.rebuild(&s.lower);
    }
    s.out.sort_unstable_by(cost_power_flow);
}

/// The global Eq. 4 deletion constant `Σᵢ deleteᵢ·Eᵢ`.
pub(crate) fn deletion_constant(instance: &Instance) -> f64 {
    instance
        .pre_existing()
        .iter()
        .map(|(_, orig)| instance.cost().deleted_server(orig))
        .sum()
}

/// THE forward-pass step: computes the Pareto table of position `p`
/// from its children's tables (which must already be current) into
/// `tables[p]`, caching the fold's prefixes.
///
/// The fold starts from the direct-load base and merges the children in
/// order. `prefix[c]` holds the accumulated table *before* child `c` is
/// merged into its parent's fold, so the base sits in the first child's
/// slot and the final merge lands in `tables[p]`; a leaf's table is the
/// base itself. `start` is the fold index of the first child whose table
/// changed since the last call here: the cached prefixes up to it are
/// reused verbatim and only the fold's suffix re-merges.
///
/// [`PrunedPowerDp::run_in`] calls this with `start = 0` for every
/// position, and the incremental solver
/// ([`crate::incremental::IncrementalDp`]) calls it for exactly the dirty
/// closure. A suffix re-merge runs the same [`merge_into`] calls on
/// bit-identical inputs that a full fold would reach, so the incremental
/// recompute is bit-identical to a from-scratch solve by construction.
/// The prefixes are also the backtrack's intermediate tables
/// ([`backtrack`]), so it never re-merges.
pub(crate) fn compute_position(
    view: &DpView<'_>,
    p: usize,
    start: usize,
    tables: &mut [Vec<Triple>],
    prefix: &mut [Vec<Triple>],
    scratch: &mut MergeScratch,
) {
    let children = view.flat.children(p);
    if start == 0 {
        let direct = view.flat.client_load(p);
        let base = match children.first() {
            Some(&first) => &mut prefix[first as usize],
            None => &mut tables[p],
        };
        base.clear();
        if direct <= view.instance.max_capacity() {
            base.push(Triple {
                flow: direct,
                cost: 0.0,
                power: 0.0,
            });
        }
    }
    for (k, &child) in children.iter().enumerate().skip(start) {
        let child = child as usize;
        if prefix[child].is_empty() {
            // An empty accumulator stays empty through every further
            // merge: clear the stale suffix so later suffix-only calls
            // see it too.
            for &later in &children[k + 1..] {
                prefix[later as usize].clear();
            }
            tables[p].clear();
            return;
        }
        merge_into(view, child, &prefix[child], &tables[child], scratch);
        // Copied, not swapped: a swap would hand each table the scratch
        // buffer's high-water capacity.
        match children.get(k + 1) {
            Some(&next) => prefix[next as usize].clone_from(&scratch.out),
            None => tables[p].clone_from(&scratch.out),
        }
    }
}

/// Scans the root table into the feasible candidate set (the no-replica
/// option for flow 0, plus every feasible root mode per entry).
pub(crate) fn scan_root(
    view: &DpView<'_>,
    root_table: &[Triple],
    delete_constant: f64,
    out: &mut Vec<PrunedCandidate>,
) {
    let modes = view.instance.modes();
    let m = modes.count();
    let root = view.flat.root_position();
    out.clear();
    for &t in root_table {
        if t.flow == 0 {
            out.push(PrunedCandidate {
                triple: t,
                root_mode: None,
                cost: t.cost + delete_constant,
                power: t.power,
            });
        }
        if let Some(first) = modes.mode_for_load(t.flow) {
            for mode in first..m {
                out.push(PrunedCandidate {
                    triple: t,
                    root_mode: Some(mode),
                    cost: t.cost + view.wcost[root * m + mode] + delete_constant,
                    power: t.power + view.wpower[mode],
                });
            }
        }
    }
}

/// Minimum-power candidate with cost within `cost_bound` (ties broken by
/// cost — deterministic because `total_cmp` is a total order).
pub(crate) fn best_candidate_within(
    candidates: &[PrunedCandidate],
    cost_bound: f64,
) -> Option<&PrunedCandidate> {
    candidates
        .iter()
        .filter(|c| le_tolerant(c.cost, cost_bound))
        .min_by(|a, b| a.power.total_cmp(&b.power).then(a.cost.total_cmp(&b.cost)))
}

/// Backtracks `candidate` into `placement` against the forward-pass
/// state: `tables` and the fold prefixes `prefix` of the same pass.
///
/// Each node's fold is walked backwards. The children's tables and the
/// cached prefixes are exactly the operands of the forward merges, so the
/// search matches partial costs and powers with exact `f64` equality.
///
/// `visit(p, target)` is called once per position the backtrack reaches,
/// with the exact [`Triple`] that subtree must produce. Returning `true`
/// asserts `placement` already holds the correct sub-placement for
/// `subtree(p)`, and the walk skips it entirely — the incremental
/// solver's reuse hook. This is sound because the backtrack below `p` is
/// a deterministic pure function of `(tables of subtree(p), target)`: if
/// neither changed since that sub-placement was produced, the decisions
/// are bit-for-bit the same. A `false` return expands `p`, *overwriting*
/// the seed: every child slot is explicitly set or cleared, so stale
/// servers cannot leak through an expanded region.
pub(crate) fn backtrack(
    view: &DpView<'_>,
    tables: &[Vec<Triple>],
    prefix: &[Vec<Triple>],
    candidate: &PrunedCandidate,
    placement: &mut Placement,
    visit: &mut dyn FnMut(usize, &Triple) -> bool,
) -> Result<(), ModelError> {
    let flat = view.flat;
    let root_node = flat.node_at(flat.root_position());
    match candidate.root_mode {
        Some(mode) => placement.insert(root_node, mode),
        None => {
            placement.remove(root_node);
        }
    }
    let modes = view.instance.modes();
    let wmax = view.instance.max_capacity();
    let m = modes.count();

    let mut work: Vec<(usize, Triple)> = vec![(flat.root_position(), candidate.triple)];
    while let Some((p, target)) = work.pop() {
        if visit(p, &target) {
            continue;
        }
        let children = flat.children(p);
        if children.is_empty() {
            debug_assert_eq!(target.flow, flat.client_load(p));
            continue;
        }
        let mut cur = target;
        for &child in children.iter().rev() {
            let left = &prefix[child as usize];
            let child_table = &tables[child as usize];
            let mut found = None;
            'search: for l in left {
                for c in child_table {
                    // Option a: no replica on the child.
                    #[allow(clippy::float_cmp)] // bit-reproducible sums
                    if l.flow + c.flow == cur.flow
                        && l.flow + c.flow <= wmax
                        && l.cost + c.cost == cur.cost
                        && l.power + c.power == cur.power
                    {
                        found = Some((*l, *c, None));
                        break 'search;
                    }
                    // Option b: replica at the child in some mode.
                    if l.flow == cur.flow {
                        if let Some(first) = modes.mode_for_load(c.flow) {
                            for mode in first..m {
                                #[allow(clippy::float_cmp)]
                                if l.cost + c.cost + view.wcost[child as usize * m + mode]
                                    == cur.cost
                                    && l.power + c.power + view.wpower[mode] == cur.power
                                {
                                    found = Some((*l, *c, Some(mode)));
                                    break 'search;
                                }
                            }
                        }
                    }
                }
            }
            let (l, c, server_mode) = found.ok_or_else(|| {
                let node = flat.node_at(p);
                ModelError::Infeasible(format!(
                    "internal error: no producer for pruned state at {node}"
                ))
            })?;
            match server_mode {
                Some(mode) => placement.insert(flat.node_at(child as usize), mode),
                None => {
                    placement.remove(flat.node_at(child as usize));
                }
            }
            work.push((child as usize, c));
            cur = l;
        }
    }
    Ok(())
}

impl<'a> PrunedPowerDp<'a> {
    /// Runs the forward pass and the root scan with one-shot scratch.
    pub fn run(instance: &'a Instance) -> Result<Self, ModelError> {
        Self::run_in(instance, &mut PrunedScratch::default())
    }

    /// Runs the forward pass and the root scan, borrowing `scratch`'s
    /// buffers. Hand them back with [`PrunedPowerDp::recycle`] once done
    /// (the error path returns them immediately).
    pub fn run_in(instance: &'a Instance, scratch: &mut PrunedScratch) -> Result<Self, ModelError> {
        let mut s = std::mem::take(scratch);
        let (mut prefix, mut candidates) = (Vec::new(), Vec::new());
        s.forward(instance, &mut prefix, &mut candidates);
        if candidates.is_empty() {
            *scratch = s;
            return Err(ModelError::Infeasible(
                "no feasible placement exists for this instance".into(),
            ));
        }
        Ok(PrunedPowerDp {
            instance,
            scratch: s,
            prefix,
            candidates,
        })
    }

    /// Returns the working memory to `scratch` for the next solve.
    pub fn recycle(self, scratch: &mut PrunedScratch) {
        *scratch = self.scratch;
    }

    /// All root candidates.
    pub fn candidates(&self) -> &[PrunedCandidate] {
        &self.candidates
    }

    /// Total entries across all node tables (the ablation metric).
    pub fn table_entries(&self) -> usize {
        self.scratch.tables.iter().map(Vec::len).sum()
    }

    /// Minimum-power candidate with cost within `cost_bound`.
    pub fn best_within(&self, cost_bound: f64) -> Option<&PrunedCandidate> {
        best_candidate_within(&self.candidates, cost_bound)
    }

    /// Raw `(cost, power)` pairs of every root candidate — the input to a
    /// budget-sweep frontier (see [`crate::frontier`]).
    pub fn cost_power_points(&self) -> Vec<(f64, f64)> {
        self.candidates.iter().map(|c| (c.cost, c.power)).collect()
    }

    /// The cost/power Pareto front (increasing cost, decreasing power,
    /// near-ties within `COST_EPSILON` collapsed).
    pub fn pareto_front(&self) -> Vec<(f64, f64)> {
        crate::frontier::pareto_filter(self.cost_power_points(), replica_model::COST_EPSILON)
    }

    /// Rebuilds a placement achieving `candidate` (bit-exact backtrack
    /// over the run's fold prefixes, see the module docs).
    pub fn reconstruct(&self, candidate: &PrunedCandidate) -> Result<Placement, ModelError> {
        let s = &self.scratch;
        let view = DpView {
            instance: self.instance,
            flat: &s.flat,
            wcost: &s.wcost,
            wpower: &s.wpower,
        };
        let mut placement = Placement::with_slots(s.flat.len());
        backtrack(
            &view,
            &s.tables,
            &self.prefix,
            candidate,
            &mut placement,
            &mut |_, _| false,
        )?;
        Ok(placement)
    }
}

/// Convenience: minimum power within a budget, via the pruned DP.
pub fn solve_min_power_bounded_cost(
    instance: &Instance,
    cost_bound: f64,
) -> Result<(Placement, f64, f64), ModelError> {
    solve_min_power_bounded_cost_in(instance, cost_bound, &mut PrunedScratch::default())
}

/// [`solve_min_power_bounded_cost`] with reusable working memory — the fleet
/// hot path (one [`PrunedScratch`] per thread; only the run's fold prefixes
/// are allocated per solve).
pub fn solve_min_power_bounded_cost_in(
    instance: &Instance,
    cost_bound: f64,
    scratch: &mut PrunedScratch,
) -> Result<(Placement, f64, f64), ModelError> {
    let dp = PrunedPowerDp::run_in(instance, scratch)?;
    let best = match dp.best_within(cost_bound) {
        Some(&b) => b,
        None => {
            dp.recycle(scratch);
            return Err(ModelError::Infeasible(format!(
                "no placement fits the cost bound {cost_bound}"
            )));
        }
    };
    let placement = dp.reconstruct(&best);
    dp.recycle(scratch);
    Ok((placement?, best.cost, best.power))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_power::PowerDp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use replica_model::{CostModel, ModeSet, PowerModel, PreExisting, Solution};
    use replica_tree::{generate, GeneratorConfig};

    /// Allocating [`prune_into`].
    fn prune(entries: &mut Vec<Triple>, wmax: u64) {
        let mut kept = Vec::new();
        prune_into(entries, &mut kept, &mut Vec::new(), wmax);
        *entries = kept;
    }

    /// A value on a coarse grid plus up to two ulps of jitter, so that
    /// sums of distinct addends round to the same `f64` (never `-0.0`,
    /// which no table can hold: every entry is a sum seeded with `+0.0`).
    fn jittered(rng: &mut StdRng, grid: std::ops::Range<i64>, step: f64) -> f64 {
        let mut x = rng.random_range(grid) as f64 * step;
        for _ in 0..rng.random_range(0..3) {
            x = if rng.random_bool(0.5) {
                x.next_up()
            } else {
                x.next_down()
            };
        }
        if x == 0.0 {
            0.0
        } else {
            x
        }
    }

    /// A random pruned table: flows `0..=wmax`, powers and costs (negative
    /// ones included) from grid-plus-jitter draws on `costs`.
    fn random_front(
        rng: &mut StdRng,
        wmax: u64,
        max_len: usize,
        costs: (std::ops::Range<i64>, f64),
    ) -> Vec<Triple> {
        let n = rng.random_range(1..=max_len);
        let mut entries: Vec<Triple> = Vec::with_capacity(n);
        for _ in 0..n {
            let entry = match entries.last() {
                // A twin one ulp dearer and cheaper in power: both stay
                // on the front, and most sums round them together.
                Some(&t) if rng.random_bool(0.3) => Triple {
                    cost: t.cost.next_up(),
                    power: t.power - 0.25,
                    ..t
                },
                _ => Triple {
                    flow: rng.random_range(0..=wmax),
                    cost: jittered(rng, costs.0.clone(), costs.1),
                    power: jittered(rng, 0..256, 0.25),
                },
            };
            entries.push(entry);
        }
        prune(&mut entries, wmax);
        entries
    }

    /// Every feasible pair and every served candidate, pruned: the merge
    /// by definition, with no collapse of the served sources.
    fn naive_merge(
        modes: &ModeSet,
        wcost: &[f64],
        wpower: &[f64],
        left: &[Triple],
        child: &[Triple],
    ) -> Vec<Triple> {
        let mut candidates = Vec::new();
        for l in left {
            for c in child {
                if l.flow + c.flow <= modes.max_capacity() {
                    candidates.push(Triple {
                        flow: l.flow + c.flow,
                        cost: l.cost + c.cost,
                        power: l.power + c.power,
                    });
                }
                if let Some(first) = modes.mode_for_load(c.flow) {
                    for mode in first..modes.count() {
                        candidates.push(Triple {
                            flow: l.flow,
                            cost: l.cost + c.cost + wcost[mode],
                            power: l.power + c.power + wpower[mode],
                        });
                    }
                }
            }
        }
        prune(&mut candidates, modes.max_capacity());
        candidates
    }

    /// `(flow, cost bits, power bits)` in table order.
    fn bits(table: &[Triple]) -> Vec<(u64, u64, u64)> {
        table
            .iter()
            .map(|t| (t.flow, t.cost.to_bits(), t.power.to_bits()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        #[test]
        fn staircase_kernel_matches_direct_path(seed in 0u64..1 << 62) {
            let mut rng = StdRng::seed_from_u64(seed);
            let wmax = rng.random_range(3..=12u64);
            let mut caps = vec![rng.random_range(1..wmax), wmax];
            if rng.random_bool(0.5) {
                let extra = rng.random_range(1..wmax);
                if !caps.contains(&extra) {
                    caps.push(extra);
                    caps.sort_unstable();
                }
            }
            let modes = ModeSet::new(caps).unwrap();
            let m = modes.count();
            // Reuse weights are negative (reuse cancels a deletion).
            let wcost: Vec<f64> = (0..m).map(|_| jittered(&mut rng, -50..50, 0.01)).collect();
            let wpower: Vec<f64> = (0..m).map(|_| jittered(&mut rng, 1..400, 0.25)).collect();
            // One long-lived scratch per path, and a chain of merges that
            // feeds each output back as the next left table, as a fold does.
            let (mut stair, mut direct) = (MergeScratch::default(), MergeScratch::default());
            // Few grid points, so a flow group often holds costs a few
            // ulps apart; the decimal grid also rounds on every sum.
            let costs = if rng.random_bool(0.5) {
                (-8..64, 0.125)
            } else {
                (13_900..14_000, 0.001)
            };
            // A one- or two-entry left table leaves most output flows
            // with a single row, whose normalization no merge repairs.
            let left_len = [1, 2, 40][rng.random_range(0..3usize)];
            let mut left = random_front(&mut rng, wmax, left_len, costs.clone());
            for step in 0..4 {
                let child = random_front(&mut rng, wmax, 60, costs.clone());
                merge_staircase(&modes, &wcost, &wpower, &left, &child, &mut stair);
                merge_direct(&modes, &wcost, &wpower, &left, &child, &mut direct);
                let naive = naive_merge(&modes, &wcost, &wpower, &left, &child);
                proptest::prop_assert_eq!(bits(&stair.out), bits(&naive), "merge {}", step);
                proptest::prop_assert_eq!(bits(&direct.out), bits(&naive), "merge {}", step);
                if stair.out.is_empty() {
                    break;
                }
                left = std::mem::take(&mut stair.out);
            }
        }
    }

    #[test]
    fn staircase_rows_collapse_equal_rounded_costs() {
        // Two distinct child costs that one left cost rounds together:
        // the row must keep only the lower power at that cost.
        let (x, c1) = (10.0f64, 3.973f64);
        let c0 = c1.next_down();
        assert_ne!(c0, c1);
        assert_eq!(x + c0, x + c1, "precondition: the sums collide");
        let modes = ModeSet::new(vec![2, 4]).unwrap();
        let (wcost, wpower) = ([0.5, -0.25], [3.0, 7.0]);
        let left = [Triple {
            flow: 0,
            cost: x,
            power: 1.0,
        }];
        let child = [
            Triple {
                flow: 1,
                cost: c0,
                power: 5.0,
            },
            Triple {
                flow: 1,
                cost: c1,
                power: 4.0,
            },
        ];
        let (mut stair, mut direct) = (MergeScratch::default(), MergeScratch::default());
        merge_staircase(&modes, &wcost, &wpower, &left, &child, &mut stair);
        merge_direct(&modes, &wcost, &wpower, &left, &child, &mut direct);
        let naive = naive_merge(&modes, &wcost, &wpower, &left, &child);
        assert_eq!(bits(&stair.out), bits(&naive));
        assert_eq!(bits(&direct.out), bits(&naive));
        let flow1: Vec<_> = stair.out.iter().filter(|t| t.flow == 1).collect();
        assert_eq!(flow1.len(), 1, "{flow1:?}");
        assert_eq!(flow1[0].power, 5.0);
    }

    fn random_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::random_tree(&GeneratorConfig::paper_power(nodes), &mut rng);
        let pre: PreExisting = generate::random_pre_existing(&tree, pre_count, &mut rng)
            .into_iter()
            .map(|n| (n, rng.random_range(0..2)))
            .collect();
        let modes = ModeSet::new(vec![5, 10]).unwrap();
        let power = PowerModel::paper_experiment3(&modes);
        Instance::builder(tree)
            .modes(modes)
            .pre_existing(pre)
            .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
            .power(power)
            .build()
            .unwrap()
    }

    #[test]
    fn prune_keeps_exact_pareto_front() {
        let mut entries = vec![
            Triple {
                flow: 5,
                cost: 2.0,
                power: 10.0,
            },
            Triple {
                flow: 5,
                cost: 2.0,
                power: 10.0,
            }, // duplicate
            Triple {
                flow: 6,
                cost: 2.0,
                power: 10.0,
            }, // dominated (flow)
            Triple {
                flow: 4,
                cost: 3.0,
                power: 12.0,
            }, // kept (best flow)
            Triple {
                flow: 5,
                cost: 1.0,
                power: 20.0,
            }, // kept (best cost)
            Triple {
                flow: 9,
                cost: 9.0,
                power: 9.0,
            }, // kept (best power)
            Triple {
                flow: 9,
                cost: 9.5,
                power: 9.0,
            }, // dominated (cost)
        ];
        // Exercise both dominance paths: the bucketed test and the scan.
        let mut scanned = entries.clone();
        prune(&mut entries, 10);
        prune(&mut scanned, MAX_FLOW_BUCKETS + 1);
        assert_eq!(entries, scanned);
        assert_eq!(entries.len(), 4);
        assert!(entries.contains(&Triple {
            flow: 5,
            cost: 2.0,
            power: 10.0
        }));
        assert!(entries.contains(&Triple {
            flow: 4,
            cost: 3.0,
            power: 12.0
        }));
        assert!(entries.contains(&Triple {
            flow: 5,
            cost: 1.0,
            power: 20.0
        }));
        assert!(entries.contains(&Triple {
            flow: 9,
            cost: 9.0,
            power: 9.0
        }));
    }

    #[test]
    fn matches_full_state_dp_across_budgets() {
        for seed in 0..12 {
            let inst = random_instance(seed, 25, 3);
            let full = PowerDp::run(&inst).unwrap();
            let pruned = PrunedPowerDp::run(&inst).unwrap();
            for bound in [10.0f64, 20.0, 30.0, 45.0, f64::INFINITY] {
                let f = full.best_within(bound).map(|c| (c.power, c.cost));
                let p = pruned.best_within(bound).map(|c| (c.power, c.cost));
                match (f, p) {
                    (Some((fp, fc)), Some((pp, pc))) => {
                        assert!(
                            (fp - pp).abs() < 1e-6,
                            "seed {seed} bound {bound}: power {fp} vs {pp}"
                        );
                        assert!(
                            (fc - pc).abs() < 1e-6,
                            "seed {seed} bound {bound}: cost {fc} vs {pc}"
                        );
                    }
                    (None, None) => {}
                    other => panic!("seed {seed} bound {bound}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pareto_fronts_induce_the_same_budget_function() {
        // Front *points* can merge differently when float sums land within
        // epsilon of each other, so compare the semantics instead: at every
        // cost that appears on either front, the best power within that
        // budget must agree.
        for seed in 20..26 {
            let inst = random_instance(seed, 20, 2);
            let full = PowerDp::run(&inst).unwrap();
            let pruned = PrunedPowerDp::run(&inst).unwrap();
            let mut probes: Vec<f64> = full
                .pareto_front()
                .into_iter()
                .chain(pruned.pareto_front())
                .map(|(c, _)| c)
                .collect();
            probes.push(f64::INFINITY);
            for bound in probes {
                let f = full
                    .best_within(bound)
                    .map(|c| c.power)
                    .expect("front point");
                let p = pruned
                    .best_within(bound)
                    .map(|c| c.power)
                    .expect("front point");
                assert!(
                    (f - p).abs() < 1e-6,
                    "seed {seed} bound {bound}: {f} vs {p}"
                );
            }
        }
    }

    #[test]
    fn reconstruction_reevaluates_exactly() {
        for seed in 30..36 {
            let inst = random_instance(seed, 25, 3);
            let dp = PrunedPowerDp::run(&inst).unwrap();
            for bound in [20.0, 35.0, f64::INFINITY] {
                if let Some(&best) = dp.best_within(bound) {
                    let placement = dp.reconstruct(&best).unwrap();
                    let sol = Solution::evaluate(&inst, &placement).unwrap();
                    assert!((sol.cost - best.cost).abs() < 1e-9, "seed {seed}");
                    assert!((sol.power - best.power).abs() < 1e-6, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn tables_are_much_smaller_than_state_space() {
        let inst = random_instance(99, 40, 5);
        let pruned = PrunedPowerDp::run(&inst).unwrap();
        // A 40-node instance has thousands of reachable state vectors; the
        // Pareto tables stay tiny.
        assert!(
            pruned.table_entries() < 40 * 200,
            "pruned tables unexpectedly large: {}",
            pruned.table_entries()
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch across different instances (growing and shrinking
        // trees) must reproduce the fresh-scratch pipeline exactly.
        let mut scratch = PrunedScratch::default();
        for (seed, nodes) in [(3u64, 30usize), (4, 12), (5, 45), (6, 8)] {
            let inst = random_instance(seed, nodes, 3);
            let fresh = solve_min_power_bounded_cost(&inst, 25.0);
            let reused = solve_min_power_bounded_cost_in(&inst, 25.0, &mut scratch);
            match (fresh, reused) {
                (Ok((fp, fc, fw)), Ok((rp, rc, rw))) => {
                    assert_eq!(fp, rp, "seed {seed}: placements diverge");
                    assert_eq!(fc.to_bits(), rc.to_bits(), "seed {seed}: cost bits");
                    assert_eq!(fw.to_bits(), rw.to_bits(), "seed {seed}: power bits");
                }
                (Err(_), Err(_)) => {}
                other => panic!("seed {seed}: {other:?}"),
            }
        }
    }
}
