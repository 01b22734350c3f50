//! Criticality-weighted timing context (the paper's critical-path focus).
//!
//! TILA's objective charges every segment's delay uniformly; CPLA
//! instead optimizes the *path* delay toward each net's critical sinks.
//! Under the Elmore model the weighted sum of sink delays decomposes
//! exactly over segments:
//!
//! ```text
//! Σ_k w_k · delay(sink k)
//!   = Σ_i W_i · R_i·(C_i/2 + Cd_i)          (own-resistance term)
//!   + Σ_i C_i · Σ_{j ∈ ancestors(i)} W_j·R_j (load-on-path term)
//!   + via terms
//! ```
//!
//! where `W_i = Σ_{sinks below i} w_k`. CPLA freezes `Cd`, the ancestor
//! resistances and the weights from the current assignment each round,
//! yielding per-segment linear costs `W_i·t_s(i, l) + A_i·C_i(l)` —
//! segments on critical paths chase low resistance, while branch
//! segments are steered to low-capacitance (lower) layers because their
//! wire load rides on the shared path resistance `A_i`. This is the
//! mechanism by which CPLA beats a uniform-sum objective on `Max(T_cp)`.
//!
//! [`timing_context_into`] freezes these contexts once per round into a
//! dense [`SegCtxTable`] indexed through the design arena, which the
//! Extract stage reads one segment at a time.

use grid::Grid;
use net::{DesignArena, Netlist, SegmentRef};
use timing::NetTiming;

/// Frozen per-segment timing context for one optimization round.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct SegCtx {
    /// Downstream capacitance (excluding the segment's own wire).
    pub cd: f64,
    /// Criticality-weighted sink mass below this segment
    /// (`Σ w_k` over sinks in its subtree; the critical sink has w = 1).
    pub weight: f64,
    /// Weighted upstream resistance `Σ_{ancestors j} W_j·R_j` including
    /// via stacks, i.e. the sensitivity of the weighted sink delays to
    /// this segment's wire capacitance.
    pub upstream: f64,
    /// Criticality weight of the pin at the segment's child-side node
    /// (0 when there is none).
    pub pin_weight: f64,
}

/// Sentinel slot for "segment is not in the released pool".
const NONE: u32 = u32::MAX;

/// Dense per-segment context store, indexed by design-global segment id.
///
/// The flow's hot path looks one context up per extracted segment per
/// round; hashing a [`SegmentRef`] for every lookup dominates Extract on
/// large released pools. The table maps a `SegmentRef` to its
/// design-global segment id through a [`DesignArena`]'s CSR layout and
/// keeps one slot per *pooled* segment, so lookups are two array reads
/// and the storage stays `O(pool)`, not `O(design)`, in `SegCtx`s.
///
/// Inserts for segments outside the pool are dropped: context is
/// computed whole-net, but only pooled segments are ever looked up.
#[derive(Clone, Debug, Default)]
pub struct SegCtxTable {
    /// Net `n`'s segments occupy global ids
    /// `seg_base[n]..seg_base[n + 1]` (copied from the arena layout).
    seg_base: Vec<u32>,
    /// Global segment id → pool slot ([`NONE`] when not pooled).
    slot: Vec<u32>,
    /// Frozen contexts, one per pool slot.
    ctx: Vec<SegCtx>,
}

impl SegCtxTable {
    /// Builds the slot map for `pool` over `arena`'s segment layout.
    ///
    /// # Panics
    ///
    /// Panics if a pool reference is outside the arena.
    pub fn new(arena: &DesignArena, pool: &[SegmentRef]) -> SegCtxTable {
        let nets = arena.num_nets();
        let mut seg_base = Vec::with_capacity(nets + 1);
        for n in 0..nets {
            seg_base.push(arena.seg_base(n) as u32);
        }
        seg_base.push(arena.num_segments() as u32);
        let mut slot = vec![NONE; arena.num_segments()];
        for (i, &r) in pool.iter().enumerate() {
            slot[seg_base[r.net as usize] as usize + r.seg as usize] = i as u32;
        }
        SegCtxTable {
            seg_base,
            slot,
            ctx: vec![SegCtx::default(); pool.len()],
        }
    }

    fn global(&self, r: SegmentRef) -> usize {
        self.seg_base[r.net as usize] as usize + r.seg as usize
    }

    /// The frozen context of `r`, or `None` if `r` is not pooled.
    pub fn get(&self, r: SegmentRef) -> Option<&SegCtx> {
        let s = self.slot[self.global(r)];
        (s != NONE).then(|| &self.ctx[s as usize])
    }

    /// Stores `c` as the context of `r`; dropped if `r` is not pooled.
    pub fn insert(&mut self, r: SegmentRef, c: SegCtx) {
        let s = self.slot[self.global(r)];
        if s != NONE {
            self.ctx[s as usize] = c;
        }
    }

    /// Number of pooled segments.
    pub fn len(&self) -> usize {
        self.ctx.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.ctx.is_empty()
    }
}

/// Builds the frozen context of every segment of `nets` into `table`,
/// with an optional weight scale applied to each context before it
/// lands.
///
/// `focus` is the criticality exponent: sink `k` receives weight
/// `(delay_k / delay_max)^focus`, so `focus = 0` reproduces TILA-style
/// uniform weighting and larger values concentrate the objective on the
/// worst paths (the paper's "one or several timing critical paths").
///
/// Scaling multiplies `weight`, `upstream` and `pin_weight` *after* the
/// full per-net computation, so a scaled context is the unscaled one
/// times the weight, bit for bit.
///
/// # Panics
///
/// Panics if a net index is out of range.
pub fn timing_context_into(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &net::Assignment,
    nets: &[usize],
    focus: f64,
    weight_scale: Option<f64>,
    table: &mut SegCtxTable,
) {
    for &ni in nets {
        net_context(grid, netlist, assignment, ni, focus, weight_scale, table);
    }
}

/// Builds the frozen context of one net into `table`.
fn net_context(
    grid: &Grid,
    netlist: &Netlist,
    assignment: &net::Assignment,
    ni: usize,
    focus: f64,
    weight_scale: Option<f64>,
    table: &mut SegCtxTable,
) {
    let net = netlist.net(ni);
    let tree = net.tree();
    let layers = assignment.net_layers(ni);
    let t = NetTiming::compute(grid, net, layers);
    let d_max = t.critical_delay().max(f64::MIN_POSITIVE);

    // Sink weights.
    let pin_weight = |node: usize| -> f64 {
        match tree.node(node).pin {
            Some(0) | None => 0.0,
            Some(p) => {
                let delay = t
                    .sink_delays()
                    .iter()
                    .find(|&&(k, _)| k == p as usize)
                    .map(|&(_, d)| d)
                    .unwrap_or(0.0);
                (delay / d_max).clamp(0.0, 1.0).powf(focus)
            }
        }
    };

    // Subtree weights, children before parents.
    let mut weight = vec![0.0f64; tree.num_segments()];
    for s in tree.postorder_segments() {
        let child = tree.segment(s).to as usize;
        let mut w = pin_weight(child);
        for &cs in tree.child_segments(child) {
            w += weight[cs as usize];
        }
        weight[s] = w;
    }

    // Weighted upstream resistance, parents before children.
    let mut upstream = vec![0.0f64; tree.num_segments()];
    for s in tree.preorder_segments() {
        let seg = tree.segment(s);
        let from = seg.from as usize;
        let (base, entry_layer) = match tree.parent_segment(from) {
            Some(p) => {
                let lay = grid.layer(layers[p]);
                let r_wire = lay.unit_resistance * tree.segment_length(p) as f64;
                (upstream[p] + weight[p] * r_wire, layers[p])
            }
            None => (0.0, net.source().layer),
        };
        let (lo, hi) = if entry_layer <= layers[s] {
            (entry_layer, layers[s])
        } else {
            (layers[s], entry_layer)
        };
        let via_r = grid.via_stack_resistance(lo, hi);
        upstream[s] = base + weight[s] * via_r;
    }

    for s in 0..tree.num_segments() {
        let child = tree.segment(s).to as usize;
        let mut c = SegCtx {
            cd: t.downstream_cap(s),
            weight: weight[s],
            upstream: upstream[s],
            pin_weight: pin_weight(child),
        };
        if let Some(w) = weight_scale {
            c.weight *= w;
            c.upstream *= w;
            c.pin_weight *= w;
        }
        // cast: net/segment ordinals come from the u32-indexed arena.
        table.insert(SegmentRef::new(ni as u32, s as u32), c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Assignment, Net, Pin, RouteTreeBuilder};

    /// Y net: trunk (0,0)->(4,0); long branch to (4,6) (critical) and
    /// short branch to (6,0).
    fn fixture() -> (Grid, Netlist, Assignment) {
        let grid = GridBuilder::new(16, 16)
            .alternating_layers(4, Direction::Horizontal)
            .build()
            .unwrap();
        let mut b = RouteTreeBuilder::new(Cell::new(0, 0));
        let j = b.add_segment(b.root(), Cell::new(4, 0)).unwrap();
        let far = b.add_segment(j, Cell::new(4, 6)).unwrap();
        let near = b.add_segment(j, Cell::new(6, 0)).unwrap();
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(far, 1).unwrap();
        b.attach_pin(near, 2).unwrap();
        let mut nl = Netlist::new();
        nl.push(Net::new(
            "y",
            vec![
                Pin::source(Cell::new(0, 0), 0.0),
                Pin::sink(Cell::new(4, 6), 2.0),
                Pin::sink(Cell::new(6, 0), 1.0),
            ],
            b.build().unwrap(),
        ));
        let a = Assignment::lowest_layers(&nl, &grid);
        (grid, nl, a)
    }

    /// The frozen context of every fixture segment at `focus`, scaled
    /// by `weight_scale`.
    fn context(
        g: &Grid,
        nl: &Netlist,
        a: &Assignment,
        focus: f64,
        weight_scale: Option<f64>,
    ) -> Vec<SegCtx> {
        let arena = DesignArena::from_netlist(nl);
        let pool: Vec<SegmentRef> = (0..3).map(|s| SegmentRef::new(0, s)).collect();
        let mut table = SegCtxTable::new(&arena, &pool);
        timing_context_into(g, nl, a, &[0], focus, weight_scale, &mut table);
        pool.iter().map(|&r| *table.get(r).unwrap()).collect()
    }

    #[test]
    fn critical_sink_has_unit_weight() {
        let (g, nl, a) = fixture();
        let ctx = context(&g, &nl, &a, 4.0, None);
        // Segment 1 leads to the critical (far) sink.
        let far = ctx[1];
        assert!((far.weight - 1.0).abs() < 1e-9, "{}", far.weight);
        assert!((far.pin_weight - 1.0).abs() < 1e-9);
        // The short branch is much less critical.
        let near = ctx[2];
        assert!(near.weight < 0.5, "{}", near.weight);
        // Trunk carries both.
        let trunk = ctx[0];
        assert!((trunk.weight - (far.weight + near.weight)).abs() < 1e-9);
    }

    #[test]
    fn focus_zero_reproduces_uniform_weights() {
        let (g, nl, a) = fixture();
        let ctx = context(&g, &nl, &a, 0.0, None);
        for c in &ctx[1..] {
            assert!((c.weight - 1.0).abs() < 1e-9, "{}", c.weight);
        }
        assert!((ctx[0].weight - 2.0).abs() < 1e-9);
    }

    #[test]
    fn upstream_resistance_accumulates_along_path() {
        let (g, nl, a) = fixture();
        let ctx = context(&g, &nl, &a, 4.0, None);
        let (trunk, far) = (ctx[0], ctx[1]);
        // Trunk has no wire ancestors; the far branch rides on the
        // trunk's weighted resistance.
        let trunk_r = g.layer(0).unit_resistance * 4.0;
        assert!(far.upstream >= trunk.upstream + trunk.weight * trunk_r - 1e-9);
    }

    #[test]
    fn scaled_fill_is_unscaled_fill_times_weight() {
        let (g, nl, a) = fixture();
        let w = 0.3;
        let plain = context(&g, &nl, &a, 4.0, None);
        let scaled = context(&g, &nl, &a, 4.0, Some(w));
        for (p, s) in plain.iter().zip(&scaled) {
            assert_eq!(s.weight.to_bits(), (p.weight * w).to_bits());
            assert_eq!(s.upstream.to_bits(), (p.upstream * w).to_bits());
            assert_eq!(s.pin_weight.to_bits(), (p.pin_weight * w).to_bits());
            assert_eq!(s.cd.to_bits(), p.cd.to_bits());
        }
    }

    #[test]
    fn unpooled_segments_are_invisible() {
        let (g, nl, a) = fixture();
        let arena = DesignArena::from_netlist(&nl);
        // Pool only segment 1: fills for 0 and 2 must be dropped.
        let pool = [SegmentRef::new(0, 1)];
        let mut table = SegCtxTable::new(&arena, &pool);
        timing_context_into(&g, &nl, &a, &[0], 4.0, None, &mut table);
        assert_eq!(table.len(), 1);
        assert!(table.get(SegmentRef::new(0, 0)).is_none());
        assert!(table.get(SegmentRef::new(0, 2)).is_none());
        assert!(table.get(SegmentRef::new(0, 1)).is_some());
    }

    #[test]
    fn cd_matches_net_timing() {
        let (g, nl, a) = fixture();
        let ctx = context(&g, &nl, &a, 4.0, None);
        let t = NetTiming::compute(&g, nl.net(0), a.net_layers(0));
        for (s, c) in ctx.iter().enumerate() {
            assert!((c.cd - t.downstream_cap(s)).abs() < 1e-12);
        }
    }
}
