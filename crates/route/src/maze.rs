//! Congestion-weighted maze (shortest-path) routing on the 2-D grid.
//!
//! The Steiner router falls back to this search when the cheapest of a
//! connection's L/Z pattern candidates crosses an edge already at or
//! beyond capacity. The router is a uniform-cost search (Dijkstra) over
//! tile cells with caller-supplied edge costs and a forbidden edge mask
//! (the edges already covered by the net's own tree, which a routing
//! tree must not cover twice).
//!
//! # Index space and reuse
//!
//! The search runs on cell indices `y·w + x` and edge indices
//! `y·(w−1) + x` (horizontal edge from `(x, y)` to `(x+1, y)`) and
//! `y·w + x` (vertical edge from `(x, y)` to `(x, y+1)`), the layout of
//! [`crate::CongestionMap`]'s usage vectors. Its buffers live in a
//! [`MazeScratch`] reused across calls: a per-cell generation stamp
//! marks which `dist`/`prev` entries belong to the current call, so a
//! call costs the cells it settles, not a whole-grid reset. The
//! forbidden set is an [`EdgeMask`] cleared the same way.
//!
//! # Pop order and tie-breaks
//!
//! The routed path is a function of the exact pop order, so the order
//! is part of the contract. The heap pops the smallest tentative
//! distance first; among equal distances, the largest `x`, then the
//! largest `y`. Each entry is one `u128` min-key,
//! `dist.to_bits() << 32 | !(x << 16 | y)`: for non-negative finite
//! `f64` values the bit patterns order the same way as the values, and
//! the complemented cell word puts the larger coordinates first. A
//! cell's tentative distance only ever decreases strictly, so no two
//! entries share a key and the order is total. A neighbour is relaxed
//! with `d + cost` (the path's costs summed in path order) and taken only
//! on a strict `<`, so the earlier-settled predecessor keeps a tied
//! cell. Any search that keeps these three rules returns the same path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use grid::{Cell, Direction, Edge2d};

/// `prev` value of a cell with no predecessor (the start cell).
const NONE: u32 = u32::MAX;

/// Index of `e` among the edges of its direction on a grid `width`
/// cells wide: `y·(w−1) + x` for horizontal edges, `y·w + x` for
/// vertical ones.
pub(crate) fn edge_ordinal(width: u16, e: Edge2d) -> usize {
    let (x, y, w) = (e.cell.x as usize, e.cell.y as usize, width as usize);
    match e.dir {
        Direction::Horizontal => y * (w - 1) + x,
        Direction::Vertical => y * w + x,
    }
}

/// A set of 2-D edges stored as one stamp per edge, indexed like
/// [`crate::CongestionMap`]. [`EdgeMask::clear_for_grid`] empties it in
/// O(1) by moving to a new stamp.
#[derive(Clone, Debug, Default)]
pub struct EdgeMask {
    width: u16,
    height: u16,
    h: Vec<u32>,
    v: Vec<u32>,
    stamp: u32,
}

impl EdgeMask {
    /// Empties the set and sizes it for a `width × height` grid.
    pub fn clear_for_grid(&mut self, width: u16, height: u16) {
        if (width, height) != (self.width, self.height) || self.stamp == u32::MAX {
            let (w, h) = (width as usize, height as usize);
            self.width = width;
            self.height = height;
            self.h.clear();
            self.h.resize(w.saturating_sub(1) * h, 0);
            self.v.clear();
            self.v.resize(w * h.saturating_sub(1), 0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Adds `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` lies outside the grid given to the last
    /// [`EdgeMask::clear_for_grid`].
    pub fn mark(&mut self, e: Edge2d) {
        let i = edge_ordinal(self.width, e);
        match e.dir {
            Direction::Horizontal => self.h[i] = self.stamp,
            Direction::Vertical => self.v[i] = self.stamp,
        }
    }

    /// Whether the edge of direction `dir` with index `i` is in the set.
    fn marked_at(&self, dir: Direction, i: usize) -> bool {
        match dir {
            Direction::Horizontal => self.h[i] == self.stamp,
            Direction::Vertical => self.v[i] == self.stamp,
        }
    }
}

/// The buffers of [`find_path`], reused across calls.
#[derive(Clone, Debug, Default)]
pub struct MazeScratch {
    /// Tentative distance per cell; valid where `seen == generation`.
    dist: Vec<f64>,
    /// Predecessor cell index per cell; valid where `seen == generation`.
    prev: Vec<u32>,
    /// Generation that last wrote each cell's `dist`/`prev`.
    seen: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<Reverse<u128>>,
    /// The last path found, start to goal.
    path: Vec<Cell>,
}

impl MazeScratch {
    /// Starts a search over `cells` cells: every cell reads as
    /// unreached and the heap is empty.
    fn begin_search(&mut self, cells: usize) {
        if self.seen.len() != cells || self.generation == u32::MAX {
            self.dist.resize(cells, f64::INFINITY);
            self.prev.resize(cells, NONE);
            self.seen.clear();
            self.seen.resize(cells, 0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
    }

    /// Tentative distance of cell `i` (infinite if not reached).
    fn tentative(&self, i: usize) -> f64 {
        if self.seen[i] == self.generation {
            self.dist[i]
        } else {
            f64::INFINITY
        }
    }

    /// Records `d` as cell `i`'s distance through predecessor `from`.
    fn reach(&mut self, i: usize, d: f64, from: u32) {
        self.seen[i] = self.generation;
        self.dist[i] = d;
        self.prev[i] = from;
    }
}

/// Heap key of cell `(x, y)` at distance `d`; see the module doc for why
/// the smallest key is the next cell to settle.
fn heap_key(d: f64, x: u16, y: u16) -> u128 {
    let xy = ((x as u32) << 16) | y as u32;
    ((d.to_bits() as u128) << 32) | !xy as u128
}

/// Finds a minimum-cost rectilinear path from `start` to `goal`.
///
/// `edge_cost(dir, i)` must return a non-negative, finite cost for the
/// edge of direction `dir` with index `i` (see the module doc); edges in
/// `forbidden` are never traversed. Returns the cell sequence from
/// `start` to `goal` inclusive, borrowed from `scratch`, or `None` if no
/// path exists. Ties are broken as the module doc describes.
///
/// # Panics
///
/// Panics if `start` or `goal` lies outside the `width × height` grid,
/// or if `forbidden` was last cleared for a grid of another size.
pub fn find_path<'s>(
    scratch: &'s mut MazeScratch,
    width: u16,
    height: u16,
    start: Cell,
    goal: Cell,
    mut edge_cost: impl FnMut(Direction, usize) -> f64,
    forbidden: &EdgeMask,
) -> Option<&'s [Cell]> {
    assert!(start.x < width && start.y < height, "start out of bounds");
    assert!(goal.x < width && goal.y < height, "goal out of bounds");
    assert!(
        forbidden.width == width && forbidden.height == height,
        "forbidden mask sized for another grid"
    );
    let w = width as usize;
    let cell_index = |c: Cell| c.y as usize * w + c.x as usize;
    let goal_i = cell_index(goal);
    let s = scratch;
    s.begin_search(w * height as usize);
    s.reach(cell_index(start), 0.0, NONE);
    s.heap.push(Reverse(heap_key(0.0, start.x, start.y)));
    while let Some(Reverse(k)) = s.heap.pop() {
        let d = f64::from_bits((k >> 32) as u64);
        let xy = !(k as u32);
        let (x, y) = ((xy >> 16) as u16, xy as u16);
        let i = y as usize * w + x as usize;
        // A cell is reached in this search before it is pushed, so its
        // `dist` entry is current; a larger `d` is a stale entry.
        if d > s.dist[i] {
            continue;
        }
        if i == goal_i {
            break;
        }
        // Neighbours west, east, south, north: whether each exists, its
        // cell, and the direction and index of the edge that reaches it.
        let east_edge = y as usize * (w - 1) + x as usize;
        let steps = [
            (
                x > 0,
                x.wrapping_sub(1),
                y,
                Direction::Horizontal,
                east_edge.wrapping_sub(1),
            ),
            (x + 1 < width, x + 1, y, Direction::Horizontal, east_edge),
            (
                y > 0,
                x,
                y.wrapping_sub(1),
                Direction::Vertical,
                i.wrapping_sub(w),
            ),
            (y + 1 < height, x, y + 1, Direction::Vertical, i),
        ];
        for (inside, nx, ny, dir, e) in steps {
            if !inside || forbidden.marked_at(dir, e) {
                continue;
            }
            let cost = edge_cost(dir, e);
            debug_assert!(cost.is_finite() && cost >= 0.0, "bad edge cost {cost}");
            let nd = d + cost;
            let j = ny as usize * w + nx as usize;
            if nd < s.tentative(j) {
                // cast: `i < w·h` and both sides are u16, so it fits u32.
                s.reach(j, nd, i as u32);
                s.heap.push(Reverse(heap_key(nd, nx, ny)));
            }
        }
    }
    if s.tentative(goal_i).is_infinite() {
        return None;
    }
    s.path.clear();
    let mut i = goal_i as u32;
    while i != NONE {
        let at = i as usize;
        // cast: a cell index of a u16 × u16 grid splits into u16s.
        s.path.push(Cell::new((at % w) as u16, (at / w) as u16));
        i = s.prev[at];
    }
    s.path.reverse();
    debug_assert_eq!(s.path[0], start);
    Some(&s.path)
}

/// Compresses a cell path into its bend points (the waypoints a
/// [`net::RouteTreeBuilder::add_path`] call needs): every cell where the
/// travel direction changes, plus the final cell.
///
/// # Panics
///
/// Panics if consecutive cells are not rectilinearly adjacent.
pub fn path_waypoints(path: &[Cell]) -> Vec<Cell> {
    if path.len() < 2 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let step = |a: Cell, b: Cell| (b.x as i32 - a.x as i32, b.y as i32 - a.y as i32);
    let mut dir = step(path[0], path[1]);
    assert!(dir.0.abs() + dir.1.abs() == 1, "path cells not adjacent");
    for w in path[1..].windows(2) {
        let d = step(w[0], w[1]);
        assert!(d.0.abs() + d.1.abs() == 1, "path cells not adjacent");
        if d != dir {
            out.push(w[0]);
            dir = d;
        }
    }
    // invariant: the len() < 2 early return leaves path non-empty here.
    out.push(*path.last().unwrap());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn unit_cost(_: Direction, _: usize) -> f64 {
        1.0
    }

    fn mask(width: u16, height: u16, edges: &[Edge2d]) -> EdgeMask {
        let mut m = EdgeMask::default();
        m.clear_for_grid(width, height);
        for &e in edges {
            m.mark(e);
        }
        m
    }

    fn path(
        width: u16,
        height: u16,
        start: Cell,
        goal: Cell,
        edge_cost: impl FnMut(Direction, usize) -> f64,
        forbidden: &EdgeMask,
    ) -> Option<Vec<Cell>> {
        let mut scratch = MazeScratch::default();
        find_path(
            &mut scratch,
            width,
            height,
            start,
            goal,
            edge_cost,
            forbidden,
        )
        .map(<[Cell]>::to_vec)
    }

    #[test]
    fn straight_path_on_empty_grid() {
        let p = path(
            8,
            8,
            Cell::new(1, 1),
            Cell::new(5, 1),
            unit_cost,
            &mask(8, 8, &[]),
        )
        .unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], Cell::new(1, 1));
        assert_eq!(*p.last().unwrap(), Cell::new(5, 1));
    }

    #[test]
    fn detours_around_forbidden_edges() {
        // Block the direct corridor between x=1 and x=2 on rows 0..7.
        let blocked: Vec<Edge2d> = (0..7).map(|y| Edge2d::horizontal(1, y)).collect();
        let forbidden = mask(8, 8, &blocked);
        let p = path(
            8,
            8,
            Cell::new(0, 0),
            Cell::new(4, 0),
            unit_cost,
            &forbidden,
        )
        .unwrap();
        // Must detour via row 7: longer than the direct 4 steps.
        assert!(p.len() > 5, "{p:?}");
        // And never traverse a forbidden edge.
        for w in p.windows(2) {
            let e = Edge2d::between(w[0], w[1]).unwrap();
            assert!(!blocked.contains(&e));
        }
    }

    #[test]
    fn fully_blocked_returns_none() {
        let blocked: Vec<Edge2d> = (0..8).map(|y| Edge2d::horizontal(3, y)).collect();
        assert!(path(
            8,
            8,
            Cell::new(0, 0),
            Cell::new(7, 7),
            unit_cost,
            &mask(8, 8, &blocked),
        )
        .is_none());
    }

    #[test]
    fn congestion_cost_steers_the_path() {
        // Row 0 congested: cost 10 per horizontal edge at y = 0, whose
        // indices are 0..width-1.
        let cost = |dir: Direction, i: usize| {
            if dir == Direction::Horizontal && i < 7 {
                10.0
            } else {
                1.0
            }
        };
        let p = path(
            8,
            8,
            Cell::new(0, 0),
            Cell::new(7, 0),
            cost,
            &mask(8, 8, &[]),
        )
        .unwrap();
        // Cheapest route leaves row 0, traverses on row 1, and returns.
        assert!(p.iter().any(|c| c.y == 1), "{p:?}");
    }

    #[test]
    fn waypoints_compress_straight_runs() {
        let path = vec![
            Cell::new(0, 0),
            Cell::new(1, 0),
            Cell::new(2, 0),
            Cell::new(2, 1),
            Cell::new(2, 2),
            Cell::new(3, 2),
        ];
        let w = path_waypoints(&path);
        assert_eq!(w, vec![Cell::new(2, 0), Cell::new(2, 2), Cell::new(3, 2)]);
    }

    #[test]
    fn waypoints_of_straight_path_is_endpoint_only() {
        let path = vec![Cell::new(0, 0), Cell::new(0, 1), Cell::new(0, 2)];
        assert_eq!(path_waypoints(&path), vec![Cell::new(0, 2)]);
    }

    #[test]
    fn start_equals_goal_trivial_path() {
        let p = path(
            4,
            4,
            Cell::new(2, 2),
            Cell::new(2, 2),
            unit_cost,
            &mask(4, 4, &[]),
        )
        .unwrap();
        assert_eq!(p, vec![Cell::new(2, 2)]);
        assert!(path_waypoints(&p).is_empty());
    }

    #[test]
    fn clearing_the_mask_empties_it() {
        let wall: Vec<Edge2d> = (0..4).map(|y| Edge2d::horizontal(2, y)).collect();
        let mut m = mask(5, 4, &wall);
        let (from, to) = (Cell::new(0, 1), Cell::new(4, 1));
        assert!(path(5, 4, from, to, unit_cost, &m).is_none());
        m.clear_for_grid(5, 4);
        assert_eq!(path(5, 4, from, to, unit_cost, &m).unwrap().len(), 5);
    }

    /// The textbook search the index-space one must match: a whole-grid
    /// Dijkstra over `(x, y)` cells with a max-heap of
    /// `(Reverse(dist bits), x, y)` and a `HashSet` of forbidden edges.
    fn reference_path(
        width: u16,
        height: u16,
        start: Cell,
        goal: Cell,
        edge_cost: impl Fn(Edge2d) -> f64,
        forbidden: &HashSet<Edge2d>,
    ) -> Option<Vec<Cell>> {
        let idx = |c: Cell| c.y as usize * width as usize + c.x as usize;
        let n = width as usize * height as usize;
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<Cell>> = vec![None; n];
        let mut heap: BinaryHeap<(Reverse<u64>, u16, u16)> = BinaryHeap::new();
        dist[idx(start)] = 0.0;
        heap.push((Reverse(0), start.x, start.y));
        while let Some((Reverse(dbits), x, y)) = heap.pop() {
            let cur = Cell::new(x, y);
            let d = f64::from_bits(dbits);
            if d > dist[idx(cur)] {
                continue;
            }
            if cur == goal {
                break;
            }
            let neighbors = [
                (x > 0).then(|| Cell::new(x - 1, y)),
                (x + 1 < width).then(|| Cell::new(x + 1, y)),
                (y > 0).then(|| Cell::new(x, y - 1)),
                (y + 1 < height).then(|| Cell::new(x, y + 1)),
            ];
            for next in neighbors.into_iter().flatten() {
                let edge = Edge2d::between(cur, next).unwrap();
                if forbidden.contains(&edge) {
                    continue;
                }
                let nd = d + edge_cost(edge);
                if nd < dist[idx(next)] {
                    dist[idx(next)] = nd;
                    prev[idx(next)] = Some(cur);
                    heap.push((Reverse(nd.to_bits()), next.x, next.y));
                }
            }
        }
        if dist[idx(goal)].is_infinite() {
            return None;
        }
        let mut path = vec![goal];
        while let Some(p) = prev[idx(*path.last().unwrap())] {
            path.push(p);
        }
        path.reverse();
        Some(path)
    }

    /// Seeded differential sweep against [`reference_path`]: random grid
    /// shapes, small-integer edge costs (ties are everywhere, zero-cost
    /// edges included) and random forbidden sets dense enough that some
    /// goals are cut off. One scratch and one mask serve every case, so
    /// stale entries from earlier searches and grids would show. The
    /// off-by-default `proptest` feature widens the sweep.
    #[test]
    fn matches_the_reference_search_cell_for_cell() {
        let cases = if cfg!(feature = "proptest") {
            4000
        } else {
            400
        };
        let mut rng = prng::Rng::seed_from_u64(0x3a2e);
        let mut scratch = MazeScratch::default();
        let mut forbidden = EdgeMask::default();
        let (mut found, mut unreachable) = (0, 0);
        for _ in 0..cases {
            let width = rng.range_u16(1, 12);
            let height = rng.range_u16(1, 12);
            let max_cost = rng.range_u64(0, 3);
            let h_cost: Vec<f64> = (0..(width as usize - 1) * height as usize)
                .map(|_| rng.range_u64(0, max_cost) as f64)
                .collect();
            let v_cost: Vec<f64> = (0..width as usize * (height as usize - 1))
                .map(|_| rng.range_u64(0, max_cost) as f64)
                .collect();
            let density = rng.range_f64(0.0, 0.6);
            forbidden.clear_for_grid(width, height);
            let mut set = HashSet::new();
            let all_edges = (0..height)
                .flat_map(|y| (0..width.saturating_sub(1)).map(move |x| Edge2d::horizontal(x, y)))
                .chain(
                    (0..height.saturating_sub(1))
                        .flat_map(|y| (0..width).map(move |x| Edge2d::vertical(x, y))),
                );
            for e in all_edges {
                if rng.bool(density) {
                    forbidden.mark(e);
                    set.insert(e);
                }
            }
            let cell = |rng: &mut prng::Rng| {
                Cell::new(rng.range_u16(0, width - 1), rng.range_u16(0, height - 1))
            };
            let (start, goal) = (cell(&mut rng), cell(&mut rng));
            let cost = |dir: Direction, i: usize| match dir {
                Direction::Horizontal => h_cost[i],
                Direction::Vertical => v_cost[i],
            };
            let want = reference_path(
                width,
                height,
                start,
                goal,
                |e| cost(e.dir, edge_ordinal(width, e)),
                &set,
            );
            let got = find_path(&mut scratch, width, height, start, goal, cost, &forbidden);
            assert_eq!(
                got,
                want.as_deref(),
                "{width}x{height} {start} -> {goal}, forbidden {set:?}"
            );
            match want {
                Some(_) => found += 1,
                None => unreachable += 1,
            }
        }
        assert!(
            found > cases / 4 && unreachable > cases / 20,
            "{found} found, {unreachable} cut off"
        );
    }
}
