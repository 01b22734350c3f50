//! Pins the global router's output, tree for tree, on the two Table 2
//! designs whose routing takes the maze fallback most often.
//!
//! The engine snapshot rows (`small`, `adaptec1`, `newblue1`) route
//! without a single maze call, so they cannot see a change in the maze
//! search. `newblue5` (404 maze calls) and `adaptec5` (176) can: any
//! different path, tie-break or forbidden-edge decision changes a
//! routed tree and so the hash below. The hashes were recorded from the
//! router that kept its forbidden edges in a `HashSet` and allocated a
//! fresh whole-grid Dijkstra per call.

use ispd::SyntheticConfig;
use net::Netlist;
use route::{route_netlist, RouterConfig};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
}

/// Hash of every routed net's tree: node cells, parents, pins and
/// segments, in netlist order.
fn tree_hash(netlist: &Netlist) -> u64 {
    let mut h = Fnv(0xcbf29ce484222325);
    h.word(netlist.len() as u64);
    for net in netlist.nets() {
        let tree = net.tree();
        h.word(tree.num_nodes() as u64);
        for node in tree.nodes() {
            h.word(node.cell.x as u64);
            h.word(node.cell.y as u64);
            h.word(node.parent.map_or(u64::MAX, |p| p as u64));
            h.word(node.pin.map_or(u64::MAX, |p| p as u64));
        }
        h.word(tree.num_segments() as u64);
        for seg in tree.segments() {
            h.word(seg.from as u64);
            h.word(seg.to as u64);
            h.word(seg.dir as u64);
        }
    }
    h.0
}

fn routed(name: &str) -> (Netlist, u64) {
    let config = SyntheticConfig::named(name).expect("a Table 2 design");
    let (grid, specs) = config.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    netlist.validate(grid.width(), grid.height()).unwrap();
    let hash = tree_hash(&netlist);
    (netlist, hash)
}

#[test]
fn newblue5_routes_bit_for_bit() {
    let (netlist, hash) = routed("newblue5");
    assert_eq!(
        (netlist.len(), netlist.num_segments(), hash),
        (11000, 38176, 0x4f29_5e5a_663b_901f),
        "routed trees of newblue5 changed"
    );
}

#[test]
fn adaptec5_routes_bit_for_bit() {
    let (netlist, hash) = routed("adaptec5");
    assert_eq!(
        (netlist.len(), netlist.num_segments(), hash),
        (9000, 29146, 0x775c_1d64_ff44_349c),
        "routed trees of adaptec5 changed"
    );
}
