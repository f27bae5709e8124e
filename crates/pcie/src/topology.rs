//! Physical topology: the graph of root complexes, switch chips, NTB
//! adapter cards, and endpoint slots, connected by PCIe links/cables.
//!
//! The graph determines *latency*: each switch chip (including the switch
//! inside an NTB adapter card) adds 100–150 ns per transaction per
//! direction (§VI of the paper). Whether a transaction is *permitted* is
//! decided by address translation (see [`crate::fabric`]), not by the
//! graph.

use std::collections::VecDeque;

use crate::addr::{DeviceId, HostId, NodeId, NtbId};
use crate::error::{FabricError, Result};

/// What a topology node is. Only `Switch` and `NtbAdapter` count as switch
/// chips for latency purposes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A host's root complex (CPU + memory controller attach point).
    RootComplex(HostId),
    /// A transparent PCIe switch chip (e.g. the MXS924 cluster switch).
    Switch { label: String },
    /// An NTB adapter card (e.g. MXH932); contains a switch chip.
    NtbAdapter(NtbId),
    /// An endpoint slot holding a device.
    Endpoint(DeviceId),
}

impl NodeKind {
    /// Does traversing this node add a switch-chip delay?
    pub fn is_chip(&self) -> bool {
        matches!(self, NodeKind::Switch { .. } | NodeKind::NtbAdapter(_))
    }
}

/// Undirected topology graph with shortest-path chip counting.
#[derive(Default)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    adj: Vec<Vec<NodeId>>,
    /// Distance rows, indexed by origin: chips on the shortest path from
    /// that origin to every node (`u32::MAX` = unreachable). Empty until
    /// the origin is first asked; a graph change empties them all.
    rows: Vec<Vec<u32>>,
}

impl Topology {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.adj.push(Vec::new());
        self.rows.iter_mut().for_each(Vec::clear);
        self.rows.push(Vec::new());
        id
    }

    /// A node's kind.
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        &self.nodes[node.0 as usize]
    }

    /// Connect two nodes with a link (idempotent).
    pub fn link(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(a, b, "self-link");
        if !self.adj[a.0 as usize].contains(&b) {
            self.adj[a.0 as usize].push(b);
            self.adj[b.0 as usize].push(a);
            self.rows.iter_mut().for_each(Vec::clear);
        }
    }

    /// Number of switch chips on the shortest path from `from` to `to`,
    /// ends included: a chip at either end is on the path, so the count
    /// is the same both ways. Root complexes and endpoints are not chips,
    /// so a transaction between them pays for exactly the chips it passes
    /// through.
    pub fn chips_between(&mut self, from: NodeId, to: NodeId) -> Result<u32> {
        if self.rows[from.0 as usize].is_empty() {
            self.rows[from.0 as usize] = self.distances_from(from);
        }
        match self.rows[from.0 as usize][to.0 as usize] {
            u32::MAX => Err(FabricError::Unreachable { from, to }),
            d => Ok(d),
        }
    }

    /// One row: a 0-1 BFS weighting each node by whether it is a chip,
    /// the origin's own weight counted at the start.
    fn distances_from(&self, from: NodeId) -> Vec<u32> {
        let chip = |v: NodeId| u32::from(self.nodes[v.0 as usize].is_chip());
        let mut dist = vec![u32::MAX; self.nodes.len()];
        let mut dq = VecDeque::new();
        dist[from.0 as usize] = chip(from);
        dq.push_back(from);
        while let Some(u) = dq.pop_front() {
            let du = dist[u.0 as usize];
            for &v in &self.adj[u.0 as usize] {
                let w = chip(v);
                if du + w < dist[v.0 as usize] {
                    dist[v.0 as usize] = du + w;
                    if w == 0 {
                        dq.push_front(v);
                    } else {
                        dq.push_back(v);
                    }
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's Fig. 9b topology:
    /// hostA RC — adapterA — cluster switch — adapterB — hostB RC — NVMe
    fn fig9b() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let rc_a = t.add_node(NodeKind::RootComplex(HostId(0)));
        let rc_b = t.add_node(NodeKind::RootComplex(HostId(1)));
        let ad_a = t.add_node(NodeKind::NtbAdapter(NtbId(0)));
        let ad_b = t.add_node(NodeKind::NtbAdapter(NtbId(1)));
        let sw = t.add_node(NodeKind::Switch {
            label: "MXS924".into(),
        });
        let nvme = t.add_node(NodeKind::Endpoint(DeviceId(0)));
        t.link(rc_a, ad_a);
        t.link(ad_a, sw);
        t.link(sw, ad_b);
        t.link(ad_b, rc_b);
        t.link(rc_b, nvme);
        (t, rc_a, rc_b, nvme)
    }

    #[test]
    fn local_device_has_no_chips() {
        let (mut t, _, rc_b, nvme) = fig9b();
        assert_eq!(t.chips_between(rc_b, nvme).unwrap(), 0);
    }

    #[test]
    fn remote_device_counts_three_chips() {
        let (mut t, rc_a, _, nvme) = fig9b();
        // adapterA + cluster switch + adapterB = 3 chips
        assert_eq!(t.chips_between(rc_a, nvme).unwrap(), 3);
    }

    #[test]
    fn path_is_symmetric_and_cached() {
        let (mut t, rc_a, rc_b, _) = fig9b();
        assert_eq!(t.chips_between(rc_a, rc_b).unwrap(), 3);
        assert_eq!(t.chips_between(rc_b, rc_a).unwrap(), 3);
    }

    #[test]
    fn a_chip_end_counts_whichever_direction_is_asked_first() {
        // The cluster switch, then adapter B, are on the path to rc_b: two
        // chips, and the same two the other way round, in either order.
        for switch_first in [true, false] {
            let (mut t, _, rc_b, _) = fig9b();
            let sw = (0..6)
                .map(NodeId)
                .find(|&n| matches!(t.kind(n), NodeKind::Switch { .. }))
                .unwrap();
            let asks = if switch_first {
                [(sw, rc_b), (rc_b, sw)]
            } else {
                [(rc_b, sw), (sw, rc_b)]
            };
            for (from, to) in asks {
                assert_eq!(t.chips_between(from, to).unwrap(), 2, "{from:?} -> {to:?}");
            }
            assert_eq!(
                t.chips_between(sw, sw).unwrap(),
                1,
                "a chip is on its own path"
            );
        }
    }

    #[test]
    fn a_link_drops_every_row() {
        // A chain of three switches between two hosts, rows cached from
        // every node; a shortcut past the middle switch must reach them all.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::RootComplex(HostId(0)));
        let b = t.add_node(NodeKind::RootComplex(HostId(1)));
        let s: Vec<NodeId> = (0..3)
            .map(|i| {
                t.add_node(NodeKind::Switch {
                    label: format!("s{i}"),
                })
            })
            .collect();
        t.link(a, s[0]);
        t.link(s[0], s[1]);
        t.link(s[1], s[2]);
        t.link(s[2], b);
        let all = [a, b, s[0], s[1], s[2]];
        for &from in &all {
            for &to in &all {
                t.chips_between(from, to).unwrap();
            }
        }
        assert_eq!(t.chips_between(a, b).unwrap(), 3);
        t.link(s[0], s[2]);
        assert_eq!(t.chips_between(a, b).unwrap(), 2);
        assert_eq!(t.chips_between(b, a).unwrap(), 2);
        assert_eq!(t.chips_between(s[2], a).unwrap(), 2);
        assert_eq!(t.chips_between(s[0], b).unwrap(), 2);
        // A node added later is reachable once linked, from an old origin.
        let c = t.add_node(NodeKind::RootComplex(HostId(2)));
        assert!(t.chips_between(a, c).is_err());
        t.link(c, s[1]);
        assert_eq!(t.chips_between(a, c).unwrap(), 2);
    }

    #[test]
    fn same_node_zero() {
        let (mut t, rc_a, ..) = fig9b();
        assert_eq!(t.chips_between(rc_a, rc_a).unwrap(), 0);
    }

    #[test]
    fn disconnected_is_error() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::RootComplex(HostId(0)));
        let b = t.add_node(NodeKind::RootComplex(HostId(1)));
        assert!(matches!(
            t.chips_between(a, b),
            Err(FabricError::Unreachable { .. })
        ));
    }

    #[test]
    fn shortest_path_prefers_fewer_chips() {
        // Two routes: direct cable (0 chips) vs via two switches.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::RootComplex(HostId(0)));
        let b = t.add_node(NodeKind::Endpoint(DeviceId(0)));
        let s1 = t.add_node(NodeKind::Switch { label: "s1".into() });
        let s2 = t.add_node(NodeKind::Switch { label: "s2".into() });
        t.link(a, s1);
        t.link(s1, s2);
        t.link(s2, b);
        assert_eq!(t.chips_between(a, b).unwrap(), 2);
        t.link(a, b); // add the direct route
        assert_eq!(t.chips_between(a, b).unwrap(), 0);
    }

    #[test]
    fn daisy_chain_counts_every_chip() {
        // A longer chain for the hop-sensitivity experiment (E5).
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::RootComplex(HostId(0)));
        let mut prev = a;
        for i in 0..6 {
            let s = t.add_node(NodeKind::Switch {
                label: format!("s{i}"),
            });
            t.link(prev, s);
            prev = s;
        }
        let dev = t.add_node(NodeKind::Endpoint(DeviceId(0)));
        t.link(prev, dev);
        assert_eq!(t.chips_between(a, dev).unwrap(), 6);
    }
}
