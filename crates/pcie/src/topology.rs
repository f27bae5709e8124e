//! Physical topology: the graph of root complexes, switch chips, NTB
//! adapter cards, and endpoint slots, connected by PCIe links/cables.
//!
//! The graph determines *latency*: each switch chip (including the switch
//! inside an NTB adapter card) adds 100–150 ns per transaction per
//! direction (§VI of the paper). Whether a transaction is *permitted* is
//! decided by address translation (see [`crate::fabric`]), not by the
//! graph.

use std::collections::{BTreeMap, VecDeque};

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
    /// Shortest-path cache: (from, to) -> chips traversed. Ordered map so
    /// any future iteration (debug dumps, invalidation) is deterministic.
    cache: BTreeMap<(NodeId, NodeId), u32>,
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
            self.cache.clear();
        }
    }

    /// Number of switch chips on the shortest path from `from` to `to`
    /// (endpoints themselves never count). BFS minimizes chip count.
    pub fn chips_between(&mut self, from: NodeId, to: NodeId) -> Result<u32> {
        if from == to {
            return Ok(0);
        }
        if let Some(&c) = self.cache.get(&(from, to)) {
            return Ok(c);
        }
        // Dijkstra-light: BFS layered by chip weight (0 for RC/endpoints,
        // 1 for chips). All weights are 0/1 so a deque-based 0-1 BFS works.
        let n = self.nodes.len();
        let mut dist = vec![u32::MAX; n];
        let mut dq = VecDeque::new();
        dist[from.0 as usize] = 0;
        dq.push_back(from);
        while let Some(u) = dq.pop_front() {
            let du = dist[u.0 as usize];
            for &v in &self.adj[u.0 as usize] {
                let w = u32::from(self.nodes[v.0 as usize].is_chip());
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
        let d = dist[to.0 as usize];
        if d == u32::MAX {
            return Err(FabricError::Unreachable { from, to });
        }
        // Destination chip weight was counted on entry, which is what we
        // want: a transaction *through* a chip pays its latency; arriving
        // *at* an endpoint or RC does not add a chip.
        self.cache.insert((from, to), d);
        self.cache.insert((to, from), d);
        Ok(d)
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
