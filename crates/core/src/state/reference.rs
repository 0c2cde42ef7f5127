//! The per-node reference the batched mutations are model-checked against:
//! the previous implementation of every [`ClusterState`] mutation, kept
//! under `ref_` names on a [`Reference`], which holds the state and its
//! own per-node health vector. Each node flip walks the ancestor chain on its own
//! — one node at a time, no takes, no runs, from the node's leaf switch,
//! whose count is the leaf's free count, to the root, whose count is the
//! machine's — and the free-count index is rebuilt from the counters
//! after every operation instead of being re-keyed along the way, so
//! agreement with the per-leaf [`ClusterState::shift`] path after every
//! operation (`==` plus `check_invariants`, in
//! `tests::placement_currency`) is evidence neither shares a counting or
//! an index-maintenance mistake with the other. The state's map of the
//! nodes that are not `Up` is rederived from the vector after every
//! operation, so `==` holds the shipped map to it. Switch masking is per
//! node here too: whether a node is masked is read off its own ancestor chain's `switch_down` bits, and the
//! per-leaf `leaf_mask` table the shipped path maintains is recounted
//! from those bits after every switch operation.

use super::*;

/// The reference model: a [`ClusterState`] whose counters only these
/// per-node mutations move, and the per-node health they read and write.
pub(crate) struct Reference {
    pub(crate) state: ClusterState,
    /// Per node: its lifecycle state, one entry per node. The oracle for
    /// the shipped state's map of the nodes that are not `Up`, which
    /// `settle` derives from it after every operation.
    health: Vec<NodeHealth>,
}

impl Reference {
    /// A fully-free cluster over `tree`.
    pub(crate) fn new(tree: &Tree) -> Self {
        Reference {
            state: ClusterState::new(tree),
            health: vec![NodeHealth::Up; tree.num_nodes()],
        }
    }

    /// Rebuild the index from the counters, and the state's health map
    /// from the per-node health: the end of every operation.
    fn settle(&mut self, tree: &Tree) {
        let st = &mut self.state;
        st.index.rebuild(tree, &st.switch_free);
        let ill = self.health.iter().enumerate();
        st.node_health = ill
            .filter(|(_, &h)| h != NodeHealth::Up)
            .map(|(i, &h)| (i, h))
            .collect();
    }

    fn ref_masked(&self, tree: &Tree, n: NodeId) -> bool {
        let mut s = Some(tree.leaf_of(n));
        while let Some(id) = s {
            if self.state.switch_down[id.0] {
                return true;
            }
            s = tree.switch(id).parent;
        }
        false
    }

    fn ref_occupy(&mut self, tree: &Tree, n: NodeId, comm: bool) {
        assert!(self.state.node_free.get(n.0));
        self.state.node_free.set(n.0, false);
        let k = tree.leaf_ordinal_of(n);
        self.state.leaf_busy[k] += 1;
        if comm {
            self.state.leaf_comm[k] += 1;
        }
        let mut s = Some(tree.leaf_of(n));
        while let Some(id) = s {
            self.state.switch_free[id.0] -= 1;
            s = tree.switch(id).parent;
        }
    }

    fn ref_vacate(&mut self, tree: &Tree, n: NodeId, comm: bool) {
        assert!(!self.state.node_free.get(n.0));
        self.state.node_free.set(n.0, true);
        let k = tree.leaf_ordinal_of(n);
        self.state.leaf_busy[k] -= 1;
        if comm {
            self.state.leaf_comm[k] -= 1;
        }
        let mut s = Some(tree.leaf_of(n));
        while let Some(id) = s {
            self.state.switch_free[id.0] += 1;
            s = tree.switch(id).parent;
        }
    }

    fn ref_free_to_down(&mut self, tree: &Tree, n: NodeId) {
        assert!(self.state.node_free.get(n.0));
        self.state.node_free.set(n.0, false);
        let k = tree.leaf_ordinal_of(n);
        self.state.leaf_down[k] += 1;
        let mut s = Some(tree.leaf_of(n));
        while let Some(id) = s {
            self.state.switch_free[id.0] -= 1;
            s = tree.switch(id).parent;
        }
        self.state.down_total += 1;
    }

    fn ref_down_to_free(&mut self, tree: &Tree, n: NodeId) {
        assert!(!self.state.node_free.get(n.0));
        self.state.node_free.set(n.0, true);
        let k = tree.leaf_ordinal_of(n);
        self.state.leaf_down[k] -= 1;
        let mut s = Some(tree.leaf_of(n));
        while let Some(id) = s {
            self.state.switch_free[id.0] += 1;
            s = tree.switch(id).parent;
        }
        self.state.down_total -= 1;
    }

    /// Reference `allocate` over an explicit id list (no repeats; the old
    /// validation loop could not see one).
    pub(crate) fn ref_allocate(
        &mut self,
        tree: &Tree,
        job: JobId,
        nodes: &[NodeId],
        nature: JobNature,
    ) -> Result<(), StateError> {
        if nodes.is_empty() {
            return Err(StateError::EmptyAllocation(job));
        }
        if self.state.allocs.contains_key(&job) {
            return Err(StateError::JobExists(job));
        }
        for &n in nodes {
            if !self.state.node_free.get(n.0) {
                let down = self.health[n.0] == NodeHealth::Down || self.ref_masked(tree, n);
                return Err(if down {
                    StateError::NodeDown(n)
                } else {
                    StateError::NodeBusy(n)
                });
            }
        }
        for &n in nodes {
            self.ref_occupy(tree, n, nature.is_comm());
        }
        let nodes = Placement::from_nodes(tree, nodes)?;
        self.state.allocs.insert(job, Allocation { nodes, nature });
        self.settle(tree);
        Ok(())
    }

    pub(crate) fn ref_release(
        &mut self,
        tree: &Tree,
        job: JobId,
    ) -> Result<Allocation, StateError> {
        let alloc = self
            .state
            .allocs
            .remove(&job)
            .ok_or(StateError::UnknownJob(job))?;
        for n in alloc.nodes.nodes() {
            if self.health[n.0] == NodeHealth::Draining {
                let k = tree.leaf_ordinal_of(n);
                self.state.leaf_busy[k] -= 1;
                if alloc.nature.is_comm() {
                    self.state.leaf_comm[k] -= 1;
                }
                self.state.leaf_down[k] += 1;
                self.health[n.0] = NodeHealth::Down;
                self.state.down_total += 1;
                self.state.draining_total -= 1;
            } else {
                self.ref_vacate(tree, n, alloc.nature.is_comm());
            }
        }
        self.settle(tree);
        Ok(alloc)
    }

    pub(crate) fn ref_set_down(&mut self, tree: &Tree, n: NodeId) -> Result<(), StateError> {
        match self.health[n.0] {
            NodeHealth::Down => return Err(StateError::NodeDown(n)),
            NodeHealth::Up if self.ref_masked(tree, n) => {
                self.health[n.0] = NodeHealth::Down;
                self.settle(tree);
                return Ok(());
            }
            NodeHealth::Up | NodeHealth::Draining if !self.state.node_free.get(n.0) => {
                return Err(StateError::NodeBusy(n));
            }
            _ => {}
        }
        self.ref_free_to_down(tree, n);
        self.health[n.0] = NodeHealth::Down;
        self.settle(tree);
        Ok(())
    }

    pub(crate) fn ref_set_up(&mut self, tree: &Tree, n: NodeId) -> Result<(), StateError> {
        match self.health[n.0] {
            NodeHealth::Up => Err(StateError::NodeNotDown(n)),
            NodeHealth::Draining => {
                self.health[n.0] = NodeHealth::Up;
                self.state.draining_total -= 1;
                self.settle(tree);
                Ok(())
            }
            NodeHealth::Down if self.ref_masked(tree, n) => {
                self.health[n.0] = NodeHealth::Up;
                self.settle(tree);
                Ok(())
            }
            NodeHealth::Down => {
                self.ref_down_to_free(tree, n);
                self.health[n.0] = NodeHealth::Up;
                self.settle(tree);
                Ok(())
            }
        }
    }

    pub(crate) fn ref_set_switch_down(
        &mut self,
        tree: &Tree,
        s: SwitchId,
    ) -> Result<(), StateError> {
        if self.state.switch_down[s.0] {
            return Err(StateError::SwitchDown(s));
        }
        for k in tree.leaf_ordinals_under(s) {
            for n in tree.leaf_nodes(k) {
                let busy = !self.state.node_free.get(n.0)
                    && !self.ref_masked(tree, n)
                    && self.health[n.0] != NodeHealth::Down;
                if busy {
                    return Err(StateError::SwitchBusy { switch: s, node: n });
                }
            }
        }
        for k in tree.leaf_ordinals_under(s) {
            for n in tree.leaf_nodes(k) {
                if !self.ref_masked(tree, n) && self.health[n.0] == NodeHealth::Up {
                    self.ref_free_to_down(tree, n);
                }
            }
        }
        self.state.switch_down[s.0] = true;
        self.state.leaf_mask = self.state.recount_leaf_mask(tree);
        self.settle(tree);
        Ok(())
    }

    pub(crate) fn ref_set_switch_up(&mut self, tree: &Tree, s: SwitchId) -> Result<(), StateError> {
        if !self.state.switch_down[s.0] {
            return Err(StateError::SwitchNotDown(s));
        }
        self.state.switch_down[s.0] = false;
        for k in tree.leaf_ordinals_under(s) {
            for n in tree.leaf_nodes(k) {
                if !self.ref_masked(tree, n) && self.health[n.0] == NodeHealth::Up {
                    self.ref_down_to_free(tree, n);
                }
            }
        }
        self.state.leaf_mask = self.state.recount_leaf_mask(tree);
        self.settle(tree);
        Ok(())
    }

    pub(crate) fn ref_set_draining(&mut self, tree: &Tree, n: NodeId) -> Result<bool, StateError> {
        match self.health[n.0] {
            NodeHealth::Down => Err(StateError::NodeDown(n)),
            NodeHealth::Draining => Ok(false),
            NodeHealth::Up if self.ref_masked(tree, n) => {
                self.health[n.0] = NodeHealth::Down;
                self.settle(tree);
                Ok(true)
            }
            NodeHealth::Up if self.state.node_free.get(n.0) => {
                self.ref_set_down(tree, n)?;
                Ok(true)
            }
            NodeHealth::Up => {
                self.health[n.0] = NodeHealth::Draining;
                self.state.draining_total += 1;
                self.settle(tree);
                Ok(false)
            }
        }
    }
}
