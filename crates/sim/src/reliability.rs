//! Ground-truth link reliability (Definition 4) and the inductive
//! `s`-operational / `s`-disconnected classification (Definitions 5–6).
//!
//! The runner records exactly what was sent and what was delivered each round
//! and feeds both to this module. A link `{i,j}` is *reliable in a round* iff
//! neither endpoint is broken and the messages delivered on the link in each
//! direction are exactly the messages sent (no loss, no modification, no
//! injection, no replay).
//!
//! **A note on Definition 5.** The paper gives two phrasings of the
//! stay-operational condition 2(b): the main text asks for reliable links to
//! "at least n−s+1 nodes that were s-operational", the parenthetical asks for
//! "unreliable links to less than s other s-operational nodes". These are
//! equivalent only when every node is operational. The main-text reading
//! makes the network collapse when `t = s` nodes are broken (every honest
//! node then counts `s` unreliable links to previously-operational nodes),
//! contradicting the narrative that a `(t,t)`-limited adversary breaks up to
//! a minority of nodes per unit; the parenthetical reading does not, because
//! links to *broken* (hence non-operational) nodes stop counting. We
//! implement both as [`OperationalRule`] and default to the parenthetical
//! ([`OperationalRule::Parenthetical`]); experiment E1 quantifies the
//! difference. The rejoin rule 3(b) uses `n−s` helper nodes (self-exclusive),
//! matching the counts used in the proofs of Lemmas 15 and 20.

use crate::message::{Envelope, NodeId};

/// A symmetric boolean matrix over node pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMatrix {
    n: usize,
    bits: Vec<bool>,
}

impl PairMatrix {
    /// An `n×n` matrix with every entry set to `value`.
    pub fn filled(n: usize, value: bool) -> Self {
        PairMatrix {
            n,
            bits: vec![value; n * n],
        }
    }

    fn at(&self, a: NodeId, b: NodeId) -> usize {
        a.idx() * self.n + b.idx()
    }

    /// Gets entry `{a,b}`.
    pub fn get(&self, a: NodeId, b: NodeId) -> bool {
        self.bits[self.at(a, b)]
    }

    /// Sets entry `{a,b}` symmetrically.
    pub fn set(&mut self, a: NodeId, b: NodeId, value: bool) {
        let i = self.at(a, b);
        let j = self.at(b, a);
        self.bits[i] = value;
        self.bits[j] = value;
    }

    /// ANDs another matrix into this one (used to accumulate
    /// "reliable-throughout-the-phase").
    pub fn and_with(&mut self, other: &PairMatrix) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a = *a && *b;
        }
    }
}

/// Computes per-round link reliability from ground truth.
///
/// `sent` are the messages produced this round (by honest nodes and by the
/// adversary in the name of broken nodes); `delivered` is what the network
/// (i.e. the adversary, in the UL model) actually handed to receivers at the
/// end of the round.
pub fn link_reliability(
    n: usize,
    sent: &[Envelope],
    delivered: &[Envelope],
    broken: &[bool],
) -> PairMatrix {
    let ctx = PairContext::new(n, sent, delivered);
    let mut m = PairMatrix::filled(n, true);
    for (a, row) in m.bits.chunks_mut(n).enumerate() {
        ctx.fill_row(n, a, broken, row);
    }
    m
}

/// Per-directed-pair payload multisets behind [`link_reliability`]. Payload
/// order within a pair is irrelevant in a synchronous round, so the lists are
/// kept sorted for multiset comparison.
struct PairContext<'a> {
    sent_by_pair: Vec<Vec<&'a [u8]>>,
    dlv_by_pair: Vec<Vec<&'a [u8]>>,
}

impl<'a> PairContext<'a> {
    fn new(n: usize, sent: &'a [Envelope], delivered: &'a [Envelope]) -> Self {
        let mut sent_by_pair = collect_by_pair(n, sent);
        let mut dlv_by_pair = collect_by_pair(n, delivered);
        for v in sent_by_pair.iter_mut().chain(dlv_by_pair.iter_mut()) {
            v.sort_unstable();
        }
        PairContext {
            sent_by_pair,
            dlv_by_pair,
        }
    }

    /// Whether the delivered multiset matched the sent one on the directed
    /// pair with flat index `flat`.
    fn dir_ok(&self, flat: usize) -> bool {
        self.sent_by_pair[flat] == self.dlv_by_pair[flat]
    }

    /// Fills row `a` of the reliability matrix: entry `{a,b}` holds iff
    /// neither endpoint is broken and both directions matched exactly. The
    /// formula is symmetric in `(a, b)`, so filling row by row still produces
    /// a symmetric matrix.
    fn fill_row(&self, n: usize, a: usize, broken: &[bool], row: &mut [bool]) {
        for (b, cell) in row.iter_mut().enumerate() {
            *cell = a == b
                || (!broken[a] && !broken[b] && self.dir_ok(a * n + b) && self.dir_ok(b * n + a));
        }
    }
}

fn collect_by_pair(n: usize, msgs: &[Envelope]) -> Vec<Vec<&[u8]>> {
    let mut by_pair: Vec<Vec<&[u8]>> = vec![Vec::new(); n * n];
    for e in msgs {
        by_pair[e.from.idx() * n + e.to.idx()].push(&e.payload);
    }
    by_pair
}

/// Which reading of Definition 5, condition 2(b), to apply (see the module
/// docs for why the paper admits two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OperationalRule {
    /// Parenthetical reading: a node stays operational while it has
    /// **fewer than `s` unreliable links to previously-operational nodes**.
    #[default]
    Parenthetical,
    /// Main-text reading: a node stays operational while it has
    /// **at least `n−s` reliable links to previously-operational nodes**.
    MainText,
}

/// Tracks the `s`-operational set across rounds per Definition 5.
#[derive(Debug, Clone)]
pub struct OperationalTracker {
    n: usize,
    s: usize,
    rule: OperationalRule,
    /// Operational status after the most recent round.
    operational: Vec<bool>,
    /// Whether the first round has been processed.
    started: bool,
    /// Refresh-phase accumulators (present while inside a refresh phase).
    phase: Option<PhaseAccum>,
}

#[derive(Debug, Clone)]
struct PhaseAccum {
    /// Nodes operational at *every* round so far in this phase.
    ops_throughout: Vec<bool>,
    /// Nodes unbroken at every round so far in this phase.
    unbroken_throughout: Vec<bool>,
    /// Links reliable at every round so far in this phase.
    reliable_throughout: PairMatrix,
}

impl OperationalTracker {
    /// Creates a tracker for an `n`-node network with threshold `s`, using
    /// the default ([`OperationalRule::Parenthetical`]) rule.
    pub fn new(n: usize, s: usize) -> Self {
        Self::with_rule(n, s, OperationalRule::default())
    }

    /// Creates a tracker with an explicit Definition-5 reading.
    pub fn with_rule(n: usize, s: usize, rule: OperationalRule) -> Self {
        OperationalTracker {
            n,
            s,
            rule,
            // Before the first communication round every node is operational
            // (the set-up phase is adversary-free); rule 1 takes over at the
            // first processed round.
            operational: vec![true; n],
            started: false,
            phase: None,
        }
    }

    /// The current operational set (after the last processed round).
    pub fn operational(&self) -> &[bool] {
        &self.operational
    }

    /// Whether node `i` is currently `s`-operational.
    pub fn is_operational(&self, i: NodeId) -> bool {
        self.operational[i.idx()]
    }

    /// Count of currently operational nodes.
    pub fn count(&self) -> usize {
        self.operational.iter().filter(|&&b| b).count()
    }

    /// Processes one round of ground truth.
    ///
    /// * `broken` — nodes broken during this round;
    /// * `reliable` — per-round link reliability from [`link_reliability`];
    /// * `in_refresh` — whether this round is inside a refreshment phase;
    /// * `refresh_end` — whether this is the final round of the phase (the
    ///   rejoin rule of Definition 5.3 fires here).
    pub fn on_round(
        &mut self,
        broken: &[bool],
        reliable: &PairMatrix,
        in_refresh: bool,
        refresh_end: bool,
    ) {
        let need = self.n.saturating_sub(self.s);
        if !self.started {
            // Rule 1: in the first round, operational = not broken.
            self.started = true;
            for (op, &b) in self.operational.iter_mut().zip(broken) {
                *op = !b;
            }
        } else {
            // Rule 2: stay operational if unbroken and sufficiently connected
            // to previously-operational nodes (reading per `self.rule`).
            let prev = self.operational.clone();
            let n = self.n;
            let s = self.s;
            let rule = self.rule;
            let step = |a_idx: usize| -> bool {
                if !prev[a_idx] || broken[a_idx] {
                    return false;
                }
                let a = NodeId::from_idx(a_idx);
                // Peers that count: operational at the previous round and not
                // currently broken (a broken peer is definitively not
                // s-operational this round, so the parenthetical's "other
                // s-operational nodes" cannot include it).
                let (reliable_ops, unreliable_ops) = NodeId::all(n)
                    .filter(|&b| b != a && prev[b.idx()] && !broken[b.idx()])
                    .fold((0usize, 0usize), |(r, u), b| {
                        if reliable.get(a, b) {
                            (r + 1, u)
                        } else {
                            (r, u + 1)
                        }
                    });
                match rule {
                    OperationalRule::Parenthetical => unreliable_ops < s,
                    OperationalRule::MainText => reliable_ops >= need,
                }
            };
            for (a_idx, op) in self.operational.iter_mut().enumerate() {
                *op = step(a_idx);
            }
        }

        // Maintain refresh-phase accumulators.
        if in_refresh {
            let accum = self.phase.get_or_insert_with(|| PhaseAccum {
                ops_throughout: vec![true; self.n],
                unbroken_throughout: vec![true; self.n],
                reliable_throughout: PairMatrix::filled(self.n, true),
            });
            for (i, &b) in broken.iter().enumerate().take(self.n) {
                accum.ops_throughout[i] &= self.operational[i];
                accum.unbroken_throughout[i] &= !b;
            }
            accum.reliable_throughout.and_with(reliable);

            if refresh_end {
                // Rule 3: rejoin — unbroken throughout the phase, with
                // reliable links throughout to ≥ n−s throughout-operational
                // nodes.
                let accum = self.phase.take().expect("accumulator present");
                for a in NodeId::all(self.n) {
                    if self.operational[a.idx()] || !accum.unbroken_throughout[a.idx()] {
                        continue;
                    }
                    let helpers = NodeId::all(self.n)
                        .filter(|&b| {
                            b != a
                                && accum.ops_throughout[b.idx()]
                                && accum.reliable_throughout.get(a, b)
                        })
                        .count();
                    if helpers >= need {
                        self.operational[a.idx()] = true;
                    }
                }
            }
        } else {
            self.phase = None;
        }
    }
}

/// Per-cluster Definition-4/5 ground truth for the §6 two-level topology:
/// one [`OperationalTracker`] per cluster, each judging its members against
/// the *cluster-local* links only.
///
/// In the hierarchical construction a node's protocol obligations run over
/// its √n-cluster (its PDS peers and its representative), so the honest
/// notion of "s-operational" is cluster-local: a node disconnected from the
/// rest of the system but well-connected inside its cluster keeps operating,
/// and conversely, links to other clusters cannot save a node its own
/// cluster can no longer reach. The per-cluster disconnection bound is
/// `max(1, min(s, ⌊(m_c−1)/2⌋))` for a cluster of `m_c` members — the
/// cluster-local analogue of the run's `s`, capped by what a PDS of that
/// size can tolerate.
#[derive(Debug, Clone)]
pub struct ClusterTrackers {
    /// Cluster membership (1-based global node ids).
    clusters: Vec<Vec<u32>>,
    trackers: Vec<OperationalTracker>,
    /// Global operational view, rebuilt from the per-cluster trackers.
    operational: Vec<bool>,
}

impl ClusterTrackers {
    /// Builds one tracker per cluster over an `n`-node network.
    ///
    /// # Panics
    ///
    /// Panics if the clusters do not cover `1..=n` exactly once.
    pub fn new(clusters: Vec<Vec<u32>>, n: usize, s: usize, rule: OperationalRule) -> Self {
        let mut seen = vec![false; n];
        for &m in clusters.iter().flatten() {
            assert!(m >= 1 && m as usize <= n, "cluster member {m} out of range");
            assert!(!seen[(m - 1) as usize], "node {m} in two clusters");
            seen[(m - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "clusters must cover every node");
        let trackers = clusters
            .iter()
            .map(|members| {
                let m = members.len();
                let s_c = s.min(m.saturating_sub(1) / 2).max(1);
                OperationalTracker::with_rule(m, s_c, rule)
            })
            .collect();
        ClusterTrackers {
            clusters,
            trackers,
            operational: vec![true; n],
        }
    }

    /// The global operational set, stitched from the per-cluster trackers.
    pub fn operational(&self) -> &[bool] {
        &self.operational
    }

    /// Whether node `i` is operational within its cluster.
    pub fn is_operational(&self, i: NodeId) -> bool {
        self.operational[i.idx()]
    }

    /// Operational members of cluster `c` (for per-cluster reporting).
    pub fn cluster_operational_count(&self, c: usize) -> usize {
        self.trackers[c].count()
    }

    /// Members of cluster `c`.
    pub fn cluster_size(&self, c: usize) -> usize {
        self.clusters[c].len()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Processes one round: restricts the global `broken` set and link
    /// [`PairMatrix`] to each cluster's members and advances that cluster's
    /// tracker. Clusters are small (≈√n), so this runs serially.
    pub fn on_round(
        &mut self,
        broken: &[bool],
        reliable: &PairMatrix,
        in_refresh: bool,
        refresh_end: bool,
    ) {
        for (c, members) in self.clusters.iter().enumerate() {
            let m = members.len();
            let mut local_broken = vec![false; m];
            let mut local_rel = PairMatrix::filled(m, true);
            for (i, &gi) in members.iter().enumerate() {
                local_broken[i] = broken[(gi - 1) as usize];
                for (j, &gj) in members.iter().enumerate().skip(i + 1) {
                    local_rel.set(
                        NodeId::from_idx(i),
                        NodeId::from_idx(j),
                        reliable.get(NodeId(gi), NodeId(gj)),
                    );
                }
            }
            self.trackers[c].on_round(&local_broken, &local_rel, in_refresh, refresh_end);
            let ops = self.trackers[c].operational();
            for (i, &gi) in members.iter().enumerate() {
                self.operational[(gi - 1) as usize] = ops[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_msgs_reliability(n: usize, broken: &[bool]) -> PairMatrix {
        link_reliability(n, &[], &[], broken)
    }

    #[test]
    fn faithful_delivery_is_reliable() {
        let n = 3;
        let sent = vec![Envelope::new(NodeId(1), NodeId(2), vec![1])];
        let m = link_reliability(n, &sent, &sent, &[false; 3]);
        assert!(m.get(NodeId(1), NodeId(2)));
        assert!(m.get(NodeId(2), NodeId(3)));
    }

    #[test]
    fn dropped_message_breaks_link() {
        let n = 3;
        let sent = vec![Envelope::new(NodeId(1), NodeId(2), vec![1])];
        let m = link_reliability(n, &sent, &[], &[false; 3]);
        assert!(!m.get(NodeId(1), NodeId(2)));
        assert!(m.get(NodeId(1), NodeId(3)));
    }

    #[test]
    fn injected_message_breaks_link() {
        let n = 3;
        let delivered = vec![Envelope::new(NodeId(1), NodeId(2), vec![9])];
        let m = link_reliability(n, &[], &delivered, &[false; 3]);
        assert!(!m.get(NodeId(1), NodeId(2)));
    }

    #[test]
    fn modified_message_breaks_link() {
        let n = 2;
        let sent = vec![Envelope::new(NodeId(1), NodeId(2), vec![1])];
        let delivered = vec![Envelope::new(NodeId(1), NodeId(2), vec![2])];
        let m = link_reliability(n, &sent, &delivered, &[false; 2]);
        assert!(!m.get(NodeId(1), NodeId(2)));
    }

    #[test]
    fn replayed_message_breaks_link() {
        // Duplicate delivery of a single sent message = replay (Def. 4
        // excludes it: the replayed copy is "another message").
        let n = 2;
        let sent = vec![Envelope::new(NodeId(1), NodeId(2), vec![1])];
        let delivered = vec![
            Envelope::new(NodeId(1), NodeId(2), vec![1]),
            Envelope::new(NodeId(1), NodeId(2), vec![1]),
        ];
        let m = link_reliability(n, &sent, &delivered, &[false; 2]);
        assert!(!m.get(NodeId(1), NodeId(2)));
    }

    #[test]
    fn broken_endpoint_breaks_all_links() {
        let n = 3;
        let m = link_reliability(n, &[], &[], &[false, true, false]);
        assert!(!m.get(NodeId(1), NodeId(2)));
        assert!(!m.get(NodeId(2), NodeId(3)));
        assert!(m.get(NodeId(1), NodeId(3)));
    }

    #[test]
    fn initially_unbroken_nodes_are_operational() {
        let n = 5;
        let mut t = OperationalTracker::new(n, 2);
        let broken = [false, true, false, false, false];
        t.on_round(&broken, &no_msgs_reliability(n, &broken), false, false);
        assert!(!t.is_operational(NodeId(2)));
        assert!(t.is_operational(NodeId(1)));
        assert_eq!(t.count(), 4);
    }

    #[test]
    fn disconnection_loses_operational_status() {
        let n = 5;
        let s = 2;
        let mut t = OperationalTracker::new(n, s);
        let none = [false; 5];
        t.on_round(&none, &no_msgs_reliability(n, &none), false, false);
        assert_eq!(t.count(), 5);
        // Cut s = 2 of node 1's links: operational requires n−s = 3 good
        // links; node 1 has exactly 2 → disconnected.
        let mut rel = no_msgs_reliability(n, &none);
        rel.set(NodeId(1), NodeId(2), false);
        rel.set(NodeId(1), NodeId(3), false);
        t.on_round(&none, &rel, false, false);
        assert!(!t.is_operational(NodeId(1)));
        assert_eq!(t.count(), 4);
    }

    #[test]
    fn fewer_cut_links_keep_operational() {
        let n = 5;
        let s = 2;
        let mut t = OperationalTracker::new(n, s);
        let none = [false; 5];
        t.on_round(&none, &no_msgs_reliability(n, &none), false, false);
        let mut rel = no_msgs_reliability(n, &none);
        rel.set(NodeId(1), NodeId(2), false); // only one bad link < s
        t.on_round(&none, &rel, false, false);
        assert!(t.is_operational(NodeId(1)));
    }

    #[test]
    fn rejoin_at_refresh_end() {
        let n = 5;
        let s = 2;
        let mut t = OperationalTracker::new(n, s);
        // Round 0: node 1 broken.
        let b1 = [true, false, false, false, false];
        t.on_round(&b1, &no_msgs_reliability(n, &b1), false, false);
        assert!(!t.is_operational(NodeId(1)));
        // Node 1 recovers (unbroken) but is not yet operational mid-unit.
        let none = [false; 5];
        t.on_round(&none, &no_msgs_reliability(n, &none), false, false);
        assert!(!t.is_operational(NodeId(1)));
        // A 3-round refresh phase with full reliability: rejoins at the end.
        t.on_round(&none, &no_msgs_reliability(n, &none), true, false);
        assert!(!t.is_operational(NodeId(1)));
        t.on_round(&none, &no_msgs_reliability(n, &none), true, false);
        t.on_round(&none, &no_msgs_reliability(n, &none), true, true);
        assert!(t.is_operational(NodeId(1)));
    }

    #[test]
    fn broken_during_refresh_cannot_rejoin() {
        let n = 5;
        let s = 2;
        let mut t = OperationalTracker::new(n, s);
        let b1 = [true, false, false, false, false];
        t.on_round(&b1, &no_msgs_reliability(n, &b1), false, false);
        // Refresh phase, but node 1 is broken in its middle round.
        let none = [false; 5];
        t.on_round(&none, &no_msgs_reliability(n, &none), true, false);
        t.on_round(&b1, &no_msgs_reliability(n, &b1), true, false);
        t.on_round(&none, &no_msgs_reliability(n, &none), true, true);
        assert!(!t.is_operational(NodeId(1)));
    }

    #[test]
    fn rejoin_requires_reliable_links_throughout() {
        let n = 5;
        let s = 2;
        let mut t = OperationalTracker::new(n, s);
        let b1 = [true, false, false, false, false];
        t.on_round(&b1, &no_msgs_reliability(n, &b1), false, false);
        let none = [false; 5];
        // During the refresh phase the adversary cuts 2 of node 1's links in
        // one round → only 2 helper links reliable-throughout < n−s = 3.
        let mut rel = no_msgs_reliability(n, &none);
        rel.set(NodeId(1), NodeId(2), false);
        rel.set(NodeId(1), NodeId(3), false);
        t.on_round(&none, &rel, true, false);
        t.on_round(&none, &no_msgs_reliability(n, &none), true, true);
        assert!(!t.is_operational(NodeId(1)));
    }

    #[test]
    fn rejoined_helpers_must_be_operational_throughout() {
        // Nodes that themselves were broken in the previous unit cannot help
        // each other rejoin (the paper's motivating subtlety for Def. 5).
        let n = 5;
        let s = 2;
        let mut t = OperationalTracker::new(n, s);
        // Break nodes 1,2 initially.
        let b12 = [true, true, false, false, false];
        t.on_round(&b12, &no_msgs_reliability(n, &b12), false, false);
        let none = [false; 5];
        // Refresh with reliable links ONLY between 1 and 2 (others cut off
        // from them): no throughout-operational helpers for 1 or 2.
        let mut rel = no_msgs_reliability(n, &none);
        for a in [NodeId(1), NodeId(2)] {
            for b in [NodeId(3), NodeId(4), NodeId(5)] {
                rel.set(a, b, false);
            }
        }
        t.on_round(&none, &rel.clone(), true, false);
        t.on_round(&none, &rel, true, true);
        // 1 and 2 cannot rejoin: their only reliable link is to each other,
        // and neither is operational-throughout.
        assert!(!t.is_operational(NodeId(1)));
        assert!(!t.is_operational(NodeId(2)));
        // 3,4,5 keep status: their unreliable links point only at
        // non-operational nodes, which the parenthetical rule ignores.
        assert!(t.is_operational(NodeId(3)));
        assert!(t.is_operational(NodeId(4)));
        assert!(t.is_operational(NodeId(5)));
    }

    #[test]
    fn breaking_t_nodes_keeps_others_operational_under_parenthetical() {
        // The property that motivates the default rule: a (t,t)-limited
        // adversary can break t nodes without impairing anyone else.
        let n = 5;
        let t_broken = [true, true, false, false, false]; // t = s = 2 broken
        let mut tr = OperationalTracker::new(n, 2);
        let none = [false; 5];
        tr.on_round(&none, &no_msgs_reliability(n, &none), false, false);
        tr.on_round(&t_broken, &no_msgs_reliability(n, &t_broken), false, false);
        assert_eq!(tr.count(), 3, "honest nodes stay operational");

        // Under the main-text rule the same round disconnects everyone.
        let mut strict = OperationalTracker::with_rule(n, 2, OperationalRule::MainText);
        strict.on_round(&none, &no_msgs_reliability(n, &none), false, false);
        strict.on_round(&t_broken, &no_msgs_reliability(n, &t_broken), false, false);
        assert_eq!(strict.count(), 0, "main-text reading collapses");
    }
}
