//! PARTIAL-AGREEMENT (Fig. 5) bookkeeping.
//!
//! One instance per (subject, refresh phase): every node that received the
//! subject's announced key runs the protocol so that *some single value* `y`
//! exists with every honest participant ending at `y` or `φ` (Lemma 16).
//!
//! The instance operates on inputs the transport layer has already
//! authenticated:
//!
//! * step 1 values arrive through AUTH-SEND (strict VER-CERT);
//! * step 3 relays arrive as [`crate::wire::Blob::EvidenceBundle`]s; the
//!   transport asks [`PaInstance::evidence_matters`] first, and verifies
//!   (relaxed destination check) and feeds here only what can still change
//!   the decision.
//!
//! Cheater marking: a node observed (directly or via evidence) certifying
//! two different input values is a *cheater* and drops out of the majority
//! set; the final output stands only if at least `⌈(n+1)/2⌉` non-cheaters
//! certified the same value.

use proauth_telemetry as telemetry;
use std::collections::{BTreeMap, BTreeSet};

/// One PARTIAL-AGREEMENT instance at one node.
#[derive(Debug, Clone)]
pub struct PaInstance {
    n: usize,
    /// Values accepted in step 1, per sender (each kept as a set to detect
    /// equivocation).
    accepted: BTreeMap<u32, BTreeSet<Vec<u8>>>,
    /// Values seen via step-3 evidence, per original certifier.
    relayed: BTreeMap<u32, BTreeSet<Vec<u8>>>,
    /// The majority set fixed in step 2.
    maj: Option<(Vec<u8>, BTreeSet<u32>)>,
}

impl PaInstance {
    /// Creates an instance for an `n`-node network.
    pub fn new(n: usize) -> Self {
        PaInstance {
            n,
            accepted: BTreeMap::new(),
            relayed: BTreeMap::new(),
            maj: None,
        }
    }

    /// The majority quorum size `⌈(n+1)/2⌉`.
    fn quorum(&self) -> usize {
        (self.n + 1).div_ceil(2)
    }

    /// Feeds a step-1 value accepted from `sender` via AUTH-SEND.
    pub fn on_accepted_value(&mut self, sender: u32, value: Vec<u8>) {
        telemetry::count("pa/accepted_values", 1);
        self.accepted.entry(sender).or_default().insert(value);
    }

    /// Step 2: fixes the majority set. Returns the senders whose (unique)
    /// certified value forms a `⌈(n+1)/2⌉` majority, if one exists.
    ///
    /// Call exactly once, after all step-1 values are in.
    pub fn fix_majority(&mut self) -> Option<(Vec<u8>, Vec<u32>)> {
        // Cheaters: senders with more than one accepted value.
        let mut counts: BTreeMap<&[u8], BTreeSet<u32>> = BTreeMap::new();
        for (&sender, values) in &self.accepted {
            if values.len() != 1 {
                continue; // marked "cheater"
            }
            let v = values.iter().next().expect("single value");
            counts.entry(v.as_slice()).or_default().insert(sender);
        }
        let quorum = self.quorum();
        let best = counts
            .into_iter()
            .find(|(_, members)| members.len() >= quorum);
        match best {
            Some((value, members)) => {
                let value = value.to_vec();
                self.maj = Some((value.clone(), members.clone()));
                Some((value, members.into_iter().collect()))
            }
            None => None,
        }
    }

    /// Whether step-3 evidence "`certifier` certified `value`" could still
    /// change [`PaInstance::decide`]. The decision reads `relayed[m]` only
    /// for `m ∈ MAJ`, and only through "`m` certified exactly one value": so
    /// evidence matters exactly when it is about a majority member not yet
    /// exposed and names a value other than the one known for it — that is,
    /// when it would expose `m` as a cheater. Feeding [`PaInstance::on_evidence`]
    /// anything else leaves every later decision as it was, so the caller
    /// may drop it before paying for VER-CERT.
    pub fn evidence_matters(&self, certifier: u32, value: &[u8]) -> bool {
        let Some((_, members)) = &self.maj else {
            return false;
        };
        if !members.contains(&certifier) {
            return false;
        }
        let mut known = self
            .accepted
            .get(&certifier)
            .into_iter()
            .chain(self.relayed.get(&certifier))
            .flatten();
        match known.next() {
            None => true,
            Some(first) => first.as_slice() != value && known.all(|v| v == first),
        }
    }

    /// Feeds a verified step-3 evidence message: `certifier` certified
    /// `value` as its input.
    pub fn on_evidence(&mut self, certifier: u32, value: Vec<u8>) {
        telemetry::count("pa/evidence", 1);
        self.relayed.entry(certifier).or_default().insert(value);
    }

    /// Step 5: the final decision — `Some(y)` or `None` (the paper's `φ`).
    pub fn decide(&self) -> Option<Vec<u8>> {
        let (value, members) = self.maj.as_ref()?;
        // MAJ′: members not exposed as cheaters by steps 2+4 combined.
        let quorum = self.quorum();
        let survivors = members
            .iter()
            .filter(|&&m| {
                let mut all: BTreeSet<&Vec<u8>> = BTreeSet::new();
                if let Some(vs) = self.accepted.get(&m) {
                    all.extend(vs.iter());
                }
                if let Some(vs) = self.relayed.get(&m) {
                    all.extend(vs.iter());
                }
                all.len() == 1
            })
            .count();
        if survivors >= quorum {
            Some(value.clone())
        } else {
            None
        }
    }

    /// The step-1 accepted values (used by the driver to build evidence
    /// relays for the majority members).
    pub fn majority_members(&self) -> Vec<u32> {
        self.maj
            .as_ref()
            .map(|(_, m)| m.iter().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives n instances with the given per-node inputs and full exchange,
    /// returning each node's decision. `equivocators` send value `alt` to
    /// the second half of the nodes.
    fn run_pa(
        n: usize,
        inputs: Vec<Option<&[u8]>>,
        equivocators: &[u32],
        alt: &[u8],
    ) -> Vec<Option<Vec<u8>>> {
        let mut instances: Vec<PaInstance> = (0..n).map(|_| PaInstance::new(n)).collect();
        // Step 1: everyone with an input "sends" it to everyone.
        for (idx, input) in inputs.iter().enumerate() {
            let sender = idx as u32 + 1;
            let Some(input) = input else { continue };
            for (jdx, inst) in instances.iter_mut().enumerate() {
                let recv = jdx as u32 + 1;
                if recv == sender {
                    inst.on_accepted_value(sender, input.to_vec());
                    continue;
                }
                let value = if equivocators.contains(&sender) && jdx >= n / 2 {
                    alt.to_vec()
                } else {
                    input.to_vec()
                };
                inst.on_accepted_value(sender, value);
            }
        }
        // Step 2 + 3: fix majorities, relay all accepted values as evidence.
        let mut evidence: Vec<(u32, Vec<u8>)> = Vec::new();
        for inst in instances.iter_mut() {
            inst.fix_majority();
            for (&sender, values) in &inst.accepted {
                for v in values {
                    evidence.push((sender, v.clone()));
                }
            }
        }
        // Step 4: everyone sees all evidence.
        for inst in instances.iter_mut() {
            for (sender, v) in &evidence {
                inst.on_evidence(*sender, v.clone());
            }
        }
        instances.iter().map(PaInstance::decide).collect()
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        let out = run_pa(5, vec![Some(b"k"); 5], &[], b"x");
        assert!(out.iter().all(|d| d.as_deref() == Some(b"k".as_slice())));
    }

    #[test]
    fn lemma_16_property_2_holds_under_equivocation() {
        // Node 2 equivocates; outputs must all be in {y, φ} for a single y.
        let out = run_pa(5, vec![Some(b"k"); 5], &[2], b"x");
        let decided: BTreeSet<Vec<u8>> = out.iter().flatten().cloned().collect();
        assert!(decided.len() <= 1, "at most one decided value: {decided:?}");
    }

    #[test]
    fn no_majority_decides_phi() {
        // Split inputs 2/2 in a 5-node network with one abstainer.
        let out = run_pa(
            5,
            vec![Some(b"a"), Some(b"a"), Some(b"b"), Some(b"b"), None],
            &[],
            b"x",
        );
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn bare_majority_suffices() {
        // 3 of 5 share a value; quorum is 3.
        let out = run_pa(
            5,
            vec![Some(b"a"), Some(b"a"), Some(b"a"), Some(b"b"), None],
            &[],
            b"x",
        );
        assert!(out.iter().all(|d| d.as_deref() == Some(b"a".as_slice())));
    }

    #[test]
    fn exposed_cheater_shrinks_majority_to_phi() {
        // 3 of 5 agree but one of them equivocates: survivors = 2 < 3 → φ.
        let out = run_pa(
            5,
            vec![Some(b"a"), Some(b"a"), Some(b"a"), Some(b"b"), None],
            &[3],
            b"x",
        );
        // The equivocator is exposed at every node that got evidence.
        assert!(out.iter().all(Option::is_none), "{out:?}");
    }

    #[test]
    fn abstaining_nodes_see_majority_of_others() {
        // The instance at a node with no own input still decides from the
        // other nodes' step-1 sends.
        let out = run_pa(5, vec![Some(b"k"), Some(b"k"), Some(b"k"), None, None], &[], b"x");
        assert_eq!(out[3].as_deref(), Some(b"k".as_slice()));
        assert_eq!(out[4].as_deref(), Some(b"k".as_slice()));
    }

    #[test]
    fn evidence_matters_only_while_it_can_expose_a_majority_member() {
        let mut inst = PaInstance::new(5);
        for sender in 1..=4 {
            inst.on_accepted_value(sender, b"a".to_vec());
        }
        inst.on_accepted_value(5, b"b".to_vec());
        assert!(!inst.evidence_matters(1, b"x"), "no majority fixed yet");
        inst.fix_majority();
        assert!(!inst.evidence_matters(1, b"a"), "the value already known");
        assert!(!inst.evidence_matters(5, b"x"), "not a majority member");
        assert!(!inst.evidence_matters(9, b"x"), "not a node");
        assert!(inst.evidence_matters(1, b"x"), "would expose member 1");
        inst.on_evidence(1, b"x".to_vec());
        assert!(!inst.evidence_matters(1, b"y"), "already exposed");
        // One exposure leaves a bare quorum of three; the second breaks it.
        assert_eq!(inst.decide().as_deref(), Some(b"a".as_slice()));
        assert!(inst.evidence_matters(2, b"x"));
        inst.on_evidence(2, b"x".to_vec());
        assert_eq!(inst.decide(), None);
    }

    #[test]
    fn quorum_is_ceil_half_plus() {
        for (n, q) in [(3usize, 2usize), (4, 3), (5, 3), (6, 4), (7, 4)] {
            let inst = PaInstance::new(n);
            assert_eq!(inst.quorum(), q, "n={n}");
        }
    }
}
