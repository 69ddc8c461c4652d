//! Protocol DISPERSE (Fig. 2): a two-phase echo guaranteeing delivery
//! between any two nodes connected by a length-≤2 path of reliable links
//! (Lemma 15).
//!
//! A blob sent at physical round `w` is delivered to its destination at
//! round `w+2`: the `Forward` fans out at `w` (arriving `w+1`), each
//! recipient emits a `Forwarding` to the destination at `w+1` (arriving
//! `w+2`). A `Forward` that reaches the destination directly is buffered one
//! round so both paths deliver at the same round — keeping the `w`-binding
//! of VER-CERT unambiguous. A self-send never touches the network but is
//! buffered two rounds for the same reason.
//!
//! The §6 relaxation ("Relaxations for small t") is [`DisperseMode::Relaxed`]:
//! fan out to only `2t+1` nodes instead of all `n`, cutting the per-node
//! message complexity from `O(n²)` to `O(nt)` while preserving the
//! common-neighbor argument.
//!
//! Blobs are [`InternedBlob`]s: one allocation shared across the whole
//! fan-out. Outgoing traffic is queued as multi-destination
//! [`OutboxEntry`]s — a fan-out is one entry, not `n−1` envelopes.
//!
//! The echo is redundant on purpose — the destination receives one copy of
//! a blob per 2-path — so the receive side ([`DisperseLayer::receive`])
//! reads every envelope in place ([`DisperseView`]) and compares copies as
//! bytes: only the first copy of an `(origin, body)` pair is allocated, the
//! rest cost a hash lookup and a `memcmp`.

use crate::wire::DisperseView;
use proauth_primitives::wire::InternedBlob;
use proauth_sim::message::{NodeId, OutboxEntry};
use proauth_telemetry as telemetry;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Fan-out policy (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisperseMode {
    /// Fig. 2 as written: fan out to all `n−1` other nodes.
    Full,
    /// §6 relaxation: fan out to the lowest-indexed `fanout` nodes
    /// (`fanout = 2t+1` preserves Lemma 15's guarantee).
    Relaxed {
        /// Number of nodes to fan out to.
        fanout: usize,
    },
}

/// A blob awaiting local delivery: a direct `Forward` addressed to me
/// (released by the next [`DisperseLayer::receive`]) or a self-send (held one
/// extra round so it keeps the same +2 schedule as a network send).
#[derive(Debug)]
struct SelfBuffered {
    origin: u32,
    blob: InternedBlob,
    /// `receive` calls to skip before release.
    delay: u8,
}

/// Records `(origin, body)` as delivered this round; `false` for a repeat.
fn first_copy<'b>(seen: &mut HashSet<(u32, &'b [u8])>, origin: u32, body: &'b [u8]) -> bool {
    let first = seen.insert((origin, body));
    let counter = if first {
        "disperse/delivered"
    } else {
        "disperse/dedup_suppressed"
    };
    telemetry::count(counter, 1);
    first
}

/// Per-node DISPERSE machinery.
#[derive(Debug)]
pub struct DisperseLayer {
    me: NodeId,
    n: usize,
    mode: DisperseMode,
    /// Blobs awaiting local delivery (see [`SelfBuffered`]).
    self_buffer: Vec<SelfBuffered>,
    /// Entries queued for sending at the end of this round.
    outgoing: Vec<OutboxEntry>,
}

impl DisperseLayer {
    /// Creates the layer for node `me` in an `n`-node network.
    pub fn new(me: NodeId, n: usize, mode: DisperseMode) -> Self {
        DisperseLayer {
            me,
            n,
            mode,
            self_buffer: Vec::new(),
            outgoing: Vec::new(),
        }
    }

    /// The set of nodes this layer fans out through.
    fn relays(&self) -> Vec<NodeId> {
        match self.mode {
            DisperseMode::Full => NodeId::all(self.n).filter(|&x| x != self.me).collect(),
            DisperseMode::Relaxed { fanout } => NodeId::all(self.n)
                .filter(|&x| x != self.me)
                .take(fanout)
                .collect(),
        }
    }

    /// Queues a blob for DISPERSE to `dst` (delivered at `now + 2`).
    ///
    /// A send to myself produces no network traffic: the blob is buffered
    /// locally and delivered on the same `+2` schedule as everything else.
    pub fn send(&mut self, dst: NodeId, blob: InternedBlob) {
        telemetry::count("disperse/sends", 1);
        telemetry::count("disperse/bytes", blob.len() as u64);
        if dst == self.me {
            self.self_buffer.push(SelfBuffered {
                origin: self.me.0,
                blob,
                delay: 1,
            });
            return;
        }
        let mut targets = self.relays();
        if !targets.contains(&dst) {
            targets.push(dst);
        }
        // The Forward is identical for every relay (it names only origin,
        // dst, and blob) — one encoding, one outbox entry for the whole
        // fan-out.
        let wire = DisperseView::Forward {
            origin: self.me.0,
            dst: dst.0,
            body: &blob,
        };
        self.outgoing.push(OutboxEntry {
            from: self.me,
            to: targets,
            payload: wire.to_payload(),
        });
    }

    /// Processes one round's physical inbox (call once per round, before
    /// sending): releases the buffered direct copies and self-sends that are
    /// due, takes up relay duty for every `Forward` addressed elsewhere, and
    /// returns the blobs delivered to me as `(claimed origin, blob)` — the
    /// direct copies first, then `Forwarding`s in inbox order, each
    /// `(origin, body)` pair once per round. Payloads that are not DISPERSE
    /// messages are skipped; authenticity is the upper layers' business.
    ///
    /// Copies are recognised by content: the dedup and relay indexes key on
    /// the body bytes where they lie in the inbox, and die with the call.
    pub fn receive<'a>(
        &mut self,
        inbox: impl IntoIterator<Item = &'a [u8]>,
    ) -> Vec<(u32, InternedBlob)> {
        let mut due = Vec::new();
        for mut item in std::mem::take(&mut self.self_buffer) {
            if item.delay == 0 {
                due.push(item);
            } else {
                item.delay -= 1;
                self.self_buffer.push(item);
            }
        }
        let mut seen: HashSet<(u32, &[u8])> = HashSet::new();
        let mut delivered = Vec::new();
        for item in &due {
            if first_copy(&mut seen, item.origin, &item.blob) {
                delivered.push((item.origin, item.blob.clone()));
            }
        }
        // Relay duty built this round: (origin, body) → index into
        // `outgoing`. The Forwarding payload depends only on that pair:
        // encode it once and extend the entry's destination list on repeats.
        let mut relay_built: HashMap<(u32, &[u8]), usize> = HashMap::new();
        for payload in inbox {
            match DisperseView::parse(payload) {
                Some(DisperseView::Forward { origin, dst, body }) => {
                    if dst == self.me.0 {
                        // Direct copy: buffer a round (self-forwarding).
                        self.self_buffer.push(SelfBuffered {
                            origin,
                            blob: body.into(),
                            delay: 0,
                        });
                    } else if (1..=self.n as u32).contains(&dst) {
                        telemetry::count("disperse/relays", 1);
                        match relay_built.entry((origin, body)) {
                            Entry::Occupied(e) => self.outgoing[*e.get()].to.push(NodeId(dst)),
                            Entry::Vacant(e) => {
                                e.insert(self.outgoing.len());
                                self.outgoing.push(OutboxEntry {
                                    from: self.me,
                                    to: vec![NodeId(dst)],
                                    payload: DisperseView::Forwarding { origin, body }.to_payload(),
                                });
                            }
                        }
                    }
                }
                Some(DisperseView::Forwarding { origin, body })
                    if first_copy(&mut seen, origin, body) =>
                {
                    delivered.push((origin, body.into()));
                }
                _ => {}
            }
        }
        delivered
    }

    /// Drains the entries queued this round (to go into the node's outbox).
    pub fn drain_outgoing(&mut self) -> Vec<OutboxEntry> {
        std::mem::take(&mut self.outgoing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{DisperseMsg, UlsWire};
    use proauth_primitives::wire::Decode;
    use proauth_sim::message::Payload;

    fn decode(entry: &OutboxEntry) -> DisperseMsg {
        match UlsWire::from_bytes(&entry.payload).unwrap() {
            UlsWire::Disperse(d) => d,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn blob(bytes: &[u8]) -> InternedBlob {
        InternedBlob::from(bytes)
    }

    fn forward(origin: u32, dst: u32, body: &[u8]) -> Payload {
        DisperseView::Forward { origin, dst, body }.to_payload()
    }

    fn forwarding(origin: u32, body: &[u8]) -> Payload {
        DisperseView::Forwarding { origin, body }.to_payload()
    }

    /// One round's `receive` over the given physical payloads.
    fn receive(layer: &mut DisperseLayer, inbox: &[Payload]) -> Vec<(u32, InternedBlob)> {
        layer.receive(inbox.iter().map(|p| &p[..]))
    }

    #[test]
    fn send_fans_out_to_everyone() {
        let mut layer = DisperseLayer::new(NodeId(1), 5, DisperseMode::Full);
        layer.send(NodeId(3), blob(&[42]));
        let out = layer.drain_outgoing();
        // One entry; everyone but me as destinations.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fanout(), 4);
        assert_eq!(
            decode(&out[0]),
            DisperseMsg::Forward {
                origin: 1,
                dst: 3,
                blob: blob(&[42]),
            }
        );
    }

    #[test]
    fn relaxed_mode_limits_fanout() {
        let mut layer = DisperseLayer::new(NodeId(5), 10, DisperseMode::Relaxed { fanout: 3 });
        layer.send(NodeId(9), blob(&[1]));
        let out = layer.drain_outgoing();
        assert_eq!(out.len(), 1);
        // 3 relays + the destination itself.
        assert_eq!(out[0].fanout(), 4);
        assert!(out[0].to.contains(&NodeId(9)));
    }

    #[test]
    fn relay_produces_forwarding() {
        let mut layer = DisperseLayer::new(NodeId(2), 5, DisperseMode::Full);
        let delivered = receive(&mut layer, &[forward(1, 3, &[7])]);
        assert!(delivered.is_empty());
        let out = layer.drain_outgoing();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, vec![NodeId(3)]);
        assert_eq!(
            decode(&out[0]),
            DisperseMsg::Forwarding {
                origin: 1,
                blob: blob(&[7]),
            }
        );
    }

    #[test]
    fn relay_encodes_identical_forwarding_once() {
        // Two Forwards of the same (origin, blob) to different destinations:
        // one Forwarding payload, two destinations on one entry. A different
        // blob from the same origin is a separate entry.
        let mut layer = DisperseLayer::new(NodeId(2), 5, DisperseMode::Full);
        receive(
            &mut layer,
            &[
                forward(1, 3, &[7]),
                forward(1, 4, &[7]),
                forward(1, 3, &[8]),
            ],
        );
        let out = layer.drain_outgoing();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to, vec![NodeId(3), NodeId(4)]);
        assert_eq!(out[1].to, vec![NodeId(3)]);
        // The index dies with the round: the same Forward next round builds
        // a fresh entry rather than indexing into the drained buffer.
        receive(&mut layer, &[forward(1, 4, &[7])]);
        let out = layer.drain_outgoing();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, vec![NodeId(4)]);
    }

    #[test]
    fn forwarding_delivers_once_per_round() {
        let mut layer = DisperseLayer::new(NodeId(3), 5, DisperseMode::Full);
        // Two carriers, one blob: the duplicate is suppressed. A different
        // origin claim is a distinct delivery.
        let inbox = [
            forwarding(1, &[7]),
            forwarding(1, &[7]),
            forwarding(2, &[7]),
        ];
        let delivered = receive(&mut layer, &inbox);
        assert_eq!(delivered, vec![(1, blob(&[7])), (2, blob(&[7]))]);
        // Dedup is per round: the same blob next round delivers again.
        assert_eq!(receive(&mut layer, &inbox[..1]), vec![(1, blob(&[7]))]);
    }

    #[test]
    fn direct_forward_buffered_one_round() {
        let mut layer = DisperseLayer::new(NodeId(3), 5, DisperseMode::Full);
        let direct = receive(&mut layer, &[forward(1, 3, &[9])]);
        assert!(direct.is_empty(), "not delivered in the arrival round");
        let released = receive(&mut layer, &[]);
        assert_eq!(released, vec![(1, blob(&[9]))]);
    }

    #[test]
    fn self_send_delivered_after_two_rounds() {
        // `send(me, ...)` must not be silently dropped: it is buffered
        // locally and delivered exactly two rounds later — the same +2
        // schedule as a network send.
        let mut layer = DisperseLayer::new(NodeId(2), 5, DisperseMode::Full);
        layer.send(NodeId(2), blob(&[5]));
        assert!(
            layer.drain_outgoing().is_empty(),
            "self-send produces no network traffic"
        );
        assert!(
            receive(&mut layer, &[]).is_empty(),
            "not delivered after one round"
        );
        let released = receive(&mut layer, &[]);
        assert_eq!(released, vec![(2, blob(&[5]))]);
        // Nothing left buffered.
        assert!(receive(&mut layer, &[]).is_empty());
    }

    #[test]
    fn direct_and_relayed_copies_dedup() {
        let mut layer = DisperseLayer::new(NodeId(3), 5, DisperseMode::Full);
        receive(&mut layer, &[forward(1, 3, &[9])]);
        // Next round the buffered direct copy delivers first, and the
        // relayed copy of the same blob is suppressed.
        let delivered = receive(&mut layer, &[forwarding(1, &[9])]);
        assert_eq!(delivered, vec![(1, blob(&[9]))]);
    }

    #[test]
    fn out_of_range_dst_ignored() {
        let mut layer = DisperseLayer::new(NodeId(2), 5, DisperseMode::Full);
        receive(&mut layer, &[forward(1, 77, &[1]), forward(1, 0, &[1])]);
        assert!(layer.drain_outgoing().is_empty());
    }

    #[test]
    fn non_disperse_payloads_skipped() {
        let mut layer = DisperseLayer::new(NodeId(2), 5, DisperseMode::Full);
        let mut trailing = forwarding(1, &[7]).to_vec();
        trailing.push(0);
        let announce = UlsWire::KeyAnnounce {
            unit: 1,
            vk: vec![1],
        };
        let inbox = [
            announce.to_payload(),
            trailing.into(),
            Payload::from(vec![]),
        ];
        assert!(receive(&mut layer, &inbox).is_empty());
        assert!(layer.drain_outgoing().is_empty());
    }
}
