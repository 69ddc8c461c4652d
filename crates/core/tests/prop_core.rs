//! Property tests for the core protocol components: wire-format fuzzing
//! (decoders must never panic and must roundtrip, the borrowed DISPERSE view
//! must agree with the owned decoder), DISPERSE delivery invariants,
//! PARTIAL-AGREEMENT's Lemma-16 property under arbitrary cheater behaviour
//! and its evidence filter, and CERTIFY/VER-CERT binding.

use proauth_core::certify::{certify, ver_cert, DestCheck, LocalKeys};
use proauth_core::partition::{flat_min_breakins, Partition};
use proauth_core::disperse::{DisperseLayer, DisperseMode};
use proauth_core::pa::PaInstance;
use proauth_core::wire::{Blob, CertifiedMsg, DisperseMsg, DisperseView, Inner, UlsWire};
use proauth_crypto::group::{Group, GroupId};
use proauth_crypto::schnorr::{Signature, SigningKey};
use proauth_pds::msg::signing_payload;
use proauth_pds::statement::key_statement;
use proauth_primitives::bigint::BigUint;
use proauth_primitives::wire::{Decode, Encode};
use proauth_sim::message::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

fn sig_strategy() -> impl Strategy<Value = Signature> {
    (any::<u64>(), any::<u64>()).prop_map(|(e, s)| Signature {
        e: BigUint::from_u64(e),
        s: BigUint::from_u64(s),
    })
}

fn certified_strategy() -> impl Strategy<Value = CertifiedMsg> {
    (
        proptest::collection::vec(any::<u8>(), 0..40),
        1u32..10,
        1u32..10,
        any::<u64>(),
        any::<u64>(),
        sig_strategy(),
        proptest::collection::vec(any::<u8>(), 0..20),
        sig_strategy(),
    )
        .prop_map(|(m, i, j, u, w, sig, vk, cert)| CertifiedMsg {
            m,
            i,
            j,
            u,
            w,
            sig,
            vk,
            cert,
        })
}

/// The borrowed DISPERSE view must read a payload exactly as the owned
/// decoder does: `Some` iff that returns a `Disperse`, with equal fields.
fn assert_view_matches_owned_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
    let owned = match UlsWire::from_bytes(bytes) {
        Ok(UlsWire::Disperse(msg)) => Some(msg),
        _ => None,
    };
    let view = DisperseView::parse(bytes);
    prop_assert_eq!(view, owned.as_ref().map(DisperseMsg::view));
    if let Some(view) = view {
        prop_assert_eq!(&view.to_payload()[..], bytes, "encoding is canonical");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wire_decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = UlsWire::from_bytes(&bytes);
        let _ = Blob::from_bytes(&bytes);
        let _ = Inner::from_bytes(&bytes);
        let _ = CertifiedMsg::from_bytes(&bytes);
        let _ = DisperseMsg::from_bytes(&bytes);
        assert_view_matches_owned_decode(&bytes)?;
    }

    #[test]
    fn disperse_view_agrees_with_owned_decode_on_mutated_encodings(
        forward in any::<bool>(),
        origin in any::<u32>(),
        dst in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..40),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..3),
        cut in proptest::option::of(any::<usize>()),
        tail in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        let msg = if forward {
            DisperseMsg::Forward { origin, dst, blob: body.into() }
        } else {
            DisperseMsg::Forwarding { origin, blob: body.into() }
        };
        // A valid encoding, then damaged: flipped bytes (tags and length
        // prefixes included), truncated, trailing bytes appended.
        let mut bytes = UlsWire::Disperse(msg).to_bytes();
        assert_view_matches_owned_decode(&bytes)?;
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        bytes.extend_from_slice(&tail);
        assert_view_matches_owned_decode(&bytes)?;
    }

    #[test]
    fn certified_msg_roundtrips(msg in certified_strategy()) {
        prop_assert_eq!(CertifiedMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn blob_roundtrips(msg in certified_strategy(), subject in 1u32..10) {
        for blob in [
            Blob::Certified(msg.clone()),
            Blob::Evidence { subject, msg: msg.clone() },
        ] {
            prop_assert_eq!(Blob::from_bytes(&blob.to_bytes()).unwrap(), blob);
        }
    }

    #[test]
    fn disperse_send_reaches_destination_via_any_honest_relay(
        n in 3usize..10,
        dst_raw in 2u32..10,
        relay_raw in 2u32..10,
        payload in proptest::collection::vec(any::<u8>(), 1..20),
    ) {
        let dst = NodeId((dst_raw % (n as u32 - 1)) + 2);
        let relay = NodeId((relay_raw % (n as u32 - 1)) + 2);
        prop_assume!(relay != dst);
        // 1 sends to dst; route the Forward through `relay` by hand.
        let mut sender = DisperseLayer::new(NodeId(1), n, DisperseMode::Full);
        sender.send(dst, payload.clone().into());
        let out = sender.drain_outgoing();
        // One shared entry; the fan-out covers the relay.
        let to_relay = out.iter().find(|e| e.to.contains(&relay)).expect("fanout covers relay");
        let mut relay_layer = DisperseLayer::new(relay, n, DisperseMode::Full);
        prop_assert!(relay_layer.receive([&to_relay.payload[..]]).is_empty());
        let fwds = relay_layer.drain_outgoing();
        prop_assert_eq!(fwds.len(), 1);
        prop_assert_eq!(&fwds[0].to, &vec![dst]);
        // Destination receives it on the next round.
        let mut dst_layer = DisperseLayer::new(dst, n, DisperseMode::Full);
        let delivered = dst_layer.receive([&fwds[0].payload[..]]);
        prop_assert_eq!(delivered, vec![(1u32, payload.into())]);
    }

    #[test]
    fn pa_never_splits_under_arbitrary_cheater_values(
        n in 3usize..=13,
        cheaters_raw in any::<usize>(),
        // Honest inputs, one per node, from a pool of two values.
        honest_inputs in proptest::collection::vec(any::<bool>(), 13),
        cheater_values in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..3), 1..8),
        seed in any::<u64>(),
    ) {
        // Lemma 16 with up to ⌊(n−1)/2⌋ cheaters (nodes 1..=c), each sending
        // every recipient its own value: one of the two honest inputs or an
        // arbitrary one. Honest nodes relay everything as evidence.
        let cheaters = cheaters_raw % ((n - 1) / 2 + 1);
        let is_cheater = |node: u32| node as usize <= cheaters;
        let honest: Vec<u32> = (1..=n as u32).filter(|&i| !is_cheater(i)).collect();
        let pool = [b"h".to_vec(), b"g".to_vec()];
        let input = |node: u32| pool[usize::from(honest_inputs[node as usize - 1])].clone();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let mut instances: Vec<PaInstance> = (0..n).map(|_| PaInstance::new(n)).collect();
        let mut sent: Vec<Vec<Vec<u8>>> = vec![vec![Vec::new(); n]; n];
        for sender in 1..=n as u32 {
            for recv in 1..=n as u32 {
                let value = if !is_cheater(sender) {
                    input(sender)
                } else if rng.gen_bool(0.5) {
                    pool[rng.gen_range(0..2usize)].clone()
                } else {
                    cheater_values[rng.gen_range(0..cheater_values.len())].clone()
                };
                sent[(sender - 1) as usize][(recv - 1) as usize] = value.clone();
                instances[(recv - 1) as usize].on_accepted_value(sender, value);
            }
        }
        for inst in &mut instances {
            inst.fix_majority();
        }
        let mut evidence: Vec<(u32, Vec<u8>)> = Vec::new();
        for &recv in &honest {
            for sender in 1..=n as u32 {
                evidence.push((sender, sent[(sender - 1) as usize][(recv - 1) as usize].clone()));
            }
        }
        for inst in &mut instances {
            for (s, v) in &evidence {
                inst.on_evidence(*s, v.clone());
            }
        }
        let outputs: Vec<Option<Vec<u8>>> = honest
            .iter()
            .map(|&i| instances[(i - 1) as usize].decide())
            .collect();
        // Property 2: one value y with every honest output in {y, φ}.
        let decided: BTreeSet<&Vec<u8>> = outputs.iter().flatten().collect();
        prop_assert!(decided.len() <= 1, "split: {decided:?}");
        // Property 1: honest nodes that share an input all output it. The
        // cheaters cannot even force φ — the honest majority's value wins.
        if honest.iter().all(|&i| input(i) == input(honest[0])) {
            let v = input(honest[0]);
            prop_assert!(outputs.iter().all(|o| o.as_ref() == Some(&v)), "{outputs:?}");
        }
    }

    #[test]
    fn pa_decides_the_same_from_only_the_evidence_that_matters(
        n in 3usize..8,
        // Step-1 value per (sender, receiver), from a pool of three: 0 is
        // the honest input, so any sender may equivocate towards anyone.
        step1 in proptest::collection::vec(0u8..3, 64),
        cheaters in proptest::collection::vec(any::<bool>(), 8),
        // The evidence stream, in arrival order: (certifier, value) pairs,
        // true relays and adversarial inventions alike.
        stream in proptest::collection::vec((1u32..9, 0u8..4), 0..60),
    ) {
        for recv in 1..=n as u32 {
            let mut all = PaInstance::new(n);
            for sender in 1..=n as u32 {
                let v = if cheaters[sender as usize % 8] {
                    step1[(sender as usize * 8 + recv as usize) % 64]
                } else {
                    0
                };
                all.on_accepted_value(sender, vec![v]);
            }
            all.fix_majority();
            let mut filtered = all.clone();
            for (certifier, v) in &stream {
                all.on_evidence(*certifier, vec![*v]);
                if filtered.evidence_matters(*certifier, &[*v]) {
                    filtered.on_evidence(*certifier, vec![*v]);
                }
                // Not only at the end: after every item.
                prop_assert_eq!(filtered.decide(), all.decide(), "node {}", recv);
            }
            prop_assert_eq!(filtered.decide(), all.decide(), "node {}", recv);
        }
    }

    #[test]
    fn partitions_cover_all_nodes_without_empty_clusters(
        n in 1usize..300,
        cluster_size in 1usize..40,
    ) {
        for p in [
            Partition::contiguous(n, cluster_size),
            Partition::sqrt(n),
            Partition::balanced(n, cluster_size.min(n)),
        ] {
            prop_assert!(p.covers(n), "covers 1..={n}: {:?}", p.clusters);
            prop_assert!(p.clusters.iter().all(|c| !c.is_empty()));
            // Every node maps back to the cluster that lists it.
            for (c, members) in p.clusters.iter().enumerate() {
                for &m in members {
                    prop_assert_eq!(p.cluster_of(m), Some(c));
                }
            }
        }
    }

    #[test]
    fn sqrt_partition_is_balanced_on_non_squares(n in 2usize..300) {
        let p = Partition::sqrt(n);
        let sizes: Vec<usize> = p.clusters.iter().map(Vec::len).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "n = {n}: sizes {sizes:?}");
        // Cluster count tracks √n (the paper's shape claim).
        let k = p.cluster_count() as f64;
        prop_assert!(k >= (n as f64).sqrt() - 1.0 && k <= (n as f64).sqrt() + 1.0);
    }

    #[test]
    fn min_breakins_bounded_by_cluster_majorities(n in 3usize..300) {
        // An optimal adversary still has to take a majority in a majority of
        // clusters; with balanced clusters that is at least the flat bound
        // of the smallest cluster, and at least a quarter of the network
        // minus the rounding slack of one node per attacked cluster.
        let p = Partition::sqrt(n);
        let smallest = p.clusters.iter().map(Vec::len).min().unwrap();
        let need = p.min_breakins_to_compromise();
        prop_assert!(need >= flat_min_breakins(smallest));
        let k = p.cluster_count();
        prop_assert!(need >= (k / 2 + 1) * (smallest / 2 + 1));
        prop_assert!(need > n / 4, "n = {n}: {need} break-ins ≤ n/4");
        // And it never exceeds what compromising every node would take.
        prop_assert!(need <= n);
    }

    #[test]
    fn ver_cert_binds_every_field(
        m in proptest::collection::vec(any::<u8>(), 1..30),
        w in 2u64..1_000,
        unit in 1u64..100,
        flip in 0usize..5,
    ) {
        let group = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(w ^ unit);
        let ca = SigningKey::generate(&group, &mut rng);
        let mut keys = LocalKeys::generate(&group, unit, &mut rng);
        let st = key_statement(NodeId(1), unit, &keys.vk_bytes());
        keys.cert = Some(ca.sign(&signing_payload(&st, unit), &mut rng));
        let msg = certify(&keys, &m, NodeId(1), NodeId(2), w, &mut rng).unwrap();
        let v_cert = ca.verify_key().element().clone();
        // Correct parameters verify.
        prop_assert!(ver_cert(&group, DestCheck::Me(NodeId(2)), NodeId(1), unit, w, &msg, &v_cert));
        // Flip one binding: must fail.
        let ok = match flip {
            0 => ver_cert(&group, DestCheck::Me(NodeId(2)), NodeId(3), unit, w, &msg, &v_cert),
            1 => ver_cert(&group, DestCheck::Me(NodeId(3)), NodeId(1), unit, w, &msg, &v_cert),
            2 => ver_cert(&group, DestCheck::Me(NodeId(2)), NodeId(1), unit + 1, w, &msg, &v_cert),
            3 => ver_cert(&group, DestCheck::Me(NodeId(2)), NodeId(1), unit, w + 1, &msg, &v_cert),
            _ => {
                let mut tampered = msg.clone();
                tampered.m.push(0);
                ver_cert(&group, DestCheck::Me(NodeId(2)), NodeId(1), unit, w, &tampered, &v_cert)
            }
        };
        prop_assert!(!ok, "flip {flip} must invalidate");
    }
}
