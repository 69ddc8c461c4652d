//! Micro rows of the per-layer table: each times calls into one public
//! function of a layer at the workload's operand sizes (its group, `n`, `t`)
//! in at least five batches and reports the fastest batch per call.

use crate::report::Metric;
use crate::workload::Spec;
use proauth_core::certify::{certify, LocalKeys};
use proauth_core::wire::{Blob, DisperseMsg, Inner, UlsWire};
use proauth_crypto::dkg::{self, KeyShare, ReceivedDealing};
use proauth_crypto::feldman::{batch_verify_shares, Dealing, ShareCheck};
use proauth_crypto::group::Group;
use proauth_crypto::refresh;
use proauth_crypto::schnorr::{self, Signature, SigningKey};
use proauth_crypto::shamir;
use proauth_crypto::thresh::{self, NoncePool, PartialCheck};
use proauth_primitives::bigint::BigUint;
use proauth_primitives::hmac::hmac_sha256;
use proauth_primitives::montgomery::Montgomery;
use proauth_primitives::sha256::Sha256;
use proauth_primitives::wire::{Decode, Encode, InternedBlob};
use proauth_sim::message::NodeId;
use proauth_sim::net::{encode_frame, FrameDecoder, NetMsg, StateDir, Watermark};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Batches per row.
const BATCHES: usize = 5;
/// Target length of one batch, seconds.
const BATCH_S: f64 = 0.004;

/// Seconds per call: the fastest of [`BATCHES`] batches. `setup` builds a
/// batch's inputs outside the timed part; `call` gets them and the call's
/// index within the batch. The batch size is calibrated from one probe
/// call, capped by `max_calls` (rows whose inputs are consumed need that).
fn fastest<S, T>(
    max_calls: usize,
    mut setup: impl FnMut() -> S,
    mut call: impl FnMut(&mut S, usize) -> T,
) -> f64 {
    let mut state = setup();
    let probe = Instant::now();
    black_box(call(&mut state, 0));
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let calls = ((BATCH_S / once) as usize).clamp(1, max_calls.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let mut state = setup();
        let start = Instant::now();
        for i in 0..calls {
            black_box(call(&mut state, i));
        }
        best = best.min(start.elapsed().as_secs_f64() / calls as f64);
    }
    best
}

/// [`fastest`] for calls that need no per-batch inputs.
fn fastest_call<T>(mut call: impl FnMut() -> T) -> f64 {
    fastest(1 << 20, || (), |(), _| call())
}

fn dkg_keys(group: &Group, n: usize, t: usize, rng: &mut StdRng) -> Vec<KeyShare> {
    let dealings: Vec<Dealing> = (0..n).map(|_| dkg::deal(group, t, n, rng)).collect();
    (1..=n as u32)
        .map(|me| {
            let received: Vec<ReceivedDealing> = dealings
                .iter()
                .enumerate()
                .map(|(i, d)| ReceivedDealing {
                    dealer: i as u32 + 1,
                    commitments: d.commitments.clone(),
                    share: d.share_for(me).clone(),
                })
                .collect();
            dkg::aggregate(group, t, n, me, &received).expect("honest dealings aggregate")
        })
        .collect()
}

/// A representative physical payload: an AUTH-SEND heartbeat inside a
/// DISPERSE forward, as the wire carries it.
fn sample_wire(group: &Group, rng: &mut StdRng) -> (UlsWire, InternedBlob) {
    let ca = SigningKey::generate(group, rng);
    let mut keys = LocalKeys::generate(group, 1, rng);
    let statement = proauth_pds::statement::key_statement(NodeId(1), 1, &keys.vk_bytes());
    keys.cert = Some(ca.sign(&proauth_pds::msg::signing_payload(&statement, 1), rng));
    let inner = Inner::App(b"hb:1:100".to_vec()).to_bytes();
    let msg =
        certify(&keys, &inner, NodeId(1), NodeId(2), 80, rng).expect("certified keys certify");
    let blob = Blob::Certified(msg).intern();
    let wire = UlsWire::Disperse(DisperseMsg::Forward {
        origin: 1,
        dst: 2,
        blob: blob.clone(),
    });
    (wire, blob)
}

/// Every micro row, for the workload's group and `(n, t)`.
pub fn rows(spec: &Spec, out_dir: &Path) -> Vec<Metric> {
    let group = Group::new(spec.group);
    let (n, t) = (spec.n, spec.t);
    let mut rng = StdRng::seed_from_u64(0x6d6963726f);
    let mut out: Vec<Metric> = Vec::new();
    let mut row = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(
            name,
            value,
            unit,
            BATCHES,
            "fastest batch, per call",
        ));
    };
    let (us, ns) = (1e6, 1e9);

    // ---- primitives ------------------------------------------------------
    let ctx = Montgomery::new(group.p()).expect("odd modulus");
    let a = ctx.to_mont(&BigUint::random_below(&mut rng, group.p()));
    let b = ctx.to_mont(&BigUint::random_below(&mut rng, group.p()));
    row(
        "primitives.montgomery.mul_ns",
        fastest_call(|| ctx.mont_mul(&a, &b)) * ns,
        "ns",
    );
    let base = group.exp_g(&group.random_scalar(&mut rng));
    let exp = group.random_scalar(&mut rng);
    row(
        "primitives.montgomery.modpow_us",
        fastest_call(|| ctx.modpow(&base, &exp)) * us,
        "us",
    );
    let table = ctx.precompute(&base, group.q().bits());
    row(
        "primitives.montgomery.modpow_fixed_us",
        fastest_call(|| ctx.modpow_fixed(&table, &exp)) * us,
        "us",
    );
    let x = group.random_nonzero_scalar(&mut rng);
    row(
        "primitives.bigint.modinv_us",
        fastest_call(|| x.inv_mod_prime(group.q())) * us,
        "us",
    );
    let buf = vec![0xabu8; 64 * 1024];
    let per_hash = fastest_call(|| Sha256::digest(&buf));
    row(
        "primitives.sha256.mib_per_s",
        buf.len() as f64 / (1024.0 * 1024.0) / per_hash,
        "MiB/s",
    );
    let key = [7u8; 32];
    row(
        "primitives.hmac.tag_us",
        fastest_call(|| hmac_sha256(&key, &buf[..256])) * us,
        "us",
    );
    let (wire, blob) = sample_wire(&group, &mut rng);
    let encoded = wire.to_bytes();
    let kib = encoded.len() as f64 / 1024.0;
    row(
        "primitives.wire.encode_ns_per_kib",
        fastest_call(|| wire.to_bytes()) * ns / kib,
        "ns/KiB",
    );
    row(
        "primitives.wire.decode_ns_per_kib",
        fastest_call(|| UlsWire::from_bytes(&encoded)) * ns / kib,
        "ns/KiB",
    );
    let blob_bytes = blob.as_bytes().to_vec();
    row(
        "primitives.wire.blob_digest_ns",
        fastest_call(|| *InternedBlob::new(blob_bytes.clone()).digest()) * ns,
        "ns",
    );

    // ---- crypto: group -----------------------------------------------------
    // One-shot bases: each is seen once, so the promotion heuristic never
    // fires and this times the generic (table-less) exponentiation.
    let fresh_bases: Vec<BigUint> = (0..320)
        .map(|_| group.exp_g(&group.random_scalar(&mut rng)))
        .collect();
    let per = fresh_bases.len() / (BATCHES + 1);
    let mut next = 0;
    row(
        "crypto.group.exp_us",
        fastest(
            per,
            || {
                let slice = &fresh_bases[next..next + per];
                next += per;
                slice
            },
            |bases, i| group.exp(&bases[i], &exp),
        ) * us,
        "us",
    );
    row(
        "crypto.group.exp_g_us",
        fastest_call(|| group.exp_g(&exp)) * us,
        "us",
    );
    let scalars: Vec<BigUint> = (0..=t).map(|_| group.random_scalar(&mut rng)).collect();
    let pairs: Vec<(&BigUint, &BigUint)> = fresh_bases.iter().zip(&scalars).collect();
    row(
        "crypto.group.multi_exp_us_per_term",
        fastest_call(|| group.multi_exp(&pairs)) * us / pairs.len() as f64,
        "us",
    );
    // The cache never evicts and stops at 128 tables: a fresh group per
    // batch, and at most 64 promotions in it.
    row(
        "crypto.group.promote_us",
        fastest(
            64,
            || Group::new(spec.group),
            |g, i| g.promote(&fresh_bases[i]),
        ) * us,
        "us",
    );

    // ---- crypto: schnorr ---------------------------------------------------
    let sk = SigningKey::generate(&group, &mut rng);
    let msg = [0x5au8; 64];
    let mut sign_rng = StdRng::seed_from_u64(2);
    row(
        "crypto.schnorr.sign_us",
        fastest_call(|| sk.sign(&msg, &mut sign_rng)) * us,
        "us",
    );
    let sig = sk.sign(&msg, &mut rng);
    let vk = sk.verify_key().clone();
    row(
        "crypto.schnorr.verify_us",
        fastest_call(|| vk.verify(&msg, &sig)) * us,
        "us",
    );
    let batch_msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 64]).collect();
    let batch_sigs: Vec<Signature> = batch_msgs.iter().map(|m| sk.sign(m, &mut rng)).collect();
    let batch: Vec<(&[u8], &Signature)> = batch_msgs
        .iter()
        .map(Vec::as_slice)
        .zip(&batch_sigs)
        .collect();
    row(
        "crypto.schnorr.batch_verify_us_per_sig",
        fastest_call(|| schnorr::batch_verify(&vk, &batch)) * us / batch.len() as f64,
        "us",
    );

    // ---- crypto: feldman, refresh, dkg -------------------------------------
    let mut deal_rng = StdRng::seed_from_u64(3);
    row(
        "crypto.feldman.deal_us",
        fastest_call(|| Dealing::deal(&group, t, n, BigUint::from_u64(42), &mut deal_rng)) * us,
        "us",
    );
    let dealings: Vec<Dealing> = (0..n).map(|_| dkg::deal(&group, t, n, &mut rng)).collect();
    row(
        "crypto.feldman.verify_share_us",
        fastest_call(|| {
            dealings[0]
                .commitments
                .verify_share_in(&group, 1, dealings[0].share_for(1))
        }) * us,
        "us",
    );
    let checks: Vec<ShareCheck<'_>> = dealings
        .iter()
        .map(|d| ShareCheck {
            commitments: &d.commitments,
            index: 1,
            share: d.share_for(1),
        })
        .collect();
    row(
        "crypto.feldman.batch_verify_us_per_share",
        fastest_call(|| batch_verify_shares(&group, &checks)) * us / checks.len() as f64,
        "us",
    );
    row(
        "crypto.refresh.deal_update_us",
        fastest_call(|| refresh::deal_update(&group, t, n, &mut deal_rng)) * us,
        "us",
    );
    let keys = dkg_keys(&group, n, t, &mut rng);
    let values: Vec<refresh::RecoveryValue> = keys[1..=t + 1]
        .iter()
        .map(|k| refresh::recovery_value(&group, k, &[]))
        .collect();
    row(
        "crypto.refresh.recover_share_us",
        fastest_call(|| refresh::recover_share(&group, t, 1, &values)) * us,
        "us",
    );
    let mut dkg_rng = StdRng::seed_from_u64(4);
    row(
        "crypto.dkg.run_ms",
        fastest(4, || (), |(), _| dkg_keys(&group, n, t, &mut dkg_rng)) * 1e3,
        "ms",
    );

    // ---- crypto: threshold signing -----------------------------------------
    let signer_set: Vec<u32> = (1..=t as u32 + 1).collect();
    let nonces: Vec<thresh::Nonce> = signer_set
        .iter()
        .map(|_| thresh::generate_nonce(&group, &mut rng))
        .collect();
    let commitments: Vec<BigUint> = nonces.iter().map(|k| k.commitment.clone()).collect();
    let combined = thresh::combine_nonces(&group, &commitments);
    let e = thresh::challenge(&group, &combined, &keys[0].public_key, &msg);
    row(
        "crypto.thresh.partial_us",
        fastest_call(|| thresh::partial_sign(&group, &keys[0], &signer_set, &nonces[0], &e)) * us,
        "us",
    );
    let partials: Vec<BigUint> = signer_set
        .iter()
        .zip(&nonces)
        .map(|(&i, k)| thresh::partial_sign(&group, &keys[i as usize - 1], &signer_set, k, &e))
        .collect();
    row(
        "crypto.thresh.combine_us",
        fastest_call(|| thresh::combine_partials(&group, &e, &partials)) * us,
        "us",
    );
    let partial_checks: Vec<PartialCheck<'_>> = signer_set
        .iter()
        .enumerate()
        .map(|(slot, &i)| PartialCheck {
            signer: i,
            share_key: keys[0].share_key(i),
            nonce_commitment: &commitments[slot],
            z_i: &partials[slot],
        })
        .collect();
    row(
        "crypto.thresh.batch_partials_us_per_partial",
        fastest_call(|| thresh::batch_verify_partials(&group, &signer_set, &e, &partial_checks))
            * us
            / partial_checks.len() as f64,
        "us",
    );
    let mut pool_rng = StdRng::seed_from_u64(5);
    let pool_size = 32;
    row(
        "crypto.thresh.nonce_refill_us",
        fastest(
            1,
            || NoncePool::new(pool_size),
            |pool, _| pool.refill(&group, &mut pool_rng),
        ) * us
            / pool_size as f64,
        "us",
    );
    row(
        "crypto.shamir.lagrange_us",
        fastest_call(|| shamir::lagrange_coeffs_at_zero(&group, &signer_set)) * us,
        "us",
    );

    // ---- sim::net codec and durable state ----------------------------------
    let payload = encoded;
    let mut frame = Vec::with_capacity(payload.len() + 4);
    row(
        "sim.net.frame.encode_ns",
        fastest_call(|| {
            frame.clear();
            encode_frame(&mut frame, &payload);
            frame.len()
        }) * ns,
        "ns",
    );
    let mut framed = Vec::new();
    encode_frame(&mut framed, &payload);
    let mut decoder = FrameDecoder::new();
    row(
        "sim.net.frame.decode_ns",
        fastest_call(|| {
            decoder.push(&framed);
            decoder.next_frame()
        }) * ns,
        "ns",
    );
    let round_msg = NetMsg::Round {
        round: 80,
        seq: 3,
        from: NodeId(1),
        to: NodeId(2),
        payload: payload.clone(),
    };
    row(
        "sim.net.msg.round_encode_ns",
        fastest_call(|| round_msg.to_bytes()) * ns,
        "ns",
    );
    let round_bytes = round_msg.to_bytes();
    row(
        "sim.net.msg.round_decode_ns",
        fastest_call(|| NetMsg::from_bytes(&round_bytes)) * ns,
        "ns",
    );
    let state_root = out_dir.join(format!("state-{}", std::process::id()));
    let watermark_us = match StateDir::open(&state_root, 1) {
        Ok(dir) => {
            let mut round = 0;
            fastest(
                8,
                || (),
                |(), _| {
                    round += 1;
                    dir.save_watermark(Watermark {
                        completed_rounds: round,
                        epoch: round / 44,
                    })
                },
            ) * us
        }
        Err(_) => 0.0,
    };
    let _ = std::fs::remove_dir_all(&state_root);
    row("sim.net.state.watermark_write_us", watermark_us, "us");
    out
}
