//! Adapter running an [`AlPds`] directly in the AL-model simulator —
//! the reference execution for Theorem 13 ("there exist t-secure PDS schemes
//! in the AL model"), and the baseline the ULS construction is compared
//! against.
//!
//! In the AL model one logical PDS round equals one physical round.
//! Client requests arrive as per-round external inputs (the `x_{i,w}`
//! channel), either as a legacy raw byte string ("sign these bytes in the
//! current unit") or as an encoded [`ClientBatch`] of sign/verify
//! operations from the open-loop workload generator.
//!
//! Responder-side verification is amortized through a [`VerifyWindow`]:
//! requests queue up and flush through the batch-verify path either when
//! the window fills or at the round boundary, with per-item fallback when
//! a batch rejects.

use crate::api::{AlPds, PdsPhase, PdsTime, SignatureRecord};
use crate::als::AlsPds;
use crate::msg::signing_payload;
use proauth_crypto::schnorr::{self, Signature, VerifyKey};
use proauth_sim::clock::Phase;
use proauth_sim::message::OutputEvent;
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use proauth_sim::workload::{ClientBatch, ClientOp};
use proauth_telemetry as telemetry;
use std::collections::VecDeque;

/// How many completed signatures a responder keeps around to serve client
/// verify requests against.
const RECENT_CAP: usize = 256;

/// The responder's amortization window over the batch-verify path: verify
/// requests queue here and are flushed together — on size (the window
/// filled mid-round) or on the round boundary — through
/// [`schnorr::batch_verify`], falling back to per-item verification when a
/// batch rejects.
#[derive(Debug, Default)]
pub struct VerifyWindow {
    queue: Vec<(Vec<u8>, u64, Signature)>,
    /// Flush threshold; `≤ 1` means per-item verification (amortization
    /// off).
    cap: usize,
}

impl VerifyWindow {
    /// A window flushing at `cap` queued items.
    pub fn new(cap: usize) -> Self {
        VerifyWindow {
            queue: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Queues one `(msg, unit, sig)` verification; returns `true` when the
    /// window is full and must flush.
    pub fn push(&mut self, msg: Vec<u8>, unit: u64, sig: Signature) -> bool {
        self.queue.push((msg, unit, sig));
        self.queue.len() >= self.cap
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Verifies everything queued, returning `(msg, ok)` per item in queue
    /// order. Batches of ≥ 2 go through [`schnorr::batch_verify`] (one
    /// table promotion amortized across the batch); a rejecting batch falls
    /// back to per-item verification so one forgery cannot poison its
    /// batch-mates.
    pub fn flush(&mut self, vk: &VerifyKey) -> Vec<(Vec<u8>, bool)> {
        let items = std::mem::take(&mut self.queue);
        if items.is_empty() {
            return Vec::new();
        }
        let payloads: Vec<Vec<u8>> = items
            .iter()
            .map(|(msg, unit, _)| signing_payload(msg, *unit))
            .collect();
        if self.cap > 1 && items.len() >= 2 {
            let batch: Vec<(&[u8], &Signature)> = payloads
                .iter()
                .map(Vec::as_slice)
                .zip(items.iter().map(|(_, _, sig)| sig))
                .collect();
            if schnorr::batch_verify(vk, &batch) {
                telemetry::count("pds/verify_batched", items.len() as u64);
                return items.into_iter().map(|(msg, _, _)| (msg, true)).collect();
            }
            // Fall through: per-item verification pinpoints the bad ones.
        }
        items
            .into_iter()
            .zip(payloads.iter())
            .map(|((msg, _, sig), payload)| {
                let ok = vk.verify(payload, &sig);
                (msg, ok)
            })
            .collect()
    }
}

/// A simulator node executing an ALS instance over authenticated links.
pub struct AlsProcess {
    /// The wrapped PDS state machine (public so adversary strategies can
    /// corrupt it through `state_mut`).
    pub pds: AlsPds,
    /// Recently completed signatures, serving client verify requests.
    recent: VecDeque<SignatureRecord>,
    /// Round-robin cursor over `recent`.
    verify_cursor: usize,
    /// The responder-side amortization window.
    window: VerifyWindow,
}

impl AlsProcess {
    /// Wraps an ALS state machine.
    pub fn new(pds: AlsPds) -> Self {
        let window = VerifyWindow::new(pds.config().verify_window);
        AlsProcess {
            pds,
            recent: VecDeque::new(),
            verify_cursor: 0,
            window,
        }
    }

    /// Applies one client operation from the input channel.
    fn apply_op(&mut self, op: ClientOp, ctx: &mut RoundCtx<'_>) {
        match op {
            ClientOp::Sign { msg } => {
                ctx.emit(OutputEvent::SignRequested {
                    msg: msg.clone(),
                    unit: ctx.time.unit,
                });
                self.pds.request_sign(msg, ctx.time.unit);
            }
            ClientOp::Verify => {
                if self.recent.is_empty() {
                    // Nothing signed yet: the request is a no-op, counted so
                    // benchmark accounting stays honest.
                    telemetry::count("pds/verify_noop", 1);
                    return;
                }
                self.verify_cursor = (self.verify_cursor + 1) % self.recent.len();
                let rec = self.recent[self.verify_cursor].clone();
                if self.window.push(rec.msg, rec.unit, rec.sig) {
                    self.flush_window(ctx);
                }
            }
        }
    }

    /// Flushes the verify window, emitting [`OutputEvent::Verified`] per
    /// accepted item.
    fn flush_window(&mut self, ctx: &mut RoundCtx<'_>) {
        if self.window.is_empty() {
            return;
        }
        // The key is this node's own adopted DKG output (a subgroup member
        // by construction), so the trusted constructor skips the membership
        // modpow that `from_element` would re-pay on every flush.
        let Some(vk) = self
            .pds
            .public_key_element()
            .cloned()
            .map(|pk| VerifyKey::from_element_trusted(&self.pds.config().group, pk))
        else {
            return; // key unknown (wiped mid-recovery): retry next flush
        };
        for (msg, ok) in self.window.flush(&vk) {
            telemetry::count(if ok { "pds/verify_ok" } else { "pds/verify_bad" }, 1);
            if ok {
                ctx.emit(OutputEvent::Verified { msg });
            }
        }
    }
}

/// Maps simulator phases to PDS phases: the PDS refresh protocol (`ARfr`)
/// runs during refresh Part II (Part I belongs to the ULS layer and is a
/// no-op for a bare AL-model PDS).
pub fn pds_time_of(phase: Phase, unit: u64) -> PdsTime {
    match phase {
        Phase::RefreshPart2 { step } => PdsTime {
            unit,
            phase: PdsPhase::Refresh { step },
        },
        _ => PdsTime {
            unit,
            phase: PdsPhase::Normal,
        },
    }
}

impl Process for AlsProcess {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        let inbox: Vec<_> = ctx
            .inbox
            .iter()
            .map(|e| (e.from, e.payload.to_vec()))
            .collect();
        let outs = self.pds.on_setup_round(ctx.setup_round, &inbox, ctx.rng);
        // Burn the joint verification key into ROM once available.
        if let Some(pk) = self.pds.public_key() {
            ctx.rom.write("v_cert", pk);
        }
        for env in outs {
            ctx.send(env.to, env.payload);
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        // External input: a workload batch of sign/verify operations, or a
        // legacy raw "sign these bytes" input.
        if let Some(input) = ctx.input {
            match ClientBatch::from_bytes(input) {
                Some(batch) => {
                    for op in batch.ops {
                        self.apply_op(op, ctx);
                    }
                }
                None => {
                    let msg = input.to_vec();
                    ctx.emit(OutputEvent::SignRequested {
                        msg: msg.clone(),
                        unit: ctx.time.unit,
                    });
                    self.pds.request_sign(msg, ctx.time.unit);
                }
            }
        }
        let time = pds_time_of(ctx.time.phase, ctx.time.unit);
        let inbox: Vec<_> = ctx
            .inbox
            .iter()
            .map(|e| (e.from, e.payload.to_vec()))
            .collect();
        let outs = self.pds.on_logical_round(time, &inbox, ctx.rng);
        for env in outs {
            ctx.send(env.to, env.payload);
        }
        for rec in self.pds.take_completed() {
            ctx.emit(OutputEvent::Signed {
                msg: rec.msg.clone(),
                unit: rec.unit,
            });
            self.recent.push_back(rec);
            if self.recent.len() > RECENT_CAP {
                self.recent.pop_front();
            }
        }
        // Round boundary: whatever verification queued this round flushes
        // now, so client-visible latency is bounded by one round.
        self.flush_window(ctx);
        // Alert on refresh failure, mirroring the ULS behaviour (§4.2.3).
        if ctx.time.phase == (Phase::RefreshPart2 { step: 6 }) && self.pds.refresh_failed() {
            ctx.emit(OutputEvent::Alert);
        }
    }

    fn state_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
