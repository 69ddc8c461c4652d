//! Correctness checks and operation accounting, over what any observer of a
//! run can see: the nodes' output logs and ROMs, the traffic captured on the
//! wire, and the adversary's break-in schedule.
//!
//! An *operation* is one of: an authenticated heartbeat delivery between two
//! nodes the adversary left alone in that unit; one node's refresh in one
//! timed unit; one threshold-sign request. A missing one is a failure — the
//! workloads are chosen so that none fails.

use crate::workload::{Scenario, REFRESH_ROUNDS, SIGN_SPAN_ROUNDS};
use proauth_core::awareness::find_impersonations;
use proauth_core::certify::{ver_cert, DestCheck};
use proauth_core::wire::{Blob, DisperseMsg, UlsWire};
use proauth_crypto::group::Group;
use proauth_primitives::bigint::BigUint;
use proauth_primitives::wire::Decode;
use proauth_sim::message::{Envelope, NodeId, OutputEvent, OutputLog};
use proauth_sim::process::Rom;
use std::collections::{HashMap, HashSet};

/// Everything the checks look at.
pub struct Evidence<'a> {
    /// The run.
    pub sc: &'a Scenario,
    /// Per-node output logs.
    pub outputs: &'a [OutputLog],
    /// Per-node ROMs.
    pub roms: &'a [Rom],
    /// Traffic captured at one round per unit: `(round, envelopes)`.
    pub samples: &'a [(u64, Vec<Envelope>)],
    /// Break-ins `(round, node)`.
    pub break_ins: &'a [(u64, NodeId)],
    /// Distinct impaired nodes per unit, as the engine or collector counted.
    pub impaired_per_unit: &'a [u64],
    /// Test hook: flip one byte of the first captured certificate before
    /// verifying it. The verdict must come out incorrect.
    pub tamper: bool,
}

/// The outcome of the checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted in the timed units.
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// Certified messages verified under the ROM key.
    pub certs_verified: u64,
    /// Distinct authenticated payload bytes accepted in the timed units.
    pub accepted_bytes: u64,
    /// Distinct messages signed in the timed units.
    pub signed_msgs: u64,
    /// For each sign request of the timed units, in request order:
    /// `(request round, round of the first Signed)`.
    pub sign_spans: Vec<(u64, u64)>,
    /// Units from a victim's release to its first heartbeat accepted again.
    pub recovery_units: Vec<u64>,
    /// What went wrong, if anything (empty ⇔ correct).
    pub problems: Vec<String>,
}

impl Verdict {
    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// Runs every check that needs only logs, ROMs and captured traffic.
pub fn check(ev: &Evidence<'_>) -> Verdict {
    let mut v = Verdict::default();
    let sc = ev.sc;
    let n = sc.spec.n;
    let unit_rounds = sc.unit_rounds();
    let total = sc.total_rounds();
    let timed = sc.timed_start()..total;
    let unit_of = |round: u64| round / unit_rounds;

    // Victims per unit: broken into at some round of that unit.
    let mut victims: HashSet<(u64, u32)> = HashSet::new();
    for &(round, id) in ev.break_ins {
        victims.insert((unit_of(round), id.0));
    }
    let clean = |id: u32, unit: u64| !victims.contains(&(unit, id));

    // 1. One verification key, burnt into every ROM.
    let v_cert = ev
        .roms
        .first()
        .and_then(|r| r.read("v_cert"))
        .map(<[u8]>::to_vec);
    match &v_cert {
        None => v.problem("node 1 has no v_cert in ROM".into()),
        Some(key) => {
            for (i, rom) in ev.roms.iter().enumerate() {
                if rom.read("v_cert") != Some(key.as_slice()) {
                    v.problem(format!("node {} disagrees on v_cert", i + 1));
                }
            }
        }
    }
    if ev.roms.len() != n || ev.outputs.len() != n {
        v.problem(format!(
            "expected {n} logs and ROMs, got {} and {}",
            ev.outputs.len(),
            ev.roms.len()
        ));
        return v;
    }

    // 2. The PDS signatures an observer can see — the certificate inside
    //    every AUTH-SEND message — verify under that key, and so does the
    //    sender's own signature (VER-CERT, Fig. 3).
    if let Some(key) = &v_cert {
        verify_samples(ev, &BigUint::from_bytes_be(key), &mut v);
    }

    // 3. Alerts, forgeries, the (s,t) limit.
    let alerts = count_events(ev.outputs, |e| *e == OutputEvent::Alert);
    if alerts > 0 {
        v.problem(format!("{alerts} alerts raised"));
    }
    let forged = find_impersonations(ev.outputs, &sc.schedule, |id, unit| !clean(id.0, unit));
    if !forged.is_empty() {
        v.problem(format!("{} forged messages accepted", forged.len()));
    }
    if let Some((unit, &count)) = ev
        .impaired_per_unit
        .iter()
        .enumerate()
        .find(|(_, &c)| c > sc.spec.t as u64)
    {
        v.problem(format!(
            "unit {unit}: {count} nodes impaired, limit t = {}",
            sc.spec.t
        ));
    }

    // Index the logs once: what each node accepted, sent and saw signed.
    let mut accepted: Vec<HashMap<(u32, &[u8]), u64>> = vec![HashMap::new(); n];
    let mut sent: Vec<HashMap<(u32, &[u8]), u64>> = vec![HashMap::new(); n];
    let mut signed: Vec<HashMap<&[u8], u64>> = vec![HashMap::new(); n];
    for (idx, log) in ev.outputs.iter().enumerate() {
        for (round, event) in log {
            match event {
                OutputEvent::Accepted { from, msg } => {
                    accepted[idx]
                        .entry((from.0, msg.as_slice()))
                        .or_insert(*round);
                }
                OutputEvent::Sent { to, msg } => {
                    sent[idx].entry((to.0, msg.as_slice())).or_insert(*round);
                }
                OutputEvent::Signed { msg, .. } => {
                    signed[idx].entry(msg.as_slice()).or_insert(*round);
                }
                _ => {}
            }
        }
    }

    // 4. Heartbeats: everything a clean node sent to a clean node, and whose
    //    delivery tick lies inside the run, must have been accepted.
    let accept_round = |round: u64| {
        let k = round % unit_rounds;
        if k + 2 < unit_rounds {
            round + 2
        } else {
            (unit_of(round) + 1) * unit_rounds + REFRESH_ROUNDS
        }
    };
    for (idx, log) in sent.iter().enumerate() {
        let from = idx as u32 + 1;
        for (&(to, msg), &round) in log {
            let unit = unit_of(round);
            if !timed.contains(&round) || accept_round(round) >= total {
                continue;
            }
            if !clean(from, unit) || !clean(to, unit) {
                continue;
            }
            v.attempted += 1;
            if !accepted[to as usize - 1].contains_key(&(from, msg)) {
                v.failed += 1;
                v.problem(format!(
                    "heartbeat {from}->{to} of round {round} never accepted"
                ));
            }
        }
    }
    for log in &accepted {
        for (&(_, msg), &round) in log {
            if timed.contains(&round) {
                v.accepted_bytes += msg.len() as u64;
            }
        }
    }

    // Who was heard in which unit under that unit's keys: a peer accepted a
    // heartbeat of theirs after the first tick of the unit's normal phase.
    let mut heard: HashSet<(u64, u32)> = HashSet::new();
    for log in &accepted {
        for (&(from, _), &round) in log {
            if round % unit_rounds > REFRESH_ROUNDS {
                heard.insert((unit_of(round), from));
            }
        }
    }

    // 5. Refresh: node i completed the refresh of unit u if it raised no
    //    alert in u and was heard in u.
    for unit in 1..=sc.units {
        for id in 1..=n as u32 {
            v.attempted += 1;
            let alerted = ev.outputs[id as usize - 1]
                .iter()
                .any(|(r, e)| *e == OutputEvent::Alert && unit_of(*r) == unit);
            if alerted || !heard.contains(&(unit, id)) {
                v.failed += 1;
                v.problem(format!(
                    "node {id} did not complete the refresh of unit {unit}"
                ));
            }
        }
    }

    // 6. Recovery: a node wiped in unit u must be heard again, under fresh
    //    certified keys, in unit u+1 (when the run still covers it).
    for &(unit, id) in &victims {
        match (unit + 1..=sc.units).find(|&later| heard.contains(&(later, id))) {
            Some(later) => v.recovery_units.push(later - unit),
            None if unit < sc.units => {
                v.problem(format!("node {id}, wiped in unit {unit}, never came back"))
            }
            None => {}
        }
    }
    v.recovery_units.sort_unstable();

    // 7. Sign requests: every clean node must report the message signed
    //    within the unit, and all that report it agree on the round.
    let mut signed_distinct: HashSet<&[u8]> = HashSet::new();
    for (round, msg) in sc.requests() {
        if !timed.contains(&round) {
            continue;
        }
        let unit = unit_of(round);
        v.attempted += 1;
        let mut first: Option<u64> = None;
        let mut missing = 0;
        for id in 1..=n as u32 {
            match signed[id as usize - 1].get(msg) {
                Some(&r) => first = Some(first.map_or(r, |f| f.min(r))),
                None if clean(id, unit) => missing += 1,
                None => {}
            }
        }
        match first {
            Some(r) if missing == 0 && unit_of(r) == unit && r < round + SIGN_SPAN_ROUNDS => {
                v.sign_spans.push((round, r));
                signed_distinct.insert(msg);
            }
            _ => {
                v.failed += 1;
                v.problem(format!(
                    "request of round {round} not signed in time ({missing} nodes missing it)"
                ));
            }
        }
    }
    v.signed_msgs = signed_distinct.len() as u64;
    v
}

/// Decodes the captured envelopes and runs VER-CERT on every AUTH-SEND
/// message among them. Each timed unit must contribute at least one.
fn verify_samples(ev: &Evidence<'_>, v_cert: &BigUint, v: &mut Verdict) {
    let sc = ev.sc;
    let group = Group::new(sc.spec.group);
    let mut tamper = ev.tamper;
    // DISPERSE hands the same blob to every relay; verify each once.
    let mut seen: HashSet<[u8; 32]> = HashSet::new();
    for (round, envelopes) in ev.samples {
        if *round < sc.timed_start() {
            continue;
        }
        let before = v.certs_verified;
        let auth_unit = sc.schedule.auth_unit_of(*round);
        for env in envelopes {
            let Ok(UlsWire::Disperse(DisperseMsg::Forward { origin, dst, blob })) =
                UlsWire::from_bytes(&env.payload)
            else {
                continue;
            };
            if !seen.insert(*blob.digest()) {
                continue;
            }
            let Ok(Blob::Certified(mut msg)) = Blob::from_bytes(blob.as_bytes()) else {
                continue;
            };
            if std::mem::take(&mut tamper) {
                let mut sig = proauth_primitives::wire::Encode::to_bytes(&msg.cert);
                let last = sig.len() - 1;
                sig[last] ^= 1;
                match Decode::from_bytes(&sig) {
                    Ok(bad) => msg.cert = bad,
                    Err(_) => v.problem("tampered certificate no longer decodes".into()),
                }
            }
            let ok = ver_cert(
                &group,
                DestCheck::Me(NodeId(dst)),
                NodeId(origin),
                auth_unit,
                *round,
                &msg,
                v_cert,
            );
            if ok {
                v.certs_verified += 1;
            } else {
                v.problem(format!("certified message {origin}->{dst} of round {round} does not verify under v_cert"));
            }
        }
        if v.certs_verified == before {
            v.problem(format!("no certified message captured at round {round}"));
        }
    }
    if ev
        .samples
        .iter()
        .filter(|(r, _)| *r >= sc.timed_start())
        .count()
        < sc.units as usize
    {
        v.problem("fewer traffic samples than timed units".into());
    }
}

fn count_events(outputs: &[OutputLog], f: impl Fn(&OutputEvent) -> bool) -> u64 {
    outputs.iter().flatten().filter(|(_, e)| f(e)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Spec, Transport};
    use proauth_crypto::group::GroupId;

    /// The shape of the 5-node workload, with two sign requests per unit so
    /// that the hand-built logs exercise the request accounting too.
    static SPEC: Spec = Spec {
        name: "hand-built",
        group: GroupId::Toy64,
        n: 5,
        t: 2,
        normal_rounds: 8,
        sign_slots: 2,
        rotation: None,
        transport: Transport::Engine,
        units_per_second: 1.0,
        smoke_units: 1,
    };

    /// A hand-built, fully healthy log for the 5-node workload with one timed
    /// unit (rounds 44..88): heartbeats at the ticks 80, 82, 84, 86, each
    /// accepted two rounds later; both sign requests signed everywhere.
    fn healthy(sc: &Scenario) -> (Vec<OutputLog>, Vec<Rom>) {
        let n = sc.spec.n as u32;
        let mut outputs: Vec<OutputLog> = vec![Vec::new(); n as usize];
        for tick in [80u64, 82, 84, 86] {
            for from in 1..=n {
                for to in (1..=n).filter(|&to| to != from) {
                    let msg = format!("hb:{from}:{tick}").into_bytes();
                    outputs[from as usize - 1].push((
                        tick,
                        OutputEvent::Sent {
                            to: NodeId(to),
                            msg: msg.clone(),
                        },
                    ));
                    if tick + 2 < sc.total_rounds() {
                        outputs[to as usize - 1].push((
                            tick + 2,
                            OutputEvent::Accepted {
                                from: NodeId(from),
                                msg,
                            },
                        ));
                    }
                }
            }
        }
        for (round, msg) in sc.requests() {
            let done = if round % 2 == 0 { round + 4 } else { round + 5 };
            for log in &mut outputs {
                log.push((
                    done,
                    OutputEvent::Signed {
                        msg: msg.to_vec(),
                        unit: 1,
                    },
                ));
            }
        }
        let mut rom = Rom::new();
        rom.write("v_cert", vec![1, 2, 3]);
        (outputs, vec![rom; n as usize])
    }

    fn verdict(sc: &Scenario, outputs: &[OutputLog], roms: &[Rom]) -> Verdict {
        check(&Evidence {
            sc,
            outputs,
            roms,
            samples: &[],
            break_ins: &[],
            impaired_per_unit: &[0, 0],
            tamper: false,
        })
    }

    #[test]
    fn accounting_on_a_hand_built_log() {
        let sc = Scenario::new(&SPEC, 9, 1);
        let (mut outputs, roms) = healthy(&sc);
        // 3 ticks whose delivery lies inside the run x 20 ordered pairs,
        // 5 refresh completions, 2 sign requests.
        let v = verdict(&sc, &outputs, &roms);
        assert_eq!((v.attempted, v.failed), (60 + 5 + 2, 0), "{:?}", v.problems);
        assert_eq!(v.signed_msgs, 2);
        assert_eq!(v.sign_spans, vec![(80, 84), (81, 86)]);
        // Each accepted heartbeat counts once: "hb:i:80" is 7 bytes.
        assert_eq!(v.accepted_bytes, 60 * 7);
        // No traffic was captured, which is a problem but not a failed operation.
        assert!(!v.correct());

        // Lose one acceptance and one node's Signed: two failures.
        let drop_at = outputs[1]
            .iter()
            .position(|(r, e)| {
                *r == 82 && matches!(e, OutputEvent::Accepted { from, .. } if from.0 == 1)
            })
            .unwrap();
        outputs[1].remove(drop_at);
        let signed_at = outputs[4]
            .iter()
            .position(|(_, e)| matches!(e, OutputEvent::Signed { .. }))
            .unwrap();
        outputs[4].remove(signed_at);
        let v = verdict(&sc, &outputs, &roms);
        assert_eq!((v.attempted, v.failed), (67, 2), "{:?}", v.problems);
        assert_eq!(v.signed_msgs, 1);
    }

    #[test]
    fn alerts_forgeries_and_rom_disagreement_are_problems() {
        let sc = Scenario::new(&SPEC, 9, 1);
        let (mut outputs, mut roms) = healthy(&sc);
        outputs[2].push((60, OutputEvent::Alert));
        outputs[0].push((
            84,
            OutputEvent::Accepted {
                from: NodeId(3),
                msg: b"never sent".to_vec(),
            },
        ));
        roms[3].write("v_cert", vec![9]);
        let v = verdict(&sc, &outputs, &roms);
        let text = v.problems.join("\n");
        assert!(text.contains("alerts raised"), "{text}");
        assert!(text.contains("forged"), "{text}");
        assert!(text.contains("node 4 disagrees on v_cert"), "{text}");
        // The alerting node also fails its refresh.
        assert_eq!(v.failed, 1);
    }

    #[test]
    fn victims_are_left_out_of_the_accounting_and_must_come_back() {
        let sc = Scenario::new(&SPEC, 9, 2);
        let n = sc.spec.n as u32;
        // Node 2 is wiped at round 86 of unit 1; build unit 1 and unit 2 logs
        // where it is silent for the rest of unit 1 and back in unit 2.
        let mut outputs: Vec<OutputLog> = vec![Vec::new(); n as usize];
        for unit in 1..=2u64 {
            for k in [36u64, 38, 40, 42] {
                let tick = unit * 44 + k;
                for from in 1..=n {
                    for to in (1..=n).filter(|&to| to != from) {
                        let msg = format!("hb:{from}:{tick}").into_bytes();
                        outputs[from as usize - 1].push((
                            tick,
                            OutputEvent::Sent {
                                to: NodeId(to),
                                msg: msg.clone(),
                            },
                        ));
                        let lost = unit == 1 && k == 42 && (from == 2 || to == 2);
                        let accept = if k == 42 {
                            (unit + 1) * 44 + 36
                        } else {
                            tick + 2
                        };
                        if accept < sc.total_rounds() && !lost {
                            outputs[to as usize - 1].push((
                                accept,
                                OutputEvent::Accepted {
                                    from: NodeId(from),
                                    msg,
                                },
                            ));
                        }
                    }
                }
            }
        }
        for (round, msg) in sc.requests() {
            let done = if round % 2 == 0 { round + 4 } else { round + 5 };
            for log in &mut outputs {
                log.push((
                    done,
                    OutputEvent::Signed {
                        msg: msg.to_vec(),
                        unit: round / 44,
                    },
                ));
            }
        }
        let mut rom = Rom::new();
        rom.write("v_cert", vec![1]);
        let v = check(&Evidence {
            sc: &sc,
            outputs: &outputs,
            roms: &vec![rom; n as usize],
            samples: &[],
            break_ins: &[(86, NodeId(2))],
            impaired_per_unit: &[0, 1, 1],
            tamper: false,
        });
        assert_eq!(v.failed, 0, "{:?}", v.problems);
        assert_eq!(v.recovery_units, vec![1]);
        // Unit 1: 4 ticks x 12 pairs without node 2; unit 2: 3 ticks x 20.
        assert_eq!(v.attempted, 48 + 60 + 10 + 4);
    }
}
