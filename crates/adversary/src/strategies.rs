//! Link-level adversary strategies: droppers, cutters, injectors, replayers.
//!
//! These exercise the *delivery* side of the UL model (§2.2): the adversary
//! owns the map from sent to delivered messages. Node-targeting strategies
//! (break-ins, impersonation) live in [`crate::breakins`] and
//! [`crate::impersonation`].

use proauth_sim::adversary::{NetView, UlAdversary};
use proauth_sim::message::{Envelope, NodeId};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Drops every message on a configured set of (undirected) links.
#[derive(Debug, Clone, Default)]
pub struct LinkCutter {
    cut: BTreeSet<(u32, u32)>,
    /// Only cut during rounds in `[from_round, to_round)`, if set.
    window: Option<(u64, u64)>,
}

impl LinkCutter {
    /// Cuts the given undirected links permanently.
    pub fn new(links: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut cut = BTreeSet::new();
        for (a, b) in links {
            cut.insert(normalize(a.0, b.0));
        }
        LinkCutter { cut, window: None }
    }

    /// Cuts all links incident to `node` ("cutting off" a node, §1.1).
    pub fn isolate(node: NodeId, n: usize) -> Self {
        Self::new(
            NodeId::all(n)
                .filter(|&x| x != node)
                .map(|x| (node, x)),
        )
    }

    /// Restricts cutting to a round window `[from, to)`.
    pub fn during(mut self, from: u64, to: u64) -> Self {
        self.window = Some((from, to));
        self
    }

    /// Whether the link `{a, b}` is currently cut.
    pub fn is_cut(&self, a: NodeId, b: NodeId, round: u64) -> bool {
        let in_window = self.window.is_none_or(|(f, t)| round >= f && round < t);
        in_window && self.cut.contains(&normalize(a.0, b.0))
    }
}

fn normalize(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl UlAdversary for LinkCutter {
    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        sent.iter()
            .filter(|e| !self.is_cut(e.from, e.to, view.time.round))
            .cloned()
            .collect()
    }
}

/// Drops each message independently with probability `p`.
#[derive(Debug, Clone)]
pub struct RandomDropper {
    /// Drop probability in `[0, 1]`.
    pub p: f64,
    rng: StdRng,
}

impl RandomDropper {
    /// Creates a dropper with its own deterministic randomness.
    pub fn new(p: f64, seed: u64) -> Self {
        RandomDropper {
            p,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl UlAdversary for RandomDropper {
    fn deliver(&mut self, sent: &[Envelope], _view: &NetView<'_>) -> Vec<Envelope> {
        sent.iter()
            .filter(|_| self.rng.gen::<f64>() >= self.p)
            .cloned()
            .collect()
    }
}

/// Injects forged payloads while delivering everything faithfully — the
/// "almost (t,t)-limited" adversary of §5.1 (injection is the easy attack;
/// the scheme must at worst alert, never break).
pub struct Injector {
    /// Builds the injections for a round: `(claimed_from, to, payload)`.
    pub inject: InjectFn,
    /// Deliver injections *before* the honest traffic (a rushing adversary
    /// racing the honest messages); default is after.
    pub prepend: bool,
}

/// Boxed callback for [`Injector::inject`]: maps the round's network view
/// to a list of `(claimed_from, to, payload)` forgeries.
pub type InjectFn = Box<dyn FnMut(&NetView<'_>) -> Vec<(NodeId, NodeId, Vec<u8>)>>;

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Injector")
    }
}

impl Injector {
    /// Creates an injector from a closure.
    pub fn new(
        inject: impl FnMut(&NetView<'_>) -> Vec<(NodeId, NodeId, Vec<u8>)> + 'static,
    ) -> Self {
        Injector {
            inject: Box::new(inject),
            prepend: false,
        }
    }

    /// Rushing variant: injections are delivered ahead of honest traffic.
    pub fn rushing(
        inject: impl FnMut(&NetView<'_>) -> Vec<(NodeId, NodeId, Vec<u8>)> + 'static,
    ) -> Self {
        Injector {
            inject: Box::new(inject),
            prepend: true,
        }
    }
}

impl UlAdversary for Injector {
    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        let injected: Vec<Envelope> = (self.inject)(view)
            .into_iter()
            .map(|(from, to, payload)| Envelope::new(from, to, payload))
            .collect();
        if self.prepend {
            let mut out = injected;
            out.extend(sent.iter().cloned());
            out
        } else {
            let mut out = sent.to_vec();
            out.extend(injected);
            out
        }
    }
}

/// Records every message and replays a copy `delay` rounds later — testing
/// the round-binding of VER-CERT (replay resistance, Definition 4's remark).
#[derive(Debug, Clone)]
pub struct Replayer {
    /// Replay delay in rounds.
    pub delay: u64,
    buffer: Vec<(u64, Envelope)>,
}

impl Replayer {
    /// Creates a replayer with the given delay.
    pub fn new(delay: u64) -> Self {
        Replayer {
            delay,
            buffer: Vec::new(),
        }
    }
}

impl UlAdversary for Replayer {
    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        let round = view.time.round;
        for e in sent {
            self.buffer.push((round + self.delay, e.clone()));
        }
        let mut out = sent.to_vec();
        let (due, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.buffer).into_iter().partition(|(r, _)| *r <= round);
        self.buffer = rest;
        out.extend(due.into_iter().map(|(_, e)| e));
        out
    }
}

/// Composes two adversaries: `first` filters deliveries, then `second`
/// transforms the result. Break plans and corruption are taken from both.
pub struct Composed<A, B> {
    /// The inner (first-applied) adversary.
    pub first: A,
    /// The outer adversary.
    pub second: B,
}

impl<A: UlAdversary, B: UlAdversary> UlAdversary for Composed<A, B> {
    fn plan(&mut self, view: &NetView<'_>) -> proauth_sim::adversary::BreakPlan {
        let mut p = self.first.plan(view);
        p.merge(self.second.plan(view));
        p
    }

    fn corrupt(
        &mut self,
        node: NodeId,
        state: &mut dyn std::any::Any,
        time: &proauth_sim::clock::TimeView,
    ) {
        self.first.corrupt(node, state, time);
        self.second.corrupt(node, state, time);
    }

    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        let mid = self.first.deliver(sent, view);
        self.second.deliver(&mid, view)
    }

    fn output(&mut self) -> Vec<String> {
        let mut o = self.first.output();
        o.extend(self.second.output());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proauth_sim::clock::{Schedule, TimeView};

    fn view(round: u64) -> (Vec<bool>, Vec<bool>) {
        let _ = round;
        (vec![false; 3], vec![true; 3])
    }

    fn netview<'a>(round: u64, broken: &'a [bool], ops: &'a [bool]) -> NetView<'a> {
        NetView {
            time: TimeView::at(&Schedule::new(10, 2, 2), round),
            n: 3,
            broken,
            crashed: &[false, false, false],
            operational: ops,
            last_delivered: &[],
            broken_inboxes: &[],
        }
    }

    #[test]
    fn link_cutter_drops_both_directions() {
        let mut adv = LinkCutter::new([(NodeId(1), NodeId(2))]);
        let (b, o) = view(0);
        let sent = vec![
            Envelope::new(NodeId(1), NodeId(2), vec![1]),
            Envelope::new(NodeId(2), NodeId(1), vec![2]),
            Envelope::new(NodeId(1), NodeId(3), vec![3]),
        ];
        let out = adv.deliver(&sent, &netview(0, &b, &o));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(3));
    }

    #[test]
    fn link_cutter_window() {
        let mut adv = LinkCutter::new([(NodeId(1), NodeId(2))]).during(5, 10);
        let (b, o) = view(0);
        let sent = vec![Envelope::new(NodeId(1), NodeId(2), vec![1])];
        assert_eq!(adv.deliver(&sent, &netview(0, &b, &o)).len(), 1);
        assert_eq!(adv.deliver(&sent, &netview(5, &b, &o)).len(), 0);
        assert_eq!(adv.deliver(&sent, &netview(10, &b, &o)).len(), 1);
    }

    #[test]
    fn isolate_cuts_all_incident_links() {
        let adv = LinkCutter::isolate(NodeId(2), 4);
        assert!(adv.is_cut(NodeId(2), NodeId(1), 0));
        assert!(adv.is_cut(NodeId(3), NodeId(2), 0));
        assert!(!adv.is_cut(NodeId(1), NodeId(3), 0));
    }

    #[test]
    fn dropper_is_deterministic() {
        let run = || {
            let mut adv = RandomDropper::new(0.5, 9);
            let (b, o) = view(0);
            let sent: Vec<Envelope> = (0..50)
                .map(|i| Envelope::new(NodeId(1), NodeId(2), vec![i]))
                .collect();
            adv.deliver(&sent, &netview(0, &b, &o)).len()
        };
        assert_eq!(run(), run());
        let mut adv = RandomDropper::new(0.0, 9);
        let (b, o) = view(0);
        let sent = vec![Envelope::new(NodeId(1), NodeId(2), vec![0])];
        assert_eq!(adv.deliver(&sent, &netview(0, &b, &o)).len(), 1);
    }

    #[test]
    fn injector_adds_messages() {
        let mut adv = Injector::new(|_| vec![(NodeId(1), NodeId(2), vec![0xBB])]);
        let (b, o) = view(0);
        let out = adv.deliver(&[], &netview(0, &b, &o));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].from, NodeId(1));
    }

    #[test]
    fn replayer_replays_after_delay() {
        let mut adv = Replayer::new(2);
        let (b, o) = view(0);
        let sent = vec![Envelope::new(NodeId(1), NodeId(2), vec![7])];
        assert_eq!(adv.deliver(&sent, &netview(0, &b, &o)).len(), 1);
        assert_eq!(adv.deliver(&[], &netview(1, &b, &o)).len(), 0);
        let replayed = adv.deliver(&[], &netview(2, &b, &o));
        assert_eq!(replayed.len(), 1);
        assert_eq!(&replayed[0].payload[..], &[7]);
    }

    #[test]
    fn composed_merges_crash_plans() {
        use proauth_sim::adversary::BreakPlan;
        struct Crasher;
        impl UlAdversary for Crasher {
            fn plan(&mut self, _v: &NetView<'_>) -> BreakPlan {
                BreakPlan::crash([NodeId(1)])
            }
            fn deliver(&mut self, sent: &[Envelope], _v: &NetView<'_>) -> Vec<Envelope> {
                sent.to_vec()
            }
        }
        struct Restarter;
        impl UlAdversary for Restarter {
            fn plan(&mut self, _v: &NetView<'_>) -> BreakPlan {
                BreakPlan::restart([NodeId(2)])
            }
            fn deliver(&mut self, sent: &[Envelope], _v: &NetView<'_>) -> Vec<Envelope> {
                sent.to_vec()
            }
        }
        let mut adv = Composed {
            first: Crasher,
            second: Restarter,
        };
        let (b, o) = view(0);
        let plan = adv.plan(&netview(0, &b, &o));
        assert_eq!(plan.crash, vec![NodeId(1)]);
        assert_eq!(plan.restart, vec![NodeId(2)]);
    }

    #[test]
    fn composed_applies_both() {
        let cutter = LinkCutter::new([(NodeId(1), NodeId(2))]);
        let injector = Injector::new(|_| vec![(NodeId(3), NodeId(1), vec![9])]);
        let mut adv = Composed {
            first: cutter,
            second: injector,
        };
        let (b, o) = view(0);
        let sent = vec![Envelope::new(NodeId(1), NodeId(2), vec![1])];
        let out = adv.deliver(&sent, &netview(0, &b, &o));
        assert_eq!(out.len(), 1); // original dropped, injection added
        assert_eq!(&out[0].payload[..], &[9]);
    }
}
