//! Distributed termination detection: Mattern's four-counter wave method.
//!
//! The asynchronous gossip protocol has no barriers; §IV-B: rounds
//! "proceed without barriers, relying on distributed *termination
//! detection* to detect when all causally related gossip messages have
//! been received and processed". We implement the classic four-counter
//! algorithm:
//!
//! A control token circulates the ring `0 → 1 → … → P−1 → 0`,
//! accumulating every rank's counts of *basic* (application) messages
//! sent and received for the current epoch. When the token returns to the
//! coordinator, the epoch is declared terminated iff the totals of two
//! **consecutive** waves are equal *and* sent == received — the second
//! wave proves no message was in flight behind the first token's back.
//! The coordinator then broadcasts `Terminated` down a binary tree.
//!
//! Key rule for correctness in the embedding protocol: a received basic
//! message is counted **when it is processed**, not when it is buffered —
//! otherwise a counted-but-unprocessed message could still generate sends
//! after the counts look stable.
//!
//! The detector is a passive component: it owns counters and wave state,
//! and returns the control messages for the caller to transmit through
//! whatever executor is in use (event-driven or threaded).

use crate::collective::Tree;
use crate::membership::{live_index, nth_live};
use std::collections::BTreeSet;
use tempered_core::ids::RankId;

/// Control messages of the detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TdMsg {
    /// Ring token accumulating `(sent, received)` for `epoch`.
    Token {
        /// Epoch being probed.
        epoch: u64,
        /// Wave number within the epoch.
        wave: u64,
        /// Accumulated basic-message send count.
        sent: u64,
        /// Accumulated basic-message receive count.
        recv: u64,
    },
    /// Tree broadcast: `epoch` has terminated.
    Terminated {
        /// The terminated epoch.
        epoch: u64,
        /// Total basic messages sent in the epoch (== total received).
        /// Carried so protocols can make globally consistent decisions
        /// from the epoch's traffic volume — e.g. the gossip stage exits
        /// early when a round moved zero messages.
        sent: u64,
    },
}

/// Wire size of a control message (for latency/accounting models).
pub const TD_MSG_BYTES: usize = 40;

/// What the embedding protocol must do with a produced message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TdSend {
    /// Destination rank.
    pub to: RankId,
    /// The control payload.
    pub msg: TdMsg,
}

/// Result of handling a control message.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TdOutcome {
    /// Control messages to transmit.
    pub sends: Vec<TdSend>,
    /// Set when this rank has just learned the epoch terminated.
    pub terminated_epoch: Option<u64>,
    /// Total basic messages sent in the terminated epoch; meaningful
    /// only when [`TdOutcome::terminated_epoch`] is set.
    pub terminated_sent: u64,
}

/// Per-rank termination detector state.
#[derive(Clone, Debug)]
pub struct TerminationDetector {
    me: RankId,
    num_ranks: usize,
    /// Broadcast tree over *live-rank indices* (root = index 0, the
    /// coordinator). With no dead ranks, live index == rank id and this
    /// is the original full tree.
    tree: Tree,
    /// Ranks declared crashed; they leave the ring and the tree. The
    /// survivors' ring and tree positions are computed from this set
    /// ([`crate::membership::live_index`]), never listed.
    dead: BTreeSet<RankId>,
    epoch: u64,
    sent: u64,
    recv: u64,
    /// Coordinator only: totals of the previous completed wave.
    prev_wave: Option<(u64, u64)>,
    /// Coordinator only: wave currently circulating.
    wave: u64,
    /// Non-coordinator only: highest wave already forwarded this epoch.
    /// Guards against re-forwarding a duplicated token (at-least-once
    /// transports may deliver the same token twice).
    forwarded_wave: u64,
    terminated: bool,
}

impl TerminationDetector {
    /// Create the detector for rank `me` of `num_ranks`. Rank 0
    /// coordinates.
    pub fn new(me: RankId, num_ranks: usize) -> Self {
        TerminationDetector {
            me,
            num_ranks,
            tree: Tree::new(num_ranks, RankId::new(0)),
            dead: BTreeSet::new(),
            epoch: 0,
            sent: 0,
            recv: 0,
            prev_wave: None,
            wave: 0,
            forwarded_wave: 0,
            terminated: false,
        }
    }

    /// Heap bytes held: the dead set.
    pub(crate) fn heap_bytes(&self) -> usize {
        crate::census::btree_set_bytes(&self.dead)
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The rank coordinating waves: the lowest surviving rank.
    pub fn coordinator(&self) -> RankId {
        nth_live(&self.dead, 0)
    }

    /// Number of surviving ranks.
    pub fn num_live(&self) -> usize {
        self.num_ranks - self.dead.len()
    }

    /// This rank's successor in the live token ring.
    fn next_live(&self) -> RankId {
        let i = live_index(&self.dead, self.me);
        nth_live(&self.dead, (i + 1) % self.num_live())
    }

    /// Broadcast of `Terminated` to the children of `me` in the tree
    /// over survivors.
    fn bcast_terminated(&self, epoch: u64, sent: u64) -> Vec<TdSend> {
        self.tree
            .children(RankId::from(live_index(&self.dead, self.me)))
            .map(|c| TdSend {
                to: nth_live(&self.dead, c.as_usize()),
                msg: TdMsg::Terminated { epoch, sent },
            })
            .collect()
    }

    /// Declare `dead` ranks crashed: they leave the token ring and the
    /// termination broadcast tree, and the coordinator role moves to the
    /// lowest survivor. Wave bookkeeping is reset and — when this rank
    /// now coordinates an unterminated epoch — a fresh wave is launched,
    /// because the old token may be parked at a corpse and would stall
    /// the epoch forever. Basic-message counters are *not* adjusted:
    /// traffic already counted toward a dead rank keeps the epoch
    /// unbalanced, so embedding protocols restart their epoch after a
    /// view change (see `lb::engine`); the regenerated wave guarantees
    /// the detector keeps probing instead of hanging.
    pub fn set_dead(&mut self, dead: &BTreeSet<RankId>) -> TdOutcome {
        debug_assert!(!dead.contains(&self.me), "a rank cannot outlive itself");
        if *dead == self.dead {
            return TdOutcome::default();
        }
        self.dead = dead.clone();
        self.tree = Tree::new(self.num_live(), RankId::new(0));
        self.prev_wave = None;
        self.wave = 0;
        self.forwarded_wave = 0;
        if self.terminated {
            return TdOutcome::default();
        }
        self.kick()
    }

    /// Whether the current epoch has been declared terminated at this
    /// rank. Test accessor: the protocol acts on [`TdOutcome`] instead.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Basic-message counters `(sent, received)` for the current epoch.
    pub fn counters(&self) -> (u64, u64) {
        (self.sent, self.recv)
    }

    /// Begin a new epoch: resets counters and wave state. The coordinator
    /// must follow with [`TerminationDetector::kick`] to launch wave 1.
    pub fn start_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.sent = 0;
        self.recv = 0;
        self.prev_wave = None;
        self.wave = 0;
        self.forwarded_wave = 0;
        self.terminated = false;
    }

    /// Count one basic message sent in this epoch.
    #[inline]
    pub fn on_basic_send(&mut self) {
        self.sent += 1;
    }

    /// Count one basic message *processed* in this epoch.
    #[inline]
    pub fn on_basic_recv(&mut self) {
        self.recv += 1;
    }

    /// Coordinator: launch the first wave of the current epoch. No-op on
    /// other ranks. When this rank is the sole survivor the epoch
    /// terminates immediately (nothing can be in flight).
    pub fn kick(&mut self) -> TdOutcome {
        if self.me != self.coordinator() || self.terminated {
            return TdOutcome::default();
        }
        if self.num_live() == 1 {
            self.terminated = true;
            return TdOutcome {
                sends: Vec::new(),
                terminated_epoch: Some(self.epoch),
                terminated_sent: self.sent,
            };
        }
        self.wave += 1;
        TdOutcome {
            sends: vec![TdSend {
                to: self.next_live(),
                msg: TdMsg::Token {
                    epoch: self.epoch,
                    wave: self.wave,
                    sent: self.sent,
                    recv: self.recv,
                },
            }],
            ..TdOutcome::default()
        }
    }

    /// Handle an incoming control message.
    pub fn handle(&mut self, msg: TdMsg) -> TdOutcome {
        match msg {
            TdMsg::Token {
                epoch,
                wave,
                sent,
                recv,
            } => {
                if epoch != self.epoch || self.terminated {
                    // Stale token from a finished epoch: drop it.
                    return TdOutcome::default();
                }
                if self.me == self.coordinator() {
                    if wave != self.wave {
                        // A duplicated or reordered token from an already
                        // completed wave: processing it again would count
                        // the wave twice and could fake the two-stable-wave
                        // condition. Only the wave we launched may return.
                        return TdOutcome::default();
                    }
                    // Wave completed.
                    let totals = (sent, recv);
                    let stable = self.prev_wave == Some(totals);
                    self.prev_wave = Some(totals);
                    if sent == recv && stable {
                        // Terminated: broadcast down the tree.
                        self.terminated = true;
                        TdOutcome {
                            sends: self.bcast_terminated(epoch, sent),
                            terminated_epoch: Some(epoch),
                            terminated_sent: sent,
                        }
                    } else {
                        // Start the next wave with fresh accumulation.
                        self.wave = wave + 1;
                        TdOutcome {
                            sends: vec![TdSend {
                                to: self.next_live(),
                                msg: TdMsg::Token {
                                    epoch,
                                    wave: self.wave,
                                    sent: self.sent,
                                    recv: self.recv,
                                },
                            }],
                            ..TdOutcome::default()
                        }
                    }
                } else {
                    if wave <= self.forwarded_wave {
                        // Duplicate of a token this rank already forwarded:
                        // forwarding it again would double-add our counters
                        // into the wave totals.
                        return TdOutcome::default();
                    }
                    self.forwarded_wave = wave;
                    // Accumulate and pass along the live ring.
                    let next = self.next_live();
                    TdOutcome {
                        sends: vec![TdSend {
                            to: next,
                            msg: TdMsg::Token {
                                epoch,
                                wave,
                                sent: sent + self.sent,
                                recv: recv + self.recv,
                            },
                        }],
                        ..TdOutcome::default()
                    }
                }
            }
            TdMsg::Terminated { epoch, sent } => {
                if epoch != self.epoch || self.terminated {
                    return TdOutcome::default();
                }
                self.terminated = true;
                TdOutcome {
                    sends: self.bcast_terminated(epoch, sent),
                    terminated_epoch: Some(epoch),
                    terminated_sent: sent,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Drive detectors by hand with an in-memory queue, with `basic`
    /// pre-set counters emulating a finished basic computation.
    fn drive(num_ranks: usize, counters: Vec<(u64, u64)>) -> Vec<bool> {
        let mut dets: Vec<TerminationDetector> = (0..num_ranks)
            .map(|r| {
                let mut d = TerminationDetector::new(RankId::from(r), num_ranks);
                d.start_epoch(1);
                for _ in 0..counters[r].0 {
                    d.on_basic_send();
                }
                for _ in 0..counters[r].1 {
                    d.on_basic_recv();
                }
                d
            })
            .collect();
        let mut queue: VecDeque<(usize, TdMsg)> = VecDeque::new();
        let kick = dets[0].kick();
        for s in kick.sends {
            queue.push_back((s.to.as_usize(), s.msg));
        }
        let mut guard = 0;
        while let Some((to, msg)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "TD did not converge");
            let out = dets[to].handle(msg);
            for s in out.sends {
                queue.push_back((s.to.as_usize(), s.msg));
            }
        }
        dets.iter().map(|d| d.is_terminated()).collect()
    }

    #[test]
    fn quiesced_system_terminates_everywhere() {
        // Balanced counters: 3 sent, 3 received globally.
        let term = drive(4, vec![(3, 0), (0, 1), (0, 1), (0, 1)]);
        assert!(term.iter().all(|&t| t));
    }

    #[test]
    fn zero_traffic_epoch_terminates() {
        let term = drive(5, vec![(0, 0); 5]);
        assert!(term.iter().all(|&t| t));
    }

    #[test]
    fn single_rank_terminates_on_kick() {
        let mut d = TerminationDetector::new(RankId::new(0), 1);
        d.start_epoch(3);
        let out = d.kick();
        assert_eq!(out.terminated_epoch, Some(3));
        assert!(d.is_terminated());
    }

    #[test]
    fn unbalanced_counters_never_terminate_waves_keep_running() {
        // A message is permanently "in flight": sent=1, recv=0 globally.
        // The detector must keep circulating tokens and never declare
        // termination; we bound the experiment at 10 waves.
        let num_ranks = 3;
        let mut dets: Vec<TerminationDetector> = (0..num_ranks)
            .map(|r| {
                let mut d = TerminationDetector::new(RankId::from(r), num_ranks);
                d.start_epoch(1);
                d
            })
            .collect();
        dets[0].on_basic_send(); // never received anywhere
        let mut queue: VecDeque<(usize, TdMsg)> = VecDeque::new();
        for s in dets[0].kick().sends {
            queue.push_back((s.to.as_usize(), s.msg));
        }
        let mut waves_seen = 0;
        while let Some((to, msg)) = queue.pop_front() {
            if let TdMsg::Token { wave, .. } = msg {
                waves_seen = waves_seen.max(wave);
                if wave > 10 {
                    break;
                }
            }
            for s in dets[to].handle(msg).sends {
                queue.push_back((s.to.as_usize(), s.msg));
            }
        }
        assert!(waves_seen > 10, "waves should keep circulating");
        assert!(dets.iter().all(|d| !d.is_terminated()));
    }

    #[test]
    fn late_delivery_requires_second_stable_wave() {
        // Wave 1 sees sent=1, recv=0 (in flight); the message then lands;
        // waves 2 and 3 both see (1,1) → terminate after wave 3.
        let num_ranks = 2;
        let mut d0 = TerminationDetector::new(RankId::new(0), num_ranks);
        let mut d1 = TerminationDetector::new(RankId::new(1), num_ranks);
        d0.start_epoch(1);
        d1.start_epoch(1);
        d0.on_basic_send();

        // Wave 1: token through rank 1 (recv not yet counted).
        let t1 = d0.kick().sends.remove(0);
        let back1 = d1.handle(t1.msg).sends.remove(0);
        // Basic message now processed at rank 1.
        d1.on_basic_recv();
        // Coordinator sees (1, 0): mismatch → wave 2.
        let t2 = d0.handle(back1.msg).sends.remove(0);
        let back2 = d1.handle(t2.msg).sends.remove(0);
        // Coordinator sees (1, 1) but not yet stable → wave 3.
        let out = d0.handle(back2.msg);
        assert!(out.terminated_epoch.is_none());
        let t3 = out.sends[0];
        let back3 = d1.handle(t3.msg).sends.remove(0);
        // (1,1) twice in a row → terminated.
        let fin = d0.handle(back3.msg);
        assert_eq!(fin.terminated_epoch, Some(1));
        // Broadcast reaches rank 1 and carries the epoch's traffic total.
        let down = &fin.sends[0];
        assert_eq!(down.msg, TdMsg::Terminated { epoch: 1, sent: 1 });
        assert_eq!(fin.terminated_sent, 1);
        let got = d1.handle(down.msg);
        assert_eq!(got.terminated_epoch, Some(1));
        assert_eq!(got.terminated_sent, 1);
        assert!(d1.is_terminated());
    }

    #[test]
    fn stale_tokens_are_dropped() {
        let mut d = TerminationDetector::new(RankId::new(1), 4);
        d.start_epoch(5);
        let out = d.handle(TdMsg::Token {
            epoch: 4,
            wave: 9,
            sent: 10,
            recv: 10,
        });
        assert!(out.sends.is_empty());
        assert!(out.terminated_epoch.is_none());
        let out = d.handle(TdMsg::Terminated { epoch: 4, sent: 10 });
        assert!(out.terminated_epoch.is_none());
        assert!(!d.is_terminated());
    }

    #[test]
    fn duplicated_tokens_are_forwarded_once() {
        // An at-least-once transport may deliver the same ring token
        // twice. A forwarding rank must not add its counters into the
        // wave a second time.
        let mut d = TerminationDetector::new(RankId::new(1), 3);
        d.start_epoch(1);
        d.on_basic_recv();
        let token = TdMsg::Token {
            epoch: 1,
            wave: 1,
            sent: 1,
            recv: 0,
        };
        let first = d.handle(token);
        assert_eq!(first.sends.len(), 1);
        assert_eq!(
            first.sends[0].msg,
            TdMsg::Token {
                epoch: 1,
                wave: 1,
                sent: 1,
                recv: 1
            }
        );
        // Same token again: dropped, nothing forwarded.
        let dup = d.handle(token);
        assert!(dup.sends.is_empty());
        assert!(dup.terminated_epoch.is_none());
        // A *later* wave still passes through.
        let next = d.handle(TdMsg::Token {
            epoch: 1,
            wave: 2,
            sent: 1,
            recv: 0,
        });
        assert_eq!(next.sends.len(), 1);
    }

    #[test]
    fn duplicated_stable_wave_token_cannot_fake_termination() {
        // Coordinator launched wave 1; a duplicate of the returning wave-1
        // token must not be treated as a second stable wave.
        let mut d0 = TerminationDetector::new(RankId::new(0), 2);
        d0.start_epoch(1);
        let _ = d0.kick(); // wave 1 out
        let back = TdMsg::Token {
            epoch: 1,
            wave: 1,
            sent: 0,
            recv: 0,
        };
        // First return: totals (0,0), not yet stable → wave 2 launched.
        let out = d0.handle(back);
        assert!(out.terminated_epoch.is_none());
        // Duplicate of the wave-1 token arrives after wave 2 launched:
        // its totals match prev_wave, so naively it would terminate.
        let dup = d0.handle(back);
        assert!(
            dup.terminated_epoch.is_none(),
            "duplicate token faked stability"
        );
        assert!(dup.sends.is_empty());
        assert!(!d0.is_terminated());
        // The genuine wave-2 return still terminates normally.
        let fin = d0.handle(TdMsg::Token {
            epoch: 1,
            wave: 2,
            sent: 0,
            recv: 0,
        });
        assert_eq!(fin.terminated_epoch, Some(1));
    }

    #[test]
    fn duplicated_terminated_broadcast_is_idempotent() {
        let mut d = TerminationDetector::new(RankId::new(1), 4);
        d.start_epoch(2);
        let first = d.handle(TdMsg::Terminated { epoch: 2, sent: 7 });
        assert_eq!(first.terminated_epoch, Some(2));
        assert_eq!(first.terminated_sent, 7);
        assert!(!first.sends.is_empty());
        // The duplicate must not re-broadcast down the tree.
        let dup = d.handle(TdMsg::Terminated { epoch: 2, sent: 7 });
        assert!(dup.sends.is_empty());
        assert!(dup.terminated_epoch.is_none());
    }

    #[test]
    fn max_jitter_delivery_terminates_with_late_stragglers() {
        // Emulate maximum jitter: the in-memory queue is drained in LIFO
        // order (latest message first), the worst possible reordering a
        // jittered network can produce for the ring + tree traffic of a
        // quiesced epoch. Termination must still be reached everywhere.
        let num_ranks = 5;
        let mut dets: Vec<TerminationDetector> = (0..num_ranks)
            .map(|r| {
                let mut d = TerminationDetector::new(RankId::from(r), num_ranks);
                d.start_epoch(1);
                d
            })
            .collect();
        // Balanced traffic: rank 0 sent 4, each other rank received 1.
        for _ in 0..4 {
            dets[0].on_basic_send();
        }
        for d in dets.iter_mut().skip(1) {
            d.on_basic_recv();
        }
        let mut stack: Vec<(usize, TdMsg)> = Vec::new();
        for s in dets[0].kick().sends {
            stack.push((s.to.as_usize(), s.msg));
        }
        let mut guard = 0;
        while let Some((to, msg)) = stack.pop() {
            guard += 1;
            assert!(guard < 100_000, "TD did not converge under LIFO delivery");
            for s in dets[to].handle(msg).sends {
                stack.push((s.to.as_usize(), s.msg));
            }
        }
        assert!(dets.iter().all(|d| d.is_terminated()));
    }

    /// Drain `queue`, discarding anything addressed to `dead_rank`.
    fn drain_with_corpse(
        dets: &mut [TerminationDetector],
        queue: &mut VecDeque<(usize, TdMsg)>,
        dead_rank: Option<usize>,
    ) {
        let mut guard = 0;
        while let Some((to, msg)) = queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "TD did not converge");
            if Some(to) == dead_rank {
                continue; // the corpse swallows its mail
            }
            for s in dets[to].handle(msg).sends {
                queue.push_back((s.to.as_usize(), s.msg));
            }
        }
    }

    #[test]
    fn dead_rank_does_not_hang_the_detector() {
        // Regression: rank 2 never responds, so the wave token parks at
        // the corpse and the epoch stalls. Declaring the rank dead must
        // regenerate the wave over the shrunken ring and terminate the
        // epoch on every survivor instead of hanging forever.
        let num_ranks = 4;
        let corpse = 2usize;
        let mut dets: Vec<TerminationDetector> = (0..num_ranks)
            .map(|r| {
                let mut d = TerminationDetector::new(RankId::from(r), num_ranks);
                d.start_epoch(1);
                d
            })
            .collect();
        let mut queue: VecDeque<(usize, TdMsg)> = VecDeque::new();
        for s in dets[0].kick().sends {
            queue.push_back((s.to.as_usize(), s.msg));
        }
        drain_with_corpse(&mut dets, &mut queue, Some(corpse));
        assert!(
            dets.iter().all(|d| !d.is_terminated()),
            "token parked at the corpse must stall the epoch"
        );

        // Survivors declare the corpse dead; the coordinator's set_dead
        // relaunches the wave over the live ring.
        let dead: BTreeSet<RankId> = [RankId::from(corpse)].into_iter().collect();
        for r in (0..num_ranks).filter(|&r| r != corpse) {
            for s in dets[r].set_dead(&dead).sends {
                queue.push_back((s.to.as_usize(), s.msg));
            }
        }
        drain_with_corpse(&mut dets, &mut queue, Some(corpse));
        for (r, d) in dets.iter().enumerate() {
            if r != corpse {
                assert!(d.is_terminated(), "survivor {r} must terminate");
            }
        }
    }

    #[test]
    fn coordinator_death_moves_coordination_to_lowest_survivor() {
        let num_ranks = 3;
        let mut dets: Vec<TerminationDetector> = (0..num_ranks)
            .map(|r| {
                let mut d = TerminationDetector::new(RankId::from(r), num_ranks);
                d.start_epoch(1);
                d
            })
            .collect();
        let dead: BTreeSet<RankId> = [RankId::new(0)].into_iter().collect();
        let mut queue: VecDeque<(usize, TdMsg)> = VecDeque::new();
        for d in dets.iter_mut().skip(1) {
            assert_eq!(d.coordinator(), RankId::new(0));
            for s in d.set_dead(&dead).sends {
                queue.push_back((s.to.as_usize(), s.msg));
            }
            assert_eq!(d.coordinator(), RankId::new(1));
        }
        drain_with_corpse(&mut dets, &mut queue, Some(0));
        assert!(dets[1].is_terminated());
        assert!(dets[2].is_terminated());
    }

    #[test]
    fn sole_survivor_terminates_immediately_on_set_dead() {
        let mut d = TerminationDetector::new(RankId::new(1), 3);
        d.start_epoch(1);
        let dead: BTreeSet<RankId> = [RankId::new(0), RankId::new(2)].into_iter().collect();
        let out = d.set_dead(&dead);
        assert_eq!(out.terminated_epoch, Some(1));
        assert!(d.is_terminated());
        assert_eq!(d.num_live(), 1);
    }

    #[test]
    fn start_epoch_resets_state() {
        let mut d = TerminationDetector::new(RankId::new(0), 1);
        d.start_epoch(1);
        assert_eq!(d.kick().terminated_epoch, Some(1));
        d.start_epoch(2);
        assert!(!d.is_terminated());
        assert_eq!(d.counters(), (0, 0));
        assert_eq!(d.epoch(), 2);
    }
}
