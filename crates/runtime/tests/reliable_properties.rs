//! Property tests for `tempered_runtime::reliable`: over arbitrary
//! interleavings of `send`, `accept_in`, `on_ack`, `forget_peer` and
//! epoch closes — with duplicates, reordering, gaps, zero, sequence
//! numbers above `u32::MAX`, frames of closed epochs and of a stale view
//! generation whose epochs share their low half with the current one's —
//! the channel's answers, its audit ledgers and its counters agree after
//! every step with a reference model that keeps each (scope, peer)'s
//! sequence numbers as a plain `BTreeSet`.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tempered_core::ids::RankId;
use tempered_runtime::membership::VIEW_EPOCH_STRIDE;
use tempered_runtime::reliable::{
    LedgerView, Payload, ReliableChannel, ReliableStats, RetryConfig, SeqSetView,
};

/// A payload: control traffic, or a basic message of one epoch.
#[derive(Clone, Copy, Debug)]
struct Msg(Option<u64>);

impl Payload for Msg {
    fn basic_epoch(&self) -> Option<u64> {
        self.0
    }
}

/// The scopes the ops draw from: control, three epochs of view
/// generation 0, and two of generation 1 sharing their low halves.
const SCOPES: [Option<u64>; 6] = [
    None,
    Some(1),
    Some(2),
    Some(3),
    Some(VIEW_EPOCH_STRIDE + 1),
    Some(VIEW_EPOCH_STRIDE + 2),
];

/// Sequence numbers per (scope, peer), the way the audit reads them:
/// counters within the epoch for a basic scope.
type Ledger = BTreeMap<(Option<u64>, RankId), BTreeSet<u64>>;

/// Reference model: sets, not watermarks.
#[derive(Default)]
struct Model {
    next: BTreeMap<(Option<u64>, RankId), u64>,
    /// The tag the channel stamped on each epoch it sent in.
    tags: BTreeMap<u64, u32>,
    /// The highest view generation sent in: sends never go back.
    generation: u64,
    pending: BTreeSet<(RankId, u64)>,
    acked: Ledger,
    seen: Ledger,
    closed: Option<u64>,
    stats: ReliableStats,
}

impl Model {
    fn is_closed(&self, scope: Option<u64>) -> bool {
        matches!((scope, self.closed), (Some(e), Some(c)) if e <= c)
    }

    /// The epoch an open ledger stamps `tag` on.
    fn epoch_of_tag(&self, tag: u32) -> Option<u64> {
        let (&e, _) = self.tags.iter().find(|&(_, &t)| t == tag)?;
        (!self.is_closed(Some(e))).then_some(e)
    }
}

/// Add `seq` to the set, registering the (scope, peer) even when `seq`
/// is zero, which is never a member; `true` the first time it is added.
fn insert(ledger: &mut Ledger, key: (Option<u64>, RankId), seq: u64) -> bool {
    let set = ledger.entry(key).or_default();
    seq != 0 && set.insert(seq)
}

/// The largest `w` with every seq in `1..=w` in `set`.
fn watermark(set: &BTreeSet<u64>) -> u64 {
    (1..).take_while(|s| set.contains(s)).count() as u64
}

/// The audit view the channel must produce from `ledger`.
fn view(ledger: &Ledger) -> Vec<LedgerView> {
    ledger
        .iter()
        .map(|(&(scope, peer), set)| {
            let watermark = watermark(set);
            let sparse = set.range(watermark + 1..).copied().collect();
            (scope, peer, SeqSetView { watermark, sparse })
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    Send(u32, usize),
    /// An ack from the peer; the pick resolves against the model.
    Ack(u32, usize, Pick),
    /// An arrival from the peer; the pick resolves against the model.
    Accept(u32, usize, Pick),
    Forget(u32),
    /// The rank learned that the scope's epoch terminated.
    Close(usize),
}

/// Which sequence number an ack or an arrival carries, relative to what
/// the model has already sent to or seen from the peer.
#[derive(Clone, Copy, Debug)]
enum Pick {
    /// The next in order: the newest seq sent, or one past the seen
    /// watermark.
    Next,
    /// `k` ahead of that: a gap, which lands in the spill.
    Ahead(u64),
    /// `k` behind it: a duplicate or a late, reordered copy.
    Behind(u64),
    Zero,
    /// Beyond `u32::MAX` (control traffic; a basic counter stays within
    /// its 32 bits and is `u32::MAX − k` instead).
    Huge(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..11, 0u32..64, 0usize..6, 0u8..6, 0u64..6).prop_map(|(op, peer, scope, pick, k)| {
            let pick = match pick {
                0 | 1 => Pick::Next,
                2 => Pick::Ahead(k + 1),
                3 => Pick::Behind(k),
                4 => Pick::Zero,
                _ => Pick::Huge(k),
            };
            match op {
                0..=2 => Op::Send(peer, scope),
                3..=4 => Op::Ack(peer, scope, pick),
                5..=7 => Op::Accept(peer, scope, pick),
                8 => Op::Forget(peer),
                _ => Op::Close(scope),
            }
        }),
        1..400,
    )
}

fn resolve(pick: Pick, next: u64, basic: bool) -> u64 {
    match pick {
        Pick::Next => next,
        Pick::Ahead(k) => next + k,
        Pick::Behind(k) => next.saturating_sub(k),
        Pick::Zero => 0,
        Pick::Huge(k) if basic => u64::from(u32::MAX) - k,
        Pick::Huge(k) => u64::from(u32::MAX) + 1 + k,
    }
}

proptest! {
    #[test]
    fn channel_matches_a_set_model(peers in 1u32..65, ops in ops_strategy()) {
        let mut ch: ReliableChannel<Msg> = ReliableChannel::new(RetryConfig::default());
        let mut m = Model::default();
        // Spread the ranks out so the open-addressed tables collide and grow.
        let rank = |p: u32| RankId::new((p % peers) * 4099);
        for op in ops {
            match op {
                Op::Send(p, s) => {
                    let (to, scope) = (rank(p), SCOPES[s]);
                    // A rank sends only in its current epoch: never in a
                    // closed one, never back in an older view generation.
                    let generation = scope.map_or(m.generation, |e| e >> 32);
                    if m.is_closed(scope) || generation < m.generation {
                        continue;
                    }
                    let next = m.next.entry((scope, to)).or_default();
                    *next += 1;
                    let counter = *next;
                    let (seq, _) = ch.send(to, Msg(scope));
                    prop_assert_eq!(seq & u64::from(u32::MAX), counter);
                    let tag = (seq >> 32) as u32;
                    match scope {
                        None => prop_assert_eq!(tag, 0),
                        Some(e) => {
                            prop_assert_ne!(tag, 0);
                            if let Some(&t) = m.tags.get(&e) {
                                prop_assert_eq!(tag, t, "one tag per epoch");
                            } else {
                                prop_assert!(
                                    m.tags.values().all(|&t| t != tag),
                                    "epoch {} reuses tag {}", e, tag
                                );
                                if e >> 32 == 0 {
                                    prop_assert_eq!(u64::from(tag), e + 1);
                                }
                                m.tags.insert(e, tag);
                            }
                            m.generation = generation;
                        }
                    }
                    m.pending.insert((to, seq));
                    m.stats.sent += 1;
                }
                Op::Ack(p, s, pick) => {
                    let (from, scope) = (rank(p), SCOPES[s]);
                    let basic = scope.is_some();
                    let next = m.next.get(&(scope, from)).copied().unwrap_or(0);
                    let counter = resolve(pick, next, basic);
                    let seq = match scope.and_then(|e| m.tags.get(&e)) {
                        Some(&tag) => (u64::from(tag) << 32) | counter,
                        // An epoch this rank never sent in: its frames carry
                        // the tag a peer's would, the epoch's low half plus 1.
                        None if basic => ((scope.unwrap_or(0) as u32 as u64 + 1) << 32) | counter,
                        None => counter,
                    };
                    match (seq >> 32) as u32 {
                        0 => {
                            insert(&mut m.acked, (None, from), seq);
                        }
                        tag => {
                            if let Some(e) = m.epoch_of_tag(tag) {
                                insert(&mut m.acked, (Some(e), from), seq & u64::from(u32::MAX));
                            }
                        }
                    }
                    if m.pending.remove(&(from, seq)) {
                        m.stats.acked += 1;
                    }
                    ch.on_ack(from, seq);
                }
                Op::Accept(p, s, pick) => {
                    let (from, scope) = (rank(p), SCOPES[s]);
                    let basic = scope.is_some();
                    let mark = m.seen.get(&(scope, from)).map_or(0, watermark);
                    let counter = resolve(pick, mark + 1, basic);
                    // The receiver files a frame by its payload's epoch; the
                    // tag a sender stamped on it does not matter.
                    let seq = match scope {
                        Some(e) => ((e as u32 as u64 + 1) << 32) | counter,
                        None => counter,
                    };
                    let fresh = !m.is_closed(scope) && insert(&mut m.seen, (scope, from), counter);
                    if !fresh {
                        m.stats.duplicates_suppressed += 1;
                    }
                    prop_assert_eq!(
                        ch.accept_in(from, seq, scope), fresh,
                        "accept_in({:?}, {}, {:?})", from, seq, scope
                    );
                }
                Op::Forget(p) => {
                    let to = rank(p);
                    let before = m.pending.len();
                    m.pending.retain(|&(r, _)| r != to);
                    prop_assert_eq!(ch.forget_peer(to), before - m.pending.len());
                }
                Op::Close(s) => {
                    let Some(e) = SCOPES[s] else { continue };
                    if !m.is_closed(Some(e)) {
                        m.closed = Some(e);
                        for ledger in [&mut m.acked, &mut m.seen] {
                            ledger.retain(|&(scope, _), _| scope.is_none_or(|x| x > e));
                        }
                    }
                    ch.close(e);
                }
            }
            prop_assert_eq!(ch.acked_view(), view(&m.acked));
            prop_assert_eq!(ch.seen_view(), view(&m.seen));
            prop_assert_eq!(ch.stats, m.stats);
            prop_assert_eq!(ch.pending_count(), m.pending.len());
        }
    }
}
