//! Property tests for `tempered_runtime::reliable`: over arbitrary
//! interleavings of `send`, `accept`, `on_ack` and `forget_peer` — with
//! duplicates, reordering, gaps, zero and sequence numbers above
//! `u32::MAX` — the channel's answers, its audit ledgers and its counters
//! agree after every step with a reference model that keeps each peer's
//! sequence numbers as a plain `BTreeSet`.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use tempered_core::ids::RankId;
use tempered_runtime::reliable::{ReliableChannel, ReliableStats, RetryConfig, SeqSetView};

/// Sequence numbers per peer, the way the audit reads them.
type Ledger = BTreeMap<RankId, BTreeSet<u64>>;

/// Reference model: sets, not watermarks.
#[derive(Default)]
struct Model {
    next_seq: BTreeMap<RankId, u64>,
    pending: BTreeSet<(RankId, u64)>,
    acked: Ledger,
    seen: Ledger,
    stats: ReliableStats,
}

/// Add `seq` to `peer`'s set, registering the peer even when `seq` is
/// zero, which is never a member; `true` the first time `seq` is added.
fn insert(ledger: &mut Ledger, peer: RankId, seq: u64) -> bool {
    let set = ledger.entry(peer).or_default();
    seq != 0 && set.insert(seq)
}

/// The largest `w` with every seq in `1..=w` in `set`.
fn watermark(set: &BTreeSet<u64>) -> u64 {
    (1..).take_while(|s| set.contains(s)).count() as u64
}

/// The audit view the channel must produce from `ledger`.
fn view(ledger: &Ledger) -> Vec<(RankId, SeqSetView)> {
    ledger
        .iter()
        .map(|(&peer, set)| {
            let watermark = watermark(set);
            let sparse = set.range(watermark + 1..).copied().collect();
            (peer, SeqSetView { watermark, sparse })
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    Send(u32),
    /// An ack from the peer; the pick resolves against the model.
    Ack(u32, Pick),
    /// An arrival from the peer; the pick resolves against the model.
    Accept(u32, Pick),
    Forget(u32),
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
    /// Beyond `u32::MAX`.
    Huge(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..9, 0u32..64, 0u8..6, 0u64..6).prop_map(|(op, peer, pick, k)| {
            let pick = match pick {
                0 | 1 => Pick::Next,
                2 => Pick::Ahead(k + 1),
                3 => Pick::Behind(k),
                4 => Pick::Zero,
                _ => Pick::Huge(k),
            };
            match op {
                0..=2 => Op::Send(peer),
                3..=4 => Op::Ack(peer, pick),
                5..=7 => Op::Accept(peer, pick),
                _ => Op::Forget(peer),
            }
        }),
        1..400,
    )
}

fn resolve(pick: Pick, next: u64) -> u64 {
    match pick {
        Pick::Next => next,
        Pick::Ahead(k) => next + k,
        Pick::Behind(k) => next.saturating_sub(k),
        Pick::Zero => 0,
        Pick::Huge(k) => u64::from(u32::MAX) + 1 + k,
    }
}

proptest! {
    #[test]
    fn channel_matches_a_set_model(peers in 1u32..65, ops in ops_strategy()) {
        let mut ch: ReliableChannel<u32> = ReliableChannel::new(RetryConfig::default());
        let mut m = Model::default();
        // Spread the ranks out so the open-addressed tables collide and grow.
        let rank = |p: u32| RankId::new((p % peers) * 4099);
        for op in ops {
            match op {
                Op::Send(p) => {
                    let to = rank(p);
                    let next = m.next_seq.entry(to).or_default();
                    *next += 1;
                    m.pending.insert((to, *next));
                    m.stats.sent += 1;
                    prop_assert_eq!(ch.send(to, p).0, *next);
                }
                Op::Ack(p, pick) => {
                    let from = rank(p);
                    let seq = resolve(pick, m.next_seq.get(&from).copied().unwrap_or(0));
                    insert(&mut m.acked, from, seq);
                    if m.pending.remove(&(from, seq)) {
                        m.stats.acked += 1;
                    }
                    ch.on_ack(from, seq);
                }
                Op::Accept(p, pick) => {
                    let from = rank(p);
                    let mark = m.seen.get(&from).map_or(0, watermark);
                    let seq = resolve(pick, mark + 1);
                    let fresh = insert(&mut m.seen, from, seq);
                    if !fresh {
                        m.stats.duplicates_suppressed += 1;
                    }
                    prop_assert_eq!(ch.accept(from, seq), fresh, "accept({:?}, {})", from, seq);
                }
                Op::Forget(p) => {
                    let to = rank(p);
                    let before = m.pending.len();
                    m.pending.retain(|&(r, _)| r != to);
                    prop_assert_eq!(ch.forget_peer(to), before - m.pending.len());
                }
            }
            prop_assert_eq!(ch.acked_view(), view(&m.acked));
            prop_assert_eq!(ch.seen_view(), view(&m.seen));
            prop_assert_eq!(ch.stats, m.stats);
            prop_assert_eq!(ch.pending_count(), m.pending.len());
        }
    }
}
