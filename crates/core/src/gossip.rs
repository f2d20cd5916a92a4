//! The inform/gossip stage (Algorithm 1): epidemic propagation of
//! underloaded-rank knowledge.
//!
//! Underloaded ranks seed the protocol by inserting themselves into their
//! own knowledge and sending it to `f` random peers; receivers union the
//! incoming set into theirs and forward for up to `k` rounds, choosing
//! targets from `P \ S^p` (ranks not already known to be underloaded).
//! After `log_f P` rounds the knowledge is global with high probability,
//! but — as in the paper's asynchronous implementation — the protocol
//! produces good results well short of global knowledge.
//!
//! [`run_gossip`] is the scalable, round-based interpretation used by real
//! implementations: in each synchronous round, every rank that *learned
//! something new* in the previous round (or is an underloaded seed in
//! round one) sends its current knowledge to `f` random targets. Message
//! count is bounded by `P·f·k`. The literal pseudocode — every received
//! message with `r < k` triggers `f` forwards, a tree per seed, exponential
//! in `k` — is kept as the reference this module's tests compare against.
//!
//! Round-based delivery is implemented with *prefix snapshots*: knowledge
//! is insertion-ordered and append-only during gossip, so a sender's state
//! at round start is exactly a prefix length — no payload cloning, which
//! keeps the §V-B experiment (4096 ranks, thousands of underloaded peers)
//! within memory bounds.

use crate::ids::RankId;
use crate::knowledge::Knowledge;
use crate::load::Load;
use crate::rng::RngFactory;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration of the inform/gossip stage.
#[derive(Clone, Copy, Debug)]
pub struct GossipConfig {
    /// Fanout factor `f`: targets contacted per send.
    pub fanout: usize,
    /// Number of rounds `k`.
    pub rounds: usize,
    /// Knowledge cap: a rank stops *accepting* new underloaded-rank
    /// entries once `|S^p|` reaches this bound (`0` = unbounded).
    ///
    /// This is the paper's footnote-2 future-work direction: global
    /// knowledge transfer "may result in lists of size O(P) being
    /// communicated and stored in memory"; bounding `|S^p|` caps both the
    /// memory and the gossip payload sizes, trading off transfer-target
    /// diversity. The `sweeps` binary quantifies the LB-quality cost.
    pub max_knowledge: usize,
}

impl Default for GossipConfig {
    fn default() -> Self {
        // f = 6, k = 10 are the parameters of the paper's §V-B/§V-D
        // experiments.
        GossipConfig {
            fanout: 6,
            rounds: 10,
            max_knowledge: 0,
        }
    }
}

/// Outcome of one gossip stage over all ranks.
#[derive(Clone, Debug)]
pub struct GossipResult {
    /// Per-rank accumulated knowledge `S^p` / `LOAD^p()`.
    pub knowledge: Vec<Knowledge>,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total `(rank, load)` pairs carried by all messages — the protocol's
    /// communication volume, reported by the scaling benches.
    pub pairs_sent: u64,
    /// Rounds actually executed (the stage may quiesce early).
    pub rounds_executed: usize,
}

impl GossipResult {
    /// Fraction of ranks that know *all* underloaded ranks; `1.0` when
    /// knowledge transfer is global (the paper's theoretical target after
    /// `log_f P` rounds).
    pub fn global_knowledge_fraction(&self, num_underloaded: usize) -> f64 {
        if self.knowledge.is_empty() {
            return 1.0;
        }
        let complete = self
            .knowledge
            .iter()
            .filter(|k| k.len() >= num_underloaded)
            .count();
        complete as f64 / self.knowledge.len() as f64
    }

    /// Mean `|S^p|` across ranks.
    pub fn mean_knowledge_size(&self) -> f64 {
        if self.knowledge.is_empty() {
            return 0.0;
        }
        let total: usize = self.knowledge.iter().map(|k| k.len()).sum();
        total as f64 / self.knowledge.len() as f64
    }
}

/// Run the inform/gossip stage over per-rank loads.
///
/// `loads[p]` is rank `p`'s current load; ranks with `load < l_ave` are
/// the underloaded seeds (Algorithm 1 line 6). `epoch` perturbs the
/// deterministic per-rank random streams so successive LB iterations make
/// fresh random choices.
///
/// ```
/// use tempered_core::gossip::{run_gossip, GossipConfig};
/// use tempered_core::prelude::*;
///
/// // One hot rank among 16 idle ones.
/// let mut loads = vec![Load::new(0.1); 16];
/// loads[0] = Load::new(10.0);
/// let result = run_gossip(
///     &loads,
///     Load::new(10.0 + 1.5) / 16.0,
///     &GossipConfig::default(),
///     &RngFactory::new(7),
///     0,
/// );
/// // The overloaded rank learned about underloaded peers.
/// assert!(!result.knowledge[0].is_empty());
/// ```
pub fn run_gossip(
    loads: &[Load],
    l_ave: Load,
    cfg: &GossipConfig,
    factory: &RngFactory,
    epoch: u64,
) -> GossipResult {
    let num_ranks = loads.len();
    let cap = if cfg.max_knowledge == 0 {
        usize::MAX
    } else {
        cfg.max_knowledge
    };
    let mut knowledge: Vec<FlatKnowledge> = (0..num_ranks)
        .map(|p| {
            let mut k = FlatKnowledge::new(num_ranks, cap);
            if loads[p] < l_ave {
                k.insert(RankId::from(p), loads[p]);
            }
            k
        })
        .collect();
    let num_underloaded = knowledge.iter().filter(|k| k.len() > 0).count();
    // Round 1 senders: the underloaded seeds themselves.
    let mut active: Vec<bool> = knowledge.iter().map(|k| k.len() > 0).collect();
    let mut rngs: Vec<SmallRng> = (0..num_ranks)
        .map(|p| factory.rank_stream(b"gossip", p as u64, epoch))
        .collect();

    let mut messages_sent = 0u64;
    let mut pairs_sent = 0u64;
    let mut rounds_executed = 0usize;

    // Message: (sender, prefix length of sender's knowledge, target).
    let mut msgs: Vec<(u32, u32, u32)> = Vec::new();

    for _round in 0..cfg.rounds {
        if !active.iter().any(|&a| a) {
            break;
        }
        rounds_executed += 1;
        msgs.clear();
        let start_len: Vec<u32> = knowledge.iter().map(|k| k.len() as u32).collect();
        let mut targets = Vec::with_capacity(cfg.fanout);
        for p in 0..num_ranks {
            if !active[p] || start_len[p] == 0 {
                continue;
            }
            let me = RankId::from(p);
            sample_fanout_targets(
                &mut rngs[p],
                num_ranks,
                me,
                &knowledge[p],
                cfg.fanout,
                &mut targets,
            );
            for &target in &targets {
                msgs.push((p as u32, start_len[p], target.as_u32()));
            }
        }
        messages_sent += msgs.len() as u64;
        let mut gained = vec![false; num_ranks];
        for &(sender, prefix, target) in &msgs {
            pairs_sent += prefix as u64;
            let (s, t) = (sender as usize, target as usize);
            debug_assert_ne!(s, t, "self-sends are excluded by target sampling");
            // Fast path: receiver already knows every underloaded rank.
            if knowledge[t].len() >= num_underloaded {
                continue;
            }
            // Split borrow: merge sender's round-start prefix into target.
            let (src, dst) = disjoint_pair(&mut knowledge, s, t);
            let mut added = 0usize;
            for i in 0..prefix as usize {
                if dst.insert(src.ranks[i], src.loads[i]) {
                    added += 1;
                }
            }
            if added > 0 {
                gained[t] = true;
            }
        }
        active = gained;
    }

    GossipResult {
        knowledge: knowledge
            .into_iter()
            .map(FlatKnowledge::into_knowledge)
            .collect(),
        messages_sent,
        pairs_sent,
        rounds_executed,
    }
}

/// Membership view of a rank's knowledge for fanout target sampling.
///
/// The sampling kernel only needs `|S^p|` and membership tests, so the
/// flat bitset representation used by the analysis-mode engine and the
/// [`Knowledge`] map used by the asynchronous runtime protocol share one
/// implementation — and therefore draw *identical* random sequences,
/// which the sync↔async equivalence guarantee depends on.
pub trait TargetExclusions {
    /// Number of known underloaded ranks, `|S^p|`.
    fn known(&self) -> usize;
    /// Whether `rank ∈ S^p`.
    fn knows(&self, rank: RankId) -> bool;
}

impl TargetExclusions for Knowledge {
    fn known(&self) -> usize {
        self.len()
    }
    fn knows(&self, rank: RankId) -> bool {
        self.contains(rank)
    }
}

/// Draw `fanout` targets (with replacement, as Algorithm 1 does) from
/// `P \ (S^p ∪ {self})` (Algorithm 1 lines 20–21).
///
/// Rejection-samples while the complement is large; when knowledge covers
/// most of `P` — the common state for underloaded ranks late in gossip —
/// the complement is enumerated *once* and all `fanout` draws share it,
/// which is the difference between `O(P)` and `O(P·f)` per sender per
/// round at §V-B scale. A rejection burst that misses 64 times simply
/// yields fewer targets for this send; there is deliberately no dense
/// fallback inside the burst, so the draw sequence is identical for
/// every [`TargetExclusions`] implementation.
pub fn sample_fanout_targets<K: TargetExclusions>(
    rng: &mut SmallRng,
    num_ranks: usize,
    me: RankId,
    knowledge: &K,
    fanout: usize,
    out: &mut Vec<RankId>,
) {
    out.clear();
    let excluded = knowledge.known() + if knowledge.knows(me) { 0 } else { 1 };
    if excluded >= num_ranks {
        return;
    }
    if excluded * 4 <= num_ranks * 3 {
        // Large complement: expected < 4 draws per target.
        for _ in 0..fanout {
            for _ in 0..64 {
                let cand = RankId::new(rng.gen_range(0..num_ranks as u32));
                if cand != me && !knowledge.knows(cand) {
                    out.push(cand);
                    break;
                }
            }
        }
        return;
    }
    // Dense knowledge: enumerate the complement once for all draws.
    let complement: Vec<RankId> = (0..num_ranks as u32)
        .map(RankId::new)
        .filter(|&r| r != me && !knowledge.knows(r))
        .collect();
    for _ in 0..fanout {
        out.push(complement[rng.gen_range(0..complement.len())]);
    }
}

/// Flat, bitset-indexed knowledge used inside the round-based engine.
///
/// The §V-B experiment runs gossip over 4096 ranks with ~4080 underloaded
/// seeds; merging accumulated lists through a hash map costs ~10 ns per
/// membership probe and dominates the entire balancer. A dense bitset
/// drops the probe to ~1 ns and keeps the insertion-ordered `(rank,
/// load)` arrays the CMF needs.
///
/// The distributed engine skips merges into sets nobody will read
/// (`GossipState::reads` in `tempered-runtime`); this one has no such
/// rule because nothing here is unread: [`run_gossip`] *returns* every
/// rank's knowledge, and `lbaf` reports `mean_knowledge_size` over all
/// of them.
struct FlatKnowledge {
    ranks: Vec<RankId>,
    loads: Vec<Load>,
    seen: Vec<u64>,
    /// Entry cap (`usize::MAX` = unbounded); own-seed entries bypass it.
    cap: usize,
}

impl FlatKnowledge {
    fn new(num_ranks: usize, cap: usize) -> Self {
        FlatKnowledge {
            ranks: Vec::new(),
            loads: Vec::new(),
            seen: vec![0u64; num_ranks.div_ceil(64)],
            cap,
        }
    }

    #[inline]
    fn contains(&self, r: RankId) -> bool {
        let i = r.as_usize();
        self.seen[i >> 6] & (1u64 << (i & 63)) != 0
    }

    #[inline]
    fn insert(&mut self, r: RankId, l: Load) -> bool {
        if self.ranks.len() >= self.cap {
            return false;
        }
        let i = r.as_usize();
        let word = &mut self.seen[i >> 6];
        let bit = 1u64 << (i & 63);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.ranks.push(r);
        self.loads.push(l);
        true
    }

    #[inline]
    fn len(&self) -> usize {
        self.ranks.len()
    }

    fn into_knowledge(self) -> Knowledge {
        self.ranks.into_iter().zip(self.loads).collect()
    }
}

impl TargetExclusions for FlatKnowledge {
    fn known(&self) -> usize {
        self.len()
    }
    fn knows(&self, rank: RankId) -> bool {
        self.contains(rank)
    }
}

/// Borrow two distinct elements of a slice mutably.
fn disjoint_pair<T>(v: &mut [T], a: usize, b: usize) -> (&T, &mut T) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sample a target from `P \ (S^p ∪ {self})` (Algorithm 1 lines 20–21).
    ///
    /// Rejection-samples while the complement is large; falls back to
    /// enumerating the complement when knowledge covers most of `P`, which is
    /// the common state late in gossip on mostly-underloaded systems.
    fn sample_target(
        rng: &mut SmallRng,
        num_ranks: usize,
        me: RankId,
        knowledge: &Knowledge,
    ) -> Option<RankId> {
        let excluded = knowledge.len() + if knowledge.contains(me) { 0 } else { 1 };
        if excluded >= num_ranks {
            return None; // complement empty: everyone is known-underloaded
        }
        // Rejection sampling is cheap while the complement is at least ~1/4 of
        // the space: expected < 4 draws.
        if excluded * 4 <= num_ranks * 3 {
            for _ in 0..64 {
                let cand = RankId::new(rng.gen_range(0..num_ranks as u32));
                if cand != me && !knowledge.contains(cand) {
                    return Some(cand);
                }
            }
        }
        // Dense complement scan fallback.
        let complement: Vec<RankId> = (0..num_ranks as u32)
            .map(RankId::new)
            .filter(|&r| r != me && !knowledge.contains(r))
            .collect();
        if complement.is_empty() {
            None
        } else {
            Some(complement[rng.gen_range(0..complement.len())])
        }
    }

    fn seeds(loads: &[Load], l_ave: Load) -> Vec<Knowledge> {
        loads
            .iter()
            .enumerate()
            .map(|(p, &l)| {
                let mut k = Knowledge::new();
                if l < l_ave {
                    k.insert(RankId::from(p), l);
                }
                k
            })
            .collect()
    }

    /// Literal Algorithm 1, the reference the round-based [`run_gossip`] is
    /// checked against: every received message with `r < k` triggers `f`
    /// forwards, forming a tree per seed. Exponential in `k`, so the stage
    /// stops once `max_messages` were sent; the flag reports whether that
    /// budget cut it short.
    fn run_message_tree(
        loads: &[Load],
        l_ave: Load,
        cfg: &GossipConfig,
        max_messages: u64,
        factory: &RngFactory,
        epoch: u64,
    ) -> (GossipResult, bool) {
        use std::collections::VecDeque;

        let num_ranks = loads.len();
        let mut knowledge = seeds(loads, l_ave);
        let mut rngs: Vec<SmallRng> = (0..num_ranks)
            .map(|p| factory.rank_stream(b"gossip", p as u64, epoch))
            .collect();

        // Message: (target, payload pairs, round counter r).
        struct Msg {
            target: RankId,
            payload: Vec<(RankId, Load)>,
            round: usize,
        }

        let mut queue: VecDeque<Msg> = VecDeque::new();
        let mut messages_sent = 0u64;
        let mut pairs_sent = 0u64;
        let mut truncated = false;
        let mut max_round = 0usize;

        // INFORM (Algorithm 1 lines 5–14): underloaded ranks seed.
        for p in 0..num_ranks {
            if loads[p] >= l_ave {
                continue;
            }
            let me = RankId::from(p);
            for _ in 0..cfg.fanout {
                if let Some(target) = sample_target(&mut rngs[p], num_ranks, me, &knowledge[p]) {
                    queue.push_back(Msg {
                        target,
                        payload: knowledge[p].to_pairs(),
                        round: 1,
                    });
                    messages_sent += 1;
                    pairs_sent += knowledge[p].len() as u64;
                }
            }
        }

        // INFORMHANDLER (lines 15–25).
        let cap = if cfg.max_knowledge == 0 {
            usize::MAX
        } else {
            cfg.max_knowledge
        };
        while let Some(msg) = queue.pop_front() {
            if messages_sent >= max_messages {
                truncated = true;
                break;
            }
            let t = msg.target.as_usize();
            let room = cap.saturating_sub(knowledge[t].len());
            let take = msg.payload.len().min(room);
            knowledge[t].merge_from(msg.payload[..take].iter().copied());
            max_round = max_round.max(msg.round);
            if msg.round < cfg.rounds {
                let me = msg.target;
                for _ in 0..cfg.fanout {
                    if let Some(target) = sample_target(&mut rngs[t], num_ranks, me, &knowledge[t])
                    {
                        queue.push_back(Msg {
                            target,
                            payload: knowledge[t].to_pairs(),
                            round: msg.round + 1,
                        });
                        messages_sent += 1;
                        pairs_sent += knowledge[t].len() as u64;
                    }
                }
            }
        }

        let result = GossipResult {
            knowledge,
            messages_sent,
            pairs_sent,
            rounds_executed: max_round,
        };
        (result, truncated)
    }

    fn loads(v: &[f64]) -> Vec<Load> {
        v.iter().copied().map(Load::new).collect()
    }

    fn avg(ls: &[Load]) -> Load {
        let total: Load = ls.iter().sum();
        total / ls.len() as f64
    }

    #[test]
    fn underloaded_ranks_know_themselves() {
        let ls = loads(&[4.0, 0.0, 0.0, 0.0]);
        let cfg = GossipConfig {
            fanout: 2,
            rounds: 0, // no propagation at all
            ..Default::default()
        };
        let r = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(1), 0);
        assert!(r.knowledge[1].contains(RankId::new(1)));
        assert!(r.knowledge[2].contains(RankId::new(2)));
        assert!(!r.knowledge[0].contains(RankId::new(0)));
        assert_eq!(r.messages_sent, 0);
    }

    #[test]
    fn round_based_overloaded_rank_learns_targets() {
        // One hot rank among 32; enough rounds for global knowledge whp.
        let mut ls = vec![Load::new(0.5); 32];
        ls[0] = Load::new(100.0);
        let cfg = GossipConfig {
            fanout: 3,
            rounds: 8,
            ..Default::default()
        };
        let r = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(2), 0);
        assert!(
            r.knowledge[0].len() >= 16,
            "hot rank learned only {} of 31 underloaded ranks",
            r.knowledge[0].len()
        );
        assert!(r.messages_sent > 0);
        assert!(r.rounds_executed <= 8);
    }

    #[test]
    fn round_based_quiesces_when_knowledge_saturates() {
        // Tiny system: knowledge goes global quickly, then no rank gains
        // anything and the protocol stops sending before k rounds.
        let ls = loads(&[9.0, 1.0, 1.0, 1.0]);
        let cfg = GossipConfig {
            fanout: 3,
            rounds: 50,
            ..Default::default()
        };
        let r = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(3), 0);
        assert!(r.rounds_executed < 50, "expected early quiescence");
        // The protocol targets P \ S^p, so already-known underloaded ranks
        // are deliberately skipped; the guarantee is for the *overloaded*
        // rank, which must learn all three underloaded peers.
        assert_eq!(r.knowledge[0].len(), 3);
    }

    #[test]
    fn gossip_is_deterministic_per_seed_and_epoch() {
        let mut ls = vec![Load::new(0.5); 64];
        ls[0] = Load::new(40.0);
        ls[1] = Load::new(40.0);
        let cfg = GossipConfig::default();
        let a = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(7), 3);
        let b = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(7), 3);
        assert_eq!(a.messages_sent, b.messages_sent);
        for (ka, kb) in a.knowledge.iter().zip(b.knowledge.iter()) {
            assert_eq!(ka, kb);
        }
        let c = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(7), 4);
        // Different epoch: almost surely different random choices.
        let same = a
            .knowledge
            .iter()
            .zip(c.knowledge.iter())
            .all(|(x, y)| x == y);
        assert!(!same || a.messages_sent != c.messages_sent || a.knowledge.len() <= 2);
    }

    #[test]
    fn message_tree_matches_round_based_coverage_at_small_scale() {
        let ls = loads(&[10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let l_ave = avg(&ls);
        let cfg = GossipConfig {
            fanout: 2,
            rounds: 4,
            max_knowledge: 0,
        };
        let (r, truncated) = run_message_tree(&ls, l_ave, &cfg, 100_000, &RngFactory::new(11), 0);
        assert!(!truncated);
        // Overloaded ranks should have learned most of the 6 underloaded.
        assert!(r.knowledge[0].len() >= 3);
        assert!(r.knowledge[1].len() >= 3);
        // Knowledge only ever contains underloaded ranks:
        for k in &r.knowledge {
            for (rank, _) in k.entries() {
                assert!(ls[rank.as_usize()] < l_ave);
            }
        }
    }

    #[test]
    fn message_tree_budget_truncates() {
        let mut ls = vec![Load::new(0.5); 64];
        ls[0] = Load::new(100.0);
        let cfg = GossipConfig {
            fanout: 4,
            rounds: 10,
            max_knowledge: 0,
        };
        let (r, truncated) = run_message_tree(&ls, avg(&ls), &cfg, 50, &RngFactory::new(5), 0);
        assert!(truncated);
        assert!(r.messages_sent <= 50 + 4 * 64);
    }

    #[test]
    fn no_underloaded_ranks_means_silence() {
        // All loads equal: no rank is strictly below average.
        let ls = vec![Load::new(1.0); 16];
        let cfg = GossipConfig::default();
        let factory = RngFactory::new(1);
        let rounds = run_gossip(&ls, Load::new(1.0), &cfg, &factory, 0);
        let (tree, _) = run_message_tree(&ls, Load::new(1.0), &cfg, 10_000_000, &factory, 0);
        for (mode, r) in [("round-based", rounds), ("message tree", tree)] {
            assert_eq!(r.messages_sent, 0, "{mode}");
            assert!(r.knowledge.iter().all(|k| k.is_empty()));
        }
    }

    #[test]
    fn knowledge_loads_match_actual_loads() {
        let ls = loads(&[5.0, 0.25, 0.75, 1.0]);
        let cfg = GossipConfig {
            fanout: 2,
            rounds: 6,
            ..Default::default()
        };
        let r = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(13), 0);
        for k in &r.knowledge {
            for (rank, load) in k.entries() {
                assert_eq!(load, ls[rank.as_usize()], "gossiped load must be exact");
            }
        }
    }

    #[test]
    fn pairs_sent_tracks_communication_volume() {
        let ls = loads(&[9.0, 1.0, 1.0, 1.0, 1.0]);
        let cfg = GossipConfig {
            fanout: 2,
            rounds: 4,
            ..Default::default()
        };
        let r = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(5), 0);
        assert!(r.messages_sent > 0);
        assert!(
            r.pairs_sent >= r.messages_sent,
            "every message carries at least its sender's own entry"
        );
    }

    #[test]
    fn knowledge_cap_limits_set_sizes() {
        let mut ls = vec![Load::new(0.5); 64];
        ls[0] = Load::new(100.0);
        let cfg = GossipConfig {
            fanout: 4,
            rounds: 8,
            max_knowledge: 5,
        };
        let factory = RngFactory::new(3);
        let rounds = run_gossip(&ls, avg(&ls), &cfg, &factory, 0);
        let (tree, _) = run_message_tree(&ls, avg(&ls), &cfg, 200_000, &factory, 0);
        for (mode, r) in [("round-based", rounds), ("message tree", tree)] {
            for k in &r.knowledge {
                assert!(k.len() <= 5, "{mode}: |S| = {} exceeds cap", k.len());
            }
            // The overloaded rank still learns *some* targets.
            assert!(!r.knowledge[0].is_empty(), "{mode}");
        }
    }

    #[test]
    fn fanout_sampling_is_representation_independent() {
        // The flat bitset view and the Knowledge map must consume the
        // random stream identically — the async runtime relies on it.
        let num_ranks = 48;
        let known: Vec<u32> = vec![3, 7, 11, 30];
        let mut flat = FlatKnowledge::new(num_ranks, usize::MAX);
        let mut map = Knowledge::new();
        for &r in &known {
            flat.insert(RankId::new(r), Load::new(0.5));
            map.insert(RankId::new(r), Load::new(0.5));
        }
        let me = RankId::new(7);
        for round in 0..4u64 {
            let mut rng_a = RngFactory::new(9).rank_stream(b"t", 0, round);
            let mut rng_b = RngFactory::new(9).rank_stream(b"t", 0, round);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            sample_fanout_targets(&mut rng_a, num_ranks, me, &flat, 6, &mut a);
            sample_fanout_targets(&mut rng_b, num_ranks, me, &map, 6, &mut b);
            assert_eq!(a, b);
            assert!(a.iter().all(|&t| t != me && !map.contains(t)));
        }
    }

    #[test]
    fn mean_knowledge_size_counts() {
        let ls = loads(&[3.0, 1.0]);
        let cfg = GossipConfig {
            fanout: 1,
            rounds: 2,
            ..Default::default()
        };
        let r = run_gossip(&ls, avg(&ls), &cfg, &RngFactory::new(17), 0);
        assert!(r.mean_knowledge_size() >= 0.5);
        assert!(r.global_knowledge_fraction(1) > 0.0);
    }
}
