//! Property-based tests of the core algorithms and the paper's theory.
//!
//! The paper's Appendix proves two lemmas about single transfers; we
//! check them (and the structural invariants of every stage) over
//! randomized distributions with proptest.

use proptest::prelude::*;
use tempered_core::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Per-rank load lists: up to 8 ranks, up to 12 tasks each, loads in
/// (0, 4].
fn arb_loads() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.01f64..4.0, 0..12), 2..8)
}

fn arb_distribution() -> impl Strategy<Value = Distribution> {
    arb_loads().prop_map(Distribution::from_loads)
}

fn nonempty_distribution() -> impl Strategy<Value = Distribution> {
    arb_distribution().prop_filter("needs tasks", |d| d.num_tasks() > 0)
}

// ---------------------------------------------------------------------------
// Lemma 1 / Lemma 2
// ---------------------------------------------------------------------------

proptest! {
    /// Lemma 1: a transfer satisfying the relaxed criterion
    /// (`LOAD(o) < ℓ_i − ℓ_x`) never increases the objective
    /// `F(D) = ℓ_max/ℓ_ave − h`, for any sender/recipient pair.
    #[test]
    fn lemma1_relaxed_transfer_never_increases_objective(
        dist in nonempty_distribution(),
        sender_sel in any::<prop::sample::Index>(),
        task_sel in any::<prop::sample::Index>(),
        recip_sel in any::<prop::sample::Index>(),
    ) {
        let senders: Vec<RankId> = dist
            .rank_ids()
            .filter(|&r| !dist.tasks_on(r).is_empty())
            .collect();
        let sender = senders[sender_sel.index(senders.len())];
        let tasks = dist.tasks_on(sender);
        let task = tasks[task_sel.index(tasks.len())];
        let recipients: Vec<RankId> =
            dist.rank_ids().filter(|&r| r != sender).collect();
        let recipient = recipients[recip_sel.index(recipients.len())];

        let l_i = dist.rank_load(sender);
        let l_x = dist.rank_load(recipient);
        // Only check transfers the relaxed criterion accepts.
        prop_assume!(task.load.get() < l_i.get() - l_x.get());

        let f_before = dist.statistics().objective(1.0);
        let mut after = dist.clone();
        after.migrate(task.id, recipient).unwrap();
        let f_after = after.statistics().objective(1.0);
        prop_assert!(
            f_after <= f_before + 1e-9,
            "F increased: {f_before} -> {f_after}"
        );
        // And locally: neither endpoint exceeds the sender's old load.
        prop_assert!(after.rank_load(sender).get() < l_i.get() + 1e-12);
        prop_assert!(after.rank_load(recipient).get() < l_i.get());
    }

    /// Lemma 2: moving a task *from a maximum-loaded rank* that violates
    /// the relaxed criterion (`LOAD(o) ≥ ℓ_i − ℓ_x`) cannot decrease F.
    /// Checked exhaustively over every violating (task, recipient) pair
    /// of the max rank.
    #[test]
    fn lemma2_violating_transfer_from_max_rank_never_helps(
        dist in nonempty_distribution(),
    ) {
        // The max-loaded rank with at least one task (non-empty ranks
        // always include the max: empty ranks have load 0).
        let sender = dist
            .rank_ids()
            .filter(|&r| !dist.tasks_on(r).is_empty())
            .max_by(|&a, &b| dist.rank_load(a).total_cmp(&dist.rank_load(b)))
            .unwrap();
        prop_assert!(dist.rank_load(sender) == dist.max_load());
        let l_i = dist.rank_load(sender);
        let f_before = dist.statistics().objective(1.0);

        for task in dist.tasks_on(sender).to_vec() {
            for recipient in dist.rank_ids().filter(|&r| r != sender) {
                let l_x = dist.rank_load(recipient);
                if task.load.get() < l_i.get() - l_x.get() {
                    continue; // criterion satisfied: Lemma 1 territory
                }
                let mut after = dist.clone();
                after.migrate(task.id, recipient).unwrap();
                let f_after = after.statistics().objective(1.0);
                prop_assert!(
                    f_after >= f_before - 1e-9,
                    "violating transfer decreased F: {f_before} -> {f_after}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Orderings
// ---------------------------------------------------------------------------

proptest! {
    /// Every ordering is a permutation of the input tasks.
    #[test]
    fn orderings_are_permutations(
        loads in prop::collection::vec(0.01f64..5.0, 1..40),
        l_ave in 0.1f64..10.0,
        l_p_extra in 0.0f64..10.0,
    ) {
        let tasks: Vec<Task> = loads
            .iter()
            .enumerate()
            .map(|(i, &l)| Task::new(i as u64, l))
            .collect();
        let l_p = Load::new(loads.iter().sum::<f64>() + l_p_extra);
        for kind in OrderingKind::ALL {
            let out = kind.order_tasks(&tasks, Load::new(l_ave), l_p);
            prop_assert_eq!(out.len(), tasks.len());
            let mut ids: Vec<u64> = out.iter().map(|t| t.id.as_u64()).collect();
            ids.sort_unstable();
            let expect: Vec<u64> = (0..tasks.len() as u64).collect();
            prop_assert_eq!(ids, expect, "{} dropped/duplicated tasks", kind);
        }
    }

    /// Algorithm 5: when some task alone exceeds the excess, the first
    /// candidate is the *smallest* such task; otherwise the order falls
    /// back to descending and leads with the heaviest.
    #[test]
    fn fewest_migrations_first_candidate_is_minimal_resolver(
        loads in prop::collection::vec(0.01f64..5.0, 1..40),
        ave_frac in 0.05f64..1.0,
    ) {
        let tasks: Vec<Task> = loads
            .iter()
            .enumerate()
            .map(|(i, &l)| Task::new(i as u64, l))
            .collect();
        let l_p = Load::new(loads.iter().sum::<f64>());
        // An average that keeps the rank overloaded, so the excess is a
        // meaningful fraction of the rank's load.
        let l_ave = Load::new(l_p.get() * ave_frac);
        let l_ex = l_p.get() - l_ave.get();
        let out = OrderingKind::FewestMigrations.order_tasks(&tasks, l_ave, l_p);
        let resolvers: Vec<f64> = loads.iter().copied().filter(|&l| l > l_ex).collect();
        if resolvers.is_empty() {
            let max = loads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((out[0].load.get() - max).abs() < 1e-12);
        } else {
            let expected = resolvers.iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!(
                (out[0].load.get() - expected).abs() < 1e-12,
                "first candidate {} != smallest resolver {}",
                out[0].load.get(), expected
            );
        }
    }
}

// ---------------------------------------------------------------------------
// CMF
// ---------------------------------------------------------------------------

proptest! {
    /// CMF probabilities are positive and sum to 1 over the support, and
    /// the support only contains ranks strictly below the scale.
    #[test]
    fn cmf_is_a_probability_distribution(
        entries in prop::collection::vec((0u32..1000, 0.0f64..3.0), 1..50),
        l_ave in 0.1f64..3.0,
    ) {
        let knowledge: Knowledge = entries
            .iter()
            .map(|&(r, l)| (RankId::new(r), Load::new(l)))
            .collect();
        for kind in [CmfKind::Original, CmfKind::Modified] {
            if let Some(cmf) = Cmf::build(&knowledge, Load::new(l_ave), kind) {
                let total: f64 = (0..cmf.support().len()).map(|i| cmf.probability(i)).sum();
                prop_assert!((total - 1.0).abs() < 1e-9, "{kind}: sum {total}");
                for i in 0..cmf.support().len() {
                    prop_assert!(cmf.probability(i) > 0.0);
                }
            }
        }
    }

    /// Sampling only ever returns ranks in the support.
    #[test]
    fn cmf_samples_stay_in_support(
        entries in prop::collection::vec((0u32..100, 0.0f64..2.0), 1..20),
        seed in any::<u64>(),
    ) {
        let knowledge: Knowledge = entries
            .iter()
            .map(|&(r, l)| (RankId::new(r), Load::new(l)))
            .collect();
        if let Some(cmf) = Cmf::build(&knowledge, Load::new(1.0), CmfKind::Modified) {
            let mut rng = RngFactory::new(seed).rank_stream(b"p", 0, 0);
            for _ in 0..50 {
                let s = cmf.sample(&mut rng);
                prop_assert!(cmf.support().contains(&s));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Balancers: conservation, monotonicity, LPT bound
// ---------------------------------------------------------------------------

fn check_balancer(dist: &Distribution, result: &RebalanceResult) -> Result<(), TestCaseError> {
    result
        .distribution
        .check_invariants()
        .map_err(TestCaseError::fail)?;
    prop_assert_eq!(result.distribution.num_tasks(), dist.num_tasks());
    prop_assert!(result
        .distribution
        .total_load()
        .approx_eq(dist.total_load()));
    prop_assert!(result.final_imbalance <= result.initial_imbalance + 1e-9);
    let mut replay = dist.clone();
    replay.apply(&result.migrations).unwrap();
    for r in replay.rank_ids() {
        prop_assert!(replay
            .rank_load(r)
            .approx_eq(result.distribution.rank_load(r)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every balancer conserves tasks and load, never worsens imbalance,
    /// and reports migrations that replay to its proposal.
    #[test]
    fn balancers_satisfy_postconditions(
        dist in arb_distribution(),
        seed in any::<u64>(),
    ) {
        let factory = RngFactory::new(seed);
        let small_tempered = TemperedLb::new(TemperedConfig {
            trials: 1,
            iters: 2,
            gossip: GossipConfig { fanout: 2, rounds: 3, ..Default::default() },
            ..TemperedConfig::default()
        });
        let mut balancers: Vec<Box<dyn LoadBalancer>> = vec![
            Box::new(GreedyLb),
            Box::new(HierLb::default()),
            Box::new(GrapevineLb::new(GossipConfig { fanout: 2, rounds: 3, ..Default::default() })),
            Box::new(small_tempered),
        ];
        for lb in balancers.iter_mut() {
            let r = lb.rebalance(&dist, &factory, 0);
            check_balancer(&dist, &r)?;
        }
    }

    /// GreedyLb respects the LPT 4/3 bound against the packing lower
    /// bound.
    #[test]
    fn greedy_respects_lpt_bound(dist in nonempty_distribution()) {
        let r = GreedyLb.rebalance(&dist, &RngFactory::new(0), 0);
        let bound = lower_bound_max_load(dist.average_load(), dist.max_task_load());
        prop_assert!(
            r.distribution.max_load().get() <= bound.get() * 4.0 / 3.0 + 1e-9
        );
    }
}

// ---------------------------------------------------------------------------
// Gossip
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gossiped knowledge only ever names genuinely underloaded ranks,
    /// with their exact loads; and gossip is deterministic per seed.
    #[test]
    fn gossip_knowledge_is_sound(
        loads in prop::collection::vec(0.0f64..4.0, 2..40),
        seed in any::<u64>(),
        fanout in 1usize..4,
        rounds in 0usize..5,
    ) {
        let loads: Vec<Load> = loads.into_iter().map(Load::new).collect();
        let total: Load = loads.iter().sum();
        let l_ave = total / loads.len() as f64;
        let cfg = GossipConfig {
            fanout,
            rounds,
            max_knowledge: 0,
        };
        let factory = RngFactory::new(seed);
        let a = tempered_core::gossip::run_gossip(&loads, l_ave, &cfg, &factory, 0);
        for k in &a.knowledge {
            for (rank, load) in k.entries() {
                prop_assert!(loads[rank.as_usize()] < l_ave);
                prop_assert_eq!(load, loads[rank.as_usize()]);
            }
        }
        let b = tempered_core::gossip::run_gossip(&loads, l_ave, &cfg, &factory, 0);
        prop_assert_eq!(a.messages_sent, b.messages_sent);
        for (ka, kb) in a.knowledge.iter().zip(b.knowledge.iter()) {
            prop_assert_eq!(ka, kb);
        }
    }
}

// ---------------------------------------------------------------------------
// Knowledge: canonical order
// ---------------------------------------------------------------------------

/// `k` holds exactly `model`: same ranks in the same order, same load
/// bits, and the lookups agree on members and on non-members.
fn check_knowledge(k: &Knowledge, model: &[(u32, f64)]) -> Result<(), TestCaseError> {
    let ranks: Vec<u32> = k.ranks().iter().map(|r| r.as_u32()).collect();
    let bits: Vec<u64> = k.loads().iter().map(|l| l.get().to_bits()).collect();
    prop_assert_eq!(ranks, model.iter().map(|&(r, _)| r).collect::<Vec<_>>());
    prop_assert_eq!(
        bits,
        model.iter().map(|&(_, l)| l.to_bits()).collect::<Vec<_>>()
    );
    for &(r, l) in model {
        prop_assert!(k.contains(RankId::new(r)));
        prop_assert_eq!(k.load_of(RankId::new(r)), Some(Load::new(l)));
        let absent = RankId::new(r ^ 1);
        if !model.iter().any(|&(m, _)| m == absent.as_u32()) {
            prop_assert!(!k.contains(absent));
            prop_assert_eq!(k.load_of(absent), None);
        }
    }
    let max = model.iter().map(|&(_, l)| Load::new(l)).reduce(Load::max);
    prop_assert_eq!(k.max_known_load(), max);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `canonicalize` is the sort it replaced. Op sequences whose number
    /// of distinct ranks lands on both sides of `SCAN_MAX` (32: below it
    /// a comparison sort, above it the bitset rank-scatter) are replayed
    /// against a plain `Vec<(rank, load)>` whose canonicalize is
    /// `sort_by_key`; the two agree after every step.
    #[test]
    fn canonicalize_matches_a_reference_sort(
        ops in prop::collection::vec((0u8..8, 0u32..4096, 0.0f64..4.0), 8..160),
        late in 0u32..4096,
    ) {
        let mut k = Knowledge::new();
        let mut model: Vec<(u32, f64)> = Vec::new();
        for (kind, rank, load) in ops {
            match kind {
                // First insert wins.
                0..=5 => {
                    let fresh = !model.iter().any(|&(r, _)| r == rank);
                    prop_assert_eq!(k.insert(RankId::new(rank), Load::new(load)), fresh);
                    if fresh {
                        model.push((rank, load));
                    }
                }
                6 if !model.is_empty() => {
                    let at = rank as usize % model.len();
                    model[at].1 += load;
                    prop_assert!(k.add_to_load(RankId::new(model[at].0), Load::new(load)));
                }
                _ => {
                    k.canonicalize();
                    model.sort_by_key(|&(r, _)| r);
                    prop_assert!(k.is_canonical());
                }
            }
            check_knowledge(&k, &model)?;
        }

        k.canonicalize();
        model.sort_by_key(|&(r, _)| r);
        check_knowledge(&k, &model)?;
        // A second call is a no-op.
        k.canonicalize();
        check_knowledge(&k, &model)?;

        // A later out-of-order insert lands at the end; the next
        // canonicalize puts it in place.
        if !model.iter().any(|&(r, _)| r == late) {
            k.insert(RankId::new(late), Load::new(0.5));
            model.push((late, 0.5));
            check_knowledge(&k, &model)?;
            k.canonicalize();
            model.sort_by_key(|&(r, _)| r);
            prop_assert!(k.is_canonical());
            check_knowledge(&k, &model)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Knowledge: merge
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `merge_from` is the `insert` loop it replaced. Payloads are
    /// unsorted and repeat ranks with different loads (`rank % span`
    /// with a small span makes that the rule); the first long payload
    /// crosses `SCAN_MAX` (32) mid-way, so one payload runs both the scan
    /// path and the tail write, and a wide span keeps raising the
    /// highest id seen, growing the bitset mid-payload. `canonicalize`
    /// and `add_to_load` are interleaved. The reference calls `insert`
    /// pair by pair; both sets agree after every step.
    #[test]
    fn merge_from_matches_an_insert_loop(
        steps in prop::collection::vec(
            (0u8..8, prop::collection::vec((0u32..4096, 0.0f64..4.0), 0..48)),
            1..16,
        ),
        span in 0usize..3,
    ) {
        let span = [48u32, 512, 4096][span];
        let mut k = Knowledge::new();
        let mut reference = Knowledge::new();
        for (kind, payload) in steps {
            match (kind, payload.first()) {
                (0..=5, _) => {
                    let pairs = payload
                        .iter()
                        .map(|&(r, l)| (RankId::new(r % span), Load::new(l)));
                    let added = pairs
                        .clone()
                        .filter(|&(r, l)| reference.insert(r, l))
                        .count();
                    prop_assert_eq!(k.merge_from(pairs), added);
                }
                (6, Some(&(at, delta))) if !reference.is_empty() => {
                    let rank = reference.ranks()[at as usize % reference.len()];
                    prop_assert!(reference.add_to_load(rank, Load::new(delta)));
                    prop_assert!(k.add_to_load(rank, Load::new(delta)));
                }
                _ => {
                    k.canonicalize();
                    reference.canonicalize();
                }
            }
            prop_assert_eq!(k.is_canonical(), reference.is_canonical());
            let model: Vec<(u32, f64)> = reference
                .entries()
                .map(|(r, l)| (r.as_u32(), l.get()))
                .collect();
            check_knowledge(&k, &model)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Refinement
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full refinement conserves everything and never returns a worse
    /// distribution than its input.
    #[test]
    fn refine_is_safe(dist in arb_distribution(), seed in any::<u64>()) {
        let cfg = RefineConfig {
            trials: 2,
            iters: 3,
            gossip: GossipConfig { fanout: 2, rounds: 4, ..Default::default() },
            transfer: TransferConfig::tempered(),
        };
        let out = refine(&dist, &cfg, &RngFactory::new(seed), 0);
        prop_assert!(out.best_imbalance <= out.initial_imbalance + 1e-9);
        prop_assert_eq!(out.best.num_tasks(), dist.num_tasks());
        prop_assert!(out.best.total_load().approx_eq(dist.total_load()));
        out.best.check_invariants().map_err(TestCaseError::fail)?;
        // Deferred migrations replay input → best.
        let mut replay = dist.clone();
        replay.apply(&out.migrations).unwrap();
        for r in replay.rank_ids() {
            prop_assert!(replay.rank_load(r).approx_eq(out.best.rank_load(r)));
        }
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

proptest! {
    /// Imbalance is non-negative, zero only for flat distributions, and
    /// invariant under permutations of the load vector.
    #[test]
    fn imbalance_metric_properties(loads in prop::collection::vec(0.0f64..10.0, 1..50)) {
        let l: Vec<Load> = loads.iter().copied().map(Load::new).collect();
        let s = LoadStatistics::from_loads(&l);
        prop_assert!(s.imbalance >= -1e-12);
        let mut rev = l.clone();
        rev.reverse();
        let s2 = LoadStatistics::from_loads(&rev);
        prop_assert!((s.imbalance - s2.imbalance).abs() < 1e-12);
        prop_assert!(s.max >= s.average);
        prop_assert!(s.min <= s.average);
    }
}
