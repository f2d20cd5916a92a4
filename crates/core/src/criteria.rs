//! Transfer acceptance criteria (Algorithm 2, `EVALUATECRITERION`).
//!
//! Given a candidate task `o_x` on overloaded rank `p` (load `ℓ^p`), a
//! prospective recipient `p_x` with locally-estimated load `ℓ_x`, and the
//! global average `ℓ_ave`:
//!
//! * **Original** (GrapevineLB, line 35): accept iff
//!   `ℓ_x + LOAD(o_x) < ℓ_ave` — the recipient must stay strictly below
//!   average. §V-B shows this enforces per-recipient monotonicity (an ℓ¹
//!   criterion for an ℓ∞ objective) and yields >94 % rejection rates that
//!   trap the optimization in a local minimum.
//! * **Relaxed** (TemperedLB, line 37): accept iff
//!   `LOAD(o_x) < ℓ^p − ℓ_x`, equivalently `ℓ_x + LOAD(o_x) < ℓ^p` — the
//!   recipient may exceed average, but never ends up as loaded as the
//!   sender was before the transfer. Lemma 1 proves this makes the
//!   objective `F` monotonically decrease; Lemma 2 proves it cannot be
//!   relaxed further, making it the *optimal* criterion for this strategy.

use crate::load::Load;

/// Which acceptance test `EVALUATECRITERION` applies.
///
/// ```
/// use tempered_core::prelude::*;
///
/// let (l_x, task, l_ave, l_p) =
///     (Load::new(0.9), Load::new(0.5), Load::new(1.0), Load::new(3.0));
/// // Original: recipient would reach 1.4 > average → rejected.
/// assert!(!CriterionKind::Original.evaluate(l_x, task, l_ave, l_p));
/// // Relaxed: 1.4 is still far below the sender's 3.0 → accepted.
/// assert!(CriterionKind::Relaxed.evaluate(l_x, task, l_ave, l_p));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CriterionKind {
    /// GrapevineLB original: `ℓ_x + LOAD(o_x) < ℓ_ave`.
    Original,
    /// TemperedLB relaxed (optimal per §V-C): `LOAD(o_x) < ℓ^p − ℓ_x`.
    #[default]
    Relaxed,
}

impl std::fmt::Display for CriterionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CriterionKind::Original => write!(f, "original"),
            CriterionKind::Relaxed => write!(f, "relaxed"),
        }
    }
}

impl CriterionKind {
    /// Algorithm 2 lines 33–39: decide whether moving a task with load
    /// `task_load` from a rank with load `l_p` to a recipient with
    /// estimated load `l_x` is acceptable.
    #[inline]
    pub fn evaluate(self, l_x: Load, task_load: Load, l_ave: Load, l_p: Load) -> bool {
        match self {
            CriterionKind::Original => l_x.get() + task_load.get() < l_ave.get(),
            CriterionKind::Relaxed => task_load.get() < l_p.get() - l_x.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AVE: Load = Load(1.0);

    #[test]
    fn original_rejects_recipient_reaching_average() {
        // l_x + load == l_ave is rejected (strict inequality).
        assert!(!CriterionKind::Original.evaluate(Load(0.5), Load(0.5), AVE, Load(3.0)));
        assert!(CriterionKind::Original.evaluate(Load(0.4), Load(0.5), AVE, Load(3.0)));
        assert!(!CriterionKind::Original.evaluate(Load(0.9), Load(0.2), AVE, Load(3.0)));
    }

    #[test]
    fn original_ignores_sender_load() {
        assert_eq!(
            CriterionKind::Original.evaluate(Load(0.3), Load(0.5), AVE, Load(100.0)),
            CriterionKind::Original.evaluate(Load(0.3), Load(0.5), AVE, Load(1.1)),
        );
    }

    #[test]
    fn relaxed_allows_recipient_above_average() {
        // Sender at 3.0, recipient estimate 0.9: a task of 1.5 lands the
        // recipient at 2.4 > average — accepted, because 2.4 < 3.0.
        assert!(CriterionKind::Relaxed.evaluate(Load(0.9), Load(1.5), AVE, Load(3.0)));
        assert!(!CriterionKind::Original.evaluate(Load(0.9), Load(1.5), AVE, Load(3.0)));
    }

    #[test]
    fn relaxed_rejects_recipient_matching_sender() {
        // l_x + load == l_p → rejected: max norm must strictly decrease
        // locally.
        assert!(!CriterionKind::Relaxed.evaluate(Load(1.0), Load(2.0), AVE, Load(3.0)));
        assert!(CriterionKind::Relaxed.evaluate(Load(1.0), Load(1.9), AVE, Load(3.0)));
    }

    #[test]
    fn relaxed_is_strictly_weaker_than_original_for_overloaded_senders() {
        // Whenever the sender is overloaded (l_p > l_ave), original
        // acceptance implies relaxed acceptance.
        let cases = [
            (0.0, 0.5, 2.0),
            (0.3, 0.6, 1.5),
            (0.5, 0.49, 1.01),
            (0.8, 0.1, 3.0),
        ];
        for (l_x, load, l_p) in cases {
            let orig = CriterionKind::Original.evaluate(Load(l_x), Load(load), AVE, Load(l_p));
            let relaxed = CriterionKind::Relaxed.evaluate(Load(l_x), Load(load), AVE, Load(l_p));
            if orig {
                assert!(relaxed, "original accepted but relaxed rejected: {cases:?}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(CriterionKind::Original.to_string(), "original");
        assert_eq!(CriterionKind::Relaxed.to_string(), "relaxed");
    }
}
