//! Migratable task (work unit) representation.

use crate::ids::TaskId;
use crate::load::Load;

/// A migratable work unit with an instrumented load.
///
/// In the paper's execution model a task is an overdecomposed chunk of the
/// application domain (an EMPIRE "color"): the runtime measures how long
/// each task executed during the previous phase and hands the balancer a
/// bag of `(id, load)` pairs per rank. The balancer never looks inside a
/// task; `Task` is therefore deliberately just that pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Task {
    /// Globally unique, migration-stable identifier.
    pub id: TaskId,
    /// Instrumented execution load for the preceding phase.
    pub load: Load,
}

impl Task {
    /// Construct a task.
    #[inline]
    pub fn new(id: impl Into<TaskId>, load: impl Into<Load>) -> Self {
        Task {
            id: id.into(),
            load: load.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_from_raw_values() {
        let t = Task::new(3u64, 1.5);
        assert_eq!(t.id, TaskId::new(3));
        assert_eq!(t.load, Load::new(1.5));
    }
}
