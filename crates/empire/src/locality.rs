//! Communication locality of a color-to-rank assignment.
//!
//! §V-E2 motivates the Fewest Migrations ordering partly by "secondary
//! effects such as lost communication locality leading to increased data
//! movement", and §VII names inter-task communication cost as the
//! paper's future work. This module quantifies both: colors exchange
//! ghost layers with their mesh neighbors, so an assignment's
//! *communication locality* is the fraction of neighbor edges whose
//! endpoints share a rank, and its *remote ghost volume* is the count of
//! edges that cross ranks (each of which costs a message per step).
//!
//! The home (SPMD-block) assignment is locality-optimal by construction;
//! every balancer trades some locality for balance. The timeline records
//! the metric so sweeps can expose the trade-off.

use crate::mesh::Mesh;
use tempered_core::distribution::Distribution;

/// Locality statistics of one assignment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalityStats {
    /// Total undirected neighbor edges in the color graph.
    pub total_edges: usize,
    /// Edges whose two colors live on the same rank.
    pub intra_rank_edges: usize,
}

impl LocalityStats {
    /// Fraction of neighbor edges that stay on-rank (`1.0` = perfect
    /// locality); `1.0` for an edgeless mesh.
    pub fn locality(&self) -> f64 {
        if self.total_edges == 0 {
            1.0
        } else {
            self.intra_rank_edges as f64 / self.total_edges as f64
        }
    }
}

/// Measure the communication locality of `assignment` over `mesh`'s
/// color graph (4-neighborhood; each undirected edge counted once).
pub fn measure_locality(mesh: &Mesh, assignment: &Distribution) -> LocalityStats {
    let mut total = 0usize;
    let mut intra = 0usize;
    for color in mesh.colors() {
        let here = assignment
            .location_of(color.task_id())
            .expect("every color is assigned");
        for n in mesh.color_neighbors(color) {
            // Count each undirected edge once: from the lower color id.
            if n.as_usize() < color.as_usize() {
                continue;
            }
            total += 1;
            let there = assignment
                .location_of(n.task_id())
                .expect("every color is assigned");
            if here == there {
                intra += 1;
            }
        }
    }
    LocalityStats {
        total_edges: total,
        intra_rank_edges: intra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempered_core::ids::RankId;
    use tempered_core::task::Task;

    fn home_assignment(mesh: &Mesh) -> Distribution {
        let mut dist = Distribution::new(mesh.num_ranks());
        for c in mesh.colors() {
            dist.insert(mesh.home_rank(c), Task::new(c.task_id(), 1.0))
                .unwrap();
        }
        dist
    }

    #[test]
    fn edge_count_matches_grid_formula() {
        let mesh = Mesh::small();
        let (gx, gy) = mesh.color_grid();
        let dist = home_assignment(&mesh);
        let s = measure_locality(&mesh, &dist);
        assert_eq!(s.total_edges, gx * (gy - 1) + gy * (gx - 1));
    }

    #[test]
    fn home_assignment_has_high_locality() {
        let mesh = Mesh::paper_scale();
        let dist = home_assignment(&mesh);
        let s = measure_locality(&mesh, &dist);
        // Only the color edges crossing rank-block boundaries are remote:
        // (ranks_x − 1)·ranks_y vertical boundaries of colors_y edges each,
        // plus the transpose for horizontal boundaries.
        let remote_exact = (mesh.ranks_x - 1) * mesh.ranks_y * mesh.colors_y
            + (mesh.ranks_y - 1) * mesh.ranks_x * mesh.colors_x;
        assert_eq!(s.total_edges - s.intra_rank_edges, remote_exact);
        assert!(
            s.locality() > 0.6,
            "block decomposition should be mostly local, got {}",
            s.locality()
        );
    }

    #[test]
    fn round_robin_scatter_destroys_locality() {
        let mesh = Mesh::small();
        let mut dist = Distribution::new(mesh.num_ranks());
        for (i, c) in mesh.colors().enumerate() {
            dist.insert(
                RankId::from(i % mesh.num_ranks()),
                Task::new(c.task_id(), 1.0),
            )
            .unwrap();
        }
        let scattered = measure_locality(&mesh, &dist);
        let home = measure_locality(&mesh, &home_assignment(&mesh));
        assert!(
            scattered.locality() < home.locality() * 0.5,
            "scatter {} vs home {}",
            scattered.locality(),
            home.locality()
        );
    }

    #[test]
    fn single_rank_is_fully_local() {
        let mut mesh = Mesh::small();
        mesh.ranks_x = 1;
        mesh.ranks_y = 1;
        let dist = home_assignment(&mesh);
        let s = measure_locality(&mesh, &dist);
        assert_eq!(s.locality(), 1.0);
        assert_eq!(s.intra_rank_edges, s.total_edges);
    }
}
