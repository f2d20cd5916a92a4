//! Structured 2-D mesh, rank decomposition, and per-rank coloring.
//!
//! EMPIRE solves fields on an unstructured mesh with a static SPMD
//! decomposition, then further *colors* each rank's sub-mesh into
//! migratable chunks (Fig. 1). The surrogate uses a structured grid —
//! what matters to the balancer is only the chunk structure: a chunk
//! ("color") owns a contiguous cell region and all particles inside it,
//! and colors are the migratable tasks.
//!
//! Layout: the domain is `[0, width) × [0, height)` split into
//! `ranks_x × ranks_y` rank blocks; each rank block is split into
//! `colors_x × colors_y` colors, giving an overdecomposition factor of
//! `colors_x · colors_y` (the paper uses 24).

use tempered_core::ids::{RankId, TaskId};

/// Geometry and decomposition of the computational domain.
#[derive(Clone, Copy, Debug)]
pub struct Mesh {
    /// Domain width (physical units).
    pub width: f64,
    /// Domain height.
    pub height: f64,
    /// Rank grid columns.
    pub ranks_x: usize,
    /// Rank grid rows.
    pub ranks_y: usize,
    /// Color grid columns per rank.
    pub colors_x: usize,
    /// Color grid rows per rank.
    pub colors_y: usize,
    /// Field cells per color edge (cost model for the field solve).
    pub cells_per_color_edge: usize,
}

impl Mesh {
    /// The paper's scale: 400 ranks (20 × 20), ×24 overdecomposition
    /// (6 × 4 colors per rank).
    pub fn paper_scale() -> Self {
        Mesh {
            width: 1.0,
            height: 1.0,
            ranks_x: 20,
            ranks_y: 20,
            colors_x: 6,
            colors_y: 4,
            cells_per_color_edge: 8,
        }
    }

    /// A small mesh for tests and examples: 16 ranks, ×6 overdecomposition.
    pub fn small() -> Self {
        Mesh {
            width: 1.0,
            height: 1.0,
            ranks_x: 4,
            ranks_y: 4,
            colors_x: 3,
            colors_y: 2,
            cells_per_color_edge: 4,
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn num_ranks(&self) -> usize {
        self.ranks_x * self.ranks_y
    }

    /// Overdecomposition factor: colors per rank.
    #[inline]
    pub fn colors_per_rank(&self) -> usize {
        self.colors_x * self.colors_y
    }

    /// Total colors (migratable tasks) in the system.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.num_ranks() * self.colors_per_rank()
    }

    /// Global color grid dimensions.
    #[inline]
    pub fn color_grid(&self) -> (usize, usize) {
        (self.ranks_x * self.colors_x, self.ranks_y * self.colors_y)
    }

    /// Field cells per color (cost unit for the non-particle work).
    #[inline]
    pub fn cells_per_color(&self) -> usize {
        self.cells_per_color_edge * self.cells_per_color_edge
    }

    /// The color containing physical position `(x, y)`; positions are
    /// clamped into the domain.
    pub fn color_at(&self, x: f64, y: f64) -> ColorId {
        let (gx, gy) = self.color_grid();
        let cx = ((x / self.width * gx as f64) as isize).clamp(0, gx as isize - 1) as usize;
        let cy = ((y / self.height * gy as f64) as isize).clamp(0, gy as isize - 1) as usize;
        ColorId::from_grid(self, cx, cy)
    }

    /// Physical center of a color's cell region. Test accessor: the
    /// round trip through [`Mesh::color_at`] is that function's oracle.
    pub fn color_center(&self, color: ColorId) -> (f64, f64) {
        let (gx, gy) = self.color_grid();
        let (cx, cy) = color.grid_pos(self);
        (
            (cx as f64 + 0.5) * self.width / gx as f64,
            (cy as f64 + 0.5) * self.height / gy as f64,
        )
    }

    /// The *home* rank of a color under the static SPMD decomposition.
    pub fn home_rank(&self, color: ColorId) -> RankId {
        let (cx, cy) = color.grid_pos(self);
        let rx = cx / self.colors_x;
        let ry = cy / self.colors_y;
        RankId::from(ry * self.ranks_x + rx)
    }

    /// Iterator over all colors.
    pub fn colors(&self) -> impl Iterator<Item = ColorId> + '_ {
        (0..self.num_colors() as u64).map(ColorId)
    }

    /// The 4-neighborhood of a color on the global color grid (for ghost
    /// exchange accounting).
    pub fn color_neighbors(&self, color: ColorId) -> Vec<ColorId> {
        let (gx, gy) = self.color_grid();
        let (cx, cy) = color.grid_pos(self);
        let mut out = Vec::with_capacity(4);
        if cx > 0 {
            out.push(ColorId::from_grid(self, cx - 1, cy));
        }
        if cx + 1 < gx {
            out.push(ColorId::from_grid(self, cx + 1, cy));
        }
        if cy > 0 {
            out.push(ColorId::from_grid(self, cx, cy - 1));
        }
        if cy + 1 < gy {
            out.push(ColorId::from_grid(self, cx, cy + 1));
        }
        out
    }
}

/// Identifier of a color (migratable mesh chunk). Convertible to the
/// balancer's [`TaskId`] one-to-one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColorId(pub u64);

impl ColorId {
    /// Construct from a global color-grid position.
    pub fn from_grid(mesh: &Mesh, cx: usize, cy: usize) -> Self {
        let (gx, _) = mesh.color_grid();
        ColorId((cy * gx + cx) as u64)
    }

    /// This color's global color-grid position.
    pub fn grid_pos(self, mesh: &Mesh) -> (usize, usize) {
        let (gx, _) = mesh.color_grid();
        ((self.0 as usize) % gx, (self.0 as usize) / gx)
    }

    /// The balancer task id for this color.
    #[inline]
    pub fn task_id(self) -> TaskId {
        TaskId(self.0)
    }

    /// Back-conversion from a task id.
    #[inline]
    pub fn from_task(task: TaskId) -> Self {
        ColorId(task.0)
    }

    /// Dense index.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_dimensions() {
        let m = Mesh::paper_scale();
        assert_eq!(m.num_ranks(), 400);
        assert_eq!(m.colors_per_rank(), 24);
        assert_eq!(m.num_colors(), 9600);
        assert_eq!(m.color_grid(), (120, 80));
    }

    #[test]
    fn color_at_covers_domain_and_clamps() {
        let m = Mesh::small();
        let c = m.color_at(0.0, 0.0);
        assert_eq!(c.grid_pos(&m), (0, 0));
        let c = m.color_at(m.width - 1e-12, m.height - 1e-12);
        let (gx, gy) = m.color_grid();
        assert_eq!(c.grid_pos(&m), (gx - 1, gy - 1));
        // Out-of-domain positions clamp instead of panicking.
        let c = m.color_at(-5.0, 99.0);
        assert_eq!(c.grid_pos(&m), (0, gy - 1));
    }

    #[test]
    fn home_rank_blocks_are_contiguous() {
        let m = Mesh::small();
        // All colors of rank 0's block are in the top-left rank cell.
        let mut per_rank = vec![0usize; m.num_ranks()];
        for c in m.colors() {
            per_rank[m.home_rank(c).as_usize()] += 1;
        }
        assert!(per_rank.iter().all(|&n| n == m.colors_per_rank()));
    }

    #[test]
    fn color_center_round_trips_through_color_at() {
        let m = Mesh::paper_scale();
        for c in m.colors().step_by(97) {
            let (x, y) = m.color_center(c);
            assert_eq!(m.color_at(x, y), c);
        }
    }

    #[test]
    fn color_task_id_roundtrip() {
        let c = ColorId(1234);
        assert_eq!(ColorId::from_task(c.task_id()), c);
    }

    #[test]
    fn neighbors_are_adjacent_and_in_bounds() {
        let m = Mesh::small();
        let (gx, gy) = m.color_grid();
        for c in m.colors() {
            let (cx, cy) = c.grid_pos(&m);
            let ns = m.color_neighbors(c);
            let expected = [cx > 0, cx + 1 < gx, cy > 0, cy + 1 < gy]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(ns.len(), expected);
            for n in ns {
                let (nx, ny) = n.grid_pos(&m);
                let d = nx.abs_diff(cx) + ny.abs_diff(cy);
                assert_eq!(d, 1);
            }
        }
    }

    #[test]
    fn interior_color_has_four_neighbors() {
        let m = Mesh::small();
        let c = ColorId::from_grid(&m, 3, 3);
        assert_eq!(m.color_neighbors(c).len(), 4);
    }
}
