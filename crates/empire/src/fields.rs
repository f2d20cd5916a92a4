//! Electromagnetic field surrogate: the "B-Dot" drive and a real Jacobi
//! relaxation kernel for the non-particle (FEM solve) work.
//!
//! EMPIRE's B-Dot problem drives the plasma with a time-varying magnetic
//! field (hence *B-dot*: `∂B/∂t`). The surrogate field gives particles
//! (a) an outward radial push whose strength follows the drive envelope,
//! and (b) a perpendicular (E×B-like) rotation component — together these
//! advect the initially concentrated plasma outward over the run, exactly
//! the workload dynamics that make the per-color particle loads
//! time-varying.
//!
//! The module also contains a genuine 5-point Jacobi relaxation used by
//! examples and tests as the stand-in for the Trilinos FEM solve: the
//! *cost* of the solve per rank is uniform (static mesh decomposition),
//! which is why the paper's `t_n` is nearly identical across
//! configurations.

/// Analytic field surrogate.
#[derive(Clone, Copy, Debug)]
pub struct FieldModel {
    /// Domain center x.
    pub center_x: f64,
    /// Domain center y.
    pub center_y: f64,
    /// Peak outward (radial) acceleration of the drive.
    pub radial_accel: f64,
    /// Rotational (azimuthal) acceleration coefficient.
    pub swirl_accel: f64,
    /// Drive ramp time constant: the envelope is `1 − exp(−t/τ)`.
    pub ramp_tau: f64,
    /// Linear drag coefficient (keeps velocities bounded).
    pub drag: f64,
}

impl Default for FieldModel {
    fn default() -> Self {
        FieldModel {
            center_x: 0.5,
            center_y: 0.5,
            radial_accel: 0.15,
            swirl_accel: 0.05,
            ramp_tau: 0.5,
            drag: 0.1,
        }
    }
}

impl FieldModel {
    /// Acceleration felt by a particle at `(x, y)` with velocity
    /// `(vx, vy)` at time `t`.
    pub fn acceleration(&self, x: f64, y: f64, vx: f64, vy: f64, t: f64) -> (f64, f64) {
        let dx = x - self.center_x;
        let dy = y - self.center_y;
        let r = (dx * dx + dy * dy).sqrt().max(1e-9);
        let envelope = 1.0 - (-t / self.ramp_tau).exp();
        let radial = self.radial_accel * envelope;
        // Azimuthal unit vector (−dy, dx)/r.
        let swirl = self.swirl_accel * envelope;
        (
            radial * dx / r - swirl * dy / r - self.drag * vx,
            radial * dy / r + swirl * dx / r - self.drag * vy,
        )
    }
}

/// A real 5-point Jacobi relaxation on a square grid: the surrogate for
/// the per-timestep field solve. Returns the final residual (L2 norm of
/// the update), so callers can assert convergence behaviour.
pub fn jacobi_relax(grid: &mut [f64], tmp: &mut [f64], n: usize, sweeps: usize) -> f64 {
    assert_eq!(grid.len(), n * n);
    assert_eq!(tmp.len(), n * n);
    let mut residual = 0.0;
    for _ in 0..sweeps {
        residual = 0.0;
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                let idx = j * n + i;
                let new = 0.25 * (grid[idx - 1] + grid[idx + 1] + grid[idx - n] + grid[idx + n]);
                let d = new - grid[idx];
                residual += d * d;
                tmp[idx] = new;
            }
        }
        // Interior update; boundary (Dirichlet) stays.
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                let idx = j * n + i;
                grid[idx] = tmp[idx];
            }
        }
        residual = residual.sqrt();
    }
    residual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_ramps_up_from_zero() {
        let f = FieldModel::default();
        let (ax0, ay0) = f.acceleration(0.7, 0.5, 0.0, 0.0, 0.0);
        let (ax1, _) = f.acceleration(0.7, 0.5, 0.0, 0.0, 10.0);
        assert!(ax0.abs() < 1e-9 && ay0.abs() < 1e-9, "zero drive at t=0");
        assert!(ax1 > 0.0, "outward push right of center at late time");
    }

    #[test]
    fn acceleration_is_radially_outward_late() {
        let f = FieldModel {
            swirl_accel: 0.0,
            drag: 0.0,
            ..Default::default()
        };
        // Right of center → +x; below center → −y.
        let (ax, _) = f.acceleration(0.9, 0.5, 0.0, 0.0, 100.0);
        assert!(ax > 0.0);
        let (_, ay) = f.acceleration(0.5, 0.1, 0.0, 0.0, 100.0);
        assert!(ay < 0.0);
    }

    #[test]
    fn drag_opposes_velocity() {
        let f = FieldModel {
            radial_accel: 0.0,
            swirl_accel: 0.0,
            ..Default::default()
        };
        let (ax, ay) = f.acceleration(0.5, 0.5, 2.0, -1.0, 100.0);
        assert!(ax < 0.0);
        assert!(ay > 0.0);
    }

    #[test]
    fn jacobi_converges_toward_harmonic() {
        // Hot boundary on one side, zero elsewhere: relaxation must
        // monotonically shrink the residual.
        let n = 16;
        let mut grid = vec![0.0; n * n];
        for g in grid.iter_mut().take(n) {
            *g = 1.0; // top boundary
        }
        let mut tmp = grid.clone();
        let r1 = jacobi_relax(&mut grid, &mut tmp, n, 5);
        let r2 = jacobi_relax(&mut grid, &mut tmp, n, 50);
        assert!(r2 < r1, "residual must decrease: {r1} → {r2}");
        // Interior values are bounded by the boundary extremes.
        assert!(grid.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // And heat has diffused into the interior.
        assert!(grid[n + n / 2] > 0.0);
    }
}
