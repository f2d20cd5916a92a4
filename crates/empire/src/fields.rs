//! Electromagnetic field surrogate: the "B-Dot" drive that pushes the
//! particles.
//!
//! EMPIRE's B-Dot problem drives the plasma with a time-varying magnetic
//! field (hence *B-dot*: `∂B/∂t`). The surrogate field gives particles
//! (a) an outward radial push whose strength follows the drive envelope,
//! and (b) a perpendicular (E×B-like) rotation component — together these
//! advect the initially concentrated plasma outward over the run, exactly
//! the workload dynamics that make the per-color particle loads
//! time-varying.
//!
//! The non-particle (FEM solve) work is not computed here: it is priced
//! by `CostModel::per_cell` over each rank's cells, uniform across ranks
//! under the static mesh decomposition, which is why the paper's `t_n`
//! is nearly identical across configurations.

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
}
