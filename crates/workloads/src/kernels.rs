//! AoS vs. SoA particle-update micro-kernels (experiment E4).
//!
//! The paper's flagship application of semantic patching is the
//! AoS→SoA transformation of the GADGET cosmological code (\[ML21\],
//! recommended by the \[BIHK16\] pilot study to improve auto-vectorization).
//! We cannot run GADGET, but the *performance phenomenon that motivates
//! the refactoring* — structure-of-arrays layout turning strided memory
//! access into unit-stride, vectorizable access — is reproducible with a
//! small particle kernel. These Rust kernels compute the same update in
//! both layouts; the Criterion bench `aos_soa` sweeps the particle count
//! and reports the throughput ratio.
//!
//! The kernel touches only 3 of the 10 fields per particle, mirroring
//! the partial-access pattern of real SPH loops where AoS wastes memory
//! bandwidth on unused struct fields.

/// One particle in array-of-structures layout. The padding fields mirror
/// GADGET's many per-particle quantities; the update touches only
/// `pos`/`vel` components, so most of each cache line is wasted traffic.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
pub struct Particle {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass (unused by the kick-drift update).
    pub mass: f64,
    /// Density (unused).
    pub rho: f64,
    /// Internal energy (unused).
    pub u: f64,
    /// Smoothing length (unused).
    pub hsml: f64,
}

/// Particles in structure-of-arrays layout.
#[derive(Debug, Clone, Default)]
pub struct ParticlesSoA {
    /// x positions.
    pub pos_x: Vec<f64>,
    /// y positions.
    pub pos_y: Vec<f64>,
    /// z positions.
    pub pos_z: Vec<f64>,
    /// x velocities.
    pub vel_x: Vec<f64>,
    /// y velocities.
    pub vel_y: Vec<f64>,
    /// z velocities.
    pub vel_z: Vec<f64>,
    /// Masses (unused by the update).
    pub mass: Vec<f64>,
    /// Densities (unused).
    pub rho: Vec<f64>,
    /// Internal energies (unused).
    pub u: Vec<f64>,
    /// Smoothing lengths (unused).
    pub hsml: Vec<f64>,
}

/// Deterministically initialize `n` AoS particles.
pub fn init_aos(n: usize) -> Vec<Particle> {
    (0..n)
        .map(|i| {
            let f = i as f64;
            Particle {
                pos: [f * 0.25, f * 0.5, f * 0.75],
                vel: [1.0 / (f + 1.0), 0.5, -0.25],
                mass: 1.0,
                rho: 0.0,
                u: 0.0,
                hsml: 0.1,
            }
        })
        .collect()
}

/// Deterministically initialize `n` SoA particles (same values as
/// [`init_aos`]).
pub fn init_soa(n: usize) -> ParticlesSoA {
    let mut p = ParticlesSoA::default();
    for i in 0..n {
        let f = i as f64;
        p.pos_x.push(f * 0.25);
        p.pos_y.push(f * 0.5);
        p.pos_z.push(f * 0.75);
        p.vel_x.push(1.0 / (f + 1.0));
        p.vel_y.push(0.5);
        p.vel_z.push(-0.25);
        p.mass.push(1.0);
        p.rho.push(0.0);
        p.u.push(0.0);
        p.hsml.push(0.1);
    }
    p
}

/// Kick-drift update, AoS layout: strided access, each particle pulls a
/// full struct through the cache to touch 6 of its 10 doubles.
pub fn update_aos(particles: &mut [Particle], dt: f64) {
    for p in particles.iter_mut() {
        p.pos[0] += dt * p.vel[0];
        p.pos[1] += dt * p.vel[1];
        p.pos[2] += dt * p.vel[2];
    }
}

/// Kick-drift update, SoA layout: six unit-stride streams the compiler
/// auto-vectorizes.
pub fn update_soa(p: &mut ParticlesSoA, dt: f64) {
    let n = p.pos_x.len();
    // Slice re-borrows let the optimizer prove disjointness.
    let (px, py, pz) = (&mut p.pos_x[..n], &mut p.pos_y[..n], &mut p.pos_z[..n]);
    let (vx, vy, vz) = (&p.vel_x[..n], &p.vel_y[..n], &p.vel_z[..n]);
    for i in 0..n {
        px[i] += dt * vx[i];
    }
    for i in 0..n {
        py[i] += dt * vy[i];
    }
    for i in 0..n {
        pz[i] += dt * vz[i];
    }
}

/// Checksum over positions, layout-independent (used to verify the two
/// kernels compute the same thing).
pub fn checksum_aos(particles: &[Particle]) -> f64 {
    particles
        .iter()
        .map(|p| p.pos[0] + p.pos[1] + p.pos[2])
        .sum()
}

/// Checksum over positions (SoA).
pub fn checksum_soa(p: &ParticlesSoA) -> f64 {
    p.pos_x
        .iter()
        .zip(&p.pos_y)
        .zip(&p.pos_z)
        .map(|((x, y), z)| x + y + z)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aos_and_soa_compute_identical_results() {
        let n = 1000;
        let mut aos = init_aos(n);
        let mut soa = init_soa(n);
        for _ in 0..10 {
            update_aos(&mut aos, 0.01);
            update_soa(&mut soa, 0.01);
        }
        let ca = checksum_aos(&aos);
        let cs = checksum_soa(&soa);
        assert!((ca - cs).abs() < 1e-9 * ca.abs().max(1.0), "{ca} vs {cs}");
    }

    #[test]
    fn update_moves_particles() {
        let mut aos = init_aos(10);
        let before = checksum_aos(&aos);
        update_aos(&mut aos, 0.5);
        assert_ne!(before, checksum_aos(&aos));
    }

    #[test]
    fn initializers_agree() {
        let aos = init_aos(64);
        let soa = init_soa(64);
        assert!((checksum_aos(&aos) - checksum_soa(&soa)).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut aos = init_aos(0);
        update_aos(&mut aos, 0.1);
        let mut soa = init_soa(0);
        update_soa(&mut soa, 0.1);
        assert_eq!(checksum_aos(&aos), 0.0);
        assert_eq!(checksum_soa(&soa), 0.0);
    }
}
