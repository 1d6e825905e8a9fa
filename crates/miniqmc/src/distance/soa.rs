//! SoA distance tables: coordinate-stream kernels, one fused pass over
//! the sources per point.
//!
//! Storage convention (QMCPACK SoA): for each *target* particle `i` the
//! distances (and displacement components) to all *sources* are a
//! contiguous row, so per-particle updates touch unit-stride memory.
//! Displacements are `source_j − target_i` under minimum image.

use super::{round_half_away, BoundaryKind, ImageShifts};
use crate::lattice::Lattice;
use crate::particleset::ParticleSet;

/// Sources per block of the General kernel: the block's base images and
/// running minima stay local while every candidate shift is tried, so
/// each row is read and written once.
const LANES: usize = 8;

/// Kernel: minimum-image distances from one point to all sources given as
/// SoA streams. Writes `r`, `dx`, `dy`, `dz` rows (displacement =
/// source − point).
///
/// Bit-identical to [`super::min_image_scalar`] per source wherever the
/// nearest image is unique (see [`BoundaryKind::General`] for ties).
#[allow(clippy::too_many_arguments)]
pub fn distances_to_point(
    lattice: &Lattice,
    im: &ImageShifts,
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    p: [f64; 3],
    r: &mut [f64],
    dx: &mut [f64],
    dy: &mut [f64],
    dz: &mut [f64],
) {
    let n = sx.len();
    let (r, dx, dy, dz) = (&mut r[..n], &mut dx[..n], &mut dy[..n], &mut dz[..n]);
    let (sx, sy, sz) = (&sx[..n], &sy[..n], &sz[..n]);
    match im.kind {
        BoundaryKind::Orthorhombic => {
            let [lx, ly, lz] = im.edges;
            for j in 0..n {
                let mut ddx = sx[j] - p[0];
                let mut ddy = sy[j] - p[1];
                let mut ddz = sz[j] - p[2];
                ddx -= lx * round_half_away(ddx / lx);
                ddy -= ly * round_half_away(ddy / ly);
                ddz -= lz * round_half_away(ddz / lz);
                dx[j] = ddx;
                dy[j] = ddy;
                dz[j] = ddz;
                r[j] = (ddx * ddx + ddy * ddy + ddz * ddz).sqrt();
            }
        }
        BoundaryKind::General => {
            // One pass over the sources, a block of LANES at a time; a
            // short last block runs on zero-padded copies.
            let full = n - n % LANES;
            for j0 in (0..full).step_by(LANES) {
                let rows = [&mut *r, &mut *dx, &mut *dy, &mut *dz];
                general_block(lattice, im, p, [sx, sy, sz], rows, j0, LANES);
            }
            if full < n {
                general_block(
                    lattice,
                    im,
                    p,
                    [sx, sy, sz],
                    [r, dx, dy, dz],
                    full,
                    n - full,
                );
            }
        }
    }
}

/// General-cell minimum image of sources `j0..j0 + m` (`m ≤ LANES`)
/// relative to `p`, written to the `[r, dx, dy, dz]` rows. Every lane
/// does the arithmetic of [`super::min_image_scalar`] in the same order,
/// so the results match it bit for bit. Inlined, so that full blocks
/// copy a constant length.
#[inline(always)]
fn general_block(
    lattice: &Lattice,
    im: &ImageShifts,
    p: [f64; 3],
    src: [&[f64]; 3],
    rows: [&mut [f64]; 4],
    j0: usize,
    m: usize,
) {
    let g = lattice.jacobian();
    let a = &lattice.a;
    let (mut x, mut y, mut z) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
    x[..m].copy_from_slice(&src[0][j0..j0 + m]);
    y[..m].copy_from_slice(&src[1][j0..j0 + m]);
    z[..m].copy_from_slice(&src[2][j0..j0 + m]);
    let mut r2 = [0.0; LANES];
    for l in 0..LANES {
        // Reduce to the central image in fractional coordinates. The
        // sums start from 0.0 like `Lattice::to_frac`/`to_cart`, so a
        // zero component comes out +0.0 as in the reference.
        let rd = [x[l] - p[0], y[l] - p[1], z[l] - p[2]];
        let mut u = [0.0f64; 3];
        for b in 0..3 {
            u[b] = 0.0 + rd[0] * g[0][b] + rd[1] * g[1][b] + rd[2] * g[2][b];
            u[b] -= round_half_away(u[b]);
        }
        x[l] = 0.0 + u[0] * a[0][0] + u[1] * a[1][0] + u[2] * a[2][0];
        y[l] = 0.0 + u[0] * a[0][1] + u[1] * a[1][1] + u[2] * a[2][1];
        z[l] = 0.0 + u[0] * a[0][2] + u[1] * a[1][2] + u[2] * a[2][2];
        r2[l] = x[l] * x[l] + y[l] * y[l] + z[l] * z[l];
    }
    // Try each candidate against the base image; the first strictly
    // nearer one in scan order wins, as in the full-shell scan.
    let (base_x, base_y, base_z) = (x, y, z);
    for s in &im.candidates {
        for l in 0..LANES {
            let cx = base_x[l] + s[0];
            let cy = base_y[l] + s[1];
            let cz = base_z[l] + s[2];
            let c2 = cx * cx + cy * cy + cz * cz;
            let nearer = c2 < r2[l];
            r2[l] = if nearer { c2 } else { r2[l] };
            x[l] = if nearer { cx } else { x[l] };
            y[l] = if nearer { cy } else { y[l] };
            z[l] = if nearer { cz } else { z[l] };
        }
    }
    for (row, block) in rows.into_iter().zip([r2.map(f64::sqrt), x, y, z]) {
        row[j0..j0 + m].copy_from_slice(&block[..m]);
    }
}

/// Same-species (electron–electron) distance table, SoA layout.
#[derive(Clone, Debug)]
pub struct DistanceTableAA {
    n: usize,
    lattice: Lattice,
    im: ImageShifts,
    /// Row-major `n × n`: `r[i*n + j]` = |r_j − r_i| (min image).
    r: Vec<f64>,
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    /// Proposed-move scratch row.
    r_tmp: Vec<f64>,
    dx_tmp: Vec<f64>,
    dy_tmp: Vec<f64>,
    dz_tmp: Vec<f64>,
}

impl DistanceTableAA {
    /// Create a new instance.
    pub fn new(ps: &ParticleSet) -> Self {
        let n = ps.len();
        let mut t = Self {
            n,
            lattice: *ps.lattice(),
            im: ImageShifts::new(ps.lattice()),
            r: vec![0.0; n * n],
            dx: vec![0.0; n * n],
            dy: vec![0.0; n * n],
            dz: vec![0.0; n * n],
            r_tmp: vec![0.0; n],
            dx_tmp: vec![0.0; n],
            dy_tmp: vec![0.0; n],
            dz_tmp: vec![0.0; n],
        };
        t.rebuild(ps);
        t
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Full O(N²) recompute.
    pub fn rebuild(&mut self, ps: &ParticleSet) {
        let (sx, sy, sz) = ps.soa();
        for i in 0..self.n {
            let p = ps.get(i);
            let lo = i * self.n;
            let hi = lo + self.n;
            distances_to_point(
                &self.lattice,
                &self.im,
                sx,
                sy,
                sz,
                p,
                &mut self.r[lo..hi],
                &mut self.dx[lo..hi],
                &mut self.dy[lo..hi],
                &mut self.dz[lo..hi],
            );
            // Self-distance slot: set to 0 exactly.
            self.r[lo + i] = 0.0;
            self.dx[lo + i] = 0.0;
            self.dy[lo + i] = 0.0;
            self.dz[lo + i] = 0.0;
        }
    }

    /// Distances from particle `i` to every particle (entry `i` itself is
    /// zero).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.r[i * self.n..(i + 1) * self.n]
    }

    /// Displacement component rows for particle `i`.
    #[inline]
    pub fn disp_rows(&self, i: usize) -> (&[f64], &[f64], &[f64]) {
        let lo = i * self.n;
        let hi = lo + self.n;
        (&self.dx[lo..hi], &self.dy[lo..hi], &self.dz[lo..hi])
    }

    #[inline]
    /// Cached minimum-image distance between two particles.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.r[i * self.n + j]
    }

    /// Displacement `r_j − r_i` (minimum image).
    #[inline]
    pub fn displacement(&self, i: usize, j: usize) -> [f64; 3] {
        let k = i * self.n + j;
        [self.dx[k], self.dy[k], self.dz[k]]
    }

    /// Compute the scratch row for moving `iel` to `rnew`.
    pub fn propose(&mut self, ps: &ParticleSet, iel: usize, rnew: [f64; 3]) {
        let (sx, sy, sz) = ps.soa();
        distances_to_point(
            &self.lattice,
            &self.im,
            sx,
            sy,
            sz,
            rnew,
            &mut self.r_tmp,
            &mut self.dx_tmp,
            &mut self.dy_tmp,
            &mut self.dz_tmp,
        );
        self.r_tmp[iel] = 0.0;
        self.dx_tmp[iel] = 0.0;
        self.dy_tmp[iel] = 0.0;
        self.dz_tmp[iel] = 0.0;
    }

    /// Scratch row from the last [`Self::propose`].
    #[inline]
    pub fn temp_row(&self) -> &[f64] {
        &self.r_tmp
    }

    #[inline]
    /// Temp disp.
    pub fn temp_disp(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.dx_tmp, &self.dy_tmp, &self.dz_tmp)
    }

    /// Commit the proposed move of `iel`: overwrite its row and mirror
    /// into the column (distance symmetric, displacement antisymmetric).
    pub fn accept(&mut self, iel: usize) {
        let n = self.n;
        let lo = iel * n;
        self.r[lo..lo + n].copy_from_slice(&self.r_tmp);
        self.dx[lo..lo + n].copy_from_slice(&self.dx_tmp);
        self.dy[lo..lo + n].copy_from_slice(&self.dy_tmp);
        self.dz[lo..lo + n].copy_from_slice(&self.dz_tmp);
        for j in 0..n {
            let k = j * n + iel;
            self.r[k] = self.r_tmp[j];
            // Row iel stores r_j − r_new; column stores r_new − r_j.
            self.dx[k] = -self.dx_tmp[j];
            self.dy[k] = -self.dy_tmp[j];
            self.dz[k] = -self.dz_tmp[j];
        }
    }
}

/// Two-species (ion–electron) table: fixed sources, moving targets.
/// Row `e` holds the distances from electron `e` to every ion.
#[derive(Clone, Debug)]
pub struct DistanceTableAB {
    n_src: usize,
    n_tgt: usize,
    lattice: Lattice,
    im: ImageShifts,
    sx: Vec<f64>,
    sy: Vec<f64>,
    sz: Vec<f64>,
    r: Vec<f64>,
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    r_tmp: Vec<f64>,
    dx_tmp: Vec<f64>,
    dy_tmp: Vec<f64>,
    dz_tmp: Vec<f64>,
}

impl DistanceTableAB {
    /// Create a new instance.
    pub fn new(sources: &ParticleSet, targets: &ParticleSet) -> Self {
        let (sx, sy, sz) = sources.soa();
        let n_src = sources.len();
        let n_tgt = targets.len();
        let mut t = Self {
            n_src,
            n_tgt,
            lattice: *targets.lattice(),
            im: ImageShifts::new(targets.lattice()),
            sx: sx.to_vec(),
            sy: sy.to_vec(),
            sz: sz.to_vec(),
            r: vec![0.0; n_src * n_tgt],
            dx: vec![0.0; n_src * n_tgt],
            dy: vec![0.0; n_src * n_tgt],
            dz: vec![0.0; n_src * n_tgt],
            r_tmp: vec![0.0; n_src],
            dx_tmp: vec![0.0; n_src],
            dy_tmp: vec![0.0; n_src],
            dz_tmp: vec![0.0; n_src],
        };
        t.rebuild(targets);
        t
    }

    #[inline]
    /// Number of source particles (ions).
    pub fn n_sources(&self) -> usize {
        self.n_src
    }

    #[inline]
    /// Number of target particles (electrons).
    pub fn n_targets(&self) -> usize {
        self.n_tgt
    }

    /// Full table recompute from current positions.
    pub fn rebuild(&mut self, targets: &ParticleSet) {
        for e in 0..self.n_tgt {
            let p = targets.get(e);
            let lo = e * self.n_src;
            let hi = lo + self.n_src;
            distances_to_point(
                &self.lattice,
                &self.im,
                &self.sx,
                &self.sy,
                &self.sz,
                p,
                &mut self.r[lo..hi],
                &mut self.dx[lo..hi],
                &mut self.dy[lo..hi],
                &mut self.dz[lo..hi],
            );
        }
    }

    /// Distances from electron `e` to all ions.
    #[inline]
    pub fn row(&self, e: usize) -> &[f64] {
        &self.r[e * self.n_src..(e + 1) * self.n_src]
    }

    #[inline]
    /// Disp rows.
    pub fn disp_rows(&self, e: usize) -> (&[f64], &[f64], &[f64]) {
        let lo = e * self.n_src;
        let hi = lo + self.n_src;
        (&self.dx[lo..hi], &self.dy[lo..hi], &self.dz[lo..hi])
    }

    /// Compute the scratch row for a proposed single-particle move.
    pub fn propose(&mut self, iel: usize, rnew: [f64; 3]) {
        let _ = iel;
        distances_to_point(
            &self.lattice,
            &self.im,
            &self.sx,
            &self.sy,
            &self.sz,
            rnew,
            &mut self.r_tmp,
            &mut self.dx_tmp,
            &mut self.dy_tmp,
            &mut self.dz_tmp,
        );
    }

    #[inline]
    /// Temp row.
    pub fn temp_row(&self) -> &[f64] {
        &self.r_tmp
    }

    #[inline]
    /// Temp disp.
    pub fn temp_disp(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.dx_tmp, &self.dy_tmp, &self.dz_tmp)
    }

    /// Commit the proposed move.
    pub fn accept(&mut self, iel: usize) {
        let lo = iel * self.n_src;
        let n = self.n_src;
        self.r[lo..lo + n].copy_from_slice(&self.r_tmp);
        self.dx[lo..lo + n].copy_from_slice(&self.dx_tmp);
        self.dy[lo..lo + n].copy_from_slice(&self.dy_tmp);
        self.dz[lo..lo + n].copy_from_slice(&self.dz_tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::min_image_scalar;
    use crate::lattice::graphite_supercell;
    use crate::particleset::random_electrons;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn electrons(lat: Lattice, n: usize, seed: u64) -> ParticleSet {
        random_electrons(lat, n, &mut StdRng::seed_from_u64(seed))
    }

    /// The lattices of the bitwise suite: both kernel branches, every
    /// graphite tiling the drivers use, a flat cell and two triclinic
    /// cells.
    fn bitwise_lattices() -> Vec<Lattice> {
        vec![
            Lattice::cubic(4.0),
            Lattice::orthorhombic(2.0, 5.0, 7.0),
            graphite_supercell(1, 1, 1).0,
            graphite_supercell(4, 4, 1).0,
            graphite_supercell(8, 8, 1).0,
            graphite_supercell(1, 1, 3).0,
            Lattice::hexagonal(10.0, 0.5),
            // Left-handed.
            Lattice::from_rows([[5.0, 0.0, 0.0], [1.3, 4.2, 0.0], [0.7, -1.1, -3.9]]),
            Lattice::from_rows([[4.0, 0.5, -0.3], [-1.7, 3.6, 0.8], [2.1, 1.4, 5.2]]),
        ]
    }

    #[test]
    fn kernel_is_bit_identical_to_scalar_min_image() {
        // 1000 points × 1003 sources > 10⁶ pairs per lattice; 1003 leaves
        // a short last block. Fractional coordinates span several cells
        // so the reduction is exercised.
        const POINTS: usize = 1000;
        const SOURCES: usize = 1003;
        for (li, lat) in bitwise_lattices().into_iter().enumerate() {
            let im = ImageShifts::new(&lat);
            let mut rng = StdRng::seed_from_u64(1000 + li as u64);
            let draw = |rng: &mut StdRng| {
                lat.to_cart(std::array::from_fn(|_| 4.0 * rng.random::<f64>() - 1.5))
            };
            let src: Vec<[f64; 3]> = (0..SOURCES).map(|_| draw(&mut rng)).collect();
            let sx: Vec<f64> = src.iter().map(|s| s[0]).collect();
            let sy: Vec<f64> = src.iter().map(|s| s[1]).collect();
            let sz: Vec<f64> = src.iter().map(|s| s[2]).collect();
            let (mut r, mut dx, mut dy, mut dz) = (
                vec![0.0; SOURCES],
                vec![0.0; SOURCES],
                vec![0.0; SOURCES],
                vec![0.0; SOURCES],
            );
            for pi in 0..POINTS {
                // Exact zero components: every 50th point sits on a
                // source, every 10th shares its height with one (with the
                // left-handed cell this makes −0.0 terms in the sums).
                let p = if pi % 50 == 0 {
                    src[pi]
                } else if pi % 10 == 0 {
                    let q = draw(&mut rng);
                    [q[0], q[1], src[pi][2]]
                } else {
                    draw(&mut rng)
                };
                distances_to_point(
                    &lat, &im, &sx, &sy, &sz, p, &mut r, &mut dx, &mut dy, &mut dz,
                );
                for j in 0..SOURCES {
                    let (d, rr) = min_image_scalar(&lat, &im, p, src[j]);
                    let got = [dx[j], dy[j], dz[j], r[j]].map(f64::to_bits);
                    let want = [d[0], d[1], d[2], rr].map(f64::to_bits);
                    assert_eq!(got, want, "lattice {li}, point {pi}, source {j}");
                }
            }
        }
    }

    #[test]
    fn aa_matches_lattice_min_image() {
        for lat in [Lattice::cubic(4.0), Lattice::hexagonal(3.0, 7.0)] {
            let ps = electrons(lat, 12, 5);
            let t = DistanceTableAA::new(&ps);
            for i in 0..12 {
                for j in 0..12 {
                    let (_, r_ref) = lat.min_image(ps.get(i), ps.get(j));
                    assert!(
                        (t.distance(i, j) - r_ref).abs() < 1e-10,
                        "({i},{j}): {} vs {r_ref}",
                        t.distance(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn aa_symmetry_and_antisymmetry() {
        let ps = electrons(Lattice::hexagonal(2.5, 6.0), 10, 7);
        let t = DistanceTableAA::new(&ps);
        for i in 0..10 {
            assert_eq!(t.distance(i, i), 0.0);
            for j in 0..10 {
                assert!((t.distance(i, j) - t.distance(j, i)).abs() < 1e-12);
                let dij = t.displacement(i, j);
                let dji = t.displacement(j, i);
                for d in 0..3 {
                    assert!((dij[d] + dji[d]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn displacement_length_equals_distance() {
        let ps = electrons(Lattice::cubic(3.0), 8, 11);
        let t = DistanceTableAA::new(&ps);
        for i in 0..8 {
            for j in 0..8 {
                let d = t.displacement(i, j);
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                assert!((r - t.distance(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn propose_accept_matches_rebuild() {
        let lat = Lattice::hexagonal(3.0, 7.0);
        let mut ps = electrons(lat, 9, 13);
        let mut t = DistanceTableAA::new(&ps);
        let rnew = [1.234, 0.456, 3.21];
        t.propose(&ps, 4, rnew);
        t.accept(4);
        ps.set(4, rnew);
        let fresh = DistanceTableAA::new(&ps);
        for i in 0..9 {
            for j in 0..9 {
                assert!(
                    (t.distance(i, j) - fresh.distance(i, j)).abs() < 1e-12,
                    "({i},{j})"
                );
                let (a, b) = (t.displacement(i, j), fresh.displacement(i, j));
                for d in 0..3 {
                    assert!((a[d] - b[d]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn ab_table_rows_match_reference() {
        let (lat, ions_pos) = graphite_supercell(2, 2, 1);
        let ions = ParticleSet::new("ion", lat, &ions_pos);
        let els = electrons(lat, 6, 17);
        let t = DistanceTableAB::new(&ions, &els);
        assert_eq!(t.n_sources(), 16);
        assert_eq!(t.n_targets(), 6);
        for e in 0..6 {
            for i in 0..16 {
                let (_, r_ref) = lat.min_image(els.get(e), ions_pos[i]);
                assert!((t.row(e)[i] - r_ref).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn ab_propose_accept_updates_row_only() {
        let (lat, ions_pos) = graphite_supercell(1, 1, 1);
        let ions = ParticleSet::new("ion", lat, &ions_pos);
        let els = electrons(lat, 4, 19);
        let mut t = DistanceTableAB::new(&ions, &els);
        let before_row2: Vec<f64> = t.row(2).to_vec();
        t.propose(1, [0.5, 0.5, 0.5]);
        t.accept(1);
        for i in 0..4 {
            let (_, r_ref) = lat.min_image([0.5, 0.5, 0.5], ions_pos[i]);
            assert!((t.row(1)[i] - r_ref).abs() < 1e-10);
        }
        assert_eq!(t.row(2), &before_row2[..]);
    }
}
