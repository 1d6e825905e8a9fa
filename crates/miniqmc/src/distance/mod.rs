//! Distance tables — the second-hottest kernel group of the QMC profile
//! (Tables II/III: 23–39 % of runtime before optimization).
//!
//! A distance table caches minimum-image distances (and displacements)
//! between particle sets, updated incrementally as the VMC driver moves
//! one electron at a time:
//!
//! * [`aos`] — the baseline: positions consumed through AoS rows,
//!   per-pair scalar minimum-image scans (how pre-SoA QMCPACK computed
//!   them);
//! * [`soa`] — the optimized version from the paper's companion effort
//!   (Sec. IV: "we optimize Distance-Tables and Jastrow kernels with the
//!   SoA transformation"): coordinate streams, one fused vectorizable
//!   pass over the sources that tries the lattice's few candidate image
//!   shifts in registers.
//!
//! Both produce identical tables; the benchmark harness times them
//! against each other for the Table II → Table III profile shift.

pub mod aos;
pub mod soa;

use crate::lattice::Lattice;

/// How the minimum image is computed for a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryKind {
    /// Diagonal lattice: single-pass `d -= L·round(d/L)` per axis.
    Orthorhombic,
    /// General cell: reduce to the central cell in fractional
    /// coordinates, then take the nearest of the base image and the
    /// lattice's candidate shifts ([`ImageShifts::candidates`]), all in
    /// one fused pass per source.
    ///
    /// The result is bit-identical to a scan of the full 27-image shell
    /// ([`min_image_scalar`]) wherever the nearest image is unique. Where
    /// two images are equally near (a set of measure zero), either may be
    /// returned: the displacements differ, the distance does not. The
    /// candidate derivation widens that set only by near-ties within its
    /// tolerance `η` (see [`ImageShifts::candidates`]).
    General,
}

/// Relative tolerance of the candidate derivation: a shift is kept only
/// if it beats every other image by more than `PRUNE_TOL · max|a_b|²`
/// in squared length somewhere in the reduced cell.
const PRUNE_TOL: f64 = 1e-9;

/// Precomputed periodic-image machinery for one lattice.
#[derive(Clone, Debug)]
pub struct ImageShifts {
    /// Kind.
    pub kind: BoundaryKind,
    /// Cartesian shift vectors of the full 27-image shell in scan order
    /// (General only): the reference scan of [`min_image_scalar`].
    pub shifts: Vec<[f64; 3]>,
    /// The non-zero shifts of [`Self::shifts`] that can be the nearest
    /// image, in the same scan order (General only).
    ///
    /// After `u -= round(u)` the base displacement `x = u·A` lies in the
    /// reduced cell `P = {u ∈ [−½, ½]³}`. A shift `s` is kept iff the
    /// closed region of `P` where `|x + s|² < |x + t|² − η` for every
    /// other shell shift `t` (zero included) is non-empty, with
    /// `η = PRUNE_TOL · max_b |a_b|²`. Each condition is a half-space in
    /// `u`, so the region is a polytope and is non-empty iff it has a
    /// vertex; [`ImageShifts::new`] enumerates the vertices once per
    /// lattice. A dropped shift is, everywhere in `P`, at least as far as
    /// some other image up to `η`; a kept one is the strict nearest image
    /// on a part of `P` with positive volume. Dropping therefore changes
    /// the scan's result only on ties and near-ties within `η`. A shift
    /// that cannot beat the base image at all (`|s|² ≥ Σ_b |a_b·s| − η`,
    /// the minimum of `|x + s|² − |x|²` over `P`) is dropped before the
    /// enumeration.
    ///
    /// Graphite supercells of any tiling keep `{±a1, ±a2}`; a cell where
    /// nothing can be dropped keeps all 26.
    pub candidates: Vec<[f64; 3]>,
    /// Diagonal edge lengths (Orthorhombic only).
    pub edges: [f64; 3],
}

impl ImageShifts {
    /// Create a new instance.
    pub fn new(lattice: &Lattice) -> Self {
        let a = &lattice.a;
        let is_diag = a[0][1] == 0.0
            && a[0][2] == 0.0
            && a[1][0] == 0.0
            && a[1][2] == 0.0
            && a[2][0] == 0.0
            && a[2][1] == 0.0;
        if is_diag {
            Self {
                kind: BoundaryKind::Orthorhombic,
                shifts: vec![[0.0; 3]],
                candidates: Vec::new(),
                edges: [a[0][0], a[1][1], a[2][2]],
            }
        } else {
            let mut shifts = Vec::with_capacity(27);
            for di in -1i32..=1 {
                for dj in -1i32..=1 {
                    for dk in -1i32..=1 {
                        shifts.push(lattice.to_cart([di as f64, dj as f64, dk as f64]));
                    }
                }
            }
            let candidates = nearest_image_candidates(lattice, &shifts);
            Self {
                kind: BoundaryKind::General,
                shifts,
                candidates,
                edges: [0.0; 3],
            }
        }
    }
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// The non-zero shifts of `shell` that are the nearest image by more
/// than `η` somewhere in the reduced cell (see
/// [`ImageShifts::candidates`]).
fn nearest_image_candidates(lattice: &Lattice, shell: &[[f64; 3]]) -> Vec<[f64; 3]> {
    let a = &lattice.a;
    let eta = PRUNE_TOL * a.iter().map(|ab| dot(*ab, *ab)).fold(0.0, f64::max);
    // Necessary condition: `s` beats the base image somewhere in `P`.
    let pre: Vec<[f64; 3]> = shell
        .iter()
        .copied()
        .filter(|&s| {
            let reach: f64 = a.iter().map(|ab| dot(*ab, s).abs()).sum();
            s != [0.0; 3] && dot(s, s) - reach < -eta
        })
        .collect();
    // Competing the kept shifts only against `pre` and zero is exact:
    // outside `pre` a shift is never nearer than the base image by `η`.
    pre.iter()
        .copied()
        .filter(|&s| {
            // Half-spaces `n·u ≤ d` in fractional coordinates: the box
            // `|u_b| ≤ ½`, then `|x + s|² ≤ |x + t|² − η` per competitor.
            let mut planes: Vec<([f64; 3], f64)> = Vec::with_capacity(6 + pre.len());
            for b in 0..3 {
                for sign in [1.0, -1.0] {
                    let mut n = [0.0; 3];
                    n[b] = sign;
                    planes.push((n, 0.5));
                }
            }
            for &t in pre.iter().chain(std::iter::once(&[0.0; 3])) {
                if t == s {
                    continue;
                }
                let st = [s[0] - t[0], s[1] - t[1], s[2] - t[2]];
                let n = [
                    2.0 * dot(a[0], st),
                    2.0 * dot(a[1], st),
                    2.0 * dot(a[2], st),
                ];
                let norm = dot(n, n).sqrt();
                let d = dot(t, t) - dot(s, s) - eta;
                planes.push(([n[0] / norm, n[1] / norm, n[2] / norm], d / norm));
            }
            polytope_has_vertex(&planes)
        })
        .collect()
}

/// Whether `{u : n·u ≤ d for every (n, d)}` (unit normals, bounded by
/// the box planes) has a vertex, i.e. is non-empty.
fn polytope_has_vertex(planes: &[([f64; 3], f64)]) -> bool {
    const SINGULAR: f64 = 1e-9;
    const SLACK: f64 = 1e-12;
    let m = planes.len();
    for i in 0..m {
        for j in i + 1..m {
            let (ni, nj) = (planes[i].0, planes[j].0);
            let cij = [
                ni[1] * nj[2] - ni[2] * nj[1],
                ni[2] * nj[0] - ni[0] * nj[2],
                ni[0] * nj[1] - ni[1] * nj[0],
            ];
            for k in j + 1..m {
                let nk = planes[k].0;
                let det = dot(cij, nk);
                if det.abs() < SINGULAR {
                    continue;
                }
                // Cramer's rule via cross products: u·det =
                // d_i (n_j × n_k) + d_j (n_k × n_i) + d_k (n_i × n_j).
                let cjk = [
                    nj[1] * nk[2] - nj[2] * nk[1],
                    nj[2] * nk[0] - nj[0] * nk[2],
                    nj[0] * nk[1] - nj[1] * nk[0],
                ];
                let cki = [
                    nk[1] * ni[2] - nk[2] * ni[1],
                    nk[2] * ni[0] - nk[0] * ni[2],
                    nk[0] * ni[1] - nk[1] * ni[0],
                ];
                let (di, dj, dk) = (planes[i].1, planes[j].1, planes[k].1);
                let u: [f64; 3] =
                    std::array::from_fn(|c| (di * cjk[c] + dj * cki[c] + dk * cij[c]) / det);
                if planes.iter().all(|&(n, d)| dot(n, u) <= d + SLACK) {
                    return true;
                }
            }
        }
    }
    false
}

/// `x.round()` (half away from zero) in branch-free arithmetic that
/// vectorizes on baseline SSE2, where `f64::round` is a libm call.
/// Bit-identical to `f64::round` on every input, NaN and ±∞ included.
#[inline(always)]
pub(crate) fn round_half_away(x: f64) -> f64 {
    // 2⁵²: above it every f64 is an integer.
    const BIG: f64 = 4_503_599_627_370_496.0;
    let ax = x.abs();
    // Round to nearest, ties to even (exact for ax < 2⁵²) ...
    let t = (ax + BIG) - BIG;
    // ... then push exact halves that went down back up.
    let t = if ax - t == 0.5 { t + 1.0 } else { t };
    // NaN takes the arithmetic path, which quiets it as libm does.
    if ax >= BIG {
        x
    } else {
        t.copysign(x)
    }
}

/// Scalar minimum-image displacement `b − a` using the shift machinery
/// (shared by the AoS kernels and used as the SoA reference).
pub fn min_image_scalar(
    lattice: &Lattice,
    im: &ImageShifts,
    a: [f64; 3],
    b: [f64; 3],
) -> ([f64; 3], f64) {
    match im.kind {
        BoundaryKind::Orthorhombic => {
            let mut d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            for (x, l) in d.iter_mut().zip(im.edges) {
                *x -= l * (*x / l).round();
            }
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            (d, r)
        }
        BoundaryKind::General => {
            let raw = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            let mut u = lattice.to_frac(raw);
            for x in &mut u {
                *x -= x.round();
            }
            let base = lattice.to_cart(u);
            let mut best = base;
            let mut best_r2 = f64::INFINITY;
            for s in &im.shifts {
                let c = [base[0] + s[0], base[1] + s[1], base[2] + s[2]];
                let r2 = c[0] * c[0] + c[1] * c[1] + c[2] * c[2];
                if r2 < best_r2 {
                    best_r2 = r2;
                    best = c;
                }
            }
            (best, best_r2.sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::graphite_supercell;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn orthorhombic_detected() {
        let im = ImageShifts::new(&Lattice::orthorhombic(2.0, 3.0, 4.0));
        assert_eq!(im.kind, BoundaryKind::Orthorhombic);
        assert_eq!(im.edges, [2.0, 3.0, 4.0]);
    }

    #[test]
    fn general_detected_with_27_shifts() {
        let im = ImageShifts::new(&Lattice::hexagonal(2.0, 5.0));
        assert_eq!(im.kind, BoundaryKind::General);
        assert_eq!(im.shifts.len(), 27);
        assert_eq!(im.candidates.len(), 4);
    }

    #[test]
    fn graphite_candidates_are_plus_minus_a1_a2() {
        let cells = [
            graphite_supercell(1, 1, 1).0,
            graphite_supercell(2, 2, 1).0,
            graphite_supercell(4, 4, 1).0,
            graphite_supercell(8, 8, 1).0,
            graphite_supercell(1, 1, 3).0,
            // Flat: c ≪ a.
            Lattice::hexagonal(10.0, 0.5),
        ];
        for lat in cells {
            let im = ImageShifts::new(&lat);
            // Scan order: di, dj, dk each from −1 to 1.
            let expect: Vec<[f64; 3]> = [
                [-1.0, 0.0, 0.0],
                [0.0, -1.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
            ]
            .into_iter()
            .map(|n| lat.to_cart(n))
            .collect();
            assert_eq!(im.candidates, expect, "{lat:?}");
        }
    }

    #[test]
    fn rotated_cube_needs_no_candidates() {
        // The reduced cell of a cube is its Wigner–Seitz cell: the base
        // image is always the nearest.
        let (c, s) = (0.6f64, 0.8f64);
        let lat = Lattice::from_rows([
            [3.0 * c, 3.0 * s, 0.0],
            [-3.0 * s, 3.0 * c, 0.0],
            [0.0, 0.0, 3.0],
        ]);
        let im = ImageShifts::new(&lat);
        assert_eq!(im.kind, BoundaryKind::General);
        assert!(im.candidates.is_empty(), "{:?}", im.candidates);
    }

    #[test]
    fn candidates_keep_scan_order_and_skip_zero() {
        let lat = Lattice::from_rows([[4.0, 0.5, -0.3], [-1.7, 3.6, 0.8], [2.1, 1.4, 5.2]]);
        let im = ImageShifts::new(&lat);
        assert!(!im.candidates.is_empty() && im.candidates.len() <= 26);
        let mut pos = im
            .candidates
            .iter()
            .map(|c| im.shifts.iter().position(|s| s == c).unwrap());
        let mut prev = pos.next().unwrap();
        for i in pos {
            assert!(i > prev);
            prev = i;
        }
        assert!(!im.candidates.contains(&[0.0; 3]));
    }

    #[test]
    fn round_half_away_matches_std_bit_for_bit() {
        let two52 = 4_503_599_627_370_496.0f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            0.5000000000000001,
            1e15 + 0.5,
            -(1e15 + 0.5),
            two52 - 0.5,
            -(two52 - 0.5),
            two52 - 1.5,
            two52,
            two52 + 1.0,
            2.0 * two52 + 2.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Every half-integer up to a few thousand, and their neighbours.
        for k in -4000..4000 {
            let h = k as f64 + 0.5;
            xs.extend([
                h,
                f64::from_bits(h.to_bits() + 1),
                f64::from_bits(h.to_bits() - 1),
            ]);
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100_000 {
            xs.push(f64::from_bits(rng.random::<u64>()));
            xs.push((rng.random::<f64>() - 0.5) * 64.0);
        }
        for x in xs {
            assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
        }
    }

    #[test]
    fn scalar_min_image_matches_lattice_reference() {
        for lat in [
            Lattice::cubic(3.0),
            Lattice::orthorhombic(2.0, 5.0, 7.0),
            Lattice::hexagonal(3.0, 8.0),
        ] {
            let im = ImageShifts::new(&lat);
            let pts = [[0.1, 0.2, 0.3], [2.5, 1.8, 6.5], [-0.9, 3.1, 0.0]];
            for a in pts {
                for b in pts {
                    let (_, r_ref) = lat.min_image(a, b);
                    let (_, r) = min_image_scalar(&lat, &im, a, b);
                    assert!((r - r_ref).abs() < 1e-10, "{lat:?} {a:?} {b:?}");
                }
            }
        }
    }
}
