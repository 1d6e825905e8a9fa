//! The VMC workloads: one walker on the per-electron fast path of
//! `TrialWaveFunction<f32>` over a random (miniQMC benchmark) table.
//!
//! * Untraced (`--trace 0`): the walker is driven by
//!   `miniqmc::drivers::run_vmc`, one call per sweep. A sweep proposes
//!   one move per electron and ends with the batched all-electron
//!   `log_derivs`.
//! * Traced (`--trace 1`): the benchmark's own sweep loop — the same
//!   proposals, the same Metropolis test — calls `ratio`, `accept`,
//!   `reject` and `log_derivs` on the wavefunction inside spans and
//!   records every move. `run_vmc` then repeats the same sweeps on a
//!   fresh walker (bit-identity check and the untraced reference
//!   time), and the recorded moves are replayed through separately
//!   built `SpoSet`, distance-table, Jastrow and determinant objects,
//!   each public call in its own span.

use crate::report::Report;
use crate::stats::{mean, percentile, ratio_or_zero};
use crate::trace::{self, layer_self_ns, span, TracedEngine};
use crate::{derive_seed, llc_mb, peak_rss_mb, Opts, SetupTimes};
use bspline::BsplineSoA;
use einspline::MultiCoefs;
use miniqmc::determinant::DiracDeterminant;
use miniqmc::distance::soa::{DistanceTableAA, DistanceTableAB};
use miniqmc::drivers::observables::det_log_derivs;
use miniqmc::drivers::{kinetic_energy, run_vmc, Category, VmcConfig};
use miniqmc::jastrow::{BsplineFunctor, JastrowDerivs, OneBodyJastrow, TwoBodyJastrow};
use miniqmc::particleset::{random_electrons, ParticleSet};
use miniqmc::spo::SpoSet;
use miniqmc::synthetic::{random_coefficients, CoralSystem};
use miniqmc::wavefunction::TrialWaveFunction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

type Agg = HashMap<&'static str, trace::Totals>;

/// One VMC workload.
pub struct VmcSpec {
    pub name: &'static str,
    /// Graphite supercell tiling.
    pub tiling: (usize, usize, usize),
    /// Spline grid of the coefficient table.
    pub grid: (usize, usize, usize),
    /// Cubic proposal amplitude, bohr.
    pub step: f64,
    /// The acceptance band that defines the workload's regime; a run
    /// outside it is measuring a different workload.
    pub acceptance: (f64, f64),
}

/// CORAL 4×4×1 graphite: 64 C, 256 e⁻, N = 128 (84 MB table); most
/// proposals are rejected.
pub const N128_LOWACC: VmcSpec = VmcSpec {
    name: "vmc_n128_lowacc",
    tiling: (4, 4, 1),
    grid: (48, 48, 60),
    step: 1.0,
    acceptance: (0.25, 0.55),
};

/// Graphite 8×8×1: 256 C, 1024 e⁻, N = 512 (88 MB table); almost every
/// proposal is accepted (the DMC regime).
pub const N512_HIACC: VmcSpec = VmcSpec {
    name: "vmc_n512_hiacc",
    tiling: (8, 8, 1),
    grid: (32, 32, 32),
    step: 0.05,
    acceptance: (0.9, 1.0),
};

/// Bound on |tracked log|Ψ| − fresh `evaluate_log`| after a run. The
/// tracked value accumulates one `ln|ratio|` per accepted move and the
/// Sherman–Morrison updates drift by rounding; the drift observed is
/// at most 2e-12 after ~1000 N = 128 sweeps or ~35 N = 512 sweeps.
const LOG_PSI_TOL: f64 = 1e-8;

/// Bound on max |A·A⁻¹ − I| of each replayed determinant after the run
/// (rank-1 updates only, no refresh).
const INVERSE_TOL: f64 = 1e-6;

/// Percentile of the sweep times that the end-to-end VMC figures are
/// taken from. The shared host slows sweeps by up to half in phases
/// that come and go within a run (NOTES.md); the noise only ever adds
/// time, so a low percentile of the sweeps (about 1100 in a 30 s run at
/// N = 128, where it is the 11th fastest, and 40 at N = 512, where it is
/// about the fastest) measures the code, where the median measures how
/// much of the run fell in a slow phase.
const FAST_SWEEP: f64 = 0.01;

/// Share agreement (absolute, per category) the traced replay must reach
/// against the `TrialWaveFunction::timers` of the untraced `run_vmc`.
pub const SHARE_TOL: f64 = 0.05;

// Input streams derived from the workload seed.
const STREAM_TABLE: u64 = 1;
const STREAM_ELECTRONS: u64 = 2;
const STREAM_SWEEP: u64 = 1000;

fn jastrow_functors(sys: &CoralSystem) -> (BsplineFunctor, BsplineFunctor) {
    let rc = sys.lattice.wigner_seitz_radius() * 0.9;
    (
        BsplineFunctor::rpa_like(0.3, 1.0, rc, 20),
        BsplineFunctor::rpa_like(0.5, 1.2, rc, 20),
    )
}

/// Everything a run derives from its spec and seed.
struct Inputs {
    sys: CoralSystem,
    seed: u64,
    step: f64,
}

impl Inputs {
    fn new(spec: &VmcSpec, seed: u64) -> Self {
        let (a, b, c) = spec.tiling;
        Self {
            sys: CoralSystem::new(a, b, c, spec.grid),
            seed,
            step: spec.step,
        }
    }

    fn table(&self) -> MultiCoefs<f32> {
        let g = &self.sys.grids;
        random_coefficients::<f32>(
            g.0.num(),
            g.1.num(),
            g.2.num(),
            self.sys.n_per_spin,
            derive_seed(self.seed, STREAM_TABLE),
        )
    }

    fn electrons(&self) -> ParticleSet {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, STREAM_ELECTRONS));
        random_electrons(self.sys.lattice, self.sys.n_electrons(), &mut rng)
    }

    fn sweep_cfg(&self, sweep: usize) -> VmcConfig {
        VmcConfig {
            n_steps: 1,
            step_size: self.step,
            seed: derive_seed(self.seed, STREAM_SWEEP + sweep as u64),
        }
    }

    /// Build the walker from scratch; returns it with the table-fill and
    /// wavefunction-build seconds.
    fn build(&self) -> (TrialWaveFunction<f32>, f64, f64) {
        let t0 = Instant::now();
        let table = self.table();
        let fill = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (j1, j2) = jastrow_functors(&self.sys);
        let spo = SpoSet::new(table, self.sys.lattice);
        let wf = TrialWaveFunction::new(spo, &self.sys.ions, self.electrons(), j1, j2);
        (wf, fill, t1.elapsed().as_secs_f64())
    }
}

/// Report the set-up times: table fill + wavefunction build.
fn report_setup(times: &SetupTimes, report: &mut Report) {
    let [total, fill, build] = times.fastest();
    report.set("setup_s", total);
    report.set("setup.table_fill_s", fill);
    report.set("setup.wavefunction_build_s", build);
}

fn table_facts(inputs: &Inputs, report: &mut Report) {
    let (g, n) = (&inputs.sys.grids, inputs.sys.n_per_spin);
    let mb =
        einspline::multi::table_bytes_in::<f32>((g.0.num(), g.1.num(), g.2.num()), n) as f64 / 1e6;
    println!(
        "table: N = {n}, {} electrons, {mb:.1} MB f32, LLC {:.1} MB",
        inputs.sys.n_electrons(),
        llc_mb()
    );
    report.set("setup.table_mb", mb);
    report.set("setup.llc_mb", llc_mb());
}

/// Per-category seconds of a `TrialWaveFunction` profile, in
/// [`SHARE_CATEGORIES`] order.
fn category_seconds(profile: &miniqmc::drivers::ProfileReport) -> [f64; 4] {
    SHARE_CATEGORIES.map(|c| profile.duration(c).as_secs_f64())
}

const SHARE_CATEGORIES: [Category; 4] = [
    Category::Bspline,
    Category::Distance,
    Category::Jastrow,
    Category::Determinant,
];

pub fn run(spec: &VmcSpec, opts: &Opts, report: &mut Report) {
    let inputs = Inputs::new(spec, opts.seed);
    println!(
        "workload {} seed {} step {} bohr",
        spec.name, opts.seed, spec.step
    );
    table_facts(&inputs, report);
    let mut times = SetupTimes::default();
    let wf = times.repeat(|| inputs.build());
    if opts.trace {
        traced(spec, &inputs, wf, opts, report);
    } else {
        untraced(spec, &inputs, wf, opts, report);
    }
    // The same set-ups again, so that they span the whole run.
    times.repeat(|| inputs.build());
    report_setup(&times, report);
    report.set("peak_rss_mb", peak_rss_mb());
}

/// Sweep-by-sweep `run_vmc` outcome.
#[derive(Default)]
struct VmcTally {
    sweeps: usize,
    accepted: u64,
    proposed: u64,
    seconds: Vec<f64>,
    categories: [f64; 4],
    kinetic_finite: bool,
}

/// Run sweeps `from..` through `run_vmc` until `until` says stop.
fn run_vmc_sweeps(
    wf: &mut TrialWaveFunction<f32>,
    inputs: &Inputs,
    from: usize,
    mut until: impl FnMut(usize, f64) -> bool,
) -> VmcTally {
    let n_el = wf.n_electrons() as u64;
    let mut tally = VmcTally {
        kinetic_finite: true,
        ..VmcTally::default()
    };
    let t0 = Instant::now();
    while !until(tally.sweeps, t0.elapsed().as_secs_f64()) {
        let cfg = inputs.sweep_cfg(from + tally.sweeps);
        let t = Instant::now();
        let res = run_vmc(wf, &cfg);
        tally.seconds.push(t.elapsed().as_secs_f64());
        tally.sweeps += 1;
        tally.accepted += (res.acceptance * n_el as f64).round() as u64;
        tally.proposed += n_el;
        tally.kinetic_finite &= res.kinetic.is_finite();
        for (acc, s) in tally
            .categories
            .iter_mut()
            .zip(category_seconds(&res.profile))
        {
            *acc += s;
        }
    }
    tally
}

fn check_acceptance(spec: &VmcSpec, acceptance: f64, report: &mut Report) {
    let (lo, hi) = spec.acceptance;
    report.check(
        "acceptance in the workload's band",
        (lo..=hi).contains(&acceptance),
        format!("{acceptance:.4} in [{lo}, {hi}]"),
    );
}

fn check_log_psi(wf: &mut TrialWaveFunction<f32>, report: &mut Report) {
    let tracked = wf.log_psi();
    let fresh = wf.evaluate_log();
    let diff = (tracked - fresh).abs();
    report.check(
        "tracked log|psi| = fresh evaluate_log",
        diff <= LOG_PSI_TOL,
        format!("|{tracked} - {fresh}| = {diff:.2e} <= {LOG_PSI_TOL:.0e}"),
    );
}

fn untraced(
    spec: &VmcSpec,
    inputs: &Inputs,
    mut wf: TrialWaveFunction<f32>,
    opts: &Opts,
    report: &mut Report,
) {
    let n_el = inputs.sys.n_electrons() as f64;
    // Sweep 0 warms the caches and the walker; it is not timed.
    let warm = run_vmc_sweeps(&mut wf, inputs, 0, |s, _| s >= 1);
    let budget = opts.seconds.as_secs_f64();
    let tally = run_vmc_sweeps(&mut wf, inputs, 1, |s, t| s >= 1 && t >= budget);
    let total: f64 = tally.seconds.iter().sum();
    let acceptance =
        (warm.accepted + tally.accepted) as f64 / (warm.proposed + tally.proposed) as f64;
    println!(
        "run_vmc: {} timed sweeps in {total:.2} s, acceptance {acceptance:.4}",
        tally.sweeps
    );
    let ms: Vec<f64> = tally.seconds.iter().map(|s| s * 1e3).collect();
    println!(
        "sweep ms: min {:.2} p10 {:.2} p50 {:.2} p90 {:.2} p99 {:.2} max {:.2}",
        percentile(&ms, 0.0),
        percentile(&ms, 0.1),
        percentile(&ms, 0.5),
        percentile(&ms, 0.9),
        percentile(&ms, 0.99),
        percentile(&ms, 1.0)
    );
    println!(
        "whole run: {:.1} moves/s; fast sweep (p{}) {:.2} ms",
        tally.proposed as f64 / total,
        FAST_SWEEP * 100.0,
        percentile(&ms, FAST_SWEEP)
    );
    report.attempted = warm.proposed + tally.proposed;
    let fast = percentile(&tally.seconds, FAST_SWEEP);
    report.set("moves_per_s", n_el / fast);
    report.set("onemove_us", fast / n_el * 1e6);
    report.set("block_us", fast * 1e6);

    check_acceptance(spec, acceptance, report);
    report.check(
        "kinetic energy finite every sweep",
        warm.kinetic_finite && tally.kinetic_finite,
        String::new(),
    );
    check_log_psi(&mut wf, report);
}

/// One recorded proposal of the traced sweep loop.
struct Move {
    iel: usize,
    rnew: [f64; 3],
    ratio: f64,
    accepted: bool,
}

/// What the traced sweep loop records for one sweep.
struct SweepRecord {
    moves: Vec<Move>,
    kinetic: f64,
}

/// The benchmark's own sweep loop: the exact proposal and Metropolis
/// sequence of `run_vmc` for one sweep, with a span around every call
/// into the wavefunction.
fn traced_sweep(wf: &mut TrialWaveFunction<f32>, cfg: &VmcConfig) -> SweepRecord {
    span("drivers.sweep", || {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let lat = *wf.electrons().lattice();
        let mut moves = Vec::with_capacity(wf.n_electrons());
        for iel in 0..wf.n_electrons() {
            let r = wf.electrons().get(iel);
            let rnew = lat.wrap([
                r[0] + cfg.step_size * (rng.random::<f64>() - 0.5),
                r[1] + cfg.step_size * (rng.random::<f64>() - 0.5),
                r[2] + cfg.step_size * (rng.random::<f64>() - 0.5),
            ]);
            let ratio = span("wavefunction.ratio", || wf.ratio(iel, rnew));
            let accepted = ratio * ratio > rng.random::<f64>();
            if accepted {
                span("wavefunction.accept", || wf.accept(iel));
            } else {
                span("wavefunction.reject", || wf.reject());
            }
            moves.push(Move {
                iel,
                rnew,
                ratio,
                accepted,
            });
        }
        let derivs = span("wavefunction.log_derivs", || wf.log_derivs());
        SweepRecord {
            moves,
            kinetic: kinetic_energy(&derivs),
        }
    })
}

/// The walker's layers, built separately so that each public call can
/// be timed on its own. Mirrors `TrialWaveFunction` call for call.
struct Replay {
    electrons: ParticleSet,
    ee: DistanceTableAA,
    ei: DistanceTableAB,
    spo: SpoSet<f32, TracedEngine<BsplineSoA<f32>>>,
    dets: [DiracDeterminant; 2],
    j1: OneBodyJastrow,
    j2: TwoBodyJastrow,
    n: usize,
    phi: Vec<f64>,
}

impl Replay {
    fn spin_positions(&self, spin: usize) -> Vec<[f64; 3]> {
        (0..self.n)
            .map(|e| self.electrons.get(spin * self.n + e))
            .collect()
    }

    /// Same construction sequence as `TrialWaveFunction::new`; the
    /// determinant builds run in `determinant.build` spans.
    fn new(inputs: &Inputs) -> Self {
        let n = inputs.sys.n_per_spin;
        let electrons = inputs.electrons();
        let mut spo = SpoSet::with_engine(
            TracedEngine(BsplineSoA::new(inputs.table())),
            inputs.sys.lattice,
        );
        let mut ee = DistanceTableAA::new(&electrons);
        let mut ei = DistanceTableAB::new(&inputs.sys.ions, &electrons);
        ee.rebuild(&electrons);
        ei.rebuild(&electrons);
        let mut build = |spin: usize| {
            let rs: Vec<[f64; 3]> = (0..n).map(|e| electrons.get(spin * n + e)).collect();
            let mut a = vec![0.0; n * n];
            for (e, row) in spo.evaluate_v_batch(&rs).iter().enumerate() {
                a[e * n..(e + 1) * n].copy_from_slice(&row.v[..n]);
            }
            span("determinant.build", || DiracDeterminant::build(&a, n))
        };
        let dets = [build(0), build(1)];
        let (f1, f2) = jastrow_functors(&inputs.sys);
        let mut j1 = OneBodyJastrow::new(f1, electrons.len());
        let mut j2 = TwoBodyJastrow::new(f2, electrons.len());
        let mut derivs = JastrowDerivs::zeros(electrons.len());
        j2.evaluate_log(&ee, &mut derivs);
        j1.evaluate_log(&ei, &mut derivs);
        Self {
            electrons,
            ee,
            ei,
            spo,
            dets,
            j1,
            j2,
            n,
            phi: vec![0.0; n],
        }
    }

    /// `TrialWaveFunction::ratio` (per-electron path), call by call.
    fn ratio(&mut self, iel: usize, rnew: [f64; 3]) -> f64 {
        let (spin, e) = (iel / self.n, iel % self.n);
        let Self {
            electrons,
            ee,
            ei,
            spo,
            dets,
            j1,
            j2,
            phi,
            ..
        } = self;
        span("distance.propose", || {
            ee.propose(electrons, iel, rnew);
            ei.propose(iel, rnew);
        });
        span("spo.v_one", || {
            phi.copy_from_slice(spo.evaluate_v_one(rnew))
        });
        let det_ratio = span("determinant.ratio", || dets[spin].ratio(e, phi));
        let (r2, r1) = span("jastrow.ratio", || (j2.ratio(ee, iel), j1.ratio(ei, iel)));
        det_ratio * r1 * r2
    }

    /// `TrialWaveFunction::accept` (per-electron path), call by call.
    fn accept(&mut self, iel: usize, rnew: [f64; 3]) {
        let (spin, e) = (iel / self.n, iel % self.n);
        let Self {
            electrons,
            ee,
            ei,
            spo,
            dets,
            j1,
            j2,
            phi,
            ..
        } = self;
        span("distance.accept", || {
            ee.accept(iel);
            ei.accept(iel);
        });
        span("determinant.accept", || dets[spin].accept(e, phi));
        span("jastrow.accept", || {
            j2.accept(iel);
            j1.accept(iel);
        });
        electrons.set(iel, rnew);
        let row = span("spo.vgl_one", move || spo.evaluate_vgl_one(rnew));
        span("determinant.derivs", || {
            det_log_derivs(&dets[spin], e, &row.gx, &row.gy, &row.gz, &row.lap)
        });
    }

    /// `TrialWaveFunction::log_derivs`, call by call; returns the
    /// kinetic energy of the result.
    fn log_derivs(&mut self) -> f64 {
        let n_el = self.electrons.len();
        let rs = [self.spin_positions(0), self.spin_positions(1)];
        let Self {
            electrons,
            ee,
            ei,
            spo,
            dets,
            j1,
            j2,
            n,
            ..
        } = self;
        span("distance.rebuild", || {
            ee.rebuild(electrons);
            ei.rebuild(electrons);
        });
        let mut derivs = JastrowDerivs::zeros(n_el);
        span("jastrow.evaluate_log", || {
            j2.evaluate_log(ee, &mut derivs);
            j1.evaluate_log(ei, &mut derivs);
        });
        for (spin, rs) in rs.iter().enumerate() {
            let spo = &mut *spo;
            let rows = span("spo.vgl_batch", move || spo.evaluate_vgl_batch(rs));
            for (e, row) in rows.iter().enumerate() {
                let (g, l) = span("determinant.derivs", || {
                    det_log_derivs(&dets[spin], e, &row.gx, &row.gy, &row.gz, &row.lap)
                });
                let iel = spin * *n + e;
                for (acc, gd) in derivs.grad[iel].iter_mut().zip(g) {
                    *acc += gd;
                }
                derivs.lap[iel] += l;
            }
        }
        kinetic_energy(&derivs)
    }
}

/// Kernel traffic and arithmetic per position, computed from the table
/// shape (not measured): every evaluation streams 64 coefficient rows
/// of the padded width `stride` and writes its output streams; the SoA
/// kernel spends 9 flops per (x, y) plane and orbital lane on V (4-term
/// z-contraction + accumulate) and 41 on VGH (three z-contractions + ten
/// accumulates), over 16 planes.
pub struct KernelCost {
    pub v_bytes: f64,
    pub v_flop: f64,
    pub vgh_bytes: f64,
    pub vgh_flop: f64,
}

impl KernelCost {
    pub fn new(stride: usize) -> Self {
        let s = stride as f64;
        let word = std::mem::size_of::<f32>() as f64;
        let rows = 64.0 * s * word;
        Self {
            v_bytes: rows + s * word,
            v_flop: 16.0 * 9.0 * s,
            vgh_bytes: rows + 10.0 * s * word,
            vgh_flop: 16.0 * 41.0 * s,
        }
    }

    /// Set the computed-traffic metrics for the measured nanoseconds per
    /// call of each kind (`vgh_ns` is per position).
    pub fn report(&self, v_ns: f64, vgl_ns: f64, vgh_ns: f64, report: &mut Report) {
        report.set("bspline.v_one_bytes_computed", self.v_bytes);
        report.set("bspline.v_one_flop_computed", self.v_flop);
        report.set(
            "bspline.v_one_gbps_computed",
            ratio_or_zero(self.v_bytes, v_ns),
        );
        report.set(
            "bspline.v_one_gflops_computed",
            ratio_or_zero(self.v_flop, v_ns),
        );
        report.set("bspline.vgl_one_bytes_computed", self.vgh_bytes);
        report.set("bspline.vgl_one_flop_computed", self.vgh_flop);
        report.set(
            "bspline.vgl_one_gbps_computed",
            ratio_or_zero(self.vgh_bytes, vgl_ns),
        );
        report.set(
            "bspline.vgl_one_gflops_computed",
            ratio_or_zero(self.vgh_flop, vgl_ns),
        );
        report.set("bspline.vgh_batch_bytes_per_pos_computed", self.vgh_bytes);
        report.set("bspline.vgh_batch_flop_per_pos_computed", self.vgh_flop);
        report.set(
            "bspline.vgh_batch_gbps_computed",
            ratio_or_zero(self.vgh_bytes, vgh_ns),
        );
        report.set(
            "bspline.vgh_batch_gflops_computed",
            ratio_or_zero(self.vgh_flop, vgh_ns),
        );
    }
}

fn traced(
    spec: &VmcSpec,
    inputs: &Inputs,
    mut wf: TrialWaveFunction<f32>,
    opts: &Opts,
    report: &mut Report,
) {
    let n_el = inputs.sys.n_electrons();
    let half = opts.seconds.as_secs_f64() / 2.0;

    // 1. The traced sweep loop on the set-up walker. Sweep 0 warms up
    //    and its spans are dropped.
    trace::set_enabled(true);
    let mut records = vec![traced_sweep(&mut wf, &inputs.sweep_cfg(0))];
    trace::take();
    wf.timers.reset();
    let t0 = Instant::now();
    while records.len() < 3 || t0.elapsed().as_secs_f64() < half {
        let cfg = inputs.sweep_cfg(records.len());
        records.push(traced_sweep(&mut wf, &cfg));
    }
    trace::set_enabled(false);
    let level1 = trace::take();
    let sweeps = records.len();
    let wf_categorised: f64 = category_seconds(&wf.timers.report()).iter().sum();
    let traced_accepts: u64 = records
        .iter()
        .map(|r| r.moves.iter().filter(|m| m.accepted).count() as u64)
        .sum();
    let traced_log = wf.log_psi();
    drop(wf);

    // 2. run_vmc over the same sweeps on a fresh walker.
    let (mut wf, _, _) = inputs.build();
    let warm = run_vmc_sweeps(&mut wf, inputs, 0, |s, _| s >= 1);
    let tally = run_vmc_sweeps(&mut wf, inputs, 1, |s, _| s >= sweeps - 1);
    let untraced_s: f64 = tally.seconds.iter().sum();
    let vmc_log = wf.log_psi();
    let vmc_accepts = warm.accepted + tally.accepted;
    report.check(
        "traced loop = run_vmc: accepts",
        traced_accepts == vmc_accepts,
        format!("{traced_accepts} vs {vmc_accepts} over {sweeps} sweeps"),
    );
    report.check(
        "traced loop = run_vmc: final log|psi| bits",
        traced_log.to_bits() == vmc_log.to_bits(),
        format!("{traced_log} vs {vmc_log}"),
    );
    check_log_psi(&mut wf, report);
    drop(wf);

    // 3. Replay the recorded moves through the separately built layers.
    trace::set_enabled(true);
    let mut replay = Replay::new(inputs);
    let build_spans = trace::take();
    let mut ratio_mismatch = 0usize;
    let mut kinetic_mismatch = 0usize;
    for (i, rec) in records.iter().enumerate() {
        if i == 1 {
            trace::take();
        }
        for m in &rec.moves {
            let ratio = replay.ratio(m.iel, m.rnew);
            ratio_mismatch += usize::from(ratio.to_bits() != m.ratio.to_bits());
            if m.accepted {
                replay.accept(m.iel, m.rnew);
            }
        }
        let kinetic = replay.log_derivs();
        kinetic_mismatch += usize::from(kinetic.to_bits() != rec.kinetic.to_bits());
    }
    trace::set_enabled(false);
    let level2 = trace::take();
    report.check(
        "replay ratios = wavefunction ratios (bits)",
        ratio_mismatch == 0,
        format!("{ratio_mismatch} of {} differ", sweeps * n_el),
    );
    report.check(
        "replay kinetic = log_derivs kinetic (bits)",
        kinetic_mismatch == 0,
        format!("{kinetic_mismatch} of {sweeps} differ"),
    );
    for (spin, det) in replay.dets.iter().enumerate() {
        let err = det.inverse_error();
        report.check(
            &format!("replay determinant {spin} inverse error"),
            err <= INVERSE_TOL,
            format!("{err:.2e} <= {INVERSE_TOL:.0e}"),
        );
    }
    let stride = replay.spo.engine().0.stride();
    drop(replay);

    // 4. Per-layer numbers.
    let agg1 = trace::aggregate(&level1);
    let agg2 = trace::aggregate(&level2);
    let total = |agg: &Agg, name: &str| agg.get(name).copied().unwrap_or_default();
    let proposals = ((sweeps - 1) * n_el) as f64;
    let accepts = records[1..]
        .iter()
        .map(|r| r.moves.iter().filter(|m| m.accepted).count())
        .sum::<usize>() as f64;
    let calls = (sweeps - 1) as f64;
    let per = |agg: &Agg, name: &str, n: f64, scale: f64| {
        ratio_or_zero(total(agg, name).total_ns as f64, n) / scale
    };

    report.set(
        "distance.propose_ns",
        per(&agg2, "distance.propose", proposals, 1.0),
    );
    report.set(
        "distance.accept_ns",
        per(&agg2, "distance.accept", accepts, 1.0),
    );
    report.set(
        "distance.rebuild_us",
        per(&agg2, "distance.rebuild", calls, 1e3),
    );
    report.set(
        "determinant.ratio_ns",
        per(&agg2, "determinant.ratio", proposals, 1.0),
    );
    report.set(
        "determinant.accept_ns",
        per(&agg2, "determinant.accept", accepts, 1.0),
    );
    let derivs = total(&agg2, "determinant.derivs");
    report.set(
        "determinant.derivs_ns",
        ratio_or_zero(derivs.total_ns as f64, derivs.count as f64),
    );
    let builds: Vec<f64> = build_spans
        .iter()
        .filter(|s| s.name == "determinant.build")
        .map(|s| s.duration() as f64 / 1e6)
        .collect();
    report.set("determinant.build_ms", mean(&builds));
    report.set(
        "jastrow.ratio_ns",
        per(&agg2, "jastrow.ratio", proposals, 1.0),
    );
    report.set(
        "jastrow.accept_ns",
        per(&agg2, "jastrow.accept", accepts, 1.0),
    );
    report.set(
        "jastrow.evaluate_log_us",
        per(&agg2, "jastrow.evaluate_log", calls, 1e3),
    );

    let per_call = |name: &str| {
        let t = total(&agg2, name);
        (
            ratio_or_zero(t.total_ns as f64, t.count as f64),
            ratio_or_zero(t.self_ns as f64, t.count as f64),
        )
    };
    let (v_ns, _) = per_call("bspline.v_one");
    let (vgl_ns, _) = per_call("bspline.vgl_one");
    let (_, spo_v_self) = per_call("spo.v_one");
    let (_, spo_vgl_self) = per_call("spo.vgl_one");
    let positions = calls * n_el as f64;
    let vgh_ns = per(&agg2, "bspline.vgh_batch", positions, 1.0);
    report.set("bspline.v_one_ns", v_ns);
    report.set("bspline.vgl_one_ns", vgl_ns);
    report.set("spo.v_one_self_ns", spo_v_self);
    report.set("spo.vgl_one_self_ns", spo_vgl_self);
    report.set("bspline.vgh_batch_ns_per_pos", vgh_ns);
    report.set(
        "spo.vgl_batch_self_ns_per_pos",
        ratio_or_zero(total(&agg2, "spo.vgl_batch").self_ns as f64, positions),
    );
    let cost = KernelCost::new(stride);
    cost.report(v_ns, vgl_ns, vgh_ns, report);
    let v = total(&agg2, "bspline.v_one");
    let vgl = total(&agg2, "bspline.vgl_one");
    let vgh = total(&agg2, "bspline.vgh_batch");
    let bytes = v.count as f64 * cost.v_bytes
        + vgl.count as f64 * cost.vgh_bytes
        + positions * cost.vgh_bytes;
    report.set(
        "bspline.gbps_computed",
        ratio_or_zero(bytes, (v.total_ns + vgl.total_ns + vgh.total_ns) as f64),
    );

    let wf_names = [
        "wavefunction.ratio",
        "wavefunction.accept",
        "wavefunction.reject",
        "wavefunction.log_derivs",
    ];
    let wf_total_s = wf_names
        .iter()
        .map(|n| total(&agg1, n).total_ns)
        .sum::<u64>() as f64
        / 1e9;
    let sweep_spans: Vec<f64> = level1
        .iter()
        .filter(|s| s.name == "drivers.sweep")
        .map(|s| s.duration() as f64 / 1e9)
        .collect();
    let traced_s: f64 = sweep_spans.iter().sum();
    report.set(
        "wavefunction.ratio_ns",
        per(&agg1, "wavefunction.ratio", proposals, 1.0),
    );
    report.set(
        "wavefunction.accept_ns",
        per(&agg1, "wavefunction.accept", accepts, 1.0),
    );
    report.set(
        "wavefunction.log_derivs_ms",
        per(&agg1, "wavefunction.log_derivs", calls, 1e6),
    );
    report.set(
        "wavefunction.self_frac",
        ratio_or_zero(wf_total_s - wf_categorised, wf_total_s),
    );
    report.set("drivers.acceptance", accepts / proposals);
    let sweep_ms: Vec<f64> = sweep_spans.iter().map(|s| s * 1e3).collect();
    report.set("drivers.sweep_ms_p50", percentile(&sweep_ms, 0.5));
    report.set("drivers.sweep_ms_p99", percentile(&sweep_ms, 0.99));
    check_acceptance(spec, accepts / proposals, report);

    // Shares of the traced sweep time. Layer self times come from the
    // replay; the wavefunction's own time is its span time not charged
    // to a timer category; what the timers charged but the replay did
    // not reproduce is unattributed.
    let layer_s = |layer: &str| layer_self_ns(&agg2, layer) as f64 / 1e9;
    let layers = [
        ("bspline", layer_s("bspline")),
        ("spo", layer_s("spo")),
        ("distance", layer_s("distance")),
        ("jastrow", layer_s("jastrow")),
        ("determinant", layer_s("determinant")),
    ];
    let replay_s: f64 = layers.iter().map(|(_, s)| s).sum();
    let shares = [
        ("drivers.share.bspline", layers[0].1),
        ("drivers.share.spo", layers[1].1),
        ("drivers.share.distance", layers[2].1),
        ("drivers.share.jastrow", layers[3].1),
        ("drivers.share.determinant", layers[4].1),
        ("drivers.share.wavefunction", wf_total_s - wf_categorised),
        ("drivers.share.drivers", traced_s - wf_total_s),
        ("drivers.share.unattributed", wf_categorised - replay_s),
    ];
    for (name, s) in shares {
        report.set(name, s / traced_s);
    }
    report.set("trace.overhead_frac", 1.0 - untraced_s / traced_s);
    report.set("trace.spans", (level1.len() + level2.len()) as f64);

    // The replay's category shares against the timers of run_vmc.
    let replay_cat = [
        layers[0].1 + layers[1].1,
        layers[2].1,
        layers[3].1,
        layers[4].1,
    ];
    let timers_total: f64 = tally.categories.iter().sum();
    let mut worst = 0.0f64;
    println!("{:<14} {:>8} {:>8}", "category", "replay", "timers");
    for (i, cat) in SHARE_CATEGORIES.iter().enumerate() {
        let a = replay_cat[i] / replay_s;
        let b = tally.categories[i] / timers_total;
        println!(
            "{:<14} {:>7.1}% {:>7.1}%",
            cat.to_string(),
            100.0 * a,
            100.0 * b
        );
        worst = worst.max((a - b).abs());
    }
    report.set("trace.share_max_abs_diff", worst);
    report.check(
        "replay shares = run_vmc timers",
        worst <= SHARE_TOL,
        format!("max |diff| {worst:.3} <= {SHARE_TOL}"),
    );
    println!(
        "traced loop {traced_s:.2} s vs run_vmc {untraced_s:.2} s over {} timed sweeps",
        sweeps - 1
    );
    report.attempted = (sweeps * n_el) as u64;
}
