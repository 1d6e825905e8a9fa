//! The `service_mixed` workload: one open-loop generator in front of a
//! one-replica `SpoService<f32, BsplineSoA<f32>>` serving a random
//! N = 2048 table on a 36³ grid (486 MB, several times the LLC).
//!
//! Requests arrive as a seeded Poisson stream at [`RATE`]. Every
//! [`BLOCK_EVERY`]-th request is a [`BLOCK_POSITIONS`]-position VGH
//! block (a measurement sweep); the rest are single-position V requests
//! (walker ratios). Latency runs from a request's *due* time — not the
//! time it was actually sent — to the completion instant the worker
//! stamps, so a stalled generator is charged to the service.

use crate::report::Report;
use crate::stats::{median, percentile, ratio_or_zero};
use crate::trace::{self, span};
use crate::vmc::KernelCost;
use crate::{derive_seed, llc_mb, peak_rss_mb, Opts, SetupTimes};
use bspline::service::{ServiceConfig, ServiceError, SpoService, Ticket};
use bspline::{BatchOut, BsplineSoA, Kernel, MoveContext, PosBlock, SpoEngine, WalkerSoA};
use einspline::MultiCoefs;
use miniqmc::synthetic::random_coefficients;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Offered load, requests per second: far below the rate at which this
/// mix saturates one replica on the reference host (at 1400 req/s the
/// one-move p99 passes 100 ms; at 2000 req/s requests are shed). Each
/// VGH block holds the worker for about 10 ms, so at 100 req/s blocks
/// keep it busy about 5 % of the time and a one-move rarely queues
/// behind one; at 400 req/s a slow phase of the host pushed that share
/// past a half and the one-move median from 0.4 ms to 3–6 ms (NOTES.md).
pub const RATE: f64 = 100.0;
/// Every this-many-th request is a VGH block.
pub const BLOCK_EVERY: usize = 20;
/// Positions in a VGH block.
pub const BLOCK_POSITIONS: usize = 32;
/// Orbitals and grid of the served table.
const N_ORBITALS: usize = 2048;
const GRID: usize = 36;
/// Requests due in the first second of a phase warm the service up and
/// are excluded from the latency figures (still sent and checked).
const WARMUP: Duration = Duration::from_secs(1);
/// Service-side deadline after the due time: a request still queued by
/// then is shed and counts as failed.
const DEADLINE: Duration = Duration::from_secs(1);
/// Seeded share of completed requests kept and re-evaluated directly
/// (one in `SAMPLE_*`), and the most kept of each kind. The odds are
/// high enough that a 30 s run reaches both caps, so the memory the kept
/// outputs hold (up to 12 blocks of 2.6 MB) does not vary with the seed
/// and `peak_rss_mb` stays steady.
const SAMPLE_ONE: u32 = 8;
const SAMPLE_BLOCK: u32 = 4;
const MAX_SAMPLED_ONE: usize = 200;
const MAX_SAMPLED_BLOCK: usize = 12;
/// Requests the closed-loop phase keeps in flight: about 150 positions,
/// several fused batches, well inside the default backpressure bound.
const WINDOW: usize = 64;
/// Direct single-position calls of each kind after the open loop (and
/// one 32-position VGH block per 20 of them).
const DIRECT_REPS: usize = 400;

const STREAM_TABLE: u64 = 1;
const STREAM_SCHEDULE: u64 = 2;
const STREAM_SAMPLE: u64 = 3;
const STREAM_DIRECT: u64 = 4;
const STREAM_CAPACITY: u64 = 5;

type Engine = BsplineSoA<f32>;
type Service = SpoService<f32, Engine>;
type Out = BatchOut<WalkerSoA<f32>>;
/// A completed request kept for re-evaluation: kernel, positions, outputs.
type Sample = (Kernel, PosBlock<f32>, Vec<WalkerSoA<f32>>);

/// One scheduled request.
struct Request {
    due: Duration,
    kernel: Kernel,
    pos: PosBlock<f32>,
    sample: bool,
}

/// The seeded request stream: Poisson gaps at [`RATE`], the kernel mix,
/// positions and the picks of requests kept for the direct check.
struct RequestStream {
    rng: StdRng,
    pick: StdRng,
    count: usize,
}

impl RequestStream {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            pick: StdRng::seed_from_u64(derive_seed(seed, STREAM_SAMPLE)),
            count: 0,
        }
    }

    /// Seconds to the next arrival: exponential gaps, a Poisson arrival
    /// process at [`RATE`].
    fn gap(&mut self) -> f64 {
        -(1.0 - self.rng.random::<f64>()).ln() / RATE
    }

    /// The next request of the mix, due at `due`.
    fn next(&mut self, due: Duration) -> Request {
        let block = self.count % BLOCK_EVERY == BLOCK_EVERY - 1;
        self.count += 1;
        let (kernel, n, odds) = if block {
            (Kernel::Vgh, BLOCK_POSITIONS, SAMPLE_BLOCK)
        } else {
            (Kernel::V, 1, SAMPLE_ONE)
        };
        Request {
            due,
            kernel,
            pos: PosBlock::random(&mut self.rng, n, [(0.0, 1.0); 3]),
            sample: self.pick.random_range(0..odds) == 0,
        }
    }
}

/// A seeded open-loop schedule covering `length` of arrivals.
fn schedule(seed: u64, length: Duration) -> Vec<Request> {
    let mut stream = RequestStream::new(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += stream.gap();
        if t >= length.as_secs_f64() {
            return out;
        }
        out.push(stream.next(Duration::from_secs_f64(t)));
    }
}

/// Per-request outcome of one open-loop phase.
#[derive(Default)]
struct Phase {
    sent: u64,
    succeeded: u64,
    shed: u64,
    lost: u64,
    mismatched: u64,
    /// µs from due to completion, timed requests only.
    onemove_us: Vec<f64>,
    block_us: Vec<f64>,
    /// µs from the actual send to completion (one-move, timed).
    turnaround_us: Vec<f64>,
    /// µs spent inside `submit`.
    submit_us: Vec<f64>,
    /// ms the generator sent after the due time.
    late_ms: Vec<f64>,
    /// Due time of the first timed request and the last timed one-move
    /// completion: the window `moves_per_s` is counted over.
    first_timed_due: Option<Instant>,
    last_timed_done: Option<Instant>,
    /// Requests kept for the direct re-evaluation check.
    samples: Vec<Sample>,
}

impl Phase {
    /// Timed one-move requests completed per second of the window from
    /// the first timed due time to the last timed one-move completion.
    fn onemoves_per_s(&self) -> f64 {
        let window = match (self.first_timed_due, self.last_timed_done) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        ratio_or_zero(self.onemove_us.len() as f64, window)
    }

    /// Redeem one request (blocking) and record its outcome.
    fn reap(&mut self, f: InFlight, pools: &mut Pools) {
        match span("service.redeem", || f.ticket.redeem()) {
            Ok((pos, out, done)) => {
                self.succeeded += 1;
                if f.timed {
                    let us = done.saturating_duration_since(f.due).as_secs_f64() * 1e6;
                    if f.kernel == Kernel::V {
                        self.onemove_us.push(us);
                        self.turnaround_us
                            .push(done.saturating_duration_since(f.sent).as_secs_f64() * 1e6);
                        self.last_timed_done =
                            Some(self.last_timed_done.map_or(done, |t| t.max(done)));
                    } else {
                        self.block_us.push(us);
                    }
                }
                let cap = if f.kernel == Kernel::V {
                    MAX_SAMPLED_ONE
                } else {
                    MAX_SAMPLED_BLOCK
                };
                if f.sample && self.samples.iter().filter(|s| s.0 == f.kernel).count() < cap {
                    self.samples.push((f.kernel, pos, out.blocks().to_vec()));
                }
                pools.give(out);
            }
            Err(failed) => {
                match failed.error {
                    ServiceError::Shed => self.shed += 1,
                    _ => self.lost += 1,
                }
                if let Some(out) = failed.out {
                    pools.give(out);
                }
            }
        }
    }
}

struct InFlight {
    ticket: Ticket<f32, WalkerSoA<f32>>,
    due: Instant,
    sent: Instant,
    kernel: Kernel,
    timed: bool,
    sample: bool,
}

/// Output-buffer pools, one per request size.
struct Pools {
    one: Vec<Out>,
    block: Vec<Out>,
}

impl Pools {
    fn new(engine: &Engine) -> Self {
        Self {
            one: (0..32).map(|_| engine.make_batch_out(1)).collect(),
            block: (0..4)
                .map(|_| engine.make_batch_out(BLOCK_POSITIONS))
                .collect(),
        }
    }

    fn take(&mut self, engine: &Engine, n: usize) -> Out {
        let pool = if n == 1 {
            &mut self.one
        } else {
            &mut self.block
        };
        pool.pop().unwrap_or_else(|| engine.make_batch_out(n))
    }

    fn give(&mut self, out: Out) {
        if out.len() == 1 {
            self.one.push(out);
        } else {
            self.block.push(out);
        }
    }
}

/// Drive `requests` through the service open-loop, starting now.
fn open_loop(service: &Service, requests: Vec<Request>) -> Phase {
    let engine = service.engine();
    let mut pools = Pools::new(engine);
    let mut phase = Phase::default();
    let mut inflight: Vec<InFlight> = Vec::new();
    let start = Instant::now() + Duration::from_millis(5);
    for req in requests {
        let due = start + req.due;
        // Reap what has completed while waiting for the due time; sleep
        // in short slices and spin the last stretch.
        loop {
            let mut i = 0;
            while i < inflight.len() {
                if inflight[i].ticket.is_done() {
                    phase.reap(inflight.swap_remove(i), &mut pools);
                } else {
                    i += 1;
                }
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(
                    (left - Duration::from_micros(200)).min(Duration::from_millis(1)),
                );
            } else {
                std::hint::spin_loop();
            }
        }
        let timed = req.due >= WARMUP;
        if timed && phase.first_timed_due.is_none() {
            phase.first_timed_due = Some(due);
        }
        let out = pools.take(engine, req.pos.len());
        let sent = Instant::now();
        let ticket = span("service.submit", || {
            service.submit_with_deadline(req.kernel, req.pos, out, due + DEADLINE)
        });
        let submitted = Instant::now();
        phase.sent += 1;
        phase
            .late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        phase.submit_us.push((submitted - sent).as_secs_f64() * 1e6);
        inflight.push(InFlight {
            ticket,
            due,
            sent,
            kernel: req.kernel,
            timed,
            sample: req.sample,
        });
    }
    for f in inflight {
        phase.reap(f, &mut pools);
    }
    phase
}

/// Re-evaluate the kept requests with direct batched calls on the same
/// engine; returns (checked, mismatched).
fn verify(engine: &Engine, samples: &[Sample]) -> (usize, usize) {
    let n = engine.n_splines();
    let mut bad = 0;
    for (kernel, pos, got) in samples {
        let mut want = engine.make_batch_out(pos.len());
        engine.eval_batch(*kernel, pos, &mut want);
        let same = want.blocks().iter().zip(got).all(|(w, g)| {
            let streams: Vec<(&[f32], &[f32])> = if *kernel == Kernel::V {
                vec![(&w.v.as_slice()[..n], &g.v.as_slice()[..n])]
            } else {
                vec![
                    (&w.v.as_slice()[..n], &g.v.as_slice()[..n]),
                    (&w.gx.as_slice()[..n], &g.gx.as_slice()[..n]),
                    (&w.gy.as_slice()[..n], &g.gy.as_slice()[..n]),
                    (&w.gz.as_slice()[..n], &g.gz.as_slice()[..n]),
                    (&w.hxx.as_slice()[..n], &g.hxx.as_slice()[..n]),
                    (&w.hxy.as_slice()[..n], &g.hxy.as_slice()[..n]),
                    (&w.hxz.as_slice()[..n], &g.hxz.as_slice()[..n]),
                    (&w.hyy.as_slice()[..n], &g.hyy.as_slice()[..n]),
                    (&w.hyz.as_slice()[..n], &g.hyz.as_slice()[..n]),
                    (&w.hzz.as_slice()[..n], &g.hzz.as_slice()[..n]),
                ]
            };
            streams.iter().all(|(a, b)| {
                a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
            })
        });
        bad += usize::from(!same);
    }
    (samples.len(), bad)
}

fn table(seed: u64) -> MultiCoefs<f32> {
    random_coefficients::<f32>(
        GRID,
        GRID,
        GRID,
        N_ORBITALS,
        derive_seed(seed, STREAM_TABLE),
    )
}

fn config() -> ServiceConfig {
    ServiceConfig {
        replicas: 1,
        ..ServiceConfig::default()
    }
}

/// Fill the table and start the service; returns it with the seconds of
/// each stage.
fn start(seed: u64) -> (Service, f64, f64) {
    let t0 = Instant::now();
    let coefs = table(seed);
    let fill = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let service = SpoService::new(BsplineSoA::new(coefs), config());
    (service, fill, t1.elapsed().as_secs_f64())
}

/// Closed loop for `length`: keep [`WINDOW`] requests of the workload's
/// mix in flight, submitting the next one as soon as the oldest is
/// redeemed, so the replica never waits for work. Every request is
/// timed from its submission.
fn closed_loop(service: &Service, seed: u64, length: Duration) -> Phase {
    let engine = service.engine();
    let mut pools = Pools::new(engine);
    let mut phase = Phase::default();
    let mut stream = RequestStream::new(seed);
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let start = Instant::now();
    while start.elapsed() < length {
        if inflight.len() == WINDOW {
            let oldest = inflight.pop_front().expect("WINDOW >= 1");
            phase.reap(oldest, &mut pools);
        }
        let req = stream.next(Duration::ZERO);
        let out = pools.take(engine, req.pos.len());
        let sent = Instant::now();
        phase.first_timed_due.get_or_insert(sent);
        let ticket = service.submit(req.kernel, req.pos, out);
        phase.sent += 1;
        inflight.push_back(InFlight {
            ticket,
            due: sent,
            sent,
            kernel: req.kernel,
            timed: true,
            sample: req.sample,
        });
    }
    for f in inflight {
        phase.reap(f, &mut pools);
    }
    phase
}

/// Verify a finished phase's samples, fold its counts into the report
/// and print them.
fn settle(label: &str, service: &Service, mut p: Phase, report: &mut Report) -> Phase {
    let (checked, mismatched) = verify(service.engine(), &p.samples);
    p.mismatched = mismatched as u64;
    report.check(
        &format!("{label}: results = direct batched calls (bits)"),
        mismatched == 0,
        format!("{mismatched} of {checked} sampled requests differ"),
    );
    report.attempted += p.sent;
    report.failed += p.shed + p.lost + p.mismatched;
    println!(
        "{label}: sent {} succeeded {} shed {} lost {} mismatched {mismatched}",
        p.sent, p.succeeded, p.shed, p.lost
    );
    p
}

/// Run one open-loop phase of `length` (plus warm-up) on a schedule
/// from `seed`, verify it and fold its counts into the report.
fn phase(service: &Service, seed: u64, length: Duration, report: &mut Report) -> Phase {
    let p = open_loop(service, schedule(seed, WARMUP + length));
    println!(
        "open loop: generator late p99 {:.3} ms max {:.3} ms",
        percentile(&p.late_ms, 0.99),
        percentile(&p.late_ms, 1.0)
    );
    settle("open loop", service, p, report)
}

pub fn run(opts: &Opts, report: &mut Report) {
    let seed = opts.seed;
    println!(
        "workload service_mixed seed {seed}: {RATE} req/s, every {BLOCK_EVERY}th a \
         {BLOCK_POSITIONS}-position VGH block; {} hardware threads",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mb = einspline::multi::table_bytes_in::<f32>((GRID, GRID, GRID), N_ORBITALS) as f64 / 1e6;
    println!(
        "table: N = {N_ORBITALS}, {mb:.1} MB f32, LLC {:.1} MB",
        llc_mb()
    );
    report.set("setup.table_mb", mb);
    report.set("setup.llc_mb", llc_mb());
    let mut times = SetupTimes::default();
    let service = times.repeat(|| start(seed));
    if opts.trace {
        traced(&service, seed, opts.seconds, report);
    } else {
        let p = phase(
            &service,
            derive_seed(seed, STREAM_SCHEDULE),
            opts.seconds,
            report,
        );
        report.set("moves_per_s", p.onemoves_per_s());
        report.set("onemove_us", percentile(&p.onemove_us, 0.5));
        report.set("block_us", percentile(&p.block_us, 0.5));
        println!(
            "timed: {} one-move, {} block samples; p99 one-move {:.0} us, block {:.0} us",
            p.onemove_us.len(),
            p.block_us.len(),
            percentile(&p.onemove_us, 0.99),
            percentile(&p.block_us, 0.99)
        );
    }
    drop(service);
    // The same set-ups again, so that they span the whole run.
    times.repeat(|| start(seed));
    let [total, fill, start] = times.fastest();
    report.set("setup_s", total);
    report.set("setup.table_fill_s", fill);
    report.set("setup.service_start_s", start);
    report.set("peak_rss_mb", peak_rss_mb());
}

/// Median ns of the direct kernel calls on the idle service's engine:
/// `(v_batch of one position, v_one, accept-side vgh_one, vgh_batch per
/// position)`. The kinds are interleaved so that a change in the host's
/// load affects all of them alike.
fn direct_calls(engine: &Engine, seed: u64) -> (f64, f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_DIRECT));
    let domain = [(0.0, 1.0); 3];
    let mut one = engine.make_batch_out(1);
    let mut block = engine.make_batch_out(BLOCK_POSITIONS);
    let mut ctx = MoveContext::new();
    let mut out = engine.make_out();
    let mut ns: [Vec<f64>; 4] = Default::default();
    let mut time = |k: usize, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        ns[k].push(t.elapsed().as_secs_f64() * 1e9);
    };
    for i in 0..DIRECT_REPS {
        let pos = PosBlock::random(&mut rng, 1, domain);
        time(0, &mut || engine.v_batch(&pos, &mut one));
        // A walker's move: V on propose, then the accept-side VGH reusing
        // the locate/weights cached at the same position.
        let r = PosBlock::<f32>::random(&mut rng, 1, domain).get(0);
        time(1, &mut || engine.v_one(&mut ctx, r, &mut out));
        time(2, &mut || engine.vgh_one(&mut ctx, r, &mut out));
        if i % (DIRECT_REPS / 20) == 0 {
            let pos = PosBlock::random(&mut rng, BLOCK_POSITIONS, domain);
            time(3, &mut || engine.vgh_batch(&pos, &mut block));
        }
    }
    let [v_batch, v_one, vgh_one, vgh_batch] = ns.map(|v| median(&v));
    (v_batch, v_one, vgh_one, vgh_batch / BLOCK_POSITIONS as f64)
}

fn traced(service: &Service, seed: u64, seconds: Duration, report: &mut Report) {
    let third = seconds / 3;
    // Untraced reference phase, then the same length with spans on, then
    // the untraced closed loop.
    let plain = phase(service, derive_seed(seed, STREAM_SCHEDULE), third, report);
    let before = service.stats();
    trace::set_enabled(true);
    let p = phase(
        service,
        derive_seed(seed, STREAM_SCHEDULE + 1),
        third,
        report,
    );
    trace::set_enabled(false);
    let spans = trace::take();
    let after = service.stats();
    let closed = closed_loop(service, derive_seed(seed, STREAM_CAPACITY), third);
    let closed = settle("closed loop", service, closed, report);
    report.set("service.capacity_moves_per_s", closed.onemoves_per_s());

    let engine = service.engine();
    let (direct_v_ns, v_one_ns, vgl_one_ns, vgh_ns) = direct_calls(engine, seed);

    let turnaround_p50 = percentile(&p.turnaround_us, 0.5);
    report.set("service.turnaround_us_p50", turnaround_p50);
    report.set(
        "service.turnaround_us_p99",
        percentile(&p.turnaround_us, 0.99),
    );
    report.set("service.onemove_us_p99", percentile(&p.onemove_us, 0.99));
    report.set("service.block_us_p99", percentile(&p.block_us, 0.99));
    report.set("service.direct_v_us_p50", direct_v_ns / 1e3);
    report.set(
        "service.hop_overhead_us",
        turnaround_p50 - direct_v_ns / 1e3,
    );
    report.set("service.submit_us_p99", percentile(&p.submit_us, 0.99));
    let batches = (after.batches - before.batches) as f64;
    let positions = (after.positions - before.positions) as f64;
    let requests = (after.requests - before.requests) as f64;
    report.set(
        "service.mean_batch_positions",
        ratio_or_zero(positions, batches),
    );
    report.set(
        "service.coalesced_frac",
        ratio_or_zero((after.coalesced - before.coalesced) as f64, requests),
    );
    report.set(
        "service.generator_late_ms_p99",
        percentile(&p.late_ms, 0.99),
    );
    report.set("service.generator_late_ms_max", percentile(&p.late_ms, 1.0));
    report.set("service.sent", p.sent as f64);
    report.set("service.succeeded", p.succeeded as f64);
    report.set("service.shed", p.shed as f64);
    report.set("service.lost", p.lost as f64);
    report.set("service.mismatched", p.mismatched as f64);
    report.set("service.failed", (p.shed + p.lost + p.mismatched) as f64);

    report.set("bspline.v_one_ns", v_one_ns);
    report.set("bspline.vgl_one_ns", vgl_one_ns);
    report.set("bspline.vgh_batch_ns_per_pos", vgh_ns);
    let cost = KernelCost::new(engine.stride());
    cost.report(v_one_ns, vgl_one_ns, vgh_ns, report);
    // The workload's call mix at direct-call speed: per block, BLOCK_EVERY
    // − 1 single-position V requests and BLOCK_POSITIONS VGH positions.
    let (ones, block_pos) = ((BLOCK_EVERY - 1) as f64, BLOCK_POSITIONS as f64);
    report.set(
        "bspline.gbps_computed",
        ratio_or_zero(
            ones * cost.v_bytes + block_pos * cost.vgh_bytes,
            ones * direct_v_ns + block_pos * vgh_ns,
        ),
    );
    report.set(
        "trace.overhead_frac",
        1.0 - percentile(&plain.onemove_us, 0.5) / percentile(&p.onemove_us, 0.5),
    );
    report.set("trace.spans", spans.len() as f64);
    println!(
        "one-move p50: untraced {:.1} us, traced {:.1} us; direct v_batch(1) {:.1} us",
        percentile(&plain.onemove_us, 0.5),
        percentile(&p.onemove_us, 0.5),
        direct_v_ns / 1e3
    );
}
