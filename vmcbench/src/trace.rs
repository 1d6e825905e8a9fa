//! In-memory spans recorded around calls into the program's layers.
//!
//! A span is `(name, start, end, parent)`. Spans are kept in a
//! thread-local buffer while tracing is on and aggregated after the
//! measurement; nothing is written while a workload runs. A layer's
//! *self time* is its span's duration minus the part of that interval
//! its child spans cover ([`self_times`]).
//!
//! [`TracedEngine`] wraps any [`SpoEngine`] so that the calls a
//! `SpoSet` makes into its engine become child spans of the `spo.*`
//! spans the benchmark records around the `SpoSet` call — the split
//! between the Cartesian pull-back (`spo` self time) and the kernel
//! (`bspline`).

use bspline::{BatchOut, Layout, MoveContext, PosBlock, SpoEngine};
use einspline::Real;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        enabled: false,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Hand back (and clear) every span recorded on this thread.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Run `f` inside a span named `name` (a plain call when tracing is off).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let idx = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let start = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        t.open.push(idx);
        Some(idx)
    });
    let r = f();
    if let Some(idx) = opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.elapsed().as_nanos() as u64;
            t.spans[idx as usize].end = end;
            t.open.pop();
        });
    }
    r
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval (so
/// overlapping children are not counted twice, and a child that
/// outlives its parent cannot drive the parent's self time negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(p, kids)| p.duration() - covered(p.start, p.end, kids))
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-name totals over a span buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn aggregate(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, Totals> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration();
        t.self_ns += self_ns;
    }
    by_name
}

/// Sum of self times over every span whose name starts with `layer.`.
pub fn layer_self_ns(agg: &HashMap<&'static str, Totals>, layer: &str) -> u64 {
    agg.iter()
        .filter(|(name, _)| {
            name.strip_prefix(layer)
                .is_some_and(|rest| rest.starts_with('.'))
        })
        .map(|(_, t)| t.self_ns)
        .sum()
}

/// An engine wrapper that records a `bspline.*` span around every
/// kernel call it forwards.
#[derive(Clone, Debug)]
pub struct TracedEngine<E>(pub E);

impl<T: Real, E: SpoEngine<T>> SpoEngine<T> for TracedEngine<E> {
    type Out = E::Out;

    fn n_splines(&self) -> usize {
        self.0.n_splines()
    }
    fn layout(&self) -> Layout {
        self.0.layout()
    }
    fn domain(&self) -> [(f64, f64); 3] {
        self.0.domain()
    }
    fn make_out(&self) -> Self::Out {
        self.0.make_out()
    }
    fn v(&self, pos: [T; 3], out: &mut Self::Out) {
        span("bspline.v", || self.0.v(pos, out))
    }
    fn vgl(&self, pos: [T; 3], out: &mut Self::Out) {
        span("bspline.vgl", || self.0.vgl(pos, out))
    }
    fn vgh(&self, pos: [T; 3], out: &mut Self::Out) {
        span("bspline.vgh", || self.0.vgh(pos, out))
    }
    fn v_batch(&self, pos: &PosBlock<T>, out: &mut BatchOut<Self::Out>) {
        span("bspline.v_batch", || self.0.v_batch(pos, out))
    }
    fn vgh_batch(&self, pos: &PosBlock<T>, out: &mut BatchOut<Self::Out>) {
        span("bspline.vgh_batch", || self.0.vgh_batch(pos, out))
    }
    fn v_one(&self, ctx: &mut MoveContext<T>, pos: [T; 3], out: &mut Self::Out) {
        span("bspline.v_one", || self.0.v_one(ctx, pos, out))
    }
    // `SpoSet::evaluate_vgl_one` runs the engine's VGH kernel (the
    // hexagonal-cell Laplacian needs the full Hessian); it is the
    // accept-side "one-move VGL" and is reported under that name.
    fn vgh_one(&self, ctx: &mut MoveContext<T>, pos: [T; 3], out: &mut Self::Out) {
        span("bspline.vgl_one", || self.0.vgh_one(ctx, pos, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [s("a.x", 10, 25, NO_PARENT)];
        assert_eq!(self_times(&spans), vec![15]);
    }

    #[test]
    fn sequential_children_are_subtracted() {
        // parent [0,100], children [10,30] and [40,45].
        let spans = [
            s("p.x", 0, 100, NO_PARENT),
            s("c.x", 10, 30, 0),
            s("c.y", 40, 45, 0),
        ];
        assert_eq!(self_times(&spans), vec![75, 20, 5]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children [10,50] and [30,60] cover [10,60] = 50 ns.
        let spans = [
            s("p.x", 0, 100, NO_PARENT),
            s("c.x", 10, 50, 0),
            s("c.y", 30, 60, 0),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child reaching past the parent's end only covers the overlap.
        let spans = [s("p.x", 0, 40, NO_PARENT), s("c.x", 30, 90, 0)];
        assert_eq!(self_times(&spans), vec![30, 60]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        // root [0,100] > mid [10,60] > leaf [20,50].
        let spans = [
            s("r.x", 0, 100, NO_PARENT),
            s("m.x", 10, 60, 0),
            s("l.x", 20, 50, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
        let agg = aggregate(&spans);
        let total_self: u64 = agg.values().map(|t| t.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root");
    }

    #[test]
    fn aggregate_and_layer_sums() {
        let spans = [
            s("spo.v_one", 0, 100, NO_PARENT),
            s("bspline.v_one", 10, 90, 0),
            s("spo.v_one", 200, 260, NO_PARENT),
            s("bspline.v_one", 210, 250, 2),
            s("spoke.x", 300, 301, NO_PARENT),
        ];
        let agg = aggregate(&spans);
        let spo = agg["spo.v_one"];
        assert_eq!((spo.count, spo.total_ns, spo.self_ns), (2, 160, 40));
        assert_eq!(agg["bspline.v_one"].self_ns, 120);
        assert_eq!(layer_self_ns(&agg, "spo"), 40, "prefix must end at a dot");
        assert_eq!(layer_self_ns(&agg, "bspline"), 120);
    }

    #[test]
    fn recorder_nests_and_can_be_disabled() {
        set_enabled(true);
        let x = span("outer.a", || span("inner.b", || 41) + 1);
        set_enabled(false);
        span("ignored.c", || ());
        let spans = take();
        assert_eq!(x, 42);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer.a");
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(take().is_empty());
    }
}
