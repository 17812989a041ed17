//! Workload traces: `(vm, round) → utilization-of-nominal` tables.
//!
//! The simulator pulls one column per round through the
//! [`glap_cluster::DemandSource`] trait. A trace holds its VMs as
//! segments of two kinds:
//!
//! * **dense** — every cell stored, VM-major. [`MaterializedTrace::from_fn`],
//!   [`MaterializedTrace::zeroed`] and CSV playback ([`crate::load_csv`])
//!   build these;
//! * **generated** — one replay point per VM: the exported ChaCha8 state
//!   where that VM's draws start in the generator's stream, plus the
//!   generator's configuration. [`crate::GoogleLikeTraceGen::generate`]
//!   builds these, and readers remake the cells on demand through
//!   per-VM cursors, so a generated trace costs O(VMs), not
//!   O(VMs × rounds).
//!
//! The simulator reads a whole round at a time
//! ([`DemandSource::fill_round`]). An [`OffsetTrace`] fills every VM of
//! the round; in worlds of at least [`PREFETCH_MIN_VMS`] VMs with more
//! than one worker thread a helper thread starts on round `r + 1` while
//! the caller uses round `r`, unless the caller is itself a pool worker
//! (a grid cell), whose siblings already use the cores. The two share
//! the round in chunks of consecutive VMs, each holding its VMs' cursors
//! and cells: the helper claims chunks in VM order as soon as it is
//! asked, and the caller, when it asks for `r + 1`, claims the rest
//! itself instead of waiting. A cell is a pure function of its VM's
//! replay point and each cursor lives in one chunk, so which thread
//! makes a cell cannot change it. The helper shares the trace's
//! segments through an `Arc`, which also makes a clone of a trace O(1);
//! `set` and `append_vms` copy the segments on write.
//!
//! The paper's methodology drives *different algorithms with the
//! identical workload*. Here that holds because every reader of a trace
//! replays the same points: the cells, bit for bit, do not depend on who
//! reads them, in what order or how often.

use crate::google::{Model, VmGen};
use glap_cluster::{DemandSource, Resources, Vm, VmId};
use rand_chacha::{ChaCha8Rng, ChaCha8State};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A utilization trace: dense cells, replay points, or both (after
/// [`MaterializedTrace::append_vms`]).
#[derive(Debug, Clone)]
pub struct MaterializedTrace {
    n_vms: usize,
    rounds: usize,
    /// The VMs in order, each segment tagged with its first VM; shared
    /// by clones and by prefetch helpers, copied on write.
    segments: Arc<Vec<(usize, Segment)>>,
    /// Read positions of this trace's own [`DemandSource`] impl.
    cursors: Cursors,
}

#[derive(Debug, Clone)]
enum Segment {
    /// Stored cells, VM-major: `cells[vm * rounds + round]`.
    Dense(Vec<Resources>),
    /// One replay point per VM.
    Generated {
        model: Box<Model>,
        starts: Vec<ChaCha8State>,
    },
}

/// Where one VM's cells come from.
#[derive(Clone, Copy)]
enum Row<'a> {
    Dense(&'a [Resources]),
    Generated(&'a Model, &'a ChaCha8State),
}

/// One VM's replay position: the generator right after the cell of
/// round `next_round - 1`, and that cell.
#[derive(Debug, Clone)]
struct Cursor {
    rng: ChaCha8Rng,
    gen: VmGen,
    next_round: usize,
    cell: Resources,
}

impl Cursor {
    fn start(model: &Model, start: &ChaCha8State) -> Self {
        let mut rng = ChaCha8Rng::from_state(*start);
        let gen = VmGen::new(model, &mut rng);
        Cursor {
            rng,
            gen,
            next_round: 0,
            cell: Resources::ZERO,
        }
    }

    /// The cell of `round` (below the trace length): the cached one if
    /// it is the last made, otherwise made by stepping forward, from the
    /// replay point if `round` lies behind the cursor.
    fn read(
        slot: &mut Option<Cursor>,
        model: &Model,
        start: &ChaCha8State,
        round: usize,
    ) -> Resources {
        if !matches!(slot, Some(c) if c.next_round <= round + 1) {
            *slot = Some(Cursor::start(model, start));
        }
        let c = slot.as_mut().expect("cursor just set");
        while c.next_round <= round {
            c.cell = c.gen.next(model, &mut c.rng);
            c.next_round += 1;
        }
        c.cell
    }
}

/// Per-VM cursors into a trace's generated segments, allocated on the
/// first generated read.
#[derive(Debug, Clone, Default)]
struct Cursors(Vec<Option<Cursor>>);

impl Cursors {
    fn read(&mut self, trace: &MaterializedTrace, vm: usize, round: usize) -> Resources {
        let round = round % trace.rounds;
        match trace.row(vm) {
            Row::Dense(cells) => cells[round],
            Row::Generated(model, start) => {
                if self.0.len() < trace.n_vms {
                    self.0.resize(trace.n_vms, None);
                }
                Cursor::read(&mut self.0[vm], model, start, round)
            }
        }
    }

    /// `out[vm]` becomes the cell of `round` for every `vm < out.len()`.
    fn fill(&mut self, trace: &MaterializedTrace, round: usize, out: &mut [Resources]) {
        for (vm, cell) in out.iter_mut().enumerate() {
            *cell = self.read(trace, vm, round);
        }
    }
}

/// Rejects a trace of no rounds at construction, rather than at its
/// first read's `round % rounds`.
pub(crate) fn assert_rounds(rounds: usize) {
    assert!(rounds > 0, "a trace needs at least one round");
}

impl MaterializedTrace {
    /// Allocates an all-zero dense trace.
    ///
    /// # Panics
    ///
    /// If `rounds` is 0: every read wraps its round modulo `rounds`.
    pub fn zeroed(n_vms: usize, rounds: usize) -> Self {
        assert_rounds(rounds);
        MaterializedTrace {
            n_vms,
            rounds,
            segments: Arc::new(vec![(
                0,
                Segment::Dense(vec![Resources::ZERO; n_vms * rounds]),
            )]),
            cursors: Cursors::default(),
        }
    }

    /// A generated trace: `starts[vm]` is where `vm`'s draws of `model`
    /// begin.
    ///
    /// # Panics
    ///
    /// If `rounds` is 0, as [`MaterializedTrace::zeroed`].
    pub(crate) fn generated(model: Model, starts: Vec<ChaCha8State>, rounds: usize) -> Self {
        assert_rounds(rounds);
        MaterializedTrace {
            n_vms: starts.len(),
            rounds,
            segments: Arc::new(vec![(
                0,
                Segment::Generated {
                    model: Box::new(model),
                    starts,
                },
            )]),
            cursors: Cursors::default(),
        }
    }

    /// Builds a dense trace from a generator function.
    ///
    /// # Panics
    ///
    /// If `rounds` is 0, as [`MaterializedTrace::zeroed`].
    pub fn from_fn<F: FnMut(usize, usize) -> Resources>(
        n_vms: usize,
        rounds: usize,
        mut f: F,
    ) -> Self {
        let mut t = MaterializedTrace::zeroed(n_vms, rounds);
        for vm in 0..n_vms {
            for round in 0..rounds {
                t.set(vm, round, f(vm, round));
            }
        }
        t
    }

    /// Number of VMs covered.
    #[inline]
    pub fn n_vms(&self) -> usize {
        self.n_vms
    }

    /// Number of rounds covered.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The index of the segment holding `vm`.
    #[inline]
    fn segment(&self, vm: usize) -> usize {
        debug_assert!(vm < self.n_vms);
        self.segments.partition_point(|&(first, _)| first <= vm) - 1
    }

    #[inline]
    fn row(&self, vm: usize) -> Row<'_> {
        let (first, segment) = &self.segments[self.segment(vm)];
        let i = vm - first;
        match segment {
            Segment::Dense(cells) => Row::Dense(&cells[i * self.rounds..(i + 1) * self.rounds]),
            Segment::Generated { model, starts } => Row::Generated(model, &starts[i]),
        }
    }

    /// Utilization of `vm` at `round`. Rounds beyond the trace length wrap
    /// around (so warm-up phases can precede the measured day without
    /// requiring a longer trace). A generated cell is remade from the
    /// VM's replay point on every call; sequential readers go through
    /// [`DemandSource`], [`OffsetTrace`] or [`MaterializedTrace::series`].
    pub fn get(&self, vm: usize, round: usize) -> Resources {
        self.read(&mut None, vm, round % self.rounds)
    }

    /// The cell of `vm` at `round` (below the trace length), made
    /// through `slot` if `vm` is generated.
    fn read(&self, slot: &mut Option<Cursor>, vm: usize, round: usize) -> Resources {
        match self.row(vm) {
            Row::Dense(cells) => cells[round],
            Row::Generated(model, start) => Cursor::read(slot, model, start, round),
        }
    }

    /// Sets one cell of a dense segment (values are clamped to `[0, 1]`).
    ///
    /// # Panics
    ///
    /// If `vm` belongs to a generated segment, whose cells are not
    /// stored.
    #[inline]
    pub fn set(&mut self, vm: usize, round: usize, value: Resources) {
        debug_assert!(round < self.rounds);
        let k = self.segment(vm);
        let (first, segment) = &mut Arc::make_mut(&mut self.segments)[k];
        let Segment::Dense(cells) = segment else {
            panic!("cannot set a cell of a generated trace");
        };
        cells[(vm - *first) * self.rounds + round] = value.clamp(0.0, 1.0);
    }

    /// The full series of one VM, round by round.
    pub fn series(&self, vm: usize) -> impl Iterator<Item = Resources> + '_ {
        let row = self.row(vm);
        let mut cursor = None;
        (0..self.rounds).map(move |round| match row {
            Row::Dense(cells) => cells[round],
            Row::Generated(model, start) => Cursor::read(&mut cursor, model, start, round),
        })
    }

    /// Appends all of `other`'s VM series after this trace's VMs. Both
    /// traces must cover the same number of rounds. Used to stitch a
    /// differently-distributed arrival population onto a base trace
    /// (workload distribution shift under churn); generated segments
    /// keep their own replay points and generator configuration.
    pub fn append_vms(&mut self, other: &MaterializedTrace) {
        assert_eq!(self.rounds, other.rounds, "round-count mismatch");
        let base = self.n_vms;
        Arc::make_mut(&mut self.segments).extend(
            other
                .segments
                .iter()
                .map(|(first, segment)| (base + first, segment.clone())),
        );
        self.n_vms += other.n_vms;
    }

    /// Every cell, VM after VM.
    fn cells(&self) -> impl Iterator<Item = Resources> + '_ {
        (0..self.n_vms).flat_map(|vm| self.series(vm))
    }

    /// Mean CPU utilization over all cells.
    pub fn mean_cpu(&self) -> f64 {
        if self.n_vms * self.rounds == 0 {
            return 0.0;
        }
        self.cells().map(|r| r.cpu()).sum::<f64>() / (self.n_vms * self.rounds) as f64
    }

    /// Mean memory utilization over all cells.
    pub fn mean_mem(&self) -> f64 {
        if self.n_vms * self.rounds == 0 {
            return 0.0;
        }
        self.cells().map(|r| r.mem()).sum::<f64>() / (self.n_vms * self.rounds) as f64
    }

    /// Lag-1 autocorrelation of one VM's CPU series — used to validate the
    /// generator's temporal structure.
    pub fn cpu_lag1_autocorr(&self, vm: usize) -> f64 {
        let s: Vec<f64> = self.series(vm).map(|r| r.cpu()).collect();
        if s.len() < 3 {
            return 0.0;
        }
        let n = s.len();
        let mean = s.iter().sum::<f64>() / n as f64;
        let var: f64 = s.iter().map(|x| (x - mean).powi(2)).sum();
        if var < 1e-12 {
            return 0.0;
        }
        let cov: f64 = (1..n).map(|t| (s[t] - mean) * (s[t - 1] - mean)).sum();
        cov / var
    }
}

/// Traces are equal when they cover the same VMs and rounds with the
/// same cells, however those are stored.
impl PartialEq for MaterializedTrace {
    fn eq(&self, other: &Self) -> bool {
        self.n_vms == other.n_vms && self.rounds == other.rounds && self.cells().eq(other.cells())
    }
}

impl DemandSource for MaterializedTrace {
    fn demand(&mut self, vm: VmId, round: u64) -> Resources {
        let mut cursors = std::mem::take(&mut self.cursors);
        let cell = cursors.read(self, vm.index(), round as usize);
        self.cursors = cursors;
        cell
    }
}

/// A trace that offsets rounds into an inner trace — used to pre-train GLAP
/// on 700 warm-up rounds and then replay the measured day from round 0 for
/// every algorithm identically. Each view keeps its own cursors, so any
/// number of views can read one trace.
///
/// Whole rounds ([`DemandSource::fill_round`]) cover every VM of the
/// world, which must not hold more VMs than the trace. With more than
/// one worker thread ([`glap_par::resolve_threads`]), at least
/// [`PREFETCH_MIN_VMS`] VMs and a caller that is not itself a pool
/// worker ([`glap_par::in_worker`]), a helper thread starts on round
/// `r + 1` while its caller uses round `r`, and the caller makes the
/// chunks of `r + 1` the helper has not reached when it asks for them.
/// Each VM's cursor lives in its chunk, and cells are pure functions of
/// their VM's replay point, so the bytes are the same whichever thread
/// makes them. The cells of a grid sweep, which already keeps every
/// core busy, fill on their own threads.
#[derive(Debug)]
pub struct OffsetTrace<'a> {
    inner: &'a MaterializedTrace,
    offset: u64,
    cursors: Cursors,
    fill: RoundFill,
}

/// The fewest VMs for which a view fills rounds ahead on a helper
/// thread. Smaller worlds fill on the caller. Measured on 2 vCPUs: at
/// 60 VMs a whole simulated round takes ~15 µs and the hand-off made a
/// GRMP day 1.4–1.8× slower; at 360 VMs (the node fleets) it gained
/// nothing.
pub const PREFETCH_MIN_VMS: usize = 1024;

/// How an [`OffsetTrace`] fills whole rounds, decided on the first one.
#[derive(Debug)]
enum RoundFill {
    Undecided,
    Serial,
    Ahead(Prefetch),
}

impl<'a> OffsetTrace<'a> {
    /// Wraps `inner`, shifting every queried round by `offset`.
    pub fn new(inner: &'a MaterializedTrace, offset: u64) -> Self {
        OffsetTrace {
            inner,
            offset,
            cursors: Cursors::default(),
            fill: RoundFill::Undecided,
        }
    }
}

/// A clone reads the same cells through its own cursors and starts its
/// own helper, if any, on its first whole round.
impl Clone for OffsetTrace<'_> {
    fn clone(&self) -> Self {
        OffsetTrace {
            cursors: self.cursors.clone(),
            ..OffsetTrace::new(self.inner, self.offset)
        }
    }
}

impl DemandSource for OffsetTrace<'_> {
    fn demand(&mut self, vm: VmId, round: u64) -> Resources {
        self.cursors
            .read(self.inner, vm.index(), (round + self.offset) as usize)
    }

    fn fill_round(&mut self, round: u64, vms: &[Vm], out: &mut [Resources]) {
        debug_assert!(vms.iter().enumerate().all(|(i, vm)| vm.id.index() == i));
        if matches!(self.fill, RoundFill::Undecided) {
            let ahead = vms.len() >= PREFETCH_MIN_VMS
                && glap_par::resolve_threads(None) > 1
                && !glap_par::in_worker();
            self.fill = if ahead {
                Prefetch::start(self.inner).map_or(RoundFill::Serial, RoundFill::Ahead)
            } else {
                RoundFill::Serial
            };
        }
        let round = (round + self.offset) as usize;
        match &mut self.fill {
            RoundFill::Ahead(prefetch) => prefetch.fill(round, out),
            _ => self.cursors.fill(self.inner, round, out),
        }
    }
}

/// VMs per chunk of a prefetched round: the unit the caller and its
/// helper claim. On 2 vCPUs at 4 500 VMs, 32, 64 and 256 measured level
/// within run-to-run noise; a small chunk bounds the caller's wait for
/// the helper's chunk in progress.
const CHUNK_VMS: usize = 64;

/// A helper thread that starts making the round after the one just
/// served while the caller uses it; when the caller asks for that round
/// it makes whatever chunks are left itself, then waits for the helper's
/// chunk in progress, if any. The waiting side blocks, never spins.
#[derive(Debug)]
struct Prefetch {
    board: Arc<Board>,
    /// Requests: the trace round to make and the VM count. `None` once
    /// dropping.
    requests: Option<SyncSender<(usize, usize)>>,
    /// One reply per request: the helper has claimed its last chunk and
    /// finished it.
    replies: Receiver<()>,
    helper: Option<JoinHandle<()>>,
    /// The `(round, VM count)` requested and not yet finished, if any.
    in_flight: Option<(usize, usize)>,
}

/// What a [`Prefetch`]'s two threads share: the trace, and its VMs cut
/// into chunks of [`CHUNK_VMS`] with their cursors and cells. A VM's
/// cursor lives in its chunk, so whichever thread claims the chunk steps
/// the same cursor; no cursor replays a round the other thread made.
#[derive(Debug)]
struct Board {
    trace: MaterializedTrace,
    chunks: Vec<Mutex<Chunk>>,
    /// The next chunk to claim; zero whenever no request is in flight.
    next: AtomicUsize,
}

/// The cursors and cells of [`CHUNK_VMS`] consecutive VMs; in the last
/// chunk, slots past the trace's last VM stay unused.
#[derive(Debug)]
struct Chunk {
    cursors: Vec<Option<Cursor>>,
    cells: Vec<Resources>,
}

impl Board {
    /// Claims chunks of `round` over the first `n` VMs and makes their
    /// cells until none is left. `Err` if a chunk's lock is poisoned: a
    /// thread panicked while making it.
    fn work(&self, (round, n): (usize, usize)) -> Result<(), ()> {
        let round = round % self.trace.rounds;
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            let first = k * CHUNK_VMS;
            if first >= n {
                return Ok(());
            }
            let mut chunk = self.chunks[k].lock().map_err(drop)?;
            let Chunk { cursors, cells } = &mut *chunk;
            for ((vm, slot), cell) in (first..n.min(first + CHUNK_VMS)).zip(cursors).zip(cells) {
                *cell = self.trace.read(slot, vm, round);
            }
        }
    }
}

impl Prefetch {
    /// Spawns the helper over a handle on `trace`'s segments. The
    /// chunks, with their cursors and cells, are sized here, on the
    /// calling thread.
    fn start(trace: &MaterializedTrace) -> std::io::Result<Self> {
        let chunk = || {
            Mutex::new(Chunk {
                cursors: vec![None; CHUNK_VMS],
                cells: vec![Resources::ZERO; CHUNK_VMS],
            })
        };
        let board = Arc::new(Board {
            trace: MaterializedTrace {
                segments: Arc::clone(&trace.segments),
                cursors: Cursors::default(),
                ..*trace
            },
            chunks: (0..trace.n_vms.div_ceil(CHUNK_VMS))
                .map(|_| chunk())
                .collect(),
            next: AtomicUsize::new(0),
        });
        let (requests, inbox) = sync_channel::<(usize, usize)>(1);
        let (outbox, replies) = sync_channel(1);
        let shared = Arc::clone(&board);
        let helper = std::thread::Builder::new()
            .name("trace-prefetch".into())
            .spawn(move || {
                while let Ok(want) = inbox.recv() {
                    shared
                        .work(want)
                        .expect("trace chunk poisoned by a panic on the caller");
                    if outbox.send(()).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Prefetch {
            board,
            requests: Some(requests),
            replies,
            helper: Some(helper),
            in_flight: None,
        })
    }

    /// Copies trace round `round` of the first `out.len()` VMs into
    /// `out`, then asks for the next round. A round other than the one
    /// in flight is made after the in-flight one is finished.
    fn fill(&mut self, round: usize, out: &mut [Resources]) {
        let want = (round, out.len());
        if self.in_flight != Some(want) {
            if self.in_flight.is_some() {
                self.finish();
            }
            self.ask(want);
        }
        self.finish();
        let board = Arc::clone(&self.board);
        for (chunk, out) in board.chunks.iter().zip(out.chunks_mut(CHUNK_VMS)) {
            match chunk.lock() {
                Ok(chunk) => out.copy_from_slice(&chunk.cells[..out.len()]),
                Err(_) => self.rethrow(),
            }
        }
        self.ask((round + 1, out.len()));
    }

    fn ask(&mut self, want: (usize, usize)) {
        let requests = self.requests.as_ref().expect("open until drop");
        if requests.send(want).is_err() {
            self.rethrow();
        }
        self.in_flight = Some(want);
    }

    /// Makes the chunks of the round in flight that the helper has not
    /// claimed, then waits for the helper's reply.
    fn finish(&mut self) {
        let want = self.in_flight.take().expect("a round in flight");
        match (self.board.work(want), self.replies.recv()) {
            (Ok(()), Ok(())) => self.board.next.store(0, Ordering::Relaxed),
            _ => self.rethrow(),
        }
    }

    /// Re-raises the helper's panic, its only way to hang up early or to
    /// poison a chunk the caller then locks.
    fn rethrow(&mut self) -> ! {
        self.requests = None;
        let helper = self.helper.take().expect("helper not yet joined");
        match helper.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => panic!("trace chunk poisoned by an earlier panic on the caller"),
        }
    }
}

/// Closes the request channel, then joins the helper; the helper
/// finishes the chunks of an in-flight round first.
impl Drop for Prefetch {
    fn drop(&mut self) {
        self.requests = None;
        if let Some(helper) = self.helper.take() {
            if let Err(payload) = helper.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_fills_cells() {
        let t = MaterializedTrace::from_fn(2, 3, |vm, r| {
            Resources::splat((vm as f64 + r as f64) / 10.0)
        });
        assert_eq!(t.get(1, 2), Resources::splat(0.3));
        assert_eq!(t.series(0).count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn a_zeroed_trace_needs_a_round() {
        MaterializedTrace::zeroed(3, 0);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn a_trace_from_fn_needs_a_round() {
        MaterializedTrace::from_fn(3, 0, |_, _| Resources::ZERO);
    }

    #[test]
    fn set_clamps_values() {
        let mut t = MaterializedTrace::zeroed(1, 1);
        t.set(0, 0, Resources::new(2.0, -1.0));
        assert_eq!(t.get(0, 0), Resources::new(1.0, 0.0));
    }

    #[test]
    fn rounds_wrap_around() {
        let t = MaterializedTrace::from_fn(1, 4, |_, r| Resources::splat(r as f64 / 10.0));
        assert_eq!(t.get(0, 5), t.get(0, 1));
    }

    #[test]
    fn demand_source_impl_reads_cells() {
        let mut t = MaterializedTrace::from_fn(2, 2, |vm, _| Resources::splat(vm as f64 / 2.0));
        assert_eq!(t.demand(VmId(1), 0), Resources::splat(0.5));
    }

    #[test]
    fn offset_trace_shifts_rounds() {
        let t = MaterializedTrace::from_fn(1, 10, |_, r| Resources::splat(r as f64 / 10.0));
        let mut o = OffsetTrace::new(&t, 3);
        assert_eq!(o.demand(VmId(0), 0), Resources::splat(0.3));
        assert_eq!(o.demand(VmId(0), 6), Resources::splat(0.9));
    }

    #[test]
    fn means_are_correct() {
        let t = MaterializedTrace::from_fn(2, 2, |_, _| Resources::new(0.25, 0.75));
        assert!((t.mean_cpu() - 0.25).abs() < 1e-12);
        assert!((t.mean_mem() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn append_vms_stitches_series() {
        let mut a = MaterializedTrace::from_fn(2, 3, |_, _| Resources::splat(0.1));
        let b = MaterializedTrace::from_fn(1, 3, |_, _| Resources::splat(0.9));
        a.append_vms(&b);
        assert_eq!(a.n_vms(), 3);
        assert_eq!(a.get(0, 0), Resources::splat(0.1));
        assert_eq!(a.get(2, 1), Resources::splat(0.9));
    }

    #[test]
    #[should_panic(expected = "round-count mismatch")]
    fn append_vms_rejects_mismatched_rounds() {
        let mut a = MaterializedTrace::zeroed(1, 3);
        let b = MaterializedTrace::zeroed(1, 4);
        a.append_vms(&b);
    }

    #[test]
    fn autocorr_of_constant_series_is_zero() {
        let t = MaterializedTrace::from_fn(1, 50, |_, _| Resources::splat(0.5));
        assert_eq!(t.cpu_lag1_autocorr(0), 0.0);
    }

    #[test]
    fn autocorr_of_smooth_series_is_high() {
        let t = MaterializedTrace::from_fn(1, 200, |_, r| {
            Resources::splat(0.5 + 0.4 * (r as f64 / 20.0).sin())
        });
        assert!(t.cpu_lag1_autocorr(0) > 0.9);
    }

    mod replay {
        use super::*;
        use crate::google::{GoogleLikeTraceGen, GoogleTraceConfig};
        use glap_cluster::{PmId, VmSpec};
        use proptest::prelude::*;
        use rand::SeedableRng;

        /// The cell-by-cell generation a generated trace must replay:
        /// each VM's cells made in one pass with `VmGen::next`, stored.
        fn reference(
            cfg: GoogleTraceConfig,
            n_vms: usize,
            rounds: usize,
            rng: &mut ChaCha8Rng,
        ) -> MaterializedTrace {
            let model = Model::new(cfg);
            let mut t = MaterializedTrace::zeroed(n_vms, rounds);
            for vm in 0..n_vms {
                let mut gen = VmGen::new(&model, rng);
                for round in 0..rounds {
                    t.set(vm, round, gen.next(&model, rng));
                }
            }
            t
        }

        fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_stream(stream);
            rng
        }

        /// One read: `(vm, kind, amount)`. Kind 0 repeats the VM's last
        /// round, 1 steps it forward by `1 + amount % 4`, 2 jumps to
        /// `amount % (2 · rounds)` — backwards or past the end (wrap).
        fn read() -> impl Strategy<Value = (usize, u8, u16)> {
            (0usize..6, 0u8..3, any::<u16>())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Whatever the access order — forward, repeated, backwards,
            /// wrapped, VMs never read — a generated trace read through
            /// `OffsetTrace`, its own `DemandSource` impl or `get`
            /// yields the reference's cells bit for bit, and generating
            /// leaves the caller's RNG where the reference does.
            #[test]
            fn generated_trace_replays_the_cell_by_cell_reference(
                seed in any::<u64>(),
                shape in (1usize..7, 1usize..300, 0u64..40),
                fractions in (0usize..3, 0usize..3),
                long_day in any::<bool>(),
                reads in proptest::collection::vec(read(), 1..150),
            ) {
                let (n_vms, rounds, offset) = shape;
                let pick = |i: usize, default: f64| [0.0, default, 1.0][i];
                let base = GoogleTraceConfig::default();
                let cfg = GoogleTraceConfig {
                    bursty_fraction: pick(fractions.0, base.bursty_fraction),
                    diurnal_fraction: pick(fractions.1, base.diurnal_fraction),
                    rounds_per_day: if long_day { 720 } else { 100 },
                    ..base
                };
                let (mut a, mut b) = (rng(seed, 2), rng(seed, 2));
                let mut trace = GoogleLikeTraceGen::new(cfg).generate(n_vms, rounds, &mut a);
                let dense = reference(cfg, n_vms, rounds, &mut b);
                prop_assert_eq!(a, b);

                let mut view = OffsetTrace::new(&trace, offset);
                let mut last = vec![0u64; n_vms];
                let mut cells = Vec::with_capacity(reads.len());
                for &(vm, kind, amount) in &reads {
                    let vm = vm % n_vms;
                    let round = match kind {
                        0 => last[vm],
                        1 => last[vm] + 1 + u64::from(amount % 4),
                        _ => u64::from(amount) % (2 * rounds as u64),
                    };
                    last[vm] = round;
                    let want = dense.get(vm, (round + offset) as usize);
                    prop_assert_eq!(view.demand(VmId(vm as u32), round), want, "vm {} round {}", vm, round);
                    cells.push((vm, round + offset, want));
                }
                for &(vm, round, want) in &cells {
                    prop_assert_eq!(trace.demand(VmId(vm as u32), round), want);
                    prop_assert_eq!(trace.get(vm, round as usize), want);
                }
                prop_assert!(trace == dense);
            }
        }

        /// Churn's shape: a base population and an arrival population
        /// with another generator config, appended, play back the cells
        /// of their dense concatenation, read round-major like the
        /// simulator reads them.
        #[test]
        fn appended_generated_traces_replay_their_dense_concatenation() {
            let base = GoogleTraceConfig::default();
            let arrivals = GoogleTraceConfig {
                bursty_fraction: 0.9,
                burst_prob: 0.05,
                diurnal_fraction: 0.0,
                ..base
            };
            let (mut a, mut b) = (rng(5, 2), rng(5, 2));
            let mut trace = GoogleLikeTraceGen::new(base).generate(5, 40, &mut a);
            trace.append_vms(&GoogleLikeTraceGen::new(arrivals).generate(4, 40, &mut a));
            let mut dense = reference(base, 5, 40, &mut b);
            dense.append_vms(&reference(arrivals, 4, 40, &mut b));
            assert_eq!(a, b);
            assert_eq!(trace.n_vms(), 9);
            let mut own = trace.clone();
            let mut view = OffsetTrace::new(&trace, 0);
            for round in 0..45 {
                for vm in 0..9 {
                    let want = dense.get(vm, round);
                    assert_eq!(view.demand(VmId(vm as u32), round as u64), want);
                    assert_eq!(own.demand(VmId(vm as u32), round as u64), want);
                }
            }
            // A dense segment appended after generated ones keeps its cells.
            let tail = MaterializedTrace::from_fn(2, 40, |vm, r| {
                Resources::splat((vm + r) as f64 / 100.0)
            });
            trace.append_vms(&tail);
            assert_eq!(trace.get(10, 7), Resources::splat(0.08));
            assert_eq!(trace.get(3, 7), dense.get(3, 7));
        }

        /// A world of `n` VMs in trace order, every third one unplaced.
        fn world(n: usize) -> Vec<Vm> {
            (0..n)
                .map(|i| {
                    let mut vm = Vm::new(VmId(i as u32), VmSpec::EC2_MICRO, Resources::FULL);
                    vm.host = (i % 3 != 1).then_some(PmId(0));
                    vm
                })
                .collect()
        }

        /// A view that fills whole rounds on a helper thread (`ahead`) or
        /// on the caller, whatever the VM and thread counts.
        fn view(trace: &MaterializedTrace, offset: u64, ahead: bool) -> OffsetTrace<'_> {
            OffsetTrace {
                fill: if ahead {
                    RoundFill::Ahead(Prefetch::start(trace).expect("spawn helper"))
                } else {
                    RoundFill::Serial
                },
                ..OffsetTrace::new(trace, offset)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Whole rounds, prefetched or not, in any order — forward,
            /// repeated, backwards, wrapped, starting anywhere — hold
            /// exactly the cells a second view reads VM by VM, over
            /// generated, dense and appended segments.
            #[test]
            fn fill_round_matches_per_vm_demand(
                seed in any::<u64>(),
                vms in (1usize..5, 0usize..3, 0usize..3),
                rounds in 1usize..40,
                offset in 0u64..60,
                start in 0u64..100,
                steps in proptest::collection::vec((0u8..6, any::<u16>()), 1..40),
            ) {
                let gen = GoogleLikeTraceGen::default_stats();
                let mut r = rng(seed, 2);
                let mut trace = gen.generate(vms.0, rounds, &mut r);
                trace.append_vms(&MaterializedTrace::from_fn(vms.1, rounds, |vm, round| {
                    Resources::splat(((vm * 7 + round) % 10) as f64 / 10.0)
                }));
                trace.append_vms(&gen.generate(vms.2, rounds, &mut r));
                let world = world(trace.n_vms());
                let mut out = vec![Resources::ZERO; world.len()];
                let mut reference = OffsetTrace::new(&trace, offset);
                for ahead in [false, true] {
                    let mut filled = view(&trace, offset, ahead);
                    let mut round = start;
                    for &(kind, amount) in &steps {
                        filled.fill_round(round, &world, &mut out);
                        for (vm, &cell) in out.iter().enumerate() {
                            let want = reference.demand(VmId(vm as u32), round);
                            prop_assert_eq!(cell, want, "ahead {} vm {} round {}", ahead, vm, round);
                        }
                        round = match kind {
                            0 => round,
                            1 => u64::from(amount) % (2 * rounds as u64),
                            2 => round + rounds as u64,
                            _ => round + 1,
                        };
                    }
                }
            }
        }

        /// Dropping a view whose helper is making the next round joins
        /// the helper: its share of the trace's segments is gone.
        #[test]
        fn dropping_a_prefetching_view_mid_day_joins_its_helper() {
            let trace = GoogleLikeTraceGen::default_stats().generate(50, 30, &mut rng(3, 2));
            let world = world(50);
            let mut out = vec![Resources::ZERO; 50];
            let mut day = view(&trace, 5, true);
            for round in 0..4 {
                day.fill_round(round, &world, &mut out);
            }
            assert_eq!(Arc::strong_count(&trace.segments), 2);
            drop(day);
            assert_eq!(Arc::strong_count(&trace.segments), 1);
        }

        /// A view read from a pool worker (a grid cell) fills on the
        /// caller even when the world is big enough to prefetch.
        #[test]
        fn a_view_on_a_pool_worker_fills_serially() {
            let n = PREFETCH_MIN_VMS;
            let trace = GoogleLikeTraceGen::default_stats().generate(n, 4, &mut rng(5, 2));
            let world = world(n);
            let serial = glap_par::parallel_map(vec![(); 2], Some(2), |_| {
                let mut day = OffsetTrace::new(&trace, 1);
                day.fill_round(0, &world, &mut vec![Resources::ZERO; n]);
                matches!(day.fill, RoundFill::Serial)
            });
            assert_eq!(serial, [true, true]);
        }

        /// A panic on the helper thread surfaces on the caller with the
        /// helper's own payload.
        #[test]
        fn a_helper_panic_is_raised_on_the_caller() {
            let trace = GoogleLikeTraceGen::default_stats().generate(4, 10, &mut rng(3, 2));
            let mut prefetch = Prefetch::start(&trace).expect("spawn helper");
            // VM 4 is beyond the trace.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                prefetch.fill(0, &mut [Resources::ZERO; 5])
            }));
            let payload = caught.expect_err("the helper's panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("vm < self.n_vms") || message.contains("index out of bounds"),
                "unexpected payload {message:?}"
            );
        }

        /// A trace of three generated, dense and generated segments over
        /// `n` VMs in all.
        fn stitched(seed: u64, n: usize, rounds: usize) -> MaterializedTrace {
            let gen = GoogleLikeTraceGen::default_stats();
            let mut r = rng(seed, 2);
            let (a, b) = (n / 2, n / 5);
            let mut trace = gen.generate(a, rounds, &mut r);
            trace.append_vms(&MaterializedTrace::from_fn(b, rounds, |vm, round| {
                Resources::splat(((vm * 7 + round) % 10) as f64 / 10.0)
            }));
            trace.append_vms(&gen.generate(n - a - b, rounds, &mut r));
            trace
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Whole rounds over at least three chunks with a partial
            /// last one, in any order and for a world that grows over
            /// the day, hold the cells a serial view makes: whichever
            /// thread claims a chunk, the bytes are the same.
            #[test]
            fn shared_chunks_match_the_serial_fill(
                seed in any::<u64>(),
                chunks in 2usize..6,
                tail in 1usize..CHUNK_VMS,
                rounds in 1usize..30,
                offset in 0u64..40,
                steps in proptest::collection::vec((0u8..7, any::<u16>()), 1..40),
            ) {
                let n = chunks * CHUNK_VMS + tail;
                let trace = stitched(seed, n, rounds);
                let all = world(n);
                let mut serial = view(&trace, offset, false);
                let mut shared = view(&trace, offset, true);
                let (mut want, mut got) = (vec![Resources::ZERO; n], vec![Resources::ZERO; n]);
                let (mut round, mut placed) = (0u64, n - tail - CHUNK_VMS / 2);
                for &(kind, amount) in &steps {
                    let vms = &all[..placed];
                    serial.fill_round(round, vms, &mut want[..placed]);
                    shared.fill_round(round, vms, &mut got[..placed]);
                    prop_assert_eq!(&got[..placed], &want[..placed], "round {} of {} VMs", round, placed);
                    round = match kind {
                        0 => round,
                        1 => u64::from(amount) % (2 * rounds as u64),
                        2 => {
                            placed = (placed + usize::from(amount) % 40).min(n);
                            round + 1
                        }
                        _ => round + 1,
                    };
                }
            }
        }

        /// The caller claims every chunk of a round before the helper is
        /// asked for it; the helper finds nothing left and the round, and
        /// the ones after it, still hold the serial view's cells.
        #[test]
        fn a_round_the_caller_made_alone_matches_the_serial_fill() {
            let n = 3 * CHUNK_VMS + 5;
            let trace = stitched(9, n, 20);
            let mut serial = Cursors::default();
            let mut prefetch = Prefetch::start(&trace).expect("spawn helper");
            let (mut want, mut got) = (vec![Resources::ZERO; n], vec![Resources::ZERO; n]);
            prefetch.board.work((7, n)).expect("no poisoned chunk");
            prefetch.ask((7, n));
            for round in 7..12 {
                prefetch.fill(round, &mut got);
                serial.fill(&trace, round, &mut want);
                assert_eq!(got, want, "round {round}");
            }
        }

        /// The helper panics in a chunk after the first, poisoning its
        /// lock; the caller gets the helper's own payload, not a
        /// `PoisonError`.
        #[test]
        fn a_helper_panic_in_a_later_chunk_reaches_the_caller() {
            let n = 2 * CHUNK_VMS + 10;
            let trace = GoogleLikeTraceGen::default_stats().generate(n, 10, &mut rng(4, 2));
            let mut prefetch = Prefetch::start(&trace).expect("spawn helper");
            // VM `n` is beyond the trace; the caller claims nothing until
            // the helper is gone.
            prefetch.ask((0, n + 1));
            let helper = prefetch.helper.as_ref().expect("helper running");
            while !helper.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert!(prefetch.board.chunks[2].is_poisoned());
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                prefetch.fill(0, &mut vec![Resources::ZERO; n + 1])
            }));
            let payload = caught.expect_err("the helper's panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("vm < self.n_vms") || message.contains("index out of bounds"),
                "unexpected payload {message:?}"
            );
        }

        #[test]
        #[should_panic(expected = "generated trace")]
        fn set_refuses_generated_cells() {
            let mut t = GoogleLikeTraceGen::default_stats().generate(2, 3, &mut rng(1, 0));
            t.set(1, 0, Resources::ZERO);
        }
    }
}
