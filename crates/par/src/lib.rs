//! A small scoped worker pool shared by the trainer and the experiment
//! grid (its original home was `glap-experiments`; it moved here so
//! `glap` core can parallelize the learning phase without a dependency
//! cycle).
//!
//! Individual simulation runs are deterministic by construction, so
//! parallelism never changes results — only wall-clock. Two primitives:
//!
//! * [`parallel_map`] — embarrassingly parallel fan-out over owned
//!   items, output in input order (scenario grids);
//! * [`parallel_for_each`] — in-place mutation of disjoint slice
//!   elements (the per-PM learning round, where each task owns its own
//!   Q-table, RNG and scratch).
//!
//! Both run one scheduling loop: every worker, the caller included,
//! claims contiguous chunks (~4 per worker) from one shared queue, a
//! `Mutex` over the slice's `chunks_mut` iterator. Each chunk is a
//! disjoint `&mut` sub-slice, so skewed work spreads over the workers
//! without a lock per item. `parallel_map` runs that loop over output
//! slots. Worker panics are joined explicitly and re-raised on the
//! caller with their original payload, so a failing scenario can never
//! silently vanish from the result set.
//!
//! Thread-count resolution ([`resolve_threads`]) has one precedence
//! order everywhere: an explicit request, then the process-wide default
//! installed by the `--threads` CLI flag ([`set_default_threads`]), then
//! the `GLAP_THREADS` environment variable, then the machine's available
//! parallelism. [`in_worker`] tells code whether it runs on a pool
//! worker, whose siblings already claim the other cores. Built on
//! `std::thread` only — the approved dependency list has no concurrency
//! crates.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-worker execution stats from one [`parallel_for_each_timed`]
/// pool run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTiming {
    /// Wall time this worker spent inside `f`, nanoseconds.
    pub busy_ns: u64,
    /// Items this worker processed.
    pub items: u64,
}

/// Pool-level timing from one [`parallel_for_each_timed`] run: the
/// pool's wall time plus each worker's busy split. `wall_ns -
/// busy_ns` per worker is idle (spawn/join skew and the wait for the
/// last claimed chunk).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolTiming {
    /// Wall time of the whole pool run, nanoseconds.
    pub wall_ns: u64,
    /// One entry per worker: the caller's first, then each spawned
    /// worker's (a single entry on the sequential path).
    pub workers: Vec<WorkerTiming>,
}

/// Process-wide default worker count; 0 means "not set".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide default worker count, used whenever a call
/// site passes `threads = None`. The CLI layer calls this once when
/// `--threads` is given, so every pool in the process — scenario grid
/// and in-training — honors the flag. Passing 0 clears the default.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Resolves a worker count: explicit request, else the process default
/// ([`set_default_threads`]), else `GLAP_THREADS`, else the machine's
/// available parallelism. Always at least 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    let d = DEFAULT_THREADS.load(Ordering::Relaxed);
    if d > 0 {
        return d;
    }
    if let Ok(s) = std::env::var("GLAP_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

thread_local! {
    /// Set on every worker of a multi-worker pool while it works.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a worker of a multi-worker
/// [`parallel_map`] or [`parallel_for_each`] pool — a spawned one, or
/// the caller while it runs its own share. Such a pool already runs up
/// to [`resolve_threads`] workers, so a helper thread started from one
/// competes with its siblings for cores. A pool that runs on its caller
/// alone (one worker) does not mark it.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the thread as a pool worker until dropped, then restores the
/// mark it had (also when the worker's share unwinds).
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> Self {
        WorkerMark(IN_WORKER.replace(true))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.set(self.0);
    }
}

/// Chunk size for `n` items over `threads` workers: ~4 chunks per
/// worker balances skewed work against queue contention.
fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * 4).max(1)
}

/// Maps `f` over `items` using up to `threads` workers (resolved via
/// [`resolve_threads`] when `None`), preserving input order in the
/// output. A worker panic is re-raised on the caller with its original
/// payload once every other worker has drained.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: Option<usize>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<(&T, Option<R>)> = items.iter().map(|item| (item, None)).collect();
    parallel_for_each(&mut slots, threads, |(item, out)| *out = Some(f(item)));
    slots
        .into_iter()
        .map(|(_, out)| out.expect("every slot is claimed once"))
        .collect()
}

/// Runs `f` on every element of `items` in place, the workers claiming
/// chunks from one shared queue. Panics are re-raised like in
/// [`parallel_map`].
pub fn parallel_for_each<T, F>(items: &mut [T], threads: Option<usize>, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let _ = parallel_for_each_timed(items, threads, f);
}

/// [`parallel_for_each`] that also reports pool wall time and each
/// worker's busy time — the profiler's per-worker busy/idle split.
/// Same schedule, same panic semantics; the only addition is two
/// monotonic clock reads per worker, so the untimed wrapper simply
/// discards the result.
///
/// The caller is one of the `threads` workers, so a call spawns
/// `threads − 1` threads. Which worker runs an item is up to the
/// queue; each item's effects are its own, so that never shows.
pub fn parallel_for_each_timed<T, F>(items: &mut [T], threads: Option<usize>, f: F) -> PoolTiming
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return PoolTiming::default();
    }
    let wall0 = Instant::now();
    let threads = resolve_threads(threads).clamp(1, n);
    let queue = Mutex::new(items.chunks_mut(chunk_size(n, threads)));
    let work = || {
        let t0 = Instant::now();
        let mut items = 0;
        // The lock is held only while taking the next chunk, which
        // cannot panic, so it is never poisoned.
        let claim = || queue.lock().expect("queue lock").next();
        while let Some(part) = claim() {
            items += part.len() as u64;
            part.iter_mut().for_each(&f);
        }
        WorkerTiming {
            busy_ns: t0.elapsed().as_nanos() as u64,
            items,
        }
    };
    if threads == 1 {
        let only = work();
        return PoolTiming {
            wall_ns: only.busy_ns,
            workers: vec![only],
        };
    }

    let workers = std::thread::scope(|scope| {
        let work = &work;
        let spawned: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(move || {
                    let _mark = WorkerMark::set();
                    work()
                })
            })
            .collect();
        // A panic here unwinds out of the scope, which joins the
        // spawned workers first and then re-raises this payload.
        let own = {
            let _mark = WorkerMark::set();
            work()
        };
        let mut workers = vec![own];
        for h in spawned {
            match h.join() {
                Ok(timing) => workers.push(timing),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        workers
    });
    PoolTiming {
        wall_ns: wall0.elapsed().as_nanos() as u64,
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items.clone(), Some(4), |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(vec![1, 2, 3], Some(1), |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), None, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![7], Some(16), |&x| x);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn single_item_many_threads() {
        let out = parallel_map(vec![String::from("only")], Some(32), |s| s.len());
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn order_preserved_under_many_threads_with_skewed_work() {
        // Early items sleep longest, so late items finish first; the
        // output must still come back in input order.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(items.clone(), Some(16), |&x| {
            std::thread::sleep(std::time::Duration::from_micros((64 - x) * 50));
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn results_match_sequential_regardless_of_threads() {
        let items: Vec<u64> = (0..50).collect();
        let seq = parallel_map(items.clone(), Some(1), |&x| x * x % 97);
        let par = parallel_map(items, Some(8), |&x| x * x % 97);
        assert_eq!(seq, par);
    }

    #[test]
    fn default_thread_count_runs_everything() {
        let out = parallel_map((0..10).collect::<Vec<i32>>(), None, |&x| x - 1);
        assert_eq!(out, (-1..9).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..32).collect::<Vec<i32>>(), Some(4), |&x| {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x
            })
        })
        .expect_err("the worker panic must reach the caller");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is the formatted message");
        assert_eq!(msg, "boom at 17");
    }

    #[test]
    fn for_each_mutates_every_element() {
        let mut items: Vec<u64> = (0..100).collect();
        parallel_for_each(&mut items, Some(4), |x| *x *= 2);
        assert_eq!(items, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_handles_empty_and_oversubscription() {
        let mut empty: Vec<u8> = Vec::new();
        parallel_for_each(&mut empty, Some(8), |_| unreachable!());
        let mut one = vec![41];
        parallel_for_each(&mut one, Some(16), |x| *x += 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn for_each_panic_propagates() {
        let mut items: Vec<i32> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_each(&mut items, Some(4), |&mut x| {
                if x == 3 {
                    panic!("for-each boom");
                }
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn resolve_threads_precedence() {
        // One sequential test owns the global default and the env var
        // (mutating them from parallel tests would race).
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "explicit 0 clamps to 1");

        set_default_threads(5);
        assert_eq!(resolve_threads(None), 5);
        assert_eq!(resolve_threads(Some(2)), 2, "explicit beats default");

        set_default_threads(0);
        std::env::set_var("GLAP_THREADS", "7");
        assert_eq!(resolve_threads(None), 7);
        set_default_threads(4);
        assert_eq!(resolve_threads(None), 4, "default beats env");
        set_default_threads(0);
        std::env::set_var("GLAP_THREADS", "not-a-number");
        assert!(resolve_threads(None) >= 1, "bad env falls through");
        std::env::remove_var("GLAP_THREADS");
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn timed_for_each_reports_all_workers_and_items() {
        for threads in [2usize, 3, 4, 8] {
            let n = 97;
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let mut items: Vec<usize> = (0..n).collect();
            let timing = parallel_for_each_timed(&mut items, Some(threads), |&mut i| {
                // Skewed work: the first items take longest.
                if i < 8 {
                    std::thread::sleep(std::time::Duration::from_micros(400));
                }
                runs[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                "threads={threads}: every item runs exactly once"
            );
            assert_eq!(timing.workers.len(), threads);
            assert_eq!(
                timing.workers.iter().map(|w| w.items).sum::<u64>(),
                n as u64
            );
            for w in &timing.workers {
                assert!(w.busy_ns <= timing.wall_ns, "threads={threads}");
            }
        }
    }

    #[test]
    fn timed_for_each_sequential_path_has_one_worker() {
        let mut items = vec![1u8, 2, 3];
        let timing = parallel_for_each_timed(&mut items, Some(1), |x| *x *= 2);
        assert_eq!(items, vec![2, 4, 6]);
        assert_eq!(timing.workers.len(), 1);
        assert_eq!(timing.workers[0].items, 3);
        assert_eq!(timing.workers[0].busy_ns, timing.wall_ns);
        assert_eq!(
            parallel_for_each_timed(&mut Vec::<u8>::new(), None, |_| {}),
            PoolTiming::default()
        );
    }

    #[test]
    fn multi_worker_pools_mark_every_worker() {
        assert!(!in_worker());
        assert_eq!(
            parallel_map(vec![0; 4], Some(1), |_| in_worker()),
            [false; 4]
        );
        assert_eq!(
            parallel_map(vec![0; 4], Some(2), |_| in_worker()),
            [true; 4]
        );
        let mut seen = [false; 4];
        parallel_for_each(&mut seen, Some(2), |s| *s = in_worker());
        assert_eq!(seen, [true; 4]);
        assert!(!in_worker());
    }

    /// An item body for a pool called from this thread: the caller's
    /// items run `on_caller`, the spawned workers' run `on_spawned`, and
    /// each spawned worker holds its first item until the caller has
    /// started one, so the caller's share is never empty. (A pool whose
    /// caller never works releases them after ten seconds, so the
    /// test's assertions fail instead of hanging.)
    fn caller_first(on_caller: impl Fn() + Sync, on_spawned: impl Fn() + Sync) -> impl Fn() + Sync {
        let caller = std::thread::current().id();
        let started = AtomicBool::new(false);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        move || {
            if std::thread::current().id() == caller {
                started.store(true, Ordering::SeqCst);
                on_caller();
            } else {
                while !started.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                on_spawned();
            }
        }
    }

    /// Items run on the calling thread see `in_worker()`, and the mark
    /// the caller had before the call is back afterwards, also when its
    /// share panics.
    #[test]
    fn the_caller_is_marked_during_its_share_and_restored_after() {
        let marked_on_caller = AtomicUsize::new(0);
        let body = caller_first(
            || {
                assert!(in_worker());
                marked_on_caller.fetch_add(1, Ordering::Relaxed);
            },
            || assert!(in_worker()),
        );
        parallel_for_each(&mut [(); 64], Some(2), |_| body());
        assert!(marked_on_caller.load(Ordering::Relaxed) > 0);
        assert!(!in_worker());

        let body = caller_first(|| panic!("caller share"), || {});
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_each(&mut [(); 64], Some(3), |_| body())
        }));
        assert!(caught.is_err());
        assert!(!in_worker(), "restored after the caller's panic");

        // A nested call on a worker leaves the worker marked.
        let outer = parallel_map(vec![(); 2], Some(2), |_| {
            parallel_for_each(&mut [0u8; 8], Some(2), |_| {});
            in_worker()
        });
        assert_eq!(outer, [true, true]);
    }

    /// A panic in the caller's own share reaches the caller with its
    /// payload, and only after the spawned workers have run every item
    /// the caller did not claim.
    #[test]
    fn a_caller_panic_is_raised_after_the_workers_drain() {
        let n = 64;
        let done = AtomicUsize::new(0);
        let body = caller_first(
            || panic!("caller boom"),
            || {
                done.fetch_add(1, Ordering::SeqCst);
            },
        );
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_each(&mut vec![(); n], Some(2), |_| body())
        }))
        .expect_err("the caller's panic must surface");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"caller boom"));
        // The caller stopped at the first item of its one chunk; the
        // spawned worker drained every other chunk before the re-raise.
        assert_eq!(done.load(Ordering::SeqCst), n - chunk_size(n, 2));
    }

    #[test]
    fn chunking_covers_every_index_exactly_once() {
        for n in [1usize, 2, 3, 5, 17, 64, 1000] {
            for threads in [2usize, 3, 8] {
                let out = parallel_map((0..n).collect(), Some(threads), |&i| i);
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
            }
        }
    }
}
