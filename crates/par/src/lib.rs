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
//! Workers claim contiguous chunks from a shared atomic cursor — one
//! `fetch_add` per chunk instead of per item, and no per-slot locks.
//! Worker panics are joined explicitly and re-raised on the caller with
//! their original payload, so a failing scenario can never silently
//! vanish from the result set.
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
/// busy_ns` per worker is idle (spawn/join skew and load imbalance).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolTiming {
    /// Wall time of the whole pool run, nanoseconds.
    pub wall_ns: u64,
    /// One entry per worker, in chunk order (a single entry on the
    /// sequential path).
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
    /// Set on the threads a multi-worker pool spawns, for their lifetime.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a worker of a multi-worker
/// [`parallel_map`] or [`parallel_for_each`] pool. Such a pool already
/// runs up to [`resolve_threads`] workers, so a helper thread started
/// from one competes with its siblings for cores. A pool that runs on
/// its caller (one worker) does not mark it.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Chunk size for `n` items over `threads` workers: ~4 chunks per
/// worker balances skewed work against cursor contention.
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
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = resolve_threads(threads).clamp(1, n);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }

    let chunk = chunk_size(n, threads);
    let next = AtomicUsize::new(0);
    let f = &f;
    let items = &items;
    let mut pieces: Vec<(usize, Vec<R>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        local.push((start, items[start..end].iter().map(f).collect()));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => pieces.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    pieces.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut piece) in pieces {
        out.append(&mut piece);
    }
    out
}

/// Runs `f` on every element of `items` in place, partitioning the
/// slice statically into one contiguous chunk per worker. Panics are
/// re-raised like in [`parallel_map`].
///
/// The static split (rather than the cursor) keeps the borrow story
/// trivial — each worker owns one `&mut` sub-slice — which is exactly
/// what the per-PM training round needs: element `i` bundles PM `i`'s
/// table, RNG and scratch, and no worker ever touches another's.
pub fn parallel_for_each<T, F>(items: &mut [T], threads: Option<usize>, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let _ = parallel_for_each_timed(items, threads, f);
}

/// [`parallel_for_each`] that also reports pool wall time and each
/// worker's busy time — the profiler's per-worker busy/idle split.
/// Same chunking, same execution order, same panic semantics; the only
/// addition is two monotonic clock reads per worker, so the untimed
/// wrapper simply discards the result.
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
    if threads == 1 {
        for item in items {
            f(item);
        }
        let busy = wall0.elapsed().as_nanos() as u64;
        return PoolTiming {
            wall_ns: busy,
            workers: vec![WorkerTiming {
                busy_ns: busy,
                items: n as u64,
            }],
        };
    }

    let chunk = n.div_ceil(threads);
    let f = &f;
    let mut workers = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let t0 = Instant::now();
                    let items = part.len() as u64;
                    for item in part {
                        f(item);
                    }
                    WorkerTiming {
                        busy_ns: t0.elapsed().as_nanos() as u64,
                        items,
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(timing) => workers.push(timing),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    PoolTiming {
        wall_ns: wall0.elapsed().as_nanos() as u64,
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut items: Vec<u64> = (0..100).collect();
        let timing = parallel_for_each_timed(&mut items, Some(4), |x| *x += 1);
        assert_eq!(items, (1..101).collect::<Vec<_>>());
        assert_eq!(timing.workers.len(), 4);
        assert_eq!(timing.workers.iter().map(|w| w.items).sum::<u64>(), 100);
        for w in &timing.workers {
            assert!(w.busy_ns <= timing.wall_ns);
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
    fn only_spawned_workers_are_marked() {
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
