//! The shared morsel queue behind work-stealing parallel scans.
//!
//! A parallel scan splits its source index into many small disjoint
//! chunks ("morsels", HyPer-style) via [`stir_der::IndexAdapter::morsels`]
//! and hands them to a [`MorselQueue`]. Each worker thread holds a
//! [`WorkerHandle`] and repeatedly pulls tuple batches: it first drains
//! the contiguous slot range it was seeded with (preserving locality and,
//! on uniform data, matching the old static partitioning), then *steals*
//! unclaimed morsels from other workers' ranges. The queue is lightly
//! locked — claiming is an atomic cursor bump per worker range, and each
//! slot's chunk iterator sits behind its own (uncontended) mutex that is
//! taken exactly once, by the claimant.
//!
//! Adapters that cannot chunk (the legacy comparator index, a disk
//! index's ranges) yield a single [`Morsels::Stream`]; the queue then
//! serves size-bounded batches out of one shared iterator, so those scans
//! still parallelize (the body work dominates the serialized `fill`)
//! without materializing per-partition copies.
//!
//! Determinism: morsels are disjoint and cover the scanned range exactly,
//! so the multiset of tuples delivered across all workers is independent
//! of the schedule. Everything order-sensitive (dedup, insert counting,
//! provenance annotation) happens coordinator-side after the join, which
//! is what keeps results and profiles invariant under the job count and
//! the morsel size.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use stir_der::iter::TupleIter;
use stir_der::Morsels;

/// Per-worker scheduling statistics for one parallel scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Morsels (chunks, or stream batches) this worker claimed.
    pub morsels: u64,
    /// Morsels claimed outside the worker's own slot range.
    pub steals: u64,
    /// Outer tuples this worker pulled from the queue.
    pub tuples: u64,
    /// Loop iterations the worker's whole frame performed (outer tuples
    /// plus inner joins/probes), when profiling was on; `0` otherwise.
    /// This is the balance metric EXPERIMENTS E12 reports — outer-tuple
    /// counts alone miss join-work skew.
    pub work: u64,
}

impl WorkerStats {
    /// Folds another stats record into this one.
    pub fn absorb(&mut self, other: &WorkerStats) {
        self.morsels += other.morsels;
        self.steals += other.steals;
        self.tuples += other.tuples;
        self.work += other.work;
    }
}

/// Aggregated parallel-execution telemetry for a whole evaluation,
/// accumulated across every parallel scan the interpreter ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelReport {
    /// Rule evaluations that fanned out to workers.
    pub scans: u64,
    /// Rule evaluations whose first marked scan stayed on the coordinator
    /// because the scanned range fit in a single morsel.
    pub small_scans: u64,
    /// Coordinator microseconds spent after the joins deduplicating and
    /// merging worker sinks — the part more workers cannot shrink. Only
    /// clocked when a profile, trace or metrics observer is attached.
    pub merge_us: u64,
    /// Per-worker statistics, indexed by worker id (`len == jobs`).
    pub workers: Vec<WorkerStats>,
}

impl ParallelReport {
    /// Total morsels claimed across all workers.
    pub fn morsels(&self) -> u64 {
        self.workers.iter().map(|w| w.morsels).sum()
    }

    /// Total stolen morsels across all workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total tuples pulled from morsel queues across all workers.
    pub fn tuples(&self) -> u64 {
        self.workers.iter().map(|w| w.tuples).sum()
    }
}

/// One morsel slot: the chunk iterator, taken exactly once by whichever
/// worker claims the slot.
type Slot<'a> = Mutex<Option<Box<dyn TupleIter + Send + 'a>>>;

enum Source<'a> {
    /// Structurally chunked index: slots are pre-assigned to contiguous
    /// per-worker ranges; claiming bumps an atomic cursor.
    Chunks {
        slots: Vec<Slot<'a>>,
        /// `cursors[w]` is the next unclaimed slot of worker `w`'s range.
        cursors: Vec<AtomicUsize>,
        /// `ranges[w] = (start, end)` of worker `w`'s slots.
        ranges: Vec<(usize, usize)>,
    },
    /// Unchunkable index: one shared iterator; batches are cut off it
    /// under a mutex.
    Stream(Mutex<Box<dyn TupleIter + Send + 'a>>),
}

/// The shared queue workers drain and steal from until empty.
pub struct MorselQueue<'a> {
    source: Source<'a>,
    workers: usize,
    /// Target tuples per batch handed to a worker.
    target: usize,
    /// Set when any worker hits an evaluation error; everyone else stops
    /// at their next batch request.
    poisoned: AtomicBool,
}

impl std::fmt::Debug for MorselQueue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.source {
            Source::Chunks { slots, .. } => format!("Chunks({})", slots.len()),
            Source::Stream(_) => "Stream".to_string(),
        };
        f.debug_struct("MorselQueue")
            .field("source", &kind)
            .field("workers", &self.workers)
            .field("target", &self.target)
            .finish()
    }
}

impl<'a> MorselQueue<'a> {
    /// Builds a queue over an index's morsels for `workers` threads with
    /// `target` tuples per batch.
    pub fn new(morsels: Morsels<'a>, workers: usize, target: usize) -> Self {
        let workers = workers.max(1);
        let target = target.max(1);
        let source = match morsels {
            Morsels::Chunks(chunks) => {
                let n = chunks.len();
                let slots: Vec<Slot<'a>> =
                    chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
                // Contiguous ranges, remainder spread over the first
                // workers — the same split the old static partitioner
                // used, so the no-steal schedule preserves locality.
                let base = n / workers;
                let extra = n % workers;
                let mut ranges = Vec::with_capacity(workers);
                let mut start = 0;
                for w in 0..workers {
                    let len = base + usize::from(w < extra);
                    ranges.push((start, start + len));
                    start += len;
                }
                let cursors = ranges.iter().map(|&(s, _)| AtomicUsize::new(s)).collect();
                Source::Chunks {
                    slots,
                    cursors,
                    ranges,
                }
            }
            Morsels::Stream(it) => Source::Stream(Mutex::new(it)),
        };
        MorselQueue {
            source,
            workers,
            target,
            poisoned: AtomicBool::new(false),
        }
    }

    /// A handle for worker `id` (`0 <= id < workers`).
    pub fn worker(&self, id: usize) -> WorkerHandle<'_, 'a> {
        debug_assert!(id < self.workers);
        WorkerHandle {
            queue: self,
            id,
            current: None,
            stats: WorkerStats::default(),
        }
    }

    /// Marks the queue dead; subsequent `next_batch` calls return `0`.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Claims an unclaimed chunk for `worker`, preferring its own range,
    /// then scanning victims round-robin. Returns the chunk and whether
    /// it was stolen.
    fn claim(&self, worker: usize) -> Option<(Box<dyn TupleIter + Send + 'a>, bool)> {
        let Source::Chunks {
            slots,
            cursors,
            ranges,
        } = &self.source
        else {
            return None;
        };
        for k in 0..self.workers {
            let v = (worker + k) % self.workers;
            let end = ranges[v].1;
            // The cursor only moves forward; a stale read just means a
            // wasted fetch_add past `end`, which is harmless (bounded by
            // one per drained victim per `next_batch` call).
            let i = cursors[v].fetch_add(1, Ordering::Relaxed);
            if i < end {
                let chunk = slots[i]
                    .lock()
                    .expect("morsel slot lock")
                    .take()
                    .expect("slot claimed exactly once");
                return Some((chunk, k != 0));
            }
        }
        None
    }
}

/// One worker's view of the queue: the chunk it is currently draining
/// plus its scheduling statistics.
pub struct WorkerHandle<'q, 'a> {
    queue: &'q MorselQueue<'a>,
    id: usize,
    current: Option<Box<dyn TupleIter + Send + 'a>>,
    stats: WorkerStats,
}

impl std::fmt::Debug for WorkerHandle<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHandle")
            .field("id", &self.id)
            .field("stats", &self.stats)
            .finish()
    }
}

impl WorkerHandle<'_, '_> {
    /// Fills `out` (cleared first) with up to the queue's target number
    /// of tuples, flattened. Returns the tuple count; `0` means the queue
    /// is drained (or poisoned) and the worker should stop.
    pub fn next_batch(&mut self, out: &mut Vec<u32>) -> usize {
        out.clear();
        let target = self.queue.target;
        loop {
            if self.queue.poisoned.load(Ordering::Relaxed) {
                return 0;
            }
            match &self.queue.source {
                Source::Stream(shared) => {
                    let n = shared.lock().expect("stream lock").fill(out, target);
                    if n > 0 {
                        self.stats.morsels += 1;
                        self.stats.tuples += n as u64;
                    }
                    return n;
                }
                Source::Chunks { .. } => {
                    if self.current.is_none() {
                        match self.queue.claim(self.id) {
                            Some((chunk, stolen)) => {
                                self.stats.morsels += 1;
                                self.stats.steals += u64::from(stolen);
                                self.current = Some(chunk);
                            }
                            None => return 0,
                        }
                    }
                    let it = self.current.as_mut().expect("chunk present");
                    let n = it.fill(out, target);
                    if n < target {
                        self.current = None;
                    }
                    if n > 0 {
                        self.stats.tuples += n as u64;
                        return n;
                    }
                    // Empty chunk: claim the next one.
                }
            }
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> WorkerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stir_der::iter::VecTupleIter;

    fn chunked(chunks: &[&[u32]]) -> Morsels<'static> {
        Morsels::Chunks(
            chunks
                .iter()
                .map(|c| Box::new(VecTupleIter::new(c.to_vec(), 1)) as Box<dyn TupleIter + Send>)
                .collect(),
        )
    }

    fn drain_all(queue: &MorselQueue<'_>, workers: usize) -> (Vec<u32>, Vec<WorkerStats>) {
        let mut seen = Vec::new();
        let mut stats = Vec::new();
        let mut handles: Vec<_> = (0..workers).map(|w| queue.worker(w)).collect();
        let mut batch = Vec::new();
        let mut live = true;
        while live {
            live = false;
            for h in &mut handles {
                if h.next_batch(&mut batch) > 0 {
                    seen.extend_from_slice(&batch);
                    live = true;
                }
            }
        }
        for h in handles {
            stats.push(h.stats());
        }
        (seen, stats)
    }

    #[test]
    fn chunked_queue_delivers_every_tuple_once() {
        let m = chunked(&[&[1, 2, 3], &[4, 5], &[], &[6], &[7, 8, 9, 10]]);
        let queue = MorselQueue::new(m, 3, 2);
        let (mut seen, stats) = drain_all(&queue, 3);
        seen.sort_unstable();
        assert_eq!(seen, (1..=10).collect::<Vec<_>>());
        let total: u64 = stats.iter().map(|s| s.tuples).sum();
        assert_eq!(total, 10);
        let morsels: u64 = stats.iter().map(|s| s.morsels).sum();
        assert_eq!(morsels, 5);
    }

    #[test]
    fn lone_survivor_steals_everything() {
        // Worker 1 never shows up; worker 0 must steal worker 1's range.
        let m = chunked(&[&[1], &[2], &[3], &[4]]);
        let queue = MorselQueue::new(m, 2, 8);
        let mut h = queue.worker(0);
        let mut batch = Vec::new();
        let mut seen = Vec::new();
        while h.next_batch(&mut batch) > 0 {
            seen.extend_from_slice(&batch);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(h.stats().morsels, 4);
        assert!(h.stats().steals >= 2, "stole the other range");
    }

    #[test]
    fn stream_queue_batches_without_stealing() {
        let m = Morsels::Stream(Box::new(VecTupleIter::new((0..20).collect(), 2)));
        let queue = MorselQueue::new(m, 4, 3);
        let (mut seen, stats) = drain_all(&queue, 4);
        // Pairs stay intact even though 3 does not divide the batch count.
        assert_eq!(seen.len(), 20);
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert_eq!(stats.iter().map(|s| s.steals).sum::<u64>(), 0);
    }

    #[test]
    fn poisoned_queue_stops_serving() {
        let m = chunked(&[&[1], &[2], &[3]]);
        let queue = MorselQueue::new(m, 1, 1);
        let mut h = queue.worker(0);
        let mut batch = Vec::new();
        assert_eq!(h.next_batch(&mut batch), 1);
        queue.poison();
        assert_eq!(h.next_batch(&mut batch), 0);
    }

    #[test]
    fn more_workers_than_chunks_is_fine() {
        let m = chunked(&[&[42]]);
        let queue = MorselQueue::new(m, 8, 4);
        let (seen, stats) = drain_all(&queue, 8);
        assert_eq!(seen, vec![42]);
        assert_eq!(stats.iter().map(|s| s.tuples).sum::<u64>(), 1);
    }

    #[test]
    fn worker_stats_absorb_adds() {
        let mut a = WorkerStats {
            morsels: 1,
            steals: 2,
            tuples: 3,
            work: 4,
        };
        a.absorb(&WorkerStats {
            morsels: 10,
            steals: 20,
            tuples: 30,
            work: 40,
        });
        assert_eq!(
            a,
            WorkerStats {
                morsels: 11,
                steals: 22,
                tuples: 33,
                work: 44,
            }
        );
    }

    #[test]
    fn report_totals_sum_over_workers() {
        let mut r = ParallelReport::default();
        r.workers.push(WorkerStats {
            morsels: 2,
            steals: 1,
            tuples: 5,
            work: 9,
        });
        r.workers.push(WorkerStats {
            morsels: 3,
            steals: 0,
            tuples: 7,
            work: 11,
        });
        assert_eq!(r.morsels(), 5);
        assert_eq!(r.steals(), 1);
        assert_eq!(r.tuples(), 12);
    }
}
