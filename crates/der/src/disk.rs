//! Disk-backed sets: an immutable paged base run plus a delta overlay.
//!
//! This is the storage de-specialization step: disk is one more
//! representation. A [`DiskSet`] implements the same stored-order
//! [`TupleSet`] face as the in-memory sets, so the disk adapter is the
//! one generic [`SetIndex`] ([`DiskIndex`]) and the interpreter's
//! statically dispatched handlers run on it like on any other set. A
//! [`DiskSet`] is the moral equivalent of an LSM level pair:
//!
//! * the **base run** — a sorted, immutable region of a snapshot-v2 file,
//!   read page-at-a-time through a budgeted pinned-page cache
//!   ([`RunFile`]), located by a sparse in-memory fence index (the first
//!   stored tuple of every page);
//! * the **delta overlay** — two in-memory B-trees: fresh inserts
//!   (disjoint from the base) and erase tombstones (a subset of the base),
//!   merged with the base at iteration time.
//!
//! The merge preserves the exact set semantics of the in-memory sets:
//! `insert`/`remove` report the same freshness booleans, scans and ranges
//! yield the same tuples in the same stored order, and partitions
//! concatenate to the sequential scan — so the work-stealing parallel
//! scans of the interpreter run unchanged over paged data.

use crate::adapter::{IndexAdapter, SetIndex, TupleSet};
use crate::btree::{self, BTreeIndexSet};
use crate::iter::TupleIter;
use crate::order::Order;
use crate::tuple::{cmp_slices, tuple_from_slice, RamDomain, Tuple};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// Bytes per page of a base run. Pages are the cache/eviction unit; 16 KiB
/// keeps the sparse fence index tiny (one tuple per ~4k tuples at arity 2)
/// while a handful of pages covers a typical range scan.
pub const DEFAULT_PAGE_BYTES: usize = 16 * 1024;

/// Default page-cache budget in bytes (per opened snapshot file).
pub const DEFAULT_CACHE_BYTES: usize = 4 * 1024 * 1024;

/// Tuples per page for a given arity (at least one).
pub fn page_tuples(arity: usize) -> usize {
    (DEFAULT_PAGE_BYTES / (arity.max(1) * std::mem::size_of::<RamDomain>())).max(1)
}

/// The page-cache budget: `STIR_PAGE_CACHE` (bytes) when set to a positive
/// integer, otherwise [`DEFAULT_CACHE_BYTES`]. The env knob exists so
/// tests and soaks can shrink the cache far below the data size and prove
/// residency stays bounded.
pub fn cache_budget_from_env() -> usize {
    std::env::var("STIR_PAGE_CACHE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(DEFAULT_CACHE_BYTES)
}

/// Passively-sampled counters of one page cache, for the engine's metrics
/// registry (`storage.page_cache.*` gauges and `stir_page_cache_*` on the
/// admin endpoint).
#[derive(Debug, Default)]
pub struct PageCacheStats {
    /// Page requests served from the cache.
    pub hits: AtomicU64,
    /// Page requests that went to the file.
    pub misses: AtomicU64,
    /// Pages dropped to stay within the budget.
    pub evictions: AtomicU64,
    /// Bytes currently pinned in the cache.
    pub resident_bytes: AtomicU64,
}

#[derive(Debug)]
struct CachedPage {
    data: Arc<Vec<RamDomain>>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct PageCacheInner {
    pages: HashMap<u64, CachedPage>,
    bytes: usize,
    tick: u64,
}

/// A read-only snapshot-v2 file shared by every [`DiskSet`] it backs,
/// with one budgeted page cache for all of them.
///
/// Pages are keyed by their absolute byte offset and evicted
/// least-recently-used once the budget is exceeded, so a database larger
/// than the budget scans in bounded memory.
#[derive(Debug)]
pub struct RunFile {
    file: File,
    budget: usize,
    stats: PageCacheStats,
    cache: Mutex<PageCacheInner>,
}

impl RunFile {
    /// Opens `path` for paged reads with the given cache budget in bytes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `File::open` error.
    pub fn open(path: &Path, budget: usize) -> std::io::Result<Arc<RunFile>> {
        let file = File::open(path)?;
        Ok(Arc::new(RunFile {
            file,
            budget: budget.max(1),
            stats: PageCacheStats::default(),
            cache: Mutex::new(PageCacheInner::default()),
        }))
    }

    /// The cache counters (shared by all indexes over this file).
    pub fn stats(&self) -> &PageCacheStats {
        &self.stats
    }

    /// The configured cache budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Loads `words` `u32`s starting at byte `offset`, through the cache.
    ///
    /// # Panics
    ///
    /// Panics if the file shrank or the read fails: the snapshot was
    /// integrity-checked at open, so a failing page read means the storage
    /// was yanked from under a live database — there is no correct answer
    /// to serve.
    fn load(&self, offset: u64, words: usize) -> Arc<Vec<RamDomain>> {
        {
            let mut inner = self.cache.lock().expect("page cache lock");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(p) = inner.pages.get_mut(&offset) {
                p.last_used = tick;
                self.stats.hits.fetch_add(1, AtomicOrdering::Relaxed);
                return Arc::clone(&p.data);
            }
        }
        // Read outside the lock so a miss does not stall other readers.
        let mut buf = vec![0u8; words * std::mem::size_of::<RamDomain>()];
        read_exact_at(&self.file, &mut buf, offset)
            .unwrap_or_else(|e| panic!("disk storage read failed at byte offset {offset}: {e}"));
        let mut data = Vec::with_capacity(words);
        for w in buf.chunks_exact(4) {
            data.push(RamDomain::from_le_bytes([w[0], w[1], w[2], w[3]]));
        }
        let data = Arc::new(data);
        let page_bytes = buf.len();
        self.stats.misses.fetch_add(1, AtomicOrdering::Relaxed);

        let mut inner = self.cache.lock().expect("page cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        if inner.pages.contains_key(&offset) {
            // Raced with another reader; keep theirs.
            return Arc::clone(&inner.pages[&offset].data);
        }
        inner.pages.insert(
            offset,
            CachedPage {
                data: Arc::clone(&data),
                last_used: tick,
            },
        );
        inner.bytes += page_bytes;
        while inner.bytes > self.budget && inner.pages.len() > 1 {
            let victim = inner
                .pages
                .iter()
                .filter(|(&k, _)| k != offset)
                .min_by_key(|(_, p)| p.last_used)
                .map(|(&k, _)| k)
                .expect("more than one cached page");
            let dropped = inner.pages.remove(&victim).expect("victim present");
            inner.bytes -= dropped.data.len() * std::mem::size_of::<RamDomain>();
            self.stats.evictions.fetch_add(1, AtomicOrdering::Relaxed);
        }
        self.stats
            .resident_bytes
            .store(inner.bytes as u64, AtomicOrdering::Relaxed);
        data
    }
}

/// `pread(2)` without touching the shared file cursor, so concurrent
/// workers can page in independently.
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// One sorted, immutable tuple run inside a [`RunFile`]: the base level of
/// a [`DiskSet`].
///
/// `fence` holds the first stored tuple of each page (the sparse page
/// index); binary searches descend fence → page → tuple, touching at most
/// one page per probe.
#[derive(Debug, Clone)]
pub struct BaseRun {
    file: Arc<RunFile>,
    /// Absolute byte offset of the first tuple word.
    offset: u64,
    count: usize,
    arity: usize,
    page_tuples: usize,
    fence: Arc<Vec<RamDomain>>,
}

impl BaseRun {
    /// Wraps a run region of `file`.
    ///
    /// # Panics
    ///
    /// Panics if the fence length disagrees with the page geometry — the
    /// snapshot reader validates this before construction, so a mismatch
    /// is a caller bug.
    pub fn new(
        file: Arc<RunFile>,
        offset: u64,
        count: usize,
        arity: usize,
        page_tuples: usize,
        fence: Vec<RamDomain>,
    ) -> Self {
        let pages = count.div_ceil(page_tuples.max(1));
        assert_eq!(
            fence.len(),
            pages * arity,
            "sparse page index disagrees with run geometry"
        );
        BaseRun {
            file,
            offset,
            count,
            arity,
            page_tuples: page_tuples.max(1),
            fence: Arc::new(fence),
        }
    }

    /// Number of tuples in the run.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Visits every tuple of the run in stored order, one page at a time.
    pub fn for_each(&self, mut visit: impl FnMut(&[RamDomain])) {
        for p in 0..self.pages() {
            self.page(p).chunks_exact(self.arity).for_each(&mut visit);
        }
    }

    fn pages(&self) -> usize {
        self.count.div_ceil(self.page_tuples)
    }

    fn page_len(&self, p: usize) -> usize {
        if (p + 1) * self.page_tuples <= self.count {
            self.page_tuples
        } else {
            self.count - p * self.page_tuples
        }
    }

    fn page(&self, p: usize) -> Arc<Vec<RamDomain>> {
        let words_before = p * self.page_tuples * self.arity;
        let offset = self.offset + (words_before * std::mem::size_of::<RamDomain>()) as u64;
        self.file.load(offset, self.page_len(p) * self.arity)
    }

    fn fence_tuple(&self, p: usize) -> &[RamDomain] {
        &self.fence[p * self.arity..(p + 1) * self.arity]
    }

    /// First global tuple index whose tuple is `>= key` (`upper == false`)
    /// or `> key` (`upper == true`).
    fn bound(&self, key: &[RamDomain], upper: bool) -> usize {
        if self.count == 0 {
            return 0;
        }
        let below = |t: &[RamDomain]| {
            let ord = cmp_slices(t, key);
            if upper {
                ord != Ordering::Greater
            } else {
                ord == Ordering::Less
            }
        };
        // Number of pages whose first tuple is below the target.
        let p = partition_point(self.pages(), |i| below(self.fence_tuple(i)));
        if p == 0 {
            return 0;
        }
        let page_no = p - 1;
        let page = self.page(page_no);
        let len = self.page_len(page_no);
        let pos = partition_point(len, |i| below(&page[i * self.arity..(i + 1) * self.arity]));
        page_no * self.page_tuples + pos
    }

    /// Membership with at most one page load: the fences name the only
    /// page that can hold `key`, and answer a key equal to one of them.
    fn contains(&self, key: &[RamDomain]) -> bool {
        let above = |t: &[RamDomain]| cmp_slices(t, key) == Ordering::Greater;
        let p = partition_point(self.pages(), |i| !above(self.fence_tuple(i)));
        // Below the first fence, or equal to a fence: no page to load.
        if p == 0 || self.fence_tuple(p - 1) == key {
            return p > 0;
        }
        let (page, len) = (self.page(p - 1), self.page_len(p - 1));
        let at = |i: usize| &page[i * self.arity..(i + 1) * self.arity];
        let i = partition_point(len, |i| cmp_slices(at(i), key) == Ordering::Less);
        i < len && at(i) == key
    }
}

/// Binary search over `0..n`: the first index where `pred` turns false
/// (`pred` must be monotone true-then-false).
fn partition_point(n: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A disk-backed tuple set: an optional paged [`BaseRun`] plus a delta
/// overlay of two in-memory B-trees in the same stored order.
///
/// Invariants (maintained by `insert`/`remove`): `inserts` is disjoint
/// from the base run, `tombs` is a subset of it — so
/// `len = base + inserts - tombs` and the merge never meets equal keys on
/// the base and insert sides.
#[derive(Debug, Default)]
pub struct DiskSet<const N: usize> {
    base: Option<BaseRun>,
    inserts: BTreeIndexSet<N>,
    tombs: BTreeIndexSet<N>,
}

/// A disk-backed index: the one set adapter over a [`DiskSet`].
pub type DiskIndex<const N: usize> = SetIndex<DiskSet<N>, N>;

impl<const N: usize> DiskIndex<N> {
    /// An index served off `base` with an empty overlay.
    pub fn with_base(order: Order, base: BaseRun) -> Self {
        let mut idx = Self::new(order);
        idx.raw_mut().rebase(base);
        idx
    }
}

/// Rebases `idx` onto `base` (see [`DiskSet::rebase`]) when it is a disk
/// index of the run's arity; `false` when it is any other index.
pub fn rebase(idx: &mut dyn IndexAdapter, base: BaseRun) -> bool {
    with_arity!(
        base.arity,
        match idx.as_any_mut().downcast_mut::<DiskIndex<N>>() {
            Some(disk) => {
                disk.raw_mut().rebase(base);
                true
            }
            None => false,
        },
        _ => false
    )
}

impl<const N: usize> DiskSet<N> {
    /// Replaces the base run and drops the overlay: cold start, and the
    /// in-memory side of compaction after base and delta were rewritten
    /// into a fresh file.
    ///
    /// # Panics
    ///
    /// Panics if the run's arity is not `N`.
    pub fn rebase(&mut self, base: BaseRun) {
        assert_eq!(base.arity, N, "run arity must match the set's");
        self.base = Some(base);
        self.inserts.clear();
        self.tombs.clear();
    }

    /// `(inserts, tombstones)` sizes of the delta overlay.
    pub fn overlay_len(&self) -> (usize, usize) {
        (self.inserts.len(), self.tombs.len())
    }

    /// Whether a base run is attached.
    pub fn has_base(&self) -> bool {
        self.base.is_some()
    }

    fn base_contains(&self, t: &Tuple<N>) -> bool {
        self.base.as_ref().is_some_and(|b| b.contains(t))
    }

    /// The merge of base positions `[start, end)` with the overlay
    /// entries `inserts` and `tombs` yield.
    fn merge<'a>(
        &'a self,
        start: usize,
        end: usize,
        mut inserts: btree::Iter<'a, N>,
        mut tombs: btree::Iter<'a, N>,
    ) -> DiskIter<'a, N> {
        let base = BaseCursor {
            run: self.base.as_ref(),
            pos: start,
            end,
            page: None,
            page_start: 0,
            page_end: 0,
        };
        DiskIter {
            base,
            ins: inserts.next(),
            inserts,
            tomb: tombs.next(),
            tombs,
        }
    }

    /// The merge over the inclusive stored-order window `[lo, hi]`, its
    /// base part cut at run positions `[start, end)`.
    fn window(&self, start: usize, end: usize, lo: &Tuple<N>, hi: &Tuple<N>) -> DiskIter<'_, N> {
        let (inserts, tombs) = (self.inserts.range(lo, hi), self.tombs.range(lo, hi));
        self.merge(start, end, inserts, tombs)
    }
}

impl<const N: usize> TupleSet<N> for DiskSet<N> {
    type Iter<'a> = DiskIter<'a, N>;

    fn len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.count) + self.inserts.len() - self.tombs.len()
    }

    /// Base-run pages plus overlay B-tree nodes.
    fn node_count(&self) -> usize {
        let pages = self.base.as_ref().map_or(0, BaseRun::pages);
        pages + self.inserts.node_count() + self.tombs.node_count()
    }

    /// Resident bytes only: the base run lives on disk, so what the set
    /// pins in memory is the fence index and the two overlays.
    fn estimated_bytes(&self) -> usize {
        let fence = self.base.as_ref().map_or(0, |b| b.fence.len()) * size_of::<RamDomain>();
        fence + self.inserts.estimated_bytes() + self.tombs.estimated_bytes()
    }

    fn clear(&mut self) {
        self.base = None;
        self.inserts.clear();
        self.tombs.clear();
    }

    fn insert(&mut self, t: Tuple<N>) -> bool {
        if self.tombs.remove(&t) {
            return true; // resurrects a tombstoned base tuple
        }
        if self.inserts.contains(&t) || self.base_contains(&t) {
            return false;
        }
        self.inserts.insert(t)
    }

    fn remove(&mut self, t: &Tuple<N>) -> bool {
        if self.inserts.remove(t) {
            return true;
        }
        !self.tombs.contains(t) && self.base_contains(t) && self.tombs.insert(*t)
    }

    fn contains(&self, t: &Tuple<N>) -> bool {
        self.inserts.contains(t) || (self.base_contains(t) && !self.tombs.contains(t))
    }

    fn iter(&self) -> DiskIter<'_, N> {
        let count = self.base.as_ref().map_or(0, |b| b.count);
        self.merge(0, count, self.inserts.iter(), self.tombs.iter())
    }

    fn range(&self, lo: &Tuple<N>, hi: &Tuple<N>) -> DiskIter<'_, N> {
        let (start, end) = self
            .base
            .as_ref()
            .map_or((0, 0), |b| (b.bound(lo, false), b.bound(hi, true)));
        self.window(start, end, lo, hi)
    }

    /// Cuts the window at page boundaries, so each part pins its own
    /// pages. The overlay is split at the fence tuple of each cut page:
    /// inserts never equal a base tuple, and a tombstone on a fence is
    /// only ever met by the part whose base cursor reaches it. Without a
    /// base run the overlay's own tree partitions.
    fn partition_range(&self, lo: &Tuple<N>, hi: &Tuple<N>, n: usize) -> Vec<DiskIter<'_, N>> {
        let Some(run) = &self.base else {
            let parts = self.inserts.partition_range(lo, hi, n);
            let whole = |ins| self.merge(0, 0, ins, self.tombs.iter());
            return parts.into_iter().map(whole).collect();
        };
        let (start, end) = (run.bound(lo, false), run.bound(hi, true));
        if n <= 1 || start >= end {
            return vec![self.window(start, end, lo, hi)];
        }
        let (first, last) = (start / run.page_tuples, (end - 1) / run.page_tuples);
        let per = (last - first + 1).div_ceil(n);
        let mut parts = Vec::new();
        let (mut from, mut key) = (start, *lo);
        for page in (first + per..=last).step_by(per) {
            let (cut, fence) = (
                page * run.page_tuples,
                tuple_from_slice(run.fence_tuple(page)),
            );
            parts.push(self.window(from, cut, &key, &fence));
            (from, key) = (cut, fence);
        }
        parts.push(self.window(from, end, &key, hi));
        parts
    }
}

/// A sequential cursor over run positions `[pos, end)`, holding at most
/// one pinned page at a time.
#[derive(Debug)]
struct BaseCursor<'a, const N: usize> {
    run: Option<&'a BaseRun>,
    pos: usize,
    end: usize,
    /// The pinned page and the run positions `[page_start, page_end)` it
    /// holds.
    page: Option<Arc<Vec<RamDomain>>>,
    page_start: usize,
    page_end: usize,
}

impl<const N: usize> BaseCursor<'_, N> {
    /// The tuple at the cursor, without advancing.
    #[inline]
    fn peek(&mut self) -> Option<Tuple<N>> {
        if self.pos >= self.end {
            return None;
        }
        if self.pos >= self.page_end {
            let run = self.run?;
            let p = self.pos / run.page_tuples;
            self.page = Some(run.page(p));
            self.page_start = p * run.page_tuples;
            self.page_end = self.page_start + run.page_len(p);
        }
        let k = (self.pos - self.page_start) * N;
        Some(tuple_from_slice(&self.page.as_ref()?[k..k + N]))
    }
}

/// The stored-order iterator of a [`DiskSet`]: base tuples minus
/// tombstones, merged with the overlay inserts. Scans, ranges and every
/// partition are this one type. The overlay heads sit in plain fields, so
/// a base tuple with no overlay entry near it costs two tests.
#[derive(Debug)]
pub struct DiskIter<'a, const N: usize> {
    base: BaseCursor<'a, N>,
    /// The next insert, then the rest of the insert overlay.
    ins: Option<Tuple<N>>,
    inserts: btree::Iter<'a, N>,
    /// The next tombstone, then the rest of the tombstones.
    tomb: Option<Tuple<N>>,
    tombs: btree::Iter<'a, N>,
}

impl<const N: usize> Iterator for DiskIter<'_, N> {
    type Item = Tuple<N>;

    #[inline]
    fn next(&mut self) -> Option<Tuple<N>> {
        'base: loop {
            let Some(b) = self.base.peek() else {
                let i = self.ins?;
                self.ins = self.inserts.next();
                return Some(i);
            };
            if let Some(i) = self.ins.filter(|i| *i < b) {
                self.ins = self.inserts.next();
                return Some(i);
            }
            self.base.pos += 1;
            while let Some(t) = self.tomb.filter(|t| *t <= b) {
                self.tomb = self.tombs.next();
                if t == b {
                    continue 'base;
                }
            }
            return Some(b);
        }
    }
}

/// Writes one sorted run — `[u64 count]` then `count` packed stored-order
/// tuples — and returns the sparse page index (the first tuple of each
/// page, flattened).
///
/// # Errors
///
/// Propagates I/O errors; reports a count mismatch (the iterator must
/// yield exactly `count` tuples) as `InvalidData`.
pub fn write_run(
    w: &mut dyn Write,
    iter: &mut dyn TupleIter,
    count: u64,
    page_tuples: usize,
) -> std::io::Result<Vec<RamDomain>> {
    w.write_all(&count.to_le_bytes())?;
    let page_tuples = page_tuples.max(1);
    let mut fence = Vec::new();
    let mut written = 0u64;
    while let Some(t) = iter.next_tuple() {
        if written.is_multiple_of(page_tuples as u64) {
            fence.extend_from_slice(t);
        }
        for &v in t {
            w.write_all(&v.to_le_bytes())?;
        }
        written += 1;
    }
    if written != count {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("run length changed during write: expected {count} tuples, saw {written}"),
        ));
    }
    Ok(fence)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adapter::{BTreeIndex, Morsels};

    /// Writes `stored` (stored order, any order and duplicates allowed)
    /// as a run file of `arity`-wide tuples and maps it with the given
    /// page size and cache budget.
    pub(crate) fn base_run(
        tag: &str,
        arity: usize,
        stored: &[Vec<RamDomain>],
        page_tuples: usize,
        budget: usize,
    ) -> BaseRun {
        let mut stored = stored.to_vec();
        stored.sort_unstable();
        stored.dedup();
        let mut it = crate::iter::VecTupleIter::new(stored.concat(), arity);
        let mut buf = Vec::new();
        let fence = write_run(&mut buf, &mut it, stored.len() as u64, page_tuples).expect("writes");
        let dir = std::env::temp_dir().join(format!("stir-disk-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(format!("{tag}.run"));
        std::fs::write(&path, &buf).expect("run file");
        let file = RunFile::open(&path, budget).expect("opens");
        BaseRun::new(file, 8, stored.len(), arity, page_tuples, fence)
    }

    /// A disk index served off a run of `tuples` (source order) under
    /// `order`, with the given page size.
    fn disk_with_base<const N: usize>(
        tag: &str,
        order: &Order,
        tuples: &[Vec<RamDomain>],
        page_tuples: usize,
        budget: usize,
    ) -> DiskIndex<N> {
        let stored: Vec<_> = tuples.iter().map(|t| order.encode_vec(t)).collect();
        let base = base_run(tag, N, &stored, page_tuples, budget);
        DiskIndex::with_base(order.clone(), base)
    }

    fn drain(m: Morsels<'_>) -> Vec<Vec<RamDomain>> {
        match m {
            Morsels::Chunks(chunks) => {
                let mut out = Vec::new();
                for mut c in chunks {
                    out.extend(c.collect_tuples());
                }
                out
            }
            Morsels::Stream(mut it) => it.collect_tuples(),
        }
    }

    #[test]
    fn overlay_only_matches_btree_adapter() {
        let order = Order::new(vec![1, 0]);
        let mut disk = DiskIndex::<2>::new(order.clone());
        let mut mem = BTreeIndex::<2>::new(order);
        let mut seed = 5u32;
        for step in 0..3000u32 {
            seed = seed.wrapping_mul(48271) % 0x7fff_ffff;
            let t = [seed % 29, seed % 17];
            if step % 4 == 3 {
                assert_eq!(disk.erase(&t), mem.erase(&t), "step {step}");
            } else {
                assert_eq!(disk.insert(&t), mem.insert(&t), "step {step}");
            }
            assert_eq!(disk.len(), mem.len(), "step {step}");
        }
        assert_eq!(disk.scan().collect_tuples(), mem.scan().collect_tuples());
        let (lo, hi) = ([4u32, 0], [12u32, u32::MAX]);
        assert_eq!(
            disk.range(&lo, &hi).collect_tuples(),
            mem.range(&lo, &hi).collect_tuples()
        );
        assert_eq!(disk.contains(&[3, 4]), mem.contains(&[3, 4]));
    }

    #[test]
    fn base_plus_overlay_matches_btree_oracle() {
        let order = Order::new(vec![1, 0]);
        let mut base_tuples = Vec::new();
        for i in 0..500u32 {
            base_tuples.push(vec![i % 37, i % 23]);
        }
        // Tiny pages so every operation crosses page boundaries.
        let mut disk = disk_with_base::<2>("oracle", &order, &base_tuples, 7, 1 << 20);
        let mut mem = BTreeIndex::<2>::new(order);
        for t in &base_tuples {
            mem.insert(t);
        }
        assert_eq!(disk.len(), mem.len());

        let mut seed = 11u32;
        for step in 0..4000u32 {
            seed = seed.wrapping_mul(48271) % 0x7fff_ffff;
            let t = [seed % 41, seed % 31];
            match step % 5 {
                0 | 1 => assert_eq!(disk.insert(&t), mem.insert(&t), "step {step}"),
                2 | 3 => assert_eq!(disk.erase(&t), mem.erase(&t), "step {step}"),
                _ => assert_eq!(disk.contains(&t), mem.contains(&t), "step {step}"),
            }
            assert_eq!(disk.len(), mem.len(), "step {step}");
        }
        assert_eq!(disk.scan().collect_tuples(), mem.scan().collect_tuples());
        let (lo, hi) = ([9u32, 0], [22u32, u32::MAX]);
        assert_eq!(
            disk.range(&lo, &hi).collect_tuples(),
            mem.range(&lo, &hi).collect_tuples()
        );
        // Stored-order prefix erase agrees too.
        assert_eq!(disk.erase_prefix(&[13]), mem.erase_prefix(&[13]));
        assert_eq!(disk.scan().collect_tuples(), mem.scan().collect_tuples());
    }

    #[test]
    fn morsels_concatenate_to_scan_across_page_boundaries() {
        let order = Order::natural(2);
        let base: Vec<Vec<RamDomain>> = (0..700u32).map(|i| vec![i / 3, i % 53]).collect();
        let mut disk = disk_with_base::<2>("morsels", &order, &base, 11, 1 << 20);
        // Mix the overlay in: fresh inserts below, between, and above the
        // base keys, plus tombstones.
        for i in 0..300u32 {
            disk.insert(&[i * 3 + 1, 1000 + i]);
        }
        for i in 0..100u32 {
            disk.erase(&[i / 3 * 3, (i * 3) % 53]);
        }
        let expected = disk.scan().collect_tuples();
        assert_eq!(expected.len(), disk.len());
        for target in [1usize, 8, 64, 1000, usize::MAX] {
            assert_eq!(drain(disk.morsels(target)), expected, "target {target}");
        }
        match disk.morsels(8) {
            Morsels::Chunks(c) => assert!(c.len() > 4, "{}", c.len()),
            Morsels::Stream(_) => panic!("based disk index should chunk"),
        };
    }

    #[test]
    fn page_cache_stays_within_budget_and_counts() {
        let order = Order::natural(2);
        let base: Vec<Vec<RamDomain>> = (0..20_000u32).map(|i| vec![i, i * 7]).collect();
        // Page = 128 tuples * 8 bytes = 1 KiB; budget of 4 KiB holds only
        // 4 of ~157 pages.
        let disk = disk_with_base::<2>("budget", &order, &base, 128, 4 * 1024);
        let stats = disk.raw().base.as_ref().expect("base").file.stats();
        for _ in 0..3 {
            assert_eq!(disk.scan().count_tuples(), 20_000);
        }
        let resident = stats.resident_bytes.load(AtomicOrdering::Relaxed);
        assert!(resident <= 5 * 1024, "resident {resident} over budget");
        assert!(stats.evictions.load(AtomicOrdering::Relaxed) > 100);
        assert!(stats.misses.load(AtomicOrdering::Relaxed) > 100);
        // Point probes on a warm page hit the cache.
        assert!(disk.contains(&[42, 42 * 7]));
        assert!(disk.contains(&[42, 42 * 7]));
        assert!(stats.hits.load(AtomicOrdering::Relaxed) > 0);
    }

    /// A warm probe costs one page-cache lookup; a fence answers a probe
    /// of a page's first tuple, and a key below the run, with none.
    #[test]
    fn a_warm_probe_loads_one_page() {
        let order = Order::natural(2);
        let base: Vec<Vec<RamDomain>> = (1..=1000u32).map(|i| vec![i, i * 7]).collect();
        // Page k holds 64 tuples from `[1 + 64k, 7 + 448k]` on.
        let disk = disk_with_base::<2>("one-page", &order, &base, 64, 1 << 20);
        let stats = disk.raw().base.as_ref().expect("base").file.stats();
        let lookups = || {
            stats.hits.load(AtomicOrdering::Relaxed) + stats.misses.load(AtomicOrdering::Relaxed)
        };
        let probes = [
            ("inside a page", [100, 700], true, 1),
            ("a page's last tuple", [128, 896], true, 1),
            ("the next page's fence", [129, 903], true, 0),
            ("absent inside a page", [100, 1], false, 1),
            ("below the first fence", [0, 0], false, 0),
            ("past the last tuple", [5000, 0], false, 1),
        ];
        for (what, key, present, loads) in probes {
            assert_eq!(disk.contains(&key), present, "{what} (cold)");
            let before = lookups();
            assert_eq!(disk.contains(&key), present, "{what} (warm)");
            assert_eq!(lookups() - before, loads, "{what}");
        }
    }

    #[test]
    fn inverted_and_empty_ranges_yield_nothing() {
        let order = Order::natural(2);
        let disk = disk_with_base::<2>("empty", &order, &[vec![5, 5], vec![6, 6]], 4, 1 << 20);
        assert_eq!(disk.range(&[9, 0], &[8, 0]).count_tuples(), 0);
        assert_eq!(disk.range(&[7, 0], &[7, u32::MAX]).count_tuples(), 0);
        assert_eq!(
            drain(disk.morsels_range(&[9, 0], &[8, 0], 1)),
            Vec::<Vec<u32>>::new()
        );
        let empty = DiskIndex::<2>::new(Order::natural(2));
        assert_eq!(empty.scan().count_tuples(), 0);
        assert_eq!(drain(empty.morsels(8)), Vec::<Vec<u32>>::new());
    }

    #[test]
    fn resurrecting_a_tombstoned_tuple_round_trips() {
        let order = Order::natural(2);
        let mut disk = disk_with_base::<2>("tomb", &order, &[vec![1, 2]], 4, 1 << 20);
        assert!(disk.erase(&[1, 2]));
        assert!(!disk.contains(&[1, 2]));
        assert_eq!(disk.len(), 0);
        assert!(disk.insert(&[1, 2]), "resurrection is a fresh insert");
        assert!(disk.contains(&[1, 2]));
        assert_eq!(disk.len(), 1);
        assert_eq!(
            disk.raw().overlay_len(),
            (0, 0),
            "no overlay left after undo"
        );
    }

    #[test]
    fn rebase_drops_the_overlay() {
        let order = Order::natural(1);
        let mut disk = DiskIndex::<1>::new(order.clone());
        disk.insert(&[3]);
        disk.insert(&[9]);
        let base = base_run("rebase", 1, &[vec![3], vec![9]], 4, 1 << 20);
        let mut mem = BTreeIndex::<1>::new(order);
        assert!(!rebase(&mut mem, base.clone()), "only a disk index rebases");
        assert!(rebase(&mut disk, base));
        assert!(disk.raw().has_base());
        assert_eq!(disk.raw().overlay_len(), (0, 0));
        assert_eq!(disk.len(), 2);
        assert_eq!(disk.scan().collect_tuples(), vec![vec![3], vec![9]]);
    }
}
