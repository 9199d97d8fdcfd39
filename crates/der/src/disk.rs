//! Disk-backed indexes: an immutable paged base run plus a delta overlay.
//!
//! This is the storage de-specialization step: because every index access
//! already goes through the object-safe [`IndexAdapter`] interface (or is
//! routed back onto it by the interpreter-tree builder), a relation can be
//! served straight off a file without the engine noticing. A [`DiskIndex`]
//! is the moral equivalent of an LSM level pair:
//!
//! * the **base run** — a sorted, immutable region of a snapshot-v2 file,
//!   read page-at-a-time through a budgeted pinned-page cache
//!   ([`RunFile`]), located by a sparse in-memory fence index (the first
//!   stored tuple of every page);
//! * the **delta overlay** — two in-memory sorted sets: fresh inserts
//!   (disjoint from the base) and erase tombstones (a subset of the base),
//!   merged with the base at iteration time.
//!
//! The merge preserves the exact set semantics of the in-memory adapters:
//! `insert`/`erase`/`erase_prefix` report the same freshness booleans and
//! counts, scans and ranges yield the same tuples in the same stored
//! order, and morsels concatenate to the sequential scan — so the
//! work-stealing parallel scans of the interpreter run unchanged over
//! paged data.
//!
//! Tuples are kept in **stored (encoded) order** on disk and in the
//! overlay, exactly like [`crate::adapter::BTreeIndex`].

use crate::adapter::{IndexAdapter, IndexStats, Morsels};
use crate::iter::TupleIter;
use crate::order::Order;
use crate::tuple::{cmp_slices, RamDomain};
use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fs::File;
use std::io::Write;
use std::ops::Bound;
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

/// A read-only snapshot-v2 file shared by every [`DiskIndex`] it backs,
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
/// a [`DiskIndex`].
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

    fn contains(&self, key: &[RamDomain]) -> bool {
        let i = self.bound(key, false);
        if i >= self.count {
            return false;
        }
        let p = i / self.page_tuples;
        let page = self.page(p);
        let k = (i - p * self.page_tuples) * self.arity;
        &page[k..k + self.arity] == key
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

/// A sequential cursor over a slice `[pos, end)` of a base run, holding at
/// most one pinned page at a time.
#[derive(Debug)]
struct BaseCursor {
    run: BaseRun,
    pos: usize,
    end: usize,
    page_no: usize,
    page: Option<Arc<Vec<RamDomain>>>,
}

impl BaseCursor {
    fn new(run: BaseRun, pos: usize, end: usize) -> Self {
        BaseCursor {
            run,
            pos,
            end,
            page_no: usize::MAX,
            page: None,
        }
    }

    /// Copies the current tuple into `out`; `false` when exhausted.
    fn peek_into(&mut self, out: &mut Vec<RamDomain>) -> bool {
        if self.pos >= self.end {
            return false;
        }
        let p = self.pos / self.run.page_tuples;
        if self.page.is_none() || p != self.page_no {
            self.page = Some(self.run.page(p));
            self.page_no = p;
        }
        let page = self.page.as_ref().expect("page just loaded");
        let k = (self.pos - p * self.run.page_tuples) * self.run.arity;
        out.clear();
        out.extend_from_slice(&page[k..k + self.run.arity]);
        true
    }

    fn advance(&mut self) {
        self.pos += 1;
    }
}

type OverlayRange<'a> = std::iter::Peekable<std::collections::btree_set::Range<'a, Vec<RamDomain>>>;

/// The merge of (base minus tombstones) with the overlay inserts, in
/// stored order — the single iterator type behind `scan`, `range`, and
/// every morsel chunk of a [`DiskIndex`].
struct MergedIter<'a> {
    arity: usize,
    base: Option<BaseCursor>,
    base_cur: Vec<RamDomain>,
    base_valid: bool,
    inserts: OverlayRange<'a>,
    tombs: &'a BTreeSet<Vec<RamDomain>>,
}

impl std::fmt::Debug for MergedIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedIter")
            .field("arity", &self.arity)
            .field("base", &self.base.as_ref().map(|c| (c.pos, c.end)))
            .finish()
    }
}

impl TupleIter for MergedIter<'_> {
    fn arity(&self) -> usize {
        self.arity
    }

    fn next_tuple(&mut self) -> Option<&[RamDomain]> {
        loop {
            if !self.base_valid {
                if let Some(c) = self.base.as_mut() {
                    self.base_valid = c.peek_into(&mut self.base_cur);
                }
            }
            // Base and overlay are disjoint, so a strict comparison fully
            // decides the merge; equality cannot occur.
            let take_base = match (self.base_valid, self.inserts.peek()) {
                (false, None) => return None,
                (true, None) => true,
                (false, Some(_)) => false,
                (true, Some(ins)) => cmp_slices(&self.base_cur, ins) == Ordering::Less,
            };
            if take_base {
                self.base.as_mut().expect("base valid").advance();
                self.base_valid = false;
                if self.tombs.contains(self.base_cur.as_slice()) {
                    continue;
                }
                return Some(&self.base_cur);
            }
            return self.inserts.next().map(Vec::as_slice);
        }
    }
}

/// A disk-backed index: immutable paged base run + in-memory delta
/// overlay, behind the ordinary [`IndexAdapter`] interface.
///
/// Invariants (maintained by `insert`/`erase`): `inserts` is disjoint from
/// the base run, `tombs` is a subset of it — so
/// `len = base + inserts - tombs` and merge iteration never sees equal
/// keys on both sides.
pub struct DiskIndex {
    order: Order,
    natural: bool,
    base: Option<BaseRun>,
    inserts: BTreeSet<Vec<RamDomain>>,
    tombs: BTreeSet<Vec<RamDomain>>,
}

impl std::fmt::Debug for DiskIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskIndex")
            .field("order", &self.order)
            .field("base", &self.base.as_ref().map(|b| b.count))
            .field("inserts", &self.inserts.len())
            .field("tombs", &self.tombs.len())
            .finish()
    }
}

impl DiskIndex {
    /// An overlay-only index (no base run yet): the construction state of
    /// a fresh `--storage disk` database before any snapshot exists.
    pub fn new(order: Order) -> Self {
        let natural = order.is_natural();
        DiskIndex {
            order,
            natural,
            base: None,
            inserts: BTreeSet::new(),
            tombs: BTreeSet::new(),
        }
    }

    /// An index served off `base` with an empty overlay (cold start).
    pub fn with_base(order: Order, base: BaseRun) -> Self {
        assert_eq!(order.arity(), base.arity, "run arity must match order");
        let mut idx = DiskIndex::new(order);
        idx.base = Some(base);
        idx
    }

    /// Replaces the base run and drops the overlay — the in-memory side of
    /// compaction, after base+delta were rewritten into a fresh file.
    pub fn rebase(&mut self, base: BaseRun) {
        assert_eq!(self.order.arity(), base.arity, "run arity must match order");
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

    /// Encodes a source-order tuple into the internal stored order.
    fn enc(&self, t: &[RamDomain]) -> Vec<RamDomain> {
        debug_assert_eq!(t.len(), self.order.arity());
        if self.natural {
            t.to_vec()
        } else {
            self.order.encode_vec(t)
        }
    }

    fn base_count(&self) -> usize {
        self.base.as_ref().map(|b| b.count).unwrap_or(0)
    }

    fn base_contains(&self, enc: &[RamDomain]) -> bool {
        self.base.as_ref().is_some_and(|b| b.contains(enc))
    }

    fn contains_enc(&self, enc: &[RamDomain]) -> bool {
        self.inserts.contains(enc) || (self.base_contains(enc) && !self.tombs.contains(enc))
    }

    fn erase_enc(&mut self, enc: &[RamDomain]) -> bool {
        if self.inserts.remove(enc) {
            return true;
        }
        if !self.tombs.contains(enc) && self.base_contains(enc) {
            self.tombs.insert(enc.to_vec());
            return true;
        }
        false
    }

    /// The merge over stored-order bounds `[lo, hi]` (inclusive); `None`
    /// bounds mean unbounded.
    fn merged(&self, lo: Option<&[RamDomain]>, hi: Option<&[RamDomain]>) -> MergedIter<'_> {
        let (start, end) = match &self.base {
            None => (0, 0),
            Some(b) => (
                lo.map_or(0, |l| b.bound(l, false)),
                hi.map_or(b.count, |h| b.bound(h, true)),
            ),
        };
        let bound =
            |k: Option<&[RamDomain]>| k.map_or(Bound::Unbounded, |k| Bound::Included(k.to_vec()));
        self.chunk(start, end, bound(lo), bound(hi))
    }

    /// The merge of base positions `[base_start, base_end)` with the
    /// overlay inserts inside `(ins_lo, ins_hi)`: a morsel chunk (bounded
    /// by fence tuples) or, from [`Self::merged`], a whole range.
    fn chunk(
        &self,
        base_start: usize,
        base_end: usize,
        ins_lo: Bound<Vec<RamDomain>>,
        ins_hi: Bound<Vec<RamDomain>>,
    ) -> MergedIter<'_> {
        let arity = self.order.arity();
        let base = self
            .base
            .as_ref()
            .filter(|_| base_end > base_start)
            .map(|b| BaseCursor::new(b.clone(), base_start, base_end));
        MergedIter {
            arity,
            base,
            base_cur: Vec::with_capacity(arity),
            base_valid: false,
            inserts: self.inserts.range((ins_lo, ins_hi)).peekable(),
            tombs: &self.tombs,
        }
    }
}

impl IndexAdapter for DiskIndex {
    fn order(&self) -> &Order {
        &self.order
    }

    fn arity(&self) -> usize {
        self.order.arity()
    }

    fn len(&self) -> usize {
        self.base_count() + self.inserts.len() - self.tombs.len()
    }

    fn stats(&self) -> IndexStats {
        // Resident bytes only: the base run lives on disk; what this index
        // pins in RAM is the fence index and the overlay sets (BTreeSet
        // node overhead approximated at 48 bytes/entry).
        let arity = self.order.arity();
        let tuple_bytes = arity * std::mem::size_of::<RamDomain>();
        let overlay = self.inserts.len() + self.tombs.len();
        let fence_bytes = self
            .base
            .as_ref()
            .map(|b| b.fence.len() * std::mem::size_of::<RamDomain>())
            .unwrap_or(0);
        IndexStats {
            tuples: self.len(),
            nodes: self.base.as_ref().map(|b| b.pages()).unwrap_or(0) + overlay,
            bytes: std::mem::size_of::<Self>() + fence_bytes + overlay * (tuple_bytes + 48),
        }
    }

    fn clear(&mut self) {
        self.base = None;
        self.inserts.clear();
        self.tombs.clear();
    }

    fn insert(&mut self, t: &[RamDomain]) -> bool {
        let enc = self.enc(t);
        if self.tombs.remove(&enc) {
            return true; // resurrect a tombstoned base tuple
        }
        if self.inserts.contains(&enc) || self.base_contains(&enc) {
            return false;
        }
        self.inserts.insert(enc)
    }

    fn erase(&mut self, t: &[RamDomain]) -> bool {
        let enc = self.enc(t);
        self.erase_enc(&enc)
    }

    fn erase_prefix(&mut self, prefix: &[RamDomain]) -> usize {
        let arity = self.order.arity();
        debug_assert!(prefix.len() <= arity);
        let mut lo = vec![0; arity];
        let mut hi = vec![RamDomain::MAX; arity];
        lo[..prefix.len()].copy_from_slice(prefix);
        hi[..prefix.len()].copy_from_slice(prefix);
        let doomed: Vec<Vec<RamDomain>> = {
            let mut it = self.merged(Some(&lo), Some(&hi));
            let mut out = Vec::new();
            while let Some(t) = it.next_tuple() {
                out.push(t.to_vec());
            }
            out
        };
        let mut erased = 0;
        for t in &doomed {
            if self.erase_enc(t) {
                erased += 1;
            }
        }
        erased
    }

    fn contains(&self, t: &[RamDomain]) -> bool {
        let enc = self.enc(t);
        self.contains_enc(&enc)
    }

    fn contains_stored(&self, t: &[RamDomain]) -> bool {
        self.contains_enc(t)
    }

    fn scan(&self) -> Box<dyn TupleIter + Send + '_> {
        Box::new(self.merged(None, None))
    }

    fn range(&self, lo: &[RamDomain], hi: &[RamDomain]) -> Box<dyn TupleIter + Send + '_> {
        if cmp_slices(lo, hi) == Ordering::Greater {
            return Box::new(self.chunk(
                0,
                0,
                Bound::Unbounded,
                Bound::Excluded(vec![0; lo.len()]),
            ));
        }
        Box::new(self.merged(Some(lo), Some(hi)))
    }

    fn morsels(&self, target: usize) -> Morsels<'_> {
        let Some(b) = &self.base else {
            return Morsels::Stream(self.scan());
        };
        if b.count == 0 {
            return Morsels::Stream(self.scan());
        }
        let pages_per_chunk = target.max(1).div_ceil(b.page_tuples).max(1);
        let pages = b.pages();
        let chunks_n = pages.div_ceil(pages_per_chunk);
        let mut chunks: Vec<Box<dyn TupleIter + Send + '_>> = Vec::with_capacity(chunks_n);
        for c in 0..chunks_n {
            let first_page = c * pages_per_chunk;
            let end_page = ((c + 1) * pages_per_chunk).min(pages);
            let base_start = first_page * b.page_tuples;
            let base_end = (end_page * b.page_tuples).min(b.count);
            // Overlay inserts fall into the chunk whose base key span
            // covers them; the first chunk also takes everything below the
            // base, the last everything above.
            let ins_lo = if c == 0 {
                Bound::Unbounded
            } else {
                Bound::Included(b.fence_tuple(first_page).to_vec())
            };
            let ins_hi = if end_page == pages {
                Bound::Unbounded
            } else {
                Bound::Excluded(b.fence_tuple(end_page).to_vec())
            };
            chunks.push(Box::new(self.chunk(base_start, base_end, ins_lo, ins_hi)));
        }
        Morsels::Chunks(chunks)
    }

    fn morsels_range(&self, lo: &[RamDomain], hi: &[RamDomain], target: usize) -> Morsels<'_> {
        let _ = target;
        Morsels::Stream(self.range(lo, hi))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
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
mod tests {
    use super::*;
    use crate::adapter::BTreeIndex;
    use std::path::PathBuf;

    fn tmpfile(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stir-disk-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("{tag}.run"))
    }

    /// Builds a run file from `tuples` (source order) under `order` and
    /// returns a DiskIndex served off it with the given page size.
    fn disk_with_base(
        tag: &str,
        order: &Order,
        tuples: &[Vec<RamDomain>],
        page_tuples: usize,
        budget: usize,
    ) -> DiskIndex {
        let arity = order.arity();
        let mut stored: Vec<Vec<RamDomain>> = tuples.iter().map(|t| order.encode_vec(t)).collect();
        stored.sort_unstable();
        stored.dedup();
        let mut flat = Vec::new();
        for t in &stored {
            flat.extend_from_slice(t);
        }
        let mut it = crate::iter::VecTupleIter::new(flat, arity);
        let mut buf = Vec::new();
        let fence = write_run(&mut buf, &mut it, stored.len() as u64, page_tuples).expect("writes");
        let path = tmpfile(tag);
        std::fs::write(&path, &buf).expect("run file");
        let file = RunFile::open(&path, budget).expect("opens");
        let base = BaseRun::new(file, 8, stored.len(), arity, page_tuples, fence);
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
        let mut disk = DiskIndex::new(order.clone());
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
        let mut disk = disk_with_base("oracle", &order, &base_tuples, 7, 1 << 20);
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
        let mut disk = disk_with_base("morsels", &order, &base, 11, 1 << 20);
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
        let disk = disk_with_base("budget", &order, &base, 128, 4 * 1024);
        let stats = disk.base.as_ref().expect("base").file.stats();
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

    #[test]
    fn inverted_and_empty_ranges_yield_nothing() {
        let order = Order::natural(2);
        let disk = disk_with_base("empty", &order, &[vec![5, 5], vec![6, 6]], 4, 1 << 20);
        assert_eq!(disk.range(&[9, 0], &[8, 0]).count_tuples(), 0);
        assert_eq!(disk.range(&[7, 0], &[7, u32::MAX]).count_tuples(), 0);
        let empty = DiskIndex::new(Order::natural(2));
        assert_eq!(empty.scan().count_tuples(), 0);
        assert!(matches!(empty.morsels(8), Morsels::Stream(_)));
        assert_eq!(drain(empty.morsels(8)), Vec::<Vec<u32>>::new());
    }

    #[test]
    fn resurrecting_a_tombstoned_tuple_round_trips() {
        let order = Order::natural(2);
        let mut disk = disk_with_base("tomb", &order, &[vec![1, 2]], 4, 1 << 20);
        assert!(disk.erase(&[1, 2]));
        assert!(!disk.contains(&[1, 2]));
        assert_eq!(disk.len(), 0);
        assert!(disk.insert(&[1, 2]), "resurrection is a fresh insert");
        assert!(disk.contains(&[1, 2]));
        assert_eq!(disk.len(), 1);
        assert_eq!(disk.overlay_len(), (0, 0), "no overlay left after undo");
    }

    #[test]
    fn rebase_drops_the_overlay() {
        let order = Order::natural(1);
        let mut disk = DiskIndex::new(order.clone());
        disk.insert(&[3]);
        disk.insert(&[9]);
        let other = disk_with_base("rebase", &order, &[vec![3], vec![9]], 4, 1 << 20);
        let base = other.base.clone().expect("base");
        disk.rebase(base);
        assert_eq!(disk.overlay_len(), (0, 0));
        assert_eq!(disk.len(), 2);
        assert_eq!(disk.scan().collect_tuples(), vec![vec![3], vec![9]]);
    }
}
