//! The snapshot format: a disk-servable immutable database image.
//!
//! Every checkpoint the engine takes — `.snapshot` (and its `.compact`
//! alias), the automatic one, heal and shutdown, under either storage
//! backend — writes a `STIRSNP2` file. It persists each index of each disk-eligible relation as a
//! *run*: its tuples in sorted stored order, packed little-endian,
//! preceded by a `u64` count. A run is exactly what
//! [`stir_der::disk::BaseRun`] serves pages off, so a restart under
//! `--storage disk` maps the file and is ready to answer queries after
//! reading only the fixed header and the directory — no tuple is touched
//! until a query faults its page in. A memory-storage engine (or one
//! recovering with provenance on) reads the same file and materializes
//! each relation from its primary run instead.
//!
//! # Layout
//!
//! ```text
//! offset  0  b"STIRSNP2"
//! offset  8  [u32 version = 2]
//! offset 12  [u64 program fingerprint]
//! offset 20  [u64 dir_offset] [u64 dir_len]
//! offset 36  run region: per run  [u64 count]  count × arity × [u32]
//! dir_offset directory:
//!            [u32 counter]
//!            [u32 symbol_count] × ([u32 len] bytes)
//!            [u32 relation_count] × (
//!                [u32 name_len] name  [u32 arity]  [u32 run_count]
//!                run_count == 0 → inline tuple section (stir_der::dump)
//!                else run_count × (
//!                    [u32 order_len] × [u32 column]
//!                    [u64 tuple_count] [u64 run_offset] [u64 run_len]
//!                    [u32 page_tuples]
//!                    [u32 fence_words] × [u32]   (first tuple per page)
//!                ))
//!            [u64 extra_fact_count] × ([u32 rel_id] [u32 arity] × [u32])
//! len - 4    [u32 crc32 of everything before]
//! ```
//!
//! A snapshot stores every `Role::Standard` relation — EDB *and* IDB —
//! so loading one skips the initial fixpoint entirely. Relations that
//! are not disk-eligible (nullary, eqrel closures, see
//! [`crate::database::disk_backed`]) are stored inline in the directory
//! as source-order tuples (`run_count == 0`). The `extra_facts` replay
//! list is persisted explicitly (not reconstructed from relation
//! contents) because an `.input` relation that is also a rule head may
//! contain derived tuples, and replaying those as ground facts would
//! wrongly survive a negation-driven retraction. The CRC trailer covers
//! the whole file and is verified *streaming* at open — a bitflip
//! anywhere, including deep inside a multi-gigabyte run region, fails
//! recovery before any tuple is served. Every structural rejection names
//! the byte offset it tripped over. Runs are stored in *stored* (index)
//! order, as both the specialized indexes and
//! [`stir_der::disk::DiskIndex`] hold them, so the bytes are identical
//! under either storage backend, and the fingerprint (FNV-1a over the
//! printed RAM program, which does not depend on
//! [`crate::InterpreterConfig`]) guarantees the reader derives the same
//! index orders from the same RAM program and rejects snapshots of a
//! different one.
//!
//! The file is published through [`crate::wal::publish_atomic`] — a
//! crash mid-write never damages the previous snapshot. Every write
//! passes the `snapshot_write` fault point, whichever verb asked for it.
//!
//! # The retired format
//!
//! Data directories written before this format hold a `STIRSNP1` file
//! (one source-order tuple dump per relation, no runs). Nothing has
//! written one since PR 12 and nothing decodes one: [`load_snapshot`]
//! reports it as `unsupported legacy snapshot format STIRSNP1`, which
//! recovery logs like any other rejected snapshot.

use crate::database::{disk_backed, Database};
use crate::error::StorageError;
use crate::fault::{self, FaultPoint};
use crate::wal::{self, crc32_feed, put_str, put_u32, put_u64, ByteReader};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;
use stir_der::disk::{self, BaseRun, RunFile};
use stir_der::RamDomain;
use stir_ram::program::{RamProgram, RelId, Role};

/// Snapshot file magic.
pub const SNAP2_MAGIC: &[u8; 8] = b"STIRSNP2";

/// Magic of the retired tuple-dump format; refused by name.
const SNAP1_MAGIC: &[u8; 8] = b"STIRSNP1";

/// Current v2 format version (the `u32` after the magic).
pub const SNAP2_VERSION: u32 = 2;

/// Fixed header length: magic + version + fingerprint + dir offset/len.
pub const SNAP2_HEADER: u64 = 8 + 4 + 8 + 8 + 8;

/// One persisted index run of a disk-backed relation.
#[derive(Debug)]
pub struct Snap2Run {
    /// The index order's column permutation (source column per stored
    /// position).
    pub order: Vec<usize>,
    /// Tuples in the run.
    pub count: usize,
    /// Absolute byte offset of the first tuple word (past the `u64`
    /// count prefix) — what [`BaseRun::new`] wants.
    pub tuple_offset: u64,
    /// Tuples per sparse-index page.
    pub page_tuples: usize,
    /// First stored tuple of every page, flattened.
    pub fence: Vec<RamDomain>,
}

/// What a snapshot write persisted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Tuples across all serialized relations.
    pub tuples: u64,
    /// Total snapshot size in bytes.
    pub bytes: u64,
}

/// One relation's entry in the directory.
#[derive(Debug)]
pub struct Snap2Relation {
    /// Relation name (names, not ids, key the snapshot).
    pub name: String,
    /// Column count.
    pub arity: usize,
    /// One run per index, in index order. Empty for inline relations.
    pub runs: Vec<Snap2Run>,
    /// Source-order tuples for non-disk-eligible relations.
    pub inline: Option<Vec<Vec<RamDomain>>>,
}

/// The decoded contents of a snapshot: everything but the runs.
#[derive(Debug)]
pub struct SnapshotData {
    /// The `$` auto-increment counter at snapshot time.
    pub counter: u32,
    /// The full symbol table, in id order.
    pub symbols: Vec<String>,
    /// Every `Role::Standard` relation; run-backed ones point into the
    /// enclosing [`Snap2`]'s file.
    pub relations: Vec<Snap2Relation>,
    /// The externally-inserted fact replay list.
    pub extra_facts: Vec<(RelId, Vec<RamDomain>)>,
}

/// A validated, opened v2 snapshot: the decoded directory plus the
/// shared paged reader over the run region.
pub struct Snap2 {
    /// The directory's contents.
    pub data: SnapshotData,
    /// The paged file every [`BaseRun`] of this snapshot reads through.
    pub file: Arc<RunFile>,
}

impl Snap2 {
    /// Builds the [`BaseRun`] for relation `rel`'s run `k`, sharing this
    /// snapshot's page cache.
    pub fn base_run(&self, rel: &Snap2Relation, k: usize) -> BaseRun {
        let run = &rel.runs[k];
        BaseRun::new(
            Arc::clone(&self.file),
            run.tuple_offset,
            run.count,
            rel.arity,
            run.page_tuples,
            run.fence.clone(),
        )
    }
}

/// What [`load_snapshot`] found at the snapshot path.
pub enum SnapshotImage {
    /// No snapshot file exists.
    Missing,
    /// A file exists but is unusable (corrupt, foreign program, I/O
    /// error); recovery proceeds without it and reports the reason.
    Invalid(String),
    /// A valid `STIRSNP2` snapshot: directory decoded, runs on disk.
    Mapped(Snap2),
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Serializes the database as a snapshot and publishes it atomically
/// ([`wal::publish_atomic`]): the `snapshot_write` fault point before
/// the temp-file write, `snapshot_rename` before the rename.
///
/// # Errors
///
/// I/O failures and injected faults; on error the previous snapshot (if
/// any) is untouched.
pub fn write_snapshot_v2(
    path: &Path,
    fp: u64,
    ram: &RamProgram,
    db: &Database,
    extra_facts: &[(RelId, Vec<RamDomain>)],
) -> Result<SnapshotStats, StorageError> {
    struct RunMeta {
        order: Vec<usize>,
        count: u64,
        offset: u64,
        len: u64,
        page_tuples: u32,
        fence: Vec<RamDomain>,
    }
    enum RelMeta {
        Runs(Vec<RunMeta>),
        Inline(Vec<u8>),
    }

    let mut buf = Vec::new();
    buf.extend_from_slice(SNAP2_MAGIC);
    put_u32(&mut buf, SNAP2_VERSION);
    put_u64(&mut buf, fp);
    let patch_at = buf.len();
    put_u64(&mut buf, 0); // dir_offset, patched below
    put_u64(&mut buf, 0); // dir_len, patched below

    let standard: Vec<_> = ram
        .relations
        .iter()
        .filter(|r| r.role == Role::Standard)
        .collect();
    let mut tuples = 0u64;
    let mut entries: Vec<(String, u32, RelMeta)> = Vec::with_capacity(standard.len());
    for meta in standard {
        let rel = db.rd(meta.id);
        if disk_backed(meta) {
            let mut runs = Vec::with_capacity(rel.index_count());
            for k in 0..rel.index_count() {
                let idx = rel.index(k);
                let order = idx.order();
                let count = idx.len() as u64;
                let page_tuples = disk::page_tuples(meta.arity);
                let offset = buf.len() as u64;
                // Only the legacy comparator index scans in source order.
                debug_assert!(
                    !idx.stores_source_order(),
                    "{} scans in source order",
                    meta.name
                );
                let mut it = idx.scan();
                let fence = disk::write_run(&mut buf, &mut *it, count, page_tuples)
                    .map_err(|e| StorageError::io("serialize snapshot run", &e))?;
                drop(it);
                let len = buf.len() as u64 - offset;
                runs.push(RunMeta {
                    order: order.columns().to_vec(),
                    count,
                    offset,
                    len,
                    page_tuples: page_tuples as u32,
                    fence,
                });
                if k == 0 {
                    tuples += count;
                }
            }
            entries.push((meta.name.clone(), meta.arity as u32, RelMeta::Runs(runs)));
        } else {
            let mut section = Vec::new();
            tuples += stir_der::dump::write_tuples(&mut section, &rel)
                .expect("Vec<u8> writes are infallible");
            entries.push((
                meta.name.clone(),
                meta.arity as u32,
                RelMeta::Inline(section),
            ));
        }
    }

    let dir_offset = buf.len() as u64;
    put_u32(
        &mut buf,
        db.counter.load(std::sync::atomic::Ordering::Relaxed),
    );
    {
        let symbols = db.symbols_rd();
        let strings = symbols.strings();
        put_u32(&mut buf, strings.len() as u32);
        for s in strings {
            put_str(&mut buf, s);
        }
    }
    put_u32(&mut buf, entries.len() as u32);
    for (name, arity, entry) in &entries {
        put_str(&mut buf, name);
        put_u32(&mut buf, *arity);
        match entry {
            RelMeta::Runs(runs) => {
                put_u32(&mut buf, runs.len() as u32);
                for run in runs {
                    put_u32(&mut buf, run.order.len() as u32);
                    for &c in &run.order {
                        put_u32(&mut buf, c as u32);
                    }
                    put_u64(&mut buf, run.count);
                    put_u64(&mut buf, run.offset);
                    put_u64(&mut buf, run.len);
                    put_u32(&mut buf, run.page_tuples);
                    put_u32(&mut buf, run.fence.len() as u32);
                    for &v in &run.fence {
                        put_u32(&mut buf, v);
                    }
                }
            }
            RelMeta::Inline(section) => {
                put_u32(&mut buf, 0);
                buf.extend_from_slice(section);
            }
        }
    }
    put_u64(&mut buf, extra_facts.len() as u64);
    for (rid, t) in extra_facts {
        put_u32(&mut buf, rid.0 as u32);
        put_u32(&mut buf, t.len() as u32);
        for &v in t {
            put_u32(&mut buf, v);
        }
    }
    let dir_len = buf.len() as u64 - dir_offset;
    buf[patch_at..patch_at + 8].copy_from_slice(&dir_offset.to_le_bytes());
    buf[patch_at + 8..patch_at + 16].copy_from_slice(&dir_len.to_le_bytes());
    let crc = !crc32_feed(!0u32, &buf);
    put_u32(&mut buf, crc);

    fault::check(FaultPoint::SnapshotWrite).map_err(|e| StorageError::io("write snapshot", &e))?;
    wal::publish_atomic(
        path,
        wal::SNAPSHOT_TMP_EXT,
        "snapshot",
        &buf,
        Some(FaultPoint::SnapshotRename),
    )?;
    Ok(SnapshotStats {
        tuples,
        bytes: buf.len() as u64,
    })
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Opens and validates a v2 snapshot: header checks, a streaming CRC
/// pass over the whole file, directory decode, and per-run geometry
/// validation. Tuples themselves stay on disk behind `cache_budget`
/// bytes of page cache.
///
/// # Errors
///
/// Every rejection — bad magic, wrong version, foreign fingerprint,
/// truncation, checksum mismatch, out-of-bounds or malformed run — is a
/// [`StorageError`] naming the byte offset that tripped it. Injected
/// `disk_map` faults surface here too.
pub fn open_snapshot_v2(path: &Path, fp: u64, cache_budget: usize) -> Result<Snap2, StorageError> {
    let f = File::open(path).map_err(|e| StorageError::io("open snapshot", &e))?;
    open_v2(f, path, fp, cache_budget)
}

/// [`open_snapshot_v2`] over an already-open handle positioned anywhere
/// (the loader has read the magic off it).
fn open_v2(mut f: File, path: &Path, fp: u64, cache_budget: usize) -> Result<Snap2, StorageError> {
    fault::check(FaultPoint::DiskMap).map_err(|e| StorageError::io("map snapshot", &e))?;
    let file_len = f
        .metadata()
        .map_err(|e| StorageError::io("stat snapshot", &e))?
        .len();
    if file_len < SNAP2_HEADER + 4 {
        return Err(StorageError::new(format!(
            "truncated snapshot: {file_len} bytes at byte offset {file_len}, \
             need at least {} for header and checksum",
            SNAP2_HEADER + 4
        )));
    }

    let mut header = [0u8; SNAP2_HEADER as usize];
    f.seek(SeekFrom::Start(0))
        .and_then(|_| f.read_exact(&mut header))
        .map_err(|e| StorageError::io("read snapshot header", &e))?;
    if &header[..8] != SNAP2_MAGIC {
        return Err(StorageError::new(
            "bad snapshot magic at byte offset 0 (expected STIRSNP2)",
        ));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != SNAP2_VERSION {
        return Err(StorageError::new(format!(
            "unsupported snapshot version {version} at byte offset 8 (expected {SNAP2_VERSION})"
        )));
    }
    let file_fp = u64::from_le_bytes(header[12..20].try_into().unwrap());
    if file_fp != fp {
        return Err(StorageError::new(
            "snapshot belongs to a different program (fingerprint mismatch)",
        ));
    }
    let dir_offset = u64::from_le_bytes(header[20..28].try_into().unwrap());
    let dir_len = u64::from_le_bytes(header[28..36].try_into().unwrap());
    let body_len = file_len - 4;
    if dir_offset < SNAP2_HEADER
        || dir_offset
            .checked_add(dir_len)
            .is_none_or(|end| end != body_len)
    {
        return Err(StorageError::new(format!(
            "snapshot directory out of bounds at byte offset 20: \
             directory [{dir_offset}, {dir_offset}+{dir_len}) must end at byte offset {body_len}"
        )));
    }

    // Streaming CRC over everything before the trailer, capturing the
    // directory bytes on the way past.
    f.seek(SeekFrom::Start(0))
        .map_err(|e| StorageError::io("read snapshot", &e))?;
    let mut crc = !0u32;
    let mut dir = vec![0u8; dir_len as usize];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut pos = 0u64;
    while pos < body_len {
        let want = chunk.len().min((body_len - pos) as usize);
        f.read_exact(&mut chunk[..want]).map_err(|e| {
            StorageError::new(format!("truncated snapshot: {e} at byte offset {pos}"))
        })?;
        crc = crc32_feed(crc, &chunk[..want]);
        // Copy the slice of this chunk that overlaps the directory.
        let (c0, c1) = (pos, pos + want as u64);
        let (d0, d1) = (dir_offset, dir_offset + dir_len);
        if c1 > d0 && c0 < d1 {
            let lo = d0.max(c0);
            let hi = d1.min(c1);
            dir[(lo - d0) as usize..(hi - d0) as usize]
                .copy_from_slice(&chunk[(lo - c0) as usize..(hi - c0) as usize]);
        }
        pos += want as u64;
    }
    let mut trailer = [0u8; 4];
    f.read_exact(&mut trailer).map_err(|e| {
        StorageError::new(format!("truncated snapshot: {e} at byte offset {body_len}"))
    })?;
    if !crc != u32::from_le_bytes(trailer) {
        return Err(StorageError::new(format!(
            "snapshot checksum mismatch at byte offset {body_len} (trailer)"
        )));
    }
    drop(f);

    // Decode the directory.
    let dir_err = |r: &ByteReader<'_>, what: &str| {
        StorageError::new(format!(
            "corrupt snapshot directory: {what} at byte offset {}",
            dir_offset + r.pos() as u64
        ))
    };
    let mut r = ByteReader::new(&dir);
    let counter = r.u32().map_err(|_| dir_err(&r, "counter"))?;
    let symbol_count = r.u32().map_err(|_| dir_err(&r, "symbol count"))? as usize;
    let mut symbols = Vec::with_capacity(symbol_count);
    for _ in 0..symbol_count {
        symbols.push(r.str().map_err(|_| dir_err(&r, "symbol"))?);
    }
    let rel_count = r.u32().map_err(|_| dir_err(&r, "relation count"))? as usize;
    let mut relations = Vec::with_capacity(rel_count);
    for _ in 0..rel_count {
        let name = r.str().map_err(|_| dir_err(&r, "relation name"))?;
        let arity = r.u32().map_err(|_| dir_err(&r, "relation arity"))? as usize;
        let run_count = r.u32().map_err(|_| dir_err(&r, "run count"))? as usize;
        if run_count == 0 {
            let mut section = r.rest();
            let before = section.len();
            let tuples = stir_der::dump::read_tuples(&mut section, arity).map_err(|e| {
                StorageError::new(format!(
                    "corrupt snapshot directory: {e} (section starts at byte offset {})",
                    dir_offset + r.pos() as u64
                ))
            })?;
            r.skip(before - section.len());
            relations.push(Snap2Relation {
                name,
                arity,
                runs: Vec::new(),
                inline: Some(tuples),
            });
            continue;
        }
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            let order_len = r.u32().map_err(|_| dir_err(&r, "order length"))? as usize;
            let mut order = Vec::with_capacity(order_len);
            for _ in 0..order_len {
                order.push(r.u32().map_err(|_| dir_err(&r, "order column"))? as usize);
            }
            let count = r.u64().map_err(|_| dir_err(&r, "run tuple count"))? as usize;
            let offset = r.u64().map_err(|_| dir_err(&r, "run offset"))?;
            let len = r.u64().map_err(|_| dir_err(&r, "run length"))?;
            let page_tuples = r.u32().map_err(|_| dir_err(&r, "run page size"))? as usize;
            let fence_words = r.u32().map_err(|_| dir_err(&r, "fence length"))? as usize;
            let mut fence = Vec::with_capacity(fence_words);
            for _ in 0..fence_words {
                fence.push(r.u32().map_err(|_| dir_err(&r, "fence word"))?);
            }
            // Geometry: the run must lie inside the run region and its
            // byte length, tuple count, and fence must agree.
            let expect_len = 8 + (count as u64) * (arity as u64) * 4;
            let pages = if page_tuples == 0 {
                usize::MAX
            } else {
                count.div_ceil(page_tuples)
            };
            if order_len != arity
                || arity == 0
                || page_tuples == 0
                || len != expect_len
                || offset < SNAP2_HEADER
                || offset.checked_add(len).is_none_or(|end| end > dir_offset)
                || fence_words != pages * arity
            {
                return Err(StorageError::new(format!(
                    "corrupt snapshot directory: malformed run for relation `{name}` \
                     at byte offset {} (run [{offset}, {offset}+{len}), {count} tuples, \
                     arity {arity}, {page_tuples} tuples/page, {fence_words} fence words)",
                    dir_offset + r.pos() as u64
                )));
            }
            runs.push(Snap2Run {
                order,
                count,
                tuple_offset: offset + 8,
                page_tuples,
                fence,
            });
        }
        relations.push(Snap2Relation {
            name,
            arity,
            runs,
            inline: None,
        });
    }
    let extra_count = r.u64().map_err(|_| dir_err(&r, "extra fact count"))? as usize;
    let mut extra_facts = Vec::with_capacity(extra_count);
    for _ in 0..extra_count {
        let rid = RelId(r.u32().map_err(|_| dir_err(&r, "extra fact relation"))? as usize);
        let arity = r.u32().map_err(|_| dir_err(&r, "extra fact arity"))? as usize;
        let mut t = Vec::with_capacity(arity);
        for _ in 0..arity {
            t.push(r.u32().map_err(|_| dir_err(&r, "extra fact value"))?);
        }
        extra_facts.push((rid, t));
    }
    if !r.done() {
        return Err(dir_err(&r, "trailing bytes"));
    }

    let file =
        RunFile::open(path, cache_budget).map_err(|e| StorageError::io("map snapshot", &e))?;
    Ok(Snap2 {
        data: SnapshotData {
            counter,
            symbols,
            relations,
            extra_facts,
        },
        file,
    })
}

// ---------------------------------------------------------------------
// The loader
// ---------------------------------------------------------------------

/// Probes `path` for a snapshot of the program fingerprinted `fp`: the
/// magic is read once, a `STIRSNP1` file is refused by name, and anything
/// else goes to the v2 opener (which gives every other magic, truncation
/// or damage its rejection message).
pub fn load_snapshot(path: &Path, fp: u64, cache_budget: usize) -> SnapshotImage {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return SnapshotImage::Missing,
        Err(e) => return SnapshotImage::Invalid(format!("open snapshot: {e}")),
    };
    let mut magic = Vec::new();
    if let Err(e) = (&mut f).take(8).read_to_end(&mut magic) {
        return SnapshotImage::Invalid(format!("read snapshot: {e}"));
    }
    if magic == SNAP1_MAGIC {
        return SnapshotImage::Invalid("unsupported legacy snapshot format STIRSNP1".into());
    }
    match open_v2(f, path, fp, cache_budget) {
        Ok(snap) => SnapshotImage::Mapped(snap),
        Err(e) => SnapshotImage::Invalid(e.msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(tag: &str, bytes: &[u8]) -> SnapshotImage {
        let path = std::env::temp_dir().join(format!("stir-snap-{tag}-{}", std::process::id()));
        std::fs::write(&path, bytes).expect("writes");
        let image = load_snapshot(&path, 1, 1 << 20);
        let _ = std::fs::remove_file(&path);
        image
    }

    #[test]
    fn missing_file_is_missing_not_invalid() {
        let path = std::env::temp_dir().join("stir-snap-definitely-absent");
        assert!(matches!(
            load_snapshot(&path, 1, 1 << 20),
            SnapshotImage::Missing
        ));
    }

    /// Files no `STIRSNP2` writer produced are rejected with a reason (the
    /// reason is what `RecoveryReport::snapshot_rejected` carries to the
    /// log); the retired format is named, not called damage.
    #[test]
    fn foreign_and_retired_files_are_rejected_with_a_reason() {
        let reject = |tag: &str, bytes: &[u8]| match load(tag, bytes) {
            SnapshotImage::Invalid(reason) => reason,
            _ => panic!("{tag}: must be rejected"),
        };
        let mut v1 = b"STIRSNP1".to_vec();
        v1.extend_from_slice(&[0; 64]);
        assert_eq!(
            reject("v1", &v1),
            "unsupported legacy snapshot format STIRSNP1"
        );
        let mut alien = b"STIRSNP9".to_vec();
        alien.extend_from_slice(&[0; 64]);
        assert!(reject("alien", &alien).contains("bad snapshot magic"));
        assert!(reject("stub", b"STIRSNP2").contains("truncated snapshot"));
        assert!(reject("empty", b"").contains("truncated snapshot"));
    }
}
