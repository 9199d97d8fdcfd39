//! Tuple-level binary serialization of relations.
//!
//! The durability layer (snapshots in `stir_core::wal`) persists whole
//! relations; the der crate owns the byte format because only it knows
//! how to enumerate tuples independently of the index layout. The format
//! is deliberately layout-free: tuples are written in *source* order
//! (via [`Relation::to_sorted_tuples`]), so a dump taken from one index
//! configuration or representation loads cleanly into any other — a
//! snapshot written by the STI mode restores into the legacy mode and
//! vice versa.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! [4 bytes magic "STDT"] [u16 version = 1] [u16 arity]
//! [u64 tuple_count] then tuple_count × arity × [u32 value]
//! ```
//!
//! The header makes a section self-describing: a reader can reject an
//! arity mismatch up front (previously a mismatch silently re-framed the
//! payload into garbage tuples) and truncation errors can name the exact
//! byte offset. A section that does not open with the magic is refused.
//!
//! Nullary relations encode their presence flag as a count of 0 or 1
//! with zero payload bytes per tuple. Integrity (checksums) is the
//! *container's* job — the snapshot file wraps these sections in a CRC —
//! so this module only validates structural well-formedness.

use crate::relation::Relation;
use crate::tuple::RamDomain;
use std::io::{Error, ErrorKind, Read, Write};

/// Magic bytes opening a headered tuple section.
pub const SECTION_MAGIC: [u8; 4] = *b"STDT";

/// Current tuple-section format version.
pub const SECTION_VERSION: u16 = 1;

/// Writes all tuples of `rel` (source order, sorted) to `w`.
///
/// Returns the number of tuples written.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_tuples(w: &mut dyn Write, rel: &Relation) -> std::io::Result<u64> {
    let tuples = rel.to_sorted_tuples();
    let count = tuples.len() as u64;
    w.write_all(&SECTION_MAGIC)?;
    w.write_all(&SECTION_VERSION.to_le_bytes())?;
    w.write_all(&(rel.arity() as u16).to_le_bytes())?;
    w.write_all(&count.to_le_bytes())?;
    for t in &tuples {
        for &v in t {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(count)
}

/// Reads exactly `buf.len()` bytes, turning a short read into an error
/// naming the byte offset (relative to the section start) where input
/// ran out.
fn read_at(r: &mut dyn Read, buf: &mut [u8], off: u64, what: &str) -> std::io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            Error::new(
                ErrorKind::UnexpectedEof,
                format!("truncated tuple section: {what} at byte offset {off}"),
            )
        } else {
            e
        }
    })
}

/// Reads a tuple section written by [`write_tuples`] for a relation of
/// the given arity, returning the decoded tuples.
///
/// # Errors
///
/// Fails on I/O errors, on truncated input (`UnexpectedEof`, naming the
/// byte offset where the data ran out), and with `InvalidData` naming the
/// offending offset on a missing magic, an unsupported section version,
/// or an arity mismatch between the header and `arity`.
pub fn read_tuples(r: &mut dyn Read, arity: usize) -> std::io::Result<Vec<Vec<RamDomain>>> {
    let mut head = [0u8; 8];
    read_at(r, &mut head, 0, "section header")?;
    let invalid = |msg: String| Err(Error::new(ErrorKind::InvalidData, msg));
    if head[..4] != SECTION_MAGIC {
        return invalid("not a tuple section: no STDT magic at byte offset 0".to_owned());
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != SECTION_VERSION {
        return invalid(format!(
            "unsupported tuple section version {version} at byte offset 4 \
             (expected {SECTION_VERSION})"
        ));
    }
    let section_arity = u16::from_le_bytes([head[6], head[7]]) as usize;
    if section_arity != arity {
        return invalid(format!(
            "tuple section arity mismatch at byte offset 6: \
             section holds arity-{section_arity} tuples, reader expected arity {arity}"
        ));
    }
    let mut count = [0u8; 8];
    read_at(r, &mut count, 8, "tuple count")?;
    let (count, mut off) = (u64::from_le_bytes(count), 16);
    let mut tuples = Vec::new();
    let mut word = [0u8; 4];
    for i in 0..count {
        let mut t = Vec::with_capacity(arity);
        for _ in 0..arity {
            read_at(
                r,
                &mut word,
                off,
                &format!("tuple {i} of {count} (arity {arity})"),
            )?;
            off += 4;
            t.push(RamDomain::from_le_bytes(word));
        }
        tuples.push(t);
    }
    Ok(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynindex::DynBTreeIndex;
    use crate::factory::{IndexSpec, Representation};
    use crate::order::Order;
    use crate::IndexAdapter;

    fn sample() -> Relation {
        let mut rel = Relation::new(
            "edge",
            2,
            vec![
                IndexSpec::btree_natural(2),
                IndexSpec::new(Representation::BTree, Order::new(vec![1, 0])),
            ],
        );
        rel.insert(&[1, 9]);
        rel.insert(&[2, 8]);
        rel.insert(&[3, 7]);
        rel
    }

    #[test]
    fn round_trips_through_bytes() {
        let src = sample();
        let mut buf = Vec::new();
        assert_eq!(write_tuples(&mut buf, &src).expect("writes"), 3);
        // magic(4) + version(2) + arity(2) + count(8) + payload
        assert_eq!(buf.len(), 16 + 3 * 2 * 4);
        assert_eq!(&buf[..4], b"STDT");

        let mut cursor = buf.as_slice();
        let tuples = read_tuples(&mut cursor, 2).expect("reads");
        assert!(cursor.is_empty(), "section is self-delimiting");
        assert_eq!(tuples, src.to_sorted_tuples());
    }

    #[test]
    fn loads_across_different_layouts() {
        // A dump from a permuted-primary STI relation restores into a
        // legacy comparator relation (and back) because the bytes are
        // source-order tuples, not index storage.
        let src = sample();
        let mut buf = Vec::new();
        write_tuples(&mut buf, &src).expect("writes");

        let mut legacy = Relation::from_adapters(
            "edge",
            2,
            vec![Box::new(DynBTreeIndex::new(Order::new(vec![1, 0]))) as Box<dyn IndexAdapter>],
        );
        for t in read_tuples(&mut buf.as_slice(), 2).expect("reads") {
            legacy.insert(&t);
        }
        assert_eq!(legacy.to_sorted_tuples(), src.to_sorted_tuples());

        let mut back = Vec::new();
        write_tuples(&mut back, &legacy).expect("writes");
        assert_eq!(back, buf, "dump is layout-independent");
    }

    #[test]
    fn nullary_relations_round_trip() {
        let mut flag = Relation::new("flag", 0, vec![]);
        let mut buf = Vec::new();
        assert_eq!(write_tuples(&mut buf, &flag).expect("writes"), 0);
        flag.insert(&[]);
        let mut buf = Vec::new();
        assert_eq!(write_tuples(&mut buf, &flag).expect("writes"), 1);
        assert_eq!(buf.len(), 16);
        let tuples = read_tuples(&mut buf.as_slice(), 0).expect("reads");
        assert_eq!(tuples, vec![Vec::<RamDomain>::new()]);
    }

    #[test]
    fn sections_without_the_magic_are_refused_at_offset_0() {
        // A bare u64 count then packed tuples: no header, so no section.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u64.to_le_bytes());
        for v in [1u32, 9, 2, 8] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let err = read_tuples(&mut buf.as_slice(), 2).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("byte offset 0"), "{err}");
    }

    #[test]
    fn truncated_input_is_an_error_naming_the_offset() {
        let src = sample();
        let mut buf = Vec::new();
        write_tuples(&mut buf, &src).expect("writes");
        buf.truncate(buf.len() - 2);
        let err = read_tuples(&mut buf.as_slice(), 2).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // Payload starts at 16; tuple 2's second word sits at 16 + 5*4.
        assert!(
            err.to_string().contains("byte offset 36"),
            "error names the failing offset: {err}"
        );
        assert!(err.to_string().contains("tuple 2 of 3"), "{err}");
    }

    #[test]
    fn arity_mismatch_is_rejected_up_front() {
        let src = sample();
        let mut buf = Vec::new();
        write_tuples(&mut buf, &src).expect("writes");
        let err = read_tuples(&mut buf.as_slice(), 3).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("arity mismatch"), "{err}");
        assert!(err.to_string().contains("byte offset 6"), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let src = sample();
        let mut buf = Vec::new();
        write_tuples(&mut buf, &src).expect("writes");
        buf[4] = 99;
        let err = read_tuples(&mut buf.as_slice(), 2).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn eqrel_dumps_its_closure() {
        let mut rel = Relation::new(
            "eq",
            2,
            vec![IndexSpec::new(Representation::EqRel, Order::natural(2))],
        );
        rel.insert(&[1, 2]);
        let mut buf = Vec::new();
        // The closure (1,1) (1,2) (2,1) (2,2) is what gets persisted;
        // reloading closed pairs is idempotent.
        assert_eq!(write_tuples(&mut buf, &rel).expect("writes"), 4);
        let mut restored = Relation::new(
            "eq",
            2,
            vec![IndexSpec::new(Representation::EqRel, Order::natural(2))],
        );
        for t in read_tuples(&mut buf.as_slice(), 2).expect("reads") {
            restored.insert(&t);
        }
        assert_eq!(restored.to_sorted_tuples(), rel.to_sorted_tuples());
    }
}
