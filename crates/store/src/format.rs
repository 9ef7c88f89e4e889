//! The versioned binary snapshot format and its encoder.
//!
//! Layout (all integers little-endian, see `docs/SNAPSHOTS.md`):
//!
//! ```text
//! magic  [u8; 8]    = "DSTSNAP\0"
//! version u32       = 1
//! count   u32       = number of section-table entries
//! table   [entry]   = count × { tag [u8;4], offset u64, len u64, checksum64 u64 }
//! payloads          = the sections' bytes, at the offsets the table declares
//! ```
//!
//! Sections of version 1 (`n` nodes, `m` edges):
//!
//! | tag    | required | payload                                              |
//! |--------|----------|------------------------------------------------------|
//! | `META` | yes      | 48 bytes: n, m, flags, next_stable, max_degree, 0 (u64 each) |
//! | `OFFS` | yes      | CSR offsets, `(n + 1) × u32`                          |
//! | `ADJN` | yes      | adjacency neighbor node ids, `2m × u32`               |
//! | `ADJE` | yes      | adjacency edge ids, `2m × u32`, parallel to `ADJN`    |
//! | `ENDP` | yes      | edge endpoints, `2m × u32`, interleaved (u, v) pairs  |
//! | `COLR` | flag 0   | per-edge colors, `m × u32`, `u32::MAX` = uncolored    |
//! | `STBL` | flag 1   | per-edge stable ids, `m × u32`                        |
//! | `PERM` | flag 2   | node permutation `old_of_new`, `n × u32`              |
//!
//! Everything is hand-rolled over `std`, and every section carries a
//! word-chunked FNV-1a 64 checksum (`checksum64`) so corruption is detected
//! before any payload is interpreted.

use crate::error::SnapshotError;
use distgraph::{DynamicGraph, EdgeColoring, Graph, GraphError, NodePermutation};
use std::fs;
use std::path::Path;

/// The 8 magic bytes every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"DSTSNAP\0";
/// The format version this build writes and the newest it reads.
pub const VERSION: u32 = 1;

/// Fixed header size: magic + version + section count.
pub(crate) const HEADER_LEN: usize = 16;
/// Size of one section-table entry: tag + offset + len + checksum.
pub(crate) const TABLE_ENTRY_LEN: usize = 28;
/// Size of the `META` section payload.
pub(crate) const META_LEN: usize = 48;

/// Section tags of version 1.
pub(crate) const TAG_META: [u8; 4] = *b"META";
pub(crate) const TAG_OFFS: [u8; 4] = *b"OFFS";
pub(crate) const TAG_ADJN: [u8; 4] = *b"ADJN";
pub(crate) const TAG_ADJE: [u8; 4] = *b"ADJE";
pub(crate) const TAG_ENDP: [u8; 4] = *b"ENDP";
pub(crate) const TAG_COLR: [u8; 4] = *b"COLR";
pub(crate) const TAG_STBL: [u8; 4] = *b"STBL";
pub(crate) const TAG_PERM: [u8; 4] = *b"PERM";

/// META flag bits announcing optional sections.
pub(crate) const FLAG_COLORING: u64 = 1 << 0;
pub(crate) const FLAG_STABLE: u64 = 1 << 1;
pub(crate) const FLAG_PERMUTATION: u64 = 1 << 2;
pub(crate) const FLAG_ALL: u64 = FLAG_COLORING | FLAG_STABLE | FLAG_PERMUTATION;

/// The per-section checksum: four interleaved FNV-1a 64 lanes over 8-byte
/// little-endian words, combined and finished byte-at-a-time.
///
/// Open-time validation hashes every payload byte, and textbook
/// byte-at-a-time FNV-1a is one serial xor→multiply dependency chain — it
/// was the dominant cost of opening a 25 MiB snapshot. This variant folds a
/// whole word per step and keeps four independent chains (lane `j` folds
/// words `j, j + 4, j + 8, …` of the input), so the multiplies pipeline
/// instead of serializing; the lanes are then combined in order and the
/// trailing `len % 32` bytes are folded byte-at-a-time. Inputs shorter than
/// 32 bytes take the textbook byte loop unchanged, so short-input hashes
/// match the classic FNV-1a 64 test vectors; longer inputs intentionally do
/// not (the format owns its checksum definition — see `docs/SNAPSHOTS.md`).
/// Good enough to catch the bit flips and truncations the corruption
/// battery simulates; not a cryptographic integrity guarantee.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    if bytes.len() < 32 {
        let mut hash = BASIS;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
        return hash;
    }
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte word"));
    let mut lanes = [
        BASIS,
        BASIS ^ PRIME,
        BASIS.rotate_left(17),
        BASIS.rotate_left(31),
    ];
    let mut groups = bytes.chunks_exact(32);
    for g in &mut groups {
        lanes[0] = (lanes[0] ^ word(&g[0..8])).wrapping_mul(PRIME);
        lanes[1] = (lanes[1] ^ word(&g[8..16])).wrapping_mul(PRIME);
        lanes[2] = (lanes[2] ^ word(&g[16..24])).wrapping_mul(PRIME);
        lanes[3] = (lanes[3] ^ word(&g[24..32])).wrapping_mul(PRIME);
    }
    let mut hash = lanes[0];
    for &lane in &lanes[1..] {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    for &b in groups.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

fn push_u32s(out: &mut Vec<u8>, values: impl IntoIterator<Item = u32>) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Everything one snapshot can carry, borrowed from the caller: a graph plus
/// optional per-edge coloring, stable-id table and node permutation.
///
/// # Examples
///
/// ```
/// use diststore::{Snapshot, SnapshotSource};
/// use distgraph::generators;
///
/// let g = generators::cycle(8);
/// let bytes = SnapshotSource::graph(&g).encode()?;
/// let snap = Snapshot::from_bytes(bytes)?;
/// assert_eq!(snap.view().n(), 8);
/// # Ok::<(), diststore::SnapshotError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotSource<'a> {
    graph: &'a Graph,
    coloring: Option<&'a EdgeColoring>,
    stable: Option<(&'a [distgraph::EdgeId], usize)>,
    permutation: Option<&'a NodePermutation>,
}

impl<'a> SnapshotSource<'a> {
    /// A snapshot of just the graph structure.
    pub fn graph(graph: &'a Graph) -> Self {
        SnapshotSource {
            graph,
            coloring: None,
            stable: None,
            permutation: None,
        }
    }

    /// A snapshot of a dynamic graph: its current structure plus the
    /// stable-id table and high-water mark, so `EdgeId` stability survives
    /// the round-trip.
    pub fn dynamic(dynamic: &'a DynamicGraph) -> Self {
        SnapshotSource {
            graph: dynamic.graph(),
            coloring: None,
            stable: Some((dynamic.stable_table(), dynamic.next_stable_id())),
            permutation: None,
        }
    }

    /// Attaches a (possibly partial) edge coloring.
    ///
    /// # Panics
    ///
    /// Panics if the coloring is not sized for the graph's edge count — that
    /// is a caller bug, not a decode-time condition.
    pub fn with_coloring(mut self, coloring: &'a EdgeColoring) -> Self {
        assert_eq!(
            coloring.len(),
            self.graph.m(),
            "coloring covers {} edges, graph has {}",
            coloring.len(),
            self.graph.m()
        );
        self.coloring = Some(coloring);
        self
    }

    /// Attaches the node permutation that produced this graph's numbering
    /// (stored so node-keyed data can be mapped back to original ids).
    ///
    /// # Panics
    ///
    /// Panics if the permutation does not act on exactly the graph's nodes.
    pub fn with_permutation(mut self, permutation: &'a NodePermutation) -> Self {
        assert_eq!(
            permutation.len(),
            self.graph.n(),
            "permutation acts on {} nodes, graph has {}",
            permutation.len(),
            self.graph.n()
        );
        self.permutation = Some(permutation);
        self
    }

    /// Encodes the snapshot into its binary form.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Graph`] with
    /// [`GraphError::IndexOverflow`] if any stored quantity does not fit the
    /// format's `u32` element type (adjacency length `2m`, a color value, or
    /// the stable-id high-water mark).
    pub fn encode(&self) -> Result<Vec<u8>, SnapshotError> {
        let g = self.graph;
        let n = g.n();
        let m = g.m();
        let offsets = g.csr_offsets();
        // Node and edge ids fit u32 by construction, but the *offsets* go up
        // to 2m, which a near-u32::MAX edge count pushes past u32.
        if offsets[n] > u32::MAX as usize {
            return Err(GraphError::IndexOverflow {
                what: "adjacency length",
                index: offsets[n] as u64,
            }
            .into());
        }

        let mut flags = 0u64;
        let mut sections: Vec<([u8; 4], Vec<u8>)> = Vec::with_capacity(8);

        let mut offs = Vec::with_capacity((n + 1) * 4);
        push_u32s(&mut offs, offsets.iter().map(|&o| o as u32));

        let mut adjn = Vec::with_capacity(2 * m * 4);
        let mut adje = Vec::with_capacity(2 * m * 4);
        for v in g.nodes() {
            for nb in g.neighbors(v) {
                adjn.extend_from_slice(&nb.node.0.to_le_bytes());
                adje.extend_from_slice(&nb.edge.0.to_le_bytes());
            }
        }

        let mut endp = Vec::with_capacity(2 * m * 4);
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            endp.extend_from_slice(&u.0.to_le_bytes());
            endp.extend_from_slice(&v.0.to_le_bytes());
        }

        sections.push((TAG_OFFS, offs));
        sections.push((TAG_ADJN, adjn));
        sections.push((TAG_ADJE, adje));
        sections.push((TAG_ENDP, endp));

        if let Some(coloring) = self.coloring {
            let mut colr = Vec::with_capacity(m * 4);
            for e in g.edges() {
                let raw = match coloring.color(e) {
                    // u32::MAX is the uncolored sentinel, so the largest
                    // storable color is u32::MAX - 1.
                    Some(c) => u32::try_from(c).ok().filter(|&c| c != u32::MAX).ok_or(
                        GraphError::IndexOverflow {
                            what: "color value",
                            index: c as u64,
                        },
                    )?,
                    None => u32::MAX,
                };
                colr.extend_from_slice(&raw.to_le_bytes());
            }
            sections.push((TAG_COLR, colr));
            flags |= FLAG_COLORING;
        }

        let mut next_stable = 0u64;
        if let Some((table, next)) = self.stable {
            // Stable ids are u32, so a consistent high-water mark can be at
            // most u32::MAX + 1; anything larger cannot round-trip.
            if next > u32::MAX as usize + 1 {
                return Err(GraphError::IndexOverflow {
                    what: "stable edge id",
                    index: next as u64,
                }
                .into());
            }
            let mut stbl = Vec::with_capacity(m * 4);
            push_u32s(&mut stbl, table.iter().map(|id| id.0));
            sections.push((TAG_STBL, stbl));
            flags |= FLAG_STABLE;
            next_stable = next as u64;
        }

        if let Some(perm) = self.permutation {
            let mut pbytes = Vec::with_capacity(n * 4);
            push_u32s(&mut pbytes, perm.old_of_new().iter().copied());
            sections.push((TAG_PERM, pbytes));
            flags |= FLAG_PERMUTATION;
        }

        let mut meta = Vec::with_capacity(META_LEN);
        for word in [
            n as u64,
            m as u64,
            flags,
            next_stable,
            g.max_degree() as u64,
            0u64,
        ] {
            meta.extend_from_slice(&word.to_le_bytes());
        }
        sections.insert(0, (TAG_META, meta));

        // Assemble: header, table, payloads in table order.
        let count = sections.len();
        let mut out = Vec::with_capacity(
            HEADER_LEN
                + count * TABLE_ENTRY_LEN
                + sections.iter().map(|(_, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(count as u32).to_le_bytes());
        let mut offset = (HEADER_LEN + count * TABLE_ENTRY_LEN) as u64;
        for (tag, payload) in &sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&checksum64(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        Ok(out)
    }

    /// Encodes the snapshot and writes it to `path`.
    ///
    /// # Errors
    ///
    /// Encoding errors as in [`SnapshotSource::encode`], plus any filesystem
    /// error as [`SnapshotError::Io`].
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let bytes = self.encode()?;
        fs::write(path, bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distgraph::generators;

    #[test]
    fn checksum_vectors() {
        // Inputs shorter than 32 bytes take the byte loop and match the
        // standard FNV-1a 64 test vectors.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum64(b"foobar"), 0x85944171f73967e8);
        // Lane-path vectors, pinned: the checksum is part of the on-disk
        // format, so any change to the folding breaks every existing
        // snapshot and must show up here first. One exact multiple of the
        // 32-byte group, one with a 13-byte tail.
        let bytes: Vec<u8> = (0u8..45).collect();
        assert_eq!(checksum64(&bytes[..32]), 0x27d2_bf62_3fb9_b32a);
        assert_eq!(checksum64(&bytes), 0x4a8b_7574_589a_d0da);
    }

    #[test]
    fn encoded_layout_starts_with_magic_and_version() {
        let g = generators::cycle(5);
        let bytes = SnapshotSource::graph(&g).encode().unwrap();
        assert_eq!(&bytes[..8], &MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            VERSION
        );
        // Five mandatory sections, no optional ones.
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 5);
    }

    #[test]
    fn oversized_color_is_a_typed_error() {
        let g = generators::cycle(3);
        let mut coloring = EdgeColoring::empty(g.m());
        coloring.set(distgraph::EdgeId::new(0), u32::MAX as usize);
        let err = SnapshotSource::graph(&g)
            .with_coloring(&coloring)
            .encode()
            .unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Graph(GraphError::IndexOverflow {
                what: "color value",
                ..
            })
        ));
    }
}
