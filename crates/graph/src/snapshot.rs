//! Persistent on-disk snapshots of a built session — the compiled-graph
//! artifact that makes warm `load`s O(graph size) instead of O(trace
//! length).
//!
//! The paper's OPT representation front-loads its cost into a one-time
//! graph construction; everything after that is cheap traversal. But the
//! construction replays the whole trace, and `dynslice serve` pays it on
//! *every* `load` of the same program+input. A snapshot freezes the built
//! [`CompactGraph`] — the full static component ([`NodeGraph`] arenas,
//! which cannot be rebuilt from source alone because hot-path
//! specialization depends on the trace profile) plus the dynamic label
//! arenas — together with the provenance needed to know when it is stale:
//! the MiniC source text, the input tape, and the [`OptConfig`].
//!
//! # Format
//!
//! Hand-rolled little-endian binary (no new dependencies, matching the
//! obs-JSON precedent). Layout:
//!
//! ```text
//! magic   8 bytes  b"DSNAPV1\0"  (a fixed file tag; the version is the next field)
//! version u32      FORMAT_VERSION (2)
//! digest  u64      FNV-1a over (source, input, config) — provenance key
//! then sections, in fixed order, each framed as:
//!   tag      u8
//!   len      u64   payload length in bytes
//!   payload  len bytes
//!   checksum u64   checksum(payload)
//! ```
//!
//! Version 2 changed only the section checksum, from byte-serial FNV-1a
//! to [`checksum`], a four-lane word-at-a-time sum; the payloads are the
//! same bytes version 1 wrote. A version-1 file decodes to
//! [`SnapshotError::UnsupportedVersion`], which the session manager's
//! digest-keyed cache treats as a miss and overwrites. FNV-1a remains
//! only in [`digest`], whose value names cache files, so cache file
//! names did not change.
//!
//! Sections: `source`, `input`, `config`, `nodes`, `dyn` (channels +
//! dynamic edge lists), `criteria` (last-def map, outputs, execution
//! count), `stats`. Hash maps and edge lists are serialized with keys
//! sorted, so encoding is deterministic: the same graph always produces
//! the same bytes. The `dyn` channels decode straight into the graph's
//! label arena, and its lists into the compressed-sparse-row edge arrays,
//! so their key order is checked, not assumed. Each list's edges are
//! written in ascending channel id; the graph probes them longest channel
//! first, and decoding puts them back in that order.
//!
//! # Integrity
//!
//! Every decode failure is a typed [`SnapshotError`] — truncated input,
//! checksum mismatch (a change to any single 8-byte word of a payload is
//! always caught, see [`checksum`]), unknown enum tag, length prefix past
//! the section end, inconsistent arena sizes — never a panic and never a
//! silently wrong graph. The decoder re-derives the provenance digest from the
//! decoded source/input/config and refuses a file whose header digest
//! disagrees. Round-trip bit-identity (`encode` → `decode` →
//! [`CompactGraph::first_difference`] `== None`) is pinned by the
//! differential test suite; the decoder reassembles channels through a
//! constructor that does **not** re-sort them, because
//! `sort_unstable_by_key` may permute equal-key pairs.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use dynslice_ir::{BlockId, FuncId, StmtId, VarId};
use dynslice_runtime::Cell;

use crate::compact::{CompactGraph, EdgeRows, EdgeRowsBuilder, Labels, NONE_TARGET};
use crate::nodes::{
    CdRes, NodeData, NodeGraph, NodeKind, OptConfig, SpecPolicy, UseRes, UseRows, UseShape,
};
use crate::size::{BuildStats, OptKind};

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DSNAPV1\0";

/// Bumped on any breaking change to the file layout or its checksums.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot failed to decode. Every variant is a recoverable,
/// typed condition: corruption can never panic or produce a wrong graph.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The input ended before the named section was complete.
    Truncated {
        /// Section being decoded when the bytes ran out.
        section: &'static str,
    },
    /// The named section is structurally invalid (checksum mismatch,
    /// unknown enum tag, length prefix past the section end, arena size
    /// disagreement).
    Corrupt {
        /// Section the corruption was detected in.
        section: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The header digest disagrees with the digest recomputed from the
    /// decoded source/input/config — the artifact does not describe the
    /// provenance it claims.
    DigestMismatch {
        /// Digest stored in the header.
        stored: u64,
        /// Digest recomputed from the decoded sections.
        computed: u64,
    },
    /// An underlying I/O failure (file-level helpers only).
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a dynslice snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v} (expected {FORMAT_VERSION})")
            }
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated in section `{section}`")
            }
            SnapshotError::Corrupt { section, detail } => {
                write!(f, "snapshot corrupt in section `{section}`: {detail}")
            }
            SnapshotError::DigestMismatch { stored, computed } => write!(
                f,
                "snapshot digest mismatch: header says {stored:016x}, contents hash to {computed:016x}"
            ),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// A decoded (or to-be-encoded) session snapshot: the built graph plus
/// the provenance that keys cache validity.
#[derive(Debug)]
pub struct Snapshot {
    /// The MiniC source the graph was built from. It keys provenance; a
    /// session restore does not recompile it, because graph-backed
    /// backends read only the graph.
    pub source: String,
    /// The input tape of the traced run.
    pub input: Vec<i64>,
    /// The optimization configuration the graph was built with.
    pub config: OptConfig,
    /// The built compacted graph, bit-identical to the fresh build.
    pub graph: CompactGraph,
}

/// The provenance digest: FNV-1a 64 over the canonical encoding of
/// (source, input, config). Two builds share a digest exactly when they
/// would build the same graph modulo trace nondeterminism — which this
/// deterministic VM does not have.
pub fn digest(source: &str, input: &[i64], config: &OptConfig) -> u64 {
    let mut buf = Vec::with_capacity(source.len() + input.len() * 8 + 16);
    buf.extend_from_slice(source.as_bytes());
    buf.push(0xff);
    for v in input {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.push(0xff);
    encode_config(&mut buf, config);
    fnv1a(&buf)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The integrity checksum of one section payload (format version 2).
///
/// `bytes` is read as little-endian 64-bit words, the last one padded
/// with zero bytes. Word `i` feeds lane `i % 4`, so the four lanes'
/// multiply chains run side by side instead of one byte at a time. A lane
/// step is `lane = rotl(lane + word * P2, 31) * P1` with odd `P1` and
/// `P2`: for a fixed word it is a bijection of the lane, and for a fixed
/// lane it is injective in the word. The lanes are then folded into one
/// word, each through a bijection of the running value, together with the
/// byte length, and the result is avalanched by another bijection. So
/// two inputs of the same length that differ in exactly one word always
/// have different checksums; a length change is caught by the length
/// term. Multi-word changes are caught with the usual 2⁻⁶⁴ odds.
///
/// Not a cryptographic hash: it detects accidental corruption, not a
/// forger who rewrites the checksum word too.
pub fn checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    const P4: u64 = 0x85eb_ca77_c2b2_ae63;
    fn step(lane: u64, word: u64) -> u64 {
        lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        lanes[0] = step(lanes[0], word(&b[..8]));
        lanes[1] = step(lanes[1], word(&b[8..16]));
        lanes[2] = step(lanes[2], word(&b[16..24]));
        lanes[3] = step(lanes[3], word(&b[24..]));
    }
    for (i, w) in blocks.remainder().chunks(8).enumerate() {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        lanes[i] = step(lanes[i], u64::from_le_bytes(padded));
    }
    let mut h = (bytes.len() as u64).wrapping_mul(P3);
    for lane in lanes {
        h = (h ^ step(0, lane)).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_len(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

fn opt_kind_tag(k: OptKind) -> u8 {
    match k {
        OptKind::LocalDefUse => 0,
        OptKind::PartialDefUse => 1,
        OptKind::UseUse => 2,
        OptKind::PathDefUse => 3,
        OptKind::SharedData => 4,
        OptKind::ControlDelta => 5,
        OptKind::PathControl => 6,
        OptKind::SharedControl => 7,
    }
}

fn encode_config(buf: &mut Vec<u8>, c: &OptConfig) {
    put_u8(buf, c.local_du as u8);
    put_u8(buf, c.use_use as u8);
    put_u8(
        buf,
        match c.spec {
            SpecPolicy::None => 0,
            SpecPolicy::HotPaths => 1,
            SpecPolicy::AllPaths => 2,
        },
    );
    put_u8(buf, c.share_data as u8);
    put_u8(buf, c.cd_delta as u8);
    put_u8(buf, c.cd_local as u8);
    put_u8(buf, c.share_cd as u8);
}

fn encode_nodes(buf: &mut Vec<u8>, n: &NodeGraph) {
    put_len(buf, n.nodes.len());
    for node in &n.nodes {
        put_u32(buf, node.func.0);
        match node.kind {
            NodeKind::Block(b) => {
                put_u8(buf, 0);
                put_u32(buf, b.0);
            }
            NodeKind::Path(p) => {
                put_u8(buf, 1);
                put_u64(buf, p);
            }
        }
        put_len(buf, node.blocks.len());
        for b in &node.blocks {
            put_u32(buf, b.0);
        }
        put_len(buf, node.slot_offsets.len());
        for &o in &node.slot_offsets {
            put_u32(buf, o);
        }
        put_len(buf, node.stmts.len());
        for s in &node.stmts {
            put_u32(buf, s.0);
        }
    }
    put_len(buf, n.node_base.len());
    for &v in &n.node_base {
        put_u32(buf, v);
    }
    put_len(buf, n.block_node.len());
    for per_func in &n.block_node {
        put_len(buf, per_func.len());
        for &v in per_func {
            put_u32(buf, v);
        }
    }
    let mut path_node: Vec<_> = n.path_node.iter().collect();
    path_node.sort_unstable_by_key(|(k, _)| **k);
    put_len(buf, path_node.len());
    for (&(func, path), &node) in path_node {
        put_u32(buf, func);
        put_u64(buf, path);
        put_u32(buf, node);
    }
    put_len(buf, n.occ_stmt.len());
    for s in &n.occ_stmt {
        put_u32(buf, s.0);
    }
    put_len(buf, n.occ_node.len());
    for &v in &n.occ_node {
        put_u32(buf, v);
    }
    put_len(buf, n.occ_block_key.len());
    for &v in &n.occ_block_key {
        put_u32(buf, v);
    }
    put_len(buf, n.occ_block_term.len());
    for s in &n.occ_block_term {
        put_u32(buf, s.0);
    }
    put_len(buf, n.use_res.len());
    for uses in n.use_res.iter() {
        put_len(buf, uses.len());
        for u in uses {
            match *u {
                UseRes::NoDep => put_u8(buf, 0),
                UseRes::StaticDu { target, attr } => {
                    put_u8(buf, 1);
                    put_u32(buf, target);
                    put_u8(buf, opt_kind_tag(attr));
                }
                UseRes::StaticUu { target, use_idx, attr } => {
                    put_u8(buf, 2);
                    put_u32(buf, target);
                    put_u8(buf, use_idx);
                    put_u8(buf, opt_kind_tag(attr));
                }
                UseRes::Dynamic => put_u8(buf, 3),
            }
        }
    }
    put_len(buf, n.cd_res.len());
    for cd in &n.cd_res {
        match *cd {
            CdRes::Dynamic => put_u8(buf, 0),
            CdRes::Static { target, delta, attr } => {
                put_u8(buf, 1);
                put_u32(buf, target);
                put_u64(buf, delta);
                put_u8(buf, opt_kind_tag(attr));
            }
        }
    }
    put_len(buf, n.stmt_shapes.len());
    for shapes in &n.stmt_shapes {
        put_len(buf, shapes.len());
        for s in shapes {
            match *s {
                UseShape::Scalar(v) => {
                    put_u8(buf, 0);
                    put_u32(buf, v.0);
                }
                UseShape::Mem => put_u8(buf, 1),
                UseShape::Ret => put_u8(buf, 2),
            }
        }
    }
    let mut share_data: Vec<_> = n.share_data.iter().collect();
    share_data.sort_unstable_by_key(|(k, _)| **k);
    put_len(buf, share_data.len());
    for (&(us, idx, ds), &group) in share_data {
        put_u32(buf, us.0);
        put_u8(buf, idx);
        put_u32(buf, ds.0);
        put_u32(buf, group);
    }
    let mut share_cd: Vec<_> = n.share_cd.iter().collect();
    share_cd.sort_unstable_by_key(|(k, _)| **k);
    put_len(buf, share_cd.len());
    for (&(term, parent), &group) in share_cd {
        put_u32(buf, term.0);
        put_u32(buf, parent.0);
        put_u32(buf, group);
    }
    put_u32(buf, n.num_groups);
}

/// One dynamic edge list of the DYN section: its key and edges.
type EdgeList<'g, K> = (K, &'g [(u32, u32)]);

fn encode_dyn(buf: &mut Vec<u8>, g: &CompactGraph) {
    let data: Vec<_> = g.data_edge_lists().collect();
    let cd: Vec<_> = g.cd_dyn.rows().map(|(key, edges)| (key as u32, edges)).collect();
    put_dyn(buf, &g.labels, &data, &cd);
}

/// Writes a DYN payload: the channels, then the data and control edge
/// lists in the order given (ascending keys, as the decoder requires).
/// Each list's edges are written in ascending channel id (then target),
/// whatever order the graph probes them in; the decoder puts them back in
/// probe order.
fn put_dyn(
    buf: &mut Vec<u8>,
    labels: &Labels,
    data: &[EdgeList<'_, (u32, u8)>],
    cd: &[EdgeList<'_, u32>],
) {
    let mut sorted = Vec::new();
    let mut put_edges = |buf: &mut Vec<u8>, edges: &[(u32, u32)]| {
        sorted.clear();
        sorted.extend(edges.iter().map(|&(target, chan)| (chan, target)));
        sorted.sort_unstable();
        put_len(buf, edges.len());
        for &(chan, target) in &sorted {
            put_u32(buf, target);
            put_u32(buf, chan);
        }
    };
    put_len(buf, labels.num_channels());
    for chan in 0..labels.num_channels() as u32 {
        let (a, b) = labels.bounds(chan);
        let len = (b - a) as usize;
        put_len(buf, len);
        buf.reserve(len * 16);
        for (td, tu) in labels.channel(chan) {
            put_u64(buf, td);
            put_u64(buf, tu);
        }
    }
    put_len(buf, data.len());
    for &((occ, k), edges) in data {
        put_u32(buf, occ);
        put_u8(buf, k);
        put_edges(buf, edges);
    }
    put_len(buf, cd.len());
    for &(key, edges) in cd {
        put_u32(buf, key);
        put_edges(buf, edges);
    }
}

fn encode_criteria(buf: &mut Vec<u8>, g: &CompactGraph) {
    let mut last_def: Vec<_> = g.last_def.iter().collect();
    last_def.sort_unstable_by_key(|(c, _)| **c);
    put_len(buf, last_def.len());
    for (cell, &(occ, ts)) in last_def {
        put_u64(buf, cell.0);
        put_u32(buf, occ);
        put_u64(buf, ts);
    }
    put_len(buf, g.outputs.len());
    for &(occ, ts) in &g.outputs {
        put_u32(buf, occ);
        put_u64(buf, ts);
    }
    put_u64(buf, g.num_node_execs);
}

fn encode_stats(buf: &mut Vec<u8>, s: &BuildStats) {
    let mut saved: Vec<_> = OptKind::ALL
        .iter()
        .filter(|&&k| s.saved(k) != 0)
        .map(|&k| (opt_kind_tag(k), s.saved(k)))
        .collect();
    saved.sort_unstable();
    put_len(buf, saved.len());
    for (tag, v) in saved {
        put_u8(buf, tag);
        put_u64(buf, v);
    }
    put_u64(buf, s.stored_data_pairs);
    put_u64(buf, s.stored_control_pairs);
    put_u64(buf, s.demoted);
    put_u64(buf, s.total_data);
    put_u64(buf, s.total_control);
}

fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    put_u8(out, tag);
    put_len(out, payload.len());
    out.extend_from_slice(payload);
    put_u64(out, checksum(payload));
}

const TAG_SOURCE: u8 = 1;
const TAG_INPUT: u8 = 2;
const TAG_CONFIG: u8 = 3;
const TAG_NODES: u8 = 4;
const TAG_DYN: u8 = 5;
const TAG_CRITERIA: u8 = 6;
const TAG_STATS: u8 = 7;

/// Encodes `snap` into the versioned, checksummed byte format.
/// Deterministic: the same snapshot always encodes to the same bytes.
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, digest(&snap.source, &snap.input, &snap.config));

    let mut payload = Vec::new();
    payload.extend_from_slice(snap.source.as_bytes());
    push_section(&mut out, TAG_SOURCE, &payload);

    payload.clear();
    put_len(&mut payload, snap.input.len());
    for v in &snap.input {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    push_section(&mut out, TAG_INPUT, &payload);

    payload.clear();
    encode_config(&mut payload, &snap.config);
    push_section(&mut out, TAG_CONFIG, &payload);

    payload.clear();
    encode_nodes(&mut payload, &snap.graph.nodes);
    push_section(&mut out, TAG_NODES, &payload);

    payload.clear();
    encode_dyn(&mut payload, &snap.graph);
    push_section(&mut out, TAG_DYN, &payload);

    payload.clear();
    encode_criteria(&mut payload, &snap.graph);
    push_section(&mut out, TAG_CRITERIA, &payload);

    payload.clear();
    encode_stats(&mut payload, &snap.graph.stats);
    push_section(&mut out, TAG_STATS, &payload);

    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked cursor over one section's payload. Every read failure
/// is a typed error naming the section; length prefixes are validated
/// against the bytes actually present before any allocation, so a
/// corrupted length can neither panic nor balloon memory.
struct Reader<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader { rest: buf, section }
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.rest.len() < n {
            return Err(SnapshotError::Truncated { section: self.section });
        }
        let (s, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length prefix and the `len × elem_bytes` bytes of the
    /// fixed-width elements after it, for decoding in one pass over
    /// `chunks_exact(elem_bytes)`.
    fn array(&mut self, elem_bytes: usize) -> Result<&'a [u8], SnapshotError> {
        let n = self.len(elem_bytes)?;
        // `len` bounds `n` by the bytes left, so the product fits.
        self.take(n * elem_bytes)
    }

    /// A collection-length prefix. `min_elem_bytes` is the smallest
    /// possible encoding of one element; a length that could not fit in
    /// the remaining bytes is corruption, reported before any allocation.
    fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let raw = self.u64()?;
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if raw > cap {
            return Err(self.corrupt(format!(
                "length prefix {raw} exceeds the {} bytes left in the section",
                self.remaining()
            )));
        }
        Ok(raw as usize)
    }

    fn corrupt(&self, detail: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt { section: self.section, detail: detail.into() }
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

fn opt_kind_from(tag: u8, r: &Reader<'_>) -> Result<OptKind, SnapshotError> {
    Ok(match tag {
        0 => OptKind::LocalDefUse,
        1 => OptKind::PartialDefUse,
        2 => OptKind::UseUse,
        3 => OptKind::PathDefUse,
        4 => OptKind::SharedData,
        5 => OptKind::ControlDelta,
        6 => OptKind::PathControl,
        7 => OptKind::SharedControl,
        t => return Err(r.corrupt(format!("unknown OptKind tag {t}"))),
    })
}

fn decode_config(r: &mut Reader<'_>) -> Result<OptConfig, SnapshotError> {
    let flag = |r: &mut Reader<'_>| -> Result<bool, SnapshotError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(r.corrupt(format!("boolean flag must be 0 or 1, got {t}"))),
        }
    };
    let local_du = flag(r)?;
    let use_use = flag(r)?;
    let spec = match r.u8()? {
        0 => SpecPolicy::None,
        1 => SpecPolicy::HotPaths,
        2 => SpecPolicy::AllPaths,
        t => return Err(r.corrupt(format!("unknown SpecPolicy tag {t}"))),
    };
    let share_data = flag(r)?;
    let cd_delta = flag(r)?;
    let cd_local = flag(r)?;
    let share_cd = flag(r)?;
    Ok(OptConfig { local_du, use_use, spec, share_data, cd_delta, cd_local, share_cd })
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

fn decode_u32_vec(r: &mut Reader<'_>) -> Result<Vec<u32>, SnapshotError> {
    Ok(r.array(4)?.chunks_exact(4).map(le_u32).collect())
}

fn decode_nodes(r: &mut Reader<'_>) -> Result<NodeGraph, SnapshotError> {
    let num_nodes = r.len(1)?;
    let mut nodes = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let func = FuncId(r.u32()?);
        let kind = match r.u8()? {
            0 => NodeKind::Block(BlockId(r.u32()?)),
            1 => NodeKind::Path(r.u64()?),
            t => return Err(r.corrupt(format!("unknown NodeKind tag {t}"))),
        };
        let blocks = decode_u32_vec(r)?.into_iter().map(BlockId).collect();
        let slot_offsets = decode_u32_vec(r)?;
        let stmts = decode_u32_vec(r)?.into_iter().map(StmtId).collect();
        nodes.push(NodeData { func, kind, blocks, slot_offsets, stmts });
    }
    let node_base = decode_u32_vec(r)?;
    let num_funcs = r.len(8)?;
    let mut block_node = Vec::with_capacity(num_funcs);
    for _ in 0..num_funcs {
        block_node.push(decode_u32_vec(r)?);
    }
    let num_paths = r.len(16)?;
    let mut path_node = HashMap::with_capacity(num_paths);
    for _ in 0..num_paths {
        let func = r.u32()?;
        let path = r.u64()?;
        let node = r.u32()?;
        path_node.insert((func, path), node);
    }
    let occ_stmt: Vec<StmtId> = decode_u32_vec(r)?.into_iter().map(StmtId).collect();
    let occ_node = decode_u32_vec(r)?;
    let occ_block_key = decode_u32_vec(r)?;
    let occ_block_term: Vec<StmtId> = decode_u32_vec(r)?.into_iter().map(StmtId).collect();
    let num_use = r.len(8)?;
    let mut use_res = UseRows::with_capacity(num_use, num_use);
    let mut uses = Vec::new();
    for _ in 0..num_use {
        let n = r.len(1)?;
        uses.clear();
        for _ in 0..n {
            uses.push(match r.u8()? {
                0 => UseRes::NoDep,
                1 => {
                    let target = r.u32()?;
                    let attr = r.u8()?;
                    UseRes::StaticDu { target, attr: opt_kind_from(attr, r)? }
                }
                2 => {
                    let target = r.u32()?;
                    let use_idx = r.u8()?;
                    let attr = r.u8()?;
                    UseRes::StaticUu { target, use_idx, attr: opt_kind_from(attr, r)? }
                }
                3 => UseRes::Dynamic,
                t => return Err(r.corrupt(format!("unknown UseRes tag {t}"))),
            });
        }
        use_res.push(uses.drain(..));
    }
    let num_cd = r.len(1)?;
    let mut cd_res = Vec::with_capacity(num_cd);
    for _ in 0..num_cd {
        cd_res.push(match r.u8()? {
            0 => CdRes::Dynamic,
            1 => {
                let target = r.u32()?;
                let delta = r.u64()?;
                let attr = r.u8()?;
                CdRes::Static { target, delta, attr: opt_kind_from(attr, r)? }
            }
            t => return Err(r.corrupt(format!("unknown CdRes tag {t}"))),
        });
    }
    let num_shapes = r.len(8)?;
    let mut stmt_shapes = Vec::with_capacity(num_shapes);
    for _ in 0..num_shapes {
        let n = r.len(1)?;
        let mut shapes = Vec::with_capacity(n);
        for _ in 0..n {
            shapes.push(match r.u8()? {
                0 => UseShape::Scalar(VarId(r.u32()?)),
                1 => UseShape::Mem,
                2 => UseShape::Ret,
                t => return Err(r.corrupt(format!("unknown UseShape tag {t}"))),
            });
        }
        stmt_shapes.push(shapes);
    }
    let num_share_data = r.len(13)?;
    let mut share_data = HashMap::with_capacity(num_share_data);
    for _ in 0..num_share_data {
        let us = StmtId(r.u32()?);
        let idx = r.u8()?;
        let ds = StmtId(r.u32()?);
        let group = r.u32()?;
        share_data.insert((us, idx, ds), group);
    }
    let num_share_cd = r.len(12)?;
    let mut share_cd = HashMap::with_capacity(num_share_cd);
    for _ in 0..num_share_cd {
        let term = StmtId(r.u32()?);
        let parent = StmtId(r.u32()?);
        let group = r.u32()?;
        share_cd.insert((term, parent), group);
    }
    let num_groups = r.u32()?;
    r.done()?;

    let graph = NodeGraph {
        nodes,
        node_base,
        block_node,
        path_node,
        occ_stmt,
        occ_node,
        occ_block_key,
        occ_block_term,
        use_res,
        cd_res,
        stmt_shapes,
        share_data,
        share_cd,
        num_groups,
    };
    let occs = graph.occ_stmt.len();
    if graph.occ_node.len() != occs
        || graph.occ_block_key.len() != occs
        || graph.occ_block_term.len() != occs
        || graph.use_res.len() != occs
        || graph.cd_res.len() != occs
    {
        return Err(SnapshotError::Corrupt {
            section: "nodes",
            detail: format!(
                "occurrence arenas disagree on length ({occs} statements vs {} nodes, {} keys, {} terms, {} use lists, {} cd entries)",
                graph.occ_node.len(),
                graph.occ_block_key.len(),
                graph.occ_block_term.len(),
                graph.use_res.len(),
                graph.cd_res.len(),
            ),
        });
    }
    // Slices are collected in a bitmap over statement ids, one bit per
    // entry of `stmt_shapes`.
    if let Some(s) = graph.occ_stmt.iter().find(|s| s.index() >= graph.stmt_shapes.len()) {
        return Err(SnapshotError::Corrupt {
            section: "nodes",
            detail: format!(
                "occurrence statement {s} is outside the {} statements",
                graph.stmt_shapes.len()
            ),
        });
    }
    Ok(graph)
}

/// The label arena and the data and control edge rows.
type DynArenas = (Labels, EdgeRows, EdgeRows);

/// Decodes the DYN section straight into edge rows. Its keys were written
/// in ascending order; a key out of order, repeated, naming an occurrence
/// or use slot `nodes` lacks, or carrying no edges, and an edge to an
/// occurrence `nodes` lacks, is corruption.
fn decode_dyn(r: &mut Reader<'_>, nodes: &NodeGraph) -> Result<DynArenas, SnapshotError> {
    let num_channels = r.len(8)?;
    let channels = (0..num_channels).map(|_| r.array(16)).collect::<Result<Vec<_>, _>>()?;
    let mut labels =
        Labels::with_capacity(num_channels, channels.iter().map(|c| c.len() / 16).sum());
    for pairs in channels {
        let pairs = pairs.chunks_exact(16);
        labels.push_channel(pairs.clone().map(|p| le_u64(&p[8..])), pairs.map(|p| le_u64(&p[..8])));
    }
    let chan_count = num_channels as u64;
    let num_occs = nodes.num_occs();
    let mut total_edges = 0usize;
    let mut edges = Vec::new();
    // One key's edge list, into `edges`.
    let mut decode_edges = |r: &mut Reader<'_>, key: &dyn fmt::Debug, edges: &mut Vec<_>| {
        let raw = r.array(8)?;
        if raw.is_empty() {
            return Err(r.corrupt(format!("edge key {key:?} has an empty edge list")));
        }
        total_edges += raw.len() / 8;
        if total_edges > u32::MAX as usize {
            return Err(r.corrupt(format!("{total_edges} edges overflow the u32 row offsets")));
        }
        edges.clear();
        for e in raw.chunks_exact(8) {
            let (target, chan) = (le_u32(&e[..4]), le_u32(&e[4..]));
            if chan as u64 >= chan_count {
                return Err(r.corrupt(format!("edge references channel {chan} of {chan_count}")));
            }
            if target != NONE_TARGET && target as usize >= num_occs {
                return Err(r.corrupt(format!("edge targets occurrence {target} of {num_occs}")));
            }
            edges.push((target, chan));
        }
        Ok(())
    };
    let num_data = r.len(13)?;
    let mut data_dyn = EdgeRowsBuilder::new(nodes.use_res.num_slots(), &labels);
    let mut prev = None;
    for _ in 0..num_data {
        let key = (r.u32()?, r.u8()?);
        let (occ, k) = key;
        if let Some(p) = prev.filter(|&p| p >= key) {
            return Err(r.corrupt(format!(
                "data edge key {key:?} follows {p:?}: keys must ascend without repeats"
            )));
        }
        prev = Some(key);
        if occ as usize >= num_occs {
            return Err(r.corrupt(format!("data edge key {key:?}: occurrence {occ} of {num_occs}")));
        }
        let uses = nodes.use_res[occ as usize].len();
        if k as usize >= uses {
            return Err(r.corrupt(format!(
                "data edge key {key:?}: occurrence {occ} has {uses} use slots"
            )));
        }
        decode_edges(r, &key, &mut edges)?;
        data_dyn.push(nodes.use_res.slot(occ, k) as usize, &edges);
    }
    let num_cd = r.len(12)?;
    let mut cd_dyn = EdgeRowsBuilder::new(num_occs, &labels);
    let mut prev = None;
    for _ in 0..num_cd {
        let key = r.u32()?;
        if let Some(p) = prev.filter(|&p| p >= key) {
            return Err(r.corrupt(format!(
                "control edge key {key} follows {p}: keys must ascend without repeats"
            )));
        }
        prev = Some(key);
        if key as usize >= num_occs {
            return Err(r.corrupt(format!("control edge key: occurrence {key} of {num_occs}")));
        }
        decode_edges(r, &key, &mut edges)?;
        cd_dyn.push(key as usize, &edges);
    }
    r.done()?;
    let (data_dyn, cd_dyn) = (data_dyn.finish(), cd_dyn.finish());
    Ok((labels, data_dyn, cd_dyn))
}

type Criteria = (HashMap<Cell, (u32, u64)>, Vec<(u32, u64)>, u64);

fn decode_criteria(r: &mut Reader<'_>) -> Result<Criteria, SnapshotError> {
    let num_defs = r.len(20)?;
    let mut last_def = HashMap::with_capacity(num_defs);
    for _ in 0..num_defs {
        let cell = Cell(r.u64()?);
        let occ = r.u32()?;
        let ts = r.u64()?;
        last_def.insert(cell, (occ, ts));
    }
    let num_outputs = r.len(12)?;
    let mut outputs = Vec::with_capacity(num_outputs);
    for _ in 0..num_outputs {
        let occ = r.u32()?;
        let ts = r.u64()?;
        outputs.push((occ, ts));
    }
    let num_node_execs = r.u64()?;
    r.done()?;
    Ok((last_def, outputs, num_node_execs))
}

fn decode_stats(r: &mut Reader<'_>) -> Result<BuildStats, SnapshotError> {
    let num_saved = r.len(9)?;
    let mut saved = [0; OptKind::ALL.len()];
    let mut prev_tag = None;
    for _ in 0..num_saved {
        let tag = r.u8()?;
        let kind = opt_kind_from(tag, r)?;
        let v = r.u64()?;
        // The writer lists each nonzero kind once, in tag order; anything
        // else would not re-encode to the same bytes.
        if v == 0 || prev_tag.is_some_and(|p| tag <= p) {
            let detail = format!("OptKind tag {tag}: tags must ascend, counts be nonzero");
            return Err(r.corrupt(detail));
        }
        prev_tag = Some(tag);
        saved[kind as usize] = v;
    }
    let stored_data_pairs = r.u64()?;
    let stored_control_pairs = r.u64()?;
    let demoted = r.u64()?;
    let total_data = r.u64()?;
    let total_control = r.u64()?;
    r.done()?;
    Ok(BuildStats {
        saved,
        stored_data_pairs,
        stored_control_pairs,
        demoted,
        total_data,
        total_control,
    })
}

/// Reads one framed section, verifying its tag and checksum.
fn section<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    want_tag: u8,
    name: &'static str,
) -> Result<&'a [u8], SnapshotError> {
    let rest = &bytes[*pos..];
    if rest.is_empty() {
        return Err(SnapshotError::Truncated { section: name });
    }
    let tag = rest[0];
    if tag != want_tag {
        return Err(SnapshotError::Corrupt {
            section: name,
            detail: format!("expected section tag {want_tag}, found {tag}"),
        });
    }
    if rest.len() < 9 {
        return Err(SnapshotError::Truncated { section: name });
    }
    let len = u64::from_le_bytes(rest[1..9].try_into().expect("8 bytes"));
    let Ok(len) = usize::try_from(len) else {
        return Err(SnapshotError::Corrupt {
            section: name,
            detail: format!("section length {len} overflows addressable memory"),
        });
    };
    if rest.len() - 9 < len + 8 {
        return Err(SnapshotError::Truncated { section: name });
    }
    let payload = &rest[9..9 + len];
    let stored = u64::from_le_bytes(rest[9 + len..9 + len + 8].try_into().expect("8 bytes"));
    let computed = checksum(payload);
    if stored != computed {
        return Err(SnapshotError::Corrupt {
            section: name,
            detail: format!("checksum mismatch (stored {stored:016x}, computed {computed:016x})"),
        });
    }
    *pos += 9 + len + 8;
    Ok(payload)
}

/// Decodes a snapshot from `bytes`.
///
/// # Errors
/// A typed [`SnapshotError`] for every malformed input — truncation,
/// checksum mismatch, unknown tags, inconsistent arenas, digest
/// disagreement. Never panics.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut pos = MAGIC.len();
    if bytes.len() < pos + 12 {
        return Err(SnapshotError::Truncated { section: "header" });
    }
    let version = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    pos += 4;
    let stored_digest = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
    pos += 8;

    let payload = section(bytes, &mut pos, TAG_SOURCE, "source")?;
    let source = String::from_utf8(payload.to_vec()).map_err(|e| SnapshotError::Corrupt {
        section: "source",
        detail: format!("source is not UTF-8: {e}"),
    })?;

    let payload = section(bytes, &mut pos, TAG_INPUT, "input")?;
    let mut r = Reader::new(payload, "input");
    let n = r.len(8)?;
    let mut input = Vec::with_capacity(n);
    for _ in 0..n {
        input.push(r.i64()?);
    }
    r.done()?;

    let payload = section(bytes, &mut pos, TAG_CONFIG, "config")?;
    let mut r = Reader::new(payload, "config");
    let config = decode_config(&mut r)?;
    r.done()?;

    let computed = digest(&source, &input, &config);
    if computed != stored_digest {
        return Err(SnapshotError::DigestMismatch { stored: stored_digest, computed });
    }

    let payload = section(bytes, &mut pos, TAG_NODES, "nodes")?;
    let mut r = Reader::new(payload, "nodes");
    let nodes = decode_nodes(&mut r)?;

    let payload = section(bytes, &mut pos, TAG_DYN, "dyn")?;
    let mut r = Reader::new(payload, "dyn");
    let (labels, data_dyn, cd_dyn) = decode_dyn(&mut r, &nodes)?;

    let payload = section(bytes, &mut pos, TAG_CRITERIA, "criteria")?;
    let mut r = Reader::new(payload, "criteria");
    let (last_def, outputs, num_node_execs) = decode_criteria(&mut r)?;

    let payload = section(bytes, &mut pos, TAG_STATS, "stats")?;
    let mut r = Reader::new(payload, "stats");
    let stats = decode_stats(&mut r)?;

    if pos != bytes.len() {
        return Err(SnapshotError::Corrupt {
            section: "stats",
            detail: format!("{} trailing bytes after the last section", bytes.len() - pos),
        });
    }

    let graph = CompactGraph::from_parts(
        nodes,
        labels,
        data_dyn,
        cd_dyn,
        last_def,
        outputs,
        stats,
        num_node_execs,
    );
    Ok(Snapshot { source, input, config, graph })
}

/// Writes `snap` to `path`, returning the bytes written.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save(path: &Path, snap: &Snapshot) -> io::Result<u64> {
    dynslice_faults::hit("snapshot_write").map_err(io::Error::other)?;
    let bytes = encode(snap);
    let mut file = File::create(path)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    Ok(bytes.len() as u64)
}

/// Reads and decodes the snapshot at `path`, returning it with the byte
/// count read (for `snapshot.read_bytes` accounting). The file is read
/// into one buffer sized from its length.
///
/// # Errors
/// [`SnapshotError::Io`] for filesystem failures, otherwise the decode
/// errors of [`decode`].
pub fn load(path: &Path) -> Result<(Snapshot, u64), SnapshotError> {
    dynslice_faults::hit("snapshot_read").map_err(io::Error::other)?;
    let bytes = std::fs::read(path)?;
    let n = bytes.len() as u64;
    let snap = decode(&bytes)?;
    Ok((snap, n))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::build_compact;
    use dynslice_analysis::ProgramAnalysis;
    use dynslice_runtime::{run, VmOptions};

    fn sample() -> Snapshot {
        let source = "global int a[4];
             fn main() {
               int i;
               for (i = 0; i < 8; i = i + 1) { a[i % 4] = a[i % 4] + input(); }
               print a[1];
             }"
        .to_string();
        let input = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let config = OptConfig::default();
        let p = dynslice_lang::compile(&source).expect("compiles");
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions { input: input.clone(), ..Default::default() });
        let graph = build_compact(&p, &a, &t.events, &config);
        Snapshot { source, input, config, graph }
    }

    #[test]
    fn round_trip_is_bit_identical_and_deterministic() {
        let snap = sample();
        let bytes = encode(&snap);
        let back = decode(&bytes).expect("round trip");
        assert_eq!(snap.graph.first_difference(&back.graph), None);
        assert_eq!(back.source, snap.source);
        assert_eq!(back.input, snap.input);
        // Deterministic encoding: re-encoding the decoded snapshot
        // reproduces the exact bytes (sorted-map serialization).
        assert_eq!(encode(&back), bytes);
    }

    /// A graph probes each edge row longest channel first, but the DYN
    /// section lists every row in ascending channel id, so its bytes do
    /// not depend on the probe order: on a graph where the two orders
    /// differ, decoding restores the probe order and re-encoding gives the
    /// same bytes.
    #[test]
    fn rows_are_written_by_channel_id_and_read_back_in_probe_order() {
        let source = "global int a[1];
             fn main() {
               int i;
               for (i = 0; i < 300; i = i + 1) { a[0] = a[0] + i; }
               print a[0];
             }"
        .to_string();
        let config = OptConfig::default();
        let p = dynslice_lang::compile(&source).expect("compiles");
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        let graph = build_compact(&p, &a, &t.events, &config);
        let by_id = |row: &[(u32, u32)]| row.windows(2).all(|w| w[0].1 < w[1].1);
        let rows = || graph.data_dyn.rows().chain(graph.cd_dyn.rows());
        assert!(rows().any(|(_, row)| !by_id(row)), "probe order is id order in every row");

        let mut payload = Vec::new();
        encode_dyn(&mut payload, &graph);
        let mut r = Reader::new(&payload, "dyn");
        for _ in 0..r.len(8).unwrap() {
            r.array(16).unwrap();
        }
        let mut written = 0;
        for key_bytes in [5, 4] {
            for _ in 0..r.len(13).unwrap() {
                r.take(key_bytes).unwrap();
                let edges: Vec<_> = r
                    .array(8)
                    .unwrap()
                    .chunks_exact(8)
                    .map(|e| (le_u32(&e[..4]), le_u32(&e[4..])))
                    .collect();
                assert!(by_id(&edges), "written out of channel order: {edges:?}");
                written += 1;
            }
        }
        r.done().unwrap();
        assert_eq!(written, rows().count());

        let snap = Snapshot { source, input: Vec::new(), config, graph };
        let bytes = encode(&snap);
        let back = decode(&bytes).expect("round trip");
        assert_eq!(snap.graph.first_difference(&back.graph), None);
        assert_eq!(encode(&back), bytes);
    }

    /// `snap` encoded with its DYN section replaced by `data` and `cd`,
    /// re-checksummed, so only the decoder's own checks can object.
    fn with_dyn_lists(
        snap: &Snapshot,
        data: &[EdgeList<'_, (u32, u8)>],
        cd: &[EdgeList<'_, u32>],
    ) -> Vec<u8> {
        let mut payload = Vec::new();
        put_dyn(&mut payload, &snap.graph.labels, data, cd);
        with_section(&encode(snap), TAG_DYN, &payload)
    }

    /// `bytes` with section `tag`'s payload replaced and re-checksummed.
    fn with_section(bytes: &[u8], tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut pos = MAGIC.len() + 12;
        loop {
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            let end = pos + 9 + len + 8;
            if bytes[pos] == tag {
                let mut out = bytes[..pos].to_vec();
                push_section(&mut out, tag, payload);
                out.extend_from_slice(&bytes[end..]);
                return out;
            }
            pos = end;
        }
    }

    /// Slices are collected in a bitmap over the program's statements, so
    /// an occurrence naming a statement past them is corruption, not a
    /// panic at the first slice.
    #[test]
    fn occurrence_statements_must_exist() {
        let snap = sample();
        let mut nodes = snap.graph.nodes.clone();
        nodes.occ_stmt[0] = StmtId(nodes.stmt_shapes.len() as u32);
        let mut payload = Vec::new();
        encode_nodes(&mut payload, &nodes);
        match decode(&with_section(&encode(&snap), TAG_NODES, &payload)) {
            Err(SnapshotError::Corrupt { section: "nodes", detail }) => {
                assert!(detail.contains("outside"), "{detail}");
            }
            other => panic!("expected nodes corruption, got {other:?}"),
        }
    }

    /// Decoding `bytes` fails as DYN-section corruption mentioning `what`.
    fn assert_dyn_corrupt(bytes: &[u8], what: &str) {
        match decode(bytes) {
            Err(SnapshotError::Corrupt { section: "dyn", detail }) => {
                assert!(detail.contains(what), "{detail:?} does not mention {what:?}");
            }
            other => panic!("expected dyn corruption ({what}), got {other:?}"),
        }
    }

    /// The DYN section decodes straight into edge rows, so its keys must
    /// ascend: unsorted or repeated keys, keys naming a missing
    /// occurrence or use slot, empty lists and edges to a missing
    /// occurrence are each typed corruption.
    /// The encoder's own lists still decode and re-encode to the same
    /// bytes through the same writer.
    #[test]
    fn dyn_key_order_and_range_are_enforced() {
        let snap = sample();
        let g = &snap.graph;
        let data: Vec<_> = g.data_edge_lists().collect();
        let cd: Vec<_> = g.cd_dyn.rows().map(|(key, edges)| (key as u32, edges)).collect();
        assert!(data.len() >= 2 && cd.len() >= 2, "sample needs two lists of each kind");
        let intact = with_dyn_lists(&snap, &data, &cd);
        assert_eq!(intact, encode(&snap));
        assert_eq!(encode(&decode(&intact).unwrap()), intact);

        let mut swapped = data.clone();
        swapped.swap(0, 1);
        assert_dyn_corrupt(&with_dyn_lists(&snap, &swapped, &cd), "ascend");
        let mut repeated = data.clone();
        repeated.insert(1, data[0]);
        assert_dyn_corrupt(&with_dyn_lists(&snap, &repeated, &cd), "ascend");
        let num_occs = g.nodes.num_occs() as u32;
        let mut past_occs = data.clone();
        past_occs.push(((num_occs, 0), data[0].1));
        assert_dyn_corrupt(&with_dyn_lists(&snap, &past_occs, &cd), "occurrence");
        let ((occ, _), edges) = *data.last().unwrap();
        let uses = g.nodes.use_res[occ as usize].len() as u8;
        let mut past_uses = data.clone();
        past_uses.push(((occ, uses), edges));
        assert_dyn_corrupt(&with_dyn_lists(&snap, &past_uses, &cd), "use slots");
        let mut empty = data.clone();
        empty[0].1 = &[];
        assert_dyn_corrupt(&with_dyn_lists(&snap, &empty, &cd), "empty edge list");
        let stray = [(num_occs, data[0].1[0].1)];
        let mut past_target = data.clone();
        past_target[0].1 = &stray;
        assert_dyn_corrupt(&with_dyn_lists(&snap, &past_target, &cd), "targets occurrence");

        let mut swapped = cd.clone();
        swapped.swap(0, 1);
        assert_dyn_corrupt(&with_dyn_lists(&snap, &data, &swapped), "ascend");
        let mut repeated = cd.clone();
        repeated.insert(1, cd[0]);
        assert_dyn_corrupt(&with_dyn_lists(&snap, &data, &repeated), "ascend");
        let mut past_occs = cd.clone();
        past_occs.push((num_occs, cd[0].1));
        assert_dyn_corrupt(&with_dyn_lists(&snap, &data, &past_occs), "occurrence");
    }

    /// The stats section lists each nonzero optimization count once, in
    /// tag order. A zero count, a repeated kind or tags out of order would
    /// not re-encode to the same bytes, so each is typed corruption.
    #[test]
    fn saved_counts_are_listed_once_and_nonzero() {
        let bytes = encode(&sample());
        let with_saved = |saved: &[(u8, u64)]| {
            let mut payload = Vec::new();
            put_len(&mut payload, saved.len());
            for &(tag, v) in saved {
                put_u8(&mut payload, tag);
                put_u64(&mut payload, v);
            }
            (0..5).for_each(|_| put_u64(&mut payload, 0));
            with_section(&bytes, TAG_STATS, &payload)
        };
        let back = decode(&with_saved(&[(0, 3), (7, 1)])).expect("well-formed stats");
        assert_eq!(back.graph.stats.saved(OptKind::LocalDefUse), 3);
        assert_eq!(back.graph.stats.saved(OptKind::SharedControl), 1);
        assert_eq!(back.graph.stats.total_saved(), 4);
        for bad in [&[(0, 3), (0, 1)][..], &[(1, 0)], &[(7, 1), (0, 3)]] {
            match decode(&with_saved(bad)) {
                Err(SnapshotError::Corrupt { section: "stats", detail }) => {
                    assert!(detail.contains("must ascend"), "{detail}");
                }
                other => panic!("expected stats corruption for {bad:?}, got {other:?}"),
            }
        }
    }

    /// The `(tag, payload start, payload length)` of each section of
    /// `bytes`, in file order.
    fn sections(bytes: &[u8]) -> Vec<(u8, usize, usize)> {
        let mut out = Vec::new();
        let mut pos = MAGIC.len() + 12;
        while pos < bytes.len() {
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            out.push((bytes[pos], pos + 9, len));
            pos += 9 + len + 8;
        }
        out
    }

    /// Every single-bit flip anywhere in a section payload or its
    /// checksum word is a checksum mismatch in that section: one changed
    /// word can never produce the stored checksum (see [`checksum`]).
    #[test]
    fn every_single_bit_flip_of_a_payload_or_checksum_is_caught() {
        let bytes = encode(&sample());
        let names = ["source", "input", "config", "nodes", "dyn", "criteria", "stats"];
        let sections = sections(&bytes);
        assert_eq!(sections.len(), names.len());
        let mut flipped = bytes.clone();
        for (&(tag, start, len), &name) in sections.iter().zip(&names) {
            assert_eq!(tag as usize, names.iter().position(|&n| n == name).unwrap() + 1);
            for i in start..start + len + 8 {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    match decode(&flipped) {
                        Err(SnapshotError::Corrupt { section, detail })
                            if section == name && detail.contains("checksum mismatch") => {}
                        other => panic!("flip of bit {bit} of byte {i} ({name}): got {other:?}"),
                    }
                    flipped[i] ^= 1 << bit;
                }
            }
        }
        assert_eq!(flipped, bytes);
    }

    /// The single-word guarantee of [`checksum`], checked exhaustively on
    /// short inputs: every length up to five blocks (so every tail shape),
    /// every byte position and several changes of it; and zero-filled
    /// inputs of different lengths differ.
    #[test]
    fn checksum_catches_every_single_word_change() {
        let base: Vec<u8> = (0..160u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=base.len() {
            let data = &base[..len];
            let sum = checksum(data);
            let mut changed = data.to_vec();
            for i in 0..len {
                for x in [0x01, 0x80, 0xff, 0x5a] {
                    changed[i] ^= x;
                    assert_ne!(checksum(&changed), sum, "len {len}, byte {i}, xor {x:#x}");
                    changed[i] ^= x;
                }
            }
        }
        let zeros = [0u8; 64];
        let sums: BTreeSet<u64> = (0..=zeros.len()).map(|n| checksum(&zeros[..n])).collect();
        assert_eq!(sums.len(), zeros.len() + 1, "length is part of the checksum");
    }

    /// A version-1 file (FNV-1a section checksums) is refused by its
    /// version field before any section is read, so callers can treat it
    /// as stale rather than corrupt.
    #[test]
    fn version_one_files_are_unsupported() {
        let mut bytes = encode(&sample());
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(SnapshotError::UnsupportedVersion(1))));
    }

    #[test]
    fn header_corruption_yields_typed_errors() {
        let bytes = encode(&sample());
        assert!(matches!(decode(&bytes[..4]), Err(SnapshotError::BadMagic)));
        assert!(matches!(decode(b"not a snapshot at all"), Err(SnapshotError::BadMagic)));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert!(matches!(
            decode(&wrong_version),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
        let mut wrong_digest = bytes.clone();
        wrong_digest[12] ^= 0xff;
        assert!(matches!(decode(&wrong_digest), Err(SnapshotError::DigestMismatch { .. })));
    }

    #[test]
    fn truncation_at_every_section_boundary_is_typed() {
        let bytes = encode(&sample());
        for cut in [MAGIC.len(), MAGIC.len() + 6, bytes.len() / 3, bytes.len() - 1] {
            match decode(&bytes[..cut]) {
                Err(SnapshotError::Truncated { .. } | SnapshotError::Corrupt { .. }) => {}
                other => panic!("truncation at {cut} must be typed, got {other:?}"),
            }
        }
    }

    #[test]
    fn digest_distinguishes_provenance() {
        let config = OptConfig::default();
        let d1 = digest("fn main() {}", &[1, 2], &config);
        assert_eq!(d1, digest("fn main() {}", &[1, 2], &config));
        assert_ne!(d1, digest("fn main() { }", &[1, 2], &config));
        assert_ne!(d1, digest("fn main() {}", &[1, 3], &config));
        assert_ne!(
            d1,
            digest("fn main() {}", &[1, 2], &OptConfig { use_use: false, ..OptConfig::default() })
        );
    }
}
