//! The paper's proposed OPT+LP hybrid (§4.2, "Combining idea behind LP
//! with OPT"): keep the compacted graph's *static* component and edge
//! structure in memory, but spill the dynamic timestamp-pair lists to disk
//! in 4 KiB pages, loading pages on demand during slicing and discarding
//! old ones — scaling OPT to runs whose label lists outgrow memory.
//!
//! The in-memory cost becomes `static component + edge headers + page
//! index + resident pages + materialized shortcut closures`; slicing pays
//! an I/O penalty only on page misses. Because channels are sorted by
//! use-timestamp, each channel is split into contiguous runs whose `tu`
//! ranges are recorded in the index, so a lookup touches exactly one page.
//!
//! Slicing is OPT's own traversal ([`CompactGraph`]'s shortcut walk, or
//! its plain walk when [`PagedGraph::shortcuts`] is off): this module only
//! supplies the labels, through a per-query `PageReader`. The shortcut
//! closures live in the drained graph's memo exactly as they do for OPT.
//!
//! Pages are small on purpose. Most channel runs hold a handful of pairs,
//! so a miss should fetch little more than the run it needs; the resident
//! budget is counted in pages (the default 128 pages is 512 KiB of labels).
//!
//! # Concurrency
//!
//! `PagedGraph` is `Send + Sync` (compile-time asserted in the crate root)
//! so the batch slice engine can fan queries out over it exactly as it does
//! over [`CompactGraph`]:
//!
//! * the page cache is **sharded** — page `b` lives in shard
//!   `b % num_shards`, each shard behind its own [`Mutex`], so concurrent
//!   workers touching different pages rarely contend;
//! * the hot path is a **per-query pin table**, not the shared cache. A
//!   query pins each page it takes from the cache (an [`Arc`] clone) in a
//!   direct-mapped table of `min(resident budget, spilled pages)` slots,
//!   and a lookup on a pinned page runs its binary search with no lock,
//!   hash probe or atomic. Only a query's first touch of a page, or a
//!   slot conflict, locks a shard. A pin hit counts as a hit, so
//!   `hits + misses` stays the page lookups;
//! * within a shard eviction is **true LRU**: every shared-cache hit
//!   refreshes the page's recency stamp, so hot pages survive regardless
//!   of insertion age (the original single-threaded cache was FIFO by
//!   mistake); a miss reads and decodes with no lock held and shares the
//!   new page with the shard through an `Arc`; shard maps hash page ids
//!   with the crate's multiply-rotate hasher (the one OPT's visited set
//!   uses), not SipHash;
//! * disk reads go through **one shared handle** using positioned reads
//!   ([`std::os::unix::fs::FileExt::read_exact_at`] on Unix) — a miss never
//!   re-opens the spill file, and two threads can read concurrently;
//! * [`PagedStats`] counters are atomics, readable at any time without
//!   stopping the workers. A miss is counted only after the read
//!   *succeeds*, so failed I/O does not skew hit-rate accounting. Each
//!   query tallies its own traffic, so per-query figures never mix in a
//!   concurrent query's reads; its hits reach the shared atomics once,
//!   when the query ends, rather than once per lookup.
//!
//! # Memory bound
//!
//! A pin aliases a page the shared cache holds or has since evicted, so
//! each in-flight query keeps at most one resident budget of extra pages
//! alive (512 KiB at the default 128 pages), and releases them when it
//! ends. Like OPT's visited set and statement bitmap this is walk
//! scratch: [`PagedGraph::resident_bytes`] does not charge it.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dynslice_ir::StmtId;
use dynslice_runtime::Cell;

use crate::compact::{CompactGraph, LabelSearch, TraversalStats};
use crate::fast_hash::FastMap;

/// Pairs per spilled block: one 4 KiB page.
pub const BLOCK_PAIRS: usize = 256;

/// Bytes of one full spilled block (a page).
const PAGE_BYTES: usize = BLOCK_PAIRS * PAIR_BYTES;

/// Upper bound on cache shards. The actual shard count is chosen so every
/// shard holds at least two blocks (when the budget allows), keeping
/// per-shard LRU meaningful while spreading lock contention.
pub const CACHE_SHARDS: usize = 8;

/// Bytes of one on-disk timestamp pair.
const PAIR_BYTES: usize = size_of::<(u64, u64)>();

/// One spilled block's index entry. Geometry is `u64` end-to-end — the
/// record-file chunk index had the same narrowing bug (`ChunkMeta::len`
/// was once `u32`), and a truncated length here would silently read the
/// wrong pairs rather than fail.
#[derive(Copy, Clone, Debug)]
struct BlockMeta {
    /// Byte offset in the spill file.
    offset: u64,
    /// Number of pairs.
    len: u64,
}

/// Narrows a block count or in-block offset to the `u32` width the run
/// index stores, failing with a typed `InvalidData` error instead of
/// silently aliasing block ids or offsets on overflow.
fn geometry_u32(v: usize, what: &str) -> io::Result<u32> {
    u32::try_from(v).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("paged spill geometry overflow: {what} {v} exceeds u32"),
        )
    })
}

/// One run of a channel: `(first tu in run, block id, start offset in
/// pairs, len)`.
type Run = (u64, u32, u32, u32);

/// The run index: which block holds which `tu` range of each channel.
/// Every channel's runs sit in one array, so a lookup touches one
/// allocation rather than one per channel.
#[derive(Debug, Default)]
struct RunIndex {
    /// All runs; each channel's are contiguous and sorted by first tu.
    runs: Vec<Run>,
    /// Channel `c`'s runs are `runs[run_start[c]..run_start[c + 1]]`.
    run_start: Vec<usize>,
}

impl RunIndex {
    fn channel(&self, chan: u32) -> &[Run] {
        let c = chan as usize;
        &self.runs[self.run_start[c]..self.run_start[c + 1]]
    }

    /// In-memory size (what `resident_bytes` charges).
    fn bytes(&self) -> u64 {
        (self.runs.len() * size_of::<Run>() + self.run_start.len() * size_of::<usize>()) as u64
    }
}

/// Statistics from paged slicing. A snapshot of the graph's atomic
/// counters; subtract two snapshots to meter one phase.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PagedStats {
    /// Block cache hits.
    pub hits: u64,
    /// Block cache misses — counted only after a *successful* disk read.
    pub misses: u64,
    /// Bytes read from the spill file.
    pub bytes_read: u64,
}

impl PagedStats {
    /// Fraction of lookups served from the resident cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

impl std::ops::Sub for PagedStats {
    type Output = PagedStats;

    fn sub(self, rhs: PagedStats) -> PagedStats {
        PagedStats {
            hits: self.hits - rhs.hits,
            misses: self.misses - rhs.misses,
            bytes_read: self.bytes_read - rhs.bytes_read,
        }
    }
}

impl dynslice_obs::RecordMetrics for PagedStats {
    fn record_metrics(&self, reg: &dynslice_obs::Registry) {
        reg.counter_add("paged.cache_hits", self.hits);
        reg.counter_add("paged.cache_misses", self.misses);
        reg.counter_add("paged.bytes_read", self.bytes_read);
        reg.gauge_set("paged.hit_rate", self.hit_rate());
    }
}

/// A resident block. A miss decodes it outside any lock, so it is shared
/// between the loader and the shard.
type Block = Arc<[(u64, u64)]>;

/// One cache shard: true LRU over the blocks mapped to it.
#[derive(Debug)]
struct CacheShard {
    /// Resident-page budget for this shard.
    capacity: usize,
    /// Monotone recency clock; bumped on every touch.
    tick: u64,
    /// `block id -> (pairs, last-touch tick)`, under the crate's
    /// multiply-rotate hasher: ids are small integers a shard holds at a
    /// stride (shard `i` of `n` holds `i, i + n, …`), which its final fold
    /// spreads over the buckets.
    blocks: FastMap<u32, (Block, u64)>,
}

impl CacheShard {
    /// Evicts least-recently-used blocks until there is room for one more.
    fn make_room(&mut self) {
        while self.blocks.len() >= self.capacity {
            let Some((&lru, _)) = self.blocks.iter().min_by_key(|(_, (_, t))| *t) else {
                return;
            };
            self.blocks.remove(&lru);
        }
    }

    /// Touches `id`, refreshing its recency; returns the block if resident.
    fn touch(&mut self, id: u32) -> Option<&Block> {
        let now = self.tick;
        let (block, stamp) = self.blocks.get_mut(&id)?;
        *stamp = now;
        self.tick = now + 1;
        Some(block)
    }

    /// Inserts `block` (evicting LRU entries first) unless a racing loader
    /// already did.
    fn insert(&mut self, id: u32, block: Block) {
        if self.touch(id).is_some() {
            return;
        }
        self.make_room();
        let now = self.tick;
        self.tick = now + 1;
        self.blocks.insert(id, (block, now));
    }
}

/// The shared spill-file read handle. On Unix, positioned reads let any
/// number of threads read concurrently through one descriptor; elsewhere a
/// mutex serializes seek+read on the single handle.
#[derive(Debug)]
struct SpillFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: Mutex<File>,
}

impl SpillFile {
    fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        #[cfg(unix)]
        return Ok(SpillFile { file });
        #[cfg(not(unix))]
        return Ok(SpillFile { file: Mutex::new(file) });
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = self.file.lock().expect("spill file lock");
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// A compacted graph whose timestamp-pair lists live on disk.
#[derive(Debug)]
pub struct PagedGraph {
    /// The underlying graph, with channels drained.
    graph: CompactGraph,
    path: PathBuf,
    /// Whether `Drop` leaves the spill file on disk (benches that want to
    /// inspect it opt in via [`PagedGraph::keep_spill_file`]).
    keep_spill: bool,
    spill: SpillFile,
    blocks: Vec<BlockMeta>,
    index: RunIndex,
    /// Sharded resident block cache; block `b` lives in shard
    /// `b % shards.len()`.
    shards: Vec<Mutex<CacheShard>>,
    /// Resident-page budget, summed over the shards.
    resident_blocks: usize,
    /// Whether queries traverse shortcut edges (the paper's default), as
    /// [`CompactGraph::slice`]'s `use_shortcuts` does for OPT.
    pub shortcuts: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_read: AtomicU64,
}

impl Drop for PagedGraph {
    fn drop(&mut self) {
        if !self.keep_spill {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl PagedGraph {
    /// Spills `graph`'s channels to `path`, keeping `resident_blocks`
    /// pages in memory during slicing. The spill file is removed when the
    /// graph is dropped unless [`PagedGraph::keep_spill_file`] says
    /// otherwise.
    ///
    /// # Errors
    /// `InvalidInput` for a zero budget (slicing could hold no page);
    /// otherwise I/O errors from writing the spill file.
    pub fn spill(
        mut graph: CompactGraph,
        path: impl AsRef<Path>,
        resident_blocks: usize,
    ) -> io::Result<Self> {
        if resident_blocks == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "paged resident budget must be at least one page",
            ));
        }
        let path = path.as_ref().to_path_buf();
        let mut file = BufWriter::new(File::create(&path)?);
        let drained = graph.drain_channels();
        let mut blocks = Vec::new();
        let mut index =
            RunIndex { runs: Vec::new(), run_start: Vec::with_capacity(drained.len() + 1) };
        let mut cur: Vec<(u64, u64)> = Vec::with_capacity(BLOCK_PAIRS);
        let mut offset = 0u64;

        let flush =
            |cur: &mut Vec<(u64, u64)>, blocks: &mut Vec<BlockMeta>, file: &mut BufWriter<File>, offset: &mut u64| -> io::Result<()> {
                if cur.is_empty() {
                    return Ok(());
                }
                let mut buf = Vec::with_capacity(cur.len() * PAIR_BYTES);
                for (a, b) in cur.iter() {
                    buf.extend_from_slice(&a.to_le_bytes());
                    buf.extend_from_slice(&b.to_le_bytes());
                }
                file.write_all(&buf)?;
                blocks.push(BlockMeta { offset: *offset, len: cur.len() as u64 });
                *offset += buf.len() as u64;
                cur.clear();
                Ok(())
            };

        for pairs in drained {
            index.run_start.push(index.runs.len());
            let mut i = 0usize;
            while i < pairs.len() {
                if cur.len() == BLOCK_PAIRS {
                    flush(&mut cur, &mut blocks, &mut file, &mut offset)?;
                }
                let room = BLOCK_PAIRS - cur.len();
                let take = room.min(pairs.len() - i);
                let block_id = geometry_u32(blocks.len(), "block id")?; // the block being filled
                index.runs.push((
                    pairs[i].1,
                    block_id,
                    geometry_u32(cur.len(), "run start")?,
                    geometry_u32(take, "run length")?,
                ));
                cur.extend_from_slice(&pairs[i..i + take]);
                i += take;
            }
        }
        index.run_start.push(index.runs.len());
        flush(&mut cur, &mut blocks, &mut file, &mut offset)?;
        file.flush()?;
        drop(file);
        let spill = SpillFile::open(&path)?;

        // Shard the resident budget so each shard keeps at least two
        // blocks when the budget allows — per-shard LRU stays meaningful.
        let num_shards = (resident_blocks / 2).clamp(1, CACHE_SHARDS);
        let shards = (0..num_shards)
            .map(|i| {
                let capacity =
                    resident_blocks / num_shards + usize::from(i < resident_blocks % num_shards);
                Mutex::new(CacheShard { capacity, tick: 0, blocks: FastMap::default() })
            })
            .collect();
        Ok(Self {
            graph,
            path,
            keep_spill: false,
            spill,
            blocks,
            index,
            shards,
            resident_blocks,
            shortcuts: true,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// The underlying (drained) graph, for structure queries.
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// The spill file's path.
    pub fn spill_path(&self) -> &Path {
        &self.path
    }

    /// Controls whether `Drop` removes the spill file (it does by
    /// default). Benches that want to inspect the file afterwards pass
    /// `true`.
    pub fn keep_spill_file(&mut self, keep: bool) {
        self.keep_spill = keep;
    }

    /// Total resident-page budget across all shards.
    pub fn resident_block_budget(&self) -> usize {
        self.resident_blocks
    }

    /// Cache statistics accumulated so far (a consistent-enough snapshot of
    /// the atomic counters; safe to call while workers slice).
    pub fn stats(&self) -> PagedStats {
        PagedStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Bytes of label blocks currently resident in the cache — the actual
    /// occupancy, not the capacity: a cold or partially filled cache
    /// charges only what it holds.
    pub fn resident_block_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard")
                    .blocks
                    .values()
                    .map(|(b, _)| (b.len() * PAIR_BYTES) as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Worst-case resident-block bytes if every cache slot held a full
    /// block (the bound the `resident_blocks` budget enforces).
    pub fn resident_block_capacity_bytes(&self) -> u64 {
        self.resident_block_budget() as u64 * PAGE_BYTES as u64
    }

    /// In-memory bytes while slicing: the drained graph, the block index,
    /// the blocks *actually* resident right now, and the shortcut closures
    /// materialized so far. Nothing here materializes a closure.
    pub fn resident_bytes(&self) -> u64 {
        self.graph.resident_size().bytes() + self.index_bytes() + self.resident_block_bytes()
    }

    /// Bytes of the run and block index.
    fn index_bytes(&self) -> u64 {
        self.index.bytes() + (self.blocks.len() * size_of::<BlockMeta>()) as u64
    }

    /// Bytes spilled to disk.
    pub fn spilled_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.len * PAIR_BYTES as u64).sum()
    }

    /// Registers the backend's cache counters and occupancy gauges.
    pub fn record_metrics(&self, reg: &dynslice_obs::Registry) {
        use dynslice_obs::RecordMetrics as _;
        self.stats().record_metrics(reg);
        reg.gauge_set("paged.resident_bytes", self.resident_bytes() as f64);
        reg.gauge_set("paged.spilled_bytes", self.spilled_bytes() as f64);
        reg.gauge_set(
            "paged.resident_block_budget",
            self.resident_block_budget() as f64,
        );
    }

    /// Block `id`'s pairs, from the shared cache or disk, tallying the
    /// lookup in the caller's `query`. Lock discipline: a hit refreshes
    /// the block's LRU stamp and clones its `Arc` under the shard lock; a
    /// miss reads with no lock held, counts in the graph's atomics only
    /// once the read succeeds, and then inserts the block. Hits reach the
    /// atomics when the query ends ([`PagedGraph::slice_with_stats`]), so
    /// concurrent queries do not contend on one counter per lookup.
    fn fetch_block(&self, id: u32, query: &mut PagedStats) -> io::Result<Block> {
        let shard = &self.shards[id as usize % self.shards.len()];
        if let Some(block) = shard.lock().expect("cache shard").touch(id) {
            query.hits += 1;
            return Ok(Arc::clone(block));
        }
        // Miss: read through the shared handle without any lock. Two
        // threads racing on the same block both read (identical bytes);
        // `insert` keeps whichever lands first.
        let meta = self.blocks[id as usize];
        let nbytes = usize::try_from(meta.len)
            .ok()
            .and_then(|n| n.checked_mul(PAIR_BYTES))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("spill block {id} claims {} pairs, overflowing a read buffer", meta.len),
                )
            })?;
        let mut buf = vec![0u8; nbytes];
        self.read_spill_with_retry(&mut buf, meta.offset)?;
        let block: Block = buf
            .chunks_exact(PAIR_BYTES)
            .map(|c| {
                (
                    u64::from_le_bytes(c[0..8].try_into().expect("8 bytes")),
                    u64::from_le_bytes(c[8..16].try_into().expect("8 bytes")),
                )
            })
            .collect();
        // The read succeeded: only now does it count as a miss.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        query.misses += 1;
        query.bytes_read += buf.len() as u64;
        shard.lock().expect("cache shard").insert(id, Arc::clone(&block));
        Ok(block)
    }

    /// Reads spill bytes at `offset`, retrying a transient failure with
    /// bounded backoff (1ms, 4ms) before surfacing the error. A spill
    /// read is idempotent — the file is immutable once written — so a
    /// retry can only re-read the same bytes, never observe a torn
    /// write. Each retry is noted via [`dynslice_faults::note_retry`]
    /// (the `server.retries` counter). The `paged_read` fault hook sits
    /// inside the loop, so an injected single-shot error exercises
    /// exactly the recovery path a real transient failure takes.
    fn read_spill_with_retry(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        const ATTEMPTS: u32 = 3;
        let mut delay = std::time::Duration::from_millis(1);
        for attempt in 1.. {
            let result = dynslice_faults::hit("paged_read")
                .map_err(io::Error::other)
                .and_then(|()| self.spill.read_exact_at(buf, offset));
            match result {
                Ok(()) => return Ok(()),
                Err(e) if attempt >= ATTEMPTS => return Err(e),
                Err(_) => {
                    dynslice_faults::note_retry();
                    std::thread::sleep(delay);
                    delay *= 4;
                }
            }
        }
        unreachable!("the final attempt returns")
    }

    /// Computes a backward slice from instance `(occ, ts)`.
    ///
    /// # Errors
    /// Propagates I/O errors from block loads.
    pub fn slice(&self, occ: u32, ts: u64) -> io::Result<BTreeSet<StmtId>> {
        Ok(self.slice_with_stats(occ, ts)?.0)
    }

    /// [`Self::slice`], also returning OPT's traversal counters and this
    /// query's own page-cache traffic.
    ///
    /// # Errors
    /// Propagates I/O errors from block loads.
    pub fn slice_with_stats(
        &self,
        occ: u32,
        ts: u64,
    ) -> io::Result<(BTreeSet<StmtId>, TraversalStats, PagedStats)> {
        let mut reader = PageReader::new(self);
        let mut stats = TraversalStats::default();
        let slice = self.graph.slice_in(&mut reader, occ, ts, self.shortcuts, &mut stats);
        self.hits.fetch_add(reader.query.hits, Ordering::Relaxed);
        Ok((slice?, stats, reader.query))
    }

    /// The final defining instance of `cell`, if any.
    pub fn last_def_of(&self, cell: Cell) -> Option<(u32, u64)> {
        self.graph.last_def_of(cell)
    }
}

/// One query's view of the page cache: label lookups for OPT's traversal,
/// tallying the query's own hits, misses and bytes read. Pages it takes
/// from the shared cache stay pinned for the rest of the query (see the
/// module docs): page `b` sits in slot `b % pins.len()`.
struct PageReader<'g> {
    graph: &'g PagedGraph,
    query: PagedStats,
    /// `(page id, page)` per slot; `None` until the slot's first touch.
    pins: Vec<Option<(u32, Block)>>,
}

impl<'g> PageReader<'g> {
    fn new(graph: &'g PagedGraph) -> Self {
        let slots = graph.resident_blocks.min(graph.blocks.len()).max(1);
        PageReader { graph, query: PagedStats::default(), pins: vec![None; slots] }
    }

    /// Page `id`'s pairs: pinned already, or taken from the shared cache
    /// (or disk) and pinned in place of the slot's previous page.
    fn page(&mut self, id: u32) -> io::Result<&[(u64, u64)]> {
        let slot = id as usize % self.pins.len();
        if matches!(&self.pins[slot], Some((pinned, _)) if *pinned == id) {
            self.query.hits += 1;
        } else {
            let page = self.graph.fetch_block(id, &mut self.query)?;
            self.pins[slot] = Some((id, page));
        }
        Ok(&self.pins[slot].as_ref().expect("slot pinned above").1)
    }
}

impl LabelSearch for PageReader<'_> {
    type Error = io::Error;

    fn search(&mut self, chan: u32, tu: u64) -> io::Result<Option<u64>> {
        let runs = self.graph.index.channel(chan);
        // Find the run that could contain tu: the last run with first <= tu.
        let pos = runs.partition_point(|r| r.0 <= tu);
        if pos == 0 {
            return Ok(None);
        }
        let (_, block, start, len) = runs[pos - 1];
        let run = &self.page(block)?[start as usize..(start + len) as usize];
        Ok(run.binary_search_by_key(&tu, |&(_, u)| u).ok().map(|i| run[i].0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_compact, FullGraph, OptConfig};
    use dynslice_analysis::ProgramAnalysis;
    use dynslice_runtime::{run, VmOptions};

    fn setup(
        src: &str,
    ) -> (dynslice_ir::Program, ProgramAnalysis, dynslice_runtime::Trace) {
        let p = dynslice_lang::compile(src).unwrap();
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        (p, a, t)
    }

    /// A per-test spill path: tests run in parallel within one process and
    /// possibly across concurrent `cargo test` invocations, so every test
    /// gets its own `pid`-scoped directory and file name.
    fn spill_path(test: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("dynslice-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{test}.bin"))
    }

    const SRC: &str = "global int a[16];
         fn main() {
           int i;
           int s = 0;
           for (i = 0; i < 300; i = i + 1) {
             int k = i % 16;
             a[k] = a[k] + i;
             if (i % 7 == 0) { s = s + a[k]; }
           }
           print s;
           a[0] = s;
         }";

    /// A program whose single channel spans many spill blocks.
    const MANY_BLOCKS_SRC: &str = "global int a[1];
         fn main() {
           int i;
           for (i = 0; i < 9000; i = i + 1) { a[0] = a[0] + i; }
           print a[0];
         }";

    #[test]
    fn paged_slices_match_in_memory_slices() {
        let (p, a, t) = setup(SRC);
        let full = FullGraph::build(&p, &a, &t.events);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        // Tiny cache: exercise eviction.
        let paged = PagedGraph::spill(opt, spill_path("match"), 2).unwrap();
        let mut cells: Vec<_> = full.last_def.keys().copied().collect();
        cells.sort();
        for cell in cells {
            let (fs, fts) = full.last_def[&cell];
            let expect = full.slice(&p, fs, fts);
            let (occ, ts) = paged.last_def_of(cell).unwrap();
            let got = paged.slice(occ, ts).unwrap();
            assert_eq!(expect, got, "cell {cell:?}");
        }
        let st = paged.stats();
        assert!(st.misses > 0, "expected disk reads: {st:?}");
        assert!(st.hits > 0, "expected cache hits: {st:?}");
        assert_eq!(st.bytes_read % PAIR_BYTES as u64, 0, "whole pairs only: {st:?}");
    }

    #[test]
    fn spill_moves_pairs_to_disk() {
        let (p, a, t) = setup(SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let pairs_before = opt.size(false).pairs;
        assert!(pairs_before > 0);
        let paged = PagedGraph::spill(opt, spill_path("todisk"), 4).unwrap();
        // All pairs are on disk; the drained graph holds none.
        assert_eq!(paged.graph().size(false).pairs, 0);
        assert_eq!(paged.spilled_bytes(), pairs_before * 16);
        assert!(paged.resident_bytes() > 0);
    }

    #[test]
    fn block_index_spans_multiple_blocks() {
        let (p, a, t) = setup(MANY_BLOCKS_SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::none());
        let paged = PagedGraph::spill(opt, spill_path("multi"), 1).unwrap();
        assert!(paged.blocks.len() >= 2, "expected multiple blocks");
        // Slicing still works with a single resident block.
        let full = FullGraph::build(&p, &a, &t.events);
        let (cell, &(fs, fts)) = full.last_def.iter().next().unwrap();
        let (occ, ts) = paged.last_def_of(*cell).unwrap();
        assert_eq!(full.slice(&p, fs, fts), paged.slice(occ, ts).unwrap());
    }

    /// Regression for the FIFO bug: the cache is documented as LRU, but
    /// the original implementation never refreshed recency on a hit, so a
    /// hot block was evicted purely by insertion age. With capacity 2:
    /// touch 0, 1, 0 again (hot), then 2 — LRU must evict 1 (cold) and
    /// keep 0; FIFO evicted 0. The final touch of 0 distinguishes them.
    #[test]
    fn lru_eviction_keeps_recently_hit_blocks() {
        let (p, a, t) = setup(MANY_BLOCKS_SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::none());
        // Budget 2 → one shard of capacity 2, so blocks 0/1/2 all compete.
        let paged = PagedGraph::spill(opt, spill_path("lru"), 2).unwrap();
        assert!(paged.blocks.len() >= 3, "need at least 3 blocks");
        assert_eq!(paged.shards.len(), 1);
        let query = &mut PagedStats::default();
        let load = |id, query: &mut PagedStats| paged.fetch_block(id, query).unwrap();
        load(0, query); // miss
        load(1, query); // miss
        load(0, query); // hit — must refresh 0's recency
        load(2, query); // miss; evicts LRU = 1 (FIFO evicted 0)
        load(0, query); // LRU: hit. FIFO: miss.
        let st = *query;
        assert_eq!(paged.stats().misses, st.misses, "misses count as they happen");
        assert_eq!(
            (st.hits, st.misses),
            (2, 3),
            "recency-refreshing LRU expected; FIFO gives (1, 4): {st:?}"
        );
        let shard = paged.shards[0].lock().unwrap();
        assert!(shard.blocks.contains_key(&0), "hot block evicted");
        assert!(!shard.blocks.contains_key(&1), "cold block survived");
    }

    /// `resident_bytes` charges actual occupancy: nothing for a cold
    /// cache, at most the configured budget afterwards.
    #[test]
    fn resident_accounting_tracks_occupancy() {
        let (p, a, t) = setup(SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let mut paged = PagedGraph::spill(opt, spill_path("resident"), 2).unwrap();
        // Without shortcuts no closure is materialized, so only the
        // pages' occupancy moves.
        paged.shortcuts = false;
        let cold = paged.resident_bytes();
        assert_eq!(paged.resident_block_bytes(), 0, "cold cache holds no blocks");
        let (cell, _) = paged.graph().last_def.iter().next().map(|(c, i)| (*c, *i)).unwrap();
        let (occ, ts) = paged.last_def_of(cell).unwrap();
        paged.slice(occ, ts).unwrap();
        let warm = paged.resident_block_bytes();
        assert!(warm > 0, "slicing should page blocks in");
        assert!(
            warm <= paged.resident_block_capacity_bytes(),
            "occupancy {warm} exceeds budget {}",
            paged.resident_block_capacity_bytes()
        );
        assert_eq!(paged.resident_bytes(), cold + warm);
    }

    /// `resident_bytes` charges the shortcut closures slicing has
    /// materialized, from a running count: a fresh graph charges none,
    /// and measuring materializes nothing.
    #[test]
    fn resident_bytes_charge_materialized_shortcuts() {
        let (p, a, t) = setup(SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let paged = PagedGraph::spill(opt, spill_path("shortcut-bytes"), 2).unwrap();
        let g = paged.graph();
        assert_eq!(g.resident_size(), g.size(false), "fresh graph charges no shortcuts");
        assert_eq!(
            paged.resident_bytes(),
            g.size(false).bytes() + paged.index_bytes() + paged.resident_block_bytes()
        );
        let mut cells: Vec<_> = g.last_def.keys().copied().collect();
        cells.sort();
        for cell in cells {
            let (occ, ts) = paged.last_def_of(cell).unwrap();
            paged.slice(occ, ts).unwrap();
        }
        let shortcut_bytes = g.resident_size().bytes() - g.size(false).bytes();
        assert!(shortcut_bytes > 0, "slicing should materialize closures");
        let materialized = g.shortcuts_materialized();
        assert_eq!(
            paged.resident_bytes(),
            g.size(false).bytes()
                + paged.index_bytes()
                + paged.resident_block_bytes()
                + shortcut_bytes
        );
        assert_eq!(g.shortcuts_materialized(), materialized, "measuring materialized closures");
    }

    /// Two freshly spilled graphs of one program, asked the same queries
    /// under the same page budget, walk in the same order: identical page
    /// traffic per query and in total, and identical traversal counters.
    /// (Shortcut frontiers are sorted, and the visited set and shard maps
    /// hash without a per-instance random seed.)
    #[test]
    fn paged_walks_are_deterministic() {
        let (p, a, t) = setup(SRC);
        let run = |name| {
            let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
            let paged = PagedGraph::spill(opt, spill_path(name), 2).unwrap();
            let mut cells: Vec<_> = paged.graph().last_def.keys().copied().collect();
            cells.sort();
            let per_query: Vec<_> = cells
                .iter()
                .map(|&cell| {
                    let (occ, ts) = paged.last_def_of(cell).unwrap();
                    let (_, traversal, pages) = paged.slice_with_stats(occ, ts).unwrap();
                    (traversal, pages)
                })
                .collect();
            (per_query, paged.stats())
        };
        let (first, total) = run("det-a");
        assert!(total.misses > 0 && total.hits > 0, "{total:?}");
        assert_eq!((first, total), run("det-b"));
    }

    /// A zero budget is refused instead of quietly becoming one page.
    #[test]
    fn zero_budget_is_invalid_input() {
        let (p, a, t) = setup(SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let path = spill_path("zero");
        let err = PagedGraph::spill(opt, &path, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "a refused spill writes no file");
    }

    /// Every spilled block is one page: at most 4096 bytes, starting at a
    /// 4096-aligned offset of the spill file.
    #[test]
    fn spilled_blocks_are_aligned_4k_pages() {
        let (p, a, t) = setup(MANY_BLOCKS_SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::none());
        let paged = PagedGraph::spill(opt, spill_path("pages"), 2).unwrap();
        assert_eq!(PAGE_BYTES, 4096);
        assert!(paged.blocks.len() >= 3, "need several pages");
        for (i, b) in paged.blocks.iter().enumerate() {
            assert!(b.len * PAIR_BYTES as u64 <= 4096, "page {i} holds {} pairs", b.len);
            assert_eq!(b.offset % 4096, 0, "page {i} starts at {}", b.offset);
        }
        let len = std::fs::metadata(paged.spill_path()).unwrap().len();
        assert_eq!(len, paged.spilled_bytes());
    }

    /// The spill file is removed on drop by default; `keep_spill_file`
    /// opts out for harnesses that inspect it.
    #[test]
    fn drop_cleans_up_spill_file() {
        let (p, a, t) = setup(SRC);
        let path = spill_path("drop");
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let paged = PagedGraph::spill(opt, &path, 2).unwrap();
        assert!(path.exists());
        drop(paged);
        assert!(!path.exists(), "drop must remove the spill file");

        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let mut paged = PagedGraph::spill(opt, &path, 2).unwrap();
        paged.keep_spill_file(true);
        drop(paged);
        assert!(path.exists(), "keep_spill_file must leave the file");
        std::fs::remove_file(&path).unwrap();
    }

    /// Reads keep working after the spill file's directory entry is gone —
    /// the shared handle opened at spill time outlives the name (Unix).
    #[cfg(unix)]
    #[test]
    fn shared_handle_survives_unlink() {
        let (p, a, t) = setup(SRC);
        let path = spill_path("unlink");
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let paged = PagedGraph::spill(opt, &path, 1).unwrap();
        std::fs::remove_file(&path).unwrap();
        let (cell, _) = paged.graph().last_def.iter().next().map(|(c, i)| (*c, *i)).unwrap();
        let (occ, ts) = paged.last_def_of(cell).unwrap();
        assert!(!paged.slice(occ, ts).unwrap().is_empty());
    }

    /// Spill geometry that no longer fits the run index's `u32` fields
    /// must produce a typed error, not a wrapped value that silently
    /// aliases block ids (the record-file chunk index had this bug).
    #[test]
    fn geometry_overflow_is_typed_not_aliased() {
        assert_eq!(geometry_u32(BLOCK_PAIRS, "run length").unwrap(), BLOCK_PAIRS as u32);
        assert_eq!(geometry_u32(u32::MAX as usize, "block id").unwrap(), u32::MAX);
        let err = geometry_u32(u32::MAX as usize + 1, "block id").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("block id"), "{err}");
    }

    /// A corrupted (or overflow-wrapped) block length must fail the read
    /// with `InvalidData` instead of attempting a wrapped allocation.
    #[test]
    fn oversized_block_len_errors_instead_of_wrapping() {
        let (p, a, t) = setup(SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let mut paged = PagedGraph::spill(opt, spill_path("overflow"), 2).unwrap();
        paged.blocks[0].len = u64::MAX / 2; // `len * PAIR_BYTES` cannot fit
        let err = paged.fetch_block(0, &mut PagedStats::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Concurrent slicing through one shared `PagedGraph` returns exactly
    /// the sequential slices, and the stats counters stay coherent.
    #[test]
    fn concurrent_slicing_matches_sequential() {
        let (p, a, t) = setup(SRC);
        let full = FullGraph::build(&p, &a, &t.events);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let paged = PagedGraph::spill(opt, spill_path("concurrent"), 2).unwrap();
        let mut cells: Vec<_> = full.last_def.keys().copied().collect();
        cells.sort();
        let expected: Vec<_> = cells
            .iter()
            .map(|c| {
                let (fs, fts) = full.last_def[c];
                full.slice(&p, fs, fts)
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (cell, want) in cells.iter().zip(expected.iter()) {
                        let (occ, ts) = paged.last_def_of(*cell).unwrap();
                        assert_eq!(*want, paged.slice(occ, ts).unwrap(), "cell {cell:?}");
                    }
                });
            }
        });
        let st = paged.stats();
        assert!(st.hits > 0 && st.misses > 0, "{st:?}");
    }

    /// Spills `src`'s OPT graph with a budget far above its page count.
    fn spill_all_resident(src: &str, name: &str) -> PagedGraph {
        let (p, a, t) = setup(src);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        PagedGraph::spill(opt, spill_path(name), 1 << 16).unwrap()
    }

    /// Every criterion of `paged`, in a fixed order.
    fn criteria(paged: &PagedGraph) -> Vec<(u32, u64)> {
        let mut cells: Vec<_> = paged.graph().last_def.keys().copied().collect();
        cells.sort();
        cells.into_iter().map(|c| paged.last_def_of(c).unwrap()).collect()
    }

    /// When the budget covers every spilled page, a query's pin table has
    /// a slot per page, so it takes each page from the shared cache once:
    /// its misses are at most the distinct pages it touched, and no page
    /// is ever read twice.
    #[test]
    fn misses_are_bounded_by_the_pages_a_query_touches() {
        let paged = spill_all_resident(MANY_BLOCKS_SRC, "pin-bound");
        assert!(paged.blocks.len() >= 3, "need several pages");
        for (occ, ts) in criteria(&paged) {
            let mut reader = PageReader::new(&paged);
            assert_eq!(reader.pins.len(), paged.blocks.len(), "one slot per page");
            paged
                .graph
                .slice_in(&mut reader, occ, ts, paged.shortcuts, &mut TraversalStats::default())
                .unwrap();
            let touched = reader.pins.iter().flatten().count() as u64;
            assert!(touched > 0, "the walk read labels");
            assert!(reader.query.misses <= touched, "{:?} over {touched} pages", reader.query);
        }
        assert!(paged.stats().misses <= paged.blocks.len() as u64, "{:?}", paged.stats());
    }

    /// Repeating a query on a warm cache reads nothing from disk, and a
    /// query's `hits + misses` is its page lookups whatever the budget: a
    /// pin hit counts as a hit.
    #[test]
    fn repeated_query_on_a_warm_cache_reads_nothing() {
        let paged = spill_all_resident(SRC, "warm");
        let (p, a, t) = setup(SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let one_page = PagedGraph::spill(opt, spill_path("warm-one-page"), 1).unwrap();
        let mut lookups = 0;
        for (occ, ts) in criteria(&paged) {
            let (slice, _, cold) = paged.slice_with_stats(occ, ts).unwrap();
            let (again, _, warm) = paged.slice_with_stats(occ, ts).unwrap();
            assert_eq!(slice, again);
            assert_eq!((warm.misses, warm.bytes_read), (0, 0), "warm repeat read: {warm:?}");
            assert_eq!(warm.hits, cold.hits + cold.misses, "same lookups");
            let (_, _, thrashed) = one_page.slice_with_stats(occ, ts).unwrap();
            assert_eq!(thrashed.hits + thrashed.misses, warm.hits, "lookups varied with the budget");
            lookups += warm.hits;
        }
        assert!(lookups > 0, "the walks read labels");
    }
}
