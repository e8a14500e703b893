//! The paper's proposed OPT+LP hybrid (§4.2, "Combining idea behind LP
//! with OPT"): keep the compacted graph's *static* component and edge
//! structure in memory, but spill the dynamic timestamp-pair lists to disk
//! in 4 KiB pages, loading pages on demand during slicing and discarding
//! old ones — scaling OPT to runs whose label lists outgrow memory.
//!
//! The in-memory cost becomes `static component + edge headers + tile
//! index + resident pages + materialized shortcut closures`; slicing pays
//! an I/O penalty only on page misses. The spill file is the graph's label
//! arena ([`CompactGraph`]'s runs end to end, each sorted by use
//! timestamp) cut into tiles of 256 pairs, one 4 KiB page each: a tile
//! holds its 256 use timestamps, then their 256 stored definition
//! timestamps (owner bits included), and tile `t` sits at byte `t * 4096`
//! (only the last tile is short, with `n` of each). The tile index is the
//! graph's run offsets, kept when the labels are drained, plus each
//! tile's first use timestamp. A run that lies in one tile finds it by
//! arithmetic; only a run that spans tiles searches the first use
//! timestamps of its own tiles. Either way a lookup touches exactly one
//! page, a resolution nearly always makes one lookup, and all spill
//! geometry is checked `u64` arithmetic in one place.
//!
//! Slicing is OPT's own traversal ([`CompactGraph`]'s shortcut walk, or
//! its plain walk when [`PagedGraph::shortcuts`] is off): this module only
//! supplies the labels, through a per-query `PageReader`. The shortcut
//! closures live in the drained graph's memo exactly as they do for OPT.
//!
//! Pages are small on purpose. Most runs hold a handful of pairs, so a
//! miss should fetch little more than the run it needs; the resident
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
//!   direct-mapped table, and a lookup on a pinned page runs its binary
//!   search with no lock, hash probe or atomic. The table has a power of
//!   two slots, so a page's slot is a mask: a slot per spilled page when
//!   they fit the resident budget, else the largest power of two within
//!   it. Only a query's first touch of a page, or a slot conflict, locks
//!   a shard. A pin hit counts as a hit, so `hits + misses` stays the
//!   page lookups;
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
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dynslice_ir::StmtId;
use dynslice_runtime::Cell;

use crate::compact::{CompactGraph, LabelSearch, TraversalStats};
use crate::fast_hash::FastMap;

/// Pairs per spilled tile: one 4 KiB page.
pub const BLOCK_PAIRS: usize = 256;

/// Bytes of one full tile (a page): its `tu` column, then its `td` column.
const PAGE_BYTES: u64 = BLOCK_PAIRS as u64 * PAIR_BYTES;

/// Upper bound on cache shards. The actual shard count is chosen so every
/// shard holds at least two tiles (when the budget allows), keeping
/// per-shard LRU meaningful while spreading lock contention.
pub const CACHE_SHARDS: usize = 8;

/// Bytes of one spilled timestamp pair (a `tu` and a `td` word).
const PAIR_BYTES: u64 = 16;

/// Tile `t` of an arena of `pairs` pairs, as `(byte offset, pairs in the
/// tile)`. All spill geometry goes through here, in checked `u64`: a tile
/// past the arena, or an offset that overflows, is a typed `InvalidData`
/// error rather than a wrapped value that reads the wrong labels.
fn tile_extent(t: u64, pairs: u64) -> io::Result<(u64, usize)> {
    let first = t.checked_mul(BLOCK_PAIRS as u64).filter(|&f| f < pairs);
    match (first, t.checked_mul(PAGE_BYTES)) {
        (Some(first), Some(offset)) => {
            Ok((offset, (pairs - first).min(BLOCK_PAIRS as u64) as usize))
        }
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("paged spill geometry: tile {t} is outside an arena of {pairs} pairs"),
        )),
    }
}

/// Statistics from paged slicing. A snapshot of the graph's atomic
/// counters; subtract two snapshots to meter one phase.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PagedStats {
    /// Tile cache hits.
    pub hits: u64,
    /// Tile cache misses — counted only after a *successful* disk read.
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

/// A resident tile of `n` pairs: its `n` use timestamps, then their `n`
/// definition timestamps. A miss decodes it outside any lock, so it is
/// shared between the loader and the shard.
type Tile = Arc<[u64]>;

/// One cache shard: true LRU over the tiles mapped to it.
#[derive(Debug)]
struct CacheShard {
    /// Resident-page budget for this shard.
    capacity: usize,
    /// Monotone recency clock; bumped on every touch.
    tick: u64,
    /// `tile id -> (tile, last-touch tick)`, under the crate's
    /// multiply-rotate hasher: ids are small integers a shard holds at a
    /// stride (shard `i` of `n` holds `i, i + n, …`), which its final fold
    /// spreads over the buckets.
    tiles: FastMap<u64, (Tile, u64)>,
}

impl CacheShard {
    /// Evicts least-recently-used tiles until there is room for one more.
    fn make_room(&mut self) {
        while self.tiles.len() >= self.capacity {
            let Some((&lru, _)) = self.tiles.iter().min_by_key(|(_, (_, t))| *t) else {
                return;
            };
            self.tiles.remove(&lru);
        }
    }

    /// Touches `id`, refreshing its recency; returns the tile if resident.
    fn touch(&mut self, id: u64) -> Option<&Tile> {
        let now = self.tick;
        let (tile, stamp) = self.tiles.get_mut(&id)?;
        *stamp = now;
        self.tick = now + 1;
        Some(tile)
    }

    /// Inserts `tile` (evicting LRU entries first) unless a racing loader
    /// already did.
    fn insert(&mut self, id: u64, tile: Tile) {
        if self.touch(id).is_some() {
            return;
        }
        self.make_room();
        let now = self.tick;
        self.tick = now + 1;
        self.tiles.insert(id, (tile, now));
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
    /// The underlying graph, with its label columns drained; its run
    /// offsets index the spilled arena.
    graph: CompactGraph,
    path: PathBuf,
    /// Whether `Drop` leaves the spill file on disk (benches that want to
    /// inspect it opt in via [`PagedGraph::keep_spill_file`]).
    keep_spill: bool,
    spill: SpillFile,
    /// Pairs in the spilled arena.
    pairs: u64,
    /// The first use timestamp of each tile: a run that spans tiles
    /// finds its tile by a search over its own tiles' entries.
    tile_first: Vec<u64>,
    /// Sharded resident tile cache; tile `t` lives in shard
    /// `t % shards.len()`.
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
    /// Spills `graph`'s label arena to `path` as 4 KiB tiles, keeping
    /// `resident_blocks` pages in memory during slicing. The spill file is
    /// removed when the graph is dropped unless
    /// [`PagedGraph::keep_spill_file`] says otherwise.
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
        let (tu, td) = graph.drain_labels();
        let mut buf = Vec::with_capacity(PAGE_BYTES as usize);
        let mut tile_first = Vec::with_capacity(tu.len().div_ceil(BLOCK_PAIRS));
        for (tu, td) in tu.chunks(BLOCK_PAIRS).zip(td.chunks(BLOCK_PAIRS)) {
            tile_first.push(tu[0]);
            buf.clear();
            buf.extend(tu.iter().chain(td).flat_map(|v| v.to_le_bytes()));
            file.write_all(&buf)?;
        }
        file.flush()?;
        drop(file);
        let spill = SpillFile::open(&path)?;

        // Shard the resident budget so each shard keeps at least two
        // tiles when the budget allows — per-shard LRU stays meaningful.
        let num_shards = (resident_blocks / 2).clamp(1, CACHE_SHARDS);
        let shards = (0..num_shards)
            .map(|i| {
                let capacity =
                    resident_blocks / num_shards + usize::from(i < resident_blocks % num_shards);
                Mutex::new(CacheShard { capacity, tick: 0, tiles: FastMap::default() })
            })
            .collect();
        Ok(Self {
            graph,
            path,
            keep_spill: false,
            spill,
            pairs: tu.len() as u64,
            tile_first,
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

    /// Bytes of label tiles currently resident in the cache — the actual
    /// occupancy, not the capacity: a cold or partially filled cache
    /// charges only what it holds.
    pub fn resident_block_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard")
                    .tiles
                    .values()
                    .map(|(b, _)| b.len() as u64 / 2 * PAIR_BYTES)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Worst-case resident-tile bytes if every cache slot held a full
    /// tile (the bound the `resident_blocks` budget enforces).
    pub fn resident_block_capacity_bytes(&self) -> u64 {
        self.resident_block_budget() as u64 * PAGE_BYTES
    }

    /// In-memory bytes while slicing: the drained graph, the tile index,
    /// the tiles *actually* resident right now, and the shortcut closures
    /// materialized so far. Nothing here materializes a closure.
    pub fn resident_bytes(&self) -> u64 {
        self.graph.resident_size().bytes() + self.index_bytes() + self.resident_block_bytes()
    }

    /// Bytes of the tile index: the run offsets and each tile's
    /// first use timestamp.
    fn index_bytes(&self) -> u64 {
        (self.graph.labels.num_runs() + 1 + self.tile_first.len()) as u64 * 8
    }

    /// Bytes spilled to disk.
    pub fn spilled_bytes(&self) -> u64 {
        self.pairs * PAIR_BYTES
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

    /// Tile `id`, from the shared cache or disk, tallying the lookup in
    /// the caller's `query`. Lock discipline: a hit refreshes the tile's
    /// LRU stamp and clones its `Arc` under the shard lock; a miss reads
    /// with no lock held, counts in the graph's atomics only once the read
    /// succeeds, and then inserts the tile. Hits reach the atomics when
    /// the query ends ([`PagedGraph::slice_with_stats`]), so concurrent
    /// queries do not contend on one counter per lookup.
    fn fetch_tile(&self, id: u64, query: &mut PagedStats) -> io::Result<Tile> {
        let shard = &self.shards[(id % self.shards.len() as u64) as usize];
        if let Some(tile) = shard.lock().expect("cache shard").touch(id) {
            query.hits += 1;
            return Ok(Arc::clone(tile));
        }
        // Miss: read through the shared handle without any lock. Two
        // threads racing on the same tile both read (identical bytes);
        // `insert` keeps whichever lands first.
        let (offset, len) = tile_extent(id, self.pairs)?;
        let mut buf = vec![0u8; len * PAIR_BYTES as usize];
        self.read_spill_with_retry(&mut buf, offset)?;
        let words = buf.chunks_exact(8);
        let tile: Tile = words.map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))).collect();
        // The read succeeded: only now does it count as a miss.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        query.misses += 1;
        query.bytes_read += buf.len() as u64;
        shard.lock().expect("cache shard").insert(id, Arc::clone(&tile));
        Ok(tile)
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
    /// Propagates I/O errors from tile loads.
    pub fn slice(&self, occ: u32, ts: u64) -> io::Result<BTreeSet<StmtId>> {
        Ok(self.slice_with_stats(occ, ts)?.0)
    }

    /// [`Self::slice`], also returning OPT's traversal counters and this
    /// query's own page-cache traffic.
    ///
    /// # Errors
    /// Propagates I/O errors from tile loads.
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
/// tallying the query's own hits, misses and bytes read. Tiles it takes
/// from the shared cache stay pinned for the rest of the query (see the
/// module docs): tile `t` sits in slot `t & (pins.len() - 1)`.
struct PageReader<'g> {
    graph: &'g PagedGraph,
    query: PagedStats,
    /// `(tile id, tile)` per slot; `None` until the slot's first touch.
    pins: Vec<Option<(u64, Tile)>>,
}

impl<'g> PageReader<'g> {
    fn new(graph: &'g PagedGraph) -> Self {
        let tiles = graph.tile_first.len().max(1);
        let slots = if tiles <= graph.resident_blocks {
            tiles.next_power_of_two()
        } else {
            1 << graph.resident_blocks.ilog2()
        };
        PageReader { graph, query: PagedStats::default(), pins: vec![None; slots] }
    }

    /// Tile `id`: pinned already, or taken from the shared cache (or disk)
    /// and pinned in place of the slot's previous tile.
    fn page(&mut self, id: u64) -> io::Result<&[u64]> {
        let slot = (id & (self.pins.len() as u64 - 1)) as usize;
        if matches!(&self.pins[slot], Some((pinned, _)) if *pinned == id) {
            self.query.hits += 1;
        } else {
            let page = self.graph.fetch_tile(id, &mut self.query)?;
            self.pins[slot] = Some((id, page));
        }
        Ok(&self.pins[slot].as_ref().expect("slot pinned above").1)
    }
}

impl LabelSearch for PageReader<'_> {
    type Error = io::Error;

    fn search(&mut self, run: u32, tu: u64) -> io::Result<Option<u64>> {
        let (a, b) = self.graph.graph.labels.bounds(run);
        if a == b {
            return Ok(None);
        }
        let tile_pairs = BLOCK_PAIRS as u64;
        let (first, last) = (a / tile_pairs, (b - 1) / tile_pairs);
        // A run in one tile finds it by arithmetic; one that spans
        // tiles searches the first use timestamps of the tiles it starts.
        let tile = if first == last {
            first
        } else {
            let starts = &self.graph.tile_first[first as usize + 1..=last as usize];
            first + starts.partition_point(|&f| f <= tu) as u64
        };
        let page = self.page(tile)?;
        let (n, base) = (page.len() / 2, tile * tile_pairs);
        let (lo, hi) = ((a.max(base) - base) as usize, (b - base).min(n as u64) as usize);
        Ok(page[lo..hi].binary_search(&tu).ok().map(|i| page[n + lo + i]))
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

    /// A program whose single run spans many spill blocks.
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
        assert_eq!(st.bytes_read % PAIR_BYTES, 0, "whole pairs only: {st:?}");
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
        assert!(paged.tile_first.len() >= 2, "expected multiple tiles");
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
        assert!(paged.tile_first.len() >= 3, "need at least 3 tiles");
        assert_eq!(paged.shards.len(), 1);
        let query = &mut PagedStats::default();
        let load = |id, query: &mut PagedStats| paged.fetch_tile(id, query).unwrap();
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
        assert!(shard.tiles.contains_key(&0), "hot block evicted");
        assert!(!shard.tiles.contains_key(&1), "cold block survived");
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

    /// The spill file is the label arena in 4 KiB tiles: tile `t` sits at
    /// byte `t * 4096` and holds arena pairs `256 t..` as its use
    /// timestamps, then their definition timestamps; only the last tile is
    /// short. Each tile's first use timestamp is in the index.
    #[test]
    fn spill_file_is_the_arena_in_tiles() {
        let (p, a, t) = setup(MANY_BLOCKS_SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::none());
        let (tu, td) = build_compact(&p, &a, &t.events, &OptConfig::none()).drain_labels();
        let paged = PagedGraph::spill(opt, spill_path("pages"), 2).unwrap();
        assert_eq!(PAGE_BYTES, 4096);
        assert!(paged.tile_first.len() >= 3, "need several pages");
        let file = std::fs::read(paged.spill_path()).unwrap();
        assert_eq!(file.len() as u64, paged.spilled_bytes());
        assert_eq!(paged.spilled_bytes(), tu.len() as u64 * PAIR_BYTES);
        let words: Vec<u64> =
            file.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap())).collect();
        for (t, (tu, td)) in tu.chunks(BLOCK_PAIRS).zip(td.chunks(BLOCK_PAIRS)).enumerate() {
            let tile = &words[t * 2 * BLOCK_PAIRS..][..2 * tu.len()];
            assert_eq!((&tile[..tu.len()], &tile[tu.len()..]), (tu, td), "tile {t}");
            assert_eq!(paged.tile_first[t], tu[0], "tile {t}'s first use");
        }
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

    /// Spill geometry is checked `u64` arithmetic: a tile past the arena,
    /// or one whose byte offset overflows, is a typed error, not a wrapped
    /// value that silently reads the wrong labels (the record-file chunk
    /// index once had that bug).
    #[test]
    fn tile_geometry_is_checked() {
        assert_eq!(tile_extent(0, 1).unwrap(), (0, 1));
        assert_eq!(tile_extent(1, 600).unwrap(), (4096, BLOCK_PAIRS));
        assert_eq!(tile_extent(2, 600).unwrap(), (8192, 600 - 2 * BLOCK_PAIRS));
        for (t, pairs) in [(3, 600), (0, 0), (1 << 52, u64::MAX), (u64::MAX, u64::MAX)] {
            let err = tile_extent(t, pairs).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tile {t} of {pairs}");
            assert!(err.to_string().contains(&format!("tile {t}")), "{err}");
        }
    }

    /// A lookup of a tile the arena lacks fails the read with
    /// `InvalidData` instead of reading past the spilled pairs.
    #[test]
    fn tile_outside_the_arena_errors() {
        let (p, a, t) = setup(SRC);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let paged = PagedGraph::spill(opt, spill_path("overflow"), 2).unwrap();
        let past = paged.tile_first.len() as u64;
        let err = paged.fetch_tile(past, &mut PagedStats::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(paged.stats(), PagedStats::default(), "a failed lookup counts nothing");
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

    /// At two resident pages, the paged slice of a 3,000-iteration loop
    /// reads each of its tiles about once. The walk alternates between two
    /// long rows, each of whose labels are one run, so each resolution
    /// makes one lookup and the two pin slots hold one tile of each. With
    /// each row's channels probed in discovery order, a one-pair channel
    /// came first and the same slice made 1,878 misses.
    #[test]
    fn loop_slice_at_two_pages_reads_each_tile_about_once() {
        let src = "global int a[1];
             fn main() {
               int i;
               for (i = 0; i < 3000; i = i + 1) { a[0] = a[0] + i; }
               print a[0];
             }";
        let (p, a, t) = setup(src);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let (occ, ts) = *opt.outputs.last().unwrap();
        let want = opt.slice(occ, ts, true);
        let paged = PagedGraph::spill(opt, spill_path("loop-two-pages"), 2).unwrap();
        let (got, _, pages) = paged.slice_with_stats(occ, ts).unwrap();
        assert_eq!(got, want);
        assert!(pages.misses <= 64, "{pages:?} over {} tiles", paged.tile_first.len());
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
    /// a slot per page (a power of two of them, so some stay empty), so it
    /// takes each page from the shared cache once:
    /// its misses are at most the distinct pages it touched, and no page
    /// is ever read twice.
    #[test]
    fn misses_are_bounded_by_the_pages_a_query_touches() {
        let paged = spill_all_resident(MANY_BLOCKS_SRC, "pin-bound");
        assert!(paged.tile_first.len() >= 3, "need several pages");
        for (occ, ts) in criteria(&paged) {
            let mut reader = PageReader::new(&paged);
            let slots = reader.pins.len();
            assert!(slots.is_power_of_two() && slots >= paged.tile_first.len(), "one slot per page");
            assert!(slots < 2 * paged.tile_first.len(), "{slots} slots");
            paged
                .graph
                .slice_in(&mut reader, occ, ts, paged.shortcuts, &mut TraversalStats::default())
                .unwrap();
            let touched = reader.pins.iter().flatten().count() as u64;
            assert!(touched > 0, "the walk read labels");
            assert!(reader.query.misses <= touched, "{:?} over {touched} pages", reader.query);
        }
        assert!(paged.stats().misses <= paged.tile_first.len() as u64, "{:?}", paged.stats());
    }

    /// Below the spilled pages, a budget that is not a power of two gets
    /// the largest power of two within it as pin slots, and the slices
    /// stay those of the all-resident graph.
    #[test]
    fn pin_table_stays_within_the_budget() {
        let all = spill_all_resident(MANY_BLOCKS_SRC, "pin-budget-all");
        let (p, a, t) = setup(MANY_BLOCKS_SRC);
        assert!(all.tile_first.len() > 6, "need more pages than the budgets");
        for (budget, slots) in [(1, 1), (3, 2), (6, 4)] {
            let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
            let paged = PagedGraph::spill(opt, spill_path(&format!("pin-budget-{budget}")), budget).unwrap();
            assert_eq!(PageReader::new(&paged).pins.len(), slots, "budget {budget}");
            for (occ, ts) in criteria(&all) {
                assert_eq!(paged.slice(occ, ts).unwrap(), all.slice(occ, ts).unwrap(), "budget {budget}");
            }
        }
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
