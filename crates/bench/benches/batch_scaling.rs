//! Batch-engine scaling — throughput of the parallel batch slice engine at
//! 1/2/4/8 workers over the Fig. 18-style query workload (25 distinct
//! memory criteria per benchmark).
//!
//! Slicing is read-only over a shared `CompactGraph`, so throughput should
//! scale with cores until memory bandwidth saturates. The harness measures
//! sustained query service: the cache is OFF (every query traverses) and
//! the shortcut memo table is pre-warmed by an untimed pass, so each
//! configuration does identical traversal work. Speedup is reported
//! against the 1-worker run of the same batch.
//!
//! Honesty note: speedup is bounded by the machine — the harness prints
//! `available_parallelism` first. On a 1-core container every worker count
//! serves roughly the same throughput (the scoped pool adds only spawn
//! overhead); the ≥3×-at-8-workers shape manifests on multi-core hardware.

use dynslice::{slice_batch, BatchConfig, OptConfig};
use dynslice_bench::*;

/// Resident budget for the paged backend rows, in 4 KiB label pages
/// (128 pages = 512 KiB, the `dynslice` default).
fn resident_blocks() -> usize {
    std::env::var("DYNSLICE_RESIDENT").ok().and_then(|s| s.parse().ok()).unwrap_or(128)
}

fn main() {
    header("Batch scaling", "parallel batch engine throughput vs worker count");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("   (available_parallelism = {cores}; speedup is machine-bound)");
    // Each query set is repeated so the batch is long enough for dynamic
    // load balancing to matter; cache stays off so all repeats traverse.
    let rounds: usize =
        std::env::var("DYNSLICE_ROUNDS").ok().and_then(|s| s.parse().ok()).unwrap_or(8);
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "benchmark", "queries", "1w q/s", "2w q/s", "4w q/s", "8w q/s", "8w/1w"
    );
    let report = BenchReport::new("batch_scaling");
    let mut paged_rows = Vec::new();
    let dir = std::env::temp_dir().join(format!("dynslice-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for p in prepare_all() {
        let opt = p.session.opt(&p.trace, &OptConfig::default());
        let qs = queries(opt.graph().last_def.keys().copied());
        let batch: Vec<_> = qs.iter().copied().cycle().take(qs.len() * rounds).collect();
        // Untimed warm-up: materialize every shortcut closure the batch
        // needs, so worker counts compare pure traversal throughput.
        let _ = slice_batch(&opt, &qs, BatchConfig { workers: 1, cache: false });
        let mut rates = Vec::new();
        for workers in [1usize, 2, 4, 8] {
            let result =
                slice_batch(&opt, &batch, BatchConfig { workers, cache: false });
            assert_eq!(result.stats.total_queries(), batch.len() as u64);
            report.gauge(p.name, &format!("qps_w{workers}"), result.stats.throughput());
            rates.push(result.stats.throughput());
        }
        report.counter(p.name, "queries", batch.len() as u64);
        report.gauge(p.name, "speedup_8w", rates[3] / rates[0].max(1e-9));
        println!(
            "{:<14} {:>8} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>8.2}x",
            p.name,
            batch.len(),
            rates[0],
            rates[1],
            rates[2],
            rates[3],
            rates[3] / rates[0].max(1e-9),
        );

        // Same batch through the §4.2 paged backend: throughput plus the
        // block-cache miss rate at each worker count (per-run counter
        // deltas; the sharded cache is shared across workers).
        let paged = p
            .session
            .paged(
                &p.trace,
                &OptConfig::default(),
                dir.join(format!("{}.pg", p.name)),
                resident_blocks(),
            )
            .unwrap();
        let mut cols = String::new();
        for workers in [1usize, 2, 4, 8] {
            let before = paged.stats();
            let result =
                slice_batch(&paged, &batch, BatchConfig { workers, cache: false });
            assert!(result.errors.is_empty(), "paged I/O errors: {:?}", result.errors);
            let delta = paged.stats() - before;
            report.gauge(p.name, &format!("paged_qps_w{workers}"), result.stats.throughput());
            report.gauge(p.name, &format!("paged_miss_rate_w{workers}"), 1.0 - delta.hit_rate());
            cols.push_str(&format!(
                " {:>9.0} {:>5.1}%",
                result.stats.throughput(),
                (1.0 - delta.hit_rate()) * 100.0
            ));
        }
        paged_rows.push(format!("{:<14} {:>8}{cols}", p.name, batch.len()));
    }
    println!("(read-only graph + shared warm memo table: scaling tracks core count)");

    println!();
    println!(
        "-- paged backend (resident budget {} pages): q/s and miss rate per worker count",
        resident_blocks()
    );
    println!(
        "{:<14} {:>8} {:>9} {:>6} {:>9} {:>6} {:>9} {:>6} {:>9} {:>6}",
        "benchmark", "queries", "1w q/s", "miss%", "2w q/s", "miss%", "4w q/s", "miss%", "8w q/s",
        "miss%"
    );
    for row in paged_rows {
        println!("{row}");
    }
    println!("(paged throughput trails OPT by the cache-miss I/O; miss rate, not workers,");
    println!(" is the lever — see hybrid_paging for the budget sweep)");
    report.finish();
}
