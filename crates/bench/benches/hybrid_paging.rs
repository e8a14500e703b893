//! Extension (paper §4.2, "Combining idea behind LP with OPT"): the
//! compacted graph with its label pages spilled to disk and paged in on
//! demand. Reports resident memory vs the in-memory OPT graph, the
//! slicing-time cost of paging, and — now that the paged backend is
//! thread-safe — parallel batch throughput and page-cache miss rates at
//! 1/2/4/8 workers.
//!
//! Resident memory is *actual occupancy* (graph, index, the pages resident
//! and the shortcut closures materialized at measurement time), not the
//! cache's worst-case capacity; the second table's hit rates are per-run
//! deltas of the graph's atomic counters. `lbl/q` is label searches per
//! query (the paper's labeled-edge cost), OPT's then paged's: one walk, so
//! the two agree.

use dynslice::{slice_batch, BatchConfig, OptConfig, Slicer};
use dynslice_bench::*;

/// Resident budget for the paged runs, in 4 KiB label pages (128 pages
/// = 512 KiB, the `dynslice` default).
fn resident_blocks() -> usize {
    std::env::var("DYNSLICE_RESIDENT").ok().and_then(|s| s.parse().ok()).unwrap_or(128)
}

fn main() {
    header("Hybrid OPT+LP", "demand-paged label pages (paper §4.2 proposal)");
    let resident = resident_blocks();
    println!("   (resident budget {resident} 4 KiB pages; DYNSLICE_RESIDENT to change)");
    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>14} {:>12} {:>8} {:>7} {:>15}",
        "program",
        "OPT (KB)",
        "resident (KB)",
        "disk (KB)",
        "OPT slice",
        "paged",
        "misses",
        "hit%",
        "lbl/q OPT/paged"
    );
    let report = BenchReport::new("hybrid_paging");
    report.registry().gauge_set("config.resident_blocks", resident as f64);
    let dir = std::env::temp_dir().join(format!("dynslice-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut pageds = Vec::new();
    for p in prepare_all() {
        let opt = p.session.opt(&p.trace, &OptConfig::default());
        let qs = queries(opt.graph().last_def.keys().copied());
        let opt_kb = opt.graph().size(false).bytes() as f64 / 1024.0;
        let mut opt_searches = 0;
        for q in &qs {
            // Warms shortcut memos for fairness.
            opt_searches += opt.slice_with_stats(q).map_or(0, |(_, s)| s.label_searches);
        }
        let (_, t_opt) = time(|| {
            for q in &qs {
                let _ = opt.slice(q);
            }
        });

        let paged = p
            .session
            .paged(
                &p.trace,
                &OptConfig::default(),
                dir.join(format!("{}.pg", p.name)),
                resident,
            )
            .unwrap();
        let (paged_searches, t_paged) = time(|| {
            qs.iter()
                .map(|q| Slicer::slice_with_stats(&paged, q).map_or(0, |(_, s)| s.label_searches))
                .sum::<u64>()
        });
        let per_query = |n: u64| n as f64 / qs.len().max(1) as f64;
        let st = paged.stats();
        report.gauge(p.name, "opt_kb", opt_kb);
        report.gauge(p.name, "resident_kb", paged.resident_bytes() as f64 / 1024.0);
        report.gauge(p.name, "disk_kb", paged.spilled_bytes() as f64 / 1024.0);
        report.gauge(p.name, "opt_slice_ms", t_opt.as_secs_f64() * 1e3);
        report.gauge(p.name, "paged_slice_ms", t_paged.as_secs_f64() * 1e3);
        report.counter(p.name, "cache_misses", st.misses);
        report.gauge(p.name, "hit_rate", st.hit_rate());
        report.gauge(p.name, "opt_label_searches_per_query", per_query(opt_searches));
        report.gauge(p.name, "paged_label_searches_per_query", per_query(paged_searches));
        println!(
            "{:<12} {:>12.1} {:>14.1} {:>12.1} {:>11} ms {:>9} ms {:>8} {:>6.1}% {:>7.0}/{:<7.0}",
            p.name,
            opt_kb,
            paged.resident_bytes() as f64 / 1024.0,
            paged.spilled_bytes() as f64 / 1024.0,
            ms(t_opt),
            ms(t_paged),
            st.misses,
            st.hit_rate() * 100.0,
            per_query(opt_searches),
            per_query(paged_searches),
        );
        pageds.push((p, qs, paged));
    }
    println!("(the hybrid trades slicing time for bounded label memory, as §4.2 predicts)");

    println!();
    println!("-- paged batch scaling: queries/s and miss rate vs worker count");
    println!(
        "{:<12} {:>8} {:>8} {:>6} {:>8} {:>6} {:>8} {:>6} {:>8} {:>6}",
        "program", "queries", "1w q/s", "miss%", "2w q/s", "miss%", "4w q/s", "miss%", "8w q/s",
        "miss%"
    );
    for (p, qs, paged) in &pageds {
        let batch: Vec<_> = qs.iter().copied().cycle().take(qs.len() * 4).collect();
        let mut cols = String::new();
        for workers in [1usize, 2, 4, 8] {
            let before = paged.stats();
            let result = slice_batch(
                paged,
                &batch,
                BatchConfig { workers, cache: false },
            );
            assert!(result.errors.is_empty(), "paged I/O errors: {:?}", result.errors);
            let delta = paged.stats() - before;
            report.gauge(p.name, &format!("batch_qps_w{workers}"), result.stats.throughput());
            report.gauge(p.name, &format!("batch_miss_rate_w{workers}"), 1.0 - delta.hit_rate());
            cols.push_str(&format!(
                " {:>8.0} {:>5.1}%",
                result.stats.throughput(),
                (1.0 - delta.hit_rate()) * 100.0
            ));
        }
        println!("{:<12} {:>8}{cols}", p.name, batch.len());
    }
    println!("(shared sharded cache: one worker's miss is every worker's hit)");
    report.finish();
}
