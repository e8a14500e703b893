//! Concurrent TCP serving throughput — the artifact behind the slice
//! *service* framing: one expensively built dependence graph answering
//! remote queries for many clients at once.
//!
//! The harness runs `dynslice::serve` in-process on an ephemeral TCP
//! port with a preloaded OPT session, then drives N ∈ {1, 2, 4, 8}
//! concurrent clients through the builder API (hello handshake
//! included). Every client issues the same round-robin mix of slice
//! criteria; every response is verified against a direct in-process
//! `OptSlicer` answer before its time counts — a fast-but-wrong server
//! fails the harness rather than landing in the trajectory. Reported
//! per client count: aggregate queries/s, mean per-query latency, and
//! the server's cache-hit fraction (an LRU serve cache makes repeated
//! criteria nearly free, so the hit rate contextualizes the qps).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dynslice::{
    serve, Algo, Criterion, OwnedSlicer, Registry, ServeConfig, Session, SessionManager,
    SliceClient, Slicer, SlicerConfig, Transport,
};
use dynslice_bench::*;

const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    header(
        "Serve throughput",
        "N concurrent TCP clients, handshaked builder connections, preloaded OPT session",
    );
    println!(
        "{:<14} {:>8} {:>9} {:>9} {:>10} {:>11} {:>8}",
        "benchmark", "clients", "queries", "wall ms", "queries/s", "latency µs", "hit %"
    );
    let report = BenchReport::new("serve_throughput");
    let w = dynslice::workloads::by_name("164.gzip").expect("suite workload exists");
    let p = prepare(&w);
    let reg = Registry::disabled();
    let slicer = p
        .session
        .build_slicer(Algo::Opt, &p.trace, &SlicerConfig::default(), &reg)
        .expect("opt build is in-memory");
    let criteria: Vec<Criterion> = {
        let graph = slicer.compact_graph().expect("opt exposes the graph");
        queries(graph.last_def.keys().copied())
    };
    assert!(!criteria.is_empty(), "workload defines cells to slice on");
    // The ground truth every wire answer is checked against.
    let expected: Vec<Vec<u32>> = criteria
        .iter()
        .map(|c| {
            let slice = slicer.slice(c).expect("criterion executed");
            slice.stmts.iter().map(|s| s.index() as u32).collect()
        })
        .collect();
    let per_client = (num_queries() * 8).max(40);

    for n in CLIENT_COUNTS {
        let manager =
            SessionManager::new(Algo::Opt, SlicerConfig::default(), 4, None, 128);
        // A fresh default session per run, so every client count starts
        // from a cold result cache.
        let session =
            Session { program: p.session.program.clone(), analysis: p.session.analysis.clone() };
        let default = manager.default_entry(
            OwnedSlicer::from_trace(session, &p.trace, Algo::Opt, &SlicerConfig::default(), &reg)
                .expect("opt build is in-memory"),
        );
        let config = ServeConfig { workers: 4, ..ServeConfig::default() };
        let transport = Transport::tcp("127.0.0.1:0").expect("bind ephemeral port");
        let addr = transport.local_addr().expect("tcp transport is bound").to_string();
        let total_micros = Arc::new(AtomicU64::new(0));
        // Clients connect first, then start querying together, so the
        // timed window holds steady-state concurrency, not dial-up.
        let start_line = Arc::new(Barrier::new(n + 1));

        let wall = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                serve(&default, &manager, &config, vec![transport], &reg).expect("serve session")
            });
            let clients: Vec<_> = (0..n)
                .map(|_| {
                    let addr = addr.clone();
                    let start_line = Arc::clone(&start_line);
                    let total_micros = Arc::clone(&total_micros);
                    let criteria = &criteria;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut client = SliceClient::builder()
                            .tcp(addr)
                            .connect()
                            .expect("handshake");
                        start_line.wait();
                        for q in 0..per_client {
                            let k = q % criteria.len();
                            let t0 = Instant::now();
                            let response = client.slice(&criteria[k]).expect("slice answered");
                            let micros = t0.elapsed().as_micros() as u64;
                            total_micros.fetch_add(micros, Ordering::Relaxed);
                            match response.body {
                                dynslice::protocol::ResponseBody::Slice {
                                    ref stmts, ..
                                } => {
                                    assert_eq!(
                                        stmts, &expected[k],
                                        "wire answer must match the in-process slicer"
                                    );
                                }
                                ref other => panic!("slice answered {other:?}"),
                            }
                        }
                    })
                })
                .collect();
            start_line.wait();
            let t0 = Instant::now();
            for client in clients {
                client.join().expect("client thread");
            }
            let wall = t0.elapsed();
            let mut closer =
                SliceClient::builder().tcp(addr.clone()).connect().expect("closer connects");
            closer.shutdown().expect("shutdown ack");
            server.join().expect("server thread");
            wall
        });
        let counters = manager.server_counters();
        let count = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let cache_hits = count(&counters.cache_hits);
        let cache_misses = count(&counters.cache_misses);

        let total = (n * per_client) as u64;
        let qps = total as f64 / wall.as_secs_f64().max(1e-9);
        let latency = total_micros.load(Ordering::Relaxed) as f64 / total as f64;
        let hit_rate = cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64;
        assert_eq!(count(&counters.connections), n as u64 + 1, "n clients + the closer");
        assert_eq!(count(&counters.handshakes), n as u64 + 1);

        let row = format!("clients_{n}");
        report.counter(&row, "clients", n as u64);
        report.counter(&row, "queries", total);
        report.counter(&row, "cache_hits", cache_hits);
        report.gauge(&row, "wall_ms", wall.as_secs_f64() * 1e3);
        report.gauge(&row, "queries_per_sec", qps);
        report.gauge(&row, "mean_latency_us", latency);
        println!(
            "{:<14} {:>8} {:>9} {:>9} {:>10.0} {:>11.1} {:>7.1}%",
            row,
            n,
            total,
            ms(wall),
            qps,
            latency,
            hit_rate * 100.0,
        );
    }
    println!("(each answer verified against a direct OptSlicer; wall excludes connect+hello —");
    println!(" the LRU serve cache absorbs repeats, so hit % contextualizes the qps)");
    report.finish();
}
