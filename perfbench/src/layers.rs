//! Per-layer metrics of the traced run.
//!
//! Two sources, neither inside the program: the traced server's
//! `--metrics-json` report, and spans the harness records around its own
//! in-process calls into each layer's public functions, on the same
//! programs, criteria and wire lines the workload used.

use std::io;
use std::path::Path;

use dynslice::protocol::{Request, Response};
use dynslice::{
    build_compact, snapshot, Algo, Criterion, OptConfig, OptSlicer, OwnedSlicer, PagedGraph,
    Registry, RunReport, Session, SessionManager, SessionSpec, SlicerConfig, Slicer, Snapshot,
};

use crate::common::{Ctx, Program, Report};
use crate::stats::Samples;

pub struct LayerInput<'a> {
    pub programs: &'a [Program],
    /// Per program, the criteria the workload sliced it on.
    pub criteria: &'a [Vec<Criterion>],
    /// Index of the program the workload also served as a paged session.
    pub paged_program: usize,
    /// Request and reply lines the workload exchanged.
    pub lines: &'a [(String, String)],
    pub dir: &'a Path,
}

/// Counters and gauges from the traced server's own report.
pub fn server_metrics(r: &RunReport, report: &mut Report) {
    let c = |k: &str| r.counters.get(k).copied().unwrap_or(0) as f64;
    let g = |k: &str| r.gauges.get(k).copied().unwrap_or(0.0);
    report.set("server.queue_peak", g("server.queue_peak"), "count");
    report.set("server.in_flight_peak", g("server.in_flight_peak"), "count");
    report.set("net.bytes_per_reply", c("net.write_bytes") / c("server.requests").max(1.0), "bytes");
    report.set("sessions.evicted", c("server.sessions_evicted"), "count");
    report.set("sessions.resident_mb", g("server.sessions_resident_bytes") / 1048576.0, "MB");
}

/// Times each layer in-process on the workload's own inputs.
pub fn measure(ctx: &Ctx, input: &LayerInput, report: &mut Report) -> io::Result<()> {
    let root = ctx.spans.open();
    let parent = root.0;
    let spans = &ctx.spans;
    let reps = if ctx.tiny { 1 } else { 3 };
    let config = SlicerConfig { scratch_dir: input.dir.join("layers"), ..SlicerConfig::default() };
    let reg = Registry::disabled();

    let (mut compile, mut run, mut build) = (Samples::default(), Samples::default(), Samples::default());
    let (mut encode, mut decode) = (Samples::default(), Samples::default());
    let (mut first_touch, mut opt) = (Samples::default(), Samples::default());
    let (mut admit_load, mut admit_build) = (Samples::default(), Samples::default());
    let (mut stmts, mut snap_bytes, mut compact_bytes) = (0u64, 0u64, 0u64);
    let (mut visited, mut hits, mut materialized, mut warm_n, mut first_n) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut paged_opt = Samples::default();

    for (i, p) in input.programs.iter().enumerate() {
        let criteria = &input.criteria[i];
        for rep in 0..reps {
            let (session, d) = spans.time("frontend.compile", parent, || Session::compile(&p.src));
            let session = session.map_err(|e| io::Error::other(e.to_string()))?;
            compile.push(d);
            let (trace, d) = spans.time("runtime.run", parent, || session.run(p.input.clone()));
            run.push(d);
            let (graph, d) = spans.time("graph.build_compact", parent, || {
                build_compact(&session.program, &session.analysis, &trace.events, &OptConfig::default())
            });
            build.push(d);
            let snap = Snapshot {
                source: p.src.clone(),
                input: p.input.clone(),
                config: OptConfig::default(),
                graph,
            };
            let (bytes, d) = spans.time("graph.snapshot_encode", parent, || snapshot::encode(&snap));
            encode.push(d);
            let (restored, d) = spans.time("graph.snapshot_decode", parent, || snapshot::decode(&bytes));
            decode.push(d);
            let restored = restored.map_err(|e| io::Error::other(e.to_string()))?;
            if rep > 0 {
                continue;
            }
            stmts += trace.stmts_executed;
            snap_bytes += bytes.len() as u64;
            // First touch: every criterion once on the fresh backend.
            let slicer = OptSlicer::from_graph(restored.graph);
            for c in criteria {
                let (r, d) = spans.time("slicing.first_touch", parent, || slicer.slice_with_stats(c));
                let (_, stats) = r.map_err(|e| io::Error::other(format!("{e:?}")))?;
                first_touch.push(d);
                materialized += stats.shortcuts_materialized;
                first_n += 1;
            }
            // Warm: the state a long-lived session serves from.
            for c in criteria {
                let (r, d) = spans.time("slicing.opt", parent, || slicer.slice_with_stats(c));
                let (_, stats) = r.map_err(|e| io::Error::other(format!("{e:?}")))?;
                opt.push(d);
                if i == input.paged_program {
                    paged_opt.push(d);
                }
                visited += stats.instances_visited;
                hits += stats.shortcut_hits;
                warm_n += 1;
            }
            compact_bytes += slicer.graph().size(true).bytes();
        }
        // Admission: `SessionManager::load` minus the backend build it
        // performs, on the same spec.
        let spec = SessionSpec {
            name: p.label.clone(),
            program: p.path.clone(),
            input: p.input.clone(),
            algo: None,
            snapshot: None,
        };
        for _ in 0..reps {
            let manager = SessionManager::new(Algo::Opt, config.clone(), 8, None, 128);
            let (loaded, d) = spans.time("sessions.load", parent, || manager.load(&spec, &reg));
            loaded.map_err(|e| io::Error::other(e.to_string()))?;
            admit_load.push(d);
            let (built, d) = spans.time("sessions.backend_build", parent, || {
                OwnedSlicer::build(&p.src, p.input.clone(), Algo::Opt, &config, &reg)
            });
            built.map_err(|e| io::Error::other(e.to_string()))?;
            admit_build.push(d);
        }
    }

    // The paged hybrid on the program the workload also served paged.
    let p = &input.programs[input.paged_program];
    let session = Session::compile(&p.src).map_err(|e| io::Error::other(e.to_string()))?;
    let trace = session.run(p.input.clone());
    let graph = build_compact(&session.program, &session.analysis, &trace.events, &OptConfig::default());
    std::fs::create_dir_all(&config.scratch_dir)?;
    let spill = config.scratch_dir.join("layers-spill.pg");
    let paged = PagedGraph::spill(graph, &spill, config.resident_blocks)?;
    let before = paged.stats();
    let mut paged_lat = Samples::default();
    let criteria = &input.criteria[input.paged_program];
    for c in criteria {
        let (r, d) = spans.time("slicing.paged", parent, || Slicer::slice_with_stats(&paged, c));
        r.map_err(|e| io::Error::other(format!("{e:?}")))?;
        paged_lat.push(d);
    }
    let delta = paged.stats() - before;
    drop(paged);

    // The protocol codec on the lines the workload exchanged.
    let (mut enc_req, mut parse_req, mut enc_resp, mut parse_resp) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let codec_reps = if ctx.tiny { 5 } else { 50 };
    for (req_line, resp_line) in input.lines {
        for _ in 0..codec_reps {
            let (req, d) = spans.time("protocol.parse_request", parent, || Request::parse(req_line));
            let req = req.map_err(io::Error::other)?;
            parse_req.push(d);
            enc_req.push(spans.time("protocol.encode_request", parent, || req.to_json()).1);
            let (resp, d) = spans.time("protocol.parse_response", parent, || Response::parse(resp_line));
            let resp = resp.map_err(io::Error::other)?;
            parse_resp.push(d);
            enc_resp.push(spans.time("protocol.encode_response", parent, || resp.to_json()).1);
        }
    }
    ctx.spans.close(root, "layers", 0);

    let n_programs = input.programs.len() as f64;
    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    let us = |s: &Samples| s.median() * 1e3;
    let ms = |s: &Samples| s.median();
    let paged_n = criteria.len() as u64;
    report.set("protocol.encode_request_us", us(&enc_req), "us");
    report.set("protocol.parse_request_us", us(&parse_req), "us");
    report.set("protocol.encode_response_us", us(&enc_resp), "us");
    report.set("protocol.parse_response_us", us(&parse_resp), "us");
    report.set("frontend.compile_ms_p50", ms(&compile), "ms");
    report.set("runtime.trace_ms_p50", ms(&run), "ms");
    report.set("runtime.stmts_executed", stmts as f64 / n_programs, "count");
    report.set("graph.build_ms_p50", ms(&build), "ms");
    report.set("graph.snapshot_encode_ms", ms(&encode), "ms");
    report.set("graph.snapshot_decode_ms", ms(&decode), "ms");
    report.set("graph.snapshot_kb", snap_bytes as f64 / 1024.0 / n_programs, "KB");
    report.set("graph.compact_kb", compact_bytes as f64 / 1024.0 / n_programs, "KB");
    report.set("sessions.admit_ms_p50", ms(&admit_load) - ms(&admit_build), "ms");
    report.set("slicing.opt_p50_ms", ms(&opt), "ms");
    report.set("slicing.first_touch_p50_ms", ms(&first_touch), "ms");
    report.set("slicing.instances_visited", per(visited, warm_n), "count");
    report.set("slicing.shortcut_hits", per(hits, warm_n), "count");
    report.set("slicing.shortcuts_materialized", per(materialized, first_n), "count");
    report.set("slicing.paged_p50_ms", ms(&paged_lat), "ms");
    report.set("graph.paged_misses_per_slice", per(delta.misses, paged_n), "count");
    report.set("graph.paged_hit_rate", delta.hit_rate(), "1");
    report.set("graph.paged_bytes_read_per_slice", per(delta.bytes_read, paged_n), "bytes");
    report.set("graph.paged_over_opt", ms(&paged_lat) / ms(&paged_opt), "1");
    Ok(())
}
