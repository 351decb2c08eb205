//! The traced run: the daemon's work, driven in-process through the
//! public functions it calls, with a span around each call.
//!
//! A pass decomposes every request the way `Engine::execute` does:
//! parse (`QueryRequest::from_json_str`), resolve (`workload_by_name`,
//! `Workload::trace_hash`), memo probe (`ResultStore::get`), capture and
//! lowering (`TraceStore::get` / `get_blocks`, `WarmDigest::build`), the
//! pool drain (`drain_cells_timed` over `replay_blocks` or
//! `run_sampled_digest`), append (`ResultStore::put`) and encode
//! (`ResponseLine::to_json`). After a warm-up pass, the pass runs twice
//! in one process, untraced and then traced, each time with a fresh
//! `TraceStore` and a fresh result store, so the difference of the two
//! walls is the tracing overhead.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use aurora_bench::harness::{drain_cells_timed, MatrixMetrics};
use aurora_core::{replay, replay_blocks, run_sampled_digest, SampledStats, WarmDigest};
use aurora_isa::{BlockTrace, PackedTrace};
use aurora_serve::client::query_unix;
use aurora_serve::engine::cell_config_fp;
use aurora_serve::proto::{CellResult, CellSource, QueryRequest, QuerySummary, ResponseLine};
use aurora_serve::server::spawn_unix;
use aurora_serve::{CellKey, CellValue, Engine, Mode, ResultStore, SampledCell};
use aurora_workloads::{workload_by_name, TraceStore, Workload};

use crate::spans::{self, Span, Tracer};

/// Counters a pass accumulates over its measured (non-set-up) requests,
/// except where noted.
#[derive(Default)]
struct PassOut {
    wall: f64,
    spans: Vec<Span>,
    /// Captures over the whole pass (set-up included).
    captures: u64,
    capture_instr: u64,
    /// Lowered ops over the whole pass: dynamic and static.
    lower_dyn: u64,
    lower_static: u64,
    exact_instr: u64,
    dcache_misses: u64,
    icache_misses: u64,
    stall_cycles: u64,
    sampled_instr: u64,
    sampled_detailed: u64,
    drains: Vec<(Option<usize>, MatrixMetrics)>,
    probes: usize,
    hits: usize,
}

struct Bundle {
    packed: Arc<PackedTrace>,
    blocks: Option<Arc<BlockTrace>>,
    digest: Option<WarmDigest>,
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn record_cell(out: &mut PassOut, value: &CellValue) {
    match value {
        CellValue::Exact(s) => {
            out.exact_instr += s.instructions;
            out.dcache_misses += s.dcache.misses;
            out.icache_misses += s.icache.misses;
            out.stall_cycles += s.stalls.total();
        }
        CellValue::Sampled(s) => {
            out.sampled_instr += s.instructions;
            out.sampled_detailed += s.detailed_instructions;
        }
    }
}

fn cell_line(
    ci: usize,
    name: &str,
    workload: &Workload,
    source: CellSource,
    value: &CellValue,
) -> ResponseLine {
    let result = match value {
        CellValue::Exact(stats) => CellResult::Exact(stats.clone()),
        CellValue::Sampled(s) => CellResult::Sampled(SampledStats {
            instructions: s.instructions,
            detailed_instructions: s.detailed_instructions,
            windows: s.windows as usize,
            cpi: f64::from_bits(s.cpi_bits),
            ci_half_width: f64::from_bits(s.ci_bits),
        }),
    };
    ResponseLine::Cell {
        config_index: ci,
        config_name: name.to_owned(),
        workload: workload.name().to_owned(),
        source,
        result,
    }
}

struct Ctx<'a> {
    tracer: &'a Tracer,
    store: &'a ResultStore,
    traces: &'a TraceStore,
}

/// One request, decomposed as the engine executes it.
fn serve_query(
    cx: &Ctx<'_>,
    text: &str,
    qid: usize,
    measured: bool,
    q: Option<usize>,
    out: &mut PassOut,
) -> Result<(), String> {
    let t = cx.tracer;
    let qs = Some(qid);
    let (req, configs) = t.span("serve.parse", q, qs, |_| {
        let req = QueryRequest::from_json_str(text).map_err(|e| e.0)?;
        let configs = req.machine_configs().map_err(|e| e.0)?;
        Ok::<_, String>((req, configs))
    })?;
    let (workloads, hashes) = t.span("workloads.resolve", q, qs, |_| {
        let ws = req
            .workloads
            .iter()
            .map(|n| workload_by_name(n, req.scale).ok_or_else(|| format!("unknown `{n}`")))
            .collect::<Result<Vec<_>, _>>()?;
        let hs: Vec<u64> = ws.iter().map(Workload::trace_hash).collect();
        Ok::<_, String>((ws, hs))
    })?;
    let key = |wi: usize, ci: usize| CellKey {
        config_fp: cell_config_fp(&configs[ci], req.mode, &req.sampling),
        trace_hash: hashes[wi],
        mode: req.mode,
    };

    let mut lines = Vec::new();
    let mut summary = QuerySummary {
        cells: configs.len() * workloads.len(),
        ..QuerySummary::default()
    };
    let mut cold: Vec<(usize, usize)> = Vec::new();
    t.span("serve.store_get", q, qs, |_| {
        for (wi, w) in workloads.iter().enumerate() {
            for (ci, cfg) in configs.iter().enumerate() {
                match cx.store.get(&key(wi, ci)) {
                    Some(v) => {
                        summary.memo_hits += 1;
                        lines.push(cell_line(ci, &cfg.name, w, CellSource::Memo, &v));
                    }
                    None => cold.push((wi, ci)),
                }
            }
        }
    });
    if measured {
        out.probes += summary.cells;
        out.hits += summary.memo_hits;
    }

    if !cold.is_empty() {
        let mut needed: Vec<usize> = cold.iter().map(|&(wi, _)| wi).collect();
        needed.sort_unstable();
        needed.dedup();
        let mut bundles: BTreeMap<usize, Bundle> = BTreeMap::new();
        for wi in needed {
            let w = &workloads[wi];
            let before = cx.traces.captures();
            let packed = t
                .span("isa.capture", q, qs, |_| cx.traces.get(w))
                .map_err(err)?;
            if measured && cx.traces.captures() > before {
                out.capture_instr += packed.len() as u64;
            }
            let (mut blocks, mut digest) = (None, None);
            match req.mode {
                Mode::Block => {
                    let before = cx.traces.lowerings();
                    let b = t
                        .span("isa.lower", q, qs, |_| cx.traces.get_blocks(w))
                        .map_err(err)?;
                    if cx.traces.lowerings() > before {
                        out.lower_dyn += b.len();
                        out.lower_static += b.static_ops() as u64;
                    }
                    blocks = Some(b);
                }
                Mode::Sampled => {
                    digest = Some(t.span("core.digest", q, qs, |_| {
                        WarmDigest::build(packed.records(), 32)
                    }));
                }
                Mode::Detailed => {}
            }
            bundles.insert(
                wi,
                Bundle {
                    packed,
                    blocks,
                    digest,
                },
            );
        }

        let ((values, metrics), drain_span) = t.span("bench.drain", q, qs, |d| {
            let drained = drain_cells_timed(
                cold.len(),
                |i| {
                    let (wi, ci) = cold[i];
                    let b = &bundles[&wi];
                    let cfg = &configs[ci];
                    match req.mode {
                        Mode::Block => t.span("core.replay", d, qs, |_| {
                            CellValue::Exact(replay_blocks(
                                cfg,
                                b.blocks.as_ref().expect("lowered"),
                            ))
                        }),
                        Mode::Detailed => t.span("core.replay", d, qs, |_| {
                            CellValue::Exact(replay(cfg, &b.packed))
                        }),
                        Mode::Sampled => t.span("core.sampled", d, qs, |_| {
                            let digest = b.digest.as_ref().expect("digest built");
                            let s =
                                run_sampled_digest(cfg, &req.sampling, b.packed.records(), digest);
                            CellValue::Sampled(SampledCell {
                                instructions: s.instructions,
                                detailed_instructions: s.detailed_instructions,
                                windows: s.windows as u64,
                                cpi_bits: s.cpi.to_bits(),
                                ci_bits: s.ci_half_width.to_bits(),
                            })
                        }),
                    }
                },
                |_, _| {},
            );
            (drained, d)
        });
        if measured {
            out.drains.push((drain_span, metrics.clone()));
        }
        for (&(wi, ci), value) in cold.iter().zip(&values) {
            if measured {
                record_cell(out, value);
            }
            t.span("serve.store_put", q, qs, |_| {
                cx.store.put(&key(wi, ci), value)
            })
            .map_err(err)?;
            summary.simulated += 1;
            lines.push(cell_line(
                ci,
                &configs[ci].name,
                &workloads[wi],
                CellSource::Simulated,
                value,
            ));
        }
        summary.cold_wall_seconds = metrics.wall_seconds;
        summary.achieved_parallelism = metrics.achieved_parallelism();
    }
    lines.push(ResponseLine::Summary(summary));
    t.span("serve.encode", q, qs, |_| {
        for line in &lines {
            black_box(line.to_json().to_string());
        }
    });
    Ok(())
}

fn serve_pass(
    requests: &[String],
    setup: usize,
    dir: &Path,
    tracer: Tracer,
) -> Result<PassOut, String> {
    let _ = std::fs::remove_dir_all(dir);
    let traces = TraceStore::new();
    let mut out = PassOut::default();
    let start = Instant::now();
    let t = &tracer;
    t.span("pass", None, None, |root| {
        let store = t
            .span("serve.store_open", root, None, |_| ResultStore::open(dir))
            .map_err(err)?;
        let cx = Ctx {
            tracer: t,
            store: &store,
            traces: &traces,
        };
        for (qid, text) in requests.iter().enumerate() {
            t.span("query", root, Some(qid), |q| {
                serve_query(&cx, text, qid, qid >= setup, q, &mut out)
            })?;
        }
        Ok::<_, String>(())
    })?;
    out.wall = start.elapsed().as_secs_f64();
    out.captures = traces.captures();
    out.spans = tracer.into_spans();
    Ok(out)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Opens the filled store as the daemon would and times warm requests
/// over a unix socket against the same requests executed in-process
/// (parse, execute and encode included on both sides). Returns the open
/// time in seconds and the transport time in milliseconds.
fn transport(dir: &Path, warm: &[String]) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let store = ResultStore::open(dir).map_err(err)?;
    let open_s = start.elapsed().as_secs_f64();
    let engine = Arc::new(Engine::new(store));
    let sock = dir.join("t.sock");
    let server = spawn_unix(Arc::clone(&engine), &sock).map_err(err)?;
    let (mut local, mut remote) = (Vec::new(), Vec::new());
    for text in warm.iter().cycle().take(warm.len().max(20)) {
        let t = Instant::now();
        let req = QueryRequest::from_json_str(text).map_err(|e| e.0)?;
        let mut encoded = 0usize;
        engine
            .execute(&req, &mut |l: &ResponseLine| {
                encoded += l.to_json().to_string().len()
            })
            .map_err(|e| e.0)?;
        black_box(encoded);
        local.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut received = 0usize;
        query_unix(&sock, text, |line| received += line.len()).map_err(err)?;
        black_box(received);
        remote.push(t.elapsed().as_secs_f64());
    }
    server.shutdown();
    Ok((open_s, (median(remote) - median(local)) * 1e3))
}

fn sum_of(spans: &[Span], name: &str, keep: &dyn Fn(&Span) -> bool) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .fold((0.0, 0), |(t, n), s| (t + (s.end - s.start), n + 1))
}

fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Runs the traced run over the request documents in `input` (the first
/// `setup` of them are set-up, not measured) and prints the per-layer
/// metrics as one JSON object; the spans go to `spans_out`.
pub fn run(input: &Path, setup: usize, dir: &Path, spans_out: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(input).map_err(err)?;
    let requests: Vec<String> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect();
    if setup > requests.len() {
        return Err(format!("{setup} set-up requests, {} given", requests.len()));
    }
    let store = dir.join("store");
    // The first pass in a process also pays for growing the heap; it is
    // discarded so the untraced and traced passes start alike.
    serve_pass(&requests, setup, &store, Tracer::new(false))?;
    let untraced = serve_pass(&requests, setup, &store, Tracer::new(false))?;
    let traced = serve_pass(&requests, setup, &store, Tracer::new(true))?;

    let spans = &traced.spans;
    let measured = |s: &Span| s.query.is_none_or(|q| q >= setup);
    let selfs = spans::self_times(spans);
    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(&selfs) {
        let layer = match s.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "unattributed",
        };
        *layer_self.entry(layer).or_default() += self_s;
    }
    let run_queries = requests.len() - setup;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_owned(), v);
    };
    let (cap_s, _) = sum_of(spans, "isa.capture", &measured);
    put("isa.capture_s", cap_s);
    put("isa.capture_minstr", traced.capture_instr as f64 / 1e6);
    put("isa.lower_s", sum_of(spans, "isa.lower", &measured).0);
    put(
        "isa.block_reuse",
        if traced.lower_static == 0 {
            0.0
        } else {
            traced.lower_dyn as f64 / traced.lower_static as f64
        },
    );
    let (res_s, _) = sum_of(spans, "workloads.resolve", &measured);
    put("workloads.resolve_ms", per(res_s, run_queries) * 1e3);
    put("workloads.captures", traced.captures as f64);
    let (rep_s, rep_n) = sum_of(spans, "core.replay", &measured);
    put("core.replay_s", per(rep_s, rep_n));
    put(
        "core.replay_minstr_per_s",
        if rep_s > 0.0 {
            traced.exact_instr as f64 / rep_s / 1e6
        } else {
            0.0
        },
    );
    put("core.digest_s", sum_of(spans, "core.digest", &measured).0);
    let (smp_s, smp_n) = sum_of(spans, "core.sampled", &measured);
    put("core.sampled_s", per(smp_s, smp_n));
    put(
        "core.detail_fraction",
        if traced.sampled_instr == 0 {
            0.0
        } else {
            traced.sampled_detailed as f64 / traced.sampled_instr as f64
        },
    );
    put("core.stall_cycles", traced.stall_cycles as f64);
    put("mem.dcache_misses", traced.dcache_misses as f64);
    put("mem.icache_misses", traced.icache_misses as f64);

    let busy: f64 = traced
        .drains
        .iter()
        .map(|(_, d)| d.per_thread_seconds.iter().sum::<f64>())
        .sum();
    let wall: f64 = traced.drains.iter().map(|(_, d)| d.wall_seconds).sum();
    put(
        "bench.pool_parallelism",
        if wall > 0.0 { busy / wall } else { 0.0 },
    );
    put(
        "bench.pool_threads",
        traced
            .drains
            .iter()
            .map(|(_, d)| d.threads)
            .max()
            .unwrap_or(0) as f64,
    );
    // Idle time after the first pool thread ran dry: the drain's end
    // minus the earliest last-cell end over its threads.
    let mut tail = 0.0;
    for (id, _) in &traced.drains {
        let Some(id) = *id else { continue };
        let mut last_end: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent == Some(id)) {
            let e = last_end.entry(s.thread).or_insert(s.end);
            *e = e.max(s.end);
        }
        if let Some(first_dry) = last_end.values().copied().reduce(f64::min) {
            tail += spans[id].end - first_dry;
        }
    }
    put("bench.pool_tail_s", tail);

    let (parse_s, _) = sum_of(spans, "serve.parse", &measured);
    put("serve.parse_ms", per(parse_s, run_queries) * 1e3);
    let (enc_s, _) = sum_of(spans, "serve.encode", &measured);
    put("serve.encode_ms", per(enc_s, run_queries) * 1e3);
    let (get_s, _) = sum_of(spans, "serve.store_get", &measured);
    put("serve.store_get_ms", per(get_s, run_queries) * 1e3);
    let (put_s, put_n) = sum_of(spans, "serve.store_put", &measured);
    put("serve.store_put_ms", per(put_s, put_n) * 1e3);
    put(
        "serve.memo_hit_ratio",
        if traced.probes == 0 {
            0.0
        } else {
            traced.hits as f64 / traced.probes as f64
        },
    );
    let warm = &requests[setup..];
    let (open_s, transport_ms) = transport(&store, &warm[..warm.len().min(40)])?;
    put("serve.store_open_s", open_s);
    put("serve.transport_ms", transport_ms);

    for layer in ["isa", "workloads", "core", "bench", "serve"] {
        put(
            &format!("{layer}.self_s"),
            layer_self.get(layer).copied().unwrap_or(0.0),
        );
    }
    put(
        "trace.unattributed_s",
        layer_self.get("unattributed").copied().unwrap_or(0.0),
    );
    put("trace.wall_s", traced.wall);
    put("trace.untraced_wall_s", untraced.wall);
    put("trace.overhead_s", traced.wall - untraced.wall);
    put("trace.spans", spans.len() as f64);

    std::fs::write(spans_out, spans::to_json(spans)).map_err(err)?;
    let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v:?}")).collect();
    println!("{{{}}}", body.join(","));
    Ok(())
}
