//! Reference answers for the benchmark's output checks.
//!
//! Each input line names one grid in a plain text form:
//!
//! ```text
//! exact|sampled KERNEL[,KERNEL...] CONFIG[,CONFIG...]
//! CONFIG = MODEL:ISSUE:LATENCY[:KNOB=VALUE]
//! ```
//!
//! Configurations are built here from the machine presets and direct
//! field assignment, not through the daemon's request parser. Exact
//! cells come from `aurora_bench::harness::run_matrix`; sampled cells
//! from `run_sampled_digest` with `SamplingConfig::recommended()`.
//! Neither path reads a previous daemon answer.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use aurora_bench::harness::{drain_cells_timed, run_matrix};
use aurora_core::{
    run_sampled_digest, IssueWidth, MachineConfig, MachineModel, SamplingConfig, SimStats,
    WarmDigest,
};
use aurora_isa::PackedTrace;
use aurora_mem::LatencyModel;
use aurora_serve::json::Json;
use aurora_workloads::{workload_by_name, Scale, TraceStore, Workload};

/// One parsed input grid.
struct Grid {
    configs: Vec<MachineConfig>,
    workloads: Vec<Workload>,
    sampled: bool,
}

/// Builds the machine configuration `MODEL:ISSUE:LATENCY[:KNOB=VALUE]`.
fn machine_config(spec: &str) -> Result<MachineConfig, String> {
    let mut parts = spec.split(':');
    let model = match parts.next() {
        Some("small") => MachineModel::Small,
        Some("baseline") => MachineModel::Baseline,
        Some("large") => MachineModel::Large,
        other => return Err(format!("unknown model {other:?}")),
    };
    let issue = match parts.next() {
        Some("single") => IssueWidth::Single,
        Some("dual") => IssueWidth::Dual,
        other => return Err(format!("unknown issue width {other:?}")),
    };
    let latency: u32 = parts
        .next()
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| format!("bad latency in `{spec}`"))?;
    let mut cfg = model.config(issue, LatencyModel::Fixed(latency));
    for knob in parts {
        let (name, value) = knob
            .split_once('=')
            .ok_or_else(|| format!("bad override `{knob}`"))?;
        let n: usize = value
            .parse()
            .map_err(|_| format!("override `{knob}` is not a count"))?;
        match name {
            "mshr_entries" => cfg.mshr_entries = n,
            "write_cache_lines" => cfg.write_cache_lines = n,
            "prefetch_depth" => cfg.prefetch_depth = n,
            "rob_entries" => cfg.rob_entries = n,
            other => return Err(format!("unsupported override `{other}`")),
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

fn parse_grid(line: &str) -> Result<Grid, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [mode, kernels, configs] = fields[..] else {
        return Err(format!("expected `MODE KERNELS CONFIGS`, got `{line}`"));
    };
    let sampled = match mode {
        "exact" => false,
        "sampled" => true,
        other => return Err(format!("unknown mode `{other}`")),
    };
    let workloads = kernels
        .split(',')
        .map(|name| {
            workload_by_name(name, Scale::Small).ok_or_else(|| format!("unknown kernel `{name}`"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let configs = configs
        .split(',')
        .map(machine_config)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Grid {
        configs,
        workloads,
        sampled,
    })
}

fn exact_json(stats: &SimStats) -> Json {
    let mut m = BTreeMap::new();
    m.insert(
        "fingerprint".to_owned(),
        Json::Str(format!("{:#018x}", stats.fingerprint())),
    );
    m.insert("cpi".to_owned(), Json::Num(stats.cpi()));
    m.insert(
        "instructions".to_owned(),
        Json::Num(stats.instructions as f64),
    );
    m.insert(
        "dcache_misses".to_owned(),
        Json::Num(stats.dcache.misses as f64),
    );
    m.insert(
        "icache_misses".to_owned(),
        Json::Num(stats.icache.misses as f64),
    );
    m.insert(
        "stall_cycles".to_owned(),
        Json::Num(stats.stalls.total() as f64),
    );
    Json::Obj(m)
}

fn sampled_json(cpi: f64, ci: f64) -> Json {
    let mut m = BTreeMap::new();
    m.insert("cpi".to_owned(), Json::Num(cpi));
    m.insert("ci_half_width".to_owned(), Json::Num(ci));
    Json::Obj(m)
}

/// Reads grids from stdin, prints one line per grid:
/// `{"cells": [[cell per workload] per config]}`.
pub fn run() -> Result<(), String> {
    let grids = std::io::stdin()
        .lock()
        .lines()
        .map(|l| l.map_err(|e| e.to_string()))
        .filter(|l| !matches!(l, Ok(l) if l.trim().is_empty()))
        .map(|l| l.and_then(|l| parse_grid(&l)))
        .collect::<Result<Vec<_>, _>>()?;

    // Capture every needed kernel once, in parallel, through the
    // process-wide store the harness uses.
    let mut kernels: Vec<&Workload> = grids.iter().flat_map(|g| &g.workloads).collect();
    kernels.sort_by_key(|w| w.name());
    kernels.dedup_by_key(|w| w.name());
    let traces: BTreeMap<&str, Arc<PackedTrace>> = std::thread::scope(|s| {
        let handles: Vec<_> = kernels
            .iter()
            .map(|w| {
                s.spawn(move || {
                    let store = TraceStore::global();
                    let packed = store.get(w).expect("kernel capture");
                    store.get_blocks(w).expect("kernel lowering");
                    (w.name(), packed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capture thread"))
            .collect()
    });

    let mut out: Vec<Option<Json>> = (0..grids.len()).map(|_| None).collect();

    // Sampled cells of every grid drain through one pool.
    let sampling = SamplingConfig::recommended();
    let digests: BTreeMap<&str, WarmDigest> = traces
        .iter()
        .map(|(name, t)| (*name, WarmDigest::build(t.records(), 32)))
        .collect();
    let sampled_cells: Vec<(usize, usize, usize)> = grids
        .iter()
        .enumerate()
        .filter(|(_, g)| g.sampled)
        .flat_map(|(gi, g)| {
            (0..g.configs.len())
                .flat_map(move |ci| (0..g.workloads.len()).map(move |wi| (gi, ci, wi)))
        })
        .collect();
    let (sampled, _) = drain_cells_timed(
        sampled_cells.len(),
        |i| {
            let (gi, ci, wi) = sampled_cells[i];
            let name = grids[gi].workloads[wi].name();
            let s = run_sampled_digest(
                &grids[gi].configs[ci],
                &sampling,
                traces[name].records(),
                &digests[name],
            );
            (s.cpi, s.ci_half_width)
        },
        |_, _| {},
    );
    let mut by_grid: BTreeMap<usize, Vec<Vec<Json>>> = BTreeMap::new();
    for (&(gi, ci, _), &(cpi, ci_hw)) in sampled_cells.iter().zip(&sampled) {
        let rows = by_grid
            .entry(gi)
            .or_insert_with(|| vec![Vec::new(); grids[gi].configs.len()]);
        rows[ci].push(sampled_json(cpi, ci_hw));
    }
    for (gi, rows) in by_grid {
        out[gi] = Some(Json::Arr(rows.into_iter().map(Json::Arr).collect()));
    }

    // Exact grids: each through `run_matrix`, two grids at a time so
    // one-cell what-if grids still keep both cores busy.
    let exact: Vec<usize> = (0..grids.len()).filter(|&g| !grids[g].sampled).collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&gi) = exact.get(k) else { break };
                let rows = run_matrix(&grids[gi].configs, &grids[gi].workloads);
                let json = Json::Arr(
                    rows.iter()
                        .map(|row| Json::Arr(row.iter().map(exact_json).collect()))
                        .collect(),
                );
                results.lock().expect("results poisoned").push((gi, json));
            });
        }
    });
    for (gi, json) in results.into_inner().expect("results poisoned") {
        out[gi] = Some(json);
    }

    for cells in out {
        let mut m = BTreeMap::new();
        m.insert("cells".to_owned(), cells.expect("every grid answered"));
        println!("{}", Json::Obj(m));
    }
    Ok(())
}
