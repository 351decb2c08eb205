//! Performance baseline for the capture-once / replay-many engine.
//!
//! Times the same (configurations × workloads) sweep two ways:
//!
//! 1. **streamed** — the pre-trace-engine path: every cell re-runs the
//!    functional emulator and streams ops straight into the simulator,
//! 2. **replay** — [`run_matrix_timed`]: one packed capture per workload
//!    via the process-wide [`TraceStore`], then parallel borrowed replays.
//!
//! Asserts that the store performed exactly one capture per workload and
//! writes the measurements as hand-rolled JSON (no serde dependency) to
//! `BENCH_replay.json` (override with `--out PATH`).
//!
//! A third, single-threaded section isolates raw simulator throughput:
//! the materialised traces are replayed once with event-horizon cycle
//! skipping and once in naive walk-every-cycle mode, the statistics are
//! asserted bit-identical, and the figures land in `BENCH_sim.json`
//! (override with `--sim-out PATH`). The same section then lowers the
//! traces into deduplicated basic blocks and times [`replay_blocks`],
//! asserting it bit-identical to the per-op replay before recording
//! `block_instr_per_sec` and `block_speedup_vs_per_op`.
//!
//! A fourth section benchmarks **sampled** simulation
//! ([`run_sampled_digest`], docs/MODEL.md "Sampled simulation"): every
//! kernel × model cell is estimated from detailed windows over a
//! functional-warming fast-forward and validated against the
//! full-detail ground truth (itself asserted bit-identical to the
//! replay grid). Wall-clock for both modes is measured over interleaved
//! rounds with the median per-round speedup reported, and the per-cell
//! CPI errors, 95% confidence intervals and the suite-mean accuracy
//! gate land in `BENCH_sampled.json` (override with
//! `--sampled-out PATH`).
//!
//! ```text
//! cargo run --release -p aurora-bench --bin perf_baseline -- [--scale test] [--out FILE]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use aurora_bench::harness::{
    fp_suite, integer_suite, run, run_matrix_timed, scale_from_args, sweep_threads,
};
use aurora_core::{
    replay, replay_blocks, run_sampled_digest, IssueWidth, MachineConfig, MachineModel,
    SampledStats, SamplingConfig, SimStats, WarmDigest,
};
use aurora_isa::BlockTrace;
use aurora_mem::LatencyModel;
use aurora_workloads::{TraceStore, Workload};

/// A small but heterogeneous config sweep: every machine model at both
/// issue widths, as in the Figure 4 grid.
fn sweep_configs() -> Vec<MachineConfig> {
    let mut out = Vec::new();
    for issue in [IssueWidth::Single, IssueWidth::Dual] {
        for model in MachineModel::ALL {
            out.push(model.config(issue, LatencyModel::Fixed(17)));
        }
    }
    out
}

/// Baseline dual-issue config for the replay modes, with the observer
/// and event-horizon knobs set per mode.
fn sim_cfg(observe: bool, cycle_skip: bool) -> MachineConfig {
    let mut cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    cfg.observe = observe;
    cfg.cycle_skip = cycle_skip;
    cfg
}

fn join_counts(xs: &[usize]) -> String {
    let strs: Vec<String> = xs.iter().map(usize::to_string).collect();
    strs.join(", ")
}

fn join_rates(xs: &[f64]) -> String {
    let strs: Vec<String> = xs.iter().map(|x| format!("{x:.2}")).collect();
    strs.join(", ")
}

fn main() {
    let scale = scale_from_args();
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.windows(2)
            .find(|p| p[0] == "--out")
            .map_or_else(|| "BENCH_replay.json".to_string(), |p| p[1].clone())
    };

    let mut suite: Vec<Workload> = integer_suite(scale);
    suite.extend(fp_suite(scale));
    let configs = sweep_configs();
    let cells = configs.len() * suite.len();
    println!(
        "perf_baseline: {} configs x {} workloads = {cells} cells at scale {scale}",
        configs.len(),
        suite.len()
    );

    // Streamed path: re-emulate the kernel for every cell.
    let t0 = Instant::now();
    let mut streamed_instructions: u64 = 0;
    for cfg in &configs {
        for w in &suite {
            streamed_instructions += run(cfg, w).instructions;
        }
    }
    let stream_s = t0.elapsed().as_secs_f64();

    // Warm the trace store so the timed region below measures replay
    // alone: capture-once/replay-many means the one capture per workload
    // amortises to zero across sweeps, so emulator time does not belong
    // in a replay-throughput figure. It is reported separately.
    let t_cap = Instant::now();
    for w in &suite {
        w.capture().expect("capture workload");
    }
    let capture_s = t_cap.elapsed().as_secs_f64();

    // Replay path: replay the grid from the materialised traces through
    // the real worker pool. Timer noise on this host is large relative
    // to the run (observed ~1.5x swings between identical binaries), so
    // report the minimum of five runs — the standard estimator for a
    // lower-bounded measurement — and keep that run's pool profile.
    let mut replay_s = f64::INFINITY;
    let (mut grid, mut metrics) = run_matrix_timed(&configs, &suite); // warm-up (untimed)
    for _ in 0..5 {
        let t1 = Instant::now();
        let (g, m) = run_matrix_timed(&configs, &suite);
        let elapsed = t1.elapsed().as_secs_f64();
        if elapsed < replay_s {
            replay_s = elapsed;
            grid = g;
            metrics = m;
        }
    }

    let store = TraceStore::global();
    // Each workload is materialised exactly once: a fresh capture, a
    // `.trc` disk hit, or a `.blk` disk hit (which skips the packed
    // trace entirely — `get_blocks` never touches `get` on that path).
    let materialised = store.captures() + store.disk_hits() + store.block_disk_hits();
    assert_eq!(
        materialised,
        suite.len() as u64,
        "expected exactly one capture (or disk hit) per workload, got {} for {}",
        materialised,
        suite.len()
    );

    let replayed_instructions: u64 = grid.iter().flatten().map(|s| s.instructions).sum();
    assert_eq!(
        replayed_instructions, streamed_instructions,
        "paths must simulate the same work"
    );

    // The pool size is what the sweep *asked for* (never more threads
    // than grid cells); `parallelism` is what the drain *achieved* —
    // summed per-thread busy time over wall time, measured by
    // run_matrix_timed on the best run.
    let threads = sweep_threads(cells);
    // A pool smaller than the machine silently halves the headline
    // speedup; on a multi-core host that is a sizing bug, not noise. A
    // 1-core host (minimal CI) cannot distinguish sizing from hardware,
    // so it only warns.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores > 1 {
        assert_eq!(
            threads,
            cores.min(cells),
            "pool_threads must match available cores (capped at grid cells): \
             pool {threads}, cores {cores}, cells {cells}"
        );
    } else {
        println!(
            "warning: 1-core host — cannot verify pool sizing against hardware \
             (pool of {threads})"
        );
    }
    let achieved = metrics.achieved_parallelism();
    let speedup = stream_s / replay_s;
    let stream_ips = streamed_instructions as f64 / stream_s;
    let replay_ips = replayed_instructions as f64 / replay_s;
    println!("streamed: {stream_s:.3} s  ({stream_ips:.0} instr/s)");
    println!("capture:  {capture_s:.3} s  (once per workload, amortised across sweeps)");
    println!("replay:   {replay_s:.3} s  ({replay_ips:.0} instr/s, best of 5)");
    println!(
        "speedup:  {speedup:.2}x — pool of {threads}, achieved parallelism {achieved:.2}  \
         (captures: {}, disk hits: {}, block disk hits: {})",
        store.captures(),
        store.disk_hits(),
        store.block_disk_hits()
    );
    if threads == 1 {
        // Streamed cost per cell is emulate+simulate; replay drops the
        // emulate term but the pool cannot overlap cells, so the
        // single-core ceiling is (emulate+simulate)/simulate.
        println!("note: single core — replay's thread pool cannot parallelise the grid");
    }

    // Sim-throughput section: single-threaded pure replay (the traces
    // are already materialised, so this isolates simulator speed from
    // capture and pool effects), once with event-horizon cycle skipping
    // and once in the naive walk-every-cycle reference mode. The two
    // must agree bit-for-bit on every kernel's statistics.
    let sim_out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.windows(2)
            .find(|p| p[0] == "--sim-out")
            .map_or_else(|| "BENCH_sim.json".to_string(), |p| p[1].clone())
    };
    let traces: Vec<_> = suite
        .iter()
        .map(|w| w.capture().expect("trace already materialised"))
        .collect();
    let mut sim_json = String::from("{\n");
    let _ = writeln!(sim_json, "  \"scale\": \"{scale}\",");
    let _ = writeln!(sim_json, "  \"config\": \"baseline/dual-issue\",");

    // Lower each packed trace into deduplicated basic blocks up
    // front (timed once — lowering is capture-side work, amortised
    // across every sweep that reuses the blocks).
    let t_lower = Instant::now();
    let blocks: Vec<BlockTrace> = traces.iter().map(BlockTrace::lower).collect();
    let lower_s = t_lower.elapsed().as_secs_f64();
    let static_ops: usize = blocks.iter().map(BlockTrace::static_ops).sum();
    let dynamic_ops: u64 = blocks.iter().map(BlockTrace::len).sum();
    let reuse = dynamic_ops as f64 / static_ops.max(1) as f64;
    println!(
        "sim/lower: {lower_s:.3} s  ({static_ops} static ops for {dynamic_ops} dynamic, {reuse:.0}x reuse)"
    );

    // Four modes over the same work: per-op replay with event-horizon
    // skipping, the naive walk-every-cycle reference, the observed
    // (cycle-event ring) replay, and block replay. Rounds are
    // interleaved — every mode runs once per round and each keeps its
    // best time — so slow drift in host clock speed lands on all modes
    // alike instead of biasing whichever section ran in the fast phase.
    // All four must agree bit-for-bit on every kernel's statistics.
    type ModeFn<'a> = Box<dyn Fn() -> Vec<aurora_core::SimStats> + 'a>;
    let traces = &traces;
    let blocks = &blocks;
    let modes: Vec<(&str, ModeFn)> = vec![
        ("skip", {
            let cfg = sim_cfg(false, true);
            Box::new(move || traces.iter().map(|tr| replay(&cfg, tr)).collect())
        }),
        ("naive", {
            let cfg = sim_cfg(false, false);
            Box::new(move || traces.iter().map(|tr| replay(&cfg, tr)).collect())
        }),
        ("observed", {
            let cfg = sim_cfg(true, true);
            Box::new(move || traces.iter().map(|tr| replay(&cfg, tr)).collect())
        }),
        ("block", {
            let cfg = sim_cfg(false, true);
            Box::new(move || blocks.iter().map(|b| replay_blocks(&cfg, b)).collect())
        }),
    ];
    let mut secs = vec![f64::INFINITY; modes.len()];
    let mut stats = vec![Vec::new(); modes.len()];
    for _round in 0..5 {
        for (m, (_, run_mode)) in modes.iter().enumerate() {
            let t = Instant::now();
            stats[m] = run_mode();
            secs[m] = secs[m].min(t.elapsed().as_secs_f64());
        }
    }
    let skip_stats = stats[0].clone();
    for (m, (label, _)) in modes.iter().enumerate() {
        assert_eq!(
            &stats[m], &skip_stats,
            "{label} stats diverged from per-op skip replay"
        );
    }
    let instrs: u64 = skip_stats.iter().map(|s| s.instructions).sum();
    let mode_results: Vec<(&str, f64, f64)> = modes
        .iter()
        .zip(&secs)
        .map(|((label, _), &s)| (*label, s, instrs as f64 / s))
        .collect();
    for (label, s, ips) in &mode_results[..2] {
        println!("sim/{label}:  {s:.3} s  ({ips:.0} instr/s)");
    }
    let sim_speedup = mode_results[0].2 / mode_results[1].2;
    println!("sim/skip-vs-naive: {sim_speedup:.2}x, stats bit-identical");
    let observe_secs = mode_results[2].1;
    let observe_overhead = observe_secs / mode_results[0].1 - 1.0;
    println!(
        "sim/observed: {observe_secs:.3} s  ({:+.1}% vs unobserved, stats bit-identical)",
        100.0 * observe_overhead
    );
    let (_, block_secs, block_ips) = mode_results[3];
    println!("sim/block: {block_secs:.3} s  ({block_ips:.0} instr/s)");
    let block_speedup = block_ips / mode_results[0].2;
    println!("sim/block-vs-per-op: {block_speedup:.2}x, stats bit-identical");
    let _ = writeln!(sim_json, "  \"instructions\": {instrs},");
    for (label, secs, ips) in &mode_results[..2] {
        let _ = writeln!(sim_json, "  \"{label}_seconds\": {secs:.6},");
        let _ = writeln!(sim_json, "  \"{label}_instr_per_sec\": {ips:.0},");
    }
    let _ = writeln!(sim_json, "  \"skip_speedup_vs_naive\": {sim_speedup:.3},");
    let _ = writeln!(sim_json, "  \"observed_seconds\": {observe_secs:.6},");
    let _ = writeln!(
        sim_json,
        "  \"observe_overhead_pct\": {:.1},",
        100.0 * observe_overhead
    );
    let _ = writeln!(sim_json, "  \"block_lower_seconds\": {lower_s:.6},");
    let _ = writeln!(sim_json, "  \"block_static_ops\": {static_ops},");
    let _ = writeln!(sim_json, "  \"block_reuse_factor\": {reuse:.1},");
    let _ = writeln!(sim_json, "  \"block_seconds\": {block_secs:.6},");
    let _ = writeln!(sim_json, "  \"block_instr_per_sec\": {block_ips:.0},");
    let _ = writeln!(
        sim_json,
        "  \"block_speedup_vs_per_op\": {block_speedup:.3},"
    );
    let _ = writeln!(sim_json, "  \"stats_bit_identical\": true");
    sim_json.push_str("}\n");
    std::fs::write(&sim_out_path, &sim_json).expect("write sim benchmark json");
    println!("wrote {sim_out_path}");

    // Sampled-simulation section: SMARTS-style detailed windows over a
    // functional-warming fast-forward, validated per kernel × model
    // against full-detail ground truth and timed against full-detail
    // replay of the same traces. Lands in `BENCH_sampled.json`
    // (override with `--sampled-out PATH`).
    let sampled_out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.windows(2)
            .find(|p| p[0] == "--sampled-out")
            .map_or_else(|| "BENCH_sampled.json".to_string(), |p| p[1].clone())
    };
    let sampling = SamplingConfig::recommended();
    let model_cfgs: Vec<(MachineModel, MachineConfig)> = MachineModel::ALL
        .into_iter()
        .map(|m| (m, m.config(IssueWidth::Dual, LatencyModel::Fixed(17))))
        .collect();
    // Warming digests are trace artifacts like the captures themselves
    // (model-independent — every preset shares one line size), so they
    // are built once outside the timed region, exactly as trace capture
    // is excluded from both modes' timings.
    let digests: Vec<WarmDigest> = traces
        .iter()
        .map(|tr| WarmDigest::build(tr.records(), model_cfgs[0].1.line_bytes))
        .collect();
    // Interleaved rounds, like the sim section: each round runs every
    // (model, kernel) cell once in full detail and once sampled
    // back-to-back, so the speedup of a round compares both modes under
    // the same instantaneous host conditions. The headline speedup is
    // the median per-round ratio — host-load drift *between* rounds
    // moves both numerators and denominators together and cancels,
    // where independent min-of-N for each mode can pair a lucky round
    // of one mode with an unlucky round of the other.
    let mut rounds: Vec<(f64, f64)> = Vec::new();
    let mut truth: Vec<Vec<SimStats>> = Vec::new();
    let mut sampled: Vec<Vec<SampledStats>> = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        truth = model_cfgs
            .iter()
            .map(|(_, cfg)| traces.iter().map(|tr| replay(cfg, tr)).collect())
            .collect();
        let round_detail = t.elapsed().as_secs_f64();
        let t = Instant::now();
        sampled = model_cfgs
            .iter()
            .map(|(_, cfg)| {
                traces
                    .iter()
                    .zip(&digests)
                    .map(|(tr, dg)| run_sampled_digest(cfg, &sampling, tr.records(), dg))
                    .collect()
            })
            .collect();
        rounds.push((round_detail, t.elapsed().as_secs_f64()));
    }
    rounds.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    // Odd round count: the midpoint is the median-ratio round, and the
    // reported seconds come from that same round so the JSON's
    // detailed/sampled seconds reproduce the JSON's speedup.
    let (detail_secs, sampled_secs) = rounds[rounds.len() / 2];
    // The ground truth must be the very stats the sweep grid produced:
    // dual-issue rows of sweep_configs are models 3..6 in ALL order.
    for (mi, row) in truth.iter().enumerate() {
        assert_eq!(
            row,
            &grid[3 + mi],
            "full-detail ground truth diverged from the sweep grid"
        );
    }
    let total_instrs: u64 = traces.iter().map(|tr| tr.len() as u64).sum();
    let sampled_work = total_instrs * model_cfgs.len() as u64;
    let detail_ips = sampled_work as f64 / detail_secs;
    let sampled_ips = sampled_work as f64 / sampled_secs;
    let sampled_speedup = detail_secs / sampled_secs;
    let mut max_err_pct = 0.0f64;
    let mut sum_err_pct = 0.0f64;
    let mut sum_rel_ci = 0.0f64;
    let mut cell_rows = String::new();
    let cell_count = model_cfgs.len() * suite.len();
    for (mi, (model, _)) in model_cfgs.iter().enumerate() {
        for (wi, w) in suite.iter().enumerate() {
            let exact = &truth[mi][wi];
            let est = &sampled[mi][wi];
            let err_pct = 100.0 * (est.cpi - exact.cpi()).abs() / exact.cpi();
            max_err_pct = max_err_pct.max(err_pct);
            sum_err_pct += err_pct;
            sum_rel_ci += est.relative_ci();
            let _ = writeln!(
                cell_rows,
                "    {{\"kernel\": \"{}\", \"model\": \"{model}\", \
                 \"true_cpi\": {:.6}, \"sampled_cpi\": {:.6}, \
                 \"cpi_error_pct\": {err_pct:.3}, \"ci_half_width\": {:.6}, \
                 \"windows\": {}, \"detail_fraction\": {:.4}}}{}",
                w.name(),
                exact.cpi(),
                est.cpi,
                est.ci_half_width,
                est.windows,
                est.detail_fraction(),
                if mi * suite.len() + wi + 1 == cell_count {
                    ""
                } else {
                    ","
                }
            );
        }
    }
    let mean_err_pct = sum_err_pct / cell_count as f64;
    let mean_rel_ci_pct = 100.0 * sum_rel_ci / cell_count as f64;
    // The accuracy gate is the suite-mean CPI error — the aggregate
    // SMARTS reports. Individual cells can exceed it from honest
    // sampling variance (their CIs cover the truth and are published
    // per cell below); the mean is what the estimator promises.
    let within_2pct = mean_err_pct <= 2.0;
    println!(
        "sampled:  {sampled_secs:.3} s vs detailed {detail_secs:.3} s — {sampled_speedup:.2}x \
         ({sampled_ips:.0} vs {detail_ips:.0} effective instr/s)"
    );
    println!(
        "sampled:  CPI error mean {mean_err_pct:.2}% / max {max_err_pct:.2}% \
         (95% CI mean ±{mean_rel_ci_pct:.2}%) over {cell_count} kernel×model cells \
         [{sampling}]"
    );
    let mut sampled_json = String::from("{\n");
    let _ = writeln!(sampled_json, "  \"scale\": \"{scale}\",");
    let _ = writeln!(sampled_json, "  \"sampling\": \"{sampling}\",");
    let _ = writeln!(sampled_json, "  \"kernels\": {},", suite.len());
    let _ = writeln!(sampled_json, "  \"models\": {},", model_cfgs.len());
    let _ = writeln!(sampled_json, "  \"instructions_per_mode\": {sampled_work},");
    let _ = writeln!(sampled_json, "  \"detailed_seconds\": {detail_secs:.6},");
    let _ = writeln!(sampled_json, "  \"sampled_seconds\": {sampled_secs:.6},");
    let _ = writeln!(
        sampled_json,
        "  \"detailed_effective_instr_per_sec\": {detail_ips:.0},"
    );
    let _ = writeln!(
        sampled_json,
        "  \"sampled_effective_instr_per_sec\": {sampled_ips:.0},"
    );
    let _ = writeln!(sampled_json, "  \"speedup\": {sampled_speedup:.3},");
    let _ = writeln!(sampled_json, "  \"mean_cpi_error_pct\": {mean_err_pct:.3},");
    let _ = writeln!(sampled_json, "  \"max_cpi_error_pct\": {max_err_pct:.3},");
    let _ = writeln!(
        sampled_json,
        "  \"mean_relative_ci_pct\": {mean_rel_ci_pct:.3},"
    );
    let _ = writeln!(
        sampled_json,
        "  \"mean_cpi_error_within_2pct\": {within_2pct},"
    );
    let _ = writeln!(sampled_json, "  \"cells\": [");
    sampled_json.push_str(&cell_rows);
    sampled_json.push_str("  ]\n}\n");
    std::fs::write(&sampled_out_path, &sampled_json).expect("write sampled benchmark json");
    println!("wrote {sampled_out_path}");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale}\",");
    let _ = writeln!(json, "  \"configs\": {},", configs.len());
    let _ = writeln!(json, "  \"workloads\": {},", suite.len());
    let _ = writeln!(json, "  \"cells\": {cells},");
    let _ = writeln!(json, "  \"streamed_seconds\": {stream_s:.6},");
    let _ = writeln!(json, "  \"capture_seconds\": {capture_s:.6},");
    let _ = writeln!(json, "  \"replay_seconds\": {replay_s:.6},");
    let _ = writeln!(json, "  \"replay_runs\": 5,");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"pool_threads\": {threads},");
    let _ = writeln!(json, "  \"parallelism\": {achieved:.3},");
    let _ = writeln!(
        json,
        "  \"drain_wall_seconds\": {:.6},",
        metrics.wall_seconds
    );
    let _ = writeln!(
        json,
        "  \"per_thread_cells\": [{}],",
        join_counts(&metrics.per_thread_cells)
    );
    let _ = writeln!(
        json,
        "  \"per_thread_cells_per_sec\": [{}],",
        join_rates(&metrics.per_thread_cells_per_sec())
    );
    let _ = writeln!(json, "  \"captures\": {},", store.captures());
    let _ = writeln!(json, "  \"disk_hits\": {},", store.disk_hits());
    let _ = writeln!(json, "  \"block_disk_hits\": {},", store.block_disk_hits());
    let _ = writeln!(
        json,
        "  \"instructions_per_path\": {streamed_instructions},"
    );
    let _ = writeln!(json, "  \"streamed_instr_per_sec\": {stream_ips:.0},");
    let _ = writeln!(json, "  \"replay_instr_per_sec\": {replay_ips:.0}");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
