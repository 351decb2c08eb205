//! Validation of the cycle-event observability layer (`aurora_core::obs`).
//!
//! Three invariants, each over the full 15-kernel suite crossed with all
//! three machine models and both issue widths:
//!
//! 1. **Attribution sum** — every stall cycle the counters charge is
//!    attributed by the event stream to exactly one [`StallCause`]: the
//!    observer's per-cause totals, folded through `StallCause::kind()`,
//!    are *equal* (not approximately) to the counter-based
//!    `SimStats::stalls` breakdown, and their grand totals match.
//! 2. **Zero-cost off** — running with `observe = true` yields
//!    bit-identical `SimStats` to `observe = false`; recording never
//!    perturbs machine state.
//! 3. **Well-formed trace JSON** — `Observer::chrome_trace_json` emits
//!    structurally valid JSON (checked by a small serde-free scanner)
//!    with the trace-event keys Perfetto requires.

use aurora3::core::{replay, IssueWidth, MachineModel, Simulator, StallKind};
use aurora3::mem::LatencyModel;
use aurora3::workloads::{FpBenchmark, IntBenchmark, Scale, TraceStore, Workload};

fn full_suite() -> Vec<Workload> {
    let mut suite: Vec<Workload> = IntBenchmark::ALL
        .into_iter()
        .map(|b| b.workload(Scale::Test))
        .collect();
    suite.extend(
        FpBenchmark::ALL
            .into_iter()
            .map(|b| b.workload(Scale::Test)),
    );
    suite
}

fn grid() -> impl Iterator<Item = (MachineModel, IssueWidth)> {
    MachineModel::ALL
        .into_iter()
        .flat_map(|m| [IssueWidth::Single, IssueWidth::Dual].map(move |w| (m, w)))
}

#[test]
fn every_stall_cycle_attributes_to_exactly_one_cause() {
    for w in full_suite() {
        let trace = TraceStore::global().get(&w).expect("capture");
        for (model, width) in grid() {
            let mut cfg = model.config(width, LatencyModel::Fixed(17));
            cfg.observe = true;
            let mut sim = Simulator::new(&cfg);
            sim.feed_ops(trace.iter());
            let (stats, obs) = sim.finish_observed();
            let obs = obs.expect("observer attached");

            let ctx = format!("{}/{model}/{width}", w.name());
            assert_eq!(
                obs.stalls_by_kind(),
                stats.stalls,
                "{ctx}: per-kind event attribution != counters"
            );
            assert_eq!(
                obs.total_stall_cycles(),
                stats.stalls.total(),
                "{ctx}: attributed total != counter total"
            );
            // The fine taxonomy partitions the coarse one: each kind's
            // counter is the sum of exactly its causes, so summing the
            // per-cause cells grouped by kind must reproduce each
            // counter — already implied by the equality above — and no
            // cause may be double-counted across kinds.
            let fine_total: u64 = obs.stall_breakdown().map(|(_, c)| c).sum();
            assert_eq!(fine_total, stats.stalls.total(), "{ctx}: causes overlap");
        }
    }
}

#[test]
fn observer_is_invisible_to_simulation_results() {
    for w in full_suite() {
        let trace = TraceStore::global().get(&w).expect("capture");
        for (model, width) in grid() {
            let off = model.config(width, LatencyModel::Fixed(17));
            let mut on = off.clone();
            on.observe = true;
            assert_eq!(
                replay(&on, &trace),
                replay(&off, &trace),
                "{}/{model}/{width}: observe=true changed SimStats",
                w.name()
            );
        }
    }
}

/// Scans `s` as JSON without parsing into a value tree: tracks string /
/// escape state and brace/bracket nesting, rejecting early closers and
/// unterminated strings. Sufficient to catch malformed hand-rolled
/// output (trailing garbage, unbalanced nesting, raw control bytes).
fn assert_well_formed_json(s: &str) {
    let mut depth: Vec<char> = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    let mut seen_root = false;
    for (i, c) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            } else {
                assert!(c >= ' ', "raw control byte {c:?} inside string at {i}");
            }
            continue;
        }
        assert!(
            !(seen_root && depth.is_empty() && !c.is_whitespace()),
            "trailing token `{c}` after root value at byte {i}"
        );
        match c {
            '"' => in_str = true,
            '{' => depth.push('}'),
            '[' => depth.push(']'),
            '}' | ']' => {
                assert_eq!(depth.pop(), Some(c), "unbalanced `{c}` at byte {i}");
                if depth.is_empty() {
                    seen_root = true;
                }
            }
            _ => {}
        }
    }
    assert!(!in_str, "unterminated string");
    assert!(depth.is_empty(), "unclosed nesting: {depth:?}");
    assert!(seen_root, "no JSON value found");
}

#[test]
fn chrome_trace_json_is_well_formed_and_complete() {
    let w = IntBenchmark::Espresso.workload(Scale::Test);
    let trace = TraceStore::global().get(&w).expect("capture");
    let mut cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    cfg.observe = true;
    let mut sim = Simulator::new(&cfg);
    sim.feed_ops(trace.iter());
    let (stats, obs) = sim.finish_observed();
    let obs = obs.expect("observer attached");
    assert!(!obs.is_empty(), "espresso must produce events");

    let json = obs.chrome_trace_json();
    assert_well_formed_json(&json);

    for key in [
        "\"traceEvents\"",
        "\"displayTimeUnit\"",
        "\"ph\":\"M\"",
        "\"thread_name\"",
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"ph\":\"C\"",
        "\"dur\":",
        "\"ts\":",
    ] {
        assert!(json.contains(key), "trace JSON lacks {key}");
    }
    // Every stall cause that actually charged cycles must surface as a
    // named slice somewhere in the trace.
    for kind in StallKind::ALL {
        if stats.stalls[kind] > 0 && obs.dropped() == 0 {
            let causes_present = obs
                .stall_breakdown()
                .filter(|&(c, n)| n > 0 && c.kind() == kind)
                .all(|(c, _)| json.contains(c.label()));
            assert!(causes_present, "no slice for any cause of {kind}");
        }
    }
}
