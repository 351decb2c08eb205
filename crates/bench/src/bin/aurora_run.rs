//! End-user CLI: assemble a mini-MIPS source file, execute it, and report
//! cycle-level statistics on a chosen machine model.
//!
//! ```text
//! cargo run --release -p aurora-bench --bin aurora_run -- program.s \
//!     [--model small|baseline|large] [--issue single|dual] \
//!     [--latency N] [--limit N] [--dump] [--timeline]
//! ```

use std::process::exit;

use aurora_core::{IssueWidth, MachineModel, ObsEventKind, Observer, Simulator, StallKind};
use aurora_isa::{Assembler, Emulator, RunOutcome};
use aurora_mem::LatencyModel;

/// Observer ring size for `--timeline`: the most recent events are kept.
const TIMELINE_EVENTS: usize = 1 << 19;

struct Options {
    path: String,
    model: MachineModel,
    issue: IssueWidth,
    latency: u32,
    limit: u64,
    dump: bool,
    timeline: bool,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        path: String::new(),
        model: MachineModel::Baseline,
        issue: IssueWidth::Dual,
        latency: 17,
        limit: 100_000_000,
        dump: false,
        timeline: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => {
                opts.model = match it.next().as_deref() {
                    Some("small") => MachineModel::Small,
                    Some("baseline") => MachineModel::Baseline,
                    Some("large") => MachineModel::Large,
                    other => usage(&format!("bad --model {other:?}")),
                }
            }
            "--issue" => {
                opts.issue = match it.next().as_deref() {
                    Some("single") => IssueWidth::Single,
                    Some("dual") => IssueWidth::Dual,
                    other => usage(&format!("bad --issue {other:?}")),
                }
            }
            "--latency" => {
                opts.latency = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("bad --latency"));
            }
            "--limit" => {
                opts.limit = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("bad --limit"));
            }
            "--dump" => opts.dump = true,
            "--timeline" => opts.timeline = true,
            path if !path.starts_with('-') && opts.path.is_empty() => opts.path = path.to_owned(),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if opts.path.is_empty() {
        usage("missing source file");
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: aurora_run <file.s> [--model small|baseline|large] \
         [--issue single|dual] [--latency N] [--limit N] [--dump] [--timeline]"
    );
    exit(2);
}

fn main() {
    let opts = parse_args();
    let source = std::fs::read_to_string(&opts.path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", opts.path);
        exit(1);
    });
    let program = Assembler::new().assemble(&source).unwrap_or_else(|e| {
        eprintln!("{}: {e}", opts.path);
        exit(1);
    });
    if let Err(e) = program.verify_delay_slots() {
        eprintln!("{}: warning: {e}", opts.path);
    }
    if opts.dump {
        println!("{program}");
    }

    let cfg = opts
        .model
        .config(opts.issue, LatencyModel::Fixed(opts.latency));
    let mut sim = Simulator::new(&cfg);
    if opts.timeline {
        sim.enable_observer(TIMELINE_EVENTS);
    }
    let mut emu = Emulator::new(&program);
    let outcome = emu
        .run_traced(opts.limit, |op| sim.feed(op))
        .unwrap_or_else(|e| {
            eprintln!("runtime fault: {e}");
            exit(1);
        });
    if outcome != RunOutcome::Halted {
        eprintln!("warning: instruction limit reached before `break`");
    }

    let (stats, obs) = sim.finish_observed();
    if let Some(obs) = obs {
        print_timeline(&obs);
    }
    println!("machine: {cfg}");
    println!("{stats}");
    println!();
    println!("stall CPI breakdown:");
    for kind in StallKind::ALL {
        let v = stats.stall_cpi(kind);
        if v > 0.0005 {
            println!("  {:<10} {v:.3}", kind.label());
        }
    }
}

/// Prints one row per issued instruction from the observer's event
/// stream, with the stall regions charged just before it.
fn print_timeline(obs: &Observer) {
    if obs.dropped() > 0 {
        println!("(timeline keeps the last {} events)", obs.capacity());
    }
    println!("{:>8}  {:<10} {:<6} stall", "cycle", "pc", "pair");
    let mut stall = String::new();
    for ev in obs.events() {
        match ev.kind {
            ObsEventKind::Stall { cause, cycles } => {
                if !stall.is_empty() {
                    stall.push_str(", ");
                }
                stall.push_str(&format!("{cause} x{cycles}"));
            }
            ObsEventKind::Issue { pc, dual } => {
                println!(
                    "{:>8}  {:<10} {:<6} {}",
                    ev.cycle,
                    format!("{pc:#x}"),
                    if dual { "<pair" } else { "" },
                    stall
                );
                stall.clear();
            }
            _ => {}
        }
    }
    println!();
}
