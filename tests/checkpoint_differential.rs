//! Differential validation of whole-machine checkpoints: saving the
//! simulator at an arbitrary point, restoring the image into a *fresh*
//! simulator and resuming must produce `SimStats` bit-identical to the
//! uninterrupted run — the property the sampled-simulation
//! infrastructure rests on.
//!
//! Three layers of evidence:
//!
//! 1. a property test over random short traces — every op kind,
//!    register shape and address pattern — split at a random point,
//!    crossed with all three machine models and both issue widths;
//! 2. the same property through a fast-forward boundary: the split
//!    lands inside a functional-warming stretch, under the stochastic
//!    `Uniform` latency model so the BIU's RNG stream is part of the
//!    round trip;
//! 3. corrupt-image tests: truncations and flipped bytes must be
//!    rejected with an error, never absorbed.
//!
//! Equality is `SimStats: Eq` — bit-identical counters, not tolerances.

use aurora3::core::{IssueWidth, MachineConfig, MachineModel, SimStats, Simulator, WarmDigest};
use aurora3::isa::{ArchReg, MemWidth, OpKind, PackedOp, PackedTrace, TraceOp};
use aurora3::mem::LatencyModel;
use proptest::prelude::*;

fn reg_from(sel: u8) -> Option<ArchReg> {
    match sel % 67 {
        0 => None,
        v @ 1..=32 => Some(ArchReg::Int(v - 1)),
        v @ 33..=64 => Some(ArchReg::Fp(v - 33)),
        65 => Some(ArchReg::HiLo),
        _ => Some(ArchReg::FpCond),
    }
}

fn width_from(sel: u8) -> MemWidth {
    match sel % 4 {
        0 => MemWidth::Byte,
        1 => MemWidth::Half,
        2 => MemWidth::Word,
        _ => MemWidth::Double,
    }
}

fn kind_from(sel: u8, payload: u32, aux: u8) -> OpKind {
    let width = width_from(aux);
    match sel % 19 {
        0 => OpKind::IntAlu,
        1 => OpKind::IntMul,
        2 => OpKind::IntDiv,
        3 => OpKind::Load { ea: payload, width },
        4 => OpKind::Store { ea: payload, width },
        5 => OpKind::FpLoad { ea: payload, width },
        6 => OpKind::FpStore { ea: payload, width },
        7 => OpKind::Branch {
            taken: aux & 1 != 0,
            target: payload,
        },
        8 => OpKind::Jump {
            target: payload,
            register: aux & 1 != 0,
        },
        9 => OpKind::FpAdd,
        10 => OpKind::FpMul,
        11 => OpKind::FpDiv,
        12 => OpKind::FpSqrt,
        13 => OpKind::FpCvt,
        14 => OpKind::FpMove,
        15 => OpKind::FpCmp,
        _ => OpKind::Nop,
    }
}

/// Expands one seed into a trace op, folding addresses into a window a
/// few lines wide around several bases so the trace exercises cache
/// hits, misses, secondary-miss merges and write-cache coalescing.
fn op_from(seed: u64, i: usize) -> TraceOp {
    let pc = 0x0040_0000 + 4 * ((seed >> 32) as u32 % 64);
    let region = [0x2000u32, 0x0010_0000, 0x0070_0000][i % 3];
    let payload = region + 8 * ((seed >> 12) as u32 % 256);
    TraceOp {
        pc,
        kind: kind_from((seed >> 8) as u8, payload, (seed >> 16) as u8),
        dst: reg_from((seed >> 24) as u8),
        src1: reg_from((seed >> 40) as u8),
        src2: reg_from((seed >> 48) as u8),
    }
}

fn trace_from(seeds: &[u64]) -> PackedTrace {
    PackedTrace::from_ops(seeds.iter().enumerate().map(|(i, &s)| op_from(s, i)))
}

/// Feeds a slice of packed records through the detailed model.
fn feed(sim: &mut Simulator<'_>, ops: &[PackedOp]) {
    sim.feed_ops(ops.iter().map(PackedOp::unpack));
}

/// Feeds the whole trace without interruption.
fn uninterrupted(cfg: &MachineConfig, trace: &PackedTrace) -> SimStats {
    let mut sim = Simulator::new(cfg);
    sim.feed_ops(trace.iter());
    sim.finish()
}

/// Feeds a prefix, saves, restores the image into a fresh simulator,
/// resumes with the suffix.
fn resumed(cfg: &MachineConfig, trace: &PackedTrace, split: usize) -> SimStats {
    let ops = trace.records();
    let mut sim = Simulator::new(cfg);
    feed(&mut sim, &ops[..split]);
    let image = sim.save_checkpoint();
    drop(sim);

    let mut sim = Simulator::new(cfg);
    sim.restore_checkpoint(&image).expect("restore own image");
    feed(&mut sim, &ops[split..]);
    sim.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Save at a random op, restore into a fresh machine, resume: every
    /// model at both issue widths reproduces the uninterrupted stats
    /// bit-for-bit.
    #[test]
    fn resume_matches_uninterrupted_across_models_and_widths(
        seeds in proptest::collection::vec(any::<u64>(), 2..140),
        split_sel in any::<u32>(),
    ) {
        let trace = trace_from(&seeds);
        let split = split_sel as usize % (trace.len() + 1);
        for model in MachineModel::ALL {
            for issue in [IssueWidth::Single, IssueWidth::Dual] {
                let cfg = model.config(issue, LatencyModel::Fixed(17));
                let full = uninterrupted(&cfg, &trace);
                let cut = resumed(&cfg, &trace, split);
                prop_assert_eq!(
                    &full, &cut,
                    "resume diverged for {:?}/{:?} at split {}", model, issue, split
                );
            }
        }
    }

    /// The same property through a sampled-simulation shape: detailed
    /// prefix, functional-warming stretch, detailed suffix, with the
    /// checkpoint taken right after the warm stretch — under the
    /// stochastic Uniform latency model, so the BIU RNG stream crosses
    /// the checkpoint too.
    #[test]
    fn resume_through_warming_preserves_rng_and_warm_state(
        seeds in proptest::collection::vec(any::<u64>(), 3..140),
        cuts in any::<u32>(),
    ) {
        let trace = trace_from(&seeds);
        let ops = trace.records();
        let a = cuts as usize % (ops.len() + 1);
        let b = a + (cuts >> 16) as usize % (ops.len() - a + 1);
        let cfg = MachineModel::Baseline
            .config(IssueWidth::Dual, LatencyModel::Uniform { lo: 9, hi: 25 });
        let digest = WarmDigest::build(ops, cfg.line_bytes);

        let mut sim = Simulator::new(&cfg);
        feed(&mut sim, &ops[..a]);
        sim.warm_digest(&digest, a..b);
        feed(&mut sim, &ops[b..]);
        let full = sim.finish();

        let mut sim = Simulator::new(&cfg);
        feed(&mut sim, &ops[..a]);
        sim.warm_digest(&digest, a..b);
        let image = sim.save_checkpoint();
        drop(sim);
        let mut sim = Simulator::new(&cfg);
        sim.restore_checkpoint(&image).expect("restore own image");
        feed(&mut sim, &ops[b..]);
        let cut = sim.finish();

        prop_assert_eq!(&full, &cut, "warm-boundary resume diverged at {}..{}", a, b);
    }

    /// Any truncation of a valid image is rejected with an error —
    /// restore never absorbs a short read silently.
    #[test]
    fn truncated_images_are_rejected(
        seeds in proptest::collection::vec(any::<u64>(), 2..60),
        frac in 0.0f64..1.0,
    ) {
        let trace = trace_from(&seeds);
        let cfg = MachineModel::Small.config(IssueWidth::Dual, LatencyModel::Fixed(17));
        let mut sim = Simulator::new(&cfg);
        sim.feed_ops(trace.iter());
        let image = sim.save_checkpoint();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((frac * image.len() as f64) as usize).min(image.len() - 1);
        let mut fresh = Simulator::new(&cfg);
        prop_assert!(
            fresh.restore_checkpoint(&image[..cut]).is_err(),
            "truncation to {} of {} bytes was absorbed", cut, image.len()
        );
    }
}

/// A double round trip is stable: the image saved by a restored machine
/// equals the image it was restored from.
#[test]
fn save_restore_save_is_identity() {
    let seeds: Vec<u64> = (0..200u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let trace = trace_from(&seeds);
    for model in MachineModel::ALL {
        let cfg = model.config(IssueWidth::Dual, LatencyModel::average_17());
        let mut sim = Simulator::new(&cfg);
        sim.feed_ops(trace.iter());
        let first = sim.save_checkpoint();
        let mut sim = Simulator::new(&cfg);
        sim.restore_checkpoint(&first).expect("restore own image");
        let second = sim.save_checkpoint();
        assert_eq!(first, second, "round-tripped image differs for {model:?}");
    }
}

/// A flipped section tag is rejected: the codec checks structure, not
/// just length.
#[test]
fn corrupt_section_tag_is_rejected() {
    let cfg = MachineModel::Baseline.config(IssueWidth::Dual, LatencyModel::Fixed(17));
    let mut sim = Simulator::new(&cfg);
    sim.feed_ops(trace_from(&[3, 1, 4, 1, 5, 9, 2, 6]).iter());
    let mut image = sim.save_checkpoint();
    // The image opens with a format header followed by the first
    // section tag; smashing an early byte must fail loudly.
    image[0] ^= 0xFF;
    let mut fresh = Simulator::new(&cfg);
    assert!(fresh.restore_checkpoint(&image).is_err());
}
