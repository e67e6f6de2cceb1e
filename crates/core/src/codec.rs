//! Binary codec for [`Profiled`] records — the payload layer of the
//! store's `PSR2` frame format.
//!
//! Composes the tree codec in [`proftree::wire`] with varint-packed
//! profiling scalars. Layout (varints are LEB128, `f64` is the exact
//! IEEE-754 bit pattern little-endian; see `proftree::wire` for the
//! tree layout):
//!
//! ```text
//! profiled := name str, tree, profile
//! profile  := tree, varint net_cycles, varint gross_cycles,
//!             varint annotation_events,
//!             u8 has_compress_stats, [compress_stats],
//!             varint peak_tree_bytes, counters
//! compress_stats := 5 varints (nodes_before, nodes_after,
//!                   bytes_before, bytes_after, logical_nodes)
//! counters := 9 varints (instructions, cycles, loads, stores,
//!             l1_misses, l2_misses, llc_misses, llc_writebacks,
//!             dram_bytes)
//! ```
//!
//! The encoding is lossless: decode reproduces a [`Profiled`] whose
//! serde-JSON serialization is byte-identical to the original's (pinned
//! across all workloads in `tests/psr2_codec.rs`), so every consumer of
//! the store sees exactly the bytes a JSON round-trip would give.

use cachesim::Counters;
use proftree::wire::{decode_tree, encode_tree, get_str, get_u64, put_str, put_u64};
use proftree::CompressStats;
use tracer::ProfileResult;

use crate::Profiled;

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn get_usize(buf: &[u8], at: &mut usize) -> Result<usize, String> {
    usize::try_from(get_u64(buf, at)?).map_err(|_| "usize overflow".to_string())
}

/// Append the binary encoding of `p` to `out`.
pub fn encode_profiled(p: &Profiled, out: &mut Vec<u8>) {
    put_str(out, &p.name);
    encode_tree(&p.tree, out);
    encode_tree(&p.profile.tree, out);
    put_u64(out, p.profile.net_cycles);
    put_u64(out, p.profile.gross_cycles);
    put_u64(out, p.profile.annotation_events);
    match &p.profile.compress_stats {
        Some(cs) => {
            out.push(1);
            put_usize(out, cs.nodes_before);
            put_usize(out, cs.nodes_after);
            put_usize(out, cs.bytes_before);
            put_usize(out, cs.bytes_after);
            put_u64(out, cs.logical_nodes);
        }
        None => out.push(0),
    }
    put_usize(out, p.profile.peak_tree_bytes);
    let c = &p.profile.counters;
    for v in [
        c.instructions,
        c.cycles,
        c.loads,
        c.stores,
        c.l1_misses,
        c.l2_misses,
        c.llc_misses,
        c.llc_writebacks,
        c.dram_bytes,
    ] {
        put_u64(out, v);
    }
}

/// Decode a [`Profiled`] encoded by [`encode_profiled`]; the whole
/// buffer must be consumed.
pub fn decode_profiled(buf: &[u8]) -> Result<Profiled, String> {
    let mut at = 0usize;
    let name = get_str(buf, &mut at)?;
    let tree = decode_tree(buf, &mut at)?;
    let profile_tree = decode_tree(buf, &mut at)?;
    let net_cycles = get_u64(buf, &mut at)?;
    let gross_cycles = get_u64(buf, &mut at)?;
    let annotation_events = get_u64(buf, &mut at)?;
    let compress_stats = match buf.get(at).copied() {
        Some(0) => {
            at += 1;
            None
        }
        Some(1) => {
            at += 1;
            Some(CompressStats {
                nodes_before: get_usize(buf, &mut at)?,
                nodes_after: get_usize(buf, &mut at)?,
                bytes_before: get_usize(buf, &mut at)?,
                bytes_after: get_usize(buf, &mut at)?,
                logical_nodes: get_u64(buf, &mut at)?,
            })
        }
        Some(b) => return Err(format!("bad compress-stats marker {b}")),
        None => return Err("truncated profile".to_string()),
    };
    let peak_tree_bytes = get_usize(buf, &mut at)?;
    let mut cv = [0u64; 9];
    for v in cv.iter_mut() {
        *v = get_u64(buf, &mut at)?;
    }
    if at != buf.len() {
        return Err(format!(
            "trailing garbage: {} of {} bytes consumed",
            at,
            buf.len()
        ));
    }
    Ok(Profiled {
        name,
        tree,
        profile: ProfileResult {
            tree: profile_tree,
            net_cycles,
            gross_cycles,
            annotation_events,
            compress_stats,
            peak_tree_bytes,
            counters: Counters {
                instructions: cv[0],
                cycles: cv[1],
                loads: cv[2],
                stores: cv[3],
                l1_misses: cv[4],
                l2_misses: cv[5],
                llc_misses: cv[6],
                llc_writebacks: cv[7],
                dram_bytes: cv[8],
            },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prophet;
    use machsim::MachineConfig;
    use memmodel::CalibrationOptions;
    use tracer::AnnotatedProgram;

    struct Mixed;
    impl AnnotatedProgram for Mixed {
        fn name(&self) -> &str {
            "codec-mixed"
        }
        fn run(&self, t: &mut tracer::Tracer) {
            t.work(5_000);
            t.par_sec_begin("loop");
            for i in 0..32 {
                t.par_task_begin("it");
                t.work(10_000 + (i % 3) * 10);
                if i % 4 == 0 {
                    t.lock_begin(1);
                    t.work(500);
                    t.lock_end(1);
                }
                t.par_task_end();
            }
            t.par_sec_end(false);
            t.work(2_000);
        }
    }

    fn quick_prophet() -> Prophet {
        Prophet::builder()
            .calibration(memmodel::calibrate(
                MachineConfig::westmere_scaled(),
                &CalibrationOptions {
                    thread_counts: vec![2, 4],
                    intensity_steps: 3,
                    packet_cycles: 100_000,
                },
            ))
            .build()
    }

    #[test]
    fn profiled_round_trips_byte_identically_vs_json() {
        let p = quick_prophet().profile(&Mixed);
        let mut bin = Vec::new();
        encode_profiled(&p, &mut bin);
        let back = decode_profiled(&bin).expect("decode");
        let a = serde_json::to_string(&p).unwrap();
        let b = serde_json::to_string(&back).unwrap();
        assert_eq!(a, b, "JSON of decoded PSR2 differs from original");
        // And the binary form is meaningfully denser than the JSON.
        assert!(
            bin.len() * 2 < a.len(),
            "binary {} vs json {}",
            bin.len(),
            a.len()
        );
    }

    #[test]
    fn truncation_and_bit_flips_are_errors_not_panics() {
        let p = quick_prophet().profile(&Mixed);
        let mut bin = Vec::new();
        encode_profiled(&p, &mut bin);
        for cut in [0, 1, bin.len() / 3, bin.len() - 1] {
            assert!(decode_profiled(&bin[..cut]).is_err(), "cut at {cut}");
        }
        // Flipping a byte either fails to decode or decodes to a value
        // (CRC catches it at the frame layer); it must never panic.
        for at in [0usize, bin.len() / 2, bin.len() - 3] {
            let mut bad = bin.clone();
            bad[at] ^= 0x40;
            let _ = decode_profiled(&bad);
        }
    }
}
