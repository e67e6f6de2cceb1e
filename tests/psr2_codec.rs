//! PSR2 binary-codec integration tests: the compact profile encoding
//! must be a *lossless* stand-in for the JSON serialization on every
//! workload the repo ships, and the store must heal damaged frames.
//!
//! The contract: persistence format changes cost, never bytes. Every
//! profile that round-trips through `encode_profiled`/`decode_profiled`
//! serializes to exactly the JSON of the original, so no consumer can
//! tell the binary frame served it.

use prophet_core::{codec, Prophet};
use store::ProfileStore;
use workloads::npb::{Cg, Ep, Ft, Is, Mg};
use workloads::ompscr::{Fft, Jacobi, Lu, Mandelbrot, Md, Pi, QSort};
use workloads::{Benchmark, PipelineParams, PipelineWl, Test1, Test1Params, Test2, Test2Params};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("prophet-psr2-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_cal() -> prophet_core::memmodel::MemCalibration {
    prophet_core::memmodel::calibrate(
        prophet_core::machsim::MachineConfig::westmere_scaled(),
        &prophet_core::memmodel::CalibrationOptions {
            thread_counts: vec![2, 8],
            intensity_steps: 4,
            packet_cycles: 100_000,
        },
    )
}

fn light_prophet() -> Prophet {
    Prophet::builder().calibration(quick_cal()).build()
}

fn all_workloads() -> Vec<(&'static str, Box<dyn Benchmark>)> {
    vec![
        ("md", Box::new(Md::paper()) as Box<dyn Benchmark>),
        ("lu", Box::new(Lu::paper())),
        ("fft", Box::new(Fft::paper())),
        ("qsort", Box::new(QSort::paper())),
        ("pi", Box::new(Pi::paper())),
        ("mandelbrot", Box::new(Mandelbrot::paper())),
        ("jacobi", Box::new(Jacobi::paper())),
        ("ep", Box::new(Ep::paper())),
        ("ft", Box::new(Ft::paper())),
        ("mg", Box::new(Mg::paper())),
        ("cg", Box::new(Cg::paper())),
        ("is", Box::new(Is::paper())),
        (
            "pipeline",
            Box::new(PipelineWl::new(PipelineParams::transcoder(120))),
        ),
        ("test1", Box::new(Test1::new(Test1Params::random(3)))),
        ("test2", Box::new(Test2::new(Test2Params::random(3)))),
    ]
}

/// PSR2 encode → decode reproduces a profile whose serde-JSON form is
/// byte-identical to the original's, for every shipped workload — the
/// binary path can never change what a store replay returns.
#[test]
fn psr2_round_trips_byte_identically_across_all_workloads() {
    let prophet = light_prophet();
    for (name, w) in all_workloads() {
        let profiled = prophet.profile(w.as_ref());
        let mut bin = Vec::new();
        codec::encode_profiled(&profiled, &mut bin);
        let back = codec::decode_profiled(&bin)
            .unwrap_or_else(|e| panic!("{name}: PSR2 decode failed: {e}"));
        let json_orig = serde_json::to_string(&profiled).unwrap();
        let json_back = serde_json::to_string(&back).unwrap();
        assert_eq!(
            json_orig, json_back,
            "{name}: decoded PSR2 profile serializes differently from the original"
        );
        assert!(
            bin.len() < json_orig.len(),
            "{name}: binary ({}) not smaller than JSON ({})",
            bin.len(),
            json_orig.len()
        );
    }
}

/// WAL healing over real profiles: a frame torn mid-append is dropped
/// on reopen and re-written cleanly; a bit-flipped payload is caught by
/// CRC and the damaged tail is trimmed — never a panic, never an error.
#[test]
fn truncated_and_bit_flipped_frames_heal_on_reopen() {
    let prophet = light_prophet();
    let pa = prophet.profile(&Test1::new(Test1Params::random(41)));
    let pb = prophet.profile(&Test2::new(Test2Params::random(42)));

    // Torn final frame: reopen keeps the whole record, drops the torn
    // one, and a re-put of the lost key survives the next reopen.
    let dir = tmpdir("heal-trunc");
    {
        let store = ProfileStore::builder(&dir).open().unwrap();
        store.put("a", &pa).unwrap();
        store.put("b", &pb).unwrap();
    }
    let log = dir.join("profiles.v2.log");
    let len = std::fs::metadata(&log).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&log)
        .unwrap()
        .set_len(len - 7)
        .unwrap();
    {
        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().corrupt_skipped, 1);
        let got = store.get("a").unwrap().expect("whole record survives");
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&pa).unwrap()
        );
        store.put("b", &pb).unwrap();
    }
    let store = ProfileStore::builder(&dir).open().unwrap();
    assert_eq!(store.len(), 2, "healed log carries both records");
    let _ = std::fs::remove_dir_all(&dir);

    // Bit flip inside a payload: CRC catches it on reopen, the damaged
    // tail is trimmed, and the survivor still decodes.
    let dir = tmpdir("heal-flip");
    {
        let store = ProfileStore::builder(&dir).open().unwrap();
        store.put("a", &pa).unwrap();
        store.put("b", &pb).unwrap();
    }
    let log = dir.join("profiles.v2.log");
    let mut bytes = std::fs::read(&log).unwrap();
    let at = bytes.len() - 9;
    bytes[at] ^= 0x10;
    std::fs::write(&log, &bytes).unwrap();
    let store = ProfileStore::builder(&dir).open().unwrap();
    assert_eq!(store.len(), 1, "flipped record dropped");
    assert_eq!(store.stats().corrupt_skipped, 1);
    assert!(store.get("a").unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
