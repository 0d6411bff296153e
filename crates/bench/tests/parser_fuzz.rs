//! Seeded mutation fuzzing of the parsers that read outside input:
//! `Trace::from_bytes` (recorded op traces), `Manifest::parse`
//! (campaign manifests) and `Json::parse` (every run export that
//! `mmm-inspect` loads back).
//!
//! Each parser gets 20 000 inputs mutated from valid seeds —
//! byte flips, truncations, splices with another seed, duplicated
//! spans — and must answer every one with `Ok` or `Err`. Release
//! builds abort on panic, so a panic here is a crash of the tool that
//! reads the file. The mutation stream is a fixed `DetRng` seed: a
//! failure reproduces exactly.

use mmm_bench::campaign::Manifest;
use mmm_trace::Json;
use mmm_types::{DetRng, VcpuId, VmId};
use mmm_workload::{Benchmark, OpStream, Trace};

/// Mutated inputs per parser.
const CASES: usize = 20_000;

/// Applies one to four random edits to a copy of `seed`, splicing
/// from `donors`.
fn mutate(rng: &mut DetRng, seed: &[u8], donors: &[Vec<u8>]) -> Vec<u8> {
    let mut out = seed.to_vec();
    for _ in 0..rng.range(1, 5) {
        let len = out.len() as u64;
        match rng.below(4) {
            // Flip one bit, or overwrite one byte.
            0 if len > 0 => {
                let i = rng.below(len) as usize;
                if rng.chance(0.5) {
                    out[i] ^= 1 << rng.below(8);
                } else {
                    out[i] = rng.next_u64() as u8;
                }
            }
            // Truncate.
            1 => out.truncate(rng.below(len + 1) as usize),
            // Splice: replace a tail with a span of another seed.
            2 => {
                let donor = &donors[rng.below(donors.len() as u64) as usize];
                let from = rng.below(donor.len() as u64 + 1) as usize;
                let to = from + rng.below((donor.len() - from) as u64 + 1) as usize;
                out.truncate(rng.below(len + 1) as usize);
                out.extend_from_slice(&donor[from..to]);
            }
            // Duplicate a span in place.
            _ if len > 0 => {
                let a = rng.below(len) as usize;
                let b = a + rng.below((len - a as u64).min(64) + 1) as usize;
                let span = out[a..b].to_vec();
                let at = rng.below(out.len() as u64 + 1) as usize;
                out.splice(at..at, span);
            }
            _ => {}
        }
    }
    out
}

/// Feeds `CASES` mutants of `seeds` to `parse`, which must return.
/// Returns how many of them parsed, so a caller can see the mutants
/// were not all rejected at the first byte.
fn fuzz(stream: u64, seeds: &[Vec<u8>], parse: impl Fn(&[u8]) -> bool) -> usize {
    let mut rng = DetRng::new(0xF022, stream);
    for seed in seeds {
        assert!(parse(seed), "every seed must parse");
    }
    (0..CASES)
        .filter(|_| {
            let seed = &seeds[rng.below(seeds.len() as u64) as usize];
            parse(&mutate(&mut rng, seed, seeds))
        })
        .count()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn trace_decoder_never_panics() {
    let seeds: Vec<Vec<u8>> = [(Benchmark::Oltp, 1), (Benchmark::Zeus, 2)]
        .iter()
        .map(|&(bench, seed)| {
            let mut stream = OpStream::new(bench.profile(), VmId(1), VcpuId(3), seed);
            Trace::record(&mut stream, 48).to_bytes()
        })
        .collect();
    let parsed = fuzz(1, &seeds, |b| Trace::from_bytes(b).is_ok());
    assert!(parsed > 0, "some mutants must still decode");
}

#[test]
fn manifest_parser_never_panics() {
    let seeds: Vec<Vec<u8>> = [
        include_str!("../../../manifests/smoke.json"),
        include_str!("../../../manifests/pab_sweep.json"),
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    let parsed = fuzz(2, &seeds, |b| Manifest::parse(&text(b)).is_ok());
    assert!(parsed > 0, "some mutants must still parse");
}

#[test]
fn json_parser_never_panics() {
    let seeds: Vec<Vec<u8>> = [
        include_str!("../../../manifests/smoke.json"),
        r#"{"a":[1,-2,3.5e-3,true,false,null],"b":{"c":"é\n\"q\"\\"},"d":[[],{}]}"#,
        r#"[18446744073709551615,-9223372036854775808,1E+308,-0.0,"😀"]"#,
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    let parsed = fuzz(3, &seeds, |b| Json::parse(&text(b)).is_ok());
    assert!(parsed > 0, "some mutants must still parse");
}
