//! Op-stream fingerprints: every built-in profile's stream, hashed.
//!
//! Each case hashes the first 300 000 ops of one `(profile, vm, vcpu,
//! seed)` stream with FNV-1a over a fixed byte encoding of every
//! `MicroOp` field. The expected values were recorded from the
//! generator before its draws were compiled into per-phase plans, so a
//! change to how a stream is generated (or fed to a core) that moves
//! a single bit of a single op fails here, without running the
//! full-system goldens.

use mmm_types::{VcpuId, VmId};
use mmm_workload::{Benchmark, MicroOp, OpStream};

/// Ops hashed per stream.
const OPS: u64 = 300_000;

/// `(vm, vcpu, seed)` tuples every profile is hashed at.
const TUPLES: [(u16, u16, u64); 4] = [(0, 0, 1), (0, 5, 7), (3, 2, 42), (1, 15, 0xDEAD_BEEF)];

/// The hashed profiles: the paper's six, then the SPEC-like pair.
fn profiles() -> Vec<Benchmark> {
    let mut all = Benchmark::all().to_vec();
    all.push(Benchmark::SpecLike);
    all.push(Benchmark::Synthetic {
        user_kilo_insts: 10,
    });
    all
}

/// Expected fingerprints, indexed `[profile][tuple]`.
const EXPECTED: [[u64; 4]; 8] = [
    [
        0xC6C4B4DA90BEE427,
        0x4C57EE96FB327FE5,
        0x6D54C254D29EABCD,
        0x328296D3F2468DD5,
    ],
    [
        0x9C7262865EF6FA8E,
        0x5543A6B53A0950A3,
        0x0F7FC9CC730509A3,
        0x8951E4A1CD07822D,
    ],
    [
        0x6397275E26A11AED,
        0x5B1651460B29ADE9,
        0x2311EFE80855E55D,
        0xDCB7AB2212BB58FC,
    ],
    [
        0x9D44EF679493DD5B,
        0xF4EA7354F471CAC5,
        0x193B84F914AABA0D,
        0xB22119D0A90E8983,
    ],
    [
        0xFF5B5DCAD9295ACF,
        0x753163DCB4849F6A,
        0x2AA48A477B832BE1,
        0xEDA041BB462E923A,
    ],
    [
        0x44E96F81D25873BD,
        0x9C0ACA28C3D369FE,
        0xBD34CCACBEFBB39D,
        0x3EEF741A6832FAFC,
    ],
    [
        0x97596C00C42FEAB8,
        0xE9429842251D8270,
        0xF8DE87664A1CE990,
        0xCEBB869DE10E5223,
    ],
    [
        0x3DC2B3847A1DEF20,
        0x21D6553914CDE3CD,
        0x6FC49DE5CCEB6AC2,
        0xB3B83A509FCABA5C,
    ],
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn op(&mut self, op: &MicroOp) {
        let (has_data, data) = match op.data_addr {
            Some(a) => (1u8, a.0),
            None => (0u8, 0),
        };
        self.bytes(&[
            op.class as u8,
            op.privilege as u8,
            has_data,
            op.mispredicted as u8,
            op.exec_latency,
            op.enters_os as u8,
            op.exits_os as u8,
        ]);
        self.bytes(&data.to_le_bytes());
        self.bytes(&op.fetch_addr.0.to_le_bytes());
    }
}

fn fingerprint(bench: Benchmark, (vm, vcpu, seed): (u16, u16, u64)) -> u64 {
    let mut stream = OpStream::new(bench.profile(), VmId(vm), VcpuId(vcpu), seed);
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    stream.next_ops(OPS, |op| h.op(&op));
    h.0
}

#[test]
fn every_profile_stream_matches_its_recorded_fingerprint() {
    let mut got = Vec::new();
    for bench in profiles() {
        got.push(TUPLES.map(|t| fingerprint(bench, t)));
    }
    let table: Vec<String> = got
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|h| format!("0x{h:016X}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    assert_eq!(
        got,
        EXPECTED.to_vec(),
        "op streams changed; fingerprints now:\n{}",
        table.join("\n")
    );
}
