//! Trace recording and replay.
//!
//! A [`Trace`] captures a finite window of a VCPU's dynamic
//! instruction stream so it can be re-executed verbatim: across
//! simulator versions (regression pinning), across configurations
//! (paired comparisons without stochastic variation), or repeatedly
//! (steady-state loops). [`TraceReplay`] implements the same
//! `next_op` interface as [`OpStream`] and can loop the window
//! endlessly, re-marking phase boundaries so privilege alternation
//! stays well-formed across the seam.

use mmm_types::{VcpuId, VmId};

use crate::op::{MicroOp, OpClass, Privilege};
use crate::stream::OpStream;

/// A recorded window of a workload stream.
///
/// ```
/// use mmm_workload::{Benchmark, OpStream, Trace};
/// use mmm_types::{VmId, VcpuId};
///
/// let mut stream = OpStream::new(Benchmark::Apache.profile(), VmId(0), VcpuId(0), 7);
/// let trace = Trace::record(&mut stream, 1_000);
/// let mut replay = trace.replay();
/// // Replay reproduces the recorded window op for op.
/// assert_eq!(replay.next_op(), trace.ops()[0]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    vm: VmId,
    vcpu: VcpuId,
    ops: Vec<MicroOp>,
}

impl Trace {
    /// Records the next `n` ops of `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn record(stream: &mut OpStream, n: usize) -> Trace {
        assert!(n > 0, "cannot record an empty trace");
        let ops = (0..n).map(|_| stream.next_op()).collect();
        Trace {
            vm: stream.vm(),
            vcpu: stream.vcpu(),
            ops,
        }
    }

    /// The recorded ops.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty (never true for recorded traces).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The VM the trace was recorded from.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The VCPU the trace was recorded from.
    pub fn vcpu(&self) -> VcpuId {
        self.vcpu
    }

    /// Summary statistics of the recorded window.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        for op in &self.ops {
            match op.class {
                OpClass::Load => s.loads += 1,
                OpClass::Store => s.stores += 1,
                OpClass::Branch => s.branches += 1,
                OpClass::Serializing => s.serializing += 1,
                _ => {}
            }
            if op.privilege == Privilege::Os {
                s.os_ops += 1;
            }
            if op.enters_os {
                s.os_entries += 1;
            }
        }
        s.total = self.ops.len() as u64;
        s
    }

    /// Creates an endless replayer over this trace.
    pub fn replay(&self) -> TraceReplay {
        TraceReplay {
            trace: self.clone(),
            pos: 0,
            wraps: 0,
        }
    }
}

/// Aggregate statistics of a trace window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Ops in the window.
    pub total: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Branches.
    pub branches: u64,
    /// Serializing instructions.
    pub serializing: u64,
    /// Ops at OS privilege.
    pub os_ops: u64,
    /// OS entries.
    pub os_entries: u64,
}

/// Errors decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceDecodeError {
    /// The byte stream does not start with the trace magic/version.
    BadHeader,
    /// The byte stream ended mid-record.
    Truncated,
    /// A record contained an invalid class or flag combination.
    Corrupt {
        /// Index of the offending op.
        index: usize,
    },
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::BadHeader => write!(f, "not a trace: bad magic or version"),
            TraceDecodeError::Truncated => write!(f, "trace truncated mid-record"),
            TraceDecodeError::Corrupt { index } => {
                write!(f, "corrupt op record at index {index}")
            }
        }
    }
}

impl std::error::Error for TraceDecodeError {}

const TRACE_MAGIC: &[u8; 4] = b"MMT1";

impl Trace {
    /// Serializes the trace to a compact binary blob (magic + header +
    /// one variable-length record per op). Format is versioned via the
    /// magic; [`Trace::from_bytes`] rejects anything else.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 12);
        out.extend_from_slice(TRACE_MAGIC);
        out.extend_from_slice(&self.vm.0.to_le_bytes());
        out.extend_from_slice(&self.vcpu.0.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        for op in &self.ops {
            // flags byte: class(3) | privilege(1) | mispredicted(1) |
            //             enters(1) | exits(1) | has_data(1)
            let class = match op.class {
                OpClass::Alu => 0u8,
                OpClass::LongAlu => 1,
                OpClass::Load => 2,
                OpClass::Store => 3,
                OpClass::Branch => 4,
                OpClass::Serializing => 5,
            };
            let mut flags = class;
            if op.privilege == Privilege::Os {
                flags |= 1 << 3;
            }
            if op.mispredicted {
                flags |= 1 << 4;
            }
            if op.enters_os {
                flags |= 1 << 5;
            }
            if op.exits_os {
                flags |= 1 << 6;
            }
            if op.data_addr.is_some() {
                flags |= 1 << 7;
            }
            out.push(flags);
            out.push(op.exec_latency);
            out.extend_from_slice(&op.fetch_addr.0.to_le_bytes());
            if let Some(a) = op.data_addr {
                out.extend_from_slice(&a.0.to_le_bytes());
            }
        }
        out
    }

    /// Decodes a trace previously produced by [`Trace::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceDecodeError> {
        use mmm_types::PhysAddr;
        fn take(b: &[u8], at: usize, n: usize) -> Result<&[u8], TraceDecodeError> {
            b.get(at..at + n).ok_or(TraceDecodeError::Truncated)
        }
        if bytes.len() < 16 || &bytes[..4] != TRACE_MAGIC {
            return Err(TraceDecodeError::BadHeader);
        }
        let vm = VmId(u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes")));
        let vcpu = VcpuId(u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes")));
        let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let mut pos = 16;
        // Reserve no more than the bytes can hold (a record is at least
        // 10 bytes), whatever the header claims.
        let mut ops = Vec::with_capacity(count.min((bytes.len() - 16) / 10));
        for index in 0..count {
            let head = take(bytes, pos, 2)?;
            let (flags, exec_latency) = (head[0], head[1]);
            pos += 2;
            let class = match flags & 0b111 {
                0 => OpClass::Alu,
                1 => OpClass::LongAlu,
                2 => OpClass::Load,
                3 => OpClass::Store,
                4 => OpClass::Branch,
                5 => OpClass::Serializing,
                _ => return Err(TraceDecodeError::Corrupt { index }),
            };
            let fetch = take(bytes, pos, 8)?;
            let fetch_addr = PhysAddr(u64::from_le_bytes(fetch.try_into().expect("8 bytes")));
            pos += 8;
            let has_data = flags & (1 << 7) != 0;
            let data_addr = if has_data {
                let d = take(bytes, pos, 8)?;
                pos += 8;
                Some(PhysAddr(u64::from_le_bytes(d.try_into().expect("8 bytes"))))
            } else {
                None
            };
            let is_mem = matches!(class, OpClass::Load | OpClass::Store);
            if is_mem != has_data || exec_latency == 0 {
                return Err(TraceDecodeError::Corrupt { index });
            }
            ops.push(MicroOp {
                class,
                privilege: if flags & (1 << 3) != 0 {
                    Privilege::Os
                } else {
                    Privilege::User
                },
                data_addr,
                fetch_addr,
                mispredicted: flags & (1 << 4) != 0,
                exec_latency,
                enters_os: flags & (1 << 5) != 0,
                exits_os: flags & (1 << 6) != 0,
            });
        }
        if ops.is_empty() {
            return Err(TraceDecodeError::Corrupt { index: 0 });
        }
        Ok(Trace { vm, vcpu, ops })
    }
}

/// An endless, deterministic replayer over a [`Trace`].
#[derive(Clone, Debug)]
pub struct TraceReplay {
    trace: Trace,
    pos: usize,
    wraps: u64,
}

impl TraceReplay {
    /// The VM of the underlying trace.
    pub fn vm(&self) -> VmId {
        self.trace.vm
    }

    /// The VCPU of the underlying trace.
    pub fn vcpu(&self) -> VcpuId {
        self.trace.vcpu
    }

    /// Times the replay has wrapped back to the start.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }

    /// Produces the next op, looping over the window. At the wrap
    /// seam, phase markers are patched so privilege transitions stay
    /// well-formed: if the window's last op runs at a different
    /// privilege than its first, the first replayed op of the new lap
    /// is marked as the corresponding boundary.
    pub fn next_op(&mut self) -> MicroOp {
        let first_privilege = self.trace.ops[0].privilege;
        let last_privilege = self.trace.ops[self.trace.ops.len() - 1].privilege;
        let mut op = self.trace.ops[self.pos];
        if self.pos == 0 && self.wraps > 0 && first_privilege != last_privilege {
            match first_privilege {
                Privilege::Os => {
                    op.enters_os = true;
                    op.exits_os = false;
                    op.class = OpClass::Serializing;
                }
                Privilege::User => {
                    op.exits_os = true;
                    op.enters_os = false;
                    op.class = OpClass::Serializing;
                }
            }
        }
        self.pos += 1;
        if self.pos == self.trace.ops.len() {
            self.pos = 0;
            self.wraps += 1;
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    fn stream() -> OpStream {
        OpStream::new(Benchmark::Apache.profile(), VmId(0), VcpuId(3), 17)
    }

    #[test]
    fn record_captures_the_stream_verbatim() {
        let mut a = stream();
        let mut b = stream();
        let trace = Trace::record(&mut a, 5_000);
        assert_eq!(trace.len(), 5_000);
        assert_eq!(trace.vcpu(), VcpuId(3));
        for op in trace.ops() {
            assert_eq!(*op, b.next_op());
        }
    }

    #[test]
    fn replay_loops_deterministically() {
        let mut s = stream();
        let trace = Trace::record(&mut s, 1_000);
        let mut r1 = trace.replay();
        let mut r2 = trace.replay();
        for _ in 0..3_500 {
            assert_eq!(r1.next_op(), r2.next_op());
        }
        assert_eq!(r1.wraps(), 3);
    }

    #[test]
    fn wrap_seam_keeps_privilege_alternation_well_formed() {
        // Record enough of Apache to end in a different phase than it
        // starts (statistically certain with 200k ops given ~35k-inst
        // phases).
        let mut s = stream();
        let trace = Trace::record(&mut s, 200_000);
        let first = trace.ops()[0].privilege;
        let last = trace.ops()[trace.len() - 1].privilege;
        let mut replay = trace.replay();
        let mut privilege = first;
        let mut violations = 0;
        for _ in 0..450_000 {
            let op = replay.next_op();
            if op.enters_os {
                privilege = Privilege::Os;
            } else if op.exits_os {
                privilege = Privilege::User;
            } else if op.privilege != privilege {
                violations += 1;
            }
        }
        assert_eq!(violations, 0, "privilege must only change at markers");
        let _ = last;
    }

    #[test]
    fn summary_counts_are_consistent() {
        let mut s = stream();
        let trace = Trace::record(&mut s, 50_000);
        let sum = trace.summary();
        assert_eq!(sum.total, 50_000);
        assert!(sum.loads > 5_000, "loads: {}", sum.loads);
        assert!(sum.stores > 2_000);
        assert!(sum.loads + sum.stores + sum.branches + sum.serializing < sum.total);
        // Apache alternates phases within 50k ops.
        assert!(sum.os_entries >= 1 || sum.os_ops == 0 || sum.os_ops == sum.total);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_record_is_rejected() {
        let mut s = stream();
        let _ = Trace::record(&mut s, 0);
    }

    #[test]
    fn serialization_round_trips() {
        let mut s = stream();
        let trace = Trace::record(&mut s, 20_000);
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.vm(), trace.vm());
        assert_eq!(back.vcpu(), trace.vcpu());
        assert_eq!(back.ops(), trace.ops());
    }

    #[test]
    fn serialization_is_compact() {
        let mut s = stream();
        let trace = Trace::record(&mut s, 10_000);
        let bytes = trace.to_bytes();
        // ≤ 18 bytes per op on average (1 flags + 1 latency + 8 fetch
        // + data addr for the ~1/3 of ops that are memory ops).
        assert!(
            bytes.len() < 18 * trace.len() + 16,
            "{} bytes for {} ops",
            bytes.len(),
            trace.len()
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            Trace::from_bytes(b"not a trace at all"),
            Err(TraceDecodeError::BadHeader)
        );
        assert_eq!(Trace::from_bytes(&[]), Err(TraceDecodeError::BadHeader));
    }

    #[test]
    fn decode_rejects_truncation_and_corruption() {
        let mut s = stream();
        let trace = Trace::record(&mut s, 100);
        let bytes = trace.to_bytes();
        // Truncate mid-record.
        assert_eq!(
            Trace::from_bytes(&bytes[..bytes.len() - 3]),
            Err(TraceDecodeError::Truncated)
        );
        // Corrupt a class field to an invalid value (7).
        let mut bad = bytes.clone();
        bad[16] |= 0b111;
        match Trace::from_bytes(&bad) {
            Err(TraceDecodeError::Corrupt { index: 0 }) => {}
            other => panic!("expected corrupt-at-0, got {other:?}"),
        }
    }

    #[test]
    fn decoded_trace_replays_identically() {
        let mut s = stream();
        let trace = Trace::record(&mut s, 5_000);
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        let mut a = trace.replay();
        let mut b = decoded.replay();
        for _ in 0..12_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }
}
