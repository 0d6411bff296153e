//! A unified op source: live statistical stream or trace replay.
//!
//! Cores execute whatever an [`OpSource`] produces, so every machine
//! configuration can run either generated workloads (the default) or
//! recorded traces (regression pinning, paired comparisons).

use mmm_types::{VcpuId, VmId};

use crate::op::MicroOp;
use crate::stream::OpStream;
use crate::trace::TraceReplay;

/// Where a VCPU's instructions come from.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // one OpSource per VCPU; size is immaterial
pub enum OpSource {
    /// Live statistical generation.
    Stream(OpStream),
    /// Deterministic replay of a recorded window.
    Replay(TraceReplay),
}

impl OpSource {
    /// Produces the next op.
    #[inline]
    pub fn next_op(&mut self) -> MicroOp {
        match self {
            OpSource::Stream(s) => s.next_op(),
            OpSource::Replay(r) => r.next_op(),
        }
    }

    /// Produces `n` consecutive ops through `sink` — identical to `n`
    /// [`OpSource::next_op`] calls.
    pub fn next_ops(&mut self, n: u64, mut sink: impl FnMut(MicroOp)) {
        match self {
            OpSource::Stream(s) => s.next_ops(n, sink),
            OpSource::Replay(r) => {
                for _ in 0..n {
                    sink(r.next_op());
                }
            }
        }
    }

    /// The VM this source belongs to.
    pub fn vm(&self) -> VmId {
        match self {
            OpSource::Stream(s) => s.vm(),
            OpSource::Replay(r) => r.vm(),
        }
    }

    /// The VCPU this source belongs to.
    pub fn vcpu(&self) -> VcpuId {
        match self {
            OpSource::Stream(s) => s.vcpu(),
            OpSource::Replay(r) => r.vcpu(),
        }
    }
}

// A source is generated ahead on a helper thread (`mmm-cpu`'s op
// feeder), so it must stay `Send`: no `Rc` may creep into a generator.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<OpSource>();
};

impl From<OpStream> for OpSource {
    fn from(s: OpStream) -> Self {
        OpSource::Stream(s)
    }
}

impl From<TraceReplay> for OpSource {
    fn from(r: TraceReplay) -> Self {
        OpSource::Replay(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::trace::Trace;

    #[test]
    fn both_sources_expose_identity_and_ops() {
        let mut s = OpStream::new(Benchmark::Oltp.profile(), VmId(1), VcpuId(2), 5);
        let trace = Trace::record(&mut s, 100);
        let mut a: OpSource =
            OpStream::new(Benchmark::Oltp.profile(), VmId(1), VcpuId(2), 5).into();
        let mut b: OpSource = trace.replay().into();
        assert_eq!(a.vm(), b.vm());
        assert_eq!(a.vcpu(), b.vcpu());
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op(), "replay matches the stream");
        }
    }
}
