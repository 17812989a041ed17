//! Deterministic random-number plumbing.
//!
//! Every simulation run is a pure function of a single `u64` seed: the
//! master seed is expanded with SplitMix64 into independent named streams
//! (placement, trace, per-protocol, per-node), so adding a consumer of
//! randomness in one component never perturbs the draws seen by another —
//! a property the paper's methodology needs ("such VM-PM mapping is used
//! identically for all different algorithms in each experiment").

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The PRNG used throughout the simulator: ChaCha8 — portable, seedable,
/// fast, with an explicitly specified algorithm (unlike `StdRng`).
pub type SimRng = ChaCha8Rng;

/// SplitMix64 — the standard seed-expansion mixer (Steele et al.).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Well-known stream labels, so call sites don't sprinkle magic numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Initial VM→PM mapping.
    Placement,
    /// Workload trace generation.
    Trace,
    /// Overlay bootstrap and shuffling.
    Overlay,
    /// The consolidation policy's own decisions.
    Policy,
    /// The learning component (phase-level draws: aggregation pairing,
    /// similarity sampling).
    Learning,
    /// One PM's local training during the learning phase. Per-PM
    /// streams make the round's training order-independent, so the
    /// trainer can fan the PMs out over a worker pool and stay
    /// byte-identical at any thread count.
    LearningPm(u32),
    /// The network fault model (message drops, latency, crashes).
    Network,
    /// The transport driver's per-round delivery schedule: the seeded
    /// activation order that makes channel-backed runs byte-identical
    /// to the sim oracle regardless of thread interleaving.
    Delivery,
    /// One node's protocol randomness in the transport-backed runtime
    /// (shuffle draws, peer picks, local training). Per-node streams
    /// make every node's draws independent of when its messages are
    /// scheduled, which is what lets real concurrent nodes reproduce
    /// the oracle bit-for-bit.
    Node(u32),
    /// One PM's partner picks (and re-picks after a failed exchange) in
    /// an aggregation round. Seeded from a per-round value drawn off the
    /// shared phase RNG, so a PM's picks depend neither on the other
    /// PMs' draws nor on the network's.
    AggregationPm(u32),
    /// One PM's partner pick in a sharded consolidation sweep (same
    /// per-round-seed scheme as [`Stream::AggregationPm`], on the
    /// policy's RNG).
    PolicyPm(u32),
    /// Free-form extra stream.
    Custom(u64),
}

impl Stream {
    fn tag(self) -> u64 {
        match self {
            Stream::Placement => 1,
            Stream::Trace => 2,
            Stream::Overlay => 3,
            Stream::Policy => 4,
            Stream::Learning => 5,
            Stream::Network => 6,
            Stream::Delivery => 7,
            // Per-PM learning streams live in their own tag plane, far
            // above Custom's 0x1000 offset, so no PM index can collide
            // with any other stream label.
            Stream::LearningPm(pm) => 0x1_0000_0000 + pm as u64,
            // Per-node protocol streams get a second private tag plane.
            Stream::Node(node) => 0x2_0000_0000 + node as u64,
            // Per-PM partner-pick streams for the aggregation round and
            // the sharded consolidation sweep, each in its own plane.
            Stream::AggregationPm(pm) => 0x3_0000_0000 + pm as u64,
            Stream::PolicyPm(pm) => 0x4_0000_0000 + pm as u64,
            Stream::Custom(x) => 0x1000 + x,
        }
    }
}

/// Derives the RNG for a named stream of a master seed.
pub fn stream_rng(master_seed: u64, stream: Stream) -> SimRng {
    let mut rng = SimRng::seed_from_u64(splitmix64(master_seed));
    rng.set_stream(splitmix64(stream.tag()));
    rng
}

/// Derives an RNG for a (stream, node) pair — independent per-node
/// randomness for protocols that need it.
pub fn node_rng(master_seed: u64, stream: Stream, node: u64) -> SimRng {
    let mut rng = SimRng::seed_from_u64(splitmix64(master_seed ^ splitmix64(node)));
    rng.set_stream(splitmix64(stream.tag()));
    rng
}

/// Serializes the exact cursor of a [`SimRng`] (key, block counter,
/// stream id and mid-block position), so a restored generator continues
/// the byte stream precisely where the original left off.
pub fn save_rng(rng: &SimRng, w: &mut glap_snapshot::Writer) {
    let s = rng.export_state();
    for k in s.key {
        w.put_u32(k);
    }
    w.put_u64(s.counter);
    w.put_u64(s.stream);
    for b in s.buf {
        w.put_u32(b);
    }
    w.put_u32(s.idx);
}

/// Inverse of [`save_rng`].
pub fn restore_rng(
    r: &mut glap_snapshot::Reader<'_>,
) -> Result<SimRng, glap_snapshot::SnapshotError> {
    let mut key = [0u32; 8];
    for k in &mut key {
        *k = r.get_u32()?;
    }
    let counter = r.get_u64()?;
    let stream = r.get_u64()?;
    let mut buf = [0u32; 16];
    for b in &mut buf {
        *b = r.get_u32()?;
    }
    let idx = r.get_u32()?;
    if idx > 16 {
        return Err(glap_snapshot::SnapshotError::Corrupt(format!(
            "rng buffer index {idx} out of range"
        )));
    }
    Ok(SimRng::from_state(rand_chacha::ChaCha8State {
        key,
        counter,
        stream,
        buf,
        idx,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn same_seed_same_stream_reproduces() {
        let mut a = stream_rng(42, Stream::Trace);
        let mut b = stream_rng(42, Stream::Trace);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_are_independent() {
        let mut a = stream_rng(42, Stream::Trace);
        let mut b = stream_rng(42, Stream::Policy);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = stream_rng(1, Stream::Placement);
        let mut b = stream_rng(2, Stream::Placement);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn node_streams_differ_per_node() {
        let mut a = node_rng(42, Stream::Learning, 0);
        let mut b = node_rng(42, Stream::Learning, 1);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut a2 = node_rng(42, Stream::Learning, 0);
        assert_eq!(node_rng(42, Stream::Learning, 0).next_u64(), a2.next_u64());
    }

    #[test]
    fn per_pm_learning_streams_are_distinct_and_reproducible() {
        let mut a = stream_rng(42, Stream::LearningPm(0));
        let mut b = stream_rng(42, Stream::LearningPm(1));
        let mut shared = stream_rng(42, Stream::Learning);
        let a0 = a.next_u64();
        assert_ne!(a0, b.next_u64());
        assert_ne!(a0, shared.next_u64());
        assert_eq!(stream_rng(42, Stream::LearningPm(0)).next_u64(), a0);
        // The per-PM tag plane cannot collide with Custom streams.
        for pm in [0u32, 1, 1000] {
            let mut p = stream_rng(7, Stream::LearningPm(pm));
            let mut c = stream_rng(7, Stream::Custom(pm as u64));
            assert_ne!(p.next_u64(), c.next_u64());
        }
    }

    #[test]
    fn node_protocol_streams_have_their_own_tag_plane() {
        let mut a = stream_rng(42, Stream::Node(0));
        let mut b = stream_rng(42, Stream::Node(1));
        assert_ne!(a.next_u64(), b.next_u64());
        for node in [0u32, 3, 1000] {
            let mut n = stream_rng(7, Stream::Node(node));
            let mut p = stream_rng(7, Stream::LearningPm(node));
            let mut c = stream_rng(7, Stream::Custom(node as u64));
            let v = n.next_u64();
            assert_ne!(v, p.next_u64());
            assert_ne!(v, c.next_u64());
        }
        let mut d = stream_rng(7, Stream::Delivery);
        let mut net = stream_rng(7, Stream::Network);
        assert_ne!(d.next_u64(), net.next_u64());
    }

    #[test]
    fn custom_streams_are_distinct() {
        let mut a = stream_rng(7, Stream::Custom(0));
        let mut b = stream_rng(7, Stream::Custom(1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn saved_rng_resumes_mid_block() {
        let mut rng = stream_rng(42, Stream::Policy);
        // Advance to an odd position inside a ChaCha block so the
        // mid-block cursor matters.
        let mut junk = [0u8; 13];
        rng.fill_bytes(&mut junk);

        let mut w = glap_snapshot::Writer::new();
        save_rng(&rng, &mut w);
        let bytes = w.into_bytes();

        let mut r = glap_snapshot::Reader::new(&bytes);
        let mut restored = restore_rng(&mut r).unwrap();
        assert!(r.is_exhausted());
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn restore_rng_rejects_bad_cursor() {
        let mut rng = stream_rng(42, Stream::Policy);
        rng.next_u64();
        let mut w = glap_snapshot::Writer::new();
        save_rng(&rng, &mut w);
        let mut bytes = w.into_bytes();
        // The trailing u32 is the buffer index; force it out of range.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&99u32.to_le_bytes());
        let mut r = glap_snapshot::Reader::new(&bytes);
        assert!(matches!(
            restore_rng(&mut r),
            Err(glap_snapshot::SnapshotError::Corrupt(_))
        ));
    }
}
