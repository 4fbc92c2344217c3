//! A streaming FNV-1a 64-bit hasher.

/// A streaming FNV-1a 64-bit hasher.
///
/// Chosen for state fingerprinting and reconciliation digests because it
/// is dependency-free, fast on the short buffers involved, and — unlike
/// `std::hash::DefaultHasher` — has a *stable, specified* algorithm, so
/// digests are comparable across runs, builds, toolchains and peers
/// (counterexample schedules stay replayable byte-for-byte, and two
/// replicas agree on a digest-tree node iff they agree on its items).
#[derive(Clone, Debug)]
pub struct FnvHasher(u64);

impl FnvHasher {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> FnvHasher {
        FnvHasher(Self::OFFSET_BASIS)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb one `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher::new()
    }
}
