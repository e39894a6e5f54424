//! The Write Signature (WSIG): a bloom filter over written lines.
//!
//! §3.3.2: because LW-ID may go stale and `MyProducers` is allowed to be a
//! superset, each L2 controller keeps a 512–1024 bit register that encodes,
//! with a Bloom filter, "the addresses of all the lines that the processor
//! has written to (or read exclusively) in the current checkpoint
//! interval". Membership tests can produce false positives (which only add
//! spurious dependences) but never false negatives.
//!
//! To measure the cost of false positives (Table 6.1, row 1), the model
//! optionally carries an exact shadow set alongside the bits; the protocol
//! *decisions* always use the bloom bits, the shadow only feeds metrics.

use rebound_engine::{FxHashSet, LineAddr};

/// A Bloom-filter write signature with an exact shadow set for
/// false-positive accounting.
///
/// # Example
///
/// ```
/// use rebound_core::Wsig;
/// use rebound_engine::LineAddr;
///
/// let mut w = Wsig::new(1024, 2);
/// w.insert(LineAddr(42));
/// assert!(w.contains(LineAddr(42)));   // no false negatives, ever
/// assert!(w.exact_contains(LineAddr(42)));
/// ```
#[derive(Clone, Debug)]
pub struct Wsig {
    bits: Vec<u64>,
    nbits: usize,
    hashes: usize,
    exact: FxHashSet<LineAddr>,
}

/// Two independent SplitMix64 finalizations of `addr`, feeding the
/// Kirsch–Mitzenmacher double-hashing scheme `h_i = h1 + i*h2`.
#[inline]
fn hash_pair(addr: LineAddr) -> (u64, u64) {
    let mut x = addr.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let h1 = x ^ (x >> 31);
    let mut y = h1.wrapping_add(0x9E37_79B9_7F4A_7C15);
    y = (y ^ (y >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    y = (y ^ (y >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let h2 = (y ^ (y >> 31)) | 1;
    (h1, h2)
}

impl Wsig {
    /// Creates an empty signature of `nbits` bits probed by `hashes` hash
    /// functions per operation.
    ///
    /// # Panics
    ///
    /// Panics if `nbits` or `hashes` is zero.
    pub fn new(nbits: usize, hashes: usize) -> Wsig {
        assert!(nbits > 0 && hashes > 0, "WSIG needs bits and hashes");
        Wsig {
            bits: vec![0; nbits.div_ceil(64)],
            nbits,
            hashes,
            exact: FxHashSet::default(),
        }
    }

    /// Records that the local processor wrote (or read-exclusively
    /// acquired) `addr` this interval.
    pub fn insert(&mut self, addr: LineAddr) {
        let (h1, h2) = hash_pair(addr);
        let n = self.nbits as u64;
        for i in 0..self.hashes as u64 {
            let p = (h1.wrapping_add(i.wrapping_mul(h2)) % n) as usize;
            self.bits[p / 64] |= 1 << (p % 64);
        }
        self.exact.insert(addr);
    }

    /// Bloom membership test — the answer the *hardware* gives, possibly
    /// `true` for a line never written.
    #[inline]
    pub fn contains(&self, addr: LineAddr) -> bool {
        let (h1, h2) = hash_pair(addr);
        let n = self.nbits as u64;
        (0..self.hashes as u64).all(|i| {
            let p = (h1.wrapping_add(i.wrapping_mul(h2)) % n) as usize;
            self.bits[p / 64] & (1 << (p % 64)) != 0
        })
    }

    /// Exact membership — the oracle used only for metrics.
    pub fn exact_contains(&self, addr: LineAddr) -> bool {
        self.exact.contains(&addr)
    }

    /// Clears the signature — done "at the beginning of every checkpoint
    /// interval" (§3.3.2).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.exact.clear();
    }

    /// Whether the signature holds no writes.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.bits.iter().all(|&w| w == 0)
    }

    /// Signature capacity in bits.
    pub fn nbits(&self) -> usize {
        self.nbits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives_ever() {
        let mut w = Wsig::new(256, 2);
        for i in 0..1000 {
            w.insert(LineAddr(i * 7));
        }
        for i in 0..1000 {
            assert!(w.contains(LineAddr(i * 7)), "false negative at {i}");
        }
    }

    #[test]
    fn empty_signature_matches_nothing() {
        let w = Wsig::new(1024, 2);
        for i in 0..1000 {
            assert!(!w.contains(LineAddr(i)));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn clear_resets_membership() {
        let mut w = Wsig::new(64, 2);
        for i in 0..200 {
            w.insert(LineAddr(i));
        }
        // A small, saturated filter: unqueried lines will false-positive.
        let mut fp = 0;
        for i in 1000..1100 {
            if w.contains(LineAddr(i)) {
                fp += 1;
            }
        }
        assert!(fp > 0, "a saturated 64-bit filter must alias");
        w.clear();
        assert!(w.is_empty());
        assert!(!w.contains(LineAddr(5)));
    }

    #[test]
    fn false_positive_rate_is_low_at_paper_size() {
        // 1024 bits, 2 hashes, ~100 written lines -> FP rate well under 10%.
        let mut w = Wsig::new(1024, 2);
        for i in 0..100 {
            w.insert(LineAddr(i));
        }
        let mut fp = 0;
        for i in 10_000..20_000 {
            if w.contains(LineAddr(i)) {
                fp += 1;
            }
        }
        let rate = fp as f64 / 10_000.0;
        assert!(rate < 0.10, "FP rate {rate} too high for 1024-bit WSIG");
    }

    #[test]
    fn exact_shadow_tracks_truth() {
        let mut w = Wsig::new(1024, 2);
        w.insert(LineAddr(1));
        assert!(w.exact_contains(LineAddr(1)));
        assert!(!w.exact_contains(LineAddr(2)));
    }

    #[test]
    #[should_panic(expected = "bits and hashes")]
    fn zero_bits_rejected() {
        Wsig::new(0, 2);
    }

    #[test]
    fn smaller_filters_alias_more() {
        let count_fp = |bits: usize| {
            let mut w = Wsig::new(bits, 2);
            for i in 0..256 {
                w.insert(LineAddr(i));
            }
            let mut fp = 0;
            for i in 100_000..110_000 {
                if w.contains(LineAddr(i)) {
                    fp += 1;
                }
            }
            fp
        };
        let small = count_fp(256);
        let large = count_fp(4096);
        assert!(
            small > large,
            "aliasing must fall with size ({small} vs {large})"
        );
    }
}
