//! FNV-1a-128, the one content hash of the workspace.
//!
//! Every cache in the compiler is content-addressed with it: the driver's
//! artifact key, the incremental region cache's content and demand keys,
//! and the lowered-fragment cache's key. 128 bits make a silent collision
//! (which would replay a wrong artifact) no practical concern, and the
//! function is deterministic across platforms with zero dependencies.
//!
//! [`Fnv128`] also implements [`std::fmt::Write`], so `write!(h, ...)`
//! folds formatted text straight into the hash without building a string.
//!
//! # Example
//!
//! ```
//! use frodo_model::digest::{ContentDigest, Fnv128};
//!
//! // the FNV-1a-128 offset basis is the hash of no bytes
//! assert_eq!(Fnv128::new().finish(), 0x6c62272e07bb014262b821756295c58d);
//!
//! let mut h = Fnv128::new();
//! h.write(b"hello");
//! let d = ContentDigest(h.finish());
//! assert_eq!(d.to_string().len(), 32);
//! ```

use frodo_ranges::IndexSet;
use std::fmt;

/// Incremental 128-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    /// Starts a new hash.
    pub fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds an integer as 8 little-endian bytes (platform independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write(&(v as u64).to_le_bytes());
    }

    /// Feeds a 128-bit value (typically a sub-digest) as 16 bytes.
    pub fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a range set: its interval count, then each `[start, end)`.
    pub fn write_ranges(&mut self, set: &IndexSet) {
        self.write_usize(set.intervals().len());
        for iv in set.intervals() {
            self.write_usize(iv.start);
            self.write_usize(iv.end);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

impl fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// A finished 128-bit content digest, rendered as 32 lowercase hex
/// characters (suitable as a cache file name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentDigest(pub u128);

impl fmt::Display for ContentDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn fnv1a_128_reference_values() {
        // FNV-1a-128 test vectors (Noll)
        let hash = |s: &[u8]| {
            let mut h = Fnv128::new();
            h.write(s);
            h.finish()
        };
        assert_eq!(hash(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(hash(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
        assert_eq!(hash(b"foobar"), 0x343e1662793c64bf6f0d3597ba446f18);
    }

    #[test]
    fn split_and_formatted_input_match_one_shot() {
        let mut one = Fnv128::new();
        one.write(b"gain=2.5");
        let mut split = Fnv128::new();
        split.write(b"gain=");
        write!(split, "{:?}", 2.5f64).unwrap();
        assert_eq!(one.finish(), split.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(ContentDigest(1).to_string(), format!("{}1", "0".repeat(31)));
        assert_eq!(ContentDigest(u128::MAX).to_string(), "f".repeat(32));
    }
}
