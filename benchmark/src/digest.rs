//! Output digests: a 64-bit FNV-1a hash over the exact bits of what a
//! run produced, so two runs of one seed can be compared in one line.

/// Incremental FNV-1a (64-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Feeds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds the exact bit pattern of an `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_fnv1a() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::default().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Digest::default().bytes(b"foobar").value(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn equal_inputs_give_equal_digests() {
        let run = || {
            let mut d = Digest::default();
            d.u64(7).f64(0.1 + 0.2).str("mfcp-dfl v1");
            d.hex()
        };
        assert_eq!(run(), run());
        assert_eq!(run().len(), 16);
    }

    #[test]
    fn one_bit_of_difference_changes_the_digest() {
        let x: f64 = 0.1 + 0.2;
        let y = f64::from_bits(x.to_bits() ^ 1);
        assert_ne!(
            Digest::default().f64(x).value(),
            Digest::default().f64(y).value()
        );
        // Length prefixes keep concatenations apart.
        let mut a = Digest::default();
        a.str("ab").str("c");
        let mut b = Digest::default();
        b.str("a").str("bc");
        assert_ne!(a.value(), b.value());
    }
}
