//! FNV-1a fingerprinting for job cache keys.
//!
//! The same 64-bit FNV-1a construction as `dt_machine::Fnv1a` (behind
//! `Object::content_hash`), packaged as an incremental hasher so
//! campaign declarations can fold scale knobs, program-set content, and
//! dependency fingerprints into one key. Stability across runs (not across format changes) is the
//! contract: bump the campaign's schema salt when the meaning of a
//! fingerprint changes.

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Incremental 64-bit FNV-1a hasher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    pub const fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Hashes the string plus a terminator byte, so adjacent strings
    /// cannot alias by concatenation (`"ab","c"` vs `"a","bc"`).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes()).write_bytes(&[0xff])
    }

    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// One-shot hash of a string.
pub fn fnv1a_str(s: &str) -> u64 {
    Fnv::new().write_str(s).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let a = Fnv::new().write_str("x").write_u64(3).finish();
        let b = Fnv::new().write_str("x").write_u64(3).finish();
        assert_eq!(a, b);
        let c = Fnv::new().write_u64(3).write_str("x").finish();
        assert_ne!(a, c);
    }

    #[test]
    fn strings_do_not_alias_by_concatenation() {
        let a = Fnv::new().write_str("ab").write_str("c").finish();
        let b = Fnv::new().write_str("a").write_str("bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn matches_reference_fnv1a() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c
        let mut h = Fnv::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
    }
}
