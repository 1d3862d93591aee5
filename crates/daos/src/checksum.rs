//! CRC32C (Castagnoli) — DAOS's default end-to-end checksum.
//!
//! The arithmetic lives in [`ros2_buf::crc`]: an SSE4.2 hardware path with
//! runtime detection (and a lane-parallel per-chunk table that VOS records
//! at update), a slicing-by-16 software fallback, and a table-driven
//! combinator — all bit-identical to the original table-driven
//! implementation (proven in `crates/buf/tests/crc_equivalence.rs`). The
//! timing model still charges the hardware-assisted rate
//! ([`ros2_hw::checksum_cost`]). Checksums are computed on update, stored
//! with the record, and *derived* on fetch by combining the store's cached
//! per-chunk CRCs — corrupted media is detected without rescanning clean
//! payloads, which the failure-injection tests exercise.

pub use ros2_buf::{crc32c, crc32c_append, crc32c_chunks, crc32c_combine, crc32c_zeros};

/// A stored checksum alongside its verification helper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Checksum(pub u32);

impl Checksum {
    /// Computes the checksum of `data`.
    pub fn of(data: &[u8]) -> Self {
        Checksum(crc32c(data))
    }
    /// Verifies `data` against this checksum.
    pub fn verify(&self, data: &[u8]) -> bool {
        crc32c(data) == self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / iSCSI test vectors for CRC32C.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn chunked_equals_whole() {
        let data: Vec<u8> = (0..10_000).map(|i| (i * 7 % 251) as u8).collect();
        let whole = crc32c(&data);
        let mut st = 0u32;
        for chunk in data.chunks(97) {
            st = crc32c_append(st, chunk);
        }
        assert_eq!(st, whole);
    }

    #[test]
    fn combine_equals_whole() {
        let data: Vec<u8> = (0..10_000).map(|i| (i * 13 % 251) as u8).collect();
        let whole = crc32c(&data);
        let mut acc = 0u32;
        for chunk in data.chunks(4096) {
            acc = crc32c_combine(acc, crc32c(chunk), chunk.len() as u64);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0x5Au8; 4096];
        let cs = Checksum::of(&data);
        assert!(cs.verify(&data));
        data[1234] ^= 0x01;
        assert!(!cs.verify(&data));
    }

    #[test]
    fn distinct_inputs_distinct_crcs() {
        // Not a strength proof — a regression canary for the CRC paths.
        let a = crc32c(b"object-data-a");
        let b = crc32c(b"object-data-b");
        assert_ne!(a, b);
    }
}
