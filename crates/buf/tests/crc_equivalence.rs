//! Equivalence proof for the CRC32C paths: the hardware (SSE4.2) path, the
//! slicing-by-16 software path, and combine-of-chunk-CRCs must all match
//! the seed's table-driven slicing-by-8 implementation — kept verbatim
//! below as the oracle — on random data and random chunkings.
//!
//! The hardware path runs one `crc32` chain per buffer, or four chunks in
//! lockstep for a chunk table, and combine shifts through compile-time
//! tables, so the properties below reach lengths up to 80 KiB at unaligned
//! starts, chunk tables with short tails and chunk counts that are not a
//! multiple of the lane count, and combine lengths up to 2^40 (checked
//! against zlib's GF(2) matrix algorithm).

use proptest::prelude::*;
use ros2_buf::{
    crc32c, crc32c_append, crc32c_append_sw, crc32c_chunks, crc32c_combine, crc32c_zeros,
};

/// Longest buffer the long-input properties draw.
const MAX_LEN: usize = 80 << 10;
/// Block sizes whose multiples +-1 the long-input properties favour: the
/// 3 x 256 B and 3 x 8 KiB blocks a three-chain interleaved kernel folds
/// at, so such a kernel is covered at its boundaries too.
const SHORT_BLOCK: usize = 3 * 256;
const LONG_BLOCK: usize = 3 * 8192;

/// Lengths in `0..=MAX_LEN`: uniform, or an exact multiple of a block
/// size +-1.
fn long_len() -> impl Strategy<Value = usize> {
    let near = |block: usize| {
        (0..MAX_LEN / block + 1, 0usize..3)
            .prop_map(move |(k, d)| (k * block + d).saturating_sub(1).min(MAX_LEN))
    };
    prop_oneof![0..MAX_LEN + 1, near(SHORT_BLOCK), near(LONG_BLOCK)]
}

/// The seed's slicing-by-8 implementation (`crates/daos/src/checksum.rs`
/// before this PR), verbatim, as the independent oracle.
mod seed_reference {
    const POLY: u32 = 0x82F6_3B78;

    fn table() -> &'static [[u32; 256]; 8] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = Box::new([[0u32; 256]; 8]);
            for i in 0..256u32 {
                let mut crc = i;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    };
                }
                t[0][i as usize] = crc;
            }
            for i in 0..256 {
                for slice in 1..8 {
                    let prev = t[slice - 1][i];
                    t[slice][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                }
            }
            t
        })
    }

    pub fn crc32c_append(state: u32, data: &[u8]) -> u32 {
        let t = table();
        let mut crc = !state;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
            let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    pub fn crc32c(data: &[u8]) -> u32 {
        crc32c_append(0, data)
    }
}

/// zlib's `crc32_combine`: the GF(2) matrix algorithm, squaring a
/// one-zero-bit operator per bit of the length, as the oracle for the
/// table-driven combine.
mod gf2_reference {
    const POLY: u32 = 0x82F6_3B78;

    fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
        let mut sum = 0u32;
        let mut i = 0usize;
        while vec != 0 {
            if vec & 1 != 0 {
                sum ^= mat[i];
            }
            vec >>= 1;
            i += 1;
        }
        sum
    }

    fn gf2_square(src: &[u32; 32]) -> [u32; 32] {
        let mut dst = [0u32; 32];
        for (n, row) in src.iter().enumerate() {
            dst[n] = gf2_times(src, *row);
        }
        dst
    }

    /// Unlike zlib, no early return for `len_b == 0`: the result is then
    /// `crc_a ^ crc_b`, the API's contract for any `crc_b`.
    pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
        let mut odd = [0u32; 32];
        odd[0] = POLY;
        for (n, entry) in odd.iter_mut().enumerate().skip(1) {
            *entry = 1 << (n - 1);
        }
        let mut even = gf2_square(&odd); // two zero bits
        odd = gf2_square(&even); // four zero bits
        let mut crc = crc_a;
        let mut len = len_b;
        loop {
            // One zero byte, then doubling per bit of the length.
            even = gf2_square(&odd);
            if len & 1 != 0 {
                crc = gf2_times(&even, crc);
            }
            len >>= 1;
            if len == 0 {
                break;
            }
            odd = gf2_square(&even);
            if len & 1 != 0 {
                crc = gf2_times(&odd, crc);
            }
            len >>= 1;
            if len == 0 {
                break;
            }
        }
        crc ^ crc_b
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One-shot: hw/auto path and slicing-by-16 both equal the oracle.
    #[test]
    fn one_shot_matches_oracle(data in prop::collection::vec(any::<u8>(), 0..5000)) {
        let want = seed_reference::crc32c(&data);
        prop_assert_eq!(crc32c(&data), want);
        prop_assert_eq!(crc32c_append_sw(0, &data), want);
    }

    /// Chunked continuation through both paths equals the oracle, at every
    /// random chunk size.
    #[test]
    fn chunked_matches_oracle(
        data in prop::collection::vec(any::<u8>(), 1..5000),
        step in 1usize..257,
    ) {
        let want = seed_reference::crc32c(&data);
        let mut auto = 0u32;
        let mut sw = 0u32;
        let mut oracle = 0u32;
        for chunk in data.chunks(step) {
            auto = crc32c_append(auto, chunk);
            sw = crc32c_append_sw(sw, chunk);
            oracle = seed_reference::crc32c_append(oracle, chunk);
        }
        prop_assert_eq!(auto, want);
        prop_assert_eq!(sw, want);
        prop_assert_eq!(oracle, want);
    }

    /// Combine of independently computed chunk CRCs equals the oracle over
    /// the concatenation, for random chunkings — the property the store's
    /// fetch-verify path rests on.
    #[test]
    fn combine_matches_oracle(
        data in prop::collection::vec(any::<u8>(), 1..5000),
        step in 1usize..1025,
    ) {
        let want = seed_reference::crc32c(&data);
        let mut acc = 0u32;
        for chunk in data.chunks(step) {
            acc = crc32c_combine(acc, crc32c(chunk), chunk.len() as u64);
        }
        prop_assert_eq!(acc, want);
    }

    /// Closed-form zero-run CRCs equal the oracle scanning real zeroes.
    #[test]
    fn zeros_matches_oracle(len in 0usize..20_000) {
        prop_assert_eq!(crc32c_zeros(len as u64), seed_reference::crc32c(&vec![0u8; len]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One-shot over long inputs at unaligned starts inside a larger
    /// buffer.
    #[test]
    fn long_unaligned_matches_oracle(
        buf in prop::collection::vec(any::<u8>(), MAX_LEN + 64..MAX_LEN + 65),
        start in 0usize..64,
        len in long_len(),
    ) {
        let data = &buf[start..start + len];
        let want = seed_reference::crc32c(data);
        prop_assert_eq!(crc32c(data), want, "start {} len {}", start, len);
        prop_assert_eq!(crc32c_append_sw(0, data), want, "start {} len {}", start, len);
    }

    /// Chunked appends whose pieces straddle word and block boundaries
    /// equal the oracle over the whole buffer.
    #[test]
    fn long_chunked_matches_oracle(
        buf in prop::collection::vec(any::<u8>(), MAX_LEN + 1..MAX_LEN + 2),
        len in long_len(),
        step in prop_oneof![1usize..257, SHORT_BLOCK - 8..SHORT_BLOCK + 9, LONG_BLOCK - 8..LONG_BLOCK + 9, 1usize..MAX_LEN],
    ) {
        let data = &buf[..len];
        let mut auto = 0u32;
        for chunk in data.chunks(step) {
            auto = crc32c_append(auto, chunk);
        }
        prop_assert_eq!(auto, seed_reference::crc32c(data), "len {} step {}", len, step);
    }

    /// The table-driven combine equals zlib's matrix algorithm at random
    /// lengths up to 2^40, where no payload could be scanned.
    #[test]
    fn combine_matches_gf2_reference(
        crc_a in any::<u32>(),
        crc_b in any::<u32>(),
        len_b in prop_oneof![0u64..1 << 40, 0u64..70_000, 0u64..41],
    ) {
        prop_assert_eq!(
            crc32c_combine(crc_a, crc_b, len_b),
            gf2_reference::crc32c_combine(crc_a, crc_b, len_b),
            "len_b {}", len_b
        );
    }

    /// Zero runs up to 2^40 bytes split anywhere: `zeros(a + b)` is
    /// `zeros(a)` combined with `zeros(b)` by the matrix algorithm.
    #[test]
    fn zeros_split_matches_gf2_reference(a in 0u64..1 << 39, b in 0u64..1 << 39) {
        prop_assert_eq!(
            crc32c_zeros(a + b),
            gf2_reference::crc32c_combine(crc32c_zeros(a), crc32c_zeros(b), b)
        );
    }

    /// The lane-parallel chunk table equals per-chunk CRCs, including a
    /// short tail chunk and chunk counts not divisible by the lane count,
    /// at unaligned starts and other chunk sizes.
    #[test]
    fn chunk_table_matches_per_chunk(
        buf in prop::collection::vec(any::<u8>(), 14 * 4096 + 64..14 * 4096 + 65),
        start in 0usize..64,
        chunks in 0usize..14,
        tail in prop_oneof![Just(0usize), 1usize..4096],
        chunk_len in prop_oneof![Just(4096usize), 1usize..1100],
    ) {
        let len = (chunks * 4096 + tail).min(14 * 4096);
        let data = &buf[start..start + len];
        let want: Vec<u32> = data.chunks(chunk_len).map(seed_reference::crc32c).collect();
        let mut got = Vec::with_capacity(want.len());
        let mut in_order = true;
        crc32c_chunks(data, chunk_len, |i, crc| {
            in_order &= i == got.len();
            got.push(crc);
        });
        prop_assert!(in_order, "chunk indices out of order");
        prop_assert_eq!(&got, &want, "len {} chunk_len {}", len, chunk_len);
        let via_map: Vec<u32> = data.chunks(chunk_len).map(crc32c).collect();
        prop_assert_eq!(got, via_map);
    }
}

#[test]
fn reports_acceleration_state() {
    // Informational: both branches are exercised above regardless.
    println!(
        "crc32c hardware acceleration: {}",
        ros2_buf::hw_acceleration()
    );
}
