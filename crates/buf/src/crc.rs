//! CRC32C (Castagnoli) at hardware rate, with a table-driven combinator.
//!
//! Evaluation paths, all bit-identical:
//!
//! * **SSE4.2, one chain** — [`crc32c_append`] runs `_mm_crc32_u64` via
//!   `std::arch`, selected by runtime feature detection on x86-64. The
//!   instruction has a 3-cycle latency but issues once per cycle, so one
//!   dependent chain runs at a third of its throughput (7.5 GB/s on 4 KiB
//!   pieces on a 2-vCPU Xeon VM). Splitting a buffer into three chains and
//!   folding them would about double that, but the benchmark workloads
//!   hash at most 4 KiB in one piece (unaligned fragments, single-chunk
//!   records), and there the fold moved no end-to-end metric.
//! * **SSE4.2, chunk lanes** — [`crc32c_chunks`] computes a per-chunk CRC
//!   table (VOS records one CRC per 4 KiB chunk) with four chunks in
//!   lockstep, one chain each, so the instruction issues every cycle and
//!   no fold is needed: 21.5 GB/s for a 1 MiB table.
//! * **slicing-by-16** — the portable software path, 1.5 GB/s.
//! * **combine** — [`crc32c_combine`] concatenates two finalized CRCs
//!   without touching a single payload byte: one four-lookup shift per set
//!   bit of the length (5 ns for a 4 KiB chunk). This is what lets stores
//!   answer "what is the CRC of this range" from cached per-chunk CRCs.
//!
//! Every table is built at compile time and lives in static storage, so no
//! path allocates, first use included. The shift tables are zlib's
//! `crc32_combine` GF(2) operators for `2^k` zero bytes, each squared
//! through the table of the one before.
//!
//! The polynomial, bit order, and init/finalize convention match the
//! original table-driven implementation in `ros2_daos::checksum` (RFC 3720
//! vectors), which now delegates here. The timing model charges its own
//! rate (`ros2_hw::checksum_cost`), independent of this host's speed.

/// The CRC32C polynomial (reflected).
pub const POLY: u32 = 0x82F6_3B78;

// ---------------------------------------------------------------- tables --

/// Advances a raw CRC register over one zero byte, bit by bit.
const fn zero_byte(mut raw: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        raw = if raw & 1 != 0 {
            (raw >> 1) ^ POLY
        } else {
            raw >> 1
        };
        bit += 1;
    }
    raw
}

/// 16-entry-per-byte lookup table for the slicing-by-16 software path.
static TABLE16: [[u32; 256]; 16] = table16();

const fn table16() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        t[0][i] = zero_byte(i as u32);
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut slice = 1;
        while slice < 16 {
            let prev = t[slice - 1][i];
            t[slice][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            slice += 1;
        }
        i += 1;
    }
    t
}

/// Raw (non-inverted) update over `data`, slicing-by-16.
fn update_sw(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLE16;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let c = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let d = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(d & 0xFF) as usize]
            ^ t[2][((d >> 8) & 0xFF) as usize]
            ^ t[1][((d >> 16) & 0xFF) as usize]
            ^ t[0][(d >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

// ----------------------------------------------------------- shift tables --

/// A linear operator on the 32-bit CRC register, byte-sliced: entry
/// `[j][b]` is the image of byte value `b` placed at bits `8j..8j+8`.
type ShiftTable = [[u32; 256]; 4];

/// Applies a byte-sliced operator: four lookups.
#[inline]
const fn shift(t: &ShiftTable, v: u32) -> u32 {
    t[0][(v & 0xFF) as usize]
        ^ t[1][((v >> 8) & 0xFF) as usize]
        ^ t[2][((v >> 16) & 0xFF) as usize]
        ^ t[3][(v >> 24) as usize]
}

/// A 32x32 GF(2) matrix: row `n` is the image of bit `n`.
type Gf2Matrix = [u32; 32];

/// Byte-slices a matrix: each entry extends an entry with one bit fewer
/// by one matrix row, so a table costs 1024 XORs.
const fn byte_sliced(mat: &Gf2Matrix) -> ShiftTable {
    let mut t = [[0u32; 256]; 4];
    let mut j = 0;
    while j < 4 {
        let mut b = 1usize;
        while b < 256 {
            let low = b.trailing_zeros() as usize;
            t[j][b] = t[j][b & (b - 1)] ^ mat[8 * j + low];
            b += 1;
        }
        j += 1;
    }
    t
}

/// Number of shift operators: lengths up to 2^48 bytes.
const SHIFT_LEVELS: usize = 48;

/// `SHIFT[k]` advances a CRC register over `2^k` zero bytes.
static SHIFT: [ShiftTable; SHIFT_LEVELS] = shift_tables();

const fn shift_tables() -> [ShiftTable; SHIFT_LEVELS] {
    // The operator for one zero byte, row by row.
    let mut op: Gf2Matrix = [0u32; 32];
    let mut n = 0;
    while n < 32 {
        op[n] = zero_byte(1 << n);
        n += 1;
    }
    let mut tables = [[[0u32; 256]; 4]; SHIFT_LEVELS];
    let mut k = 0;
    while k < SHIFT_LEVELS {
        tables[k] = byte_sliced(&op);
        // Square through the table just built: row n of op^2 is op(op[n]).
        let mut sq = [0u32; 32];
        let mut n = 0;
        while n < 32 {
            sq[n] = shift(&tables[k], op[n]);
            n += 1;
        }
        op = sq;
        k += 1;
    }
    tables
}

/// `ZERO_CRCS[k]` = CRC32C of `2^k` zero bytes.
static ZERO_CRCS: [u32; SHIFT_LEVELS] = zero_crcs(&SHIFT);

const fn zero_crcs(shifts: &[ShiftTable; SHIFT_LEVELS]) -> [u32; SHIFT_LEVELS] {
    let mut z = [0u32; SHIFT_LEVELS];
    z[0] = !zero_byte(!0);
    // Z[k] = combine(Z[k-1], Z[k-1], 2^(k-1)).
    let mut k = 1;
    while k < SHIFT_LEVELS {
        z[k] = shift(&shifts[k - 1], z[k - 1]) ^ z[k - 1];
        k += 1;
    }
    z
}

// -------------------------------------------------------------- hardware --

/// Whether the SSE4.2 CRC32 instruction path is in use on this host.
pub fn hw_acceleration() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Chunks computed in lockstep by [`crc32c_chunks`].
const CHUNK_LANES: usize = 4;

#[cfg(target_arch = "x86_64")]
mod hw {
    use super::CHUNK_LANES;
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    /// Runs `N` independent `crc32` chains in lockstep: chain `l` starts
    /// from raw register `crc[l]` and consumes `len` bytes at `ptrs[l]`.
    /// The chains share no data dependency, so the instruction issues once
    /// per cycle instead of once per latency.
    ///
    /// # Safety
    /// SSE4.2 must be present, and each `ptrs[l]` must be valid for reads
    /// of `len` bytes.
    #[inline]
    #[target_feature(enable = "sse4.2")]
    unsafe fn lanes<const N: usize>(
        mut crc: [u64; N],
        ptrs: [*const u8; N],
        len: usize,
    ) -> [u64; N] {
        let words = len / 8;
        for w in 0..words {
            for l in 0..N {
                let word = ptrs[l].add(8 * w).cast::<u64>().read_unaligned();
                crc[l] = _mm_crc32_u64(crc[l], u64::from_le(word));
            }
        }
        for i in 8 * words..len {
            for l in 0..N {
                crc[l] = u64::from(_mm_crc32_u8(crc[l] as u32, *ptrs[l].add(i)));
            }
        }
        crc
    }

    /// Raw update: one chain.
    ///
    /// # Safety
    /// SSE4.2 must be present (see [`super::hw_acceleration`]).
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        let [crc] = lanes([u64::from(crc)], [data.as_ptr()], data.len());
        crc as u32
    }

    /// Finalized CRCs of the leading whole groups of [`CHUNK_LANES`]
    /// `chunk_len`-byte chunks of `data`, one chain per chunk, passed to
    /// `emit` in order. Returns how many chunks it emitted.
    ///
    /// # Safety
    /// SSE4.2 must be present.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn chunk_lanes(
        data: &[u8],
        chunk_len: usize,
        emit: &mut impl FnMut(usize, u32),
    ) -> usize {
        let mut done = 0;
        // Saturating: an absurd `chunk_len` must yield no group, not wrap.
        for group in data.chunks_exact(chunk_len.saturating_mul(CHUNK_LANES)) {
            let p = group.as_ptr();
            let ptrs = std::array::from_fn(|l| p.add(l * chunk_len));
            for crc in lanes([u64::from(!0u32); CHUNK_LANES], ptrs, chunk_len) {
                emit(done, !(crc as u32));
                done += 1;
            }
        }
        done
    }
}

fn update_auto(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if hw_acceleration() {
            // SAFETY: feature presence just verified.
            return unsafe { hw::update(crc, data) };
        }
    }
    update_sw(crc, data)
}

// ------------------------------------------------------------ public API --

/// Computes the CRC32C of `data` (hardware path when available).
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continues a CRC32C from a previous finalized value (for chunked
/// computation); hardware path when available.
pub fn crc32c_append(state: u32, data: &[u8]) -> u32 {
    !update_auto(!state, data)
}

/// [`crc32c_append`] forced onto the portable slicing-by-16 path
/// (equivalence testing, non-x86 hosts).
pub fn crc32c_append_sw(state: u32, data: &[u8]) -> u32 {
    !update_sw(!state, data)
}

/// The per-chunk CRC table of `data`: calls `emit(i, crc32c(chunk_i))`
/// for every `chunk_len`-byte chunk in order, the last one possibly short
/// — the same values as `data.chunks(chunk_len).map(crc32c)`. On the
/// hardware path whole chunks are computed several at a time in lockstep.
///
/// # Panics
/// If `chunk_len` is zero.
pub fn crc32c_chunks(data: &[u8], chunk_len: usize, mut emit: impl FnMut(usize, u32)) {
    assert!(chunk_len > 0, "chunk length must be non-zero");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    {
        if hw_acceleration() {
            // SAFETY: feature presence just verified.
            done = unsafe { hw::chunk_lanes(data, chunk_len, &mut emit) };
        }
    }
    for (i, chunk) in data[done * chunk_len..].chunks(chunk_len).enumerate() {
        emit(done + i, crc32c(chunk));
    }
}

// --------------------------------------------------------------- combine --

/// Combines finalized CRCs: given `crc_a = crc32c(A)` and
/// `crc_b = crc32c(B)`, returns `crc32c(A ++ B)` where `len_b = B.len()`,
/// with one four-lookup shift per set bit of `len_b` — no payload bytes
/// are read. The zlib `crc32_combine` algorithm with its power-of-two
/// byte-shift operators byte-sliced into tables at compile time.
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    debug_assert!(len_b < 1 << SHIFT_LEVELS, "combine length >= 2^48 bytes");
    let mut v = crc_a;
    let mut len = len_b;
    while len != 0 {
        v = shift(&SHIFT[len.trailing_zeros() as usize], v);
        len &= len - 1;
    }
    v ^ crc_b
}

/// The CRC32C of `len` zero bytes, in O(popcount(len)) shifts (never
/// scans). Lengths are bounded by the shift tables: `len < 2^48`
/// (256 TiB — beyond any simulated range; asserted in debug builds).
pub fn crc32c_zeros(len: u64) -> u32 {
    debug_assert!(len < 1 << SHIFT_LEVELS, "zero-run length >= 2^48 bytes");
    let mut acc = 0u32; // CRC of the empty string
    let mut rest = len;
    while rest != 0 {
        let k = rest.trailing_zeros() as usize;
        acc = shift(&SHIFT[k], acc) ^ ZERO_CRCS[k];
        rest &= rest - 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors_both_paths() {
        // RFC 3720 / iSCSI test vectors.
        for f in [crc32c_append, crc32c_append_sw] {
            assert_eq!(f(0, b""), 0x0000_0000);
            assert_eq!(f(0, &[0u8; 32]), 0x8A91_36AA);
            assert_eq!(f(0, &[0xFFu8; 32]), 0x62A8_AB43);
            let ascending: Vec<u8> = (0..32).collect();
            assert_eq!(f(0, &ascending), 0x46DD_794E);
            assert_eq!(f(0, b"123456789"), 0xE306_9283);
        }
    }

    #[test]
    fn combine_matches_direct() {
        let a: Vec<u8> = (0..1500u32).map(|i| (i * 31 % 251) as u8).collect();
        let b: Vec<u8> = (0..777u32).map(|i| (i * 7 % 253) as u8).collect();
        let mut whole = a.clone();
        whole.extend_from_slice(&b);
        assert_eq!(
            crc32c_combine(crc32c(&a), crc32c(&b), b.len() as u64),
            crc32c(&whole)
        );
        // Degenerate lengths.
        assert_eq!(crc32c_combine(crc32c(&a), 0, 0), crc32c(&a));
        assert_eq!(crc32c_combine(0, crc32c(&b), b.len() as u64), crc32c(&b));
    }

    #[test]
    fn zeros_matches_direct() {
        for len in [0usize, 1, 7, 64, 4096, 4097, 100_000] {
            assert_eq!(
                crc32c_zeros(len as u64),
                crc32c(&vec![0u8; len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn chunked_append_equals_whole() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = crc32c(&data);
        let mut st = 0u32;
        for chunk in data.chunks(97) {
            st = crc32c_append(st, chunk);
        }
        assert_eq!(st, whole);
    }
}
