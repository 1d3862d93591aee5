//! VOS — the Versioned Object Store of one DAOS target.
//!
//! Each target owns a slice of one NVMe device plus an SCM (pmem) pool and
//! keeps a DRAM index of epoch-tagged records:
//!
//! * **single values** (DFS inode entries, superblocks) — whole-value
//!   updates, latest-wins at a given epoch;
//! * **array values** (DFS file chunks) — extent records resolved by
//!   overlaying newer epochs over older ones, with sparse gaps reading
//!   as zero (POSIX holes).
//!
//! Media selection follows DAOS policy: records at or below the SCM
//! threshold persist in pmem; larger records land on NVMe extents. Every
//! record carries a CRC32C computed at update and verified at fetch —
//! the end-to-end checksum path of §2.4. Verification *combines* the
//! media store's cached per-chunk CRCs against the recorded ones instead
//! of rescanning payload bytes.
//!
//! An array fetch resolves the overlay in the DRAM index *before* it
//! touches media, as the DAOS extent tree does: records are ordered by
//! epoch (newest first), each supplies only the bytes no newer record
//! covers, and only those visible fragments are read and verified —
//! shadowed bytes are never read from media. A fetch whose visible bytes
//! come from one record returns the store's zero-copy slice.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use ros2_buf::{zero_bytes, DataPlaneStats};
use ros2_hw::LBA_SIZE;
use ros2_sim::SimTime;
use ros2_spdk::ShardBdev;

use crate::checksum::{crc32c_chunks, crc32c_combine, crc32c_zeros, Checksum};
use crate::types::{AKey, DKey, DaosError, Epoch, ObjectId};

/// The object index key: one packed `(dkey, akey)` pair. Built from
/// borrowed keys without heap allocation — inline keys copy on the stack,
/// heap keys bump a refcount — so the lookup path never allocates (the
/// seed cloned two freshly heap-allocated `Bytes` per probe).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeyPair {
    /// Distribution key.
    pub dkey: DKey,
    /// Attribute key.
    pub akey: AKey,
}

impl KeyPair {
    /// Packs borrowed keys into an index key (allocation-free).
    pub fn from_refs(dkey: &DKey, akey: &AKey) -> Self {
        KeyPair {
            dkey: dkey.clone(),
            akey: akey.clone(),
        }
    }
}

/// Where a record's bytes live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Location {
    /// In the target's SCM pool.
    Scm(ros2_pmem::PmemOid),
    /// On the target's NVMe slice.
    Nvme {
        /// Starting LBA (absolute on the device).
        slba: u64,
        /// Blocks.
        nlb: u32,
    },
}

#[derive(Clone, Debug)]
struct SvRecord {
    epoch: Epoch,
    len: u64,
    location: Location,
    checksum: Checksum,
}

/// Checksum granularity for array extents (DAOS `cs_chunksize` analogue).
/// Per-chunk checksums let a 4 KiB read verify one chunk instead of
/// re-reading a whole 1 MiB extent — essential for the paper's small-I/O
/// numbers.
pub const CSUM_CHUNK: u64 = 4096;

#[derive(Clone, Debug)]
struct ExtentRecord {
    epoch: Epoch,
    offset: u64,
    len: u64,
    /// Stored (possibly LBA-padded) length on media.
    stored_len: u64,
    location: Location,
    /// One CRC32C per CSUM_CHUNK of the *stored* representation.
    /// `Arc`-shared so record clones on the fetch path are O(1), not a
    /// deep copy of the checksum table.
    checksums: Arc<[Checksum]>,
}

/// Per-chunk CRC32C table of a stored payload. Payloads that are slices of
/// the shared zero pool (hole materialization, zero-fill staging, the
/// throughput sweeps' synthetic writes) are known all-zero without reading
/// them: their chunk CRCs are closed-form zero-run CRCs, so nothing is
/// scanned and `crc_bytes_scanned` counts only real hashing work. Either
/// way the table is built straight into the record's `Arc`: the exact-size
/// iterators below allocate it once, with no scratch `Vec`.
fn chunk_checksums(stored: &Bytes, dp: &mut DataPlaneStats) -> Arc<[Checksum]> {
    let len = stored.len() as u64;
    let n = len.div_ceil(CSUM_CHUNK) as usize;
    if ros2_buf::is_shared_zeros(stored) {
        // Every chunk is full but the last, which may be short.
        let last_len = len - (n as u64).saturating_sub(1) * CSUM_CHUNK;
        let (full, last) = (crc32c_zeros(CSUM_CHUNK), crc32c_zeros(last_len));
        return (0..n)
            .map(|i| Checksum(if i + 1 < n { full } else { last }))
            .collect();
    }
    dp.crc_bytes_scanned += len;
    let mut table: Arc<[Checksum]> = std::iter::repeat_n(Checksum(0), n).collect();
    let slots = Arc::get_mut(&mut table).expect("a fresh table is unshared");
    crc32c_chunks(stored, CSUM_CHUNK as usize, |i, crc| {
        slots[i] = Checksum(crc)
    });
    table
}

/// CRC32C of stored chunks `[c0, c1)` by combining recorded per-chunk
/// checksums — no payload bytes touched. `None` if the record's table does
/// not cover the window (treated as a mismatch by callers).
fn combine_recorded(
    checksums: &[Checksum],
    c0: u64,
    c1: u64,
    stored_len: u64,
    dp: &mut DataPlaneStats,
) -> Option<u32> {
    let mut acc = 0u32;
    for i in c0..c1 {
        let cs = checksums.get(i as usize)?;
        let clen = CSUM_CHUNK.min(stored_len - i * CSUM_CHUNK);
        acc = crc32c_combine(acc, cs.0, clen);
        dp.crc_combines += 1;
    }
    Some(acc)
}

/// One piece of a fetch's visible view: the absolute array range
/// `[from, to)`, supplied by `Overlay::records[rec]`.
#[derive(Copy, Clone, Debug)]
struct Fragment {
    rec: usize,
    from: u64,
    to: u64,
}

/// The overlay resolver and its reused buffers. Every buffer is cleared
/// per fetch and keeps its capacity, so the steady-state fetch path
/// performs no heap allocation.
#[derive(Debug, Default)]
struct Overlay {
    /// Records visible at the fetch epoch that intersect the request, as
    /// `(epoch, insertion index)`, sorted newest first.
    order: Vec<(Epoch, usize)>,
    /// Still-uncovered sub-ranges of the request, ascending and disjoint;
    /// what is left after resolution reads as zero.
    gaps: Vec<(u64, u64)>,
    /// Double buffer for rewriting `gaps`.
    spare: Vec<(u64, u64)>,
    /// The records that supply at least one fragment. Clones are O(1):
    /// the checksum tables are Arc-shared.
    records: Vec<ExtentRecord>,
    /// The visible fragments, in resolution order.
    frags: Vec<Fragment>,
}

impl Overlay {
    /// Decides which record supplies each byte of `[offset, offset+len)`
    /// at `epoch`, without touching media. Records are walked newest
    /// `(epoch, insertion index)` first; each claims the still-uncovered
    /// parts it overlaps, and the walk stops once nothing is uncovered.
    fn resolve(&mut self, extents: &[ExtentRecord], epoch: Epoch, offset: u64, len: u64) {
        let end = offset + len;
        self.order.clear();
        self.gaps.clear();
        self.records.clear();
        self.frags.clear();
        if len == 0 {
            return;
        }
        self.gaps.push((offset, end));
        self.order.extend(
            extents
                .iter()
                .enumerate()
                .filter(|(_, e)| e.epoch <= epoch && e.offset < end && e.offset + e.len > offset)
                .map(|(i, e)| (e.epoch, i)),
        );
        // Keys are unique (the index breaks epoch ties), so an unstable
        // sort is deterministic.
        self.order.sort_unstable_by(|a, b| b.cmp(a));
        for &(_, i) in &self.order {
            let rec = &extents[i];
            let (lo, hi) = (rec.offset, rec.offset + rec.len);
            let slot = self.records.len();
            let claimed = self.frags.len();
            self.spare.clear();
            for &(g0, g1) in &self.gaps {
                let (from, to) = (g0.max(lo), g1.min(hi));
                if from >= to {
                    self.spare.push((g0, g1));
                    continue;
                }
                self.frags.push(Fragment {
                    rec: slot,
                    from,
                    to,
                });
                if g0 < from {
                    self.spare.push((g0, from));
                }
                if to < g1 {
                    self.spare.push((to, g1));
                }
            }
            if self.frags.len() > claimed {
                self.records.push(rec.clone());
                std::mem::swap(&mut self.gaps, &mut self.spare);
                if self.gaps.is_empty() {
                    break;
                }
            }
        }
    }
}

#[derive(Clone, Debug, Default)]
struct ValueStore {
    sv: Vec<SvRecord>,
    extents: Vec<ExtentRecord>,
}

/// One record read back by [`VosTarget::export_records`] for
/// re-replication: everything the destination's update path needs to
/// reconstruct the version history bit-for-bit.
#[derive(Clone, Debug)]
pub struct RecordDump {
    /// Distribution key.
    pub dkey: DKey,
    /// Attribute key.
    pub akey: AKey,
    /// The record's commit epoch (preserved, so replicas resolve the same
    /// version overlay).
    pub epoch: Epoch,
    /// `None` for a single value; `Some(offset)` for an array extent.
    pub array_offset: Option<u64>,
    /// The record's payload bytes.
    pub data: Bytes,
}

/// Outcome of one object's scrub pass on one target: every record's
/// media-side CRC cross-checked against its recorded checksums.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubCheck {
    /// Records cross-checked (single values + array extents).
    pub records: u64,
    /// Checksum chunks compared (combine-only on the clean path).
    pub chunks: u64,
    /// Stored bytes those chunks cover — the volume verified without
    /// being rescanned when the caches are warm.
    pub bytes: u64,
    /// Records whose media CRC disagreed with the recorded checksums —
    /// bit-rot on this replica.
    pub bad: u64,
}

impl ScrubCheck {
    /// Folds another check into this one.
    pub fn merge(&mut self, other: ScrubCheck) {
        self.records += other.records;
        self.chunks += other.chunks;
        self.bytes += other.bytes;
        self.bad += other.bad;
    }
}

/// Aggregate VOS statistics for one target.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VosStats {
    /// Single-value updates.
    pub sv_updates: u64,
    /// Array-extent updates.
    pub array_updates: u64,
    /// Fetches of either kind.
    pub fetches: u64,
    /// Records placed in SCM.
    pub scm_records: u64,
    /// Records placed on NVMe.
    pub nvme_records: u64,
    /// Checksum verification failures detected.
    pub checksum_failures: u64,
    /// Extents reclaimed by aggregation.
    pub aggregated_extents: u64,
}

impl VosStats {
    /// Folds another counter set into this one (exhaustive by
    /// destructuring, so a new field cannot be silently dropped).
    pub fn merge(&mut self, other: &VosStats) {
        let VosStats {
            sv_updates,
            array_updates,
            fetches,
            scm_records,
            nvme_records,
            checksum_failures,
            aggregated_extents,
        } = other;
        self.sv_updates += sv_updates;
        self.array_updates += array_updates;
        self.fetches += fetches;
        self.scm_records += scm_records;
        self.nvme_records += nvme_records;
        self.checksum_failures += checksum_failures;
        self.aggregated_extents += aggregated_extents;
    }
}

/// One target's versioned object store.
#[derive(Debug)]
pub struct VosTarget {
    /// Which bdev this target owns a slice of.
    pub dev: usize,
    scm: ros2_pmem::PmemPool,
    scm_threshold: u64,
    nvme_next: u64,
    nvme_limit: u64,
    free_extents: Vec<(u64, u32)>,
    objects: HashMap<ObjectId, BTreeMap<KeyPair, ValueStore>>,
    stats: VosStats,
    /// VOS-level data-plane counters (payload checksum scans, recorded-CRC
    /// combines, overlay stitch copies). Media-store counters live in the
    /// SCM pool and the bdev backing and are merged by
    /// [`Self::data_plane_stats`] / the engine.
    dp: DataPlaneStats,
    /// Reused overlay-resolver buffers of an array fetch.
    overlay: Overlay,
    /// The output of the last stitched fetch, recycled by the next stitch
    /// once its caller has dropped every other handle to it.
    stitch_buf: Option<Bytes>,
}

impl VosTarget {
    /// Creates a target over `[lba_base, lba_base+lba_span)` of device
    /// `dev`, with an SCM pool of `scm_bytes`.
    pub fn new(
        dev: usize,
        lba_base: u64,
        lba_span: u64,
        scm_bytes: u64,
        scm_threshold: u64,
    ) -> Self {
        VosTarget {
            dev,
            scm: ros2_pmem::PmemPool::new(scm_bytes, ros2_pmem::ScmModel::optane_class()),
            scm_threshold,
            nvme_next: lba_base,
            nvme_limit: lba_base + lba_span,
            free_extents: Vec::new(),
            objects: HashMap::new(),
            stats: VosStats::default(),
            dp: DataPlaneStats::default(),
            overlay: Overlay::default(),
            stitch_buf: None,
        }
    }

    /// Target statistics.
    pub fn stats(&self) -> &VosStats {
        &self.stats
    }

    /// Data-plane counters: this target's own (checksum scans/combines,
    /// stitch copies) merged with its SCM pool's store counters.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        let mut total = self.dp;
        total.merge(self.scm.data_plane_stats());
        total
    }

    /// The SCM pool (for utilization reports).
    pub fn scm(&self) -> &ros2_pmem::PmemPool {
        &self.scm
    }

    fn alloc_nvme(&mut self, nlb: u32) -> Result<u64, DaosError> {
        if let Some(pos) = self.free_extents.iter().position(|&(_, n)| n >= nlb) {
            let (slba, n) = self.free_extents.swap_remove(pos);
            if n > nlb {
                self.free_extents.push((slba + nlb as u64, n - nlb));
            }
            return Ok(slba);
        }
        if self.nvme_next + nlb as u64 > self.nvme_limit {
            return Err(DaosError::NvmeFull);
        }
        let slba = self.nvme_next;
        self.nvme_next += nlb as u64;
        Ok(slba)
    }

    /// Persists `data`, choosing media by size. Returns the location, the
    /// stored (possibly padded) bytes, and the media completion time.
    fn place(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        data: &Bytes,
    ) -> Result<(Location, Bytes, SimTime), DaosError> {
        if data.len() as u64 <= self.scm_threshold {
            let oid = self
                .scm
                .alloc(data.len().max(1) as u64)
                .map_err(|_| DaosError::ScmFull)?;
            self.scm
                .write_bytes(oid, 0, data)
                .map_err(|e| DaosError::Media(format!("{e:?}")))?;
            let done = self.scm.timed_write(now, data.len() as u64);
            self.stats.scm_records += 1;
            Ok((Location::Scm(oid), data.clone(), done))
        } else {
            let nlb = (data.len() as u64).div_ceil(LBA_SIZE) as u32;
            let slba = self.alloc_nvme(nlb)?;
            // Pad the tail block so the device write is LBA-aligned.
            let padded = if (data.len() as u64).is_multiple_of(LBA_SIZE) {
                data.clone()
            } else {
                let mut b = BytesMut::with_capacity((nlb as usize) * LBA_SIZE as usize);
                b.extend_from_slice(data);
                b.resize((nlb as usize) * LBA_SIZE as usize, 0);
                b.freeze()
            };
            let done = media
                .write(now, slba, padded.clone())
                .map_err(|e| DaosError::Media(format!("{e:?}")))?;
            self.stats.nvme_records += 1;
            Ok((Location::Nvme { slba, nlb }, padded, done.at))
        }
    }

    /// Hands update-time chunk CRCs down to the media store that just
    /// persisted the record, so the store's own chunk-CRC cache starts
    /// seeded and the first fetch-verify combines instead of rescanning.
    /// The record's chunk grid is extent-relative on both media, so the
    /// tables line up exactly.
    fn seed_media_crcs(&mut self, media: &mut ShardBdev<'_>, loc: &Location, crcs: &[Checksum]) {
        let it = crcs.iter().map(|c| c.0);
        match loc {
            Location::Scm(oid) => self.scm.seed_crcs(*oid, 0, it),
            Location::Nvme { slba, .. } => media.seed_crc_cache(slba * LBA_SIZE, it),
        }
    }

    /// The media-side CRC32C of a record's stored bytes `[at, at+len)` —
    /// answered from the backing stores' chunk-CRC caches, so repeat
    /// verifies never rescan clean payloads.
    fn media_crc(
        &mut self,
        media: &mut ShardBdev<'_>,
        loc: &Location,
        at: u64,
        len: u64,
    ) -> Result<u32, DaosError> {
        match loc {
            Location::Scm(oid) => self
                .scm
                .crc_of_range(*oid, at, len)
                .map_err(|e| DaosError::Media(format!("{e:?}"))),
            Location::Nvme { slba, .. } => Ok(media.crc_of_range(slba * LBA_SIZE + at, len)),
        }
    }

    /// Reads `[at, at+len)` of an extent's *stored* bytes, loading only the
    /// checksum chunks that cover the range. Verification compares the
    /// media store's (cached) window CRC against the combine of the
    /// recorded per-chunk checksums — clean data is never rescanned, and
    /// the returned bytes are a zero-copy slice of the store's extent.
    #[allow(clippy::too_many_arguments)]
    fn load_range(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        rec_location: &Location,
        rec_stored_len: u64,
        checksums: &[Checksum],
        at: u64,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        // Chunk-align the window.
        let c0 = at / CSUM_CHUNK;
        let c1 = (at + len).div_ceil(CSUM_CHUNK);
        let win_lo = c0 * CSUM_CHUNK;
        let win_hi = (c1 * CSUM_CHUNK).min(rec_stored_len);
        let (stored, done) = match rec_location {
            Location::Scm(oid) => {
                let data = self
                    .scm
                    .read(*oid, win_lo, (win_hi - win_lo) as usize)
                    .map_err(|e| DaosError::Media(format!("{e:?}")))?;
                (data, self.scm.timed_read(now, win_hi - win_lo))
            }
            Location::Nvme { slba, .. } => {
                // CSUM_CHUNK == LBA_SIZE, so chunk windows are LBA-aligned.
                let lba0 = slba + win_lo / LBA_SIZE;
                let nlb = ((win_hi - win_lo).div_ceil(LBA_SIZE)) as u32;
                let c = media
                    .read(now, lba0, nlb)
                    .map_err(|e| DaosError::Media(format!("{e:?}")))?;
                let data = c.data.expect("bdev read returns data");
                (data.slice(0..(win_hi - win_lo) as usize), c.at)
            }
        };
        // Verify the covered window: recorded chunk CRCs combined vs the
        // media store's cached CRC of the same range.
        let expected = combine_recorded(checksums, c0, c1, rec_stored_len, &mut self.dp);
        let actual = self.media_crc(media, rec_location, win_lo, win_hi - win_lo)?;
        if expected != Some(actual) {
            self.stats.checksum_failures += 1;
            return Err(DaosError::ChecksumMismatch);
        }
        let rel_lo = (at - win_lo) as usize;
        Ok((stored.slice(rel_lo..rel_lo + len as usize), done))
    }

    /// Reads a record's bytes back from its location (no verification —
    /// callers compare the media CRC against the recorded checksum).
    fn load(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        loc: &Location,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        match loc {
            Location::Scm(oid) => {
                let data = self
                    .scm
                    .read(*oid, 0, len as usize)
                    .map_err(|e| DaosError::Media(format!("{e:?}")))?;
                Ok((data, self.scm.timed_read(now, len)))
            }
            Location::Nvme { slba, nlb } => {
                let c = media
                    .read(now, *slba, *nlb)
                    .map_err(|e| DaosError::Media(format!("{e:?}")))?;
                let data = c.data.expect("bdev read returns data");
                Ok((data.slice(0..len as usize), c.at))
            }
        }
    }

    /// Updates a single value.
    #[allow(clippy::too_many_arguments)]
    pub fn update_single(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        oid: ObjectId,
        dkey: DKey,
        akey: AKey,
        epoch: Epoch,
        data: Bytes,
    ) -> Result<SimTime, DaosError> {
        let len = data.len() as u64;
        let checksum = if ros2_buf::is_shared_zeros(&data) {
            Checksum(crc32c_zeros(len))
        } else {
            self.dp.crc_bytes_scanned += len;
            Checksum::of(&data)
        };
        let (location, _stored, done) = self.place(now, media, &data)?;
        // A whole value at or below one chunk *is* its chunk-0 CRC — but
        // only for SCM placement, where the stored bytes are exactly the
        // payload. NVMe placement pads to the LBA (reachable when
        // `scm_threshold < CSUM_CHUNK`), so the whole-value CRC would not
        // describe the stored extent; those records keep the lazy cache.
        // (Larger single values would need a chunk table the metadata path
        // deliberately does not compute.)
        if len > 0 && len <= CSUM_CHUNK && matches!(location, Location::Scm(_)) {
            self.seed_media_crcs(media, &location, std::slice::from_ref(&checksum));
        }
        let store = self
            .objects
            .entry(oid)
            .or_default()
            .entry(KeyPair { dkey, akey })
            .or_default();
        store.sv.push(SvRecord {
            epoch,
            len,
            location,
            checksum,
        });
        self.stats.sv_updates += 1;
        Ok(done)
    }

    /// Fetches the latest single value at or below `epoch`.
    pub fn fetch_single(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        oid: ObjectId,
        dkey: &DKey,
        akey: &AKey,
        epoch: Epoch,
    ) -> Result<(Bytes, SimTime), DaosError> {
        self.stats.fetches += 1;
        let store = self
            .objects
            .get(&oid)
            .and_then(|o| o.get(&KeyPair::from_refs(dkey, akey)))
            .ok_or(DaosError::NotFound)?;
        let rec = store
            .sv
            .iter()
            .filter(|r| r.epoch <= epoch)
            .max_by_key(|r| r.epoch)
            .ok_or(DaosError::NotFound)?
            .clone();
        let (data, done) = self.load(now, media, &rec.location, rec.len)?;
        // Verify against the media store's cached CRC of the stored bytes
        // — no rescan of the returned payload.
        let actual = self.media_crc(media, &rec.location, 0, rec.len)?;
        if actual != rec.checksum.0 {
            self.stats.checksum_failures += 1;
            return Err(DaosError::ChecksumMismatch);
        }
        Ok((data, done))
    }

    /// Writes an array extent at `offset`.
    #[allow(clippy::too_many_arguments)]
    pub fn update_array(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        oid: ObjectId,
        dkey: DKey,
        akey: AKey,
        epoch: Epoch,
        offset: u64,
        data: Bytes,
    ) -> Result<SimTime, DaosError> {
        let len = data.len() as u64;
        let (location, stored, done) = self.place(now, media, &data)?;
        let checksums = chunk_checksums(&stored, &mut self.dp);
        // The chunk table just computed covers exactly the stored extent;
        // seed the media store's CRC cache so fetch-verify never rescans.
        if !checksums.is_empty() {
            self.seed_media_crcs(media, &location, &checksums);
        }
        let store = self
            .objects
            .entry(oid)
            .or_default()
            .entry(KeyPair { dkey, akey })
            .or_default();
        store.extents.push(ExtentRecord {
            epoch,
            offset,
            len,
            stored_len: stored.len() as u64,
            location,
            checksums,
        });
        self.stats.array_updates += 1;
        Ok(done)
    }

    /// Reads `[offset, offset+len)` of an array value at `epoch`, resolving
    /// extent overlays; unwritten gaps read as zero.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_array(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        oid: ObjectId,
        dkey: &DKey,
        akey: &AKey,
        epoch: Epoch,
        offset: u64,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        self.stats.fetches += 1;
        // Resolution runs first, on the index alone: the overlay is ordered
        // by epoch (ties by insertion order), and the fragments it yields
        // are the only bytes read from media.
        let mut overlay = std::mem::take(&mut self.overlay);
        let extents = self
            .objects
            .get(&oid)
            .and_then(|o| o.get(&KeyPair::from_refs(dkey, akey)))
            .map_or(&[][..], |store| &store.extents[..]);
        overlay.resolve(extents, epoch, offset, len);
        let result = self.fetch_array_visible(now, media, &overlay, offset, len);
        overlay.records.clear();
        self.overlay = overlay;
        result
    }

    /// Reads a resolved overlay's fragments from media, each with its
    /// chunk-window CRC verify. One fragment covering the request returns
    /// the store's zero-copy slice; a fragmented view stitches into a
    /// buffer whose uncovered gaps read as zero.
    fn fetch_array_visible(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        overlay: &Overlay,
        offset: u64,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        let mut load = |this: &mut Self, f: &Fragment| {
            let rec = &overlay.records[f.rec];
            this.load_range(
                now,
                media,
                &rec.location,
                rec.stored_len,
                &rec.checksums,
                f.from - rec.offset,
                f.to - f.from,
            )
        };
        let frags = match overlay.frags.as_slice() {
            [] => {
                // Never-written range: a hole (refcounted shared zeros).
                self.dp.bytes_zero_copy += len;
                return Ok((zero_bytes(len as usize), now));
            }
            [f] if f.to - f.from == len => return load(self, f),
            frags => frags,
        };
        let mut out = match self.stitch_buf.take().map(Bytes::try_into_mut) {
            Some(Ok(mut buf)) => {
                buf.resize(len as usize, 0);
                buf
            }
            _ => BytesMut::zeroed(len as usize),
        };
        let mut latest = now;
        for f in frags {
            let (data, done) = load(self, f)?;
            latest = latest.max(done);
            out[(f.from - offset) as usize..(f.to - offset) as usize].copy_from_slice(&data);
        }
        for &(g0, g1) in &overlay.gaps {
            out[(g0 - offset) as usize..(g1 - offset) as usize].fill(0);
        }
        self.dp.bytes_copied += len;
        let out = out.freeze();
        self.stitch_buf = Some(out.clone());
        Ok((out, latest))
    }

    /// Lists the dkeys of an object (directory enumeration path).
    pub fn list_dkeys(&self, oid: ObjectId) -> Vec<DKey> {
        let mut keys: Vec<DKey> = self
            .objects
            .get(&oid)
            .map(|o| o.keys().map(|k| k.dkey.clone()).collect())
            .unwrap_or_default();
        keys.dedup();
        keys
    }

    /// Removes a `(dkey, akey)` entry (punch), freeing NVMe extents.
    pub fn punch(&mut self, oid: ObjectId, dkey: &DKey, akey: &AKey) -> Result<(), DaosError> {
        let obj = self.objects.get_mut(&oid).ok_or(DaosError::NotFound)?;
        let store = obj
            .remove(&KeyPair::from_refs(dkey, akey))
            .ok_or(DaosError::NotFound)?;
        for rec in store.extents {
            if let Location::Nvme { slba, nlb } = rec.location {
                self.free_extents.push((slba, nlb));
            } else if let Location::Scm(oid) = rec.location {
                self.scm.free(oid);
            }
        }
        for rec in store.sv {
            if let Location::Nvme { slba, nlb } = rec.location {
                self.free_extents.push((slba, nlb));
            } else if let Location::Scm(oid) = rec.location {
                self.scm.free(oid);
            }
        }
        Ok(())
    }

    /// Removes an entire object.
    pub fn punch_object(&mut self, oid: ObjectId) {
        if let Some(obj) = self.objects.remove(&oid) {
            for (_, store) in obj {
                for rec in store.extents {
                    if let Location::Nvme { slba, nlb } = rec.location {
                        self.free_extents.push((slba, nlb));
                    } else if let Location::Scm(o) = rec.location {
                        self.scm.free(o);
                    }
                }
                for rec in store.sv {
                    if let Location::Nvme { slba, nlb } = rec.location {
                        self.free_extents.push((slba, nlb));
                    } else if let Location::Scm(o) = rec.location {
                        self.scm.free(o);
                    }
                }
            }
        }
    }

    /// Epoch aggregation: reclaims records superseded at or below
    /// `boundary`. Single values keep only the newest visible record;
    /// extents fully covered by one newer extent (≤ boundary) are dropped.
    pub fn aggregate(&mut self, boundary: Epoch) {
        let mut reclaimed_nvme: Vec<(u64, u32)> = Vec::new();
        let mut reclaimed_scm: Vec<ros2_pmem::PmemOid> = Vec::new();
        let mut count = 0u64;
        for obj in self.objects.values_mut() {
            for store in obj.values_mut() {
                // Single values: keep the newest <= boundary plus anything
                // newer than the boundary.
                if let Some(keep) = store
                    .sv
                    .iter()
                    .filter(|r| r.epoch <= boundary)
                    .map(|r| r.epoch)
                    .max()
                {
                    store.sv.retain(|r| {
                        let dead = r.epoch < keep;
                        if dead {
                            match &r.location {
                                Location::Nvme { slba, nlb } => reclaimed_nvme.push((*slba, *nlb)),
                                Location::Scm(o) => reclaimed_scm.push(*o),
                            }
                            count += 1;
                        }
                        !dead
                    });
                }
                // Extents: drop any fully shadowed by a single newer one.
                // Two passes over indices instead of cloning the record
                // list (the seed deep-copied every record, checksum tables
                // included, per store per aggregation).
                let dead: Vec<bool> = store
                    .extents
                    .iter()
                    .map(|r| {
                        r.epoch <= boundary
                            && store.extents.iter().any(|later| {
                                later.epoch <= boundary
                                    && later.epoch > r.epoch
                                    && later.offset <= r.offset
                                    && later.offset + later.len >= r.offset + r.len
                            })
                    })
                    .collect();
                let mut idx = 0usize;
                store.extents.retain(|r| {
                    let shadowed = dead[idx];
                    idx += 1;
                    if shadowed {
                        match &r.location {
                            Location::Nvme { slba, nlb } => reclaimed_nvme.push((*slba, *nlb)),
                            Location::Scm(o) => reclaimed_scm.push(*o),
                        }
                        count += 1;
                    }
                    !shadowed
                });
            }
        }
        self.free_extents.extend(reclaimed_nvme);
        for o in reclaimed_scm {
            self.scm.free(o);
        }
        self.stats.aggregated_extents += count;
    }

    /// The object ids this target holds records for (rebuild enumeration).
    pub fn list_objects(&self) -> Vec<ObjectId> {
        self.objects.keys().copied().collect()
    }

    /// Reads back every record of `oid` — single values and array extents,
    /// with their epochs — for re-replication. Media read time is charged
    /// (the rebuild source really streams its extents); checksums are
    /// *not* verified here — the importer recomputes them through the
    /// normal update path, and post-rebuild fetch-verify is the
    /// end-to-end check.
    pub fn export_records(
        &mut self,
        now: SimTime,
        media: &mut ShardBdev<'_>,
        oid: ObjectId,
    ) -> Result<(Vec<RecordDump>, SimTime), DaosError> {
        let Some(obj) = self.objects.get(&oid) else {
            return Ok((Vec::new(), now));
        };
        // Snapshot the index slice first (record clones are O(1): the
        // checksum tables are Arc-shared) so the media loads below can
        // borrow `self` mutably.
        let entries: Vec<(KeyPair, Vec<SvRecord>, Vec<ExtentRecord>)> = obj
            .iter()
            .map(|(k, v)| (k.clone(), v.sv.clone(), v.extents.clone()))
            .collect();
        let mut out = Vec::new();
        let mut t_done = now;
        for (kp, svs, exts) in entries {
            for r in svs {
                let (data, t) = self.load(now, media, &r.location, r.len)?;
                t_done = t_done.max(t);
                out.push(RecordDump {
                    dkey: kp.dkey.clone(),
                    akey: kp.akey.clone(),
                    epoch: r.epoch,
                    array_offset: None,
                    data,
                });
            }
            for r in exts {
                let (data, t) = self.load(now, media, &r.location, r.len)?;
                t_done = t_done.max(t);
                out.push(RecordDump {
                    dkey: kp.dkey.clone(),
                    akey: kp.akey.clone(),
                    epoch: r.epoch,
                    array_offset: Some(r.offset),
                    data,
                });
            }
        }
        Ok((out, t_done))
    }

    /// Scrub-verifies every record of `oid`: the media store's (cached)
    /// CRC over each record's full stored range against the combine of its
    /// recorded checksums. Bit-rot rewrites media bytes behind the index's
    /// back, invalidating the store's chunk-CRC cache for the touched
    /// chunks, so the comparison catches it — while a fully clean pass
    /// answers from caches and scans ~zero payload bytes.
    pub fn scrub_object(&mut self, media: &mut ShardBdev<'_>, oid: ObjectId) -> ScrubCheck {
        enum Expect {
            Whole(u32),
            Chunks(Arc<[Checksum]>),
        }
        let Some(obj) = self.objects.get(&oid) else {
            return ScrubCheck::default();
        };
        let recs: Vec<(Location, u64, Expect)> = obj
            .values()
            .flat_map(|s| {
                s.sv.iter()
                    .map(|r| (r.location.clone(), r.len, Expect::Whole(r.checksum.0)))
                    .chain(s.extents.iter().map(|r| {
                        (
                            r.location.clone(),
                            r.stored_len,
                            Expect::Chunks(r.checksums.clone()),
                        )
                    }))
            })
            .collect();
        let mut check = ScrubCheck::default();
        for (loc, len, expect) in recs {
            check.records += 1;
            check.bytes += len;
            let expected = match &expect {
                // Single values carry one whole-value CRC.
                Expect::Whole(c) => {
                    check.chunks += 1;
                    Some(*c)
                }
                Expect::Chunks(cs) => {
                    let n = len.div_ceil(CSUM_CHUNK);
                    check.chunks += n;
                    combine_recorded(cs, 0, n, len, &mut self.dp)
                }
            };
            let actual = self.media_crc(media, &loc, 0, len).ok();
            if expected.is_none() || expected != actual {
                check.bad += 1;
                self.stats.checksum_failures += 1;
            }
        }
        check
    }

    /// An order-insensitive fingerprint of `oid`'s logical record set:
    /// an FNV fold over the sorted `(dkey, akey, epoch, kind, len,
    /// recorded CRCs)` descriptors. Replicas holding the same version
    /// history — the state coordinated aggregation converges them to —
    /// fingerprint identically without touching any payload bytes;
    /// divergent record sets (a missed import, an unaggregated replica)
    /// do not.
    pub fn object_fingerprint(&self, oid: ObjectId) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        // (dkey, akey, epoch, extent offset or None for an SV, len,
        // folded recorded CRCs) — one row per record.
        type Desc<'a> = (&'a DKey, &'a AKey, Epoch, Option<u64>, u64, u64);
        let Some(obj) = self.objects.get(&oid) else {
            return OFFSET;
        };
        let mut descs: Vec<Desc<'_>> = Vec::new();
        for (kp, store) in obj {
            for r in &store.sv {
                descs.push((
                    &kp.dkey,
                    &kp.akey,
                    r.epoch,
                    None,
                    r.len,
                    r.checksum.0 as u64,
                ));
            }
            for r in &store.extents {
                let crc_fold = r
                    .checksums
                    .iter()
                    .fold(OFFSET, |h, c| (h ^ c.0 as u64).wrapping_mul(PRIME));
                descs.push((&kp.dkey, &kp.akey, r.epoch, Some(r.offset), r.len, crc_fold));
            }
        }
        descs.sort();
        let mut h = OFFSET;
        let fold_bytes = |h: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        for (dkey, akey, epoch, offset, len, crc) in descs {
            fold_bytes(&mut h, dkey.as_bytes());
            fold_bytes(&mut h, akey.as_bytes());
            fold_bytes(&mut h, &epoch.0.to_le_bytes());
            fold_bytes(&mut h, &offset.map_or(u64::MAX, |o| o).to_le_bytes());
            fold_bytes(&mut h, &[u8::from(offset.is_some())]);
            fold_bytes(&mut h, &len.to_le_bytes());
            fold_bytes(&mut h, &crc.to_le_bytes());
        }
        h
    }

    /// The `(dkey, akey)` owning this target's newest extent of `oid`, if
    /// any — the deterministic victim for scheduled bit-rot injection
    /// (max epoch; key order breaks ties).
    pub fn newest_extent_key(&self, oid: ObjectId) -> Option<(DKey, AKey, Epoch)> {
        let obj = self.objects.get(&oid)?;
        let mut best: Option<(DKey, AKey, Epoch)> = None;
        for (kp, store) in obj {
            if let Some(e) = store.extents.iter().map(|r| r.epoch).max() {
                if best.as_ref().is_none_or(|(_, _, b)| e > *b) {
                    best = Some((kp.dkey.clone(), kp.akey.clone(), e));
                }
            }
        }
        best
    }

    /// Test hook: corrupts the newest extent's stored bytes so the next
    /// fetch detects a checksum mismatch.
    pub fn corrupt_newest_extent(
        &mut self,
        media: &mut ShardBdev<'_>,
        oid: ObjectId,
        dkey: &DKey,
        akey: &AKey,
    ) -> bool {
        let Some(location) = self
            .objects
            .get(&oid)
            .and_then(|o| o.get(&KeyPair::from_refs(dkey, akey)))
            .and_then(|s| s.extents.last())
            .map(|rec| rec.location.clone())
        else {
            return false;
        };
        match location {
            Location::Nvme { slba, .. } => {
                let backing = media.device_mut().backing_mut();
                let mut byte = backing.read(slba * LBA_SIZE, 1).to_vec();
                byte[0] ^= 0xFF;
                backing.write(slba * LBA_SIZE, &byte);
                true
            }
            Location::Scm(o) => {
                let cur = self.scm.read(o, 0, 1).unwrap();
                self.scm.write(o, 0, &[cur[0] ^ 0xFF]).unwrap();
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ObjClass;
    use ros2_hw::NvmeModel;
    use ros2_nvme::{DataMode, NvmeArray};
    use ros2_spdk::BdevLayer;

    fn fixture() -> (VosTarget, BdevLayer) {
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            1,
            DataMode::Stored,
        ));
        let vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, 4096);
        (vos, bdevs)
    }

    fn oid() -> ObjectId {
        ObjectId::new(ObjClass::S1, 1)
    }

    #[test]
    fn single_value_round_trip_scm() {
        let (mut vos, mut bd) = fixture();
        let data = Bytes::from_static(b"inode-entry");
        vos.update_single(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            DKey::from_str("d"),
            AKey::from_str("a"),
            Epoch(1),
            data.clone(),
        )
        .unwrap();
        let (back, _) = vos
            .fetch_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                &DKey::from_str("d"),
                &AKey::from_str("a"),
                Epoch::LATEST,
            )
            .unwrap();
        assert_eq!(back, data);
        assert_eq!(vos.stats().scm_records, 1); // 11 B <= threshold
    }

    #[test]
    fn large_values_go_to_nvme() {
        let (mut vos, mut bd) = fixture();
        let data = Bytes::from(vec![7u8; 1 << 20]);
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            DKey::from_u64(0),
            AKey::from_str("data"),
            Epoch(1),
            0,
            data.clone(),
        )
        .unwrap();
        assert_eq!(vos.stats().nvme_records, 1);
        let (back, _) = vos
            .fetch_array(
                SimTime::from_secs(1),
                &mut bd.shard(0),
                oid(),
                &DKey::from_u64(0),
                &AKey::from_str("data"),
                Epoch::LATEST,
                0,
                1 << 20,
            )
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn epoch_versioning_reads_the_past() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_str("d");
        let a = AKey::from_str("a");
        vos.update_single(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(10),
            Bytes::from_static(b"v1"),
        )
        .unwrap();
        vos.update_single(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(20),
            Bytes::from_static(b"v2"),
        )
        .unwrap();
        let (at15, _) = vos
            .fetch_single(SimTime::ZERO, &mut bd.shard(0), oid(), &d, &a, Epoch(15))
            .unwrap();
        assert_eq!(&at15[..], b"v1");
        let (latest, _) = vos
            .fetch_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                &d,
                &a,
                Epoch::LATEST,
            )
            .unwrap();
        assert_eq!(&latest[..], b"v2");
        // Before the first write: NotFound.
        assert_eq!(
            vos.fetch_single(SimTime::ZERO, &mut bd.shard(0), oid(), &d, &a, Epoch(5))
                .unwrap_err(),
            DaosError::NotFound
        );
    }

    #[test]
    fn extent_overlay_resolves_latest() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(1),
            0,
            Bytes::from(vec![1u8; 100]),
        )
        .unwrap();
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(2),
            50,
            Bytes::from(vec![2u8; 100]),
        )
        .unwrap();
        let (out, _) = vos
            .fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                &d,
                &a,
                Epoch::LATEST,
                0,
                200,
            )
            .unwrap();
        assert!(out[..50].iter().all(|&b| b == 1));
        assert!(out[50..150].iter().all(|&b| b == 2));
        assert!(out[150..].iter().all(|&b| b == 0), "hole reads zero");
        // At epoch 1 the second write is invisible.
        let (old, _) = vos
            .fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                &d,
                &a,
                Epoch(1),
                0,
                200,
            )
            .unwrap();
        assert!(old[..100].iter().all(|&b| b == 1));
        assert!(old[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn overlay_resolves_by_epoch_not_insertion_order() {
        // Rebuild imports replay records at their original epochs, so an
        // older epoch can be inserted after a newer one.
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        for (epoch, fill) in [(5u64, 5u8), (3, 3)] {
            vos.update_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                d.clone(),
                a.clone(),
                Epoch(epoch),
                0,
                Bytes::from(vec![fill; 8192]),
            )
            .unwrap();
        }
        let mut fetch = |epoch: Epoch| {
            vos.fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                &d,
                &a,
                epoch,
                0,
                8192,
            )
            .unwrap()
            .0
        };
        assert!(fetch(Epoch::LATEST).iter().all(|&b| b == 5));
        assert!(fetch(Epoch(4)).iter().all(|&b| b == 3));
    }

    #[test]
    fn shadowed_versions_are_never_read_from_media() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        let update = |vos: &mut VosTarget, bd: &mut BdevLayer, epoch: u64, at: u64, len: usize| {
            vos.update_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                d.clone(),
                a.clone(),
                Epoch(epoch),
                at,
                Bytes::from(vec![epoch as u8; len]),
            )
            .unwrap();
        };
        // Three stacked full-range NVMe versions.
        for epoch in 1..=3 {
            update(&mut vos, &mut bd, epoch, 0, 64 << 10);
        }
        let fetch = |vos: &mut VosTarget, bd: &mut BdevLayer, at: u64, len: u64| {
            let read0 = bd.array().total_stats().bytes_read + vos.scm().bytes_read();
            let copied0 = vos.data_plane_stats().bytes_copied;
            let (out, _) = vos
                .fetch_array(
                    SimTime::ZERO,
                    &mut bd.shard(0),
                    oid(),
                    &d,
                    &a,
                    Epoch::LATEST,
                    at,
                    len,
                )
                .unwrap();
            let read = bd.array().total_stats().bytes_read + vos.scm().bytes_read() - read0;
            (out, read, vos.data_plane_stats().bytes_copied - copied0)
        };
        let (out, read, copied) = fetch(&mut vos, &mut bd, 0, 64 << 10);
        assert!(out.iter().all(|&b| b == 3));
        assert_eq!(read, 64 << 10, "only the newest version is read");
        assert_eq!(copied, 0, "one visible record stays zero-copy");
        // A partial SCM overwrite splits the newest version in two.
        update(&mut vos, &mut bd, 4, 8192, 4096);
        let (out, read, copied) = fetch(&mut vos, &mut bd, 0, 64 << 10);
        assert!(out[..8192].iter().all(|&b| b == 3));
        assert!(out[8192..12288].iter().all(|&b| b == 4));
        assert!(out[12288..].iter().all(|&b| b == 3));
        assert_eq!(read, 64 << 10, "each visible byte is read once");
        assert_eq!(copied, 64 << 10);
        // A range the overwrite supplies alone is zero-copy again.
        let (out, read, copied) = fetch(&mut vos, &mut bd, 8192, 4096);
        assert!(out.iter().all(|&b| b == 4));
        assert_eq!((read, copied), (4096, 0));
    }

    #[test]
    fn corruption_is_detected() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(1),
            0,
            Bytes::from(vec![9u8; 8192]),
        )
        .unwrap();
        assert!(vos.corrupt_newest_extent(&mut bd.shard(0), oid(), &d, &a));
        let err = vos
            .fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                &d,
                &a,
                Epoch::LATEST,
                0,
                8192,
            )
            .unwrap_err();
        assert_eq!(err, DaosError::ChecksumMismatch);
        assert_eq!(vos.stats().checksum_failures, 1);
    }

    #[test]
    fn punch_frees_extents_for_reuse() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(1),
            0,
            Bytes::from(vec![1u8; 64 << 10]),
        )
        .unwrap();
        let frontier_before = vos.nvme_next;
        vos.punch(oid(), &d, &a).unwrap();
        // A same-size rewrite reuses the freed extent.
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(2),
            0,
            Bytes::from(vec![2u8; 64 << 10]),
        )
        .unwrap();
        assert_eq!(vos.nvme_next, frontier_before, "extent was recycled");
    }

    #[test]
    fn aggregation_reclaims_shadowed_records() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        for e in 1..=5u64 {
            vos.update_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                d.clone(),
                a.clone(),
                Epoch(e),
                0,
                Bytes::from(vec![e as u8; 32 << 10]),
            )
            .unwrap();
        }
        vos.aggregate(Epoch(5));
        assert_eq!(vos.stats().aggregated_extents, 4);
        // Content unchanged after aggregation.
        let (out, _) = vos
            .fetch_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                &d,
                &a,
                Epoch::LATEST,
                0,
                32 << 10,
            )
            .unwrap();
        assert!(out.iter().all(|&b| b == 5));
    }

    #[test]
    fn nvme_exhaustion_reported() {
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            1,
            DataMode::Stored,
        ));
        let mut bd = bdevs;
        // A tiny 8-block slice.
        let mut vos = VosTarget::new(0, 0, 8, 64 << 20, 4096);
        let d = DKey::from_u64(0);
        let a = AKey::from_str("x");
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(1),
            0,
            Bytes::from(vec![0u8; 8 * 4096]),
        )
        .unwrap();
        let err = vos
            .update_array(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                d,
                a,
                Epoch(2),
                0,
                Bytes::from(vec![0u8; 8192]),
            )
            .unwrap_err();
        assert_eq!(err, DaosError::NvmeFull);
    }

    #[test]
    fn repeat_fetches_never_rescan_clean_payloads() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        let data = Bytes::from(vec![0x42u8; 256 << 10]);
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(1),
            0,
            data.clone(),
        )
        .unwrap();
        let fetch = |vos: &mut VosTarget, bd: &mut BdevLayer| {
            let (out, _) = vos
                .fetch_array(
                    SimTime::ZERO,
                    &mut bd.shard(0),
                    oid(),
                    &d,
                    &a,
                    Epoch::LATEST,
                    0,
                    256 << 10,
                )
                .unwrap();
            assert_eq!(out, data);
        };
        fetch(&mut vos, &mut bd);
        let after_first = {
            let mut s = vos.data_plane_stats();
            s.merge(bd.data_plane_stats());
            s
        };
        for _ in 0..4 {
            fetch(&mut vos, &mut bd);
        }
        let after_more = {
            let mut s = vos.data_plane_stats();
            s.merge(bd.data_plane_stats());
            s
        };
        assert_eq!(
            after_more.crc_bytes_scanned, after_first.crc_bytes_scanned,
            "verify must combine cached CRCs, not rescan"
        );
        assert!(after_more.crc_combines > after_first.crc_combines);
        assert_eq!(
            after_more.bytes_copied, after_first.bytes_copied,
            "single-record fetches must stay zero-copy"
        );
    }

    #[test]
    fn update_seeds_media_crc_caches() {
        // The very first fetch-verify must combine the CRCs handed down at
        // update time — zero additional payload bytes scanned, on both the
        // NVMe and the SCM tier.
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(1),
            0,
            Bytes::from(vec![0x42u8; 256 << 10]), // NVMe-bound
        )
        .unwrap();
        vos.update_single(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            DKey::from_str("meta"),
            AKey::from_str("v"),
            Epoch(1),
            Bytes::from_static(b"inode"), // SCM-bound
        )
        .unwrap();
        let merged = |vos: &VosTarget, bd: &BdevLayer| {
            let mut s = vos.data_plane_stats();
            s.merge(bd.data_plane_stats());
            s
        };
        let after_update = merged(&vos, &bd);
        assert!(
            after_update.crc_cache_seeded > 64,
            "update must seed media chunk CRCs (seeded {})",
            after_update.crc_cache_seeded
        );
        vos.fetch_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            &d,
            &a,
            Epoch::LATEST,
            0,
            256 << 10,
        )
        .unwrap();
        vos.fetch_single(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            &DKey::from_str("meta"),
            &AKey::from_str("v"),
            Epoch::LATEST,
        )
        .unwrap();
        let after_fetch = merged(&vos, &bd);
        assert_eq!(
            after_fetch.crc_bytes_scanned, after_update.crc_bytes_scanned,
            "first fetch-verify must run entirely off seeded CRC caches"
        );
        assert!(after_fetch.crc_combines > after_update.crc_combines);
    }

    #[test]
    fn nvme_bound_single_values_skip_seeding_and_still_verify() {
        // With scm_threshold below the checksum chunk, a small single value
        // lands on NVMe and gets LBA-padded: its whole-value CRC does not
        // describe the stored extent, so it must NOT seed the media cache
        // (a poisoned seed would panic debug builds and corrupt release
        // verifies) — and the fetch must still verify via the lazy cache.
        let bdevs = BdevLayer::new(NvmeArray::new(
            NvmeModel::enterprise_1600(),
            1,
            DataMode::Stored,
        ));
        let mut bd = bdevs;
        let mut vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, 1024);
        let d = DKey::from_str("k");
        let a = AKey::from_str("v");
        let data = Bytes::from(vec![0x3Cu8; 2000]); // > threshold, < chunk
        vos.update_single(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(1),
            data.clone(),
        )
        .unwrap();
        assert_eq!(vos.stats().nvme_records, 1);
        let seeded =
            vos.data_plane_stats().crc_cache_seeded + bd.data_plane_stats().crc_cache_seeded;
        assert_eq!(seeded, 0, "padded NVMe single values must not seed");
        let (back, _) = vos
            .fetch_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                &d,
                &a,
                Epoch::LATEST,
            )
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn whole_range_fetch_is_zero_copy() {
        let (mut vos, mut bd) = fixture();
        let d = DKey::from_u64(0);
        let a = AKey::from_str("data");
        vos.update_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            d.clone(),
            a.clone(),
            Epoch(1),
            0,
            Bytes::from(vec![7u8; 1 << 20]),
        )
        .unwrap();
        let copied_before =
            vos.data_plane_stats().bytes_copied + bd.data_plane_stats().bytes_copied;
        vos.fetch_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            &d,
            &a,
            Epoch::LATEST,
            0,
            1 << 20,
        )
        .unwrap();
        // Interior sub-range too: still one covering record.
        vos.fetch_array(
            SimTime::ZERO,
            &mut bd.shard(0),
            oid(),
            &d,
            &a,
            Epoch::LATEST,
            8192,
            64 << 10,
        )
        .unwrap();
        let copied_after = vos.data_plane_stats().bytes_copied + bd.data_plane_stats().bytes_copied;
        assert_eq!(copied_before, copied_after, "no memcpy on covered reads");
    }

    #[test]
    fn list_dkeys_enumerates() {
        let (mut vos, mut bd) = fixture();
        for i in 0..4u64 {
            vos.update_single(
                SimTime::ZERO,
                &mut bd.shard(0),
                oid(),
                DKey::from_u64(i),
                AKey::from_str("e"),
                Epoch(1),
                Bytes::from_static(b"x"),
            )
            .unwrap();
        }
        assert_eq!(vos.list_dkeys(oid()).len(), 4);
        assert!(vos.list_dkeys(ObjectId::new(ObjClass::S1, 99)).is_empty());
    }
}
