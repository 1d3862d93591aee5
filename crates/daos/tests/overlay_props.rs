//! Array-overlay properties: random tapes of `update_array` calls —
//! byte-granular offsets, SCM- and NVMe-sized payloads, epochs that repeat
//! and arrive out of order — interleaved with fetches at random epochs and
//! ranges. Three invariants must hold on every fetch:
//!
//! 1. **Bytes** equal a flat oracle that overlays the records visible at
//!    the fetch epoch in `(epoch, insertion)` order, holes reading zero.
//! 2. **Media reads** (NVMe plus SCM bytes) are no more than the visible
//!    fragments rounded out to `CSUM_CHUNK` windows: shadowed bytes are
//!    never read.
//! 3. **Zero copy**: a request that one visible record covers adds
//!    nothing to `bytes_copied`.

use bytes::Bytes;
use proptest::prelude::*;
use ros2_daos::vos::CSUM_CHUNK;
use ros2_daos::{AKey, DKey, Epoch, ObjClass, ObjectId, VosTarget};
use ros2_hw::{NvmeModel, LBA_SIZE};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::{SimDuration, SimTime};
use ros2_spdk::BdevLayer;

/// Records at or below this many bytes land in SCM.
const SCM_THRESHOLD: u64 = 4096;
/// The array range the tapes write and read.
const SPAN: u64 = 64 << 10;

/// One written record, as the oracle sees it.
struct Rec {
    epoch: u64,
    offset: u64,
    data: Vec<u8>,
}

impl Rec {
    fn end(&self) -> u64 {
        self.offset + self.data.len() as u64
    }

    /// Bytes the record occupies on media: SCM stores the payload as is,
    /// NVMe pads it to whole blocks.
    fn stored_len(&self) -> u64 {
        let len = self.data.len() as u64;
        if len <= SCM_THRESHOLD {
            len
        } else {
            len.div_ceil(LBA_SIZE) * LBA_SIZE
        }
    }

    /// The checksum-chunk window a read of record bytes `[at, at+len)`
    /// loads and verifies.
    fn window(&self, at: u64, len: u64) -> u64 {
        let lo = at / CSUM_CHUNK * CSUM_CHUNK;
        let hi = ((at + len).div_ceil(CSUM_CHUNK) * CSUM_CHUNK).min(self.stored_len());
        hi - lo
    }
}

/// The oracle's view of one fetch: the expected bytes and the visible
/// fragments as `(record index, from, to)` runs.
fn oracle(recs: &[Rec], epoch: Epoch, offset: u64, len: u64) -> (Vec<u8>, Vec<(usize, u64, u64)>) {
    let mut out = vec![0u8; len as usize];
    let mut frags: Vec<(usize, u64, u64)> = Vec::new();
    for pos in offset..offset + len {
        let owner = recs
            .iter()
            .enumerate()
            .filter(|(_, r)| Epoch(r.epoch) <= epoch && r.offset <= pos && pos < r.end())
            .max_by_key(|(i, r)| (r.epoch, *i))
            .map(|(i, _)| i);
        let Some(i) = owner else { continue };
        out[(pos - offset) as usize] = recs[i].data[(pos - recs[i].offset) as usize];
        match frags.last_mut() {
            Some((r, _, to)) if *r == i && *to == pos => *to = pos + 1,
            _ => frags.push((i, pos, pos + 1)),
        }
    }
    (out, frags)
}

/// One tape step, drawn raw and decoded in [`run`]:
/// `(kind, offset, length, epoch, length class)`.
type Step = (u8, u64, u64, u64, u8);

fn tape() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..10, 0..SPAN, 1u64..(32 << 10), 0u64..10, 0u8..3),
        1..48,
    )
}

fn run(steps: &[Step]) -> Result<(), String> {
    let mut bd = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        1,
        DataMode::Stored,
    ));
    let mut vos = VosTarget::new(0, 0, 1 << 20, 64 << 20, SCM_THRESHOLD);
    let oid = ObjectId::new(ObjClass::S1, 1);
    let (dkey, akey) = (DKey::from_u64(0), AKey::from_str("data"));
    let mut recs: Vec<Rec> = Vec::new();
    let mut now = SimTime::ZERO;
    for &(kind, offset, raw_len, raw_epoch, class) in steps {
        // Spaced out so no device queue ever fills.
        now += SimDuration::from_millis(10);
        if kind < 4 {
            // Update: class 0 is SCM-sized, the others NVMe-sized.
            let len = if class == 0 {
                1 + raw_len % SCM_THRESHOLD
            } else {
                SCM_THRESHOLD + 1 + raw_len % (32 << 10)
            };
            let epoch = 1 + raw_epoch % 8;
            let seed = recs.len() as u64 + 1;
            let data: Vec<u8> = (0..len)
                .map(|i| (seed.wrapping_mul(131) ^ i.wrapping_mul(7)) as u8 | 1)
                .collect();
            vos.update_array(
                now,
                &mut bd.shard(0),
                oid,
                dkey.clone(),
                akey.clone(),
                Epoch(epoch),
                offset,
                Bytes::from(data.clone()),
            )
            .map_err(|e| format!("update failed: {e:?}"))?;
            recs.push(Rec {
                epoch,
                offset,
                data,
            });
            continue;
        }
        // Fetch: epochs 0..=8 plus LATEST, ranges reaching past the tape.
        let epoch = if raw_epoch == 9 {
            Epoch::LATEST
        } else {
            Epoch(raw_epoch)
        };
        let len = 1 + raw_len % (40 << 10);
        let (expected, frags) = oracle(&recs, epoch, offset, len);
        let read0 = bd.array().total_stats().bytes_read + vos.scm().bytes_read();
        let copied0 = vos.data_plane_stats().bytes_copied + bd.data_plane_stats().bytes_copied;
        let (out, _) = vos
            .fetch_array(now, &mut bd.shard(0), oid, &dkey, &akey, epoch, offset, len)
            .map_err(|e| format!("fetch failed: {e:?}"))?;
        let read = bd.array().total_stats().bytes_read + vos.scm().bytes_read() - read0;
        let copied =
            vos.data_plane_stats().bytes_copied + bd.data_plane_stats().bytes_copied - copied0;
        prop_assert!(
            out == expected,
            "fetch [{offset}, +{len}) at {epoch:?} diverged from the oracle"
        );
        let bound: u64 = frags
            .iter()
            .map(|&(i, from, to)| recs[i].window(from - recs[i].offset, to - from))
            .sum();
        prop_assert!(
            read <= bound,
            "fetch [{offset}, +{len}) at {epoch:?} read {read} media bytes, \
             its visible fragments need {bound}"
        );
        if let [(_, from, to)] = frags[..] {
            if to - from == len {
                prop_assert_eq!(copied, 0, "covered fetch [{offset}, +{len}) copied");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fetches_read_only_visible_bytes(steps in tape()) {
        run(&steps)?;
    }
}
