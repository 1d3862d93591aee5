//! Allocation regression for the metadata key path: constructing the keys
//! the hot path builds (u64 chunk dkeys, short string akeys), probing the
//! object index, and repeating a warm fetch must perform ZERO heap
//! allocations — measured for real with a counting global allocator, not
//! inferred from types. That covers array fetches over stacked versions
//! too: resolving the visible record, and stitching a fragmented view.
//! Warm 1 MiB NVMe array updates must stay within a fixed allocation
//! budget.
//!
//! All measurements run inside one `#[test]` (the counters are
//! process-global; concurrent tests in the same binary would pollute the
//! deltas).

use bytes::Bytes;
use ros2_buf::{allocation_count, CountingAlloc};
use ros2_daos::{
    AKey, DKey, DaosCostModel, DaosEngine, Epoch, KeyPair, ObjClass, ObjectId, ValueKind,
};
use ros2_hw::{CoreClass, NvmeModel};
use ros2_nvme::{DataMode, NvmeArray};
use ros2_sim::SimTime;
use ros2_spdk::BdevLayer;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = allocation_count();
    f();
    allocation_count() - before
}

#[test]
fn key_path_is_allocation_free() {
    // --- key construction: inline representation, no heap ----------------
    let n = allocs_in(|| {
        for i in 0..10_000u64 {
            let d = DKey::from_u64(i);
            let a = AKey::from_str("data");
            std::hint::black_box((&d, &a));
        }
        std::hint::black_box((DKey::from_str("."), AKey::from_str("superblock")));
    });
    assert_eq!(
        n, 0,
        "inline key construction must not allocate ({n} allocs)"
    );

    // --- index-key packing from borrowed keys ----------------------------
    let d = DKey::from_u64(7);
    let a = AKey::from_str("data");
    let n = allocs_in(|| {
        for _ in 0..10_000 {
            std::hint::black_box(KeyPair::from_refs(&d, &a));
        }
    });
    assert_eq!(n, 0, "KeyPair::from_refs must not allocate ({n} allocs)");

    // --- warm engine fetches: the whole metadata read path ---------------
    let bdevs = BdevLayer::new(NvmeArray::new(
        NvmeModel::enterprise_1600(),
        1,
        DataMode::Stored,
    ));
    let mut e = DaosEngine::new(
        "pool0",
        bdevs,
        64 << 20,
        DaosCostModel::default_model(),
        CoreClass::HostX86,
    );
    e.cont_create("c").unwrap();
    let oid = ObjectId::new(ObjClass::S1, 1);
    let epoch = e.next_epoch("c").unwrap();
    // One SCM-resident single value and one SCM array record.
    e.update(
        SimTime::ZERO,
        "c",
        oid,
        DKey::from_u64(0),
        AKey::from_str("v"),
        ValueKind::Single,
        epoch,
        Bytes::from(vec![0x5A; 512]),
    )
    .unwrap();
    e.update(
        SimTime::ZERO,
        "c",
        oid,
        DKey::from_u64(1),
        AKey::from_str("data"),
        ValueKind::Array { offset: 0 },
        epoch,
        Bytes::from(vec![0x6B; 4096]),
    )
    .unwrap();

    // A versioned key: two stacked full-range versions, then a partial
    // overwrite of the middle.
    let versioned = DKey::from_u64(2);
    for (at, fill, len) in [
        (0u64, 0x11u8, 4096usize),
        (0, 0x22, 4096),
        (1024, 0x33, 1024),
    ] {
        let epoch = e.next_epoch("c").unwrap();
        e.update(
            SimTime::ZERO,
            "c",
            oid,
            versioned.clone(),
            AKey::from_str("data"),
            ValueKind::Array { offset: at },
            epoch,
            Bytes::from(vec![fill; len]),
        )
        .unwrap();
    }
    // (offset, len): the tail only the second version supplies (resolves
    // to one record, zero-copy), and the whole range (stitches three
    // fragments from two records).
    let versioned_fetch = |e: &mut DaosEngine, at: u64, len: u64| {
        let (out, _) = e
            .fetch(
                SimTime::ZERO,
                "c",
                oid,
                &versioned,
                &AKey::from_str("data"),
                ValueKind::Array { offset: at },
                Epoch::LATEST,
                len,
            )
            .unwrap();
        out
    };
    let whole = versioned_fetch(&mut e, 0, 4096);
    assert!(whole[..1024].iter().all(|&b| b == 0x22));
    assert!(whole[1024..2048].iter().all(|&b| b == 0x33));
    assert!(whole[2048..].iter().all(|&b| b == 0x22));
    drop(whole);

    // Warm every path once (CRC caches are seeded at update; the first
    // fetch may still grow scratch buffers).
    for _ in 0..3 {
        std::hint::black_box(versioned_fetch(&mut e, 2048, 2048));
        std::hint::black_box(versioned_fetch(&mut e, 0, 4096));
        e.fetch(
            SimTime::ZERO,
            "c",
            oid,
            &DKey::from_u64(0),
            &AKey::from_str("v"),
            ValueKind::Single,
            Epoch::LATEST,
            512,
        )
        .unwrap();
        e.fetch(
            SimTime::ZERO,
            "c",
            oid,
            &DKey::from_u64(1),
            &AKey::from_str("data"),
            ValueKind::Array { offset: 0 },
            Epoch::LATEST,
            4096,
        )
        .unwrap();
    }

    // Steady state: key build + index probe + record load + CRC verify,
    // with zero allocations per op.
    let n = allocs_in(|| {
        for _ in 0..1_000 {
            let (sv, _) = e
                .fetch(
                    SimTime::ZERO,
                    "c",
                    oid,
                    &DKey::from_u64(0),
                    &AKey::from_str("v"),
                    ValueKind::Single,
                    Epoch::LATEST,
                    512,
                )
                .unwrap();
            std::hint::black_box(sv);
            let (arr, _) = e
                .fetch(
                    SimTime::ZERO,
                    "c",
                    oid,
                    &DKey::from_u64(1),
                    &AKey::from_str("data"),
                    ValueKind::Array { offset: 0 },
                    Epoch::LATEST,
                    4096,
                )
                .unwrap();
            std::hint::black_box(arr);
        }
    });
    assert_eq!(
        n, 0,
        "warm single-value + covered array fetches must be allocation-free \
         ({n} allocs over 2000 ops)"
    );

    // Steady state over stacked versions: the resolver's buffers are
    // reused, and a stitch recycles the previous stitch's output once its
    // caller has dropped it.
    let n = allocs_in(|| {
        for _ in 0..1_000 {
            std::hint::black_box(versioned_fetch(&mut e, 2048, 2048));
        }
    });
    assert_eq!(n, 0, "resolved versioned fetches allocated ({n} allocs)");
    let n = allocs_in(|| {
        for _ in 0..1_000 {
            std::hint::black_box(versioned_fetch(&mut e, 0, 4096));
        }
    });
    assert_eq!(n, 0, "stitched versioned fetches allocated ({n} allocs)");

    // --- warm 1 MiB NVMe array updates: a bounded allocation budget ------
    // An update records a new extent and its chunk-CRC table, so it cannot
    // be allocation-free; the budget keeps the chunk table from growing
    // scratch buffers (it is built straight into the record's `Arc`).
    let big = Bytes::from(vec![0x7C; 1 << 20]);
    let update_big = |e: &mut DaosEngine| {
        let epoch = e.next_epoch("c").unwrap();
        e.update(
            SimTime::ZERO,
            "c",
            oid,
            DKey::from_u64(3),
            AKey::from_str("data"),
            ValueKind::Array { offset: 0 },
            epoch,
            big.clone(),
        )
        .unwrap();
    };
    for _ in 0..4 {
        update_big(&mut e);
    }
    let n = allocs_in(|| {
        for _ in 0..16 {
            update_big(&mut e);
        }
    });
    // 45 is the count measured when the table was still collected from a
    // per-chunk map; it must not grow.
    const UPDATE_BUDGET: u64 = 45;
    assert!(
        n <= UPDATE_BUDGET,
        "16 warm 1 MiB NVMe array updates allocated {n} times (budget {UPDATE_BUDGET})"
    );
}
