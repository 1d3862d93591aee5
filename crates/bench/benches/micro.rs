//! Criterion microbenchmarks for the hot data structures and code paths of
//! the ROS2 stack itself (the simulator must be fast enough to sweep the
//! paper's parameter space; these benches keep it honest).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ros2_buf::{crc32c_chunks, crc32c_combine};
use ros2_daos::crc32c;
use ros2_sim::{EventQueue, LatencyHistogram, ServerPool, SimDuration, SimRng, SimTime, Zipf};
use ros2_verbs::{AccessFlags, Expiry, MemoryDomain, NodeId, QpType, RdmaDevice};

fn bench_crc32c(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32c");
    for size in [4096usize, 1 << 20] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| {
            b.iter(|| crc32c(std::hint::black_box(&data)))
        });
    }
    // VOS's per-chunk table of a 1 MiB update, four 4 KiB chunks in
    // lockstep.
    let data = vec![0xABu8; 1 << 20];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("chunk_table_1MiB_4KiB", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            crc32c_chunks(std::hint::black_box(&data), 4096, |_, crc| acc ^= crc);
            acc
        })
    });
    g.finish();
    // One 4 KiB chunk appended by combine, as fetch-verify does per chunk.
    c.bench_function("crc32c_combine/4096", |b| {
        let mut crc = 0x1234_5678u32;
        b.iter(|| {
            crc = crc32c_combine(std::hint::black_box(crc), 0x9ABC_DEF0, 4096);
            crc
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_10k", |b| {
        let mut rng = SimRng::new(7);
        b.iter_batched(
            || {
                (0..10_000u64)
                    .map(|_| SimTime::from_nanos(rng.below(1_000_000)))
                    .collect::<Vec<_>>()
            },
            |times| {
                let mut q = EventQueue::new();
                for (i, t) in times.into_iter().enumerate() {
                    q.push(t, i);
                }
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                n
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_server_pool(c: &mut Criterion) {
    c.bench_function("server_pool/gap_schedule_10k", |b| {
        b.iter(|| {
            let mut pool = ServerPool::new(8);
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                let g = pool.submit(t, SimDuration::from_nanos(700));
                t = t.max(g.start);
            }
            pool.jobs_served()
        })
    });
}

fn bench_rkey_enforcement(c: &mut Criterion) {
    c.bench_function("verbs/remote_read_check_and_copy_4k", |b| {
        let mut dev = RdmaDevice::new(NodeId(0), 1 << 24, SimRng::new(3));
        let pd = dev.alloc_pd("t");
        let buf = dev.alloc_buffer(1 << 20, MemoryDomain::HostDram).unwrap();
        let (_, rkey, _) = dev
            .reg_mr(pd, buf, 1 << 20, AccessFlags::remote_rw(), Expiry::Never)
            .unwrap();
        let qp = dev.create_qp(pd, QpType::Rc).unwrap();
        dev.connect_qp(qp, NodeId(1), ros2_verbs::QpId(1)).unwrap();
        dev.execute_remote_write(SimTime::ZERO, qp, rkey, buf, &Bytes::from(vec![1u8; 4096]))
            .unwrap();
        b.iter(|| {
            dev.execute_remote_read(SimTime::ZERO, qp, rkey, buf, 4096)
                .unwrap()
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record_1k_and_p99", |b| {
        let mut rng = SimRng::new(11);
        b.iter(|| {
            let mut h = LatencyHistogram::new();
            for _ in 0..1000 {
                h.record(SimDuration::from_nanos(rng.below(10_000_000)));
            }
            h.percentile(0.99)
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    c.bench_function("zipf/sample", |b| {
        let z = Zipf::new(1_000_000, 0.9);
        let mut rng = SimRng::new(13);
        b.iter(|| z.sample(&mut rng))
    });
}

criterion_group!(
    benches,
    bench_crc32c,
    bench_event_queue,
    bench_server_pool,
    bench_rkey_enforcement,
    bench_histogram,
    bench_zipf
);
criterion_main!(benches);
