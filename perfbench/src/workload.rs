//! The three workloads and the closed-loop generator that drives them
//! through the public `Dfs::read`/`Dfs::write` API, the way FIO's DFS
//! engine drives DAOS.

use std::time::Instant;

use bytes::Bytes;
use ros2_dfs::{Dfs, DfsError, DfsObj, DfsSession};
use ros2_dpu::DpuTenantSpec;
use ros2_fio::{Clients, DfsFioWorld, FioClient, IncastFioWorld, WorldSpec};
use ros2_hw::{ClientPlacement, Transport};
use ros2_sim::{EventQueue, SimDuration, SimRng, SimTime};
use ros2_verbs::NodeId;

use crate::layers::Counters;
use crate::trace::{SelfTimes, TracedClient, Tracer};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// Size of the pre-generated seeded payload pool every write and the fill
/// pass slice from.
const POOL_BYTES: u64 = 16 * MIB;

/// The fill pass writes each file in pieces of this size (the DFS chunk).
const FILL_PIECE: u64 = MIB;

/// Share of ops drawn as writes, in tenths.
const WRITE_TENTHS: u64 = 3;

/// The world a workload runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One host `DaosClient` over RDMA, one engine with 2 SSDs, serial
    /// client path.
    HostRdma,
    /// One offloaded `DpuClient` over RDMA, one engine with 2 SSDs, op
    /// ring on, read cache off.
    DpuRdma,
    /// One host client per job over TCP into 4 engines at RF 2 through a
    /// connection pool of capacity 32, op ring on.
    IncastTcp,
}

/// One benchmark workload: a world shape plus its closed-loop job mix.
pub struct Shape {
    pub name: &'static str,
    pub kind: Kind,
    /// Block size of every op.
    pub bs: u64,
    /// Ops each job keeps outstanding.
    pub qd: usize,
    /// Jobs in total (incast: one per client).
    pub jobs: usize,
    /// Bytes per job file.
    pub file: u64,
    /// Random offsets (else each job runs sequentially from its first
    /// block).
    pub random: bool,
    /// Ops issued per measured run.
    pub ops: u64,
    /// Kill engine 1 just before issuing this op (incast only).
    pub kill_at: Option<u64>,
}

pub const WORKLOADS: [Shape; 3] = [
    // The files are large enough that a run makes one pass: VOS keeps
    // every overwritten extent version and a fetch reads them all from
    // media, so a 64 MiB file, passed 15 times by 4 000 ops, raised read
    // amplification through the run and spread latencies 20-34 % across
    // seeds.
    Shape {
        name: "seq_1m_host_rdma",
        kind: Kind::HostRdma,
        bs: MIB,
        qd: 8,
        jobs: 4,
        file: 2048 * MIB,
        random: false,
        ops: 8_000,
        kill_at: None,
    },
    Shape {
        name: "rand_4k_dpu_qd32",
        kind: Kind::DpuRdma,
        bs: 4 * KIB,
        qd: 32,
        jobs: 2,
        file: 64 * MIB,
        random: true,
        ops: 100_000,
        kill_at: None,
    },
    Shape {
        name: "incast_tcp_kill",
        kind: Kind::IncastTcp,
        bs: 64 * KIB,
        qd: 2,
        jobs: 64,
        file: MIB,
        random: true,
        ops: 8_000,
        kill_at: Some(2_000),
    },
];

enum Sut {
    Single(Box<DfsFioWorld>),
    Incast(Box<IncastFioWorld>),
}

/// A built, filled world ready for one measured run.
pub struct World {
    sut: Sut,
    /// The benchmark's own handles on the preconditioned job files.
    files: Vec<DfsObj>,
    /// Seeded non-zero payload pool.
    pool: Bytes,
    /// Per job, per block: the pool offset of the bytes the block should
    /// hold, or `None` after a failed write left it unknown.
    shadow: Vec<Vec<Option<u64>>>,
}

/// Borrows of one world's parts for an op of global job `job`.
struct Parts<'a> {
    fabric: &'a mut ros2_fabric::Fabric,
    cluster: &'a mut ros2_daos::EngineCluster,
    client: &'a mut FioClient,
    dfs: &'a mut Dfs,
    /// Job index local to the client.
    local: usize,
    /// Connection-pool admission applies (incast).
    admit: Option<NodeId>,
}

impl Sut {
    fn parts(&mut self, job: usize) -> Parts<'_> {
        match self {
            Sut::Single(w) => Parts {
                fabric: &mut w.fabric,
                cluster: &mut w.cluster,
                client: &mut w.client,
                dfs: &mut w.dfs,
                local: job,
                admit: None,
            },
            Sut::Incast(w) => {
                let per = w.jobs_per_client();
                let c = job / per;
                Parts {
                    fabric: &mut w.fabric,
                    cluster: &mut w.cluster,
                    client: &mut w.clients[c],
                    dfs: &mut w.dfs,
                    local: job % per,
                    admit: Some(NodeId(c as u32)),
                }
            }
        }
    }

    fn counters(&mut self) -> Counters {
        match self {
            Sut::Single(w) => Counters::take(
                &w.fabric,
                &mut w.cluster,
                std::slice::from_ref(&w.client),
                &w.dfs,
            ),
            Sut::Incast(w) => Counters::take(&w.fabric, &mut w.cluster, &w.clients, &w.dfs),
        }
    }

    fn reset_timing(&mut self) {
        match self {
            Sut::Single(w) => w.reset_timing(),
            Sut::Incast(w) => {
                w.fabric.reset_timing();
                w.cluster.reset_timing();
                for c in &mut w.clients {
                    c.reset_timing();
                }
            }
        }
    }
}

/// Issues one DFS read (`data == None`) or write for global job `job` at
/// `now`. Returns the read payload, the completion instant and the
/// virtual time connection-pool admission added.
#[allow(clippy::too_many_arguments)]
fn dfs_op(
    sut: &mut Sut,
    file: &mut DfsObj,
    now: SimTime,
    job: usize,
    offset: u64,
    len: u64,
    data: Option<Bytes>,
    mut tracer: Option<&mut Tracer>,
) -> (Result<(Option<Bytes>, SimTime), DfsError>, SimDuration) {
    let p = sut.parts(job);
    let start = match p.admit {
        Some(node) => {
            if let Some(t) = tracer.as_deref_mut() {
                t.begin("pool.admit", now);
            }
            let at = p.cluster.pool_admit(node, now);
            if let Some(t) = tracer.as_deref_mut() {
                t.end(at);
            }
            at
        }
        None => now,
    };
    let name = if data.is_some() {
        "dfs.write"
    } else {
        "dfs.read"
    };
    let call = |s: &mut DfsSession<'_>, dfs: &mut Dfs| match data {
        Some(d) => dfs
            .write(s, start, p.local, file, offset, d)
            .map(|at| (None, at)),
        None => dfs
            .read(s, start, p.local, file, offset, len)
            .map(|(b, at)| (Some(b), at)),
    };
    let r = match tracer {
        None => call(
            &mut DfsSession {
                fabric: p.fabric,
                cluster: p.cluster,
                client: p.client.as_object(),
            },
            p.dfs,
        ),
        Some(t) => {
            t.begin(name, start);
            let r = call(
                &mut DfsSession {
                    fabric: p.fabric,
                    cluster: p.cluster,
                    client: &mut TracedClient {
                        inner: p.client.as_object(),
                        tracer: t,
                    },
                },
                p.dfs,
            );
            t.end(r.as_ref().map(|(_, at)| *at).unwrap_or(start));
            r
        }
    };
    (r, start.saturating_since(now))
}

impl World {
    /// Builds the world, preconditions it, and runs the seeded fill pass
    /// that writes every block once with non-zero data.
    pub fn setup(shape: &Shape, seed: u64) -> World {
        let sut = match shape.kind {
            Kind::HostRdma => Sut::Single(Box::new(
                WorldSpec::single(ClientPlacement::Host)
                    .ssds(2)
                    .jobs(shape.jobs)
                    .region(shape.file)
                    .build_dfs(),
            )),
            Kind::DpuRdma => {
                let mut w = WorldSpec::single(ClientPlacement::Dpu)
                    .offload(vec![DpuTenantSpec::unlimited("fio")])
                    .ssds(2)
                    .jobs(shape.jobs)
                    .region(shape.file)
                    .build_dfs();
                w.set_pipelined(true);
                Sut::Single(Box::new(w))
            }
            Kind::IncastTcp => {
                let mut w = WorldSpec::cluster(4)
                    .transport(Transport::Tcp)
                    .replication(2)
                    .jobs(1)
                    .clients(Clients::host(shape.jobs))
                    .pool_capacity(32)
                    .region(shape.file)
                    .build_incast();
                w.set_pipelined(true);
                Sut::Incast(Box::new(w))
            }
        };
        let files: Vec<DfsObj> = (0..shape.jobs)
            .map(|j| match &sut {
                Sut::Single(w) => w.file(j).clone(),
                Sut::Incast(w) => w.file(j).clone(),
            })
            .collect();

        let mut rng = SimRng::new(seed).fork(0x9001);
        let mut raw = vec![0u8; POOL_BYTES as usize];
        rng.fill_bytes(&mut raw);
        let pool = Bytes::from(raw);

        let blocks = (shape.file / shape.bs) as usize;
        let mut world = World {
            sut,
            files,
            pool,
            shadow: vec![vec![None; blocks]; shape.jobs],
        };
        let mut t = SimTime::ZERO;
        for job in 0..shape.jobs {
            for piece in 0..shape.file / FILL_PIECE {
                let src = rng.below((POOL_BYTES - FILL_PIECE) / 64) * 64;
                let data = world.pool.slice(src as usize..(src + FILL_PIECE) as usize);
                let off = piece * FILL_PIECE;
                let (r, _) = dfs_op(
                    &mut world.sut,
                    &mut world.files[job],
                    t,
                    job,
                    off,
                    FILL_PIECE,
                    Some(data),
                    None,
                );
                t = r.expect("fill write").1;
                for b in off / shape.bs..(off + FILL_PIECE) / shape.bs {
                    world.shadow[job][b as usize] = Some(src + b * shape.bs - off);
                }
            }
        }
        world.sut.reset_timing();
        world
    }

    /// Compares a read of block `block` of `job` with the shadow record.
    /// An unknown block (left by a failed write) is not checked.
    fn matches(&self, shape: &Shape, job: usize, block: u64, got: &[u8]) -> bool {
        match self.shadow[job][block as usize] {
            Some(src) => got == &self.pool[src as usize..(src + shape.bs) as usize],
            None => true,
        }
    }
}

/// The virtual-time outcome of one measured run. It is deterministic for
/// a seed, so repeated trials must reproduce it exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Virtual {
    /// Read latencies, submit to completion, sorted (ns).
    pub read_lat: Vec<u64>,
    /// Write latencies, sorted (ns).
    pub write_lat: Vec<u64>,
    /// Bytes of completed ops.
    pub bytes: u64,
    /// From the first submit to the last completion (ns).
    pub window_ns: u64,
    pub attempted: u64,
    pub reads: u64,
    pub writes: u64,
    pub failed: u64,
    /// Virtual time connection-pool admission added, summed (ns).
    pub admit_wait_ns: u64,
    /// Layer counter deltas over the measured run.
    pub layers: Counters,
}

/// One measured run.
pub struct Run {
    pub virt: Virtual,
    /// Host seconds of the measured loop, correctness checks excluded.
    pub host_s: f64,
    /// Reads that returned wrong bytes, in the run and the read-back.
    pub mismatches: u64,
    /// Span self times (traced runs only).
    pub self_times: Option<SelfTimes>,
}

struct Done {
    job: usize,
    submitted: SimTime,
    write: bool,
    bytes: u64,
    failed: bool,
}

/// Runs `shape`'s closed loop over `world`: every job keeps `qd` ops
/// outstanding until `shape.ops` ops have been issued, then drains.
pub fn run(shape: &Shape, world: &mut World, seed: u64, trace: Option<&std::path::Path>) -> Run {
    let root = SimRng::new(seed);
    let blocks = shape.file / shape.bs;
    let mut rngs: Vec<SimRng> = (0..shape.jobs).map(|j| root.fork(j as u64)).collect();
    let mut cursors = vec![0u64; shape.jobs];
    let mut tracer = trace.map(|_| Tracer::new(shape.ops as usize));
    let mut queue: EventQueue<Done> = EventQueue::new();
    let before = world.sut.counters();

    let (mut read_lat, mut write_lat) = (Vec::new(), Vec::new());
    let (mut issued, mut reads, mut writes, mut failed, mut bytes) = (0u64, 0, 0, 0, 0);
    let (mut admit_wait_ns, mut mismatches) = (0u64, 0u64);
    let mut end = SimTime::ZERO;
    let mut check_s = 0.0f64;

    let started = Instant::now();
    let elapsed_s = {
        let mut submit = |job: usize, now: SimTime, queue: &mut EventQueue<Done>| {
            if shape.kill_at == Some(issued) {
                if let Sut::Incast(w) = &mut world.sut {
                    w.kill_engine(now, 1).expect("engine 1 is up");
                }
            }
            if let Some(t) = tracer.as_mut() {
                t.begin_op(issued, now);
            }
            let rng = &mut rngs[job];
            let write = rng.below(10) < WRITE_TENTHS;
            let block = if shape.random {
                rng.below(blocks)
            } else {
                let b = cursors[job];
                cursors[job] = (b + 1) % blocks;
                b
            };
            let src = write.then(|| rng.below((POOL_BYTES - shape.bs) / 64) * 64);
            let data = src.map(|s| world.pool.slice(s as usize..(s + shape.bs) as usize));
            let (r, admit) = dfs_op(
                &mut world.sut,
                &mut world.files[job],
                now,
                job,
                block * shape.bs,
                shape.bs,
                data,
                tracer.as_mut(),
            );
            admit_wait_ns += admit.as_nanos();
            let at = r.as_ref().map(|(_, at)| *at);
            if let Some(t) = tracer.as_mut() {
                t.end(*at.as_ref().unwrap_or(&now));
            }
            issued += 1;
            match r {
                Ok((payload, at)) => {
                    if write {
                        world.shadow[job][block as usize] = src;
                    } else {
                        let checked = Instant::now();
                        let got = payload.expect("reads return bytes");
                        if !world.matches(shape, job, block, &got) {
                            mismatches += 1;
                        }
                        check_s += checked.elapsed().as_secs_f64();
                    }
                    queue.push(
                        at,
                        Done {
                            job,
                            submitted: now,
                            write,
                            bytes: shape.bs,
                            failed: false,
                        },
                    );
                }
                Err(_) => {
                    if write {
                        world.shadow[job][block as usize] = None;
                    }
                    queue.push(
                        now + SimDuration::from_micros(10),
                        Done {
                            job,
                            submitted: now,
                            write,
                            bytes: 0,
                            failed: true,
                        },
                    );
                }
            }
        };

        for job in 0..shape.jobs {
            for _ in 0..shape.qd {
                submit(job, SimTime::ZERO, &mut queue);
            }
        }
        let mut done_ops = (shape.jobs * shape.qd) as u64;
        while let Some((now, d)) = queue.pop() {
            end = end.max(now);
            if d.write {
                writes += 1;
            } else {
                reads += 1;
            }
            if d.failed {
                failed += 1;
            } else {
                bytes += d.bytes;
                let lat = now.saturating_since(d.submitted).as_nanos();
                if d.write {
                    write_lat.push(lat);
                } else {
                    read_lat.push(lat);
                }
            }
            if done_ops < shape.ops {
                submit(d.job, now, &mut queue);
                done_ops += 1;
            }
        }
        started.elapsed().as_secs_f64()
    };
    let host_s = elapsed_s - check_s;

    let layers = world.sut.counters().since(&before);

    // After the kill, read every block back: each acknowledged write
    // must have survived it.
    if shape.kill_at.is_some() {
        let mut t = end;
        for job in 0..shape.jobs {
            for block in 0..blocks {
                let (r, _) = dfs_op(
                    &mut world.sut,
                    &mut world.files[job],
                    t,
                    job,
                    block * shape.bs,
                    shape.bs,
                    None,
                    None,
                );
                match r {
                    Ok((Some(got), at)) if world.matches(shape, job, block, &got) => t = at,
                    _ => mismatches += 1,
                }
            }
        }
    }

    let self_times = tracer.map(|t| {
        if let Some(path) = trace {
            t.write_jsonl(path).expect("trace file is writable");
        }
        t.self_times()
    });
    read_lat.sort_unstable();
    write_lat.sort_unstable();
    Run {
        virt: Virtual {
            read_lat,
            write_lat,
            bytes,
            window_ns: end.as_nanos(),
            attempted: issued,
            reads,
            writes,
            failed,
            admit_wait_ns,
            layers,
        },
        host_s,
        mismatches,
        self_times,
    }
}

/// Checks that counts agree across layers, to catch a broken measurement.
pub fn conservation(shape: &Shape, v: &Virtual) -> Vec<String> {
    let l = &v.layers;
    let mut checks: Vec<(&str, u64, &str, u64)> = Vec::new();
    match shape.kind {
        Kind::IncastTcp => checks.push(("pool.admits", l.get("pool.admits"), "ops", v.attempted)),
        Kind::HostRdma | Kind::DpuRdma => {
            if shape.kind == Kind::DpuRdma {
                checks.push((
                    "dpu.ops_offloaded",
                    l.get("dpu.ops_offloaded"),
                    "ops",
                    v.attempted,
                ));
            }
            checks.push((
                "vos.array_updates",
                l.get("vos.array_updates"),
                "writes",
                v.writes,
            ));
            checks.push(("vos.fetches", l.get("vos.fetches"), "reads", v.reads));
        }
    }
    checks
        .into_iter()
        .filter(|(_, got, _, want)| got != want)
        .map(|(name, got, what, want)| format!("{name} = {got}, but {want} {what} were issued"))
        .collect()
}
