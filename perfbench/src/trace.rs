//! In-memory span recording for the traced run.
//!
//! Spans are recorded only at boundaries the benchmark's own code can
//! reach: the root `op` span around each generated op, `pool.admit`, the
//! `dfs.read`/`dfs.write` calls, and the object-client calls DFS makes,
//! seen through the [`TracedClient`] decorator passed as
//! `DfsSession::client`. Each span carries host and virtual start and end
//! instants; spans are written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

use bytes::Bytes;
use ros2_daos::{
    AKey, ClientOp, ClientOpResult, DKey, DaosError, EngineCluster, Epoch, ObjectClient, ObjectId,
    ValueKind,
};
use ros2_fabric::Fabric;
use ros2_sim::SimTime;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    op: u64,
    parent: u32,
    host_start_ns: u64,
    host_end_ns: u64,
    virt_start_ns: u64,
    virt_end_ns: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

/// Host self time per span family, summed over a run.
#[derive(Default)]
pub struct SelfTimes {
    /// Generator time inside `op` spans outside every child span.
    pub bench_ns: u64,
    /// Root `op` spans recorded.
    pub ops: u64,
    /// `pool.admit` time.
    pub pool_ns: u64,
    /// `pool.admit` spans recorded.
    pub pool_spans: u64,
    /// `dfs.*` time outside its `client.*` children.
    pub dfs_ns: u64,
    /// `dfs.*` spans recorded.
    pub dfs_spans: u64,
    /// `client.*` time: everything below the object-client boundary.
    pub client_ns: u64,
    /// `client.*` spans recorded.
    pub client_spans: u64,
}

impl Tracer {
    pub fn new(expected_ops: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(expected_ops * 3),
            open: Vec::new(),
            op: 0,
        }
    }

    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the root span of op `op`.
    pub fn begin_op(&mut self, op: u64, virt_start: SimTime) {
        debug_assert!(self.open.is_empty(), "op spans do not nest");
        self.op = op;
        self.begin("op", virt_start);
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, virt_start: SimTime) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let now = self.host_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            host_start_ns: now,
            host_end_ns: now,
            virt_start_ns: virt_start.as_nanos(),
            virt_end_ns: virt_start.as_nanos(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span at virtual instant `virt_end`.
    pub fn end(&mut self, virt_end: SimTime) {
        let now = self.host_ns();
        let id = self.open.pop().expect("end matches a begin") as usize;
        let span = &mut self.spans[id];
        span.host_end_ns = now;
        span.virt_end_ns = virt_end.as_nanos().max(span.virt_start_ns);
    }

    /// Self time per span family: a span's duration minus the part its
    /// children cover (children never overlap, the stack is serial).
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.host_end_ns - s.host_start_ns;
            }
        }
        let mut out = SelfTimes::default();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.host_end_ns - s.host_start_ns).saturating_sub(child);
            let (ns, n) = match s.name {
                "op" => (&mut out.bench_ns, &mut out.ops),
                "pool.admit" => (&mut out.pool_ns, &mut out.pool_spans),
                "dfs.read" | "dfs.write" => (&mut out.dfs_ns, &mut out.dfs_spans),
                _ => (&mut out.client_ns, &mut out.client_spans),
            };
            *ns += own;
            *n += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"host_start_ns\":{},\"host_end_ns\":{},\"virt_start_ns\":{},\"virt_end_ns\":{}}}",
                s.name, s.op, s.host_start_ns, s.host_end_ns, s.virt_start_ns, s.virt_end_ns
            )?;
        }
        w.flush()
    }
}

/// An [`ObjectClient`] that records a `client.*` span around every call
/// DFS makes into the wrapped client.
pub struct TracedClient<'a> {
    pub inner: &'a mut dyn ObjectClient,
    pub tracer: &'a mut Tracer,
}

fn latest(results: &[ClientOpResult], now: SimTime) -> SimTime {
    results
        .iter()
        .filter_map(|r| match r {
            ClientOpResult::Update(Ok(at)) | ClientOpResult::Fetch(Ok((_, at))) => Some(*at),
            _ => None,
        })
        .fold(now, SimTime::max)
}

impl ObjectClient for TracedClient<'_> {
    fn update(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        oid: ObjectId,
        dkey: DKey,
        akey: AKey,
        kind: ValueKind,
        data: Bytes,
    ) -> Result<SimTime, DaosError> {
        self.tracer.begin("client.update", now);
        let r = self
            .inner
            .update(fabric, cluster, now, job, oid, dkey, akey, kind, data);
        self.tracer.end(*r.as_ref().unwrap_or(&now));
        r
    }

    fn fetch(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        oid: ObjectId,
        dkey: DKey,
        akey: AKey,
        kind: ValueKind,
        epoch: Epoch,
        len: u64,
    ) -> Result<(Bytes, SimTime), DaosError> {
        self.tracer.begin("client.fetch", now);
        let r = self
            .inner
            .fetch(fabric, cluster, now, job, oid, dkey, akey, kind, epoch, len);
        self.tracer
            .end(r.as_ref().map(|(_, at)| *at).unwrap_or(now));
        r
    }

    fn execute_batch(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: Vec<ClientOp>,
    ) -> Vec<ClientOpResult> {
        self.tracer.begin("client.execute_batch", now);
        let r = self.inner.execute_batch(fabric, cluster, now, job, ops);
        self.tracer.end(latest(&r, now));
        r
    }

    fn execute_pipelined(
        &mut self,
        fabric: &mut Fabric,
        cluster: &mut EngineCluster,
        now: SimTime,
        job: usize,
        ops: Vec<ClientOp>,
    ) -> Vec<ClientOpResult> {
        self.tracer.begin("client.execute_pipelined", now);
        let r = self.inner.execute_pipelined(fabric, cluster, now, job, ops);
        self.tracer.end(latest(&r, now));
        r
    }

    fn ops(&self) -> u64 {
        self.inner.ops()
    }
}
