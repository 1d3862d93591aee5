//! Per-layer counters, read from each crate's public stats accessors.
//!
//! A [`Counters`] value is one snapshot; the benchmark takes one before
//! and one after the measured run and reports the difference, so set-up
//! and fill work stay out of every layer number.

use ros2_daos::EngineCluster;
use ros2_dfs::Dfs;
use ros2_fabric::Fabric;
use ros2_fio::FioClient;

/// Counters that are levels, not running totals: the snapshot after the
/// run is reported as is.
const GAUGES: [&str; 1] = ["pool.resident_peak"];

/// One named snapshot of every raw layer counter, in a fixed order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    /// Reads every layer's counters from a world's parts.
    pub fn take(
        fabric: &Fabric,
        cluster: &mut EngineCluster,
        clients: &[FioClient],
        dfs: &Dfs,
    ) -> Self {
        let mut booked = fabric.resource_stats();
        let engine = cluster.resource_stats();
        booked.merge(engine);
        let mut buf = fabric.data_plane_stats();
        buf.merge(cluster.data_plane_stats());
        let wire = fabric.wire_traversal_stats();
        let vos = cluster.vos_stats();
        let pool = cluster.conn_pool_stats();

        let (mut reads, mut writes, mut bytes_read, mut bytes_written) = (0, 0, 0, 0);
        for slot in 0..cluster.engines().count() {
            let array = cluster.engine_mut(slot).bdevs_mut().array();
            for dev in 0..array.len() {
                let s = array.device(dev).stats();
                reads += s.reads;
                writes += s.writes;
                bytes_read += s.bytes_read;
                bytes_written += s.bytes_written;
            }
        }

        let (mut client_ops, mut client_bookings) = (0, 0);
        let mut retry = ros2_daos::RetryStats::default();
        let mut dpu = ros2_dpu::DpuStats::default();
        for c in clients {
            client_ops += c.ops();
            let r = c.resource_stats();
            client_bookings += r.bookings;
            booked.merge(r);
            retry.merge(c.retry_stats());
            dpu.merge(c.dpu_stats());
        }

        Counters(vec![
            ("sim.bookings", booked.bookings),
            ("sim.fastpath_hits", booked.fastpath_hits),
            ("buf.bytes_copied", buf.bytes_copied),
            ("buf.bytes_zero_copy", buf.bytes_zero_copy),
            ("buf.crc_bytes_scanned", buf.crc_bytes_scanned),
            ("buf.crc_combines", buf.crc_combines),
            ("fabric.bookings", fabric.resource_stats().bookings),
            ("fabric.wire_batched", wire.batched),
            ("fabric.wire_per_segment", wire.per_segment),
            ("nvme.reads", reads),
            ("nvme.writes", writes),
            ("nvme.bytes_read", bytes_read),
            ("nvme.bytes_written", bytes_written),
            ("vos.fetches", vos.fetches),
            ("vos.array_updates", vos.array_updates),
            ("vos.sv_updates", vos.sv_updates),
            ("vos.scm_records", vos.scm_records),
            ("vos.nvme_records", vos.nvme_records),
            ("engine.bookings", engine.bookings),
            ("client.ops", client_ops),
            ("client.bookings", client_bookings),
            ("retry.timeouts", retry.timeouts),
            ("retry.fenced", retry.fenced),
            ("retry.retries", retry.retries),
            ("retry.backoff_waits", retry.backoff_waits),
            ("retry.map_refreshes", retry.map_refreshes),
            ("retry.exhausted", retry.exhausted),
            ("pool.admits", pool.admits),
            ("pool.hits", pool.hits),
            ("pool.evictions", pool.evictions),
            ("pool.reconnects", pool.reconnects),
            ("pool.resident_peak", pool.resident_peak),
            ("dpu.ops_offloaded", dpu.ops_offloaded),
            ("dpu.host_submits", dpu.host_submits),
            ("dpu.handoff_wait_ns", dpu.handoff_wait.as_nanos()),
            ("dpu.ops_throttled", dpu.ops_throttled),
            ("dpu.throttle_wait_ns", dpu.throttle_wait.as_nanos()),
            ("dpu.crc_bytes", dpu.crc_bytes),
            ("dpu.rkey_refreshes", dpu.rkey_refreshes),
            ("dfs.data_ops", dfs.data_ops),
        ])
    }

    /// The change from `before` to `self`; gauges keep their `self` value.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .zip(&before.0)
                .map(|(&(name, after), &(_, was))| {
                    let v = if GAUGES.contains(&name) {
                        after
                    } else {
                        after - was
                    };
                    (name, v)
                })
                .collect(),
        )
    }

    /// The counter called `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("no counter {name}"))
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of one measured run, as `(name, value, unit)`:
/// the counter deltas, with ratios and virtual waits derived from them.
pub fn metrics(d: &Counters, admit_wait_ns: u64) -> Vec<(&'static str, f64, &'static str)> {
    let c = |n: &str| d.get(n) as f64;
    vec![
        ("sim.bookings", c("sim.bookings"), "count"),
        (
            "sim.fastpath_rate",
            ratio(d.get("sim.fastpath_hits"), d.get("sim.bookings")),
            "ratio",
        ),
        ("buf.bytes_copied", c("buf.bytes_copied"), "bytes"),
        ("buf.bytes_zero_copy", c("buf.bytes_zero_copy"), "bytes"),
        ("buf.crc_bytes_scanned", c("buf.crc_bytes_scanned"), "bytes"),
        ("buf.crc_combines", c("buf.crc_combines"), "count"),
        ("fabric.bookings", c("fabric.bookings"), "count"),
        (
            "fabric.wire_batched_rate",
            ratio(
                d.get("fabric.wire_batched"),
                d.get("fabric.wire_batched") + d.get("fabric.wire_per_segment"),
            ),
            "ratio",
        ),
        ("nvme.reads", c("nvme.reads"), "count"),
        ("nvme.writes", c("nvme.writes"), "count"),
        ("nvme.bytes_read", c("nvme.bytes_read"), "bytes"),
        ("nvme.bytes_written", c("nvme.bytes_written"), "bytes"),
        ("vos.fetches", c("vos.fetches"), "count"),
        ("vos.array_updates", c("vos.array_updates"), "count"),
        ("vos.sv_updates", c("vos.sv_updates"), "count"),
        ("vos.scm_records", c("vos.scm_records"), "count"),
        ("vos.nvme_records", c("vos.nvme_records"), "count"),
        ("engine.bookings", c("engine.bookings"), "count"),
        ("client.ops", c("client.ops"), "count"),
        ("client.bookings", c("client.bookings"), "count"),
        ("retry.timeouts", c("retry.timeouts"), "count"),
        ("retry.fenced", c("retry.fenced"), "count"),
        ("retry.retries", c("retry.retries"), "count"),
        ("retry.backoff_waits", c("retry.backoff_waits"), "count"),
        ("retry.map_refreshes", c("retry.map_refreshes"), "count"),
        ("retry.exhausted", c("retry.exhausted"), "count"),
        (
            "retry.retries_per_op",
            ratio(d.get("retry.retries"), d.get("client.ops")),
            "ratio",
        ),
        ("pool.admits", c("pool.admits"), "count"),
        (
            "pool.hit_rate",
            ratio(d.get("pool.hits"), d.get("pool.admits")),
            "ratio",
        ),
        ("pool.evictions", c("pool.evictions"), "count"),
        ("pool.reconnects", c("pool.reconnects"), "count"),
        ("pool.resident_peak", c("pool.resident_peak"), "count"),
        ("pool.admit_wait_us", admit_wait_ns as f64 / 1e3, "us"),
        ("dpu.ops_offloaded", c("dpu.ops_offloaded"), "count"),
        ("dpu.host_submits", c("dpu.host_submits"), "count"),
        ("dpu.handoff_wait_us", c("dpu.handoff_wait_ns") / 1e3, "us"),
        ("dpu.ops_throttled", c("dpu.ops_throttled"), "count"),
        (
            "dpu.throttle_wait_us",
            c("dpu.throttle_wait_ns") / 1e3,
            "us",
        ),
        ("dpu.crc_bytes", c("dpu.crc_bytes"), "bytes"),
        ("dpu.rkey_refreshes", c("dpu.rkey_refreshes"), "count"),
        ("dfs.data_ops", c("dfs.data_ops"), "count"),
    ]
}
