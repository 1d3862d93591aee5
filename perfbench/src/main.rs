//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop through `Dfs::read`/`Dfs::write` from a
//! single generating thread. One measured run is a fixed number of ops,
//! so its virtual-time results and layer counters are a pure function of
//! the seed. The benchmark repeats set-up plus run for `--seconds` of host
//! time, requires every repetition to reproduce the first one exactly, and
//! reports host-time metrics as medians over the repetitions.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics, measured over alternating untraced and traced
//! repetitions. A read that returns wrong bytes, a broken count
//! conservation, or a repetition that differs from the first exits
//! non-zero.

mod layers;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workload::{Shape, Virtual, World, WORKLOADS};

/// Each op type needs this many latency samples, so that its p99 has at
/// least ten samples beyond it.
const MIN_SAMPLES: usize = 1000;

/// Repetitions of set-up plus run, at least, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;

/// Host seconds [`calibrate`] takes at the reference speed host-time
/// metrics are reported at (about its time on a 2-vCPU x86-64 cloud VM).
const CALIBRATION_REF_S: f64 = 0.015;

struct Args {
    shape: &'static Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let shape = WORKLOADS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; known: {}", names.join(", "))
    })?;
    Ok(Args {
        shape,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `q` of sorted nanosecond samples, in microseconds, read
/// from the empirical distribution function linearly interpolated between
/// adjacent distinct values. Without ties this is linear interpolation
/// between order statistics. Virtual latencies often fall on a few
/// distinct values (bookings come in whole service quanta), where a
/// nearest-rank percentile would not move when the share of ops at each
/// value does.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = q * n as f64;
    let x = sorted[(rank.ceil() as usize).clamp(1, n) - 1];
    let below = sorted.partition_point(|&v| v < x);
    let upto = sorted.partition_point(|&v| v <= x);
    let prev = if below == 0 { x } else { sorted[below - 1] };
    let frac = ((rank - below as f64) / (upto - below) as f64).clamp(0.0, 1.0);
    (prev as f64 + frac * (x - prev) as f64) / 1e3
}

/// A `key: value` field of `/proc/self/status`, in its first unit.
fn proc_status(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU seconds spent on threads other than this (the generating) one,
/// which is what any thread the program under test spawned consumed.
fn other_thread_cpu_s() -> Option<f64> {
    let ticks = |path: &str| -> Option<u64> {
        let stat = std::fs::read_to_string(path).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
    };
    let process = ticks("/proc/self/stat")?;
    let main = ticks(&format!("/proc/self/task/{}/stat", std::process::id()))?;
    // Linux reports these in USER_HZ, 100 per second on every mainstream
    // architecture.
    Some(process.saturating_sub(main) as f64 / 100.0)
}

/// The commit of the checkout this benchmark was built in, if that
/// checkout is itself a git work tree (not a directory nested in one).
fn git_commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if std::path::Path::new(root).join(".git").exists() {
        command_output("git", &["-C", root, "rev-parse", "HEAD"])
    } else {
        "unavailable".into()
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

/// A fixed mix of map churn, heap churn, buffer copies and a table CRC,
/// built only from this file and the standard library so that no change
/// to the program under test moves it. It is timed before every
/// repetition; scaling host-time metrics by its median removed about half
/// of the run-to-run spread that host speed drift causes on a shared
/// machine.
fn calibrate() -> f64 {
    let xorshift = |mut x: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^ (x << 17)
    };
    let mut table = [0u32; 256];
    for (i, e) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *e = c;
    }
    let src: Vec<u8> = (0..256u32 << 10)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let mut dst = vec![0u8; src.len()];
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map = std::collections::BTreeMap::new();
    let mut heap = std::collections::BinaryHeap::new();
    let mut crc = !0u32;
    for round in 0..40u64 {
        for _ in 0..1000 {
            x = xorshift(x);
            map.insert(x & 0x3FFF, round);
            map.remove(&((x >> 24) & 0x3FFF));
            heap.push(std::cmp::Reverse(x >> 40));
            if heap.len() > 512 {
                heap.pop();
            }
        }
        dst.copy_from_slice(&src);
        for &b in &dst[..16 << 10] {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        std::hint::black_box((0..256).map(|i| x ^ i).collect::<Vec<u64>>());
    }
    std::hint::black_box((crc, map.len(), heap.len(), &dst));
    started.elapsed().as_secs_f64()
}

/// One repetition: calibration, set-up and the measured run.
struct Trial {
    calibration_s: f64,
    setup_s: f64,
    run: workload::Run,
}

fn trial(args: &Args, trace: Option<&std::path::Path>) -> Trial {
    let calibration_s = calibrate();
    let started = Instant::now();
    let mut world = World::setup(args.shape, args.seed);
    let setup_s = started.elapsed().as_secs_f64();
    let run = workload::run(args.shape, &mut world, args.seed, trace);
    Trial {
        calibration_s,
        setup_s,
        run,
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let shape = args.shape;
    let trace_path = PathBuf::from(format!(
        "{}/traces/{}-seed{}.jsonl",
        env!("CARGO_MANIFEST_DIR"),
        shape.name,
        args.seed
    ));

    let started = Instant::now();
    let mut untraced: Vec<Trial> = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    // Read after the first repetition: later ones reuse the heap, but
    // allocator fragmentation would still creep into a process-wide peak.
    let mut peak_rss_mib = 0.0;
    while untraced.len() < MIN_TRIALS || started.elapsed().as_secs_f64() < args.seconds {
        untraced.push(trial(&args, None));
        if untraced.len() == 1 {
            peak_rss_mib = proc_status("VmHWM:").unwrap_or(0.0) / 1024.0;
        }
        if args.trace {
            traced.push(trial(&args, Some(&trace_path)));
        }
    }

    let mut errors: Vec<String> = Vec::new();
    let first = &untraced[0].run.virt;
    for (i, t) in untraced.iter().chain(&traced).enumerate().skip(1) {
        if &t.run.virt != first {
            errors.push(format!(
                "repetition {i} differs from the first in virtual time or layer counters"
            ));
        }
    }
    let mismatches: u64 = untraced
        .iter()
        .chain(&traced)
        .map(|t| t.run.mismatches)
        .sum();
    if mismatches > 0 {
        errors.push(format!("{mismatches} reads returned wrong bytes"));
    }
    errors.extend(workload::conservation(shape, first));
    for (kind, n) in [
        ("read", first.read_lat.len()),
        ("write", first.write_lat.len()),
    ] {
        if n < MIN_SAMPLES {
            errors.push(format!(
                "{n} {kind} latency samples, fewer than {MIN_SAMPLES}"
            ));
        }
    }

    let v: &Virtual = first;
    let ops_per_s = |trials: &[Trial]| -> Vec<f64> {
        trials
            .iter()
            .map(|t| t.run.virt.attempted as f64 / t.run.host_s)
            .collect()
    };
    // Host speed relative to the reference: host-time metrics are
    // reported as they would read at the reference speed.
    let all = || untraced.iter().chain(&traced);
    let speed = CALIBRATION_REF_S / median(&all().map(|t| t.calibration_s).collect::<Vec<_>>());
    let raw_ops_per_s = median(&ops_per_s(&untraced));
    let raw_setup_s = median(&all().map(|t| t.setup_s).collect::<Vec<_>>());
    let host_ops_per_s = raw_ops_per_s / speed;
    let setup_s = raw_setup_s * speed;
    let sim_gib_s = v.bytes as f64 / (1u64 << 30) as f64 / (v.window_ns as f64 / 1e9);
    let failed_frac = v.failed as f64 / v.attempted as f64;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "workload {} seed {} seconds {} repetitions {} ops_per_run {} (reads {}, writes {})",
        shape.name,
        args.seed,
        args.seconds,
        untraced.len() + traced.len(),
        v.attempted,
        v.reads,
        v.writes
    );
    println!(
        "provenance {{\"seed\": {}, \"seconds\": {}, \"ops_per_run\": {}, \"repetitions\": {}, \
         \"git_commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \
         \"read_samples\": {}, \"write_samples\": {}, \"host_speed\": {speed}, \
         \"threads_live\": {}, \"other_thread_cpu_s\": {}}}",
        args.seed,
        args.seconds,
        v.attempted,
        untraced.len() + traced.len(),
        git_commit(),
        command_output("rustc", &["--version"]),
        v.read_lat.len(),
        v.write_lat.len(),
        proc_status("Threads:").unwrap_or(0.0),
        other_thread_cpu_s().unwrap_or(-1.0),
    );
    let (nr, nw) = (v.read_lat.len(), v.write_lat.len());
    let mut end_to_end: Vec<(&str, f64, &str)> = vec![
        ("setup_s", setup_s, "s"),
        ("host_ops_per_s", host_ops_per_s, "1/s"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
        ("sim_gib_s", sim_gib_s, "GiB/s"),
    ];
    let lat = [
        ("read_p50_us", percentile_us(&v.read_lat, 0.50), nr),
        ("read_p99_us", percentile_us(&v.read_lat, 0.99), nr),
        ("write_p50_us", percentile_us(&v.write_lat, 0.50), nw),
        ("write_p99_us", percentile_us(&v.write_lat, 0.99), nw),
    ];
    for (name, value, unit) in &end_to_end {
        println!("{name} {value} {unit}");
    }
    for (name, value, n) in lat {
        println!("{name} {value} us (samples {n})");
        end_to_end.push((name, value, "us"));
    }
    println!("unscaled host_ops_per_s {raw_ops_per_s} 1/s, setup_s {raw_setup_s} s");
    println!(
        "failed_ops_frac {failed_frac} ratio ({} of {} ops)",
        v.failed, v.attempted
    );

    let metrics = if args.trace {
        let mut per_layer = layers::metrics(&v.layers, v.admit_wait_ns);
        let traced_ops_per_s = median(&ops_per_s(&traced)) / speed;
        let per = |pick: fn(&trace::SelfTimes) -> (u64, u64)| -> f64 {
            median(
                &traced
                    .iter()
                    .map(|t| {
                        let (ns, n) = pick(t.run.self_times.as_ref().expect("traced"));
                        if n == 0 {
                            0.0
                        } else {
                            ns as f64 / n as f64
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        };
        per_layer.extend([
            ("dfs.self_ns", per(|s| (s.dfs_ns, s.dfs_spans)), "ns"),
            (
                "client.span_ns",
                per(|s| (s.client_ns, s.client_spans)),
                "ns",
            ),
            ("pool.admit_ns", per(|s| (s.pool_ns, s.pool_spans)), "ns"),
            ("bench.self_ns", per(|s| (s.bench_ns, s.ops)), "ns"),
            ("trace.host_ops_per_s", traced_ops_per_s, "1/s"),
            (
                "trace.overhead_frac",
                1.0 - traced_ops_per_s / host_ops_per_s,
                "ratio",
            ),
        ]);
        for (name, value, unit) in &per_layer {
            println!("{name} {value} {unit}");
        }
        println!("trace written to {}", trace_path.display());
        per_layer
    } else {
        end_to_end
    };

    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        v.attempted,
        v.failed,
        json_metrics(&metrics)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
