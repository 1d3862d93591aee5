//! Allocation regression for the host↔DPU doorbell: a warm `IoSubmit` /
//! `IoPoll` call on an open session must perform ZERO heap allocations —
//! measured with a counting global allocator, not inferred from types.
//! Both legs are sized without encoding them and the handler borrows the
//! session's tenant; the completion instants stay those of the encoded
//! lengths (13 + 9 bytes for a submit, 1 + 9 for a poll).
//!
//! The counters are process-global, so this binary holds one `#[test]`.

use bytes::Bytes;
use ros2_buf::{allocation_count, CountingAlloc};
use ros2_ctl::{ControlChannel, ControlModel, ControlRequest, ControlResponse};
use ros2_sim::{SimDuration, SimRng, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = allocation_count();
    f();
    allocation_count() - before
}

#[test]
fn warm_doorbell_calls_are_allocation_free() {
    let model = ControlModel::host_doorbell();
    let mut ch = ControlChannel::new(model, SimRng::new(7));
    ch.add_tenant("tenant-a", Bytes::from_static(b"digest"));
    let hello = ControlRequest::Hello {
        tenant: "tenant-a".into(),
        auth: Bytes::from_static(b"digest"),
    };
    let (_, res) = ch.call(SimTime::ZERO, None, hello, |_, _| ControlResponse::Ok);
    let token = res.unwrap().0;

    // Wire time of `bytes` at the doorbell's serialization cost.
    let wire = |bytes: u64| model.rtt + SimDuration::from_nanos(bytes * model.ps_per_byte / 1000);
    let mut now = SimTime::from_micros(1);
    let mut submits = Vec::with_capacity(1000);
    let mut polls = Vec::with_capacity(1000);
    let n = allocs_in(|| {
        for i in 0..1000u32 {
            let (submitted, res) = ch.call(
                now,
                Some(token),
                ControlRequest::IoSubmit {
                    ops: 1,
                    bytes: 4096,
                },
                |_, _| ControlResponse::IoDone { ops: 0, retries: 0 },
            );
            assert!(res.is_ok());
            let (polled, res) = ch.call(submitted, Some(token), ControlRequest::IoPoll, |t, _| {
                assert_eq!(t, "tenant-a");
                ControlResponse::IoDone { ops: 1, retries: i }
            });
            assert!(res.is_ok());
            submits.push(submitted.saturating_since(now));
            polls.push(polled.saturating_since(submitted));
            now = polled + SimDuration::from_nanos(u64::from(i));
        }
    });
    assert_eq!(n, 0, "warm doorbell calls must not allocate ({n} allocs)");
    assert!(
        submits.iter().all(|&d| d == wire(13 + 9)),
        "submit instants moved"
    );
    assert!(
        polls.iter().all(|&d| d == wire(1 + 9)),
        "poll instants moved"
    );
    assert_eq!(ch.session(token).unwrap().calls, 2001);
}
