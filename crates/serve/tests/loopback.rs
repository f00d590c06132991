//! Loopback integration tests for the experiment service.
//!
//! These run a real server on an ephemeral 127.0.0.1 port and talk to
//! it over real sockets — the full path the acceptance criteria care
//! about: concurrent clients, byte-identical results versus direct
//! library calls, explicit backpressure under overload, and a shutdown
//! that drains every accepted job.
//!
//! All tests share one process, so the environment is pinned once (a
//! private profile-cache dir keeps them off `results/`).

use ssim::prelude::*;
use ssim_serve::fleet::BatchSpec;
use ssim_serve::json::Json;
use ssim_serve::proto::ProfileParams;
use ssim_serve::{Client, Fleet, FleetConfig, MachineSpec, Request, Server, ServerConfig};
use std::sync::Once;

#[path = "../../../tests/util/mod.rs"]
mod util;

fn setup_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let dir = std::env::temp_dir().join(format!("ssim-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("SSIM_PROFILE_CACHE_DIR", &dir);
    });
}

fn small_profile(instructions: u64) -> ProfileParams {
    ProfileParams {
        workload: "gzip".to_string(),
        instructions,
        skip: 0,
    }
}

/// Eight concurrent clients submit overlapping sweeps; every client
/// must receive, for every `(machine, R, seed)` point, results
/// byte-identical to a direct `ssim-core` call.
#[test]
fn concurrent_sweeps_match_direct_library_calls() {
    setup_env();
    let profile = small_profile(40_000);
    let r = 10u64;
    let machines = vec![
        MachineSpec::default(),
        MachineSpec {
            width: Some(2),
            ..MachineSpec::default()
        },
        MachineSpec {
            width: Some(8),
            window: Some(64),
            ..MachineSpec::default()
        },
        MachineSpec {
            in_order: true,
            ..MachineSpec::default()
        },
    ];
    let seeds = vec![1u64, 2, 3];

    // Direct library expectation, computed independently of the server.
    let workload = ssim::workloads::by_name("gzip").unwrap();
    let direct = ssim_core_profile(workload, &profile);
    let sampler = direct.compile(r);
    let expected: Vec<(u64, u64, u64)> = machines
        .iter()
        .flat_map(|m| {
            let cfg = m.resolve();
            let sampler = &sampler;
            seeds.iter().map(move |&seed| {
                let sim = simulate_trace(&sampler.generate(seed), &cfg);
                (sim.cycles, sim.instructions, sim.ipc().to_bits())
            })
        })
        .collect();

    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let sweep = Request::Sweep {
        profile: profile.clone(),
        machines: machines.clone(),
        r,
        seeds: seeds.clone(),
    };

    std::thread::scope(|scope| {
        for client_idx in 0..8 {
            let sweep = sweep.clone();
            let expected = &expected;
            scope.spawn(move || {
                let mut cl = Client::connect(addr).unwrap();
                // Overlapping load: every client also fires single-point
                // simulates for a subset of the same design points.
                let probe = Request::Simulate {
                    profile: small_profile(40_000),
                    machine: MachineSpec::default(),
                    r,
                    seed: 1 + (client_idx % 3) as u64,
                };
                let probe_id = cl.submit(&probe, None).unwrap();
                let sweep_id = cl.submit(&sweep, None).unwrap();
                // Pipelined: two in flight, completion order unknown.
                let mut sweep_resp = None;
                let mut probe_resp = None;
                for _ in 0..2 {
                    let resp = cl.recv().unwrap();
                    if resp.id == sweep_id {
                        sweep_resp = Some(resp);
                    } else {
                        assert_eq!(resp.id, probe_id);
                        probe_resp = Some(resp);
                    }
                }
                let sweep_resp = sweep_resp.expect("no sweep response");
                assert!(sweep_resp.ok, "sweep failed: {:?}", sweep_resp.error);
                let results = sweep_resp
                    .body
                    .get("results")
                    .and_then(Json::as_arr)
                    .expect("sweep results");
                assert_eq!(results.len(), expected.len());
                for (i, (point, exp)) in results.iter().zip(expected.iter()).enumerate() {
                    let cycles = point.get("cycles").and_then(Json::as_u64).unwrap();
                    let instrs = point.get("instructions").and_then(Json::as_u64).unwrap();
                    let ipc = point.get("ipc").and_then(Json::as_f64).unwrap();
                    assert_eq!(cycles, exp.0, "client {client_idx} point {i} cycles");
                    assert_eq!(instrs, exp.1, "client {client_idx} point {i} instructions");
                    assert_eq!(
                        ipc.to_bits(),
                        exp.2,
                        "client {client_idx} point {i} ipc bits"
                    );
                }
                let probe_resp = probe_resp.expect("no probe response");
                assert!(probe_resp.ok, "probe failed: {:?}", probe_resp.error);
                // The probe point is inside the sweep grid: its result
                // must agree with the sweep's baseline-machine row.
                let seed_idx = (client_idx % 3) as usize;
                let exp = &expected[seed_idx];
                assert_eq!(
                    probe_resp.body.get("cycles").and_then(Json::as_u64),
                    Some(exp.0)
                );
            });
        }
    });

    // Every sweep was counted by the metrics endpoint.
    let mut cl = Client::connect(addr).unwrap();
    let metrics = cl.call(&Request::Metrics, None).unwrap();
    let sweeps = metrics
        .body
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.req.sweep"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(sweeps >= 8, "metrics report {sweeps} sweeps, expected >= 8");
    let shut = cl.call(&Request::Shutdown, None).unwrap();
    assert!(shut.ok);
    assert_eq!(shut.body.get("drained").and_then(Json::as_bool), Some(true));
    server.join();
}

/// A planner-shaped batch — an explicit `(machine, seed)` list using
/// the fine-grained RUU/LSQ/width overrides, no grid structure — runs
/// through the fleet and comes back byte-identical to direct library
/// calls, in list order, across two backends.
#[test]
fn fleet_batch_matches_direct_library_calls() {
    setup_env();
    let profile = small_profile(40_000);
    let r = 10u64;
    // Points shaped like one ssim-dse refinement round: decoupled RUU /
    // LSQ / widths, each point with its own seed.
    let fine = |ruu: u64, lsq: u64, w: u64| MachineSpec {
        ruu: Some(ruu),
        lsq: Some(lsq),
        decode: Some(w),
        issue: Some(w),
        commit: Some(w),
        ..MachineSpec::default()
    };
    let batch = BatchSpec {
        profile: profile.clone(),
        r,
        points: vec![
            (fine(16, 8, 2), 11),
            (fine(64, 16, 4), 12),
            (fine(96, 48, 8), 13),
            (fine(32, 32, 2), 11),
            (MachineSpec::default(), 14),
        ],
    };

    // Direct library expectation.
    let workload = ssim::workloads::by_name("gzip").unwrap();
    let sampler = ssim_core_profile(workload, &profile).compile(r);
    let expected: Vec<(u64, u64, u64)> = batch
        .points
        .iter()
        .map(|(m, seed)| {
            let sim = simulate_trace(&sampler.generate(*seed), &m.resolve());
            (sim.cycles, sim.instructions, sim.ipc().to_bits())
        })
        .collect();

    let a = Server::start(ServerConfig::default()).unwrap();
    let b = Server::start(ServerConfig::default()).unwrap();
    let fleet = Fleet::new(FleetConfig {
        backends: vec![a.addr().to_string(), b.addr().to_string()],
        ..FleetConfig::default()
    })
    .unwrap();
    fleet.warm(&profile);
    let outcome = fleet.run_batch(&batch).expect("batch failed");
    assert_eq!(outcome.points.len(), expected.len());
    for (i, (got, exp)) in outcome.points.iter().zip(&expected).enumerate() {
        assert_eq!(got.cycles, exp.0, "point {i} cycles");
        assert_eq!(got.instructions, exp.1, "point {i} instructions");
        assert_eq!(got.ipc.to_bits(), exp.2, "point {i} ipc bits");
        assert!(!got.cached, "placement history leaked at point {i}");
    }
    assert_eq!(outcome.stats.points, batch.points.len());

    for server in [a, b] {
        let mut cl = Client::connect(server.addr()).unwrap();
        assert!(cl.call(&Request::Shutdown, None).unwrap().ok);
        server.join();
    }
}

/// The profile path the server takes (identical budgets, through the
/// same on-disk cache the test env pins).
fn ssim_core_profile(
    workload: &'static ssim::workloads::Workload,
    params: &ProfileParams,
) -> StatisticalProfile {
    ssim_bench::profile_cached(
        workload,
        &ProfileConfig::new(&MachineConfig::baseline())
            .skip(params.skip)
            .instructions(params.instructions),
    )
}

/// A queue sized below the offered load must reject with
/// `retry_after_ms` — and the *accepted* jobs must all complete.
/// Clients that obey the retry hint eventually get every answer
/// (nothing is silently dropped).
#[test]
fn overload_returns_backpressure_not_blocking() {
    setup_env();
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Warm a small profile so the burst jobs are pure simulate work.
    let profile = small_profile(40_000);
    let mut warm = Client::connect(addr).unwrap();
    let resp = warm
        .call_retry(&Request::Profile(profile.clone()), None, 50)
        .unwrap();
    assert!(resp.ok);

    // Pin the single worker with a slow job — an uncached profiling
    // pass orders of magnitude longer than the submit loop below — so
    // the queue genuinely fills while the worker is busy.
    let mut cl = Client::connect(addr).unwrap();
    let blocker_id = cl
        .submit(&Request::Profile(small_profile(800_000)), None)
        .unwrap();
    // Wait until the worker has actually popped the blocker (a fixed
    // sleep here raced the scheduler on loaded CI machines).
    util::wait_until("worker picks up the blocker job", || {
        server.queue_stats().1 >= 1
    });

    // Burst far past queue capacity (2) on the same pipelined
    // connection.
    let burst = 12usize;
    let ids: Vec<u64> = (0..burst)
        .map(|i| {
            cl.submit(
                &Request::Simulate {
                    profile: profile.clone(),
                    machine: MachineSpec {
                        width: Some(1 + (i % 8) as u64),
                        ..MachineSpec::default()
                    },
                    r: 10,
                    seed: 100 + i as u64,
                },
                None,
            )
            .unwrap()
        })
        .collect();
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for _ in 0..=burst {
        let resp = cl.recv().unwrap();
        if resp.id == blocker_id {
            assert!(resp.ok, "blocker failed: {:?}", resp.error);
            continue;
        }
        assert!(ids.contains(&resp.id));
        if resp.ok {
            accepted += 1;
        } else {
            assert!(
                resp.is_backpressure(),
                "non-backpressure failure: {:?}",
                resp.error
            );
            assert!(resp.retry_after_ms.unwrap() > 0);
            rejected += 1;
        }
    }
    // Queue of 2 + 1 busy worker against a burst of 12 must shed load;
    // and every response arrived — one per request, nothing blocked,
    // nothing dropped.
    assert_eq!(accepted + rejected, burst);
    assert!(rejected > 0, "burst of {burst} never saw backpressure");
    assert!(accepted >= 2, "only {accepted} of {burst} accepted");

    // A client that obeys retry_after_ms gets every answer eventually.
    let resp = cl
        .call_retry(
            &Request::Simulate {
                profile: profile.clone(),
                machine: MachineSpec::default(),
                r: 10,
                seed: 999,
            },
            None,
            100,
        )
        .unwrap();
    assert!(resp.ok, "retrying client starved: {:?}", resp.error);

    let shut = cl.call(&Request::Shutdown, None).unwrap();
    assert!(shut.ok);
    server.join();
}

/// Shutdown must drain accepted work: jobs in the queue when the
/// shutdown arrives still produce results, later submissions are
/// rejected, and the acknowledgement comes after the drain.
#[test]
fn shutdown_drains_accepted_jobs() {
    setup_env();
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let profile = small_profile(40_000);

    let mut cl = Client::connect(addr).unwrap();
    // Queue several jobs on the single worker, then ask a second
    // connection to shut down while they are still pending.
    let ids: Vec<u64> = (0..4)
        .map(|i| {
            cl.submit(
                &Request::Simulate {
                    profile: profile.clone(),
                    machine: MachineSpec {
                        width: Some(1 + i as u64),
                        ..MachineSpec::default()
                    },
                    r: 10,
                    seed: 500 + i as u64,
                },
                None,
            )
            .unwrap()
        })
        .collect();
    // Inline barrier: requests on one connection are read in order, so
    // once the metrics response exists, all four jobs were *accepted*
    // (queue capacity 16 ≫ 4) — the shutdown below cannot beat them in.
    let barrier_id = cl.submit(&Request::Metrics, None).unwrap();
    let mut early = Vec::new();
    loop {
        let resp = cl.recv().unwrap();
        if resp.id == barrier_id {
            break;
        }
        early.push(resp);
    }

    let mut shutter = Client::connect(addr).unwrap();
    let shut = shutter.call(&Request::Shutdown, None).unwrap();
    assert!(shut.ok);
    assert_eq!(shut.body.get("drained").and_then(Json::as_bool), Some(true));

    // The shutdown ack certifies the drain: every accepted job's
    // response is already on (or through) our socket.
    let mut seen = std::collections::HashSet::new();
    for resp in &early {
        assert!(resp.ok, "drained job failed: {:?}", resp.error);
        assert!(seen.insert(resp.id), "duplicate response {}", resp.id);
    }
    while seen.len() < ids.len() {
        let resp = cl.recv().unwrap();
        assert!(resp.ok, "drained job failed: {:?}", resp.error);
        assert!(seen.insert(resp.id), "duplicate response {}", resp.id);
    }
    assert_eq!(seen.len(), ids.len());

    // Post-shutdown submissions are rejected, not silently dropped.
    let late = cl.call(&Request::Profile(profile.clone()), None).unwrap();
    assert!(!late.ok);
    assert!(
        !late.is_backpressure(),
        "shutdown rejection is not retryable"
    );

    server.join();
}

/// The metrics endpoint returns the live registry with the serve-side
/// instrumentation visible.
#[test]
fn metrics_endpoint_exposes_registry() {
    setup_env();
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut cl = Client::connect(addr).unwrap();
    let resp = cl
        .call_retry(&Request::Profile(small_profile(40_000)), None, 50)
        .unwrap();
    assert!(resp.ok);
    let metrics = cl.call(&Request::Metrics, None).unwrap();
    assert!(metrics.ok);
    let m = metrics.body.get("metrics").expect("metrics object");
    let profiles = m
        .get("counters")
        .and_then(|c| c.get("serve.req.profile"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(profiles >= 1, "profile counter missing from registry");
    assert!(
        m.get("histograms")
            .and_then(|h| h.get("serve.latency_us.profile"))
            .is_some(),
        "latency histogram missing from registry"
    );
    let shut = cl.call(&Request::Shutdown, None).unwrap();
    assert!(shut.ok);
    server.join();
}

/// A query of death is a well-formed request whose machine the
/// simulator cannot build: a 4-billion-entry RUU used to abort the
/// process on a 32 GiB allocation, and `lsq > ruu` panicked a worker.
/// Both must come back as ordinary errors, and the server must keep
/// serving afterwards.
#[test]
fn out_of_range_machines_get_an_error_and_the_server_survives() {
    setup_env();
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut cl = Client::connect(server.addr()).unwrap();
    let simulate = |machine: MachineSpec| Request::Simulate {
        profile: small_profile(40_000),
        machine,
        r: 10,
        seed: 1,
    };
    for (machine, want) in [
        (
            MachineSpec {
                ruu: Some(4_000_000_000),
                ..MachineSpec::default()
            },
            "RUU size 4000000000 is outside",
        ),
        (
            MachineSpec {
                ruu: Some(16),
                lsq: Some(32),
                ..MachineSpec::default()
            },
            "may not exceed the RUU",
        ),
    ] {
        let resp = cl.call(&simulate(machine), None).unwrap();
        assert!(!resp.ok, "out-of-range machine was accepted");
        assert!(!resp.is_backpressure());
        let err = resp.error.unwrap_or_default();
        assert!(err.contains(want), "unexpected error: {err}");
    }
    let resp = cl
        .call_retry(&simulate(MachineSpec::default()), None, 50)
        .unwrap();
    assert!(resp.ok, "simulate after the bad requests: {:?}", resp.error);
    assert!(resp.body.get("cycles").and_then(Json::as_u64).unwrap_or(0) > 0);

    let shut = cl.call(&Request::Shutdown, None).unwrap();
    assert!(shut.ok);
    server.join();
}
