//! Kill-and-resume chaos test for the job journal, run by `./ci.sh deep`
//! (`cargo test --release -p ssim-serve --test journal_chaos --
//! --ignored`). Ignored by default: it spawns the real `ssim-serve`
//! binary twice and runs a 96-point sweep.
//!
//! 1. Spawn a child server with `--journal`, submit a journaled
//!    `sweep-stream` job and wait for streaming frames to prove the
//!    sweep is mid-flight.
//! 2. SIGKILL the child: no drain, no cleanup (`Child::kill` is
//!    `SIGKILL` on Unix).
//! 3. Restart on the same journal and poll `job-result` until the
//!    resumed job completes.
//! 4. The resumed digest must be byte-identical to an uninterrupted
//!    blocking sweep of the same spec, and re-submitting the key must
//!    re-ack from the journal.
//!
//! Every wait polls an observable condition under the suite-wide
//! `SSIM_TEST_TIMEOUT_MS` budget (see `tests/util`).

use ssim_serve::json::Json;
use ssim_serve::proto::{Envelope, ProfileParams};
use ssim_serve::{Client, MachineSpec, PointResult, Request, SweepSpec};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};

#[path = "../../../tests/util/mod.rs"]
mod util;

/// A child server that is SIGKILLed and reaped when dropped, so a
/// failing assertion never leaks a running server.
struct ChildServer(Child);

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `ssim-serve serve` on an ephemeral port with a private
/// profile cache and no inherited fault plan: the test measures journal
/// recovery, not cache luck or injected chaos.
fn spawn_server(journal: &Path, port_file: &Path, cache_dir: &Path) -> ChildServer {
    let _ = std::fs::remove_file(port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_ssim-serve"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .arg("--journal")
        .arg(journal)
        .arg("--port-file")
        .arg(port_file)
        .env("SSIM_PROFILE_CACHE_DIR", cache_dir)
        .env_remove("SSIM_FAULT_PLAN")
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn child server");
    ChildServer(child)
}

/// Waits for the child to publish its resolved address.
fn wait_port(port_file: &Path) -> String {
    let mut addr = String::new();
    util::wait_until("child server publishes its port", || {
        addr = std::fs::read_to_string(port_file)
            .unwrap_or_default()
            .trim()
            .to_string();
        !addr.is_empty()
    });
    addr
}

fn points(body: &Json) -> Vec<PointResult> {
    body.get("results")
        .and_then(Json::as_arr)
        .expect("sweep results")
        .iter()
        .map(|p| PointResult::from_json(p).expect("point"))
        .collect()
}

#[test]
#[ignore = "spawns the server binary; run by ./ci.sh deep in release"]
fn killed_server_resumes_journaled_sweep_byte_identically() {
    let dir = std::env::temp_dir().join(format!("ssim-journal-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create chaos dir");
    let journal = dir.join("journal.ndjson");
    let port_file = dir.join("serve.port");
    let cache_dir = dir.join("profile-cache");

    // Enough points that the SIGKILL lands mid-sweep: frames arrive per
    // fan-out chunk, so two frames in means most chunks are still
    // pending on the 2-worker child.
    let spec = SweepSpec {
        profile: ProfileParams {
            workload: "gzip".to_string(),
            instructions: 150_000,
            skip: 0,
        },
        machines: [2u64, 4, 8]
            .iter()
            .flat_map(|&w| {
                [16u64, 32, 64, 128].iter().map(move |&win| MachineSpec {
                    width: Some(w),
                    window: Some(win),
                    ..MachineSpec::default()
                })
            })
            .collect(),
        r: 12,
        seeds: (1..=8).collect(),
    };
    let req = Request::SweepStream {
        profile: spec.profile.clone(),
        machines: spec.machines.clone(),
        r: spec.r,
        seeds: spec.seeds.clone(),
    };
    let key = "chaos-1";

    let child = spawn_server(&journal, &port_file, &cache_dir);
    let addr = wait_port(&port_file);

    // Submit the journaled job raw (the blocking client API hides
    // frames behind a full merge; here two frames are the kill signal).
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let env = Envelope {
        id: 1,
        deadline_ms: None,
        job: Some(key.to_string()),
        req: req.clone(),
    };
    writer
        .write_all(format!("{}\n", env.render()).as_bytes())
        .expect("submit job");
    let mut reader = BufReader::new(stream);
    let mut frames = 0usize;
    while frames < 2 {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read frame") > 0,
            "server closed the stream before two frames"
        );
        let v = Json::parse(line.trim()).expect("frame json");
        if v.get("frame").and_then(Json::as_str) == Some("point") {
            frames += 1;
        } else {
            assert!(
                v.get("ok").and_then(Json::as_bool) == Some(true),
                "job rejected before streaming: {line}"
            );
            // The whole sweep finished before the kill: resume then
            // degenerates to re-ack, which the tail still verifies.
            break;
        }
    }
    drop(child); // SIGKILL
    drop(reader);

    // Restart on the same journal; the accepted-but-incomplete job must
    // resume without any client re-submitting it.
    let mut child = spawn_server(&journal, &port_file, &cache_dir);
    let addr = wait_port(&port_file);
    let mut cl = Client::connect(addr.as_str()).expect("connect restarted");
    let poll = Request::JobResult {
        job: key.to_string(),
    };
    let mut resumed = None;
    util::wait_until("resumed job completes", || {
        let resp = cl.call(&poll, None).expect("poll job-result");
        if !resp.ok {
            let msg = resp.error.clone().unwrap_or_default();
            assert!(
                msg.contains("pending"),
                "job neither pending nor done after restart: {msg}"
            );
            return false;
        }
        resumed = Some(resp);
        true
    });
    let resumed = resumed.expect("resumed response");
    let resumed_digest = resumed
        .body
        .get("digest")
        .and_then(Json::as_hex_u64)
        .expect("resumed digest");
    let resumed_points = points(&resumed.body);

    // Reference: an uninterrupted blocking sweep of the same spec on
    // the restarted server. `cached` flags differ (the resumed run
    // repopulated the result cache), so the comparison is the digest
    // plus the digest-covered fields per point.
    let reference = cl
        .call(
            &Request::Sweep {
                profile: spec.profile.clone(),
                machines: spec.machines.clone(),
                r: spec.r,
                seeds: spec.seeds.clone(),
            },
            None,
        )
        .expect("reference sweep");
    assert!(
        reference.ok,
        "reference sweep failed: {:?}",
        reference.error
    );
    assert_eq!(
        Some(resumed_digest),
        reference.body.get("digest").and_then(Json::as_hex_u64),
        "resumed sweep digest differs from the uninterrupted run"
    );
    let reference_points = points(&reference.body);
    assert_eq!(resumed_points.len(), reference_points.len());
    for (i, (a, b)) in resumed_points.iter().zip(&reference_points).enumerate() {
        assert!(
            a.cycles == b.cycles
                && a.instructions == b.instructions
                && a.ipc.to_bits() == b.ipc.to_bits(),
            "point {i} differs between resumed and uninterrupted runs"
        );
    }

    // Idempotent re-ack: the same key replays the journaled response
    // (no frames, no recomputation).
    let reack = cl
        .submit_job(&req, None, Some(key))
        .and_then(|_| cl.recv())
        .expect("re-ack");
    assert!(reack.ok, "re-ack failed: {:?}", reack.error);
    assert_eq!(
        reack.body.get("digest").and_then(Json::as_hex_u64),
        Some(resumed_digest),
        "re-ack digest differs"
    );
    let metrics = cl.call(&Request::Metrics, None).expect("metrics");
    let reacked = metrics
        .body
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.journal.reacked"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(
        reacked >= 1,
        "serve.journal.reacked = {reacked}, expected >= 1"
    );

    let shut = cl.call(&Request::Shutdown, None).expect("shutdown");
    assert!(shut.ok, "shutdown failed: {:?}", shut.error);
    let _ = child.0.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
