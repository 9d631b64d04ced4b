//! End-to-end drills for the serve subsystem, all in-process on
//! `127.0.0.1:0`: elastic pull-workers against a real coordinator socket,
//! an abandoned lease expiring and being re-dispatched, a coordinator
//! "crash" resumed from its spool (worker telemetry included), a client
//! stalled mid-request, an upload with an altered cell, wire-level
//! duplicate/reject handling, and the `/status` snapshot — with the final
//! artifact byte-identical to a single-process run every time.

use specstab_campaign::artifact::to_json;
use specstab_campaign::executor::{run_campaign, CampaignConfig};
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_campaign::plan::CampaignPlan;
use specstab_campaign::serve::http::{request, CoordinatorUrl};
use specstab_campaign::serve::wire::{lease_request, renew_request, LeaseReply, UploadReply};
use specstab_campaign::serve::{run_worker, Coordinator, ServeOptions, WorkOptions};
use specstab_campaign::shard::execute_shard;
use specstab_telemetry::metrics::shards_without_telemetry;
use specstab_telemetry::{
    metrics_from_events, parse_ndjson, validate_events, Event, EventKind, Json, RunCounters,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder()
        .topologies(["ring:6", "path:5"])
        .protocols(["ssme"])
        .daemons(["sync", "dist:0.5"])
        .fault_bursts([0, 1])
        .seeds(0..3)
        .build()
}

fn config() -> CampaignConfig {
    CampaignConfig { max_steps: 100_000, seed: 0xFEED, ..CampaignConfig::default() }
}

fn golden() -> String {
    to_json(&run_campaign(&matrix(), &config()), true)
}

/// The `campaign_end` counters of a trace file.
fn campaign_end_counters(trace: &Path) -> RunCounters {
    let events = parse_ndjson(&std::fs::read_to_string(trace).expect("trace written"))
        .expect("trace parses");
    events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::CampaignEnd { counters, .. } => Some(counters),
            _ => None,
        })
        .expect("campaign_end event")
}

/// `campaign_end` counters of the suite's matrix run in-process by the
/// `campaign` binary with `--trace`.
fn inprocess_counters(dir: &Path) -> RunCounters {
    let trace = dir.join("inprocess.events.ndjson");
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--topologies", "ring:6,path:5", "--protocols", "ssme"])
        .args(["--daemons", "sync,dist:0.5", "--faults", "0,1", "--seeds", "3"])
        .args(["--seed", &config().seed.to_string()])
        .args(["--max-steps", &config().max_steps.to_string()])
        .arg("--trace")
        .arg(&trace)
        .output()
        .expect("campaign spawns");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    campaign_end_counters(&trace)
}

/// A fresh scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specstab-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn worker_opts(addr: &str, id: &str) -> WorkOptions {
    WorkOptions {
        coordinator: format!("http://{addr}"),
        worker_id: id.to_string(),
        threads: 1,
        lease_only: false,
    }
}

/// The full fault drill: a ghost worker leases a shard and dies (lease
/// expiry → re-dispatch), two elastic workers finish the campaign, and
/// the artifact is byte-identical to the single-process run. The
/// coordinator trace validates and shows the whole lease lifecycle.
#[test]
fn expired_lease_is_redispatched_and_artifact_stays_byte_identical() {
    let dir = scratch("drill");
    let trace_path = dir.join("serve.events.ndjson");
    let plan = CampaignPlan::new(&matrix(), &config(), 4);
    let coordinator = Coordinator::bind(
        plan,
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 400,
            spool: dir.join("spool"),
            trace_path: Some(trace_path.clone()),
            stop_after_uploads: None,
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());

    // The ghost leases the first shard and abandons it: a deterministic
    // stand-in for a worker killed mid-shard.
    let ghost = run_worker(&WorkOptions { lease_only: true, ..worker_opts(&addr, "ghost") })
        .expect("ghost leases");
    assert_eq!(ghost.abandoned, 1);

    let workers: Vec<_> = ["w1", "w2"]
        .into_iter()
        .map(|id| {
            let opts = worker_opts(&addr, id);
            std::thread::spawn(move || run_worker(&opts))
        })
        .collect();
    let summaries: Vec<_> =
        workers.into_iter().map(|h| h.join().expect("worker thread").expect("worker ok")).collect();
    let result = serve.join().expect("serve thread").expect("serve ok").expect("completed");

    assert_eq!(to_json(&result, true), golden(), "served artifact drifted from single-process");
    let executed: u64 = summaries.iter().map(|s| s.executed).sum();
    assert_eq!(executed, 4, "all four shards executed by the elastic pool");

    // The trace is a valid specstab-events/v1 stream recording the ghost's
    // grant, its expiry, and an acceptance for every shard.
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_ndjson(&text).expect("trace parses");
    validate_events(&events).expect("trace validates");
    let ghost_expired = events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::LeaseExpired { worker, .. } if worker == "ghost"));
    assert!(ghost_expired, "the abandoned lease must expire in the trace");
    let accepted =
        events.iter().filter(|e| matches!(e.kind, EventKind::PartialAccepted { .. })).count();
    assert_eq!(accepted, 4, "one acceptance per shard, duplicates dropped silently");
    // `merge_end` times the fold that derives the statistics.
    assert!(
        text.lines().any(|l| l.contains("\"event\":\"merge_end\"") && l.contains("\"fold_us\":")),
        "merge_end carries fold_us"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A coordinator killed after the first upload resumes from its spool:
/// the restarted instance re-accepts the checkpoint from disk (worker
/// `"spool"`, no re-lease of the completed shard) and only the remaining
/// shards are executed again. The spooled upload keeps its telemetry, so
/// the resumed coordinator's `/status` group paths and `campaign_end`
/// counters cover the resumed shard too.
#[test]
fn killed_coordinator_resumes_from_spool_without_rerunning_shards() {
    let dir = scratch("resume");
    let spool = dir.join("spool");
    let plan = CampaignPlan::new(&matrix(), &config(), 3);

    // Phase 1: crash (via fault injection) after one accepted upload.
    let coordinator = Coordinator::bind(
        plan.clone(),
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 30_000,
            spool: spool.clone(),
            trace_path: None,
            stop_after_uploads: Some(1),
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());
    let w = run_worker(&worker_opts(&addr, "w1")).expect("worker survives the crash");
    assert!(w.executed >= 1);
    let crashed = serve.join().expect("serve thread").expect("no error");
    assert!(crashed.is_none(), "fault injection stops before completion");
    let spooled = std::fs::read_dir(&spool).expect("spool").count();
    assert!(spooled >= 1, "accepted upload was checkpointed to the spool");

    // Phase 2: a new coordinator on the same spool resumes and finishes.
    let trace_path = dir.join("resume.events.ndjson");
    let coordinator = Coordinator::bind(
        plan,
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 30_000,
            spool,
            trace_path: Some(trace_path.clone()),
            stop_after_uploads: None,
        },
    )
    .expect("rebind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());
    let url = CoordinatorUrl::parse(&format!("http://{addr}")).expect("url");
    let (_, body) = request(&url, "GET", "/status", &[], b"").expect("status");
    let status = Json::parse(std::str::from_utf8(&body).unwrap()).expect("parses");
    let batched = status.req("serve").unwrap().req("paths").unwrap().req("batched").unwrap();
    assert!(batched.as_u64().unwrap() > 0, "the resumed shard's batched groups reach /status");
    assert_eq!(bare_shards_on_status(&status), 0, "a spooled upload keeps its telemetry");
    let w2 = run_worker(&worker_opts(&addr, "w2")).expect("worker ok");
    let result = serve.join().expect("serve thread").expect("serve ok").expect("completed");
    assert_eq!(to_json(&result, true), golden(), "resumed artifact drifted");

    let (resumed, inprocess) = (campaign_end_counters(&trace_path), inprocess_counters(&dir));
    assert_eq!(resumed, inprocess, "campaign_end counters cover the spooled shard");
    assert!(resumed.moves > 0 && resumed.batch_lanes > 0);

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_ndjson(&text).expect("trace parses");
    assert_eq!(shards_without_telemetry(&events), 0);
    let mut resumed_shards = Vec::new();
    let mut leased_shards = Vec::new();
    for e in &events {
        match &e.kind {
            EventKind::PartialAccepted { shard_id, worker, telemetry_events, .. }
                if worker == "spool" =>
            {
                assert!(telemetry_events.unwrap() > 0, "spooled upload {shard_id}");
                resumed_shards.push(*shard_id);
            }
            EventKind::LeaseGranted { shard_id, .. } => leased_shards.push(*shard_id),
            _ => {}
        }
    }
    assert!(!resumed_shards.is_empty(), "the spooled checkpoint must be replayed");
    for shard in &resumed_shards {
        assert!(
            !leased_shards.contains(shard),
            "shard {shard} was resumed from spool yet leased again"
        );
    }
    assert_eq!(w2.executed as usize + resumed_shards.len(), 3);

    // `merge_end` sums the spool replays and the uploads: every partial in
    // the spool went through the resumed coordinator's parser once.
    let spooled_bytes: u64 = std::fs::read_dir(dir.join("spool"))
        .expect("spool")
        .map(|entry| entry.expect("spool entry").metadata().expect("metadata").len())
        .sum();
    let parse = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::MergeEnd { parse, .. } => Some(parse),
            _ => None,
        })
        .expect("merge_end event");
    assert!(parse.bytes >= spooled_bytes, "{} parsed < {spooled_bytes} spooled", parse.bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/status` `serve.shards_without_telemetry`.
fn bare_shards_on_status(status: &Json) -> u64 {
    let serve = status.req("serve").expect("serve object");
    serve.req("shards_without_telemetry").expect("count").as_u64().expect("integer")
}

/// A `campaign shard` partial placed in the spool carries no worker
/// telemetry, so the resumed coordinator's counters and path tally miss
/// its shard, and the coordinator says so: its `partial_accepted` reads
/// `telemetry_events` 0, and `/status`, the metrics sidecar and the
/// `events_check` count read `shards_without_telemetry` 1. The worker
/// uploads, which carry telemetry, are not counted.
#[test]
fn a_spooled_shard_partial_is_counted_as_a_shard_without_telemetry() {
    let dir = scratch("bare-spool");
    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).expect("spool dir");
    let plan = CampaignPlan::new(&matrix(), &config(), 3);
    let bare = execute_shard(&plan, 0, 1).expect("shard 0");
    std::fs::write(spool.join("shard-0.partial.json"), bare.to_json()).expect("spooled");
    let trace_path = dir.join("bare.events.ndjson");
    let coordinator = Coordinator::bind(
        plan,
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 30_000,
            spool,
            trace_path: Some(trace_path.clone()),
            stop_after_uploads: None,
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());
    let url = CoordinatorUrl::parse(&format!("http://{addr}")).expect("url");
    let (_, body) = request(&url, "GET", "/status", &[], b"").expect("status");
    let status = Json::parse(std::str::from_utf8(&body).unwrap()).expect("parses");
    assert_eq!(bare_shards_on_status(&status), 1);
    let w1 = run_worker(&worker_opts(&addr, "w1")).expect("worker ok");
    assert_eq!(w1.executed, 2);
    let result = serve.join().expect("serve thread").expect("serve ok").expect("completed");
    assert_eq!(to_json(&result, true), golden(), "artifact drifted");

    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events: Vec<Event> = parse_ndjson(&text).expect("trace parses");
    let accepted: Vec<(&str, Option<u64>)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PartialAccepted { worker, telemetry_events, .. } => {
                Some((worker.as_str(), *telemetry_events))
            }
            _ => None,
        })
        .collect();
    assert_eq!(accepted.len(), 3);
    assert_eq!(accepted[0], ("spool", Some(0)));
    assert!(accepted[1..].iter().all(|&(w, n)| w == "w1" && n.unwrap() > 0), "{accepted:?}");
    assert_eq!(shards_without_telemetry(&events), 1);
    let transport = metrics_from_events(&events).req("transport").expect("transport").clone();
    assert_eq!(transport.req("shards_without_telemetry").unwrap().as_u64().unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that sends half an upload and then holds its socket stalls
/// only its own connection: two workers finish the campaign well within
/// the 10 s socket timeout the stalled read waits out, and the artifact
/// is the single-process one.
#[test]
fn stalled_client_does_not_stall_the_coordinator() {
    let dir = scratch("stalled");
    let plan = CampaignPlan::new(&matrix(), &config(), 4);
    let coordinator = Coordinator::bind(
        plan,
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 5_000,
            spool: dir.join("spool"),
            trace_path: None,
            stop_after_uploads: None,
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let started = Instant::now();
    let (done, finished) = mpsc::channel();
    let serve = std::thread::spawn(move || {
        let _ = done.send(coordinator.run());
    });

    // A head promising 100 body bytes, then 10 of them, then silence.
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled
        .write_all(b"POST /upload HTTP/1.1\r\ncontent-length: 100\r\n\r\n0123456789")
        .expect("send half a request");

    let workers: Vec<_> = ["w1", "w2"]
        .into_iter()
        .map(|id| {
            let opts = worker_opts(&addr, id);
            std::thread::spawn(move || run_worker(&opts))
        })
        .collect();
    let result = finished
        .recv_timeout(Duration::from_secs(5))
        .expect("the campaign completes within 5 s despite the stalled client")
        .expect("serve ok")
        .expect("completed");
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(to_json(&result, true), golden(), "served artifact drifted from single-process");
    serve.join().expect("serve thread");
    let executed: u64 = workers
        .into_iter()
        .map(|h| h.join().expect("worker thread").expect("worker ok").executed)
        .sum();
    assert_eq!(executed, 4);
    drop(stalled);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A real partial with one cell's `seed_index` changed still carries its
/// plan's fingerprint in the header. The coordinator checks every cell
/// against the plan, answers 400 naming the first bad cell, and leaves
/// the shard pending: two workers then finish the campaign and the
/// artifact is the single-process one.
#[test]
fn upload_with_an_altered_cell_is_rejected_and_the_campaign_completes() {
    let dir = scratch("altered");
    let plan = CampaignPlan::new(&matrix(), &config(), 3);
    let coordinator = Coordinator::bind(
        plan.clone(),
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 30_000,
            spool: dir.join("spool"),
            trace_path: None,
            stop_after_uploads: None,
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());
    let url = CoordinatorUrl::parse(&format!("http://{addr}")).expect("url");

    let mut altered = execute_shard(&plan, 1, 1).expect("shard 1");
    altered.cells[1].cell.seed_index += 1000;
    let (status, body) = request(
        &url,
        "POST",
        "/upload",
        &[("x-specstab-worker", "saboteur")],
        altered.to_json().as_bytes(),
    )
    .expect("upload");
    assert_eq!(status, 400, "an altered cell must not reach the merge");
    let reply = UploadReply::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
    let UploadReply::Rejected { reason } = reply else { panic!("expected a rejection") };
    let bad = plan.shards[1].start + 1;
    assert!(reason.contains(&format!("cell {bad} disagrees with the plan")), "got {reason}");

    let workers: Vec<_> = ["w1", "w2"]
        .into_iter()
        .map(|id| {
            let opts = worker_opts(&addr, id);
            std::thread::spawn(move || run_worker(&opts))
        })
        .collect();
    let executed: u64 = workers
        .into_iter()
        .map(|h| h.join().expect("worker thread").expect("worker ok").executed)
        .sum();
    assert_eq!(executed, 3, "the rejected shard is executed by a worker");
    let result = serve.join().expect("serve thread").expect("serve ok").expect("completed");
    assert_eq!(to_json(&result, true), golden(), "served artifact drifted from single-process");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wire-level behaviour, driven without `run_worker`: `/plan` and
/// `/status` payloads, manual lease + bogus renew, fingerprint rejection,
/// and the duplicate-upload acknowledgement.
#[test]
fn wire_endpoints_status_duplicates_and_rejections() {
    let dir = scratch("wire");
    let plan = CampaignPlan::new(&matrix(), &config(), 2);
    let total_cells = plan.cells.len();
    let coordinator = Coordinator::bind(
        plan.clone(),
        "127.0.0.1:0",
        ServeOptions {
            lease_ms: 30_000,
            spool: dir.join("spool"),
            trace_path: None,
            stop_after_uploads: None,
        },
    )
    .expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let serve = std::thread::spawn(move || coordinator.run());
    let url = CoordinatorUrl::parse(&format!("http://{addr}")).expect("url");

    // GET /plan returns the coordinator's own plan.
    let (status, body) = request(&url, "GET", "/plan", &[], b"").expect("plan");
    assert_eq!(status, 200);
    let fetched = CampaignPlan::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
    assert_eq!(fetched.fingerprint(), plan.fingerprint());

    // GET /status is a specstab-metrics/v1 snapshot of the lease table.
    let (status, body) = request(&url, "GET", "/status", &[], b"").expect("status");
    assert_eq!(status, 200);
    let snapshot = Json::parse(std::str::from_utf8(&body).unwrap()).expect("parses");
    assert_eq!(snapshot.req("schema").unwrap().as_str().unwrap(), "specstab-metrics/v1");
    let serve_obj = snapshot.req("serve").unwrap();
    assert_eq!(serve_obj.req("shards_total").unwrap().as_u64().unwrap(), 2);
    assert_eq!(serve_obj.req("completed").unwrap().as_u64().unwrap(), 0);

    // Manual lease: granted with the plan's fingerprint; a bogus renew is
    // refused while renewing the real lease succeeds.
    let (status, body) =
        request(&url, "POST", "/lease", &[], lease_request("manual").as_bytes()).expect("lease");
    assert_eq!(status, 200);
    let granted = LeaseReply::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
    let LeaseReply::Granted(lease) = granted else { panic!("expected a grant, got {granted:?}") };
    assert_eq!(lease.plan_fingerprint, plan.fingerprint());
    let (_, body) =
        request(&url, "POST", "/renew", &[], renew_request("manual", lease.lease_id).as_bytes())
            .expect("renew");
    assert_eq!(std::str::from_utf8(&body).unwrap(), "{\"renewed\":true}");
    let (_, body) = request(&url, "POST", "/renew", &[], renew_request("manual", 999).as_bytes())
        .expect("bogus renew");
    assert_eq!(std::str::from_utf8(&body).unwrap(), "{\"renewed\":false}");

    // A partial from a different plan is rejected with a 400.
    let mut foreign = execute_shard(&plan, 0, 1).expect("shard 0");
    foreign.plan_fingerprint ^= 1;
    let (status, body) = request(
        &url,
        "POST",
        "/upload",
        &[("x-specstab-worker", "saboteur")],
        foreign.to_json().as_bytes(),
    )
    .expect("rejected upload");
    assert_eq!(status, 400);
    let reply = UploadReply::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
    assert!(matches!(reply, UploadReply::Rejected { .. }), "got {reply:?}");

    // A valid upload is accepted; uploading the identical partial again is
    // acknowledged as a duplicate, not double-counted.
    let shard0 = execute_shard(&plan, 0, 1).expect("shard 0");
    for (round, expect_duplicate) in [(1, false), (2, true)] {
        let (status, body) = request(
            &url,
            "POST",
            "/upload",
            &[("x-specstab-worker", "manual")],
            shard0.to_json().as_bytes(),
        )
        .expect("upload");
        assert_eq!(status, 200, "round {round}");
        let reply = UploadReply::from_json(std::str::from_utf8(&body).unwrap()).expect("parses");
        assert_eq!(reply, UploadReply::Accepted { duplicate: expect_duplicate }, "round {round}");
    }

    // Finish the campaign so the coordinator thread joins cleanly.
    let shard1 = execute_shard(&plan, 1, 1).expect("shard 1");
    let (status, _) = request(
        &url,
        "POST",
        "/upload",
        &[("x-specstab-worker", "manual")],
        shard1.to_json().as_bytes(),
    )
    .expect("final upload");
    assert_eq!(status, 200);
    let result = serve.join().expect("serve thread").expect("serve ok").expect("completed");
    assert_eq!(result.cells.len(), total_cells);
    assert_eq!(to_json(&result, true), golden());
    let _ = std::fs::remove_dir_all(&dir);
}
