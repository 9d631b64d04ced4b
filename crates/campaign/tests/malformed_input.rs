//! Malformed-input property suite for what the campaign reads from outside
//! the process: HTTP requests ([`read_request`]), event streams
//! ([`parse_ndjson`]), plans ([`CampaignPlan::from_json`]) and partial
//! artifacts ([`PartialArtifact::from_json`], `telemetry` section
//! included).
//!
//! Truncations, sampled byte mutations and, for HTTP, `Content-Length`
//! values that disagree with the body must come back as `Err`s, never a
//! panic. A request's buffers must stay bounded by the bytes actually
//! supplied, whatever length it claims: a counting global allocator keeps
//! a per-thread peak of live heap bytes, so the suite's tests can run in
//! parallel. The documents are real ones — a plan, and a worker's partial
//! with its shard event stream — built once in-process.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use specstab_campaign::artifact::PartialArtifact;
use specstab_campaign::executor::CampaignConfig;
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_campaign::plan::CampaignPlan;
use specstab_campaign::serve::http::{read_request, MAX_BODY};
use specstab_campaign::shard::execute_shard_traced;
use specstab_telemetry::{parse_ndjson, TraceWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Heap bytes this thread allocated and has not freed.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`peak_during`] reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct PeakAlloc;

fn track(grow: usize, shrink: usize) {
    // `try_with`: the slots are gone while a thread tears down.
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + grow).saturating_sub(shrink);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the wrapper only updates two
// thread-local counters, which never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the copy it may be: both blocks live at once.
        track(new_size, 0);
        track(0, layout.size());
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the peak of this thread's live
/// heap bytes above the level `f` started from.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get).saturating_sub(base))
}

/// The real documents the parsers are fed.
struct Docs {
    plan: String,
    partial: String,
    events: String,
}

fn docs() -> &'static Docs {
    static DOCS: OnceLock<Docs> = OnceLock::new();
    DOCS.get_or_init(|| {
        let matrix = ScenarioMatrix::builder()
            .topologies(["ring:6"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rand"])
            .fault_bursts([0, 1])
            .seeds(0..1)
            .build();
        let config = CampaignConfig { max_steps: 10_000, ..CampaignConfig::default() };
        let plan = CampaignPlan::new(&matrix, &config, 2);
        let mut trace = TraceWriter::in_memory(Some(1), "work");
        let mut partial = execute_shard_traced(&mut trace, &plan, 1, 1).expect("shard 1 runs");
        partial.telemetry = trace.into_events();
        let events = partial.telemetry.iter().map(|e| e.to_json_line() + "\n").collect();
        Docs { plan: plan.to_json(), partial: partial.to_json(), events }
    })
}

/// Checks every reader over `text`: it must return, never panic.
fn read_all(text: &str) {
    let _ = CampaignPlan::from_json(text);
    let _ = PartialArtifact::from_json(text);
    let _ = parse_ndjson(text);
}

/// Replacement bytes for mutations: structural characters, escape and
/// number characters, raw control bytes, and arbitrary bytes.
fn mutation_byte(rng: &mut StdRng) -> u8 {
    const SPECIAL: &[u8] = b"{}[]\":,\\/u0123456789-+.eEtfn \n\t\r\x00\x01\x1f\x7f";
    if rng.gen_bool(0.5) {
        *SPECIAL.choose(rng).expect("non-empty")
    } else {
        rng.gen_range(0..=255u8)
    }
}

#[test]
fn intact_documents_parse() {
    let docs = docs();
    let plan = CampaignPlan::from_json(&docs.plan).expect("plan parses");
    assert_eq!(plan.shards.len(), 2);
    let partial = PartialArtifact::from_json(&docs.partial).expect("partial parses");
    assert_eq!(partial.shard_id, 1);
    let tags: Vec<&str> = partial.telemetry.iter().map(|e| e.kind.tag()).collect();
    assert_eq!(tags.first(), Some(&"stream"));
    assert_eq!(tags.last(), Some(&"shard_end"));
    assert!(tags.contains(&"cell") && tags.contains(&"group"));
    assert_eq!(parse_ndjson(&docs.events).expect("events parse"), partial.telemetry);
}

/// Every truncation short of the closing brace is an error; none panics.
#[test]
fn every_truncation_fails_cleanly() {
    let docs = docs();
    let cuts = |text: &'static str| {
        (0..text.trim_end().len()).filter(|&i| text.is_char_boundary(i)).map(|i| &text[..i])
    };
    for prefix in cuts(&docs.plan) {
        assert!(CampaignPlan::from_json(prefix).is_err(), "plan of {} bytes", prefix.len());
    }
    for prefix in cuts(&docs.partial) {
        assert!(PartialArtifact::from_json(prefix).is_err(), "partial of {} bytes", prefix.len());
    }
    let full = parse_ndjson(&docs.events).expect("events parse").len();
    for cut in (0..docs.events.len()).filter(|&i| docs.events.is_char_boundary(i)) {
        if let Ok(events) = parse_ndjson(&docs.events[..cut]) {
            assert!(events.len() <= full);
        }
    }
}

/// A partial whose telemetry is not one valid stream of its own shard is
/// rejected, not spliced into a coordinator's trace.
#[test]
fn partials_with_foreign_or_broken_telemetry_are_rejected() {
    let intact = PartialArtifact::from_json(&docs().partial).expect("partial parses");
    type Breakage = (&'static str, fn(&mut PartialArtifact));
    let breakages: [Breakage; 4] = [
        ("a foreign shard's event", |p| p.telemetry[2].shard = Some(0)),
        ("an unstamped event", |p| p.telemetry[2].shard = None),
        ("a sequence gap", |p| p.telemetry[2].seq += 5),
        ("a missing stream header", |p| {
            p.telemetry.remove(0);
        }),
    ];
    for (why, breakage) in breakages {
        let mut broken = intact.clone();
        breakage(&mut broken);
        assert!(PartialArtifact::from_json(&broken.to_json()).is_err(), "{why} accepted");
    }
    let empty = docs().partial.replacen("\"telemetry\": [", "\"telemetry\": [],\n  \"x\": [", 1);
    assert!(PartialArtifact::from_json(&empty).is_err(), "an empty stream is not a stream");
}

/// A well-formed request for `/upload` with `body`, claiming `claimed`
/// body bytes.
fn upload_request(claimed: usize, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /upload HTTP/1.1\r\nx-specstab-worker: w1\r\ncontent-length: {claimed}\r\n\r\n"
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Heap bytes a read of `supplied` bytes may hold at its peak: the head
/// buffer and the body, each at most twice what arrived while growing,
/// plus one read chunk.
fn allocation_bound(supplied: usize) -> usize {
    4 * supplied + 64 * 1024
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever `Content-Length` claims, the reader returns exactly the
    /// claimed body when it arrived, a typed error when it did not or
    /// when the claim exceeds `MAX_BODY`, and never holds more heap than
    /// the bytes supplied account for.
    #[test]
    fn content_length_mismatches_fail_typed_and_allocate_what_arrived(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body: Vec<u8> = (0..rng.gen_range(0..40_000usize)).map(|_| rng.gen_range(0..=255u8)).collect();
        let claimed = match rng.gen_range(0..3u8) {
            0 => rng.gen_range(0..=body.len()),
            1 => rng.gen_range(body.len()..=MAX_BODY),
            _ => rng.gen_range(MAX_BODY + 1..=usize::MAX / 2),
        };
        let bytes = upload_request(claimed, &body);
        let (read, peak) = peak_during(|| read_request(&mut bytes.as_slice()));
        prop_assert!(peak <= allocation_bound(bytes.len()), "{peak} bytes for {}", bytes.len());
        if claimed > MAX_BODY {
            prop_assert!(read.expect_err("oversized claim").contains("exceeds"));
        } else if claimed <= body.len() {
            let request = read.expect("a complete request reads");
            prop_assert_eq!(request.header("x-specstab-worker"), Some("w1"));
            prop_assert_eq!(&request.body[..], &body[..claimed]);
        } else {
            let err = read.expect_err("a short body");
            prop_assert!(err.contains(&format!("of {claimed} body bytes")), "{}", err);
        }
    }

    /// Every truncation of a request is an error; sampled byte mutations
    /// return `Ok` or `Err` without panicking, and whatever they read
    /// stays within the bytes supplied.
    #[test]
    fn truncated_and_mutated_requests_fail_cleanly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body: Vec<u8> = (0..rng.gen_range(0..200usize)).map(|_| rng.gen_range(b' '..=b'~')).collect();
        let bytes = upload_request(body.len(), &body);
        for cut in 0..bytes.len() {
            prop_assert!(read_request(&mut &bytes[..cut]).is_err(), "{} of {} bytes read", cut, bytes.len());
        }
        let mut mutated = bytes.clone();
        for _ in 0..64 {
            let at = rng.gen_range(0..mutated.len());
            mutated[at] = mutation_byte(&mut rng);
            let (read, peak) = peak_during(|| read_request(&mut mutated.as_slice()));
            prop_assert!(peak <= allocation_bound(mutated.len()));
            if let Ok(request) = read {
                prop_assert!(request.body.len() <= mutated.len());
            }
        }
    }

    /// Sampled byte mutations of the real plan, partial and event stream:
    /// every reader returns `Ok` or `Err`, never panics.
    #[test]
    fn mutated_documents_fail_cleanly(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs = docs();
        for text in [&docs.plan, &docs.partial, &docs.events] {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..8 {
                let at = rng.gen_range(0..bytes.len());
                let original = std::mem::replace(&mut bytes[at], mutation_byte(&mut rng));
                // Only valid UTF-8 reaches the readers (`/upload` checks first).
                match std::str::from_utf8(&bytes) {
                    Ok(text) => read_all(text),
                    Err(_) => bytes[at] = original,
                }
            }
        }
    }
}
