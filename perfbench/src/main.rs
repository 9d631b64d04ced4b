//! `perfbench-trace`: the traced run of one `campaign` invocation.
//!
//! ```text
//! perfbench-trace --work <dir> [--campaign <bin>] [--expect <artifact.json>] \
//!                 [--spans <out.ndjson>] -- <campaign run arguments>
//! ```
//!
//! Prints one JSON object: the traced wall time, the cell count, whether
//! the traced artifact equals `--expect` byte for byte (`null` without
//! it), and every per-layer metric by name.

use perfbench::drive::{traced_run, Invocation, Options};
use perfbench::trace::spans_ndjson;
use std::path::PathBuf;

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench-trace: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let split =
        argv.iter().position(|a| a == "--").ok_or("missing `--` before the campaign arguments")?;
    let (own, campaign) = (&argv[..split], &argv[split + 1..]);
    let mut opts = Options::default();
    let mut expect = None;
    let mut spans = None;
    for pair in own.chunks(2) {
        let [key, val] = pair else { return Err(format!("{} needs a value", pair[0])) };
        match key.as_str() {
            "--work" => opts.work_dir = PathBuf::from(val),
            "--campaign" => opts.campaign_bin = Some(PathBuf::from(val)),
            "--expect" => expect = Some(PathBuf::from(val)),
            "--spans" => spans = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown option {key}")),
        }
    }
    if opts.work_dir.as_os_str().is_empty() {
        return Err("--work is required".into());
    }
    let inv = Invocation::parse(campaign)?;
    let run = traced_run(&inv, &opts)?;
    if let Some(path) = &spans {
        std::fs::write(path, spans_ndjson(&run.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let matches = match &expect {
        Some(path) => {
            let want = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            (want == run.artifact).to_string()
        }
        None => "null".to_string(),
    };
    let metrics: Vec<String> = run.metrics.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!(
        "{{\"wall_s\":{},\"cells\":{},\"artifact_match\":{matches},\"spans\":{},\"metrics\":{{{}}}}}",
        run.wall_s,
        run.cells,
        run.spans.len(),
        metrics.join(",")
    );
    Ok(())
}
