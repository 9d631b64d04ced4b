#!/usr/bin/env python3
"""Campaign benchmark: times real `campaign` invocations end to end.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1|both>

Run it from the root of a checkout. It builds the `campaign` binary and
the traced-run binary (`perfbench-trace`, the crate next to this file)
from source into $CARGO_TARGET_DIR (default `.bench_build`), then:

* `--trace 0`: repeats the workload's `campaign` invocation for `--seconds`
  (at least three times), each preceded by a few set-up samples
  (`campaign plan` on the same matrix), and reports the medians of the
  end-to-end metrics;
* `--trace 1`: does the same untraced repetitions, then one traced run
  that performs the same invocation in-process with a span around every
  layer call, and reports the per-layer metrics.

Every invocation's JSON artifact is checked: exit code 0, no cell errors,
no bound violations, identical bytes across repetitions, the digest
recorded for (workload, seed) in `digests.json` when there is one, and for
the sharded workload byte equality with the in-process run. The traced
run's artifact must equal the untraced one byte for byte.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` (cells; failed = errored, over its
bound, or in a run whose artifact check failed) and `metrics`. With
`--workload all` or `--trace both` the command instead prints every metric
by name with its unit, one per line, followed by a JSON summary.

`python3 perfbench/run.py --record-digests <count>` runs every workload
once for seeds 0..count-1 and rewrites `digests.json`.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREADS = str(min(2, os.cpu_count() or 1))
SETUP_PER_REP = 6
MIN_REPS = 3
RUN_LIMIT_S = 170

# The two large-graph slices share their topologies with the default grid.
LARGE = ["ring:1024", "torus:32x32"]
SMALL = ["ring:12", "torus:3x4", "tree:12", "path:12", "ring:24", "grid:4x6"]

WORKLOADS = {
    # ssme x central-rand at n = 1024 is past ssme's central batch gate
    # (n <= 32): the scalar engine, with full-scan monitors every step.
    "central-scalar": {
        "matrix": ["--topologies", "torus:32x32", "--protocols", "ssme",
                   "--daemons", "central-rand", "--faults", "0,witness", "--seeds", "1"],
        "exec": ["--threads", THREADS],
        "shards": "4",
    },
    # Every group routes to the lane engine (sync and dist:p batch at any n).
    "lanes-batched": {
        "matrix": ["--topologies", ",".join(LARGE), "--protocols", "ssme",
                   "--daemons", "sync,dist:0.5", "--faults", "0,2,witness", "--seeds", "8"],
        "exec": ["--threads", THREADS],
        "shards": "4",
    },
    # Tiny cells over every protocol through plan -> shard subprocesses ->
    # merge: per-cell setup plus transport (plan/partial JSON, spawning).
    "sharded-small": {
        "matrix": ["--topologies", ",".join(SMALL), "--protocols", "all",
                   "--daemons", "sync,central-rr,central-rand,dist:0.5",
                   "--faults", "0,1,2,witness", "--seeds", "3"],
        "exec": ["--workers", THREADS],
        "shards": str(4 * int(THREADS)),
        "run": True,
    },
}


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds both binaries; returns (campaign, perfbench-trace) paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(ROOT / "Cargo.toml"),
         "-p", "specstab-campaign", "--bin", "campaign"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if proc.returncode != 0:
            raise BenchError("build failed:\n" + "\n".join(proc.stdout.splitlines()[-30:]))
    release = target_dir() / "release"
    return release / "campaign", release / "perfbench-trace"


def spawn(argv, work, stderr_name):
    """Runs one process to completion; returns (exit code, wall s, peak RSS KiB).

    The peak resident size comes from wait4's rusage, which covers the
    process and every descendant it waited for.
    """
    env = dict(os.environ, TMPDIR=str(work))
    with open(work / stderr_name, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def load_digests():
    path = BENCH / "digests.json"
    return json.loads(path.read_text()) if path.is_file() else {}


class Measure:
    """The untraced repetitions of one workload and their checks."""

    def __init__(self, name, seed, campaign, work):
        self.name, self.seed, self.campaign, self.work = name, seed, campaign, work
        spec = WORKLOADS[name]
        self.matrix = spec["matrix"] + ["--seed", str(seed)]
        head = ["run"] if spec.get("run") else []
        self.argv = head + self.matrix + spec["exec"]
        self.shards = spec["shards"]
        self.sharded = bool(spec.get("run"))
        self.walls, self.rss, self.setup = [], [], []
        self.attempted = self.failed = 0
        self.cells = self.moves = 0
        self.digest = None
        self.problems = []

    def fail(self, msg):
        self.problems.append(msg)
        log(f"{self.name} seed {self.seed}: CHECK FAILED: {msg}")

    def run_setup(self):
        out = self.work / "setup-plan.json"
        for _ in range(SETUP_PER_REP):
            code, wall, _ = spawn([str(self.campaign), "plan"] + self.matrix +
                                  ["--shards", self.shards, "--out", str(out)], self.work, "plan.err")
            if code != 0:
                raise BenchError(f"campaign plan exited {code}")
            self.setup.append(wall)

    def check(self, artifact, ok):
        """Checks one artifact; returns (cells, moves, failed cells)."""
        data = artifact.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        doc = json.loads(data)
        cells = doc["cells"]
        bad = sum(1 for c in cells if "error" in c or c.get("violated_bound"))
        if bad:
            self.fail(f"{bad} cells errored or exceeded their bound")
        if self.digest is None:
            self.digest = digest
            recorded = load_digests().get(self.name, {}).get(str(self.seed))
            if recorded is not None and recorded != digest:
                ok = False
                self.fail(f"artifact digest {digest} != recorded {recorded}")
            if self.sharded:
                ref = self.work / "inprocess.json"
                code, _, _ = spawn([str(self.campaign)] + self.matrix +
                                   ["--threads", THREADS, "--json", str(ref), "--cells-in-json"],
                                   self.work, "inprocess.err")
                if code != 0 or ref.read_bytes() != data:
                    ok = False
                    self.fail("merged artifact differs from the in-process run")
        elif digest != self.digest:
            ok = False
            self.fail("artifact bytes differ between repetitions")
        moves = sum(c.get("moves", 0) for c in cells)
        return len(cells), moves, len(cells) if not ok else bad

    def rep(self):
        artifact = self.work / "artifact.json"
        if artifact.exists():
            artifact.unlink()
        code, wall, rss = spawn([str(self.campaign)] + self.argv +
                                ["--json", str(artifact), "--cells-in-json"], self.work, "campaign.err")
        if not artifact.is_file():
            tail = (self.work / "campaign.err").read_text(errors="replace")[-2000:]
            raise BenchError(f"campaign exited {code} without an artifact:\n{tail}")
        if code != 0:
            self.fail(f"campaign exited {code}")
        cells, moves, failed = self.check(artifact, code == 0)
        self.walls.append(wall)
        self.rss.append(rss)
        self.cells, self.moves = cells, moves
        self.attempted += cells
        self.failed += failed
        return artifact

    def run(self, seconds):
        # Set-up samples are interleaved with the repetitions so both
        # medians cover the same stretch of machine time.
        started = time.perf_counter()
        while len(self.walls) < MIN_REPS or time.perf_counter() - started < seconds:
            self.run_setup()
            self.rep()
        log(f"{self.name} seed {self.seed}: walls " + " ".join(f"{w:.3f}" for w in self.walls))

    def end_to_end(self):
        wall = statistics.median(self.walls)
        return {
            "wall_s": wall,
            "setup_s": statistics.median(self.setup),
            "cells_per_s": self.cells / wall,
            "moves_per_s": self.moves / wall,
            "peak_rss_mib": statistics.median(self.rss) / 1024.0,
        }


def traced(m, tracer):
    """One traced run after the untraced repetitions; returns per-layer metrics."""
    expect = m.work / "artifact.json"
    tdir = m.work / "traced"
    proc = subprocess.run(
        [str(tracer), "--work", str(tdir), "--campaign", str(m.campaign), "--expect", str(expect),
         "--spans", str(m.work / "spans.ndjson"), "--"] + m.argv,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
        env=dict(os.environ, TMPDIR=str(m.work)))
    if proc.returncode != 0:
        raise BenchError(f"perfbench-trace exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    m.attempted += out["cells"]
    if not out["artifact_match"]:
        m.failed += out["cells"]
        m.fail("traced cell outcomes differ from the untraced artifact")
    metrics = dict(out["metrics"])
    metrics["trace.overhead_ratio"] = out["wall_s"] / statistics.median(m.walls) - 1.0
    return metrics


def units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({x["name"]: x["unit"] for x in spec["end_to_end"]},
            {x["name"]: x["unit"] for x in spec["per_layer"]})


def measure(name, seed, seconds, trace, binaries):
    """Runs one workload; returns the result object."""
    e2e_units, layer_units = units()
    campaign, tracer = binaries
    work = Path(".bench_work").resolve() / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        m = Measure(name, seed, campaign, work)
        m.run(seconds)
        if trace:
            values, wanted = traced(m, tracer), layer_units
        else:
            values, wanted = m.end_to_end(), e2e_units
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = set(wanted) - set(values)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in wanted.items()}
    return {"correct": not m.problems, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def record_digests(count, binaries):
    digests = {}
    work = Path(".bench_work").resolve() / f"record-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in WORKLOADS:
            digests[name] = {}
            for seed in range(count):
                m = Measure(name, seed, binaries[0], work)
                m.rep()
                if m.problems:
                    raise BenchError(f"{name} seed {seed}: {m.problems}")
                digests[name][str(seed)] = m.digest
                log(f"{name} seed {seed}: {m.digest}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def on_alarm(_signum, _frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1", "both"], default="0")
    ap.add_argument("--record-digests", type=int, metavar="COUNT")
    args = ap.parse_args()
    try:
        binaries = build()
        if args.record_digests:
            record_digests(args.record_digests, binaries)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        signal.signal(signal.SIGALRM, on_alarm)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        modes = [False, True] if args.trace == "both" else [args.trace == "1"]
        if len(names) == 1 and len(modes) == 1:
            signal.alarm(RUN_LIMIT_S)
            print(json.dumps(measure(names[0], args.seed, args.seconds, modes[0], binaries)))
            return 0
        summary = {}
        for name in names:
            for trace in modes:
                signal.alarm(RUN_LIMIT_S)
                r = measure(name, args.seed, args.seconds, trace, binaries)
                for k, v in r["metrics"].items():
                    print(f"{name:15s} {k:30s} {v['value']:>16.6g} {v['unit']}")
                s = summary.setdefault(name, {"correct": True, "attempted": 0, "failed": 0})
                s["correct"] &= r["correct"]
                s["attempted"] += r["attempted"]
                s["failed"] += r["failed"]
                s["failed_ratio"] = s["failed"] / s["attempted"]
        signal.alarm(0)
        print(json.dumps(summary))
        return 0
    except BenchError as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
