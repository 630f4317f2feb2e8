#!/usr/bin/env python3
"""Host-time benchmark of the Charon simulator.

Run from the repository root:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

It builds perfbench_driver (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), sets up
three times, measures once, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (serial, one job; the cell sets are in driver.cc):
  cold  record BS KM LR ALS with ParallelScavenge, and KM with G1, CMS
        and RC, into an empty trace cache; replay each on DDR4, HMC,
        Charon and Ideal; render
  warm  BS KM LR CC ALS from the cache set-up filled: read, decode,
        replay, render.  The CC recording is in warm's setup_s only:
        its host time swings most with other tenants' cache traffic.

Set-up is one cold pass that fills the cache and writes the reference
digest of every cell; every measured pass must reproduce those digests
bit for bit.  setup_s is the median wall time of three set-ups, each
in its own process.

A pass is split into parts, and a time is each part's best over the
run's passes: other guests sharing the host's cores and caches only
ever add time, and they come and go within seconds.

--trace 0 reports the end-to-end metrics: pass_ms, the wall time of a
pass through ExperimentRunner, summed over its parts (each functional
key's cells, then the render); peak_rss_mib, the measuring process's
peak resident set; setup_s.

--trace 1 reports per-layer metrics from passes in which the driver
makes the runner's layer calls itself inside spans; a part is the
self time of one span name:
  record          mutator, functional GC and trace recorder
  cache_store     encode, file write, fsync and rename
  cache_load      file read and decode (on a miss: the failed open)
  encode, decode  the codec alone, in memory, after the pass
  replay_<plat>   PlatformSim::simulate on one platform
  render          building and printing the report
  harness         what is left of the pass outside those spans
and traced_pass_ms, the best traced pass, plus record_mib_per_s
(simulated MiB the mutators allocate per host second of recording),
replay_mevents_per_s (simulation events per host second of replay),
cache hits and misses, functional collections, encoded trace KiB and
replay events.  host_probe_ms is the median time of a fixed speed probe
the driver runs between passes: it moves with the host, not with the
simulator, and tells a slow run on a busy host from a slow program.
The spans of a traced run are kept as a Chrome trace in
$CARGO_TARGET_DIR/perfbench/spans-<workload>-s<seed>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUPS = 3
# The whole run, set-up and measuring, after the build.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target",
           "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_driver"


def best(res, group):
    """Each part's least value over the run's passes."""
    return {k: min(v) for k, v in res[group].items()}


def layer_metrics(res):
    layers = best(res, "parts")
    counts = best(res, "counts")
    replay_ms = sum(layers[f"replay_{p}"]
                    for p in ("ddr4", "hmc", "charon", "ideal"))
    probe = res["probe"]
    metrics = {
        "traced_pass_ms": (min(res["pass_ms"]), "ms"),
        "harness_ms": (layers["pass"] + layers["key"], "ms"),
        "record_ms": (layers["record"], "ms"),
        "cache_store_ms": (layers["cache_store"], "ms"),
        "cache_load_ms": (layers["cache_load"], "ms"),
        "encode_ms": (layers["encode"], "ms"),
        "decode_ms": (layers["decode"], "ms"),
        "replay_ddr4_ms": (layers["replay_ddr4"], "ms"),
        "replay_hmc_ms": (layers["replay_hmc"], "ms"),
        "replay_charon_ms": (layers["replay_charon"], "ms"),
        "replay_ideal_ms": (layers["replay_ideal"], "ms"),
        "render_ms": (layers["render"], "ms"),
        "record_mib_per_s": (
            counts["allocated_bytes"] / 2**20 / (layers["record"] / 1e3)
            if layers["record"] > 0 else 0.0, "MiB/s"),
        "replay_mevents_per_s": (
            counts["replay_events"] / 1e6 / (replay_ms / 1e3)
            if replay_ms > 0 else 0.0, "Mevents/s"),
        "cache_hits": (counts["cache_hits"], "count"),
        "cache_misses": (counts["cache_misses"], "count"),
        "functional_gcs": (counts["functional_gcs"], "count"),
        "trace_kib": (counts["trace_bytes"] / 1024, "KiB"),
        "replay_events": (counts["replay_events"], "count"),
        "host_probe_ms": (statistics.median(
            a + c for a, c in zip(probe["alu"], probe["chase"])), "ms"),
    }
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["cold", "warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    if not (SRC_DIR / "CMakeLists.txt").exists():
        fail(f"simulator sources not found at {SRC_DIR}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "perfbench").resolve()
    driver = build(build_dir)

    start = time.monotonic()
    work = build_dir / f"work-{args.workload}-{os.getpid()}"
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--dir={work}"]

    def remaining():
        left = RUN_BUDGET_S - (time.monotonic() - start)
        if left <= 0:
            fail("out of time")
        return left

    try:
        setup_s = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            rc = subprocess.run([str(driver), "--mode=setup"] + common,
                                stdout=sys.stderr,
                                timeout=remaining()).returncode
            setup_s.append(time.perf_counter() - t0)
            if rc != 0:
                fail(f"set-up exited with {rc}")

        proc = subprocess.run(
            [str(driver), "--mode=measure", f"--seconds={args.seconds}",
             f"--trace={args.trace}"] + common,
            stdout=subprocess.PIPE, text=True, timeout=remaining())
        if proc.returncode != 0:
            fail(f"measure exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail("measure printed nothing")
        res = json.loads(lines[-1])

        if args.trace:
            metrics = layer_metrics(res)
            spans = work / "spans.json"
            if spans.exists():
                shutil.copyfile(spans, build_dir / (
                    f"spans-{args.workload}-s{args.seed}.json"))
        else:
            metrics = {
                "pass_ms": (sum(best(res, "parts").values()), "ms"),
                "peak_rss_mib": (res["peak_rss_kib"] / 1024, "MiB"),
                "setup_s": (statistics.median(setup_s), "s"),
            }
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
