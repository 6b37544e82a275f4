#!/usr/bin/env python3
"""Benchmark entry point (see BENCHMARK.json and perfbench/README.md).

    python3 perfbench/run.py --workload eecs_d1 --seed 777 --seconds 10 --trace 0

Builds perfbench_driver from this checkout's sources into .bench_build/,
runs one workload, checks its outcomes, and prints the metrics of
BENCHMARK.json as the last line of stdout:
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero when a correctness check fails or nothing could be measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
DRIVER = BUILD / "perfbench_driver"
DRIVER_TIMEOUT_S = 170

# Outcomes at each workload's committed seed, as the driver prints them
# (%.17g). A run at any other seed checks the threads=1 leg against the
# width-N leg instead (the driver does that on every run).
GOLDENS = {
    "eecs_d1": {"seed": 777, "modeled_j": 259.72189896000015, "humans_detected": 307,
                "humans_present": 322, "windows_evaluated": 2000832, "windows_pruned": 0,
                "digest": ""},
    "offline_all": {"seed": 42, "modeled_j": 217.13670392, "humans_detected": 251,
                    "humans_present": 352, "windows_evaluated": 0, "windows_pruned": 0,
                    "digest": "660d3e6b680c545c"},
}

PINNED_ENV = ("EECS_THREADS", "EECS_SIMD", "EECS_CONTEXT_GATE")

SPANS = ("video.next_frame", "detect.plan", "detect.scaled", "detect.block_grid",
         "detect.acf_channels", "detect.census_grid", "detect.scan.hog", "detect.scan.acf",
         "detect.scan.c4", "detect.scan.lsvm", "imaging.jpeg_bytes", "features.extract",
         "domain.best_match", "reid.group")
# Detect spans whose CostCounter deltas are recorded (all but detect.plan).
OP_SPANS = tuple(s for s in SPANS if s.startswith("detect.") and s != "detect.plan")
CACHES = ("scaled", "block_grid", "acf_channels", "census")
ALGS = ("hog", "acf", "c4", "lsvm")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the driver; cmake's output goes to stderr so
    stdout keeps only the result."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no repository sources next to perfbench/; nothing to build")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def run_driver(args, spans_path):
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    return json.loads(lines[-1])


def check_outcome(workload, seed, raw):
    """Errors of the committed-seed golden check (an empty list when it passes
    or does not apply)."""
    golden = GOLDENS[workload]
    if seed != golden["seed"]:
        return []
    outcome = raw.get("outcome", {})
    return [f"{key}: {outcome.get(key)!r} != golden {want!r}"
            for key, want in golden.items() if key != "seed" and outcome.get(key) != want]


def end_to_end(raw):
    outcome = raw["outcome"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "run_cpu_s": statistics.median(raw["run_cpu_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "modeled_j": outcome["modeled_j"],
        "detection_rate": outcome["humans_detected"] / outcome["humans_present"],
    }


def read_spans(path):
    rows = []
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            rows.append(dict(zip(header, line.rstrip("\n").split("\t"))))
    return rows


def per_layer(workload, raw, spans_path):
    counters = raw["counters"]
    stages = raw["stages"]
    out = {f"core.stage.{name}": stages[name] for name in stages}
    # Base of trace.coverage: the replay is serial, so it is compared with the
    # threads=1 leg (offline_all has no stage split; its base is the whole leg).
    detect_serial = (raw["serial_run_s"] if workload == "offline_all"
                     else raw["serial_detect_s"])
    out["core.stage.detect_serial_s"] = detect_serial
    out["core.run_s"] = raw["run_s"][0]
    out["core.serial_run_s"] = raw["serial_run_s"]
    for alg in ALGS:
        out[f"detect.invocations.{alg}"] = counters[f"detect.invocations.{alg}"]
    out["detect.windows.evaluated"] = counters["detect.windows.evaluated"]
    out["detect.windows.pruned"] = counters["detect.windows.pruned"]
    for cache in CACHES:
        ratio, base = stats.hit_ratio(counters[f"detect.cache.{cache}.hit"],
                                      counters[f"detect.cache.{cache}.miss"])
        out[f"detect.cache.{cache}.hit_ratio"] = ratio
        out[f"detect.cache.{cache}.accesses"] = base
    out["net.messages.sent"] = counters["net.messages.sent"]
    out["net.messages.lost"] = counters["net.messages.lost"]

    rows = read_spans(spans_path)
    intervals = [(int(r["start_ns"]), int(r["end_ns"]), int(r["parent"])) for r in rows]
    selfs = stats.self_times(intervals)
    by_name = {name: [] for name in SPANS}
    for row, (start, end, _), self_ns in zip(rows, intervals, selfs):
        by_name[row["name"]].append((row, end - start, self_ns))
    detect_self_by_alg = {alg: 0 for alg in ALGS}
    for name in SPANS:
        entries = by_name[name]
        durations_ms = [d / 1e6 for _, d, _ in entries]
        self_ns = sum(s for _, _, s in entries)
        out[f"{name}.count"] = len(entries)
        out[f"{name}.self_s"] = self_ns / 1e9
        out[f"{name}.p50_ms"] = statistics.median(durations_ms) if entries else 0.0
        picked = stats.tail(durations_ms)
        # 0 marks "fewer samples than any ladder percentile needs".
        out[f"{name}.tail_pct"] = picked[0] if picked else 0.0
        out[f"{name}.tail_ms"] = picked[1] if picked else 0.0
        if name in OP_SPANS:
            ops = {k: sum(int(r[k]) for r, _, _ in entries)
                   for k in ("pixel_ops", "feature_ops", "classifier_ops")}
            out.update({f"{name}.{k}": v for k, v in ops.items()})
            total_ops = sum(ops.values())
            out[f"{name}.ns_per_op"] = self_ns / total_ops if total_ops else 0.0
        if name.startswith("detect."):
            for r, _, s in entries:
                if r["alg"] in detect_self_by_alg:
                    detect_self_by_alg[r["alg"]] += s
    weighted_s = 0.0
    for alg in ALGS:
        calls = len(by_name[f"detect.scan.{alg}"])
        if calls:
            weighted_s += detect_self_by_alg[alg] / 1e9 / calls * counters[f"detect.invocations.{alg}"]
    out["trace.coverage"] = weighted_s / detect_serial
    out["trace.overhead"] = (statistics.median(raw["replay_traced_s"])
                             / statistics.median(raw["replay_bare_s"]))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GOLDENS))
    parser.add_argument("--seed", type=int,
                        help="scene seed (offline training seed for offline_all); "
                             "default: the workload's committed seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is None:
        args.seed = GOLDENS[args.workload]["seed"]
    for var in PINNED_ENV:
        if var in os.environ:
            fail(f"{var} is set; the workload pins thread width, SIMD mode and gate")
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"{tag}.spans.tsv" if args.trace else None
    raw = run_driver(args, spans_path)

    errors = list(raw.get("errors", [])) + check_outcome(args.workload, args.seed, raw)
    attempted = max(1, raw.get("attempted", 0))
    failed = raw.get("failed", 0)
    try:
        values = per_layer(args.workload, raw, spans_path) if args.trace else end_to_end(raw)
    except (KeyError, TypeError, IndexError, ZeroDivisionError, ValueError, OSError) as e:
        errors.append(f"incomplete driver output: {e!r}")
        values = {}
    if failed == 0 and errors:
        failed = 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None or value != value:  # Missing or NaN.
            errors.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = not errors and failed == 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": raw.get("fingerprint", {}), "outcome": raw.get("outcome", {}),
              "raw": {k: v for k, v in raw.items() if k not in ("fingerprint", "outcome")},
              "errors": errors, "metrics": metrics}
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print("fingerprint " + json.dumps(raw.get("fingerprint", {}), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
