#!/usr/bin/env python3
"""Compare two result records written by run.py.

    python3 perfbench/compare.py OLD.json NEW.json

The outcome (modeled joules, humans, windows, digest) of the same workload
and seed must match exactly on any host. Timings are compared against the
bounds of BENCHMARK.json only when both records carry the same host and build
fingerprint; otherwise they are reported as not comparable. Both records
must come from --trace 0 runs, which carry the end-to-end metrics. Exits 1 on
an outcome mismatch, a metric worse than its bound, or when no metric could
be compared.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
    for path, record in zip(argv[1:], (old, new)):
        if record.get("trace") != 0:
            print(f"{path}: not a --trace 0 record; per-layer metrics have no bounds",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = False

    same_input = all(old[k] == new[k] for k in ("workload", "seed"))
    if same_input and old["outcome"] != new["outcome"]:
        print(f"OUTCOME MISMATCH: {old['outcome']} != {new['outcome']}")
        bad = True
    elif same_input:
        print("outcome: identical")
    else:
        print("outcome: different workload or seed, not compared")

    differing = sorted(k for k in set(old["fingerprint"]) | set(new["fingerprint"])
                       if old["fingerprint"].get(k) != new["fingerprint"].get(k))
    if differing:
        print("timings: not comparable, fingerprints differ in " + ", ".join(differing))
        return 1 if bad else 0

    compared = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in old["metrics"] or name not in new["metrics"]:
            print(f"{name:16s} missing from a record, not compared")
            continue
        compared += 1
        a, b = old["metrics"][name]["value"], new["metrics"][name]["value"]
        change = (b - a) / a if a else 0.0
        worse = change if metric["better"] == "lower" else -change
        verdict = "REGRESSION" if worse > metric["bound"] else "ok"
        bad |= verdict == "REGRESSION"
        print(f"{name:16s} {a:14.6g} -> {b:14.6g} {change:+8.2%} "
              f"(bound {metric['bound']:.0%}) {verdict}")
    if compared == 0:
        print("no end-to-end metric in both records; nothing was compared")
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
