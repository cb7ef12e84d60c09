"""Run-to-run spread of the benchmark: runs each workload once per seed and
prints, per end-to-end metric, the median, the quartiles and the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json.

    python3 tinbench/spread.py [--seeds 1-10] [--workloads a,b] [--out file.json]

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    a = ap.parse_args()
    report = {}
    for w in a.workloads.split(","):
        runs = []
        for s in seeds(a.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = done.stdout.strip().splitlines()[-1:] or [""]
            try:
                runs.append(json.loads(last[0]))
            except ValueError:
                print(f"{w} seed {s}: no result (exit {done.returncode})\n{done.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            steal = [l for l in done.stderr.splitlines() if l.startswith("[tinbench]")]
            print(f"{w} seed {s}: {steal[-1] if steal else ''}", flush=True)
        rows = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": m["bound"], "values": vals}
            print(f"  {m['name']:22s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {(q3 - q1) / med:6.3f}  bound {m['bound']}")
        failed = {(r["failed"], r["attempted"]) for r in runs}
        print(f"  failed/attempted: {sorted(failed)}")
        report[w] = {"metrics": rows, "failed_attempted": sorted(failed)}
    if a.out:
        Path(a.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
