"""Repeat the benchmark over seeds, report the spread and write a baseline.

    python3 perfbench/prove.py
    python3 perfbench/prove.py --traced 2 --out perfbench/baseline.json

For every workload in BENCHMARK.json, runs run.py once per seed 1..10 for
BENCHMARK.json's run_seconds, one process at a time. For every end-to-end
metric it reports the median of the runs and the spread (q3 - q1) / median,
with q1 and q3 from statistics.quantiles(values, n=4), next to a third of
the metric's bound. --traced K adds K traced runs per workload, takes each
per-layer metric's median over them and checks that every count metric
repeats exactly. Exits nonzero if a run fails, a spread reaches a third of
its bound, or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    """Run run.py once; return (result line, notes, environment)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    tagged = {line.split(": ", 1)[0]: json.loads(line.split(": ", 1)[1])
              for line in lines if line.startswith(("notes: ", "env: "))}
    return json.loads(lines[-1]), tagged["notes"], tagged["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    baseline = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}

    for workload in (w["name"] for w in spec["workloads"]):
        values, notes = {}, []
        for seed in SEEDS:
            result, note, env = run_once(workload, seed, seconds, trace=False)
            baseline.setdefault("environment", env)
            notes.append(note)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items())
                + f"  import_s={note['import_s']}"
                f"  setups_s={note['setups_s']}", flush=True)
        e2e = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            steady = spread < bounds[name] / 3
            ok &= steady
            e2e[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds[name],
                         "values": vals}
            print(f"  {workload:13s} {name:17s} median {median:.6g}  "
                  f"spread {spread:.4f}  bound/3 {bounds[name] / 3:.4f}"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
        entry = {"end_to_end": e2e, "notes": notes}

        if args.traced:
            runs = [run_once(workload, seed, seconds, trace=True)[0]
                    for seed in SEEDS[:args.traced]]
            ok &= all(r["correct"] for r in runs)
            layer = {k: statistics.median(r["metrics"][k]["value"]
                                          for r in runs)
                     for k in runs[0]["metrics"]}
            unstable = sorted(
                k for k, m in runs[0]["metrics"].items()
                if m["unit"] == "count"
                and any(r["metrics"][k]["value"] != m["value"] for r in runs))
            ok &= not unstable
            entry["per_layer"] = layer
            entry["counts_not_repeating"] = unstable
            print(f"  {workload}: {len(runs)} traced runs, counts that did "
                  f"not repeat: {unstable or 'none'}, trace.overhead "
                  f"{layer['trace.overhead']:.4f}", flush=True)
        baseline["workloads"][workload] = entry

    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
