"""Run every workload over several seeds and write the seed baseline.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each workload runs once per seed in SEEDS with ``--trace 0`` and once
more at the first seed with ``--trace 1``, with run_seconds from BENCHMARK.json.
For each end-to-end metric the output holds the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile range
over median) and every value; the traced per-layer figures are stored
as measured.  Takes about 25 minutes for ten seeds.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(10))


def run(spec, workload, seed, trace):
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    machine = json.loads(lines[-2])["machine"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result}")
    return machine, result


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        results = []
        for seed in SEEDS:
            machine, result = run(spec, name, seed, 0)
            results.append(result)
            out.setdefault("machine", machine)
        end_to_end = {
            metric: summary([r["metrics"][metric]["value"] for r in results])
            for metric in bounds}
        _, traced = run(spec, name, SEEDS[0], 1)
        out["workloads"][name] = {
            "attempted": [r["attempted"] for r in results],
            "end_to_end": end_to_end,
            "per_layer_at_first_seed": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for metric, s in end_to_end.items():
            print(f"{name:15s} {metric:12s} median {s['median']:.4f}  spread {s['spread']:.4f}"
                  f"  bound {bounds[metric]}")
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
