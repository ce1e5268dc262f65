"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload, that an untraced and two traced runs pass
their gates and emit exactly the metrics BENCHMARK.json names, each
with its unit; that the traced counters repeat exactly between runs;
that the repro_casn graph counters match the acceptance schedule; and
that the benchmark exits non-zero, printing no result, in a directory
holding only BENCHMARK.json and the benchmark.
"""

import json
import shutil
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_work" / "smoke"

# exact counters of one tiny repro_casn operation: 400 steps, an
# adversary phase of 10 steps every 50
TINY_REPRO_COUNTS = {
    "autodiff.backward_calls": 400 + 400 // 50 * 10,
    "autodiff.nodes_per_min_objective": 142,
    "autodiff.nodes_per_max_objective": 118,
    "autodiff.useful_node_frac_min": 73 / 142,
    "autodiff.useful_node_frac_max": 47 / 118,
}


def bench(command, workload, trace, cwd=ROOT):
    return subprocess.run(
        command + ["--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc, what):
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        raise AssertionError(f"{what}: {result}")
    return result["metrics"]


def check_names(metrics, declared, what):
    emitted = {name: m["unit"] for name, m in metrics.items()}
    expected = {m["name"]: m["unit"] for m in declared}
    if emitted != expected:
        raise AssertionError(f"{what}: emitted {emitted}\nexpected {expected}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = spec["command"]
    for entry in spec["workloads"]:
        name = entry["name"]
        check_names(result_of(bench(command, name, 0), name), spec["end_to_end"], name)
        runs = [result_of(bench(command, name, 1), f"{name} traced") for _ in range(2)]
        for metrics in runs:
            check_names(metrics, spec["per_layer"], f"{name} traced")
        counts = [{k: m["value"] for k, m in r.items()
                   if m["unit"] == "count" or k.startswith("autodiff.useful")} for r in runs]
        if counts[0] != counts[1]:
            raise AssertionError(f"{name}: counters differ between runs: {counts}")
        if name == "repro_casn":
            for key, value in TINY_REPRO_COUNTS.items():
                if counts[0][key] != value:
                    raise AssertionError(f"{key} = {counts[0][key]}, expected {value}")
            coverage = runs[0]["trace_coverage_frac"]["value"]
            if not 0.95 <= coverage <= 1.05:
                raise AssertionError(f"spans cover {coverage:.3f} of the traced wall time")
        print(f"ok {name}")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(command, spec["workloads"][0]["name"], 0, cwd=SCRATCH)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError(f"ran without sources: exit {proc.returncode}\n{proc.stdout}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        if not any(SCRATCH.parent.iterdir()):
            SCRATCH.parent.rmdir()
    print("ok refuses to run without sources")


if __name__ == "__main__":
    main()
