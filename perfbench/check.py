"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/check.py

Checks, each printed as PASS or FAIL (exit code 1 on any failure):

1. ``fedavg-64c-socket`` gives the same accuracy matrix and per-round bytes
   as the serial engine on the same inputs (seed 0);
2. every workload passes its output checks at the default seed, untraced
   and traced (one repetition each, through ``perfbench/run.py``);
3. the printed metric names and units match ``BENCHMARK.json``;
4. ``perfbench/layers.json`` covers every per-layer metric, and each
   per-layer metric reads exactly 0 on the workloads it predicts do none
   of that layer's work;
5. in a directory holding only ``BENCHMARK.json`` and the benchmark's
   files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def _run_bench(workload: str, trace: int, cwd: Path = ROOT):
    child = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    lines = child.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return child, result


def check_socket_matches_serial() -> list[str]:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS["fedavg-64c-socket"]
    results = {}
    for engine in ("socket:2", "serial"):
        with workload.build(0, engine=engine) as trainer:
            results[engine] = trainer.run()
    socket, serial = results["socket:2"], results["serial"]
    problems = []
    if not np.array_equal(socket.accuracy_matrix, serial.accuracy_matrix,
                          equal_nan=True):
        problems.append("accuracy matrices differ between socket and serial")
    for field in ("upload_bytes", "download_bytes"):
        if [getattr(r, field) for r in socket.rounds] != [
            getattr(r, field) for r in serial.rounds
        ]:
            problems.append(f"per-round {field} differ between socket and serial")
    return problems


def check_workloads(bench: dict, layers: dict) -> tuple[list[str], list[str], list[str]]:
    """Checks 2-4 from one untraced and one traced run per workload."""
    run_problems, name_problems, layer_problems = [], [], []
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for spec in bench["workloads"]:
        workload = spec["name"]
        for trace in (0, 1):
            child, result = _run_bench(workload, trace)
            tag = f"{workload} --trace {trace}"
            if child.returncode != 0 or result is None:
                run_problems.append(
                    f"{tag}: exit {child.returncode}\n{child.stderr[-2000:]}"
                )
                continue
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                run_problems.append(f"{tag}: {result}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                name_problems.append(
                    f"{tag}: printed {sorted(printed.items())} but "
                    f"BENCHMARK.json lists {sorted(expected[trace].items())}"
                )
            if trace:
                for name, entry in layers.items():
                    value = result["metrics"].get(name, {}).get("value")
                    if workload in entry["zero_on"] and value != 0:
                        layer_problems.append(
                            f"{name} reads {value} on {workload}, "
                            f"predicted 0"
                        )
    return run_problems, name_problems, layer_problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        child, result = _run_bench("fedknow-10task", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if child.returncode == 0 or result is not None:
        return [f"exit {child.returncode}, result {result}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    coverage = []
    if set(layers) != per_layer:
        coverage.append(
            f"layers.json and BENCHMARK.json per_layer differ: "
            f"{sorted(set(layers) ^ per_layer)}"
        )
    runs, names, zeros = check_workloads(bench, layers)
    checks = [
        ("socket engine matches serial", check_socket_matches_serial()),
        ("workloads pass their checks at the default seed", runs),
        ("metric names and units match BENCHMARK.json", names),
        ("layers.json covers per_layer; no-work predictions hold",
         coverage + zeros),
        ("bare directory exits non-zero without a result",
         check_bare_directory()),
    ]
    failed = 0
    for title, problems in checks:
        print(f"{'FAIL' if problems else 'PASS'}  {title}")
        for problem in problems:
            print(f"      {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
