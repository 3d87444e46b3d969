"""Self-test of the benchmark command at its smallest size.

    python3 perfbench/selftest.py

Runs the command from ``BENCHMARK.json`` once per workload with tracing off
and once with tracing on, with a one-second window (one round of each scene), and
checks that the last line parses, that ``attempted`` and ``failed`` are
present, and that every metric named in ``BENCHMARK.json`` is reported for
every workload with its unit and a finite value above 0. It also checks that
the command fails, without printing a result, in a directory that holds only
the benchmark and not the program. Takes a few minutes; exits 1 on a problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run_command(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_problems(stdout: str, metrics: list[dict]) -> list[str]:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON ({exc})"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        problems.append(f"failed {result['failed']!r}")
    reported = result["metrics"]
    for m in metrics:
        got = reported.get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing")
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            problems.append(f"{m['name']} value {value!r} is not finite and above 0")
    extra = set(reported) - {m["name"] for m in metrics}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_command(spec, ROOT, workload["name"], trace)
            problems = result_problems(proc.stdout, metrics)
            if proc.returncode != 0:
                problems.insert(0, f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
            label = f"{workload['name']} --trace {trace}"
            print(f"{label}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)

    # without the program's sources the command must fail and print no result
    bare = ROOT / ".perfbench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_command(spec, bare, spec["workloads"][0]["name"], 0)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        ok = proc.returncode != 0 and not printed_result
        print(f"without the program: {'ok' if ok else 'FAILED'} (exit code {proc.returncode})")
        failures += not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
