"""Run every workload and print every end-to-end metric with its unit.

    python3 perfbench/report.py [--trace] [--ladder]

Each workload runs in a fresh process (perfbench/run.py) with seed 1 for
``run_seconds`` from BENCHMARK.json, untraced; with
``--trace`` it also runs traced, and the per-layer metrics are printed
after the end-to-end ones.  ``fail_ratio`` (failed / attempted ops) is
printed for each run.  ``--ladder`` appends the scale ladder (ladder.py).
The full record, with provenance (versions, nproc, CPU model, git sha, seed,
op counts, untraced/traced pairing), is written as JSON to
.perfbench_out/report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import ladder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eigen_build", "design_screen", "fusion_enum", "cli_session")
OUT = ROOT / ".perfbench_out" / "report.json"
SEED = 1  # a seed with recorded digests


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-800:], "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["provenance"] = json.loads(lines[-2])["provenance"]
    out["fail_ratio"] = out["failed"] / out["attempted"]
    return out


def show(workload: str, trace: int, result: dict):
    mode = "traced" if trace else "untraced"
    if "error" in result:
        print(f"{workload} ({mode}): FAILED exit {result['exit']}\n{result['error']}")
        return
    print(f"{workload} ({mode}): correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_ratio={result['fail_ratio']:g}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    tail = result["provenance"].get("tail")
    if tail:
        print(f"  {'(op_tail_ms percentile)':<44} {tail['percentile']:>14.4g} "
              f"% of {tail['samples']} ops, {tail['samples_beyond']} beyond")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", action="store_true", help="also run each workload traced")
    p.add_argument("--ladder", action="store_true", help="append the scale ladder")
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {
        "provenance": {"git_sha": git_sha(), "cpu_model": cpu_model(), "nproc": os.cpu_count(),
                       "seed": SEED, "seconds": seconds},
        "runs": [],
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result = run(workload, SEED, seconds, trace)
            show(workload, trace, result)
            ok &= "error" not in result and result["correct"] and result["failed"] == 0
            record["runs"].append({"workload": workload, "trace": trace, **result})
    if args.ladder:
        record["ladder"] = ladder.run_ladder()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
