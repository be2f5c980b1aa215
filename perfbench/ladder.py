"""Scale ladder: per-stage time of the eigenstructure pipeline by group size.

    python3 perfbench/ladder.py

This is a report, not a workload, and nothing gates on it.  Each case
(Z_12, Z_16, Z_20, Z_30 and Dic_3 ... Dic_13) builds the group and
character table, then runs conj_class_scheme, eigendata_from_characters,
krein_parameters, galois_fusion over Q and rational_class_fusion, recording
each stage's time next to |X|, d+1, the conductor n and phi(n).  Cases run
one at a time, each in its own process with a timeout, so a slow case is
recorded as slow (with the stages it finished) instead of hanging the run.
The result is printed as a table and written as JSON to
.perfbench_out/ladder.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CASES = tuple(("cyclic", n) for n in (12, 16, 20, 30)) + tuple(
    ("dicyclic", n) for n in (3, 5, 7, 9, 11, 13))
TIMEOUT = 60.0  # seconds per case
OUT = ROOT / ".perfbench_out" / "ladder.json"


def run_case(family: str, n: int):
    """Child process: print one JSON line per finished stage."""
    sys.path.insert(0, str(ROOT / "src"))
    from delsarte import fusion, groups, scheme
    from delsarte.cyclotomic import SubfieldSpec, euler_phi

    def emit(**fields):
        print(json.dumps(fields), flush=True)

    t = perf_counter()
    group, classes, table = groups.builtin_group(family, n)
    emit(stage="build", s=perf_counter() - t, order=group.order,
         classes=len(classes.classes), conductor=table.conductor,
         phi=euler_phi(table.conductor))
    stages = (
        ("conj_class_scheme", lambda: groups.conj_class_scheme(group)[0]),
        ("eigendata_from_characters",
         lambda: groups.eigendata_from_characters(group, classes, table, sch)),
        ("krein_parameters", lambda: scheme.krein_parameters(eig)),
        ("galois_fusion",
         lambda: fusion.galois_fusion(sch, eig, SubfieldSpec.rationals(eig.conductor))),
        ("rational_class_fusion",
         lambda: groups.rational_class_fusion(group, classes, sch, eig)),
    )
    sch = eig = None
    for name, stage in stages:
        t = perf_counter()
        out = stage()
        emit(stage=name, s=perf_counter() - t)
        if name == "conj_class_scheme":
            sch = out
        elif name == "eigendata_from_characters":
            eig = out


def measure(family: str, n: int) -> dict:
    cmd = [sys.executable, str(HERE / "ladder.py"), "--case", f"{family}:{n}"]
    record = {"family": family, "n": n, "timeout_s": TIMEOUT}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT)
        text, status = proc.stdout, "ok" if proc.returncode == 0 else "error"
        if proc.returncode:
            record["stderr"] = proc.stderr.strip()[-400:]
    except subprocess.TimeoutExpired as exc:
        text, status = exc.stdout or "", "timeout"
        if isinstance(text, bytes):
            text = text.decode()
    record["status"] = status
    record["stages"] = {}
    for line in text.splitlines():
        fields = json.loads(line)
        record["stages"][fields.pop("stage")] = fields.pop("s")
        record.update(fields)
    return record


def run_ladder() -> list[dict]:
    """Measure every case, print the table, write OUT and return the records."""
    records = []
    print(f"{'case':<12} {'|X|':>4} {'d+1':>4} {'n':>4} {'phi':>4}  status   stage seconds")
    for family, n in CASES:
        r = measure(family, n)
        records.append(r)
        stages = " ".join(f"{k}={v:.3f}" for k, v in r["stages"].items())
        print(f"{family + '_' + str(n):<12} {r.get('order', '?'):>4} {r.get('classes', '?'):>4} "
              f"{r.get('conductor', '?'):>4} {r.get('phi', '?'):>4}  {r['status']:<8} {stages}",
              flush=True)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"ladder": records}, indent=1) + "\n")
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--case", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.case:
        family, n = args.case.split(":")
        run_case(family, int(n))
    else:
        run_ladder()
    return 0


if __name__ == "__main__":
    sys.exit(main())
