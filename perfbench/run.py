"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload eigen_build --seed 1 --seconds 20 --trace 0

Run it from the repository root (or anywhere: it changes to the root, two
levels above this file, and imports ``delsarte`` from ``src/`` there).
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics, with times scaled to a nominal host speed (see speed.py); with
``--trace 1`` the workload runs for half of ``--seconds`` untraced and for
half with every public library function wrapped (see spans.py), and the
last line carries the per-layer metrics.  The line before it is a
provenance record, which also holds the times as measured.
The exit code is 0 only when a result line was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from speed import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
RECORDED_OPS = 20  # per-op digests kept for each default seed
SETUP_SAMPLES = 3  # this process plus two fresh set-up processes
TAIL_SHARE = 10  # op_tail_ms leaves one op in TAIL_SHARE beyond it (p90) ...
TAIL_BEYOND = 10  # ... and never fewer than TAIL_BEYOND


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time (used internally)")
    p.add_argument("--record-digests", action="store_true",
                   help=f"store the first {RECORDED_OPS} op digests of this seed")
    return p.parse_args(argv)


class Pass:
    """Per-op records of one closed-loop pass over an op stream."""

    def __init__(self):
        self.latency: list[float] = []  # seconds, as measured
        self.scaled: list[float] = []  # seconds on the nominal host (speed.py)
        self.digests: list[str | None] = []
        self.kinds: dict[str, int] = {}
        self.failures: list[str] = []
        self.run_s = 0.0
        self.scaled_run_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_pass(wl, seed, seconds, clock, tracer=None, max_ops=None) -> Pass:
    """Issue whole cycles of ops until the deadline; time, check and digest each op.

    The cycle in flight at the deadline is finished, so that every pass does
    whole cycles of the workload's fixed mix.  Between ops the clock takes a
    reference slice when one is due; the slices give the scaled times."""
    out = Pass()
    quiet = tracer.pause if tracer is not None else nullcontext
    cycles = iter(wl.cycles(seed))
    times = []

    def full():
        return max_ops is not None and out.attempted >= max_ops

    t_start = perf_counter()
    deadline = t_start + seconds
    with tracer.span("bench.body") if tracer is not None else nullcontext():
        while perf_counter() < deadline and not full():
            with quiet():
                stream = iter(next(cycles))
            while not full():
                with quiet():
                    clock.probe_if_due()
                    op = next(stream, None)
                if op is None:
                    break
                if tracer is not None:
                    tracer.op_id = out.attempted
                error = None
                t0 = perf_counter()
                try:
                    op.result = op.call()
                except op.expect as exc:  # an expected rejection is a success
                    op.result = exc
                except Exception as exc:  # noqa: BLE001  (a failed op is counted, not fatal)
                    error = exc
                t1 = perf_counter()
                times.append((t0, t1))
                out.latency.append(t1 - t0)
                out.kinds[op.kind] = out.kinds.get(op.kind, 0) + 1
                with quiet():
                    digest = None
                    if error is None:
                        try:
                            digest = op.check(op.result)
                        except Exception as exc:  # noqa: BLE001
                            error = exc
                    if error is not None:
                        out.failures.append(
                            f"op {out.attempted - 1} ({op.kind}): "
                            + "".join(traceback.format_exception_only(error)).strip())
                    out.digests.append(digest)
        with quiet():
            clock.probe()
    t_end = perf_counter()
    out.run_s = t_end - t_start
    out.scaled_run_s = clock.scaled_span(t_start, t_end)
    out.scaled = [(t1 - t0) * clock.scale(t0, t1) for t0, t1 in times]
    return out


def tail(latency: list[float]) -> tuple[float, float, int]:
    """Latency at the 90th percentile, or at the highest percentile with
    TAIL_BEYOND samples beyond it when there are fewer than 100 samples.
    Returns the latency, its percentile and the number of samples beyond."""
    n = len(latency)
    ordered = sorted(latency)
    beyond = max(TAIL_BEYOND, n // TAIL_SHARE)
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def setup_probes(args) -> list[tuple[float, float]]:
    """Set-up times (scaled, measured) of fresh processes doing exactly this
    run's set-up."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def prefix_equal(a: list, b: list) -> bool:
    k = min(len(a), len(b))
    return a[:k] == b[:k]


def provenance(args, modules) -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "delsarte": str(Path(modules["delsarte"].__file__).resolve().relative_to(ROOT)),
    }


def main(argv=None) -> int:
    clock = Clock()
    clock.mark()
    t_setup = perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "delsarte" / "__init__.py").is_file():
        print(f"error: no delsarte sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)

    import workloads
    from spans import Tracer, metric_names

    clock.mark()

    if workloads.catalog.__file__ != str(src / "delsarte" / "catalog.py"):
        print("error: delsarte was not imported from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    clock.mark()
    try:
        warm = run_pass(wl, -args.seed - 1, float("inf"), clock, max_ops=wl.warmup_ops)
        for line in warm.failures[:5]:
            print("warm-up failed: " + line, file=sys.stderr)
        t_ready = perf_counter()
        clock.mark()
        setup_own = (clock.scaled_span(t_setup, t_ready), t_ready - t_setup)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        # a traced run reports no setup_s, so it needs no extra set-up samples
        setup = [setup_own] + ([] if args.trace else setup_probes(args))

        # a traced run measures for --seconds in all: half untraced, half traced
        pass_s = args.seconds / 2 if args.trace else args.seconds
        base = run_pass(wl, args.seed, pass_s, clock)
        passes = [base]
        info = provenance(args, sys.modules)
        info["setup_samples_s"] = [scaled for scaled, _ in setup]
        info["ops"] = {"attempted": base.attempted, "failed": base.failed, "by_kind": base.kinds}
        correct = not base.failures and not warm.failures
        recorded = load_digests().get(args.workload, {}).get(str(args.seed))
        if recorded is not None:
            info["recorded_digests_match"] = prefix_equal(recorded, base.digests)
            correct &= info["recorded_digests_match"]

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(wl, args.seed, pass_s, clock, tracer=tracer)
            finally:
                restored = tracer.restore()
            passes.append(traced)
            k = min(base.attempted, traced.attempted)
            overhead = sum(traced.scaled[:k]) / sum(base.scaled[:k])
            metrics = tracer.metrics(traced.run_s)
            metrics["trace.overhead_ratio"] = overhead
            same = prefix_equal(base.digests, traced.digests)
            accounted = metrics["trace.accounted_ratio"]
            info["pairing"] = {
                "untraced_ops": base.attempted, "traced_ops": traced.attempted,
                "compared_ops": k, "digests_equal": same, "overhead_ratio": overhead,
                "untraced_run_s": base.run_s, "traced_run_s": traced.run_s,
                "wrappers_restored": restored, "spans": tracer.span_count,
                "spans_stored": len(tracer.s_id),
            }
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write_jsonl(span_file)
            info["pairing"]["span_file"] = str(span_file.relative_to(ROOT))
            correct &= same and not traced.failures and abs(accounted - 1.0) < 0.01
            units = {name: unit for name, unit, _ in metric_names()}
            result_metrics = {name: {"value": value, "unit": units[name]}
                              for name, value in metrics.items()}
        else:
            completed = base.attempted - base.failed
            lat_ms = [1000.0 * v for v in base.scaled]
            tail_ms, pct, beyond = tail(lat_ms)
            info["tail"] = {"percentile": pct, "samples_beyond": beyond, "samples": len(lat_ms)}
            raw_ms = [1000.0 * v for v in base.latency]
            info["measured"] = {
                "run_s": base.run_s, "ops_per_s": completed / base.run_s,
                "op_p50_ms": statistics.median(raw_ms), "op_tail_ms": tail(raw_ms)[0],
                "setup_samples_s": [measured for _, measured in setup],
                "slices": len(clock.d), "slice_p50_ms": 1000 * statistics.median(clock.d),
            }
            values = {
                "setup_s": (statistics.median(info["setup_samples_s"]), "s"),
                "ops_per_s": (completed / base.scaled_run_s, "ops/s"),
                "op_p50_ms": (statistics.median(lat_ms), "ms"),
                "op_tail_ms": (tail_ms, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

        if args.record_digests:
            stored = load_digests()
            stored.setdefault(args.workload, {})[str(args.seed)] = base.digests[:RECORDED_OPS]
            DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()

    for p in passes:
        for line in p.failures[:5]:
            print("failed: " + line, file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"provenance": info}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
