"""Per-layer tracing from outside the library.

`Tracer.install` replaces the public functions and operator methods of each
delsarte module with timing wrappers, in every namespace that holds them,
and `Tracer.restore` puts the originals back and verifies that it did.  A
span is recorded for each wrapped call (name, start, end, parent, op id);
self time is the span's duration minus the time of its child spans, taken
from the parent link when the child closes.  The benchmark's own code runs
under a root span of layer ``bench``, so the self times of all layers plus
``bench`` add up to the traced body time.

Spans are kept in memory, up to SPAN_CAP; later spans are aggregated
into the counters but not stored.  `write_jsonl` writes the stored spans
when the run ends.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

SPAN_CAP = 200_000  # about 40 bytes each in memory, 100 bytes as JSON

LAYERS = ("cyclotomic", "scheme", "fusion", "groups", "designs", "lp",
          "catalog", "fileio", "cli")

# (layer, metric function name, owner path, attribute names)
# Owner path "module" means a module-level function, "module.Class" a method,
# None a name reported by another target's wrapper.
TARGETS = (
    # one wrapper on __mul__/__rmul__ reports as scalar_mul_rational when the
    # other operand is an int or Fraction (see _CLASSIFY)
    ("cyclotomic", "scalar_mul", "cyclotomic.Cyclotomic", ("__mul__", "__rmul__")),
    ("cyclotomic", "scalar_mul_rational", None, ()),
    ("cyclotomic", "scalar_add", "cyclotomic.Cyclotomic",
     ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("cyclotomic", "embed", "cyclotomic.Cyclotomic", ("embed",)),
    ("cyclotomic", "scalar_inverse", "cyclotomic.Cyclotomic", ("inverse",)),
    ("cyclotomic", "galois", "cyclotomic.Cyclotomic", ("galois",)),
    ("cyclotomic", "exact_sign", "cyclotomic", ("exact_sign",)),
    ("cyclotomic", "matmul", "cyclotomic.CycMatrix", ("__mul__",)),
    ("cyclotomic", "mat_inverse", "cyclotomic.CycMatrix", ("inverse",)),
    ("scheme", "verify_scheme", "scheme", ("verify_scheme",)),
    ("scheme", "attach_eigendata", "scheme", ("attach_eigendata",)),
    ("scheme", "krein_parameters", "scheme", ("krein_parameters",)),
    ("fusion", "orbit_merge", "fusion", ("orbit_merge",)),
    ("fusion", "bannai_muzychuk_idempotent", "fusion", ("bannai_muzychuk_idempotent",)),
    ("fusion", "fuse_by_relation_partition", "fusion", ("fuse_by_relation_partition",)),
    ("fusion", "galois_fusion", "fusion", ("galois_fusion",)),
    ("fusion", "common_fusion", "fusion", ("common_fusion",)),
    ("groups", "conj_class_scheme", "groups", ("conj_class_scheme",)),
    ("groups", "eigendata_from_characters", "groups", ("eigendata_from_characters",)),
    ("groups", "rational_class_fusion", "groups", ("rational_class_fusion",)),
    ("designs", "inner_distribution", "designs", ("inner_distribution",)),
    ("designs", "dual_distribution", "designs", ("dual_distribution",)),
    ("designs", "design_report", "designs", ("design_report",)),
    ("designs", "is_T_design", "designs", ("is_T_design",)),
    ("designs", "is_T_design_via_merges", "designs", ("is_T_design_via_merges",)),
    ("designs", "enumerate_T_designs", "designs", ("enumerate_T_designs",)),
    ("lp", "simplex_solve", "lp", ("simplex_solve",)),
    ("lp", "delsarte_design_lp", "lp", ("delsarte_design_lp",)),
    ("lp", "delsarte_code_lp", "lp", ("delsarte_code_lp",)),
    ("catalog", "load_entry", "catalog", ("load_entry",)),
    ("fileio", "parse", "fileio", ("parse_scheme_file", "parse_eigen_file",
                                   "parse_group_file", "parse_character_file",
                                   "parse_design_file")),
    ("fileio", "dump", "fileio", ("dump_scheme", "dump_eigen", "dump_group",
                                  "dump_characters", "dump_design")),
    ("cli", "main", "cli", ("main",)),
)

# Counters derived from arguments and results, outside the library.
EXTRA_METRICS = (
    ("cyclotomic.scalar_mul.coeff_ops", "count", "lower"),
    ("cyclotomic.exact_sign.interval_calls", "count", "lower"),
    ("cyclotomic.embed_ratio", "ratio", "lower"),
    ("designs.enumerate.subsets", "count", "higher"),
    ("designs.enumerate.subsets_per_s", "1/s", "higher"),
    ("designs.enumerate.hit_ratio", "ratio", "higher"),
    ("fileio.bytes_read", "B", "lower"),
    ("fileio.bytes_written", "B", "lower"),
    ("cli.nonzero_exits", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("bench.self_s", "s", "lower"),
)


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.errors", "count", "lower"))
    for layer, fn, _, _ in TARGETS:
        out.append((f"{layer}.{fn}.calls", "count", "lower"))
        out.append((f"{layer}.{fn}.total_s", "s", "lower"))
    out.extend(EXTRA_METRICS)
    return out


def _nnz(x) -> int:
    return sum(1 for c in x.coeffs if c)


class Tracer:
    """Wrapper installation, span storage and per-layer aggregation."""

    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        # stored spans, column-wise: span id, name index, parent id, op id, t0, t1
        self.s_id = array("q")
        self.s_name = array("i")
        self.s_parent = array("q")
        self.s_op = array("q")
        self.s_t0 = array("d")
        self.s_t1 = array("d")
        self.span_count = 0
        self.stack: list[list] = []  # [span id, name, layer, t0, child time]
        self.op_id = -1
        self.paused = False
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.active: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> list:
        sid = self.span_count
        self.span_count += 1
        frame = [sid, name, layer, perf_counter(), 0.0]
        self.stack.append(frame)
        self.active[name] = self.active.get(name, 0) + 1
        return frame

    def _exit(self, frame: list, error: bool) -> float:
        t1 = perf_counter()
        stack = self.stack
        stack.pop()
        sid, name, layer, t0, child = frame
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4] += dur
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        depth = self.active[name] - 1
        self.active[name] = depth
        if depth == 0:  # inclusive time counts the outermost call only
            self.total[name] = self.total.get(name, 0.0) + dur
        if error and (parent is None or parent[2] != layer):
            self.errors[layer] = self.errors.get(layer, 0) + 1
        if sid < SPAN_CAP:
            idx = self.name_index.get(name)
            if idx is None:
                idx = self.name_index[name] = len(self.names)
                self.names.append(name)
            self.s_id.append(sid)
            self.s_name.append(idx)
            self.s_parent.append(parent[0] if parent is not None else -1)
            self.s_op.append(self.op_id)
            self.s_t0.append(t0)
            self.s_t1.append(t1)
        return dur

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        frame = self._enter(name, layer)
        error = False
        try:
            yield frame
        except BaseException:
            error = True
            raise
        finally:
            self._exit(frame, error)

    @contextmanager
    def pause(self):
        """Run benchmark code (generation, checks) without library spans."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, orig, layer: str, fn: str, attr: str):
        from delsarte.errors import DelsarteError

        classify = _CLASSIFY.get(f"{layer}.{fn}")
        names = {f: f"{layer}.{f}" for f in (fn, "scalar_mul_rational")}
        observe = _OBSERVERS.get(f"{layer}.{fn}")
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return orig(*args, **kwargs)
            name = names[fn] if classify is None else names.get(classify(args))
            if name is None:
                return orig(*args, **kwargs)
            frame = tracer._enter(name, layer)
            error = False
            try:
                result = orig(*args, **kwargs)
            except DelsarteError:
                error = True
                raise
            finally:
                dur = tracer._exit(frame, error)
            if observe is not None:
                observe(tracer, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", attr)
        wrapper.__qualname__ = getattr(orig, "__qualname__", attr)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def install(self):
        """Wrap every target in every delsarte namespace that refers to it."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        import delsarte  # noqa: F401  (loads every submodule)

        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "delsarte" or key.startswith("delsarte."))]
        for layer, fn, owner_path, attrs in TARGETS:
            if owner_path is None:
                continue
            module_name, _, class_name = owner_path.partition(".")
            module = sys.modules[f"delsarte.{module_name}"]
            for attr in attrs:
                if class_name:
                    owner = getattr(module, class_name)
                    orig = owner.__dict__[attr]
                    self._patch(owner, attr, orig, self._wrap(orig, layer, fn, attr))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(orig, layer, fn, attr)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            self._patch(ns, key, orig, wrapper)

    def _patch(self, owner, attr: str, orig, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, orig))

    def restore(self) -> int:
        """Put every original back; returns how many were verified restored."""
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        restored = sum(1 for owner, attr, orig in self.patches
                       if vars(owner).get(attr) is orig)
        if restored != len(self.patches):
            raise RuntimeError(
                f"only {restored} of {len(self.patches)} wrapped names were restored")
        self.patches = []
        return restored

    # -- results --------------------------------------------------------------

    def metrics(self, run_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.errors"] = self.errors.get(layer, 0)
        for layer, fn, _, _ in TARGETS:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.total_s"] = self.total.get(name, 0.0)
        c = self.counters
        adds_muls = out["cyclotomic.scalar_add.calls"] + out["cyclotomic.scalar_mul.calls"]
        direct_s = c.get("enumerate.direct_s", 0.0)
        subsets = c.get("enumerate.subsets", 0)
        out["cyclotomic.scalar_mul.coeff_ops"] = c.get("coeff_ops", 0)
        out["cyclotomic.exact_sign.interval_calls"] = c.get("interval_calls", 0)
        out["cyclotomic.embed_ratio"] = c.get("embed_lifts", 0) / adds_muls if adds_muls else 0.0
        out["designs.enumerate.subsets"] = subsets
        out["designs.enumerate.subsets_per_s"] = subsets / direct_s if direct_s else 0.0
        found = c.get("enumerate.found", 0)
        out["designs.enumerate.hit_ratio"] = found / subsets if subsets else 0.0
        out["fileio.bytes_read"] = c.get("bytes_read", 0)
        out["fileio.bytes_written"] = c.get("bytes_written", 0)
        out["cli.nonzero_exits"] = c.get("nonzero_exits", 0)
        out["bench.self_s"] = self.self_s.get("bench", 0.0)
        accounted = sum(self.self_s.values())
        out["trace.accounted_ratio"] = accounted / run_s if run_s else 0.0
        return out

    def write_jsonl(self, path) -> int:
        with open(path, "w") as fh:
            for k in range(len(self.s_name)):
                fh.write(json.dumps({
                    "id": self.s_id[k],
                    "name": self.names[self.s_name[k]],
                    "parent": self.s_parent[k],
                    "op": self.s_op[k],
                    "start": self.s_t0[k],
                    "end": self.s_t1[k],
                }) + "\n")
        return len(self.s_name)


# -- counters computed from a wrapped call's arguments and result -------------

def _obs_scalar_mul(tr, args, kwargs, result, dur):
    a, b = args
    if result is not NotImplemented and not isinstance(b, (int, Fraction)):
        tr.count("coeff_ops", _nnz(a) * _nnz(b))


def _obs_embed(tr, args, kwargs, result, dur):
    if result is not args[0]:
        tr.count("embed_lifts")


def _obs_exact_sign(tr, args, kwargs, result, dur):
    if not all(e == 0 for e, _ in args[0].terms()):
        tr.count("interval_calls")


def _obs_enumerate(tr, args, kwargs, result, dur):
    names = ("scheme", "eigen", "T", "min_size", "max_size", "method")
    bound = dict(zip(names, args), **kwargs)
    if bound.get("method", "direct") != "direct":
        return
    size = bound["scheme"].size
    lo, hi = max(bound["min_size"], 1), min(bound["max_size"], size)
    tr.count("enumerate.subsets", sum(math.comb(size, r) for r in range(lo, hi + 1)))
    tr.count("enumerate.found", len(result))
    tr.count("enumerate.direct_s", dur)


def _obs_parse(tr, args, kwargs, result, dur):
    tr.count("bytes_read", len(args[0].encode()))


def _obs_dump(tr, args, kwargs, result, dur):
    tr.count("bytes_written", len(result.encode()))


def _obs_cli(tr, args, kwargs, result, dur):
    if result != 0:
        tr.count("nonzero_exits")


def _classify_scalar_mul(args):
    return "scalar_mul_rational" if isinstance(args[1], (int, Fraction)) else "scalar_mul"


def _classify_matmul(args):
    # CycMatrix.__mul__ by a scalar delegates to scale(); only products count
    return "matmul" if type(args[1]) is type(args[0]) else None


_CLASSIFY = {
    "cyclotomic.scalar_mul": _classify_scalar_mul,
    "cyclotomic.matmul": _classify_matmul,
}

_OBSERVERS = {
    "cyclotomic.scalar_mul": _obs_scalar_mul,
    "cyclotomic.embed": _obs_embed,
    "cyclotomic.exact_sign": _obs_exact_sign,
    "designs.enumerate_T_designs": _obs_enumerate,
    "fileio.parse": _obs_parse,
    "fileio.dump": _obs_dump,
    "cli.main": _obs_cli,
}
