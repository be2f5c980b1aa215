"""The four benchmark workloads: seeded op streams with an oracle per op.

Each workload is a closed loop with one caller: the runner takes the next op
from the current cycle of ``cycles(seed)``, calls it, checks the output and
only then asks for the next one.  A cycle is a fixed sequence of op slots,
so every cycle does the same mix of work whatever the seed, and the runner
measures whole cycles only; the seed draws the inputs of each slot:
relabelled group tables, subsets, T sets, fields, LP constraint sets and CLI
arguments.

``op.check(result)`` raises :class:`CheckFailed` when the output is wrong
and otherwise returns a digest of the op's exact output.  Checks use
:mod:`oracle`, which re-derives the defining identities with modular
arithmetic instead of the library's own field code.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

from delsarte import catalog, cli, designs, fileio, fusion, groups, lp, scheme
from delsarte.cyclotomic import SubfieldSpec
from delsarte.errors import NotClosed

import oracle
from oracle import EigenResidues, digest, field


class CheckFailed(Exception):
    """An op's output contradicts its oracle."""


def require(cond, what: str):
    if not cond:
        raise CheckFailed(what)


class Op:
    """One library call with its oracle; ``result`` is set by the runner."""

    __slots__ = ("kind", "call", "check", "expect", "result")

    def __init__(self, kind, call, check, expect=()):
        self.kind = kind
        self.call = call
        self.check = check
        self.expect = expect
        self.result = None


WORKLOADS = {}


def workload(cls):
    WORKLOADS[cls.name] = cls
    return cls


def stream(wl, seed: int):
    """The workload's ops for this seed, cycle after cycle."""
    return itertools.chain.from_iterable(wl.cycles(seed))


class Draws(random.Random):
    """The seeded source of a workload's inputs.

    ``deal`` draws from a shuffled deck of options per key and reshuffles
    only when the deck is empty, so the costly choices (subset sizes,
    subgroups, units, partition pairs) are spread evenly over a run and the
    mix of work depends little on the seed.
    """

    def __init__(self, name: str, seed: int):
        super().__init__(f"{name}:{seed}")
        self._decks: dict = {}

    def deal(self, key, options):
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = self.sample(list(options), len(options))
        return deck.pop()


def _rational_matrix(m) -> list[list[Fraction]]:
    out = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            terms = m[i, j].terms()
            require(all(e == 0 for e, _ in terms), f"entry ({i},{j}) is irrational")
            row.append(terms[0][1] if terms else Fraction(0))
        out.append(row)
    return out


def _pq_identity(P, Q, size: int, N: int, what: str):
    F = field(N)
    require(F.matmul(F.matrix(P), F.matrix(Q)) == F.scalar_identity(P.rows, size),
            f"{what}: PQ != |X| I")


def _int_tuples(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _subgroup(mult, gens) -> list[int]:
    elems, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = mult[a][g]
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return sorted(elems)


def _lp_feasible(res, matrix, equal_cols, zero_vars):
    """Check an LP optimum against the Delsarte constraints, in Fractions."""
    require(res.status == "optimal", f"LP status {res.status}")
    a = res.solution
    require(a[0] == 1 and all(v >= 0 for v in a), "LP solution violates a_0 = 1, a >= 0")
    require(all(a[i] == 0 for i in zero_vars), "LP solution uses a forbidden relation")
    for j in range(len(matrix[0])):
        s = sum(a[i] * matrix[i][j] for i in range(len(a)))
        require(s == 0 if j in equal_cols else s >= 0, f"LP constraint {j} violated")
    require(res.value == sum(a), "LP value is not the sum of the solution")


# ---------------------------------------------------------------------------
# eigen_build
# ---------------------------------------------------------------------------

@workload
class EigenBuild:
    """Verified eigenstructure for each rung of a ladder of group schemes."""

    name = "eigen_build"
    LADDER = (
        # One cycle is the whole ladder, about 6 s here; Krein on Dic_7
        # (phi(28) = 12) is the longest op, about 2 s.  Larger rungs are left
        # to ladder.py, so that a run holds several whole cycles.  The small
        # rungs spread the op latencies around the median.  The 90th
        # percentile falls among the many 200-300 ms stages of Z_7, Z_8,
        # Dic_5 and Dic_7.  With Z_9 in their place it fell among three lone
        # stages 10-20% apart (Krein on Z_9 and Dic_5, eigendata on Dic_7)
        # and jumped from run to run.
        # The warm-up runs the first rung, so it is a cheap one.
        ("cyclic", 5), ("dicyclic", 7), ("cyclic", 6), ("cyclic", 7),
        ("dicyclic", 3), ("dicyclic", 5), ("cyclic", 8),
    )
    warmup_ops = 5

    def __init__(self):
        self.rungs = [(fam, n, groups.builtin_group(fam, n)) for fam, n in self.LADDER]
        for _, _, (_, _, table) in self.rungs:
            field(table.conductor)
            field(table.conductor, 1)

    @staticmethod
    def relabel(base, rng):
        """An isomorphic copy with the elements relabelled inside each class.

        The classes keep their member sets and order, so Q and the cost of
        every stage do not depend on the seed; the multiplication table and
        the relation grid do.
        """
        group, classes, table = base
        perm = list(range(group.order))
        for cls in classes.classes:
            for old, new in zip(cls, rng.sample(cls, len(cls))):
                perm[old] = new
        P = np.array(perm, dtype=np.int64)
        mult = np.empty_like(group.mult)
        mult[np.ix_(P, P)] = P[group.mult]
        mult_list = mult.tolist()
        return groups.make_group_table(mult), table, mult_list, oracle.conjugacy_classes(mult_list)

    def cycles(self, seed: int):
        rng = Draws(self.name, seed)
        while True:
            yield (op for _, _, base in self.rungs for op in self._rung(base, rng))

    def _rung(self, base, rng):
        group, table, mult, want_classes = self.relabel(base, rng)
        N = table.conductor
        F = field(N)
        size = group.order
        inv = [row.index(0) for row in mult]
        class_of = [0] * size
        for c, cls in enumerate(want_classes):
            for g in cls:
                class_of[g] = c
        want_rational = oracle.rational_classes(mult, want_classes)

        def check_scheme(res):
            sch, cls = res
            require(cls.classes == tuple(want_classes), "conjugacy classes differ")
            rel = np.array(class_of)[np.array(mult)[inv, :]]
            require(np.array_equal(sch.relation, rel), "relation != class of g^-1 h")
            require(sch.valencies == tuple(len(c) for c in want_classes), "valencies")
            return digest("scheme", rel, want_classes)

        op1 = Op("conj_class_scheme", lambda: groups.conj_class_scheme(group), check_scheme)
        yield op1
        sch, cls = op1.result

        def check_eigen(eig):
            Qr, Pr = F.matrix(eig.Q), F.matrix(eig.P)
            require(F.matmul(Pr, Qr) == F.scalar_identity(len(Qr), size), "PQ != |X| I")
            minus = N - 1 if N > 1 else 1
            for j, f in enumerate(table.degrees):
                require(eig.multiplicities[j] == f * f, f"m_{j} != f_{j}^2")
                for i in range(len(Qr)):
                    want = f * F.of(table.rows[j][i], minus) % F.p
                    require(Qr[i][j] == want, f"Q[{i}][{j}] != f_j conj(chi_j(g_i))")
            require([Pr[0][i] for i in range(len(Pr))] == [F.rat(v) for v in sch.valencies],
                    "P[0] != valencies")
            return digest("eigen", [f * f for f in table.degrees], Qr, Pr)

        op2 = Op("eigendata_from_characters",
                 lambda: groups.eigendata_from_characters(group, cls, table, sch), check_eigen)
        yield op2
        eig = op2.result

        def check_krein(kd):
            d1 = sch.classes
            Qr, Pr = F.matrix(eig.Q), F.matrix(eig.P)
            inv_size = pow(size, -1, F.p)
            q = [[[F.of(v) for v in row] for row in plane] for plane in kd.q]
            F2 = field(N, 1)
            for j in range(d1):
                for k in range(d1):
                    want = 1 if j == k else 0
                    require(q[0][j][k] == want and F2.of(kd.q[0][j][k]) == want,
                            f"q[0][{j}][{k}] != delta")
            for i in range(d1):
                for j in range(d1):
                    w = [Qr[m][i] * Qr[m][j] % F.p for m in range(d1)]
                    for k in range(d1):
                        s = sum(Pr[k][m] * w[m] for m in range(d1)) * inv_size % F.p
                        require(q[i][j][k] == s, f"q[{i}][{j}][{k}] != Krein formula")
            krein_conductor = int(kd.krein_conductor)
            require(N % krein_conductor == 0, "Krein conductor does not divide n")
            return digest("krein", krein_conductor, q)

        yield Op("krein_parameters", lambda: scheme.krein_parameters(eig), check_krein)

        def check_fused(fs, what):
            require(fs.partition == want_rational, f"{what}: partition != rational classes")
            _rational_matrix(fs.Q_F)
            _pq_identity(fs.P_F, fs.Q_F, size, N, what)
            lookup = np.array(fs.class_map)
            require(np.array_equal(fs.fused.relation, lookup[sch.relation]), f"{what}: relation")
            return F.matrix(fs.Q_F)

        def check_galois(fs):
            qf = check_fused(fs, "galois fusion")
            return digest("galois", want_rational, qf)

        op4 = Op("galois_fusion",
                 lambda: fusion.galois_fusion(sch, eig, SubfieldSpec.rationals(eig.conductor)),
                 check_galois)
        yield op4
        galois = op4.result

        def check_rational(res):
            partition, fs = res
            require(partition == want_rational, "rational classes differ")
            qf = check_fused(fs, "rational-class fusion")
            require(partition == galois.partition, "rational-class fusion != Galois fusion")
            require(qf == F.matrix(galois.Q_F), "rational-class Q_F != Galois Q_F")
            return digest("rational", want_rational, qf)

        yield Op("rational_class_fusion",
                 lambda: groups.rational_class_fusion(group, cls, sch, eig), check_rational)


# ---------------------------------------------------------------------------
# shared catalog loading
# ---------------------------------------------------------------------------

class Loaded:
    """A catalog (or built) scheme with its independent oracle data."""

    def __init__(self, name, sch, eig, group=None):
        self.name = name
        self.scheme = sch
        self.eigen = eig
        self.N = eig.Q.conductor
        self.res = EigenResidues(eig.Q, self.N)
        self.Q2 = field(self.N, 1).matrix(eig.Q)
        self.orbits = self.res.rational_orbits()
        self.mult = group.mult.tolist() if group is not None else None
        self.rel = sch.relation

    @classmethod
    def entry(cls, name):
        e = catalog.load_entry(name)
        return cls(name, e.scheme, e.eigen, e.group)

    @classmethod
    def files(cls, name):
        """Parse and verify the entry's scheme and eigen files, as the CLI does."""
        e = catalog.CATALOG[name]
        base = catalog.data_dir()
        sch = fileio.parse_scheme_file((base / e.scheme_file).read_text())
        _, q = fileio.parse_eigen_file((base / e.eigen_file).read_text())
        return cls(name, sch, scheme.attach_eigendata(sch, q))

    @classmethod
    def built(cls, name, family, *params):
        group, classes, table = groups.builtin_group(family, *params)
        sch, _ = groups.conj_class_scheme(group)
        return cls(name, sch, groups.eigendata_from_characters(group, classes, table, sch), group)

    def zero_set(self, a) -> tuple[int, ...]:
        """j >= 1 with (aQ)_j = 0, decided on residues mod two primes."""
        F1, F2 = self.res.F, field(self.N, 1)
        a1 = [F1.rat(v) for v in a]
        a2 = [F2.rat(v) for v in a]
        out = []
        for j in range(1, self.scheme.classes):
            b1 = sum(x * row[j] for x, row in zip(a1, self.res.Q[1])) % F1.p
            b2 = sum(x * row[j] for x, row in zip(a2, self.Q2)) % F2.p
            if b1 == 0 and b2 == 0:
                out.append(j)
        return tuple(out)

    def inner(self, support) -> tuple[Fraction, ...]:
        idx = np.array(support, dtype=np.int64)
        counts = np.bincount(self.rel[np.ix_(idx, idx)].ravel(), minlength=self.scheme.classes)
        return tuple(Fraction(int(c), len(support)) for c in counts)

    def zero_sets(self, cap: int) -> list:
        """(C, zero set of aQ) for every subset C with 1 <= |C| <= cap."""
        memo = self.__dict__.setdefault("_zero_sets", {})
        if cap not in memo:
            memo[cap] = [(C, set(self.zero_set(self.inner(C))))
                         for r in range(1, min(cap, self.scheme.size) + 1)
                         for C in itertools.combinations(range(self.scheme.size), r)]
        return memo[cap]

    def t_designs(self, T, cap: int) -> tuple[tuple[int, ...], ...]:
        """Every 01 T-design of size at most cap, found without the library,
        in lexicographic order as enumerate_T_designs promises."""
        return tuple(sorted(C for C, zeros in self.zero_sets(cap) if zeros >= set(T)))

    def random_T(self, rng) -> tuple[int, ...]:
        """A union of one or two random nontrivial rational Galois orbits."""
        nontrivial = list(self.orbits[1:])
        chosen = rng.sample(nontrivial, min(len(nontrivial), rng.choice((1, 1, 2))))
        return tuple(sorted(j for orb in chosen for j in orb))


# ---------------------------------------------------------------------------
# design_screen
# ---------------------------------------------------------------------------

@workload
class DesignScreen:
    """Design reports on a seeded stream of subsets of catalog schemes."""

    name = "design_screen"
    POOL = ("dic5", "dic7", "z12", "x8", "coxeter")
    SIGN_SHARE = 4  # exact signs verified on one report in four per scheme and kind

    def __init__(self):
        self.pool = [Loaded.entry(n) for n in self.POOL]
        self.orbit_data = {}
        for s in self.pool:
            od = designs.rational_orbit_data(s.eigen)
            if od.orbits != s.orbits:
                raise RuntimeError(f"{s.name}: library orbits {od.orbits} != {s.orbits}")
            self.orbit_data[s.name] = od
        self.warmup_ops = 2 * len(self.pool)

    def cycles(self, seed: int):
        # a cycle is 24 blocks of one op per scheme: every subset kind with
        # and without verified signs, on every scheme (lcm of 2 or 3 kinds
        # times SIGN_SHARE)
        rng = Draws(self.name, seed)
        while True:
            yield (self._block_op(s, block, rng) for block in range(24) for s in self.pool)

    def _block_op(self, s, block, rng):
        kinds = ("01", "weighted", "subgroup") if s.mult else ("01", "weighted")
        verify = block // len(kinds) % self.SIGN_SHARE == 0
        return self._op(s, kinds[block % len(kinds)], verify, rng)

    def _op(self, s, kind, verify_signs, rng: Draws):
        size = s.scheme.size
        if kind == "subgroup":
            gens = [rng.deal((s.name, "gen"), range(size))]
            if rng.deal((s.name, "gens"), (1, 2)) == 2:
                gens.append(rng.deal((s.name, "gen2"), range(size)))
            support = _subgroup(s.mult, gens)
            w = support
            a = s.inner(support)
        elif kind == "01":
            count = rng.deal((s.name, kind), range(1, size + 1))
            support = sorted(rng.sample(range(size), count))
            w = support
            a = s.inner(support)
        else:
            support = rng.sample(range(size), rng.deal((s.name, kind), range(1, size + 1)))
            weights = [Fraction(0)] * size
            for x in support:
                weights[x] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            w = designs.WeightedSubset.from_weights(weights)
            num = [Fraction(0)] * s.scheme.classes
            for x in support:
                for y in support:
                    num[s.rel[x, y]] += weights[x] * weights[y]
            denom = sum(weights[x] ** 2 for x in support)
            a = tuple(v / denom for v in num)
        T = s.random_T(rng)
        od = self.orbit_data[s.name]

        def call():
            report = designs.design_report(s.scheme, s.eigen, w, verify_signs)
            return (report,
                    designs.is_T_design(s.scheme, s.eigen, w, T),
                    designs.is_T_design_via_merges(od, w, T))

        def check(res):
            report, direct, merged = res
            require(report.a == a, "inner distribution differs")
            want_T = s.zero_set(a)
            require(report.T == want_T, f"T(C) = {report.T}, expected {want_T}")
            F = s.res.F
            b = [sum(F.rat(x) * row[j] for x, row in zip(a, s.res.Q[1])) % F.p
                 for j in range(s.scheme.classes)]
            require([F.of(v) for v in report.b] == b, "b != aQ")
            closed = all(set(o) <= set(want_T) or not set(o) & set(want_T) for o in s.orbits)
            require(closed and report.orbit_closed, "T(C) is not a union of Galois orbits")
            covered = set(T) <= set(want_T)
            require(direct == covered, "is_T_design disagrees with T(C)")
            require(merged == covered, "is_T_design_via_merges disagrees with T(C)")
            return digest(s.name, kind, a, want_T, b, covered)

        return Op("design_screen", call, check)


# ---------------------------------------------------------------------------
# fusion_enum
# ---------------------------------------------------------------------------

@workload
class FusionEnum:
    """Galois orbits, fusions, exact LPs and exhaustive design enumeration."""

    name = "fusion_enum"
    POOL = ("x8", "y8", "coxeter", "z12", "a4", "dic3", "dic5")
    BUILT = (("z8", "cyclic", 8), ("z3xz3", "abelian", 3, 3))
    # enumeration schemes with their largest subset size
    ENUM = (("x8", 8), ("y8", 8), ("dic3", 12), ("dic5", 3))

    def __init__(self):
        pool = [Loaded.entry(n) for n in self.POOL]
        pool += [Loaded.built(name, fam, *params) for name, fam, *params in self.BUILT]
        self.pool = pool
        self.by_name = {s.name: s for s in pool}
        for s in pool:
            s.unit_classes = {}
            for k in s.res.units:
                orbits = s.res.orbits([k])
                s.unit_classes[k] = (orbits, s.res.row_classes(orbits))
            rat = s.res.row_classes(s.orbits)
            s.closed = len(rat) == len(s.orbits)
            s.fusions = sorted({rc for orbits, rc in s.unit_classes.values()
                                if len(rc) == len(orbits)})
        # common fusions of two distinct fusions, on schemes of at most 9
        # classes: on z12 one common fusion takes up to 1.7 s, as long as a
        # whole cycle of the other queries
        self.common_pool = [s for s in pool if len(s.fusions) >= 2 and s.scheme.classes <= 9]
        self.enum = []
        for name, cap in self.ENUM:
            s = self.by_name[name]
            s.zero_sets(cap)
            s.fused_Q = fusion.galois_fusion(s.scheme, s.eigen,
                                             SubfieldSpec.rationals(s.eigen.conductor))
            s.orbit_data = fusion.orbit_merge(s.eigen, SubfieldSpec.rationals(s.eigen.conductor))
            self.enum.append((s, cap))
        self.warmup_ops = 10

    def cycles(self, seed: int):
        rng = Draws(self.name, seed)
        for c in itertools.count():
            yield self._cycle(c, rng)

    def _cycle(self, c, rng):
        # one orbit and one Galois query per scheme, one common fusion (the
        # schemes take turns: it costs as much as the rest of a cycle on
        # dic5), then enumerations and LPs per enumeration scheme
        for s in self.pool:
            yield self._orbit(s, rng)
            yield self._galois(s)
        yield self._common(self.common_pool[c % len(self.common_pool)], rng)
        for s, cap in self.enum:
            yield from self._enum_lp(s, cap, rng)

    def _orbit(self, s, rng):
        k = rng.deal((s.name, "unit"), s.res.units)
        want_orbits, want_rows = s.unit_classes[k]

        def call():
            od = fusion.orbit_merge(s.eigen, SubfieldSpec(s.N, [k]))
            return od, fusion.bannai_muzychuk_idempotent(od)

        def check(res):
            od, verdict = res
            require(od.orbits == want_orbits, f"orbits of <{k}> differ")
            require(s.res.F.matrix(od.Qbar) == s.res.qbar(want_orbits), "Qbar != QO")
            require(verdict.row_classes == want_rows, "Qbar row classes differ")
            require(verdict.distinct_rows == len(want_rows), "distinct row count")
            require(verdict.passes == (len(want_rows) == len(want_orbits)), "BM verdict")
            return digest(s.name, k, want_orbits, want_rows, len(want_rows) == len(want_orbits))

        return Op("orbit_merge", call, check)

    def _check_fusion(self, s, fs, partition):
        require(fs.partition == partition, f"{s.name}: fusion partition differs")
        _pq_identity(fs.P_F, fs.Q_F, s.scheme.size, s.N, f"{s.name} fusion")
        lookup = np.array(fs.class_map)
        require(np.array_equal(fs.fused.relation, lookup[s.rel]), "fused relation")
        return s.res.F.matrix(fs.Q_F)

    def _galois(self, s):
        want = s.res.row_classes(s.orbits)

        def check(fs):
            if not s.closed:
                require(isinstance(fs, NotClosed), f"{s.name}: expected NotClosed")
                return digest(s.name, "NotClosed")
            qf = self._check_fusion(s, fs, want)
            _rational_matrix(fs.Q_F)
            return digest(s.name, want, qf)

        return Op("galois_fusion",
                  lambda: fusion.galois_fusion(s.scheme, s.eigen, SubfieldSpec.rationals(s.N)),
                  check, expect=(NotClosed,))

    def _common(self, s, rng):
        p1, p2 = rng.deal((s.name, "pair"), list(itertools.combinations(s.fusions, 2)))
        want = oracle.partition_join(p1, p2, s.scheme.classes)

        def check(fs):
            qf = self._check_fusion(s, fs, want)
            return digest(s.name, p1, p2, qf)

        return Op("common_fusion",
                  lambda: fusion.common_fusion(s.scheme, s.eigen, p1, p2), check)

    def _enum_lp(self, s, cap, rng):
        T = s.random_T(rng)
        fs, od = s.fused_Q, s.orbit_data
        merged = sorted({int(od.iota[j]) for j in T})
        e1 = len(fs.partition)
        S = sorted(rng.sample(range(1, e1), rng.randint(1, max(1, (e1 - 1) // 2))))
        S_orig = sorted(i for c in S for i in fs.partition[c])
        qf = _rational_matrix(fs.Q_F)
        qbar = _rational_matrix(od.Qbar)
        want = s.t_designs(T, cap)

        def check_enum(method):
            def check(found):
                require(_int_tuples(found) == want, f"{method} enumeration != all T-designs")
                return digest(s.name, T, cap, want)
            return check

        yield Op("enumerate_direct",
                 lambda: designs.enumerate_T_designs(s.scheme, s.eigen, T, 1, cap),
                 check_enum("direct"))
        yield Op("enumerate_fused",
                 lambda: designs.enumerate_T_designs(s.scheme, s.eigen, T, 1, cap, "fused"),
                 check_enum("fused"))

        def check_design_fused(res):
            _lp_feasible(res, qf, set(merged), ())
            if want:
                require(res.value <= min(len(C) for C in want),
                        "design LP bound exceeds the smallest design")
            return digest(s.name, "design", merged, res.value)

        op_df = Op("design_lp_fusion", lambda: lp.delsarte_design_lp(fs, merged),
                   check_design_fused)
        yield op_df

        def check_design_orbit(res):
            _lp_feasible(res, qbar, set(merged), ())
            require(res.value == op_df.result.value, "orbit-data LP != fused LP")
            return digest(s.name, "design_od", merged, res.value)

        yield Op("design_lp_orbits", lambda: lp.delsarte_design_lp(od, merged),
                 check_design_orbit)

        def check_code_fused(res):
            _lp_feasible(res, qf, set(), S)
            return digest(s.name, "code", S, res.value)

        op_cf = Op("code_lp_fusion", lambda: lp.delsarte_code_lp(fs, S), check_code_fused)
        yield op_cf

        def check_code_orbit(res):
            _lp_feasible(res, qbar, set(), S_orig)
            require(res.value == op_cf.result.value, "orbit-data code LP != fused code LP")
            return digest(s.name, "code_od", S_orig, res.value)

        yield Op("code_lp_orbits", lambda: lp.delsarte_code_lp(od, S_orig), check_code_orbit)


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def _lit(F, lit, N: int) -> int:
    """Residue of a CLI literal: "p/q" or [[exponent, "p/q"], ...] over zeta_N."""
    if isinstance(lit, str):
        return F.rat(Fraction(lit))
    step = F.N // N
    return sum(F.rat(Fraction(c)) * F.powers[e * step % F.N] for e, c in lit) % F.p


def _lit_matrix(F, rows, N: int):
    return [[_lit(F, v, N) for v in row] for row in rows]


@workload
class CliSession:
    """In-process ``delsarte.cli.main([..., "--json"])`` calls on catalog files."""

    name = "cli_session"
    # Catalog entries per command.  Each cycle runs every listed command once;
    # the cheap entries (x8, y8, a4, coxeter) outnumber the expensive ones
    # (z12, dic5, dic7) about two to one, so the median lands among many
    # similar ops and the tail among the expensive ones.  Every cycle runs
    # both dicyclic tables and both builds: they cost 50-400 ms by case, and
    # taking turns made the mix depend on how many cycles a run completed.
    # A cycle is 25 commands: the 90th percentile (2.5 per cycle) falls
    # amid the instances of one slow command, not between two of them.
    ENTRIES = {"verify": ("z12", "x8"),
               "eigen": ("x8", "a4", "dic5"),
               "fusion_field": ("x8", "a4"), "fusion_none": ("coxeter",),
               "fusion_unit": ("z12",),
               "report": ("dic7", "x8", "a4", "coxeter"), "enum": ("x8", "y8"),
               "lp_design": ("dic5", "x8"), "lp_code": ("z12", "a4"), "dicyclic": (3, 5),
               "build": (("cyclic", "8"), ("dicyclic", "3"))}
    warmup_ops = 2

    def __init__(self):
        self.cfg = self.ENTRIES
        self.data = Path("src/delsarte/data")
        # per process: setup probes run this workload's set-up concurrently
        self.tmp = Path(".perfbench_tmp") / str(os.getpid())
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        names = {name for key, names in self.cfg.items()
                 if key not in ("dicyclic", "build") for name in names}
        self.loaded = {name: Loaded.files(name) for name in sorted(names)}
        for name in self.cfg["enum"]:
            self.loaded[name].zero_sets(self.loaded[name].scheme.size)
        self.memo: dict[tuple, object] = {}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp.parent.rmdir()

    # in-process library results, computed once per key ------------------------

    def library(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def file_args(self, name):
        e = catalog.CATALOG[name]
        return ["--scheme", str(self.data / e.scheme_file),
                "--eigen", str(self.data / e.eigen_file)]

    # the session ----------------------------------------------------------------

    def cycles(self, seed: int):
        # A cycle runs every listed command once.  Options whose oracle result
        # is memoised (fields and units) rotate in a fixed order
        # from cycle to cycle, so every seed pays for the same memo misses;
        # the seed draws subsets, T, S and enumeration bounds.
        rng = Draws(self.name, seed)
        for step in itertools.count():
            yield self._cycle(step, rng)

    def _cycle(self, step, rng):
        cfg = self.cfg
        for name in cfg["verify"]:
            yield self._verify(name)
        for name in cfg["eigen"]:
            yield self._eigen(name)
        for name in cfg["fusion_field"]:
            yield self._fusion(name, ("Q", "real", "F")[step % 3])
        for name in cfg["fusion_none"]:
            yield self._fusion(name, "Q")
        for name in cfg["fusion_unit"]:
            units = self.loaded[name].res.units
            yield self._fusion(name, str(units[step % len(units)]))
        for name in cfg["report"]:
            yield self._report(name, rng)
        for name in cfg["enum"]:
            yield self._enum(name, rng)
        for name in cfg["lp_design"]:
            yield self._lp_design(name, rng)
        for name in cfg["lp_code"]:
            yield self._lp_code(name, rng)
        for n in cfg["dicyclic"]:
            yield self._dicyclic(n)
        for family, params in cfg["build"]:
            prefix = self.tmp / f"g{step}-{family}{params}"
            yield self._build(family, params, prefix)
            yield self._rational_fusion(family, params, prefix)

    def _cli(self, kind, argv, check, want_rc=0):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv + ["--json"])
            return rc, out.getvalue()

        def checked(res):
            rc, text = res
            require(rc == want_rc, f"{' '.join(argv)}: exit {rc}, expected {want_rc}")
            payload = json.loads(text)
            args = [a.replace(str(self.tmp), "<tmp>") for a in argv]
            return digest(kind, args, check(payload))

        return Op(kind, call, checked)

    def _verify(self, name):
        e = catalog.CATALOG[name]

        def check(out):
            sch = self.loaded[name].scheme
            want = {"size": sch.size, "classes": sch.classes, "valencies": list(sch.valencies),
                    "transpose_map": list(sch.transpose_map), "symmetric": sch.is_symmetric()}
            require(out == want, "scheme verify payload differs")
            return out

        return self._cli("scheme_verify", ["scheme", "verify", "--scheme",
                                           str(self.data / e.scheme_file)], check)

    def _eigen(self, name):
        def check(out):
            s = self.loaded[name]
            kd = self.library(("krein", name), lambda: scheme.krein_parameters(s.eigen))
            F = s.res.F
            N = out["conductor"]
            P, Q = _lit_matrix(F, out["P"], N), _lit_matrix(F, out["Q"], N)
            require(N == s.eigen.conductor and out["krein_conductor"] == kd.krein_conductor,
                    "conductors differ")
            require(out["multiplicities"] == list(s.eigen.multiplicities), "multiplicities")
            require(out["valencies"] == list(s.scheme.valencies), "valencies")
            require(P == F.matrix(s.eigen.P) and Q == F.matrix(s.eigen.Q), "P or Q differs")
            require(F.matmul(P, Q) == F.scalar_identity(len(P), s.scheme.size), "PQ != |X| I")
            return [N, out["krein_conductor"], P, Q]

        return self._cli("scheme_eigen", ["scheme", "eigen"] + self.file_args(name), check)

    def _subfield(self, s, field_text):
        named = {"Q": SubfieldSpec.rationals, "real": SubfieldSpec.real,
                 "F": SubfieldSpec.splitting_field}
        if field_text in named:
            return named[field_text](s.N)
        return SubfieldSpec(s.N, [int(field_text)])

    def _fusion(self, name, field_text):
        s = self.loaded[name]
        gens = self._subfield(s, field_text).group
        want_orbits = s.res.orbits(gens)
        want_rows = s.res.row_classes(want_orbits)
        passes = len(want_rows) == len(want_orbits)

        def compute():
            od = fusion.orbit_merge(s.eigen, self._subfield(s, field_text))
            verdict = fusion.bannai_muzychuk_idempotent(od)
            fs = (fusion.fuse_by_relation_partition(s.scheme, s.eigen, verdict.row_classes)
                  if verdict.passes else None)
            return od, verdict, fs

        def check(out):
            od, verdict, fs = self.library(("fusion", name, field_text), compute)
            require(out["passes"] == verdict.passes == passes, "verdict differs")
            require(out["orbits"] == [list(o) for o in od.orbits], "orbits differ")
            require(od.orbits == want_orbits, "orbits differ from the Galois action")
            require(out["iota"] == list(od.iota), "iota differs")
            require(out["row_classes"] == [list(c) for c in want_rows], "row classes differ")
            qf = None
            if passes:
                qf = _lit_matrix(s.res.F, out["Q_F"], out["conductor"])
                require(qf == s.res.F.matrix(fs.Q_F), "Q_F differs")
            else:
                require(out["Q_F"] is None, "Q_F present without a fusion")
            return [out["orbits"], out["row_classes"], qf]

        return self._cli("fusion", ["fusion"] + self.file_args(name) + ["--field", field_text],
                         check, 0 if passes else 1)

    def _report(self, name, rng):
        s = self.loaded[name]
        size = rng.deal((name, "size"), range(1, s.scheme.size + 1))
        subset = sorted(rng.sample(range(s.scheme.size), size))

        def check(out):
            report = designs.design_report(s.scheme, s.eigen, subset)
            F = s.res.F
            require([Fraction(v) for v in out["a"]] == list(report.a), "a differs")
            require(out["T"] == list(report.T), "T differs")
            require(tuple(out["T"]) == s.zero_set(s.inner(subset)), "T != zeros of aQ")
            require(out["orbit_closed"] is True, "report not orbit-closed")
            b = [_lit(F, v, out["conductor"]) for v in out["b"]]
            require(b == [F.of(v) for v in report.b], "b differs")
            return [out["a"], out["T"], b]

        return self._cli("design_report", ["design", "report"] + self.file_args(name)
                         + ["--subset", ",".join(map(str, subset))], check)

    def _enum(self, name, rng):
        s = self.loaded[name]
        T = s.random_T(rng)
        top = rng.randint(1, s.scheme.size)
        method = rng.choice(("direct", "fused", "cross_check"))

        def check(out):
            want = [C for C in s.t_designs(T, s.scheme.size) if len(C) <= top]
            require(out["designs"] == [list(c) for c in want], "designs differ")
            require(out["count"] == len(want) and out["T"] == list(T), "count or T differs")
            return out

        return self._cli("design_enum", ["design", "enum"] + self.file_args(name) + [
            "--T", ",".join(map(str, T)), "--max", str(top), "--method", method], check)

    def _fused(self, name):
        s = self.loaded[name]
        return self.library(("galois_Q", name), lambda: fusion.galois_fusion(
            s.scheme, s.eigen, SubfieldSpec.rationals(s.N)))

    @staticmethod
    def _lp_equal(out, res):
        require(out["status"] == res.status, "LP status differs")
        require(Fraction(out["value"]) == res.value, "LP value differs")
        require([Fraction(v) for v in out["solution"]] == list(res.solution), "LP solution")
        return out

    def _lp_design(self, name, rng):
        s = self.loaded[name]
        T = s.random_T(rng)

        def check(out):
            fs = self._fused(name)
            merged = sorted({int(fs.orbit_data.iota[j]) for j in T})
            return self._lp_equal(out, lp.delsarte_design_lp(fs, merged))

        return self._cli("lp_design", ["lp", "design-bound"] + self.file_args(name) + [
            "--T", ",".join(map(str, T)), "--fuse", "rational"], check)

    def _lp_code(self, name, rng):
        s = self.loaded[name]
        S = sorted(rng.sample(range(1, s.scheme.classes), rng.randint(1, 2)))

        def check(out):
            fs = self._fused(name)
            mapped = sorted({fs.class_map[i] for i in S})
            return self._lp_equal(out, lp.delsarte_code_lp(fs, mapped))

        return self._cli("lp_code", ["lp", "code-bound"] + self.file_args(name) + [
            "--S", ",".join(map(str, S)), "--fuse", "rational"], check)

    def _dicyclic(self, n):
        def check(out):
            rows = self.library(("dicyclic", n), lambda: designs.dicyclic_subgroup_table(n))
            F = field(4 * n)
            got = [(r["kind"], r["k"], r["order"], [Fraction(v) for v in r["a"]], r["T"],
                    [_lit(F, v, 4 * n) for v in r["b"]]) for r in out["rows"]]
            want = [(r.kind, r.k, r.order, list(r.a), list(r.T), [F.of(v) for v in r.b])
                    for r in rows]
            require(out["n"] == n and got == want, "dicyclic table differs")
            return [[g[0], g[1], g[2], [str(v) for v in g[3]], g[4], g[5]] for g in got]

        return self._cli("dicyclic_table", ["dicyclic", "table", "--n", str(n)], check)

    def _built(self, family, params):
        def compute():
            group, classes, table = groups.builtin_group(family, int(params))
            sch, _ = groups.conj_class_scheme(group)
            eig = groups.eigendata_from_characters(group, classes, table, sch)
            texts = {"group": fileio.dump_group(group), "chars": fileio.dump_characters(table),
                     "scheme": fileio.dump_scheme(sch), "eigen": fileio.dump_eigen(eig)}
            partition, fused = groups.rational_class_fusion(group, classes, sch, eig)
            return texts, partition, fused

        return self.library(("built", family, params), compute)

    def _build(self, family, params, prefix):
        def check(out):
            texts, _, _ = self._built(family, params)
            want = sorted(f"{prefix}.{kind}.json" for kind in texts)
            require(out["written"] == want, "written files differ")
            for kind, text in texts.items():
                require(Path(f"{prefix}.{kind}.json").read_text() == text, f"{kind} file differs")
            return [digest(texts[k]) for k in sorted(texts)]

        return self._cli("group_build", ["group", "build", "--family", family, "--params",
                                         params, "--write", str(prefix)], check)

    def _rational_fusion(self, family, params, prefix):
        def check(out):
            _, partition, fused = self._built(family, params)
            F = field(fused.eigen.conductor)
            N = fused.eigen.conductor
            require(out["rational_classes"] == [list(c) for c in partition], "classes differ")
            require(out["fused_classes"] == fused.fused.classes, "fused class count differs")
            P, Q = _lit_matrix(F, out["P_F"], N), _lit_matrix(F, out["Q_F"], N)
            require(P == F.matrix(fused.P_F) and Q == F.matrix(fused.Q_F), "P_F or Q_F differs")
            require(F.matmul(P, Q) == F.scalar_identity(len(P), fused.fused.size), "P_F Q_F")
            return [out["rational_classes"], P, Q]

        return self._cli("group_rational_fusion", [
            "group", "rational-fusion", "--group", f"{prefix}.group.json",
            "--chars", f"{prefix}.chars.json"], check)


