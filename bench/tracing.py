"""Spans around the calls into each ahom module, recorded from outside.

:meth:`Tracer.install` rebinds the public functions listed in
:data:`TRACED` in every loaded ``ahom.*`` module that holds them (so
``corpus.snf`` and ``chains.kernel_basis`` are traced as well as
``abelian.snf``), wraps ``FgAbGroup.of`` and ``IntMatrix.__matmul__`` on
their classes and the entries of ``corpus.ALL_CHECKS``.
:meth:`Tracer.uninstall` puts every original back.

A span records its name, start, end, parent span and operation id; spans
are kept in flat arrays while the run lasts and written out at the end.
Self time is a span's duration minus the time its child spans cover.  Time
spent reading counters off arguments and results is excluded from both.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); the layer is the part before the first dot
TRACED = [
    ("abelian", "snf", "abelian.snf"),
    ("abelian", "column_echelon", "abelian.column_echelon"),
    ("abelian", "kernel_basis", "abelian.kernel_basis"),
    ("abelian", "solve", "abelian.solve"),
    ("abelian", "cokernel", "abelian.cokernel"),
    ("chains", "homology", "chains.homology"),
    ("chains", "cohomology_uct", "chains.cohomology_uct"),
    ("chains", "cohomology_direct", "chains.cohomology_direct"),
    ("chains", "complex_from_json", "chains.complex_from_json"),
    ("ahomology", "a_homology", "ahomology.a_homology"),
    ("ahomology", "a_homology_range", "ahomology.a_homology_range"),
    ("federer", "federer_e2", "federer.page"),
    ("federer", "relative_federer_e2", "federer.page"),
    ("federer", "collapse_report", "federer.collapse_report"),
    ("federer", "torsion_class_check", "federer.torsion_class_check"),
    ("federer", "load_homotopy_table", "federer.load_homotopy_table"),
    ("spaces", "build", "spaces.build"),
    ("cli", "main", "cli.main"),
]


def _bits(m) -> int:
    return max((abs(x).bit_length() for row in m.entries for x in row), default=0)


def _complex_key(c) -> int:
    return hash((tuple(sorted(c.ranks.items())),
                 tuple((n, m.entries) for n, m in sorted(c.boundaries.items()))))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._covered = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.raised: Counter = Counter()
        self.maxima: Counter = Counter()
        self.page_cells = 0
        self._distinct: dict[int, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        layer = name.split(".")[0]
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.name)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            tracer.name.append(nid)
            tracer.parent.append(parent)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            tracer._covered.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or tracer.layer(parent) != layer:
                    tracer.raised[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.end[sid] = t1
                tracer.self_time[sid] = (t1 - t0) - tracer._covered[sid]
                if parent >= 0:
                    tracer._covered[parent] += t1 - t0
            if observe is not None:
                observe(tracer, args, result)
                if parent >= 0:
                    tracer._covered[parent] += perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def layer(self, sid: int) -> str:
        return self.names[self.name[sid]].split(".")[0]

    # -- counters read off arguments and results --------------------------

    def _observe_snf(self, args, dec):
        m = args[0]
        self.maxima["abelian.snf.max_cells"] = max(
            self.maxima["abelian.snf.max_cells"], m.rows * m.cols)
        self.maxima["abelian.snf.max_entry_bits"] = max(
            self.maxima["abelian.snf.max_entry_bits"], _bits(m), _bits(dec.S))
        self.maxima["abelian.snf.max_transform_bits"] = max(
            self.maxima["abelian.snf.max_transform_bits"], _bits(dec.U), _bits(dec.V))

    def _observe_homology(self, args, _):
        c, n = args[0], args[1]
        self._distinct[self.current_op].add((_complex_key(c), n))

    def _observe_page(self, args, page):
        self.page_cells += len(page.entries)

    # -- installing -----------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("ahom."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def install(self) -> None:
        from ahom import abelian, corpus

        observers = {"abelian.snf": Tracer._observe_snf,
                     "chains.homology": Tracer._observe_homology,
                     "federer.page": Tracer._observe_page}
        for module, attr, name in TRACED:
            original = getattr(sys.modules[f"ahom.{module}"], attr)
            self._rebind(original, self.wrap(name, original, observers.get(name)))
        of = vars(abelian.FgAbGroup)["of"]
        self._patches.append((abelian.FgAbGroup, "of", of))
        abelian.FgAbGroup.of = classmethod(self.wrap("abelian.FgAbGroup.of", of.__func__))
        matmul = vars(abelian.IntMatrix)["__matmul__"]
        self._patches.append((abelian.IntMatrix, "__matmul__", matmul))
        abelian.IntMatrix.__matmul__ = self.wrap("abelian.IntMatrix.matmul", matmul)
        checks = list(corpus.ALL_CHECKS)
        self._patches.append((corpus, "ALL_CHECKS", checks))
        corpus.ALL_CHECKS = [
            self.wrap("corpus." + fn.__name__.removeprefix("check_").replace("_", "-"), fn)
            for fn in checks]

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over `ops` traced operations (per-op means)."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        snf = self._ids.get("abelian.snf")
        echelon = self._ids.get("abelian.column_echelon")
        echelons_in_snf = 0
        for sid, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += self.self_time[sid]
            inclusive[nid] += self.end[sid] - self.start[sid]
            p = self.parent[sid]
            if nid == echelon and p >= 0 and self.name[p] == snf:
                echelons_in_snf += 1
        out: dict[str, float] = {}
        for name, nid in self._ids.items():
            if name.startswith("corpus."):  # a check's whole time
                out[f"{name}.s"] = inclusive[nid] / ops
                continue
            out[f"{name}.calls"] = calls[nid] / ops
            out[f"{name}.self_s"] = self_s[nid] / ops
        out["abelian.snf.rounds"] = echelons_in_snf / 2 / calls[snf] if calls[snf] else 0.0
        out.update({k: float(v) for k, v in self.maxima.items()})
        homology_calls = calls[self._ids["chains.homology"]]
        distinct = sum(len(s) for s in self._distinct.values())
        out["chains.homology.distinct_ratio"] = distinct / homology_calls if homology_calls else 1.0
        out["federer.page.cells"] = self.page_cells / ops
        for layer in {n.split(".")[0] for n in self.names}:
            out[f"{layer}.raised"] = float(self.raised[layer])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\tself\n")
            for sid in range(len(self.name)):
                fh.write(f"{sid}\t{self.names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                         f"{self.end[sid]:.9f}\t{self.parent[sid]}\t{self.op[sid]}\t"
                         f"{self.self_time[sid]:.9f}\n")
