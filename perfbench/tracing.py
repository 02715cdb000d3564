"""Layer tracing from outside the package.

The tracer wraps public functions and methods of each cuspdeform module
and records, per call, a span (name, start, end, parent, job id) in
memory.  Hot leaves -- the exact scalar operations and boundary_action,
called up to ~10^5 times per job -- only aggregate a count and a total
time.  Self time of a span is its duration minus the time covered by
its child spans and outermost hot leaves.

Wrappers are installed around each job and removed before the job's
output is checked, so oracle work is never counted.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from cuspdeform import bending, cli, figure8, heisenberg, isometry, matrices, scalars, words
from cuspdeform.matrices import IndeterminateError

# (owner, attribute names, metric name): the same function object may be
# bound under several names (``__rmul__ = __mul__``) and re-exported by
# other modules; every binding is replaced.
HOT = [
    (scalars.LaurentPoly, ("__mul__", "__rmul__"), "scalars.LaurentPoly.mul"),
    (scalars.LaurentPoly, ("__add__", "__radd__"), "scalars.LaurentPoly.add"),
    (scalars.LaurentPoly, ("eval_unit",), "scalars.LaurentPoly.eval_unit"),
    (scalars.ExtScalar, ("__mul__", "__rmul__"), "scalars.ExtScalar.mul"),
    (heisenberg, ("boundary_action",), "heisenberg.boundary_action"),
]
SPANS = [
    (matrices.Mat, ("__matmul__",), "matrices.Mat.matmul"),
    (matrices.Mat, ("det",), "matrices.Mat.det"),
    (matrices.Mat, ("inverse",), "matrices.Mat.inverse"),
    (matrices.Mat, ("evaluate",), "matrices.Mat.evaluate"),
    (matrices, ("form_preserved",), "matrices.form_preserved"),
    (matrices, ("herm_signature",), "matrices.herm_signature"),
    (matrices, ("eigen",), "matrices.eigen"),
    (isometry, ("classify",), "isometry.classify"),
    (words, ("check_relations",), "words.check_relations"),
    (figure8, ("build_family",), "figure8.build_family"),
    (figure8, ("figure8_report",), "figure8.figure8_report"),
    (bending, ("bianchi_family",), "bending.bianchi_family"),
    (bending, ("verify_bianchi_su31",), "bending.verify_bianchi_su31"),
    (bending, ("verify_bianchi_so41",), "bending.verify_bianchi_so41"),
    (bending, ("algebra_dimension",), "bending.algebra_dimension"),
    (heisenberg, ("orbit_points",), "heisenberg.orbit_points"),
    (heisenberg, ("orbit_gap_probe",), "heisenberg.orbit_gap_probe"),
    (heisenberg, ("rs1_probe",), "heisenberg.rs1_probe"),
    (heisenberg, ("write_orbit_csv",), "heisenberg.write_orbit_csv"),
    (cli, ("main",), "cli.main"),
]
REP_EVALUATE = (words.Rep, "evaluate")  # split by backend: exact / numeric

LAYERS = ("scalars", "matrices", "isometry", "words", "figure8", "bending",
          "heisenberg", "cli")


class Tracer:
    """Spans and counters for one traced run.  ``intended`` names the
    calls whose outermost time counts towards trace.intended_share."""

    def __init__(self, intended: frozenset[str]):
        self.intended = intended
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)   # outermost per name
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []   # (id, name, start, end, parent, job, self_s)
        self.stack: list[list] = []    # open spans: [id, child seconds]
        self.depth: dict[str, int] = defaultdict(int)
        self.hot: dict[str, list] = {}
        self.hot_depth = 0
        self.intended_depth = 0
        self.intended_s = 0.0
        self.job: int | None = None
        self._patches = self._plan()

    # -- wrappers ----------------------------------------------------------

    def _enter_intended(self, name: str) -> bool:
        if name in self.intended:
            self.intended_depth += 1
            return True
        return False

    def _leave_intended(self, dt: float) -> None:
        self.intended_depth -= 1
        if self.intended_depth == 0:
            self.intended_s += dt

    def _hot(self, name: str, fn):
        tr = self
        rec = tr.hot[name] = [0, 0.0, 0, 0.0]  # calls, inclusive s, depth, self s
        intended = name in tr.intended

        def wrapper(*args, **kwargs):
            rec[0] += 1
            rec[2] += 1
            tr.hot_depth += 1
            if intended:
                tr.intended_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr.hot_depth -= 1
                rec[2] -= 1
                if not rec[2]:
                    rec[1] += dt
                if not tr.hot_depth:
                    rec[3] += dt
                    if tr.stack:
                        tr.stack[-1][1] += dt
                if intended:
                    tr._leave_intended(dt)
        return wrapper

    def _span_call(self, name: str, fn, args, kwargs):
        sid = len(self.spans) + len(self.stack)
        parent = self.stack[-1] if self.stack else None
        frame = [sid, 0.0]
        self.stack.append(frame)
        self.calls[name] += 1
        self.depth[name] += 1
        mine = self._enter_intended(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except IndeterminateError:
            self.extra[name + ".indeterminate"] += 1
            raise
        except Exception:
            self.extra[name + ".errors"] += 1
            raise
        finally:
            t1 = perf_counter()
            dt = t1 - t0
            self.stack.pop()
            self.depth[name] -= 1
            if not self.depth[name]:
                self.incl[name] += dt
            own = dt - frame[1]
            self.self_s[name] += own
            if parent is not None:
                parent[1] += dt
            self.spans.append((sid, name, t0, t1, parent[0] if parent else None,
                               self.job, own))
            if mine:
                self._leave_intended(dt)

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self._span_call(name, fn, args, kwargs)
        return wrapper

    def _gap_probe(self, name: str, fn):
        def wrapper(gT, gU, p0, radius, *rest, **kwargs):
            n = (2 * radius + 1) ** 2
            self.extra[name + ".pairs"] += n * (n - 1)
            return self._span_call(name, fn, (gT, gU, p0, radius) + rest, kwargs)
        return wrapper

    def _csv_writer(self, name: str, fn):
        def wrapper(fp, *rest, **kwargs):
            before = fp.tell()
            try:
                return self._span_call(name, fn, (fp,) + rest, kwargs)
            finally:
                self.extra[name + ".bytes"] += fp.tell() - before
        return wrapper

    def _rep_evaluate(self, fn):
        def wrapper(rep, word):
            name = ("words.Rep.evaluate_exact" if rep.is_exact
                    else "words.Rep.evaluate_numeric")
            return self._span_call(name, fn, (rep, word), {})
        return wrapper

    # -- installation --------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every binding."""
        special = {"heisenberg.orbit_gap_probe": self._gap_probe,
                   "heisenberg.write_orbit_csv": self._csv_writer}
        wrapped: dict[int, tuple[object, object]] = {}
        for table, make in ((HOT, self._hot), (SPANS, self._span)):
            for owner, attrs, name in table:
                fn = owner.__dict__[attrs[0]]
                wrapped[id(fn)] = (fn, special.get(name, make)(name, fn))
        rep_fn = REP_EVALUATE[0].__dict__[REP_EVALUATE[1]]
        wrapped[id(rep_fn)] = (rep_fn, self._rep_evaluate(rep_fn))
        plan = []
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cuspdeform" or n.startswith("cuspdeform.")]
        namespaces += [scalars.LaurentPoly, scalars.ExtScalar, matrices.Mat, words.Rep]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    plan.append((ns, attr, value, hit[1]))
        return plan

    def install(self, job: int) -> None:
        self.job = job
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)
        self.job = None

    # -- results -----------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.hot[name][0] if name in self.hot else self.calls[name]

    def seconds(self, name: str) -> float:
        return self.hot[name][1] if name in self.hot else self.incl[name]

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        own = [(n, s) for n, s in self.self_s.items()]
        own += [(n, rec[3]) for n, rec in self.hot.items()]
        for name, s in own:
            out[name.split(".", 1)[0]] += s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fp:
            fp.write("id,name,start_s,end_s,parent,job,self_s\n")
            for sid, name, t0, t1, parent, job, own in sorted(self.spans):
                fp.write(f"{sid},{name},{t0:.9f},{t1:.9f},"
                         f"{'' if parent is None else parent},{job},{own:.9f}\n")
