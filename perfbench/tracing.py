"""Spans and call counters wrapped around acy's public functions from outside.

A `Tracer` replaces functions and methods of the already imported acy modules
with thin wrappers; nothing in `src/` is edited.  A module-level function is
replaced under every name that refers to it in any acy module, so call sites
that imported it with `from .x import f` see the wrapper too.  Every call site
in the pipeline looks its callee up at call time, which is why wrapping does
not change what runs.

Two kinds of wrapper:

* a *span* times each outermost call (a nested call of the same name, such as
  the recursion in `builtin_cells`, is folded into the outer one) and records
  the growth of the process's peak RSS across it.  Spans named in `STAGES` are
  pipeline stages; call counts are filed under the innermost active stage.
* a *counter* only counts calls.  Counters sit on the hottest methods
  (`Scalar.__mul__`, `GradedAlgebra.mul_basis`, ...) and roughly double the
  run time, so they are installed only in a separate counting pass whose
  timings are not reported.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import contextmanager

# Spans directly under the run: workload.py's own steps, and the stages that
# `build_report` runs in order.  Counters are filed under the innermost one.
STAGES = (
    "import", "trace.install", "quiver.graph", "cells.load", "solver.solve",
    "cells.verify", "cells.relations", "algebra.build", "algebra.form",
    "homology.init", "homology.hh_table", "homology.reduced", "homology.cyclic",
    "homology.coh_table", "homology.hh0", "homology.d2", "homology.duality",
    "homology.dim_symmetry", "homology.periodicity", "series.euler",
    "homology.euler_from_hc", "homology.cohomology_routes",
    "homology.hh0_cohomology", "homology.resolution", "algebra.spot_checks",
    "report.serialize",
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Agg:
    __slots__ = ("calls", "s", "self_s", "rss_kb")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.rss_kb = 0


class Tracer:
    """Spans (always) and hot-method counters (when `counting`) for one run."""

    def __init__(self, counting: bool = False):
        self.counting = counting
        self.spans: dict[str, _Agg] = {}
        self.counts: dict[str, dict[str, int]] = {"run": {}}
        self.details: dict[str, float] = {}
        self.top_s = 0.0          # time covered by spans with no parent span
        self.first_start = None   # monotonic start of the first span
        self._cur = self.counts["run"]
        self._active: set[str] = set()
        self._child_s: list[float] = []
        self._undo: list = []

    # -- recording --------------------------------------------------------------

    def add(self, key: str, value: float):
        self.details[key] = self.details.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        cur = self._cur
        cur[name] = cur.get(name, 0) + 1
        if name in self._active:
            yield
            return
        self._active.add(name)
        if name in STAGES:
            self._cur = self.counts.setdefault(name, {})
        self._child_s.append(0.0)
        rss0 = _maxrss_kb()
        t0 = time.monotonic()
        if self.first_start is None:
            self.first_start = t0
        try:
            yield
        finally:
            t1 = time.monotonic()
            rss1 = _maxrss_kb()
            dt = t1 - t0
            inner = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += dt
            else:
                self.top_s += dt
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = _Agg()
            agg.calls += 1
            agg.s += dt
            agg.self_s += dt - inner
            agg.rss_kb += rss1 - rss0
            self._cur = cur
            self._active.discard(name)

    # -- installation ---------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur = tracer._cur
            cur[name] = cur.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch_function(self, modules, mod, attr, wrap):
        original = getattr(mod, attr)
        wrapper = wrap(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, key, value))
                    setattr(m, key, wrapper)

    def _patch_method(self, cls, attr, wrap):
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(cls, attr, wrap(raw))

    def install(self):
        """Wrap acy's public functions and methods; `uninstall` restores them."""
        import acy.algebra
        import acy.cells
        import acy.homology
        import acy.linalg
        import acy.quiver
        import acy.scalar
        import acy.series
        import acy.solver

        modules = [acy.algebra, acy.cells, acy.homology, acy.linalg, acy.quiver,
                   acy.scalar, acy.series, acy.solver]
        Homology = acy.homology.Homology
        GradedAlgebra = acy.algebra.GradedAlgebra
        Scalar = acy.scalar.Scalar

        def span(name, hook=None):
            return lambda fn: self._span_wrapper(name, fn, hook)

        functions = [
            (acy.quiver, "parse_graph_spec", span("quiver.graph")),
            (acy.quiver, "build_family", span("quiver.graph")),
            (acy.quiver, "perron_frobenius", span("quiver.perron_frobenius")),
            (acy.cells, "builtin_cells", span("cells.load")),
            (acy.cells, "orbifold_cells", span("cells.orbifold")),
            (acy.cells, "verify_type_I", span("cells.verify", _frames)),
            (acy.cells, "verify_type_II", span("cells.verify", _frames)),
            (acy.cells, "derive_relations", span("cells.relations")),
            (acy.solver, "solve_cells", span("solver.solve")),
            (acy.series, "hilbert_closed_form", span("series.hilbert")),
            (acy.series, "euler_characteristic_hc", span("series.euler")),
            (acy.algebra, "spot_checks", span("algebra.spot_checks")),
            (acy.linalg, "rank", span("linalg.rank", _rank_shape)),
            (acy.homology, "cyclic_from_hh", span("homology.cyclic")),
            (acy.homology, "hh0_direct", span("homology.hh0")),
            (acy.homology, "euler_from_hc", span("homology.euler_from_hc")),
            (acy.homology, "verify_resolution", span("homology.resolution")),
            (acy.homology, "_resolution_ranks",
             span("homology.resolution_ranks", _usable_prime)),
        ]
        methods = [
            (GradedAlgebra, "__init__", span("algebra.build", _algebra_dim)),
            (GradedAlgebra, "build_form", span("algebra.form")),
            (Homology, "__init__", span("homology.init")),
            (Homology, "rank", span("homology.rank")),
            (Homology, "hh_table", span("homology.hh_table")),
            (Homology, "reduced", span("homology.reduced")),
            (Homology, "coh_table", span("homology.coh_table")),
            (Homology, "check_d_squared", span("homology.d2")),
            (Homology, "verify_duality", span("homology.duality")),
            (Homology, "verify_dim_symmetry", span("homology.dim_symmetry")),
            (Homology, "verify_periodicity", span("homology.periodicity")),
            (Homology, "verify_cohomology_routes", span("homology.cohomology_routes")),
            (Homology, "verify_hh0_cohomology", span("homology.hh0_cohomology")),
            (acy.scalar.PrimeEmbedding, "find", span("scalar.prime_find")),
        ]
        if self.counting:
            def count(name):
                return lambda fn: self._count_wrapper(name, fn)

            methods += [
                (GradedAlgebra, "mul_basis", count("algebra.mul_basis")),
                (GradedAlgebra, "mul", count("algebra.mul")),
                (GradedAlgebra, "mul_edge", count("algebra.mul_edge")),
                (GradedAlgebra, "unit", count("algebra.unit")),
                (acy.linalg.Eliminator, "add", count("linalg.eliminator_add")),
                (Scalar, "__mul__", count("scalar.mul")),
                (Scalar, "__add__", count("scalar.add")),
                (Scalar, "inverse", count("scalar.inverse")),
                (Scalar, "reduce_mod", count("scalar.reduce_mod")),
            ]
        for mod, attr, wrap in functions:
            self._patch_function(modules, mod, attr, wrap)
        for cls, attr, wrap in methods:
            self._patch_method(cls, attr, wrap)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ---------------------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "spans": {name: {"calls": a.calls, "s": a.s, "self_s": a.self_s,
                             "rss_growth_mb": a.rss_kb / 1024}
                      for name, a in self.spans.items()},
            "counts": {stage: dict(c) for stage, c in self.counts.items() if c},
            "details": dict(self.details),
            "top_s": self.top_s,
            "first_start": self.first_start,
        }


class NullTracer:
    """Stands in for `Tracer` in untraced runs: no wrappers, no bookkeeping."""

    @contextmanager
    def span(self, name: str):
        yield

    def install(self):
        pass


# -- per-call hooks: shapes and outcomes that a count alone does not give ------------

def _frames(tracer, args, report):
    tracer.add("cells.frames", report.frames)


def _rank_shape(tracer, args, rank):
    vectors = args[0]
    tracer.add("linalg.rank_cols", len(vectors))
    tracer.add("linalg.rank_nnz", sum(len(v) for v in vectors))
    tracer.add("linalg.rank_sum", rank)


def _usable_prime(tracer, args, failures):
    tracer.add("homology.usable_primes", 1)


def _algebra_dim(tracer, args, _none):
    algebra = args[0]
    tracer.add("algebra.dim", sum(len(b) for b in algebra.basis))
