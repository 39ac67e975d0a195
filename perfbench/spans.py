"""Outside-in tracer: wraps drhier's public functions and records spans.

The wrappers are installed from outside the package, before a job runs, on
the defining class or module and on every loaded module that bound the same
object by ``from .x import name``; class aliases such as ``__rmul__ =
__mul__`` are patched too.  ``restore`` puts every original back.

A span is (name, start, end, parent).  One job runs per process, so the job
id travels once with the report instead of once per span.  Spans stay in
memory in flat arrays and are reduced to per-layer figures when the job ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, attribute path, span name, (counter, result attribute to len()))
TARGETS = [
    ("drhier.scalars", "AlgScalar.__mul__", "scalars.mul", None),
    ("drhier.scalars", "AlgScalar.__add__", "scalars.add", None),
    ("drhier.scalars", "AlgScalar.inverse", "scalars.inverse", None),
    ("drhier.diffpoly", "DiffPoly.__mul__", "diffpoly.mul",
     ("diffpoly.mul.terms_out", "terms")),
    ("drhier.diffpoly", "DiffPoly.__add__", "diffpoly.add", None),
    ("drhier.diffpoly", "DiffPoly.__sub__", "diffpoly.sub", None),
    ("drhier.diffpoly", "DiffPoly.dx", "diffpoly.dx", None),
    ("drhier.diffpoly", "DiffPoly.var_der", "diffpoly.var_der", None),
    ("drhier.diffpoly", "DiffPoly.substitute", "diffpoly.substitute", None),
    ("drhier.diffpoly", "LocalFunctional.canonical_density",
     "diffpoly.canonical_density", None),
    ("drhier.diffpoly", "local_eq", "diffpoly.local_eq", None),
    ("drhier.psido", "PseudoDiffOp.__mul__", "psido.mul",
     ("psido.orders_computed", "coeffs")),
    ("drhier.psido", "PseudoDiffOp.power", "psido.power", None),
    ("drhier.psido", "pdo_root", "psido.pdo_root", None),
    ("drhier.gdhier", "gd_context", "gdhier.gd_context", None),
    ("drhier.gdhier", "GDContext.lax_power", "gdhier.lax_power", None),
    ("drhier.gdhier", "gd_operator", "gdhier.gd_operator", None),
    ("drhier.gdhier", "gd_hamiltonian", "gdhier.gd_hamiltonian", None),
    ("drhier.gdhier", "rspin_change", "gdhier.rspin_change", None),
    ("drhier.gdhier", "rspin_operator", "gdhier.rspin_operator", None),
    ("drhier.gdhier", "rspin_hamiltonian", "gdhier.rspin_hamiltonian", None),
    ("drhier.hamops", "miura_invert", "hamops.miura_invert", None),
    ("drhier.hamops", "miura_push_poly", "hamops.miura_push_poly", None),
    ("drhier.hamops", "transport_operator", "hamops.transport_operator", None),
    ("drhier.hamops", "flow", "hamops.flow", None),
    ("drhier.drspin", "builtin_g11", "drspin.builtin_g11", None),
    ("drhier.reconstruct", "omega_from_gd", "reconstruct.omega_from_gd", None),
    ("drhier.reconstruct", "special_solution", "reconstruct.special_solution",
     None),
    ("drhier.reconstruct", "check_string_dilaton",
     "reconstruct.check_string_dilaton", None),
    ("drhier.reconstruct", "integrate_flows_directly",
     "reconstruct.integrate_flows_directly", None),
    ("drhier.reconstruct", "solutions_agree", "reconstruct.solutions_agree",
     None),
    ("drhier.reconstruct", "jet_rewrite", "reconstruct.jet_rewrite", None),
    ("drhier.reconstruct", "verify_dr_dz_equivalence",
     "reconstruct.verify_dr_dz_equivalence", None),
    ("drhier.quantize", "DeformedRule.from_operator", "quantize.from_operator",
     None),
    ("drhier.quantize", "weyl_star", "quantize.weyl_star",
     ("quantize.terms_out", "terms")),
    ("drhier.quantize", "f_r_map", "quantize.f_r_map", None),
    ("drhier.cli", "main", "cli.main", None),
]

# Called too often, and too much a part of their callers' t-series work, to
# be spans of their own: only their calls are counted.
COUNTED = [
    ("drhier.reconstruct", "SpecialSolution.eval_poly", "reconstruct.eval_poly.calls"),
]

LAYERS = ("scalars", "diffpoly", "hamops", "psido", "gdhier", "drspin",
          "reconstruct", "quantize", "cli")


class Tracer:
    """Span recorder; ``install`` patches TARGETS, ``restore`` undoes it."""

    def __init__(self):
        self.span_names = [name for _, _, name, _ in TARGETS]
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {measure[0]: 0 for *_, measure in TARGETS if measure}
        self.counters.update((counter, 0) for *_, counter in COUNTED)
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers -------------------------------

    def _wrap(self, fn, span_id: int, measure):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        # Two bodies keep the branch on ``measure`` out of the hot path: the
        # AlgScalar wrappers run over a million times in a verify-main job.
        if measure is None:
            def wrapper(*args, **kwargs):
                i = len(start)
                name_id.append(span_id)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
        else:
            counter, attr = measure

            def wrapper(*args, **kwargs):
                i = len(start)
                name_id.append(span_id)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
                counters[counter] += len(getattr(result, attr, ()))
                return result

        return functools.wraps(fn)(wrapper)

    def _count(self, fn, counter: str):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        bound_by: dict[int, list[tuple[object, str]]] = {}
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if callable(value):
                    bound_by.setdefault(id(value), []).append((module, attr))
        wrappers = [(module_name, path, functools.partial(self._wrap, span_id=i, measure=m))
                    for i, (module_name, path, _, m) in enumerate(TARGETS)]
        wrappers += [(module_name, path, functools.partial(self._count, counter=c))
                     for module_name, path, c in COUNTED]
        for module_name, path, wrap in wrappers:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrap(raw.__func__))
                else:
                    wrapped = wrap(raw)
                for alias, value in list(owner.__dict__.items()):
                    if value is raw:
                        self._set(owner, alias, wrapped)
            else:
                original = getattr(module, attr)
                wrapped = wrap(original)
                for holder, alias in bound_by.get(id(original), ()):
                    if holder.__dict__.get(alias) is original:
                        self._set(holder, alias, wrapped)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reducing the spans --------------------------------------------------

    def reduce(self, body_s: float) -> dict:
        """Per-span-name calls, inclusive and self seconds, plus counters.

        Self time is a span's duration minus its children's durations; a
        child is stored after its parent, so one backward pass sums them.
        Inclusive time counts only spans with no same-named ancestor: spans
        are stored in start order and nest, so a span starting before the
        last outermost span of its name ended lies inside it.
        """
        n_names = len(self.span_names)
        calls = [0] * n_names
        incl = [0.0] * n_names
        self_s = [0.0] * n_names
        outer_end = [float("-inf")] * n_names
        child_s = [0.0] * len(self.start)
        covered = 0.0
        for i in range(len(self.start) - 1, -1, -1):
            duration = self.end[i] - self.start[i]
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += duration - child_s[i]
            p = self.parent[i]
            if p >= 0:
                child_s[p] += duration
            else:
                covered += duration
        for i, nid in enumerate(self.name_id):
            if self.start[i] >= outer_end[nid]:
                incl[nid] += self.end[i] - self.start[i]
                outer_end[nid] = self.end[i]
        names = self.span_names
        return {
            "spans": len(self.start),
            "body_s": body_s,
            "covered_s": covered,
            "calls": {names[k]: calls[k] for k in range(n_names) if calls[k]},
            "incl_s": {names[k]: incl[k] for k in range(n_names) if calls[k]},
            "self_s": {names[k]: self_s[k] for k in range(n_names) if calls[k]},
            "counters": dict(self.counters),
        }
