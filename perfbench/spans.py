"""Span tracing of the formspec layers, installed from the benchmark only.

``Tracer.install`` wraps every public module-level function of the seven
formspec modules plus the public methods named in ``METHODS``.  A wrapped
name is patched on its defining module and in every formspec module that
imported it, so calls through either name are seen.  Each call records one
span (name, start, end, parent span, job id) in memory; ``write`` saves the
spans once, at the end of a run.

A layer's self time is the time of its spans minus the part covered by
their child spans.  Work a layer does in functions that are not wrapped
(private helpers, methods not listed) counts as self time of the nearest
wrapped caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

LAYERS = ("exactcore", "cfengine", "forms", "minima", "diophsets",
          "spectrum", "cli")

METHODS = {
    "exactcore": ("AlgebraicReal.enclosure", "AlgebraicReal.mobius",
                  "AlgebraicReal.compare", "FieldElement.enclosure"),
    "cfengine": ("CFExpansion.resolve_period",),
    "forms": ("Mag.compare", "BinaryForm.abs_at", "ProductForm.abs_at",
              "BinaryForm.real_root_values"),
}

# Functions reported one by one as <layer>.<name>.calls and <layer>.<name>.s
REPORTED = {
    "exactcore": ("isolate_real_roots", "sturm_root_count") + METHODS["exactcore"],
    "cfengine": ("expand", "convergents") + METHODS["cfengine"],
    "forms": ("Mag.compare", "BinaryForm.abs_at", "ProductForm.abs_at",
              "BinaryForm.real_root_values", "act", "discriminant",
              "compare_scalars"),
    "minima": ("m_estimate", "brute_force_min", "convergent_candidates",
               "m_rho"),
    "diophsets": ("ael_search", "structural_classify", "in_E_eta", "in_B_eps",
                  "construct_S_point"),
    "spectrum": ("sweep", "path_profile", "diagonal_interval",
                 "diagonal_form", "classify_sweep_point", "sigma_solve",
                 "pos_disc_family", "neg_disc_family"),
    "cli": ("main", "cache_lookup", "cache_append", "emit"),
}

Span = Tuple[int, int, int, int, int]  # name id, start ns, end ns, parent, job


class Tracer:
    """Holds the spans of one traced pass; ``job`` tags new spans."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        self.job = -1
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------
    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.job)
        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"formspec.{m}") for m in LAYERS}
        replaced: Dict[int, object] = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped = self._wrap(obj, f"{layer}.{name}")
                replaced[id(obj)] = (obj, wrapped)
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self._wrap(cls.__dict__[meth],
                                                f"{layer}.{dotted}"))
        # patch each function on its module and wherever it was imported
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def write(self, path: str):
        """Save every span as one tab-separated line, gzip-compressed, once."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for i, (nid, t0, t1, parent, job) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{t0}\t{t1}\t{parent}"
                         f"\t{job}\n")

    def summary(self) -> Dict[str, float]:
        """Per-layer self time and calls, plus calls and inclusive time of
        each reported function (outermost calls only, so recursion is not
        counted twice)."""
        spans = self.spans
        child = [0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        fn_calls: Dict[str, int] = defaultdict(int)
        fn_ns: Dict[str, int] = defaultdict(int)
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            qual = self.names[nid]
            layer = qual.split(".", 1)[0]
            self_ns[layer] += t1 - t0 - child[i]
            calls[layer] += 1
            fn_calls[qual] += 1
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                fn_ns[qual] += t1 - t0
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
            out[f"{layer}.calls"] = calls[layer]
            for fn in REPORTED[layer]:
                out[f"{layer}.{fn}.calls"] = fn_calls[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.s"] = fn_ns[f"{layer}.{fn}"] / 1e9
        out["trace.spans"] = len(spans)
        return out
