"""Per-layer trace built from the benchmark's own files.

The tracer replaces layer functions of reeslab with timing wrappers in every
module namespace that holds them (``decision.cohomology_dims`` and
``cohomology.cohomology_dims`` are the same function under two names), runs
the ops, and puts every original back.  reeslab itself is not modified.

Wrapped functions come in two kinds:

* span functions record one span per call: (span id, parent id, op id,
  name, start, end, covered seconds).  Each op is the root span of its
  calls.
* leaf functions (cone membership, z-expansion lookups, FieldSpec methods)
  run up to millions of times per pass; they are only counted and timed.
  Their time, and the time the tracer spends counting, is charged to the
  enclosing span as covered seconds.

A span's self time is its duration minus the part covered by its child spans
and minus its covered seconds (``self_times``).  Spans and counters stay in
memory until the pass ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute, layer name, kind); kind "span" or "leaf".
LAYER_FUNCTIONS = (
    ("reeslab.decision", "decide", "decision.decide", "span"),
    ("reeslab.cohomology", "factorization_search", "cohomology.factorization_search", "span"),
    ("reeslab.cohomology", "cohomology_dims", "cohomology.cohomology_dims", "span"),
    ("reeslab.cohomology", "_echelon_rank", "cohomology._echelon_rank", "span"),
    ("reeslab.algebra", "subspace_decompose", "algebra.subspace_decompose", "span"),
    ("reeslab.algebra", "xi_power", "algebra.xi_power", "span"),
    ("reeslab.algebra", "invert_unit", "algebra.invert_unit", "span"),
    ("reeslab.algebra", "multiply", "algebra.multiply", "span"),
    ("reeslab.geometry", "overlaps_and_gaps", "geometry.overlaps_and_gaps", "span"),
    ("reeslab.geometry", "emu_check", "geometry.emu_check", "span"),
    ("reeslab.algebra", "_z_rows_base", "algebra._z_rows_base", "leaf"),
    ("reeslab.geometry", "pa_member", "geometry.membership", "leaf"),
    ("reeslab.geometry", "pb_member", "geometry.membership", "leaf"),
)
FIELD_METHODS = ("of_int", "of_fraction", "add", "sub", "mul", "neg", "inv", "is_zero")
FIELD_LAYER = "fields.FieldSpec"
# Time spent inside any call of a group, nested calls counted once; divided
# by the traced wall time these show whether a workload isolates its layers.
GROUPS = {
    "window_reduction": ("algebra.subspace_decompose", "algebra._z_rows_base"),
    "product": ("algebra.xi_power", "algebra.invert_unit", "algebra.multiply"),
    "emu_check": ("geometry.emu_check",),
}
_RAISED = object()
# Layers whose results feed counters (see Tracer._count).
COUNTED = frozenset({
    "algebra.subspace_decompose", "cohomology.cohomology_dims", "cohomology._echelon_rank",
    "cohomology.factorization_search", "algebra.xi_power", "algebra._z_rows_base",
    "decision.decide",
})


def self_times(spans) -> dict:
    """Self time of every span: duration minus the union of its children's
    intervals (clipped to the span) minus its covered seconds.

    ``spans`` are tuples (span_id, parent_id, op_id, name, start, end,
    covered_s); returns {span_id: seconds}.
    """
    children = defaultdict(list)
    for _sid, parent, _op, _name, start, end, _covered in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _op, _name, start, end, covered_s in spans:
        covered = covered_s
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[sid] = (end - start) - covered
    return out


def _coeff_bits(c) -> int:
    num = getattr(c, "numerator", c)
    den = getattr(c, "denominator", 1)
    return max(abs(num).bit_length(), den.bit_length())


class Tracer:
    """Installs wrappers, collects spans and counters, restores originals."""

    def __init__(self):
        self.spans: list = []
        self.leaf = defaultdict(lambda: [0, 0.0])   # name -> [calls, self_s]
        self.counters = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list = []
        self._next_id = 0
        self._op = None
        self._patched: list = []        # (owner, attribute, original)
        self._last_window = None        # (op, m, l, h0) of the last cohomology_dims
        self._z_sizes = weakref.WeakKeyDictionary()
        self._group_depth = dict.fromkeys(GROUPS, 0)
        self.group_s = dict.fromkeys(GROUPS, 0.0)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        # Callers outside reeslab (the benchmark's own worker) bind the same
        # function objects, so every loaded module is searched.
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for modname, attr, layer, kind in LAYER_FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                if layer not in self.absent:
                    self.absent.append(layer)
                continue
            wrapper = self._wrap(original, layer, kind)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
        fieldspec = getattr(sys.modules.get("reeslab.fields"), "FieldSpec", None)
        for meth in FIELD_METHODS:
            original = vars(fieldspec).get(meth) if fieldspec else None
            if original is None:
                continue
            self._patched.append((fieldspec, meth, original))
            setattr(fieldspec, meth, self._wrap(original, FIELD_LAYER, "leaf"))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- recording ----------------------------------------------------------

    def run_op(self, op_id: int, fn):
        """Run fn() as the root span of one op."""
        self._op = op_id
        try:
            return self._wrap(fn, "op", "span")()
        finally:
            self._op = None

    def _wrap(self, fn, layer: str, kind: str):
        clock = time.perf_counter
        stack = self._stack
        count = self._count
        spans = self.spans
        is_span = kind == "span"
        leaf_stat = None if is_span else self.leaf[layer]
        groups = tuple(g for g, members in GROUPS.items() if layer in members)
        depth, group_s = self._group_depth, self.group_s

        if not (is_span or groups or layer in COUNTED):
            # Cone membership and FieldSpec methods run millions of times;
            # the less the wrapper does, the less it inflates their share.
            def leaf(*args, **kwargs):
                parent = stack[-1] if stack else None
                frame = [parent[0] if parent else None, 0.0, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    if parent is not None:
                        parent[1] += end - start
                        parent[2] += end - start
                    leaf_stat[0] += 1
                    leaf_stat[1] += (end - start) - frame[1]

            return leaf

        def wrapper(*args, **kwargs):
            for g in groups:
                depth[g] += 1
            parent = stack[-1] if stack else None
            if is_span:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[0] if parent else None
            frame = [sid, 0.0, 0.0]        # span id, child seconds, covered seconds
            stack.append(frame)
            result = _RAISED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        group_s[g] += end - start
                if result is not _RAISED and layer in COUNTED:
                    count(layer, args, result, end - start)
                done = clock()
                if parent is not None:
                    parent[1] += done - start
                    parent[2] += (done - end) if is_span else (done - start)
                if is_span:
                    spans.append((sid, parent[0] if parent else None, self._op,
                                  layer, start, end, frame[2]))
                else:
                    leaf_stat[0] += 1
                    leaf_stat[1] += (end - start) - frame[1]

        return wrapper

    def _count(self, layer, args, result, dur) -> None:
        c = self.counters
        if layer == "algebra.subspace_decompose":
            c["algebra.subspace_decompose.gap_terms"] += len(result.gap_residual)
        elif layer == "cohomology.cohomology_dims":
            c["cohomology.cohomology_dims.levels"] += result.l - result.m
            c["cohomology.cohomology_dims.overlaps"] += len(result.matrix.overlaps)
            c["cohomology.cohomology_dims.gaps"] += len(result.matrix.gaps)
            c["cohomology.cohomology_dims.h0_pos"] += result.h0 > 0
            last = self._last_window
            if last is not None and last[:3] == (self._op, result.m, result.l) and last[3] > 0:
                c["cohomology.recheck_s"] += dur
            self._last_window = (self._op, result.m, result.l, result.h0)
        elif layer == "cohomology._echelon_rank":
            c["cohomology._echelon_rank.rank_sum"] += result[0]
        elif layer == "cohomology.factorization_search":
            c["cohomology.factorization_search.branches"] += result.branches_explored
            c["cohomology.factorization_search.successes"] += result.success
            if result.obstruction is not None:
                c["cohomology.factorization_search.obstruction_level_sum"] += result.obstruction[0]
        elif layer == "algebra.xi_power":
            bits = max((_coeff_bits(v) for row in result.rows.values()
                        for v in row.values()), default=0)
            key = "algebra.xi_power.coeff_bits_max"
            c[key] = max(c[key], bits)
        elif layer == "algebra._z_rows_base":
            # The cache is append-only and gains one entry per expansion built.
            ctx = args[0]
            cache = getattr(ctx, "_z_cache", None)
            if cache is None:
                if "algebra._z_rows_base.built" not in self.absent:
                    self.absent.append("algebra._z_rows_base.built")
            else:
                c["algebra._z_rows_base.built"] += len(cache) - self._z_sizes.get(ctx, 0)
                self._z_sizes[ctx] = len(cache)
        elif layer == "decision.decide":
            c["decision.probes"] += len(result.probes)
            c["decision.witnesses"] += result.status == "FG_WITNESS"

    # -- results ------------------------------------------------------------

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}, given the wall time of
        the traced pass and of an untraced pass over the same ops."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        selfs = self_times(self.spans)
        for sid, _parent, _op, name, _start, _end, _cov in self.spans:
            calls[name] += 1
            self_s[name] += selfs[sid]
        for name, (n, t) in self.leaf.items():
            calls[name] += n
            self_s[name] += t
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in ("algebra.subspace_decompose", "algebra._z_rows_base",
                      "geometry.membership", "geometry.overlaps_and_gaps",
                      "geometry.emu_check", "cohomology.cohomology_dims",
                      "cohomology._echelon_rank", "cohomology.factorization_search",
                      "algebra.xi_power", "algebra.invert_unit", "algebra.multiply",
                      "decision.decide", FIELD_LAYER):
            key = "lookups" if layer == "algebra._z_rows_base" else "calls"
            if layer != "cohomology._echelon_rank":
                out[f"{layer}.{key}"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        zl, zb = calls["algebra._z_rows_base"], c["algebra._z_rows_base.built"]
        cd = calls["cohomology.cohomology_dims"]
        fs = calls["cohomology.factorization_search"]
        out.update({
            "algebra.subspace_decompose.gap_terms":
                (c["algebra.subspace_decompose.gap_terms"], "count"),
            "algebra._z_rows_base.built": (zb, "count"),
            "algebra._z_rows_base.hit_ratio": (ratio(zl - zb, zl), "ratio"),
            "cohomology.cohomology_dims.levels": (c["cohomology.cohomology_dims.levels"], "count"),
            "cohomology.cohomology_dims.overlaps":
                (c["cohomology.cohomology_dims.overlaps"], "count"),
            "cohomology.cohomology_dims.gaps": (c["cohomology.cohomology_dims.gaps"], "count"),
            "cohomology.cohomology_dims.h0_pos_ratio":
                (ratio(c["cohomology.cohomology_dims.h0_pos"], cd), "ratio"),
            "cohomology.recheck_s": (c["cohomology.recheck_s"], "s"),
            "cohomology._echelon_rank.rank_sum": (c["cohomology._echelon_rank.rank_sum"], "count"),
            "cohomology.factorization_search.branches":
                (c["cohomology.factorization_search.branches"], "count"),
            "cohomology.factorization_search.success_ratio":
                (ratio(c["cohomology.factorization_search.successes"], fs), "ratio"),
            "cohomology.factorization_search.obstruction_level_sum":
                (c["cohomology.factorization_search.obstruction_level_sum"], "count"),
            "algebra.xi_power.coeff_bits_max": (c["algebra.xi_power.coeff_bits_max"], "bits"),
            "decision.probes": (c["decision.probes"], "count"),
            "decision.witness_ratio":
                (ratio(c["decision.witnesses"], calls["decision.decide"]), "ratio"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        })
        for group, seconds in self.group_s.items():
            out[f"trace.{group}_share"] = (ratio(seconds, traced_wall), "ratio")
        return out

    def write_jsonl(self, path) -> None:
        """Spans (one per line), then leaf totals and counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, covered in self.spans:
                fh.write(json.dumps({"span": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end,
                                     "covered_s": covered}) + "\n")
            for name, (n, t) in sorted(self.leaf.items()):
                fh.write(json.dumps({"leaf": name, "calls": n, "self_s": t}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters),
                                 "absent": self.absent}) + "\n")
