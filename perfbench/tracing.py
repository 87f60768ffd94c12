"""Outside-in layer tracing for the benchmark.

The package is not instrumented.  In traced mode the benchmark replaces
public callables with timing wrappers, wherever the package looks them up
(module globals of every ``derangements`` module that imported the name,
and class attributes), and restores the originals afterwards.

Three kinds of wrapper keep the overhead proportional to what is learned:

* span: records ``[name, start, end, parent, op_id, self]`` in memory.
  Self time is the span's duration minus the time of its child spans and
  timed leaves.
* leaf: hot calls (membership sifts, order queries, field arithmetic) are
  counted and their time summed per name and charged to the enclosing
  span, without a span each.  A leaf never contains a span.
* count: calls are only counted (matrix products, vector images, group
  constructions, block seeds).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_seconds: Counter = Counter()
        self.op_id: str | None = None
        self._stack: list[list] = []  # open spans
        self._leaf_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def span(self, name: str, fn, guard=None, on_result=None):
        """Wrap fn so each call records a span.  guard(args) may return
        False to skip recording (e.g. for a cache hit); on_result(args,
        result) may add counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if guard is not None and not guard(args):
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][6] if stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op_id, 0.0, len(tracer.spans), 0.0]
            tracer.spans.append(rec)
            stack.append(rec)
            tracer.counts[name + ".calls"] += 1
            rec[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                rec[2] = end
                duration = end - rec[1]
                rec[5] = duration - rec[7]
                if stack:
                    stack[-1][7] += duration
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        tracer = self
        counts, seconds = self.counts, self.leaf_seconds
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            tracer._leaf_depth = 1
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _perf() - start
                tracer._leaf_depth = 0
                seconds[name] += duration
                if tracer._stack:
                    tracer._stack[-1][7] += duration

        return wrapper

    def count(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (no children)."""
        parent = self._stack[-1][6] if self._stack else -1
        duration = end - start
        self.spans.append([name, start, end, parent, self.op_id, duration, len(self.spans), 0.0])
        if self._stack:
            self._stack[-1][7] += duration

    # -- patching -------------------------------------------------------

    def _patch_class(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _patch_function(self, fn, wrapper) -> None:
        """Rebind fn in every loaded derangements module that holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "derangements" or mod_name.startswith("derangements.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap the callables behind the per-layer metrics.  A name the
        package no longer has is skipped, so its metric reads 0."""
        from derangements import cli, derange, families, fileio, matgrp, permgrp, suite
        from derangements.gf import FieldSpec
        from derangements.matgrp import FFMatrix, MatrixGroup
        from derangements.permgrp import PermGroup

        def fn(name, module, attr, **kw):
            f = getattr(module, attr, None)
            if f is not None:
                self._patch_function(f, self.span(name, f, **kw))

        def method(name, cls, attr, kind="span", **kw):
            f = cls.__dict__.get(attr)
            if f is not None:
                wrap = self.span(name, f, **kw) if kind == "span" else getattr(self, kind)(name, f)
                self._patch_class(cls, attr, wrap)

        fn("fileio.load", fileio, "load_group")

        method("permgrp.order", PermGroup, "order", kind="leaf")
        method("permgrp.membership", PermGroup, "__contains__", kind="leaf")
        method("permgrp.groups_built", PermGroup, "__init__", kind="count")
        method("permgrp.block_seed", PermGroup, "minimal_block_assignment", kind="count")
        for attr in ("stabilizer", "normal_closure", "quotient", "rank", "coset_action",
                     "is_primitive", "normalizer", "centralizer_of"):
            method(f"permgrp.{attr}", PermGroup, attr)
        method("permgrp.block_systems", PermGroup, "block_systems", on_result=_count_systems)
        for attr in ("coset_average_fixed_points", "bruteforce_closure"):
            fn(f"permgrp.{attr}", permgrp, attr)

        for attr in ("analyze", "index_consequences", "bound_check", "fingerprint",
                     "identify_fingerprint", "derangement_subgroup", "two_derangement_coverage"):
            fn(f"derange.{attr}", derange, attr)

        method("matgrp.closure", MatrixGroup, "elements", guard=_closure_pending)
        method("matgrp.matrix_mult", FFMatrix, "__mul__", kind="count")
        method("matgrp.vector_image", FFMatrix, "apply_row", kind="count")
        fn("matgrp.eigenvalue_one", matgrp, "eigenvalue_one_subgroup", on_result=_count_eigen_gens)
        fn("matgrp.index_bound", matgrp, "index_bound_check")
        fn("matgrp.irreducibility", matgrp, "irreducibility")
        fn("matgrp.quotient", matgrp, "quotient_perm_group")
        fn("matgrp.regular_perm_group", matgrp, "regular_perm_group")

        for attr in ("add_e", "sub_e", "neg_e", "mul_e", "pow_e", "inv_e"):
            method("gf.field_op", FieldSpec, attr, kind="leaf")

        for attr in ("build_family", "affine_group", "semilinear_example", "pgammal_28",
                     "wreath_product_action", "direct_product_action",
                     "frobenius_complement_example", "dihedral_quotient_family",
                     "central_product_examples"):
            fn(f"families.{attr}", families, attr)

        for attr in ("run_corpus_suite", "corpus_record", "corpus_group", "matrix_record"):
            fn(f"suite.{attr}", suite, attr)
        fn("cli.main", cli, "main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op_id", "self"],
            "spans": [rec[:6] for rec in self.spans],
            "counts": dict(self.counts),
            "leaf_seconds": dict(self.leaf_seconds),
        }

    def merge(self, other: dict) -> None:
        """Append a dump from another process (the traced command line)."""
        offset = len(self.spans)
        for name, start, end, parent, op_id, self_s in other["spans"]:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append([name, start, end, parent, op_id, self_s, len(self.spans), 0.0])
        self.counts.update(other["counts"])
        self.leaf_seconds.update(other["leaf_seconds"])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh)


def _count_systems(tracer: Tracer, args, result) -> None:
    tracer.counts["permgrp.block_systems_found"] += len(result)


def _count_eigen_gens(tracer: Tracer, args, result) -> None:
    tracer.counts["matgrp.eigen_generators"] += len(result.generators)


def _closure_pending(args) -> bool:
    return getattr(args[0], "_elements", None) is None


def layer_seconds(spans, leaf_seconds) -> tuple[Counter, Counter, Counter]:
    """Sums over the spans: inclusive seconds per span name (outermost span
    of each name only) and per layer (outermost span of each layer only),
    and self seconds per layer.  Each timed leaf adds its summed time to
    its name and to its layer's self time; its time is already inside the
    inclusive time of whatever span encloses it.
    """
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    self_by_layer: Counter = Counter()
    for rec in spans:
        name, start, end, parent, _, self_s = rec[:6]
        layer = name.split(".")[0]
        self_by_layer[layer] += self_s
        outer_name = outer_layer = True
        p = parent
        while p >= 0:
            ancestor = spans[p][0]
            outer_name = outer_name and ancestor != name
            outer_layer = outer_layer and ancestor.split(".")[0] != layer
            p = spans[p][3]
        if outer_name:
            by_name[name] += end - start
        if outer_layer:
            by_layer[layer] += end - start
    for name, seconds in leaf_seconds.items():
        by_name[name] += seconds
        self_by_layer[name.split(".")[0]] += seconds
    return by_name, by_layer, self_by_layer
