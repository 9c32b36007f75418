"""Spans and counts at parfell's layer boundaries, installed from outside.

A wrapper replaces each layer function at every name its callers look it up
by: every ``parfell`` module attribute bound to the function, or the class
attribute for a method.  Nothing under ``src/`` changes.  Spanned functions
record ``(op, span, parent, name, start, end)``; a span's self time is its
duration minus that of its child spans.  Cheap, hot functions are only
counted, so their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, qualified name) of the function where it is defined
SPANNED = {
    "matrices.op_norm": ("parfell.matrices", "op_norm"),
    "matrices.herm_eig": ("parfell.matrices", "herm_eig"),
    "matrices.nearest_projection": ("parfell.matrices", "nearest_projection"),
    "matrices.corner_inv_sqrt": ("parfell.matrices", "corner_inv_sqrt"),
    "reps.partial_rep_defects": ("parfell.reps", "partial_rep_defects"),
    "reps.covariance_defects": ("parfell.reps", "covariance_defects"),
    "reps.std_covariant_rep": ("parfell.reps", "std_covariant_rep"),
    "reps.perturb_to_partial_isometries": ("parfell.reps", "perturb_to_partial_isometries"),
    "actions.validate": ("parfell.actions", "validate"),
    "actions.action_from_json": ("parfell.actions", "action_from_json"),
    "crossed.build_model": ("parfell.crossed", "build_model"),
    "crossed.center_dimension": ("parfell.crossed", "CrossedProductModel.center_dimension"),
    "bernoulli.certify_rfd": ("parfell.bernoulli", "certify_rfd"),
    "bernoulli.verify_certificate": ("parfell.bernoulli", "verify_certificate"),
    "bernoulli.strict_equivariance_report": ("parfell.bernoulli", "strict_equivariance_report"),
    "cli.main": ("parfell.cli", "main"),
}

# count name -> functions whose calls it sums
COUNTED = {
    "groups.multiply": [("parfell.groups", "FreeGroup.multiply"),
                        ("parfell.groups", "FiniteGroup.multiply")],
    "groups.reduce_word": [("parfell.groups", "FreeGroup.reduce_word")],
    "groups.word_to_str": [("parfell.groups", "word_to_str")],
    "groups.GroupHom.apply": [("parfell.groups", "GroupHom.apply")],
    "actions.PartialMap.compose": [("parfell.actions", "PartialMap.compose")],
    "actions.element_map": [("parfell.actions", "FinitePartialAction.element_map")],
}

# per-layer metric -> (unit, better); every value is a per-op average
LAYER_METRICS = {
    "matrices.op_norm.calls": ("count", "lower"),
    "matrices.op_norm.self_ms": ("ms", "lower"),
    "matrices.herm_eig.self_ms": ("ms", "lower"),
    "matrices.nearest_projection.self_ms": ("ms", "lower"),
    "matrices.corner_inv_sqrt.self_ms": ("ms", "lower"),
    "reps.partial_rep_defects.self_ms": ("ms", "lower"),
    "reps.covariance_defects.self_ms": ("ms", "lower"),
    "reps.std_covariant_rep.self_ms": ("ms", "lower"),
    "reps.perturb_to_partial_isometries.self_ms": ("ms", "lower"),
    "reps.op_norm_per_pair": ("ratio", "lower"),
    "groups.multiply.calls": ("count", "lower"),
    "groups.reduce_word.calls": ("count", "lower"),
    "groups.word_to_str.calls": ("count", "lower"),
    "groups.GroupHom.apply.calls": ("count", "lower"),
    "actions.validate.self_ms": ("ms", "lower"),
    "actions.PartialMap.compose.calls": ("count", "lower"),
    "actions.element_map.calls": ("count", "lower"),
    "actions.action_from_json.self_ms": ("ms", "lower"),
    "crossed.build_model.self_ms": ("ms", "lower"),
    "crossed.center_dimension.self_ms": ("ms", "lower"),
    "crossed.center_dimension.matrix_mb": ("MiB", "lower"),
    "bernoulli.certify_rfd.self_ms": ("ms", "lower"),
    "bernoulli.verify_certificate.self_ms": ("ms", "lower"),
    "bernoulli.strict_equivariance_report.self_ms": ("ms", "lower"),
    "bernoulli.points_checked": ("count", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _pairs_probe(fn, args, kwargs, result, counts):
    elements = inspect.signature(fn).bind(*args, **kwargs).arguments.get("elements")
    if elements is not None:
        counts["pairs_scanned"] += len(elements) ** 2


def _matrix_probe(fn, args, kwargs, result, counts):
    model = args[0]
    # center_dimension stacks one basis x basis block of size x size commutators
    counts["matrix_bytes"] += len(model.basis) ** 2 * model.model_size ** 2 * 16


def _points_probe(fn, args, kwargs, result, counts):
    counts["points_checked"] += result.points_checked


PROBES = {
    "reps.partial_rep_defects": _pairs_probe,
    "reps.perturb_to_partial_isometries": _pairs_probe,
    "crossed.center_dimension": _matrix_probe,
    "bernoulli.strict_equivariance_report": _points_probe,
}


def _resolve(module: str, qualname: str):
    """The defining owner, attribute name and original function."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the wrappers, keeps spans and counts in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.missing: list[str] = []
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple] = []

    def next_op(self) -> None:
        """Start tagging spans with the next op's identifier."""
        self.op += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, (module, qualname) in SPANNED.items():
            self._patch(module, qualname, lambda fn, n=name: self._span(n, fn))
        for name, targets in COUNTED.items():
            for module, qualname in targets:
                self._patch(module, qualname, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module: str, qualname: str, make) -> None:
        try:
            owner, attr, original = _resolve(module, qualname)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{qualname}")
            return
        wrapper = make(original)
        if "." in qualname:
            sites = [(owner, attr)]
        else:
            sites = [
                (mod, key)
                for mname, mod in list(sys.modules.items())
                if mname == "parfell" or mname.startswith("parfell.")
                for key, val in list(vars(mod).items())
                if val is original
            ]
        for site, key in sites:
            self._undo.append((site, key, original))
            setattr(site, key, wrapper)

    def _span(self, name: str, fn):
        probe = PROBES.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.op, span_id, parent, name, start, end))
            if probe is not None:
                probe(fn, args, kwargs, result, self.counts)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def per_op_breakdown(self) -> dict:
        """``{(op, name): [calls, total_s, self_s]}`` from the recorded spans."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child[parent] += end - start
        table: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for op, span_id, _, name, start, end in self.spans:
            row = table[(op, name)]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[span_id]
        return table

    def layer_metrics(self, ops: int, time_scale: float = 1.0) -> dict:
        """Per-op averages of every span and count the metrics name; self
        times are multiplied by ``time_scale``."""
        calls, self_s = Counter(), Counter()
        for (_, name), (n, _, own) in self.per_op_breakdown().items():
            calls[name] += n
            self_s[name] += own
        values = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "self_ms":
                values[metric] = self_s[base] * 1e3 * time_scale / ops
            elif kind == "calls":
                values[metric] = (calls[base] + self.counts[base]) / ops
        pairs = self.counts["pairs_scanned"]
        values["reps.op_norm_per_pair"] = calls["matrices.op_norm"] / pairs if pairs else 0.0
        values["crossed.center_dimension.matrix_mb"] = (
            self.counts["matrix_bytes"] / 2**20 / ops
        )
        values["bernoulli.points_checked"] = self.counts["points_checked"] / ops
        return values

    def write(self, path) -> None:
        """Write the per-op span breakdown as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for (op, name), (n, total, own) in sorted(self.per_op_breakdown().items()):
                fh.write(json.dumps({"op": op, "span": name, "calls": n,
                                     "total_ms": total * 1e3, "self_ms": own * 1e3}) + "\n")
