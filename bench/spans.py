"""Span recorder that wraps monocert's public functions from outside.

Nothing under src/ changes: for each named function, every module attribute
in the monocert package that is bound to it (the defining module's and every
`from ... import` copy, e.g. `monocert.ore.phi_expand`) is replaced by a
wrapper for the duration of a `patched` block, then restored.

A span is [name, start, end, parent]; the spans of one op are folded into
per-name totals when the op ends.  A span's self time is its duration minus
the durations of its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# span name -> workloads on which it must fire (a binding the wrapper missed would silently read zero)
SPANS = {
    "arith.factorize": ("campaign", "bigm"),
    "fppoly.factor": ("campaign", "bigm"),
    "fppoly.fq_factor": ("campaign", "bigm"),
    "fppoly.fq_is_separable": ("campaign", "bigm"),
    "fppoly.count_degree_d_factors": ("campaign", "bigm"),
    "fppoly.is_irreducible": ("campaign", "bigm", "develop"),
    "polygon.phi_expand": ("campaign", "bigm", "develop"),
    "polygon.principal_polygon": ("campaign", "bigm", "develop"),
    "polygon.residual_polynomial": ("campaign", "bigm"),
    "polygon.polygon_index": ("campaign", "bigm"),
    "ore.ore_split": ("campaign", "bigm"),
    "ore.common_index_divisor": ("campaign", "bigm"),
    "purefield.analyze": ("campaign", "bigm"),
    "purefield.binomial_irreducible": ("campaign", "bigm"),
    "purefield.detect_power_decomposition": ("campaign", "bigm"),
    "purefield.theorem_general_test": ("campaign", "bigm"),
    "purefield.construct_generator": ("bigm",),
    "purefield.closed_form_lift": ("develop",),
    "purefield.closed_form_polygon": ("develop",),
    "cns.encode": ("digits",),
    "cns.decode": ("digits",),
}

OP = "op"


def _observe_factorize(rec, args, result):
    key = abs(args[0])
    rec.count("arith.factorize.repeats", key in rec.factored)
    rec.factored.add(key)


def _observe_phi_expand(rec, args, result):
    rec.count("polygon.phi_expand.parts", len(result.parts))
    rec.maximum("polygon.phi_expand.max_degree", args[0].degree)


# span name -> hook(recorder, positional args, result) run after a successful call
OBSERVERS = {
    "arith.factorize": _observe_factorize,
    "polygon.phi_expand": _observe_phi_expand,
    "ore.ore_split": lambda rec, args, result: rec.count("ore.ore_split.exact", result.exact),
    "ore.common_index_divisor": lambda rec, args, result: rec.count("ore.common_index_divisor.hits", result is not None),
    "purefield.theorem_general_test": lambda rec, args, result: rec.count(
        "purefield.theorem_general_test.fires", result is not None
    ),
    "cns.encode": lambda rec, args, result: rec.count("cns.encode.steps", result.steps),
}


class Recorder:
    """In-memory spans of the current op plus per-name totals over all ops."""

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.factored: set[int] = set()
        self.ops = 0
        self.op_s = 0.0

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current
            if parent < 0:  # outside an op, e.g. the output checker
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, parent]
            self.current = len(self.spans)
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.current = parent
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def run_op(self, fn, *args):
        """Call fn(*args) as one op under a root span; returns (output or exception, seconds)."""
        self.factored.clear()
        root = [OP, 0.0, 0.0, -1]
        self.spans.append(root)
        self.current = 0
        root[1] = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # the caller checks it like any other output
            out = exc
        root[2] = time.perf_counter()
        self._fold()
        self.ops += 1
        self.op_s += root[2] - root[1]
        return out, root[2] - root[1]

    def _fold(self) -> None:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - covered
        self.spans.clear()
        self.current = -1


def _monocert_modules():
    return [mod for key, mod in sys.modules.items() if key == "monocert" or key.startswith("monocert.")]


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Replace every monocert binding of each named function by a recording wrapper; restore on exit."""
    modules = _monocert_modules()
    saved = []
    try:
        for name in SPANS:
            home, attr = name.split(".")
            original = getattr(sys.modules[f"monocert.{home}"], attr)
            wrapper = recorder.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, original in reversed(saved):
            setattr(mod, key, original)


def leftover_wrappers() -> list[str]:
    """Module attributes in monocert that are still recording wrappers (should be none)."""
    return [
        f"{mod.__name__}.{key}"
        for mod in _monocert_modules()
        for key, value in vars(mod).items()
        if hasattr(value, "bench_span")
    ]
