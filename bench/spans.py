"""Span tracing for the benchmark, installed from outside the program.

`Tracer.install()` wraps every public function of every loaded
``nilgrade.*`` module (plus `Verdict.to_json`) and rebinds each module
attribute that refers to one, so ``from .x import f`` bindings and calls
within a module go through the wrapper too.  Each call records a span
(name, start, end, parent span, query id) in memory; `write` saves them
at the end.  Self time is a span's duration minus its children's.

A few leaf constructors are left unwrapped (`UNWRAPPED`): they are called
per matrix entry, so a span each would cost more than the work it
measures.  Their time counts in their caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

UNWRAPPED = {
    "matrices.frac",
    "matrices.rvec",
    "matrices.rmat",
    "matrices.zeros",
    "matrices.identity",
    "matrices.diag",
    "matrices.mat_eq",
    "matrices.is_zero_mat",
    "matrices.is_integral",
    "matrices.trace",
    "serialize.parse_fraction",
}


def _bits(poly) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in poly.coeffs)


def _derivation_cells(args) -> int:
    n = args[0].dim
    return n * (n * (n - 1) // 2) * n * n


# work counters, recorded when a span ends:
# span name -> (metric, f(args, result, parent span name) -> amount, combine)
COUNTERS = {
    "linineq.minimal_integer_point": ("linineq.minimal_integer_point.shells", lambda a, r, p: max(r, default=0), sum),
    "liealg.derivations": ("liealg.derivations.system_cells", lambda a, r, p: _derivation_cells(a), sum),
    "matrices.rref": ("matrices.rref.cells", lambda a, r, p: a[0].shape[0] * a[0].shape[1], sum),
    "matrices.charpoly": (
        "specmaps.is_expanding.charpoly_bits",
        lambda a, r, p: _bits(r) if p == "specmaps.is_expanding" else 0,
        sum,
    ),
    "polynomials.factor_over_q": ("polynomials.factor_over_q.max_degree", lambda a, r, p: a[0].degree, max),
    "latpow.power_into_lattice": ("latpow.power_into_lattice.k_sum", lambda a, r, p: r.k, sum),
    "matrices.order_mod": ("matrices.order_mod.order_sum", lambda a, r, p: r, sum),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, query id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.query = -1
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [name, 0.0, 0.0, idx]
        stack.append(frame)
        frame[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(frame, parent)
            if name == "liealg.is_characteristically_nilpotent" and isinstance(exc, ValueError):
                self.counts[name + ".undecided"] += 1
            raise
        self._close(frame, parent)
        counter = COUNTERS.get(name)
        if counter is not None:
            metric, amount, combine = counter
            caller = stack[-1][0] if stack else None
            self.counts[metric] = combine((self.counts[metric], amount(args, result, caller)))
        return result

    def _close(self, frame, parent):
        end = perf_counter()
        self._stack.pop()
        name, start, child, idx = frame
        dur = end - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.spans[idx] = (name, start, end, parent, self.query)

    def clear_stack(self):
        """Drop frames left open when a timeout hit the bookkeeping itself."""
        self._stack.clear()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of every loaded nilgrade module."""
        modules = {n: m for n, m in list(sys.modules.items()) if n == "nilgrade" or n.startswith("nilgrade.")}
        wrappers = {}
        for modname, mod in modules.items():
            short = modname[len("nilgrade.") :]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != modname:
                    continue
                name = f"{short}.{attr}"
                if name not in UNWRAPPED:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        verdict = modules["nilgrade.verdict"].Verdict
        self._restore.append((verdict, "to_json", verdict.to_json))
        verdict.to_json = self._wrap("verdict.to_json", verdict.to_json)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "self_s": dict(sorted(self.self_s.items(), key=lambda kv: -kv[1])),
                    "calls": dict(self.calls),
                    "fields": ["name", "start", "end", "parent", "query"],
                    "spans": [s for s in self.spans if s is not None],
                },
                fh,
            )
