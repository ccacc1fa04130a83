"""Spans and counts around pentafold's public functions, recorded from outside.

Tracer.install() replaces every public function of the seven layer modules,
wherever a module holds a reference to it (module globals, and the dicts and
lists that dispatch on them such as cli.HANDLERS and acceptance.ALL_CHECKS),
with a wrapper that records a span: (request, span id, parent span id, name,
start, end).  Generator functions are wrapped to count calls and items
yielded instead, because their work happens in the consumer's frames.
uninstall() puts every original back.  No file of the package changes.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from collections import Counter, defaultdict

LAYERS = ("pentagonal", "sigma", "qseries", "cyclotomic", "summation", "acceptance", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        # by import, not getattr: the package re-exports a function named pentagonal
        self.modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = 0
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)  # fit name -> [(size, seconds)]
        self._patched: list[tuple] = []
        self._hooks = {
            "sigma.load_table": (self._pre_load, None),
            "sigma.save_table": (None, self._post_save),
            "sigma.sigma_table": (None, self._post_sigma_table),
            "cli.cmd_sigma": (self._pre_cmd_sigma, self._post_cmd_sigma),
            "cli.cmd_verify_pnt": (self._pre_cmd_pnt, self._post_cmd_pnt),
            "cli.cmd_verify_periods": (None, self._post_cmd_periods),
            "cli.render": (None, self._post_render),
            "qseries.multiply_truncated": (self._pre_multiply, None),
            "qseries.power_sums": (None, self._post_power_sums),
        }

    # ------------------------------------------------------------ install

    def install(self) -> None:
        originals = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        holders = [self.package, *self.modules.values()]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patched.append((vars(holder), attr, obj))
                    setattr(holder, attr, originals[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in originals:
                            self._patched.append((obj, key, value))
                            obj[key] = originals[value]
                elif isinstance(obj, list):
                    for index, value in enumerate(obj):
                        if inspect.isfunction(value) and value in originals:
                            self._patched.append((obj, index, value))
                            obj[index] = originals[value]

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        pre, post = self._hooks.get(name, (None, None))
        spans, stack, calls, inclusive = self.spans, self.stack, self.calls, self.inclusive
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled when the span closes
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (self.request, span_id, parent, name, start, end)
                calls[name] += 1
                inclusive[name] += end - start
            if post:
                post(args, kwargs, result, end - start, state)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        calls, counts = self.calls, self.counts

        def traced(*args, **kwargs):
            calls[name] += 1
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                counts[name + ".yielded"] += yielded

        return traced

    # -------------------------------------------------------------- hooks

    def _pre_load(self, args, kwargs):
        self.counts["sigma.cache_bytes_read"] += os.path.getsize(args[0])

    def _post_save(self, args, kwargs, result, seconds, state):
        self.counts["sigma.cache_bytes_written"] += os.path.getsize(args[1])

    def _post_sigma_table(self, args, kwargs, result, seconds, state):
        method = args[1] if len(args) > 1 else kwargs.get("method", "recurrence")
        if method == "recurrence" and args[0] >= 1000:  # skip the tiny acceptance tables
            self.samples["sigma.sigma_table"].append((args[0], seconds))

    def _pre_cmd_sigma(self, args, kwargs):
        cached = bool(os.environ.get("PENTAFOLD_CACHE") or args[0].cache)
        return cached, self.calls["sigma.sigma_table"]

    def _post_cmd_sigma(self, args, kwargs, result, seconds, state):
        cached, builds = state
        if cached:
            self.counts["sigma.cache_lookups"] += 1
            self.counts["sigma.cache_hits"] += self.calls["sigma.sigma_table"] == builds

    def _pre_cmd_pnt(self, args, kwargs):
        return self.inclusive["qseries.multiply_truncated"]

    def _post_cmd_pnt(self, args, kwargs, result, seconds, state):
        if not args[0].dump:
            self.samples["qseries.fold"].append((args[0].degree, self.inclusive["qseries.multiply_truncated"] - state))

    def _post_cmd_periods(self, args, kwargs, result, seconds, state):
        self.samples["cyclotomic.verify_periods"].append((args[0].max_m, seconds))

    def _post_render(self, args, kwargs, result, seconds, state):
        self.counts["cli.render.bytes"] += len(result.encode())

    def _pre_multiply(self, args, kwargs):
        # computed, not measured: the coefficient pairs the dense convolution visits
        a, b, cap = args[0].coeffs, args[1].coeffs, args[2]
        self.counts["qseries.fold_pairs_visited"] += sum(
            min(len(b), cap - i + 1) for i, c in enumerate(a[: cap + 1]) if c
        )

    def _post_power_sums(self, args, kwargs, result, seconds, state):
        self.samples["qseries.power_sums"].append((args[1], seconds))

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[str, float]:
        """Per function: span durations minus the durations of direct children."""
        children = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        own = defaultdict(float)
        for _, span_id, _, name, start, end in self.spans:
            own[name] += end - start - children[span_id]
        return dict(own)


def fit_exponent(samples: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) on log(size); 0.0 without two sizes."""
    points = [(float(x), float(y)) for x, y in samples if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
