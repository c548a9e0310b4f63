"""Timing spans around amrforge functions, for the traced run.

The package's modules import each other's names directly (``from .amr
import validate``), so a wrapper must replace every reference to the
original function in every loaded ``amrforge`` module; :func:`traced`
does that and puts the originals back on exit.  Spans are kept in memory
as (name, start, end, parent) and written out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs, named "<module>.<function>" in the metrics.
LAYERS = (
    ("penman", "parse_penman"),
    ("penman", "graph_to_penman"),
    ("amr", "validate"),
    ("linearize", "linearize_with_layout"),
    ("linearize", "delinearize"),
    ("linearize", "repair"),
    ("corrupt", "compose"),
    ("corrupt", "mask_text"),
    ("tasks", "build_sample"),
    ("tasks", "sample_to_json"),
    ("metrics", "smatch"),
    ("metrics", "fine_grained"),
    ("metrics", "corpus_bleu_details"),
    ("vocab", "collect_symbols"),
    ("vocab", "build_vocabulary"),
    ("cli", "run"),  # its self time is the CLI's own I/O and JSON glue
)
LAYER_NAMES = tuple(f"{module}.{function}" for module, function in LAYERS)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, function):
        spans, open_spans = self.spans, self._open

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else -1
            spans.append(None)
            open_spans.append(index)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                open_spans.pop()

        return wrapper

    def layer_metrics(self, documents: int) -> dict[str, tuple[float, str]]:
        """Calls per document, self time and duration percentiles per layer.

        A span's self time is its duration minus its children's; calls
        are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {name: [] for name in LAYER_NAMES}
        self_time = dict.fromkeys(LAYER_NAMES, 0.0)
        for index, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += end - start - child_time[index]
        metrics = {}
        for name in LAYER_NAMES:
            ordered = sorted(durations[name])
            metrics[f"{name}.calls_per_doc"] = (len(ordered) / documents, "calls/doc")
            metrics[f"{name}.self_s"] = (self_time[name], "s")
            metrics[f"{name}.p50_us"] = (_percentile(ordered, 0.5) * 1e6, "us")
            metrics[f"{name}.p90_us"] = (_percentile(ordered, 0.9) * 1e6, "us")
        return metrics

    def write(self, path: Path) -> None:
        """One JSON line per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start - origin,
                                      "end": end - origin, "parent": parent}) + "\n")


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values; 0 when there are none."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@contextmanager
def traced():
    """Wrap every function in LAYERS for the duration of the block."""
    tracer = Tracer()
    for module, _ in LAYERS:
        importlib.import_module(f"amrforge.{module}")
    loaded = [module for name, module in sys.modules.items()
              if name == "amrforge" or name.startswith("amrforge.")]
    rebound = []
    for module, function in LAYERS:
        original = getattr(sys.modules[f"amrforge.{module}"], function)
        wrapper = tracer.wrap(f"{module}.{function}", original)
        for holder in loaded:
            for attribute, value in list(vars(holder).items()):
                if value is original:
                    rebound.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)
    try:
        yield tracer
    finally:
        for holder, attribute, original in reversed(rebound):
            setattr(holder, attribute, original)
