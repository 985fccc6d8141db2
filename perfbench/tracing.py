"""Per-function spans for the traced benchmark run.

Run as a script, this is the traced runner of one CLI subcommand:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json prepare --config C --out O

Before calling ``figlex.cli.main`` it wraps every function named in
LAYERS.  Each wrapper replaces the original function object by identity in
every loaded ``figlex`` module, so the names ``cli`` binds with
``from .x import y`` and the calls a module makes to its own globals (the
matcher inside ``stats`` and ``affect``) all pass through it.  A function
that no longer exists is listed as absent instead of failing the run.  The
spans (name, start, end, parent) and return-value counters are written to
SPANS.json when the subcommand ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

# module -> public functions traced in it
LAYERS: dict[str, tuple[str, ...]] = {
    "corpus": ("load_corpus", "balance_groups", "random_halves"),
    "lexicon": ("load_lexicon", "prune_variants", "literality_score"),
    "matcher": ("build_matcher", "find_matches", "count_usages", "rewrite_with_idiom_tokens"),
    "stats": ("divergence_gap_test", "log_odds_dirichlet", "wilcoxon_ranksum", "kde", "sim_rbo"),
    "affect": ("train_vad_models", "fit_beta_regression", "score_definitions",
               "literal_baseline", "usage_vad_series"),
    "embeddings": ("train_sgns", "save_vectors", "load_vectors", "nearest_neighbors"),
    "cli": ("cmd_prepare", "cmd_analyze", "cmd_report", "build_report"),
}

# counters read off return values: span name -> (metric, per-call count, combine)
COUNTERS: dict[str, tuple[str, Callable[[object], int], Callable[[list[int]], int]]] = {
    # the largest lexicon loaded is the input one, before pruning
    "lexicon.load_lexicon": ("surface_forms", lambda lex: sum(len(e.variants) for e in lex), max),
    "affect.fit_beta_regression": ("iterations", lambda model: model.n_iter, sum),
    # floats materialized: one per idiom usage and affect dimension
    "affect.usage_vad_series": ("values", lambda series: sum(len(s.values) for s in series), sum),
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = defaultdict(list)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to whatever the main thread
        # is waiting in (a thread pool inside a traced function)
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, self._parent(stack)])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index][1:3] = start, end
            if counter is not None:
                try:
                    value = int(counter[1](result))
                except (AttributeError, TypeError, ValueError):
                    pass  # the return type changed; the counter reads as absent
                else:
                    with self._lock:
                        self.counts[name].append(value)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every LAYERS function; return the names that do not exist."""
        absent = []
        originals = {}
        for module_name, functions in LAYERS.items():
            try:
                module = importlib.import_module(f"figlex.{module_name}")
            except ImportError:
                absent += [f"{module_name}.{f}" for f in functions]
                continue
            for function in functions:
                fn = getattr(module, function, None)
                if callable(fn):
                    originals[id(fn)] = self.wrap(f"{module_name}.{function}", fn)
                else:
                    absent.append(f"{module_name}.{function}")
        for name, module in list(sys.modules.items()):
            if name != "figlex" and not name.startswith("figlex."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    setattr(module, attr, wrapped)
        return absent


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap (spans from worker threads), so coverage is the
    length of the union of the child intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children[index]):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import figlex.cli

    tracer = Tracer()
    absent = tracer.install()
    try:
        return figlex.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "absent": absent}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
