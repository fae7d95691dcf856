"""Per-layer tracing of rankfair from outside the program.

While a :class:`Tracer` is active, each public function named in ``LAYERS``
is replaced by a timing wrapper in every ``rankfair`` module that holds it,
including modules that bound it with ``from ... import``. A wrapper records
calls, total time and self time: its own duration minus the durations of the
wrapped calls nested inside it. The wrappers' own bookkeeping is charged to
no layer, so it shows only as ``trace.overhead_frac``. A function that the
program no longer has is listed in ``absent`` and reports zeros.

Tracing memory slows every allocation inside the traced call, so it is a
separate mode (``memory=True``) whose timings are not reported.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from time import perf_counter
from typing import Callable, Optional

LAYERS = {
    "cli": ("main",),
    "ingest": ("load_table", "derive_protected", "compute_scores", "score_and_rank"),
    "ranking": ("read_ranking_csv", "write_ranking_csv", "validate_ranking", "prefix_counts"),
    "measures": (
        "normalizer", "parity_term", "measure", "measure_from_flags",
        "fairness_report", "report_to_json",
    ),
    "generator": (
        "random_base_ranking", "generate_unfair", "sweep", "aggregate_sweep",
        "write_sweep_csv",
    ),
    "fairopt": (
        "train", "soft_assignments", "losses", "gradient", "apply_model",
        "write_trace_csv",
    ),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
# functions whose first argument is a CSV path whose row count the workload knows
ROW_READERS = ("ingest.load_table", "ranking.read_ranking_csv")
NORMALIZER = "measures.normalizer"
NORMALIZER_KEY = ("kind", "n", "n_plus", "step")


class Tracer:
    """Context manager that wraps the layer functions while it is active.

    ``rows_of`` maps a CSV path, as passed to the program, to its data row
    count; the workload keeps it current. With ``memory`` set, the first
    call of the normalizer for each key runs under tracemalloc.
    """

    def __init__(self, rows_of: dict[str, int], memory: bool = False):
        self.rows_of = rows_of
        self.memory = memory
        self.calls = dict.fromkeys(NAMES, 0)
        self.total_s = dict.fromkeys(NAMES, 0.0)
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.rows = dict.fromkeys(ROW_READERS, 0)
        self.absent: list[str] = []
        self.normalizer_keys: set = set()
        self.normalizer_peak_bytes = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers, self.absent = {}, []
        for mod, fns in LAYERS.items():
            module = sys.modules[f"rankfair.{mod}"]
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(module, fn, None)
                if orig is None:
                    self.absent.append(name)
                else:
                    wrappers[id(orig)] = (orig, self._wrap(name, orig))
        for modname, module in list(sys.modules.items()):
            if modname != "rankfair" and not modname.startswith("rankfair."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        probe = self._probe(name, fn)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer0 = perf_counter()
            done = probe(args, kwargs) if probe else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = stack.pop()
                if done:
                    done()
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - nested
                if stack:
                    # the parent's self time excludes this call and its wrapper
                    stack[-1] += perf_counter() - outer0

        return wrapper

    def _probe(self, name: str, fn: Callable) -> Optional[Callable]:
        """Work done around a call but outside its timed interval."""
        if name in ROW_READERS:

            def count_rows(args, kwargs):
                path = args[0] if args else kwargs.get("path")
                self.rows[name] += self.rows_of.get(str(path), 0)

            return count_rows
        if name == NORMALIZER:
            sig = inspect.signature(fn)

            def track(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.get(k) for k in NORMALIZER_KEY)
                # the result is a pure function of the key, so memory is
                # traced only on a key's first call
                fresh = key not in self.normalizer_keys
                self.normalizer_keys.add(key)
                if not (self.memory and fresh) or tracemalloc.is_tracing():
                    return None
                tracemalloc.start()

                def stop():
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.normalizer_peak_bytes = max(self.normalizer_peak_bytes, peak)

                return stop

            return track
        return None

    def metrics(
        self, iterations: int, overhead_frac: float, normalizer_peak_bytes: int
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); the normalizer's peak
        memory comes from a separate ``memory=True`` tracer."""
        out: dict[str, tuple[float, str]] = {}
        for name in NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        calls = self.calls[NORMALIZER]
        out[f"{NORMALIZER}.distinct_frac"] = (
            len(self.normalizer_keys) / calls if calls else 0.0, "ratio",
        )
        out[f"{NORMALIZER}.peak_mb"] = (normalizer_peak_bytes / 2**20, "MB")
        soft = self.calls["fairopt.soft_assignments"]
        out["fairopt.soft_assignments.calls_per_iter"] = (
            soft / iterations if iterations else 0.0, "ratio",
        )
        for name in ROW_READERS:
            busy = self.total_s[name]
            out[f"{name}.rows_per_s"] = (self.rows[name] / busy if busy else 0.0, "rows/s")
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return out
