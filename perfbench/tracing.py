"""Span tracing for the traced benchmark run.

A `Tracer` replaces public rulescreen functions at the names their callers
bind (``rulescreen.backtest.update`` and ``rulescreen.cli.update`` are two
bindings of one function) with wrappers that record one span per call:
id, name, start, end, parent span id and run id. Spans stay in memory and
are written out when the run ends. Untraced runs never install a Tracer, so
they run the library unmodified.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import logging
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

# span name -> bindings (module, attribute). A binding "rules.RuleSet" names
# a class whose method is wrapped; "rules.Z_KINDS" a dict whose entry is.
BINDINGS: List[Tuple[str, List[Tuple[str, str]]]] = [
    ("synth.generate", [("synth", "generate"), ("cli", "generate")]),
    ("synth.write", [("cli", "write_universe_csv"), ("cli", "write_prices_csv")]),
    ("panel.write", [("cli", "write_features_csv"), ("cli", "write_returns_csv")]),
    (
        "panel.load",
        [("cli", "load_features_csv"), ("cli", "load_returns_csv"), ("cli", "attach_returns")],
    ),
    (
        "panel.fit_discretizer",
        [("panel", "fit_discretizer"), ("cli", "fit_discretizer"), ("backtest", "fit_discretizer")],
    ),
    (
        "panel.apply_discretizer",
        [
            ("panel", "apply_discretizer"),
            ("cli", "apply_discretizer"),
            ("backtest", "apply_discretizer"),
        ],
    ),
    ("rules.activation_mask", [("rules", "activation_mask"), ("rulegen", "activation_mask")]),
    ("rules.activation_matrix", [("rules.RuleSet", "activation_matrix")]),
    ("rules.conditional_mean", [("rulegen", "conditional_mean")]),
    ("rules.threshold", [("rules.Z_KINDS", "gaussian")]),
    ("rulegen.learn", [("rulegen", "learn"), ("cli", "learn_rules"), ("backtest", "learn")]),
    ("rulegen.level1", [("rulegen", "enumerate_complexity1")]),
    ("rulegen.levelc", [("rulegen", "generate_complexity_c")]),
    ("rulegen.covering", [("rulegen", "select_covering")]),
    ("aggregate.update", [("backtest", "update"), ("cli", "update")]),
    ("aggregate.predict_many", [("backtest", "predict_many"), ("cli", "predict_many")]),
    ("backtest.load", [("cli", "load_universe_csv"), ("cli", "load_prices_csv")]),
    (
        "backtest.write",
        [
            ("cli", "write_levels_csv"),
            ("cli", "write_kpis_json"),
            ("cli", "write_calendar_csv"),
            ("cli", "write_learning_y_csv"),
        ],
    ),
    ("backtest.run_study", [("backtest", "run_study"), ("cli", "run_study")]),
    ("backtest.learning_y", [("backtest", "learning_y"), ("cli", "learning_y")]),
    ("backtest.simulate", [("backtest", "simulate")]),
    ("backtest.kpis", [("backtest", "kpis")]),
    ("cli.manifest", [("cli", "write_manifest")]),
]

FALLBACK_TEXT = "holding benchmark"


def _rows_of_call(name: str, args, result) -> Optional[int]:
    """Rows a call handled, for the layers whose metrics count rows."""
    if name == "rules.activation_mask":
        return int(args[1].shape[0])
    if name == "panel.apply_discretizer":
        return int(result.n)
    if name == "panel.load":
        if isinstance(result, tuple):  # load_features_csv -> (RawPanel, specs)
            return int(result[0].n)
        if isinstance(result, dict):  # load_returns_csv -> {(date, stock): y}
            return len(result)
    return None


class _FallbackCounter(logging.Handler):
    """Counts the library's WARNING records for reviews where a strategy leg
    fell back to holding the benchmark."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.name == "rulescreen.backtest" and FALLBACK_TEXT in record.getMessage():
            self.count += 1


class Tracer:
    """Records spans for the library calls made while it is installed.

    A span is the tuple (id, name, start, end, parent, run_id, attrs). Calls
    made by worker threads of `rulegen.learn` get the innermost open span of
    the main thread as their parent.
    """

    def __init__(self):
        self.spans: List[tuple] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main_thread = threading.main_thread()
        self._patches: List[Tuple[object, str, object]] = []
        self._fallbacks = _FallbackCounter()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: List[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    @contextmanager
    def span(self, name: str, run_id: Optional[str] = None):
        """Open a span from the benchmark itself, around one operation."""
        previous = self.run_id
        if run_id is not None:
            self.run_id = run_id
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.run_id, None))
            self.run_id = previous

    def _wrapper(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = self._parent(stack)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = None
            rows = _rows_of_call(name, args, result)
            if rows is not None:
                attrs = {"rows": rows}
            elif name == "rulegen.learn":
                ruleset, report = result
                attrs = {
                    "learned_at": str(ruleset.learned_at),
                    "selected": sum(1 for r in ruleset.rules if not r.is_default),
                    "levels": [(lv.complexity, lv.candidates, lv.suitable) for lv in report.levels],
                }
            self.spans.append((sid, name, start, end, parent, self.run_id, attrs))
            return result

        return traced

    # -- installing and removing the wrappers -----------------------------

    def install(self) -> None:
        for name, bindings in BINDINGS:
            for owner_name, attr in bindings:
                module_name, _, member = owner_name.partition(".")
                owner = importlib.import_module(f"rulescreen.{module_name}")
                if member:
                    owner = getattr(owner, member)
                if isinstance(owner, dict):
                    original = owner[attr]
                    owner[attr] = self._wrapper(name, original)
                else:
                    original = getattr(owner, attr)
                    setattr(owner, attr, self._wrapper(name, original))
                self._patches.append((owner, attr, original))
        logging.getLogger().addHandler(self._fallbacks)

    def uninstall(self) -> None:
        logging.getLogger().removeHandler(self._fallbacks)
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def dump(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run_id", "attrs")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
            fh.write("\n")

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics from the recorded spans. Times are summed over
        calls, so calls on two worker threads can add up to more than the
        wall time they overlapped."""
        by_name: Dict[str, List[tuple]] = {}
        children: Dict[int, List[tuple]] = {}
        by_id: Dict[int, tuple] = {}
        for s in self.spans:
            by_name.setdefault(s[1], []).append(s)
            by_id[s[0]] = s
            if s[4] is not None:
                children.setdefault(s[4], []).append(s)

        def total(name):
            return float(sum(s[3] - s[2] for s in by_name.get(name, ())))

        def calls(name):
            return len(by_name.get(name, ()))

        def rows(name):
            return sum(s[6]["rows"] for s in by_name.get(name, ()) if s[6])

        def self_time(names):
            return float(
                sum(
                    _self_time(s, children.get(s[0], ()))
                    for n in names
                    for s in by_name.get(n, ())
                )
            )

        learns = by_name.get("rulegen.learn", [])
        level1 = [lv for s in learns for lv in s[6]["levels"] if lv[0] == 1]
        levelc = [lv for s in learns for lv in s[6]["levels"] if lv[0] > 1]
        levelc_candidates = sum(lv[1] for lv in levelc)
        levelc_suitable = sum(lv[2] for lv in levelc)

        # Learnings made by the study engine, against the distinct
        # (market, learning date) pairs they serve.
        def under_study(span):
            parent = span[4]
            while parent is not None:
                anc = by_id[parent]
                if anc[1] == "backtest.run_study":
                    return True
                parent = anc[4]
            return False

        study_learns = [s for s in learns if under_study(s)]
        distinct = {(s[5], s[6]["learned_at"]) for s in study_learns}
        cli_stages = [n for n in by_name if n.startswith("cli.stage.")]

        return {
            "synth.generate_s": total("synth.generate"),
            "synth.write_s": total("synth.write"),
            "panel.write_s": total("panel.write"),
            "panel.load_s": total("panel.load"),
            "panel.load_rows": rows("panel.load"),
            "panel.fit_discretizer_s": total("panel.fit_discretizer"),
            "panel.fit_discretizer_calls": calls("panel.fit_discretizer"),
            "panel.apply_discretizer_s": total("panel.apply_discretizer"),
            "panel.apply_discretizer_calls": calls("panel.apply_discretizer"),
            "panel.apply_rows": rows("panel.apply_discretizer"),
            "rules.activation_mask_s": total("rules.activation_mask"),
            "rules.activation_mask_calls": calls("rules.activation_mask"),
            "rules.mask_rows": rows("rules.activation_mask"),
            "rules.activation_matrix_s": total("rules.activation_matrix"),
            "rules.activation_matrix_calls": calls("rules.activation_matrix"),
            "rules.conditional_mean_calls": calls("rules.conditional_mean"),
            "rules.threshold_s": total("rules.threshold"),
            "rules.threshold_calls": calls("rules.threshold"),
            "rulegen.learn_s": total("rulegen.learn"),
            "rulegen.learn_calls": calls("rulegen.learn"),
            "rulegen.level1_s": total("rulegen.level1"),
            "rulegen.level1_candidates": sum(lv[1] for lv in level1),
            "rulegen.level1_suitable": sum(lv[2] for lv in level1),
            "rulegen.levelc_s": total("rulegen.levelc"),
            "rulegen.levelc_candidates": levelc_candidates,
            "rulegen.levelc_suitable": levelc_suitable,
            "rulegen.levelc_yield": (
                levelc_suitable / levelc_candidates if levelc_candidates else 0.0
            ),
            "rulegen.covering_s": total("rulegen.covering"),
            "rulegen.rules_selected": sum(s[6]["selected"] for s in learns),
            "aggregate.update_s": total("aggregate.update"),
            "aggregate.update_calls": calls("aggregate.update"),
            "aggregate.predict_many_s": total("aggregate.predict_many"),
            "aggregate.predict_many_calls": calls("aggregate.predict_many"),
            "backtest.load_s": total("backtest.load"),
            "backtest.write_s": total("backtest.write"),
            "backtest.run_study_self_s": self_time(["backtest.run_study"]),
            "backtest.simulate_s": total("backtest.simulate"),
            "backtest.kpis_s": total("backtest.kpis"),
            "backtest.learn_per_year": (
                len(study_learns) / len(distinct) if distinct else 0.0
            ),
            "backtest.fallback_reviews": self._fallbacks.count,
            "cli.manifest_s": total("cli.manifest"),
            "cli.self_s": self_time(cli_stages),
        }


def _self_time(span: tuple, kids) -> float:
    """Span duration minus the part of it that its child spans cover."""
    start, end = span[2], span[3]
    covered = 0.0
    reach = start
    for _, _, c_start, c_end, *_ in sorted(kids, key=lambda s: s[2]):
        lo, hi = max(c_start, reach), min(c_end, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered
