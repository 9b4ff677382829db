"""The layer namespace the workloads call through, and the span recorder.

Workloads reach rexlab only through the namespace :func:`layers` returns.
Untraced, its attributes are the library functions themselves, so tracing
off costs nothing.  Traced, each attribute is a wrapper that records one span per
call: name, start, end, item id, sizes in and out, and the rise of the
process's peak RSS (``ru_maxrss``) during the call.  Spans stay in memory
and are written once, after the measurement.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Callable, NamedTuple

from rexlab import analysis, automata, cli, rex, unambiguous, witnesses


def _states(a) -> int:
    return a.n_states


# Every public function a workload calls, with the sizes its span records:
# (args, result) -> (size in, size out).
LAYERS: dict[str, tuple[object, Callable]] = {
    "rex.parse": (rex, lambda a, r: (len(a[0]), rex.size(r))),
    "rex.format_regex": (rex, lambda a, r: (0, len(r))),
    "automata.glushkov": (automata, lambda a, r: (0, _states(r))),
    "automata.extended_to_nfa": (automata, lambda a, r: (0, _states(r))),
    "automata.determinize": (automata, lambda a, r: (_states(a[0]), _states(r))),
    "automata.complement_dfa": (automata, lambda a, r: (_states(a[0]), _states(r))),
    "automata.product": (automata, lambda a, r: (_states(a[0]) * _states(a[1]), _states(r))),
    "automata.minimize": (automata, lambda a, r: (_states(a[0]), _states(r))),
    "automata.equivalent": (automata, lambda a, r: (_states(a[0]) + _states(a[1]), int(r))),
    "automata.eliminate_states": (automata, lambda a, r: (_states(a[0]), rex.size(r))),
    "automata.serialize": (automata, lambda a, r: (_states(a[0]), len(r))),
    "automata.parse_automaton": (automata, lambda a, r: (len(a[0]), _states(r))),
    "unambiguous.is_one_unambiguous": (unambiguous, lambda a, r: (0, 0)),
    "unambiguous.complement_unambiguous": (unambiguous,
                                           lambda a, r: (rex.size(a[0]), rex.size(r))),
    "unambiguous.intersect_sores": (unambiguous, lambda a, r: (len(a[0]), rex.size(r))),
    "analysis.enumerate_language": (analysis, lambda a, r: (0, len(r.words))),
    "witnesses.complement_witness": (witnesses, lambda a, r: (a[0], 0)),
    "witnesses.k_dfa": (witnesses, lambda a, r: (a[0], _states(r))),
    "witnesses.l_dfa": (witnesses, lambda a, r: (a[0], _states(r))),
    "witnesses.unamb_family": (witnesses, lambda a, r: (a[0], len(r))),
    "witnesses.m_sore_pair": (witnesses, lambda a, r: (a[0], 0)),
    "cli.main": (cli, lambda a, r: (0, r)),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    item: str
    phase: str
    size_in: int
    size_out: int
    rss_rise_kb: int


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans; ``item`` and ``phase`` label the spans recorded next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = "setup"
        self.phase = "setup"

    def wrap(self, name: str, fn: Callable, sizes: Callable) -> Callable:
        spans = self.spans

        def traced(*args, **kwargs):
            rss0 = _maxrss_kb()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            rise = _maxrss_kb() - rss0
            size_in, size_out = sizes(args, result)
            spans.append(Span(name, t0, t1, self.item, self.phase, size_in, size_out, rise))
            return result

        return traced

    def write(self, path: str, origin: float):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - origin, "end": s.end - origin,
                    "item": s.item, "phase": s.phase, "size_in": s.size_in,
                    "size_out": s.size_out, "rss_rise_mb": s.rss_rise_kb / 1024,
                }) + "\n")


def layers(tracer: Tracer | None) -> SimpleNamespace:
    """Flat namespace of the traced functions, keyed by function name."""
    out = {}
    for name, (module, sizes) in LAYERS.items():
        fn = getattr(module, name.split(".")[1])
        out[name.split(".")[1]] = fn if tracer is None else tracer.wrap(name, fn, sizes)
    return SimpleNamespace(**out)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _time_exponent(spans: list[Span]) -> float:
    """Least-squares slope of log(time) on log(size in), over calls >= 1 ms."""
    pts = [(math.log(s.size_in), math.log(s.end - s.start)) for s in spans
           if s.size_in > 0 and s.end - s.start >= 1e-3]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# Stats beyond calls and time_s: stat -> (unit, function of the layer's
# totals per set-up plus one pass, and of its pass spans).
EXTRA = {
    "automata.determinize": {
        "states_out": ("count", lambda t, s: t["out"]),
        "us_per_state": ("us", lambda t, s: _ratio(t["time"], t["out"], 1e6)),
        "rss_rise_mb": ("MB", lambda t, s: t["rss"]),
    },
    "automata.complement_dfa": {
        "states_out": ("count", lambda t, s: t["out"]),
        "rss_rise_mb": ("MB", lambda t, s: t["rss"]),
    },
    "automata.equivalent": {
        "states_in": ("count", lambda t, s: t["in"]),
        "rss_rise_mb": ("MB", lambda t, s: t["rss"]),
    },
    "automata.minimize": {
        "states_in": ("count", lambda t, s: t["in"]),
        "states_out": ("count", lambda t, s: t["out"]),
    },
    "automata.product": {
        "states_out": ("count", lambda t, s: t["out"]),
        "reach_ratio": ("ratio", lambda t, s: _ratio(t["out"], t["in"])),
    },
    "unambiguous.complement_unambiguous": {
        "size_in": ("count", lambda t, s: t["in"]),
        "size_out": ("count", lambda t, s: t["out"]),
        "us_per_node_out": ("us", lambda t, s: _ratio(t["time"], t["out"], 1e6)),
        "time_exponent": ("ratio", lambda t, s: _time_exponent(s)),
    },
    "rex.parse": {
        "nodes_per_s": ("1/s", lambda t, s: _ratio(t["out"], t["time"])),
    },
    "analysis.enumerate_language": {
        "words_per_s": ("1/s", lambda t, s: _ratio(t["out"], t["time"])),
    },
    "cli.main": {
        "p50_ms": ("ms", lambda t, s: statistics.median(x.end - x.start for x in s) * 1e3
                   if s else 0.0),
        "exit_nonzero": ("count", lambda t, s: t["nonzero"]),
    },
}


def layer_metrics(spans: list[Span], n_setup: int, n_pass: int,
                  pass_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer stats for one set-up plus one pass.

    Totals of set-up spans are divided by the number of set-ups and totals of
    pass spans by the number of passes.  ``trace.coverage`` is the share of
    the pass wall time that layer spans cover; spans never nest, because the
    library's internal calls do not go through the wrappers.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        ss = by_name.get(name, [])

        def per_unit(f) -> float:
            setup = sum(f(s) for s in ss if s.phase == "setup")
            run = sum(f(s) for s in ss if s.phase == "pass")
            return setup / n_setup + run / n_pass

        totals = {
            "calls": per_unit(lambda s: 1),
            "time": per_unit(lambda s: s.end - s.start),
            "in": per_unit(lambda s: s.size_in),
            "out": per_unit(lambda s: s.size_out),
            "rss": per_unit(lambda s: s.rss_rise_kb) / 1024,
            "nonzero": per_unit(lambda s: s.size_out != 0),
        }
        out[f"{name}.calls"] = (totals["calls"], "count")
        out[f"{name}.time_s"] = (totals["time"], "s")
        for stat, (unit, fn) in EXTRA.get(name, {}).items():
            out[f"{name}.{stat}"] = (fn(totals, [s for s in ss if s.phase == "pass"]), unit)
    covered = sum(s.end - s.start for s in spans if s.phase == "pass")
    out["trace.wall_s"] = (statistics.median(pass_walls), "s")
    out["trace.coverage"] = (_ratio(covered, sum(pass_walls)), "ratio")
    return out
