"""Timing and counting wrappers around the package's public functions.

The benchmark never edits the package. A traced pass replaces, for its
duration, the module global that a caller looks up (for example
`finite_blocklength.integrate_semi_infinite`, which `fb_error_average`
reads) with a wrapper, and puts the original back afterwards. Timed sites
record one span per call; counted sites only bump a per-thread counter,
because they are called millions of times per pass and a span each would
dominate the run. Spans stay in memory and are written out once, at the end.

A site whose function a later version of the package no longer has is
reported as absent; its metrics read 0 instead of failing the run.
"""
from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from metrics import median, tail_percentile

SPAN = "span"
COUNT = "count"
PACKAGE = "urpayload"


def _method_tag(args, kwargs) -> str:
    method = args[0] if args else kwargs["method"]
    return getattr(method, "value", str(method))


def _quadrature_note(args, kwargs, result) -> dict:
    return {"error_estimate": float(result[1])}


def _block_note(args, kwargs, result) -> dict:
    # the interferer-gain array is trials x eta x antennas float64s
    return {"gain_bytes": int(np.size(result)) * args[0].eta * 8}


def _elements_note(args, kwargs, result) -> dict:
    return {"elements": int(np.size(args[0]))}


@dataclass(frozen=True)
class Site:
    """One wrapped name: the module the caller reads it from and the layer it is."""

    module: str
    attr: str
    layer: str
    kind: str
    tag: Optional[Callable] = None
    note: Optional[Callable] = None


SITES = (
    Site("sweeps", "solve", "sweeps.solve", SPAN, tag=_method_tag),
    Site("sweeps", "fb_kstar", "finite_blocklength.fb_kstar", SPAN),
    Site("finite_blocklength", "fb_error_average", "finite_blocklength.fb_error_average", SPAN),
    Site(
        "finite_blocklength",
        "integrate_semi_infinite",
        "numerics.integrate_semi_infinite",
        SPAN,
        note=_quadrature_note,
    ),
    Site(
        "finite_blocklength",
        "fb_error_conditional",
        "finite_blocklength.fb_error_conditional",
        COUNT,
    ),
    Site(
        "simulator",
        "fb_error_conditional",
        "finite_blocklength.fb_error_conditional",
        SPAN,
        note=_elements_note,
    ),
    Site("simulator", "sample_sir_block", "simulator.sample_sir_block", SPAN, note=_block_note),
    Site("rate_control", "find_root_monotone", "numerics.find_root_monotone", SPAN),
    Site("rate_control", "sc_error", "rate_control.error_eval", COUNT),
    Site("rate_control", "mrc_error", "rate_control.error_eval", COUNT),
    Site("rate_control", "sir_cdf_exact", "sir_model.cdf", COUNT),
    Site("rate_control", "sir_cdf_approx", "sir_model.cdf", COUNT),
    Site("sweeps", "sir_cdf_exact", "sir_model.cdf", COUNT),
    Site("sweeps", "sir_cdf_approx", "sir_model.cdf", COUNT),
    Site("rate_control", "lomax_sum_cdf", "rate_control.lomax_sum_cdf", COUNT),
    Site("sweeps", "lomax_sum_cdf", "rate_control.lomax_sum_cdf", COUNT),
)

ASYMPTOTIC_METHODS = ("sc_exact", "sc_approx", "mrc_numeric", "mrc_closed")


class Span(NamedTuple):
    id: int
    layer: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    tag: Optional[str]
    note: Optional[dict]


class _ThreadState:
    __slots__ = ("stack", "counts")

    def __init__(self) -> None:
        self.stack: list[tuple[int, Optional[str]]] = []
        self.counts: dict[tuple[str, Optional[str]], int] = {}


class Tracer:
    """Installs the wrappers for SITES and collects what they record.

    Use as a context manager so the originals are restored even when a
    traced pass raises. `request` is set by the benchmark around each of its
    own calls; spans recorded in worker threads inherit it.
    """

    def __init__(self, sites=SITES) -> None:
        self._sites = sites
        self._installed: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.request: Optional[int] = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        self.absent = []
        for site in self._sites:
            module = importlib.import_module(f"{PACKAGE}.{site.module}")
            original = getattr(module, site.attr, None)
            if original is None:
                self.absent.append(f"{site.module}.{site.attr}")
                continue
            self._installed.append((module, site.attr, original))
            setattr(module, site.attr, self._wrap(site, original))

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _wrap(self, site: Site, fn):
        layer, state_of = site.layer, self._state

        if site.kind == COUNT:

            def counted(*args, **kwargs):
                state = state_of()
                key = (layer, state.stack[-1][1] if state.stack else None)
                state.counts[key] = state.counts.get(key, 0) + 1
                return fn(*args, **kwargs)

            return counted

        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def timed(*args, **kwargs):
            stack = state_of().stack
            parent, inherited = stack[-1] if stack else (None, None)
            tag = site.tag(args, kwargs) if site.tag else inherited
            span_id = next(ids)
            stack.append((span_id, tag))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append(Span(span_id, layer, start, clock(), parent, self.request, tag, None))
                raise
            end = clock()
            stack.pop()
            note = site.note(args, kwargs, result) if site.note else None
            spans.append(Span(span_id, layer, start, end, parent, self.request, tag, note))
            return result

        return timed

    def take(self) -> tuple[list[Span], dict[tuple[str, Optional[str]], int]]:
        """Hand over everything recorded since the last call and start afresh."""
        spans = list(self.spans)
        self.spans.clear()
        counts: dict[tuple[str, Optional[str]], int] = {}
        with self._states_lock:
            for state in self._states:
                for key, value in state.counts.items():
                    counts[key] = counts.get(key, 0) + value
                state.counts.clear()
        return spans, counts


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer time not covered by the layer's own child spans."""
    duration = {s.id: s.end - s.start for s in spans}
    own: dict[str, float] = {}
    for s in spans:
        own[s.layer] = own.get(s.layer, 0.0) + duration[s.id]
    layer_of = {s.id: s.layer for s in spans}
    for s in spans:
        if s.parent in layer_of:
            own[layer_of[s.parent]] -= duration[s.id]
    return own


def layer_metrics(spans: list[Span], counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass; 0 for layers it never entered."""
    by_layer: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)

    def calls(layer: str) -> int:
        return len(by_layer.get(layer, ()))

    def busy(layer: str) -> float:
        return sum(s.end - s.start for s in by_layer.get(layer, ()))

    def counted(layer: str) -> int:
        return sum(v for (name, _), v in counts.items() if name == layer)

    def notes(layer: str, key: str) -> list[float]:
        return [s.note[key] for s in by_layer.get(layer, ()) if s.note]

    fbk = [1e3 * (s.end - s.start) for s in by_layer.get("finite_blocklength.fb_kstar", ())]
    quad_err = notes("numerics.integrate_semi_infinite", "error_estimate")
    cond = "finite_blocklength.fb_error_conditional"
    out = {
        "finite_blocklength.fb_kstar.calls": len(fbk),
        "finite_blocklength.fb_kstar.busy_s": busy("finite_blocklength.fb_kstar"),
        "finite_blocklength.fb_kstar.ms_p50": median(fbk) if fbk else 0.0,
        "finite_blocklength.fb_kstar.ms_p98": tail_percentile(fbk, 98) if fbk else 0.0,
        "finite_blocklength.fb_error_average.calls": calls("finite_blocklength.fb_error_average"),
        "finite_blocklength.fb_error_average.per_fb_kstar": (
            calls("finite_blocklength.fb_error_average") / len(fbk) if fbk else 0.0
        ),
        "finite_blocklength.fb_error_average.busy_s": busy("finite_blocklength.fb_error_average"),
        "finite_blocklength.fb_error_conditional.calls": counted(cond) + calls(cond),
        "finite_blocklength.fb_error_conditional.busy_s": busy(cond),
        "finite_blocklength.fb_error_conditional.elements": counted(cond)
        + sum(notes(cond, "elements")),
        "numerics.integrate_semi_infinite.calls": calls("numerics.integrate_semi_infinite"),
        "numerics.integrate_semi_infinite.busy_s": busy("numerics.integrate_semi_infinite"),
        "numerics.integrate_semi_infinite.max_error_estimate": max(quad_err, default=0.0),
        "numerics.find_root_monotone.calls": calls("numerics.find_root_monotone"),
        "numerics.find_root_monotone.busy_s": busy("numerics.find_root_monotone"),
        "sir_model.cdf_calls": counted("sir_model.cdf"),
        "rate_control.lomax_sum_cdf.calls": counted("rate_control.lomax_sum_cdf"),
        "simulator.sample_sir_block.calls": calls("simulator.sample_sir_block"),
        "simulator.sample_sir_block.busy_s": busy("simulator.sample_sir_block"),
        "simulator.gain_bytes_per_block": max(
            notes("simulator.sample_sir_block", "gain_bytes"), default=0
        ),
    }
    solves = by_layer.get("sweeps.solve", ())
    for method in ASYMPTOTIC_METHODS:
        n = sum(1 for s in solves if s.tag == method)
        evals = counts.get(("rate_control.error_eval", method), 0)
        out[f"rate_control.error_evals_per_solve.{method}"] = evals / n if n else 0.0
    return out


def write_spans(path: Path, passes: list[list[Span]]) -> None:
    """Dump the spans of every traced pass as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "fields": list(Span._fields),
        "passes": [[list(s) for s in spans] for spans in passes],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))
