"""Spans and counters recorded around maxhit's public functions.

The library is instrumented from outside: every public function of the
layer modules is replaced, in every ``maxhit`` module that binds it, by a
wrapper that records a span (id, layer, name, start, end, parent, thread).
Consumers import functions by name (``from .msp import msp_path_blocks``),
so patching only the defining module would miss most calls; ``install``
therefore rebinds every name in ``sys.modules['maxhit*']`` whose value is
one of the wrapped functions.

Hazards handled here:

* Generator functions (``msp_path_blocks``, ``block_streams``) are timed
  across each ``next()`` call, because the caller's reductions run between
  the yields and belong to the caller.
* RNG time is measured through a proxy ``Generator`` that the wrapped
  ``block_streams`` yields in place of the real one.
* Each thread keeps its own span stack (the verify suite runs a thread
  pool). Spans that start on a pool thread with an empty stack take the
  open ``run_checks`` span as their parent.
* The verify registry holds private runner functions; each is wrapped in a
  ``check:<id>`` span so per-check spans can be compared with
  ``CheckResult.seconds``.

A span's self time is its duration minus the union of its children's
intervals (children on other threads can overlap each other).

Spans charge all time to the layer of the innermost open span, so time in
unwrapped code (private functions, methods, modules outside ``LAYERS``)
lands on whichever wrapped caller is open. A sampler thread checks that
attribution: every ``SAMPLE_INTERVAL_S`` it reads the Python stack of each
thread that is inside a library call and names the layer whose code is
running there (the innermost frame of a ``LAYERS`` module; frames of the
``HELPERS`` modules belong to the layer that calls them). The share of
samples in which that layer equals the open span's layer is
``trace.coverage``. A ``maxhit`` module that is in neither list counts as
unattributed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "streams", "generators", "msp", "hitting", "dnorm", "verify")
#: ``maxhit`` modules without a layer of their own: data classes and small
#: helpers whose time is charged to the layer that calls them.
HELPERS = ("paths", "estimates", "errors", "__init__", "__main__")
SAMPLE_INTERVAL_S = 0.005
#: Summary entries that must repeat exactly at a fixed seed.
COUNTS = (
    "msp.rounds", "msp.rounds_per_block_max", "msp.arrivals_per_path",
    "msp.useful_ratio", "generators.rows", "generators.bytes_computed",
    "streams.blocks", "streams.variates", "verify.red_checks",
)


@dataclasses.dataclass
class Span:
    sid: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class RngProxy:
    """Stands in for one block's ``numpy.random.Generator``.

    Times ``standard_exponential`` and ``random`` as streams spans and
    counts variates; each ``standard_exponential`` call is one round of an
    arrival loop.
    """

    def __init__(self, rng, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer
        self.rounds = 0
        tracer.proxies.append(self)

    def _draw(self, method: str, *args, **kwargs):
        with self._tracer.span("streams", f"rng.{method}"):
            out = getattr(self._rng, method)(*args, **kwargs)
        self._tracer.count("streams.variates", out.size)
        return out

    def standard_exponential(self, *args, **kwargs):
        out = self._draw("standard_exponential", *args, **kwargs)
        self.rounds += 1
        self._tracer.count("msp.rounds", 1)
        self._tracer.count("msp.arrivals", out.size)
        return out

    def random(self, *args, **kwargs):
        return self._draw("random", *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.proxies: list[RngProxy] = []
        self.reports: list[tuple[object, int, int]] = []  # (CheckReport, threads, run_checks sid)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks: dict[int, list[tuple[int, str]]] = {}
        self._pool_parent: int | None = None
        self._undo: list = []
        self.samples = 0
        self.agreed = 0
        self._code_layers: dict = {}
        self._stop = threading.Event()
        self._sampler: threading.Thread | None = None

    def count(self, key: str, amount: int) -> None:
        # pool threads update the same counters
        with self._lock:
            self.counters[key] += int(amount)

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        """This thread's open spans as (id, layer)."""
        return self._stacks.setdefault(threading.get_ident(), [])

    def current_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def span(self, layer: str, name: str):
        return _SpanContext(self, layer, name)

    # --- wrappers ------------------------------------------------------------

    def _wrap_function(self, fn, layer: str):
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_generator(self, fn, layer: str):
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    with self.span(layer, name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            finally:
                it.close()

        return wrapper

    def _wrap_block_streams(self, fn):
        inner = self._wrap_generator(fn, "streams")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for count, rng in inner(*args, **kwargs):
                self.count("streams.blocks", 1)
                if self.current_layer() == "msp":
                    self.count("msp.paths", count)
                yield count, RngProxy(rng, self)

        return wrapper

    def _wrap_sample_paths(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self.current_layer()
            with self.span("generators", "sample_paths"):
                out = fn(*args, **kwargs)
            self.count("generators.rows", out.shape[0])
            self.count("generators.bytes_computed", out.nbytes)
            if caller == "msp":
                self.count("msp.generator_rows", out.shape[0])
            return out

        return wrapper

    def _wrap_run_checks(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads = kwargs.get("threads", 1)
            with self.span("verify", "run_checks") as ctx:
                self._pool_parent = ctx.sid
                try:
                    report = fn(*args, **kwargs)
                finally:
                    self._pool_parent = None
            self.reports.append((report, threads, ctx.sid))
            return report

        return wrapper

    def _make_wrapper(self, fn, layer: str):
        if fn.__name__ == "block_streams":
            return self._wrap_block_streams(fn)
        if fn.__name__ == "sample_paths":
            return self._wrap_sample_paths(fn)
        if fn.__name__ == "run_checks":
            return self._wrap_run_checks(fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer)
        return self._wrap_function(fn, layer)

    # --- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"maxhit.{layer}")
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._make_wrapper(obj, layer)
        self._undo = rebind(wrappers)
        registry = sys.modules["maxhit.verify"]._CHECKS
        for cid, defn in list(registry.items()):
            runner = self._wrap_check(defn.runner, cid)
            self._undo.append((registry, cid, defn))
            registry[cid] = dataclasses.replace(defn, runner=runner)
        self._package_dir = os.path.dirname(os.path.abspath(
            sys.modules["maxhit"].__file__))
        self._stop.clear()
        self._sampler = threading.Thread(target=self._sample_loop, daemon=True)
        self._sampler.start()

    def _wrap_check(self, runner, cid: str):
        @functools.wraps(runner)
        def wrapper(ctx):
            with self.span("verify", f"check:{cid}"):
                return runner(ctx)

        return wrapper

    def uninstall(self) -> None:
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()
        restore(self._undo)

    # --- attribution check -----------------------------------------------------

    def _sample_loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frames = sys._current_frames()
            for tid, stack in list(self._stacks.items()):
                try:
                    _, layer = stack[-1]
                except IndexError:
                    continue  # this thread is not inside a library call
                frame = frames.get(tid)
                if frame is None:
                    continue
                self.samples += 1
                self.agreed += self._running_layer(frame) == layer

    def _running_layer(self, frame) -> str | None:
        """Layer whose code runs at ``frame``: its innermost layer frame.

        Frames outside ``maxhit`` (numpy, the standard library, the wrappers)
        are skipped, except ``RngProxy._draw``, which stands for the RNG
        draws that ``streams`` is charged with.
        """
        while frame is not None:
            layer = self._layer_of(frame.f_code)
            if layer is not None:
                return layer
            frame = frame.f_back
        return None

    def _layer_of(self, code) -> str | None:
        """A code object's layer; None for code that is skipped."""
        if code in self._code_layers:
            return self._code_layers[code]
        layer = None
        if code is RngProxy._draw.__code__:
            layer = "streams"
        elif os.path.dirname(os.path.abspath(code.co_filename)) == self._package_dir:
            module = os.path.splitext(os.path.basename(code.co_filename))[0]
            if module in LAYERS:
                layer = module
            elif module not in HELPERS:
                layer = f"unattributed:{module}"
        self._code_layers[code] = layer
        return layer

    # --- summary ---------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self seconds per span id."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.sid] = (s.end - s.start) - covered
        return out

    def summary(self) -> dict:
        """Per-layer self seconds, counters and check bookkeeping."""
        self_of = self.self_times()
        by_id = {s.sid: s for s in self.spans}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for sid, t in self_of.items():
            layer_self[by_id[sid].layer] += t
        rng_s = sum(
            s.end - s.start for s in self.spans if s.name.startswith("rng.")
        )

        c = self.counters
        block_rounds = [p.rounds for p in self.proxies if p.rounds]
        out = {f"{layer}.self_s": t for layer, t in layer_self.items()}
        out.update({
            "msp.rounds": c["msp.rounds"],
            "msp.rounds_per_block_max": max(block_rounds, default=0),
            "msp.arrivals_per_path": (
                c["msp.arrivals"] / c["msp.paths"] if c["msp.paths"] else 0.0
            ),
            "msp.useful_ratio": (
                c["msp.paths"] / c["msp.generator_rows"]
                if c["msp.generator_rows"] else 0.0
            ),
            "generators.rows": c["generators.rows"],
            "generators.bytes_computed": c["generators.bytes_computed"],
            "streams.blocks": c["streams.blocks"],
            "streams.variates": c["streams.variates"],
            "streams.rng_s": rng_s,
        })

        check_spans = {}
        subtree = defaultdict(float)
        for s in self.spans:
            if s.name.startswith("check:"):
                check_spans[s.sid] = s.name[len("check:"):]
        # attribute every span's self time to the check span above it
        for s in self.spans:
            sid = s.sid
            while sid is not None and sid not in check_spans:
                sid = by_id[sid].parent if sid in by_id else None
            if sid is not None:
                subtree[check_spans[sid]] += self_of[s.sid]
        checks = {}
        out["verify.busy_ratio"] = 0.0
        out["verify.red_checks"] = 0
        for report, threads, sid in self.reports:
            wall = by_id[sid].end - by_id[sid].start
            busy = sum(r.seconds for r in report.checks)
            out["verify.busy_ratio"] = busy / (min(threads, len(report.checks)) * wall)
            out["verify.red_checks"] = sum(not r.passed for r in report.checks)
            for r in report.checks:
                checks[r.check_id] = {
                    "seconds": r.seconds, "span_self_sum": subtree[r.check_id]
                }
        out["verify.checks"] = checks
        out["trace.samples"] = self.samples
        out["trace.coverage"] = self.agreed / self.samples if self.samples else 0.0
        return out

    def dump_spans(self) -> list[list]:
        return [
            [s.sid, s.layer, s.name, s.start, s.end, s.parent, s.thread]
            for s in self.spans
        ]


class _SpanContext:
    __slots__ = ("tracer", "layer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, layer: str, name: str):
        self.tracer = tracer
        self.layer = layer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack()
        self.sid = next(tracer._ids)
        self.parent = stack[-1][0] if stack else tracer._pool_parent
        stack.append((self.sid, self.layer))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack().pop()
        tracer.spans.append(Span(
            self.sid, self.layer, self.name, self.start, end, self.parent,
            threading.get_ident(),
        ))
        return False


class RowCounter:
    """Counts replications handed out by ``block_streams``; no clock reads.

    Installed in untraced passes, which need the number of replications
    delivered but must not pay for spans.
    """

    def __init__(self):
        self.rows = 0
        self._lock = threading.Lock()
        self._undo: list = []

    def install(self) -> None:
        original = importlib.import_module("maxhit.streams").block_streams

        @functools.wraps(original)
        def counted(*args, **kwargs):
            for count, rng in original(*args, **kwargs):
                with self._lock:
                    self.rows += count
                yield count, rng

        self._undo = rebind({original: counted})

    def uninstall(self) -> None:
        restore(self._undo)


def rebind(replacements: dict) -> list:
    """Point every ``maxhit`` module binding of each key at its replacement.

    Returns the undo list for ``restore``.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "maxhit" and not modname.startswith("maxhit."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                undo.append((mod, name, obj))
                setattr(mod, name, replacements[obj])
    return undo


def restore(undo: list) -> None:
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)
    undo.clear()
