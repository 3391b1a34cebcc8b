"""Span tracer for the traced run.

The tracer wraps, from outside the package, every public function of the
burstcodes modules and the `label` methods of both block labelers.  Each
wrapped call is a span (name, start, end, parent).  As spans close, each
thread aggregates per name: calls, wall time, inclusive thread CPU time, and
self time, which is the thread CPU time inside the span minus the part its
child spans took.  CPU time, not wall time, keeps a span on one pool thread
from absorbing the work the other threads did while it waited for the
interpreter lock.  The first SPAN_CAP spans are kept whole in memory and
`write_spans` writes them out.  `uninstall` restores every binding that
`install` replaced.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

MODULES = ("seqcore", "classic", "pll2burst", "tburst", "perm", "bounds", "verify", "cli")
LABELERS = ("BlockLabeler", "QaryBlockLabeler")
# private candidate generators of cpb_decode: counted per yielded candidate
CANDIDATE_GENERATORS = ("_burst_candidates", "_edit_candidates")
# spans that also record process CPU time, for cpu_per_wall
PROCESS_CPU_SPANS = ("verify.roundtrip_sweep",)
# spans kept whole; a perm-stream plan closes millions, the aggregates count all
SPAN_CAP = 100_000


class Stats:
    """Aggregates of one thread, or of all threads after `Tracer.merged`."""

    def __init__(self):
        self.calls = Counter()
        self.raised = Counter()
        self.yields = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self.wall = defaultdict(float)
        self.inclusive = defaultdict(float)  # thread CPU time, children included
        self.self_time = defaultdict(float)
        self.process_cpu = defaultdict(float)

    def merge(self, other: "Stats") -> None:
        for mine, theirs in (
            (self.calls, other.calls), (self.raised, other.raised),
            (self.yields, other.yields), (self.edges, other.edges),
            (self.wall, other.wall), (self.inclusive, other.inclusive),
            (self.self_time, other.self_time),
            (self.process_cpu, other.process_cpu),
        ):
            for key, value in theirs.items():
                mine[key] += value


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id), the first SPAN_CAP
        self._local = threading.local()
        self._main_stack = []
        self._threads = []  # Stats of every thread that closed a span
        self._threads_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore = []

    # -- span bookkeeping -------------------------------------------------

    def _thread(self):
        """(stack, stats) of the calling thread."""
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            local.stack = self._main_stack if main else []
            local.stats = Stats()
            with self._threads_lock:
                self._threads.append(local.stats)
            return local.stack, local.stats

    def _span(self, name: str, fn, args, kwargs):
        stack, stats = self._thread()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's root span is caused by the span the main
            # thread has open (the sweep that submitted the work)
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        frame = [name, next(self._ids), 0.0]  # name, id, child CPU time
        proc0 = time.process_time() if name in PROCESS_CPU_SPANS else None
        stack.append(frame)
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stats.raised[name] += 1
            raise
        finally:
            cpu = time.thread_time() - c0
            t1 = time.perf_counter()
            stack.pop()
            stats.calls[name] += 1
            stats.wall[name] += t1 - t0
            stats.inclusive[name] += cpu
            stats.self_time[name] += max(0.0, cpu - frame[2])
            if proc0 is not None:
                stats.process_cpu[name] += time.process_time() - proc0
            if parent is not None:
                stats.edges[parent[0], name] += 1
                if stack:  # same thread: the parent's CPU time covers ours
                    parent[2] += cpu
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[1], name, t0, t1, parent[1] if parent else None))

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # a span would close when the generator is created: count only
            def counted(*args, **kwargs):
                self._thread()[1].calls[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return functools.wraps(fn)(traced)

    def _wrap_yields(self, name: str, gen_fn):
        def counted(*args, **kwargs):
            stats = self._thread()[1]
            stats.calls[name] += 1
            for item in gen_fn(*args, **kwargs):
                stats.yields[name] += 1
                yield item

        return functools.wraps(gen_fn)(counted)

    def write_spans(self, path) -> None:
        """The kept spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def merged(self) -> Stats:
        total = Stats()
        with self._threads_lock:
            for stats in self._threads:
                total.merge(stats)
        return total

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Rebind every public function of MODULES, in every module namespace
        that holds it, plus the labelers' `label` methods."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("burstcodes")
        mods = {m: importlib.import_module(f"burstcodes.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        tburst = mods["tburst"]
        for attr in CANDIDATE_GENERATORS:
            obj = getattr(tburst, attr)
            wrappers[id(obj)] = (obj, self._wrap_yields(f"tburst.{attr}", obj))
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for cls_name in LABELERS:
            cls = getattr(tburst, cls_name)
            orig = cls.__dict__["label"]
            self._restore.append((cls, "label", orig))
            cls.label = self._wrap(f"tburst.{cls_name}.label", orig)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, orig = self._restore.pop()
            setattr(target, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
