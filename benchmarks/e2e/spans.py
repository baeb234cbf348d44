"""Span recording from outside the program, and the per-layer arithmetic.

The traced run wraps public callables of ``repro`` (listed in
``SERVER_TARGETS`` / ``CLIENT_TARGETS``) before the program starts, so
no file under ``src/`` knows it is being measured.  One span per call:
``(id, parent, name, start, end, attrs)``, parent taken from a
per-thread stack.  A ``gateway.handle`` reached through
``submit_command`` runs on a pool thread; it is linked to the
``gateway.queue_wait`` span opened at the submit by the identity of the
request object.

Self time of a span is its duration minus the part of its own interval
that its child spans cover (children are clipped to the parent and
overlapping children are merged, so a cross-thread child that runs
after its parent ended covers nothing of it).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# (id, parent id or 0, name, start, end, attrs or None)
Span = Tuple[int, int, str, float, float, Optional[Dict[str, float]]]

#: Modules imported before wrapping, so every subclass and every
#: ``from x import f`` alias exists when the targets are resolved.
_PRELOAD = (
    "repro.cli",
    "repro.core",
    "repro.experiments.protocol",
    "repro.gp",
    "repro.infer",
    "repro.ml.zoo",
    "repro.obs",
    "repro.persist",
    "repro.platform",
    "repro.replica",
    "repro.runtime",
    "repro.service",
    "repro.service.client",
    "repro.service.http",
)


def _predict_attrs(args, result) -> Dict[str, float]:
    # Estimator.predict(self, X)
    return {"rows": len(args[1])}


def _lookup_attrs(args, result) -> Dict[str, float]:
    # PredictionCache.lookup(self, app, version, X) -> (hits, misses, keys)
    return {"rows": len(args[3]), "hits": len(result[0])}


def _append_attrs(args, result) -> Dict[str, float]:
    # Journal.append(...) -> JournalRecord; the line plus its newline.
    return {"bytes": len(result.to_line().encode("utf-8")) + 1}


#: (span name, "module:attr[.attr]", measure or None).  The layer is the
#: part of the span name before the dot.  A class method is wrapped on
#: the class and on every subclass that overrides it.
SERVER_TARGETS: Sequence[Tuple[str, str, Optional[Callable]]] = (
    ("api.from_wire", "repro.service.api:from_wire", None),
    ("api.to_wire", "repro.service.api:to_wire", None),
    ("http.decode", "repro.service.http:decode_body", None),
    ("http.route", "repro.service.http:route_request", None),
    ("gateway.handle", "repro.service.gateway:ServiceGateway.handle", None),
    ("platform.feed", "repro.platform.server:EaseMLApp.feed", None),
    ("runtime.submit", "repro.runtime.kernel:ClusterRuntime.submit", None),
    ("runtime.step", "repro.runtime.kernel:ClusterRuntime.step", None),
    ("ml.fit", "repro.ml.base:Estimator.fit", None),
    ("ml.predict", "repro.ml.base:Estimator.predict", _predict_attrs),
    ("core.step", "repro.core.multitenant:MultiTenantScheduler.step", None),
    ("core.user_pick", "repro.core.user_picking:UserPicker.pick", None),
    ("core.model_select", "repro.core.model_picking:ModelPicker.select", None),
    ("core.observe", "repro.core.model_picking:ModelPicker.observe", None),
    ("gp.update", "repro.gp.regression:FiniteArmGP.update", None),
    ("gp.posterior", "repro.gp.regression:FiniteArmGP.posterior", None),
    ("persist.append", "repro.persist.journal:Journal.append", _append_attrs),
    ("persist.commit", "repro.persist.journal:Journal.commit", None),
    ("persist.snapshot", "repro.persist.store:StateStore.snapshot", None),
    ("persist.recover", "repro.persist.recovery:recover_gateway", None),
    ("persist.fsync", "os:fsync", None),
    ("replica.seed", "repro.replica.replica:ReadReplica.start", None),
    ("infer.predict", "repro.infer.plane:InferPlane.predict", None),
    ("infer.queue_wait", "repro.infer.batching:BatchQueue.submit", None),
    ("infer.cache_lookup", "repro.infer.cache:PredictionCache.lookup",
     _lookup_attrs),
    ("infer.cache_store", "repro.infer.cache:PredictionCache.store", None),
    ("obs.trace", "repro.obs.tracing:Tracer.start", None),
    ("obs.trace", "repro.obs.tracing:Tracer.finish", None),
    ("obs.slo_record", "repro.obs.slo:SLOEngine.record", None),
)

#: Load-generator side: every SDK verb the workloads call is one
#: ``client.request`` root (``wait`` folds its inner ``job_status``).
#: The benchmark process installs these on top of SERVER_TARGETS, which
#: already cover ``api.from_wire`` and the restart phase.
CLIENT_TARGETS: Sequence[Tuple[str, str, Optional[Callable]]] = tuple(
    ("client.request", f"repro.service.client:EaseMLClient.{verb}", None)
    for verb in (
        "app_status", "refine", "events", "list_jobs", "feed",
        "set_example_enabled", "submit_training", "wait", "job_status",
        "infer", "infer_batch",
    )
)

_SUBMIT = "repro.service.gateway:ServiceGateway.submit_command"
_HANDLE = "gateway.handle"
_QUEUE_WAIT = "gateway.queue_wait"


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Targets that did not resolve (a later PR moved or deleted
        #: them): they read as zero calls instead of breaking the run.
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(request) -> (queue_wait span id, its parent, submit time)
        self._links: Dict[int, Tuple[int, int, float]] = {}

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        measure: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        A call nested directly in a span of the same name is folded
        into it (a forest fitting its trees is one ``ml.fit``).
        """
        spans, ids, links = self.spans, self._ids, self._links
        is_handle = name == _HANDLE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else 0
            start = time.perf_counter()
            if is_handle and links and len(args) > 1:
                link = links.pop(id(args[1]), None)
                if link is not None:
                    wait_id, wait_parent, submitted = link
                    spans.append(
                        (wait_id, wait_parent, _QUEUE_WAIT, submitted,
                         start, None)
                    )
                    parent = wait_id
            sid = next(ids)
            stack.append((sid, name))
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    try:
                        attrs = measure(args, result)
                    except Exception:  # noqa: BLE001 - signature drifted
                        attrs = None
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, attrs))

        return wrapper

    def _wrap_submit(self, fn: Callable) -> Callable:
        ids, links = self._ids, self._links

        @functools.wraps(fn)
        def wrapper(gateway, request, *args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else 0
            links[id(request)] = (next(ids), parent, time.perf_counter())
            return fn(gateway, request, *args, **kwargs)

        return wrapper

    def install(self, targets: Iterable[Tuple[str, str, Optional[Callable]]]) -> None:
        """Wrap every target that resolves; note the ones that do not."""
        for module in _PRELOAD:
            try:
                importlib.import_module(module)
            except ImportError:
                self.missing.append(module)
        for name, path, measure in targets:
            if not _patch(path, lambda fn: self.wrap(fn, name, measure)):
                self.missing.append(path)
        if any(name == _HANDLE for name, _, _ in targets):
            if not _patch(_SUBMIT, self._wrap_submit):
                self.missing.append(_SUBMIT)

    def dump(self, path: str) -> None:
        """Write the spans recorded so far; atomic, callable repeatedly."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {"missing": self.missing, "spans": list(self.spans)}, handle
            )
        os.replace(tmp, path)


def load(path: str) -> Tuple[List[Span], List[str]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [tuple(span) for span in data["spans"]], data["missing"]


def _patch(path: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace the callable at ``module:attr[.attr]``; False if absent."""
    module_name, _, dotted = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return False
    *parents, leaf = dotted.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = getattr(owner, leaf, None)
    if original is None:
        return False
    if isinstance(owner, type):
        for cls in _with_subclasses(owner):
            if leaf in vars(cls):
                setattr(cls, leaf, make(vars(cls)[leaf]))
        return True
    wrapped = make(original)
    # ``from repro.service.api import to_wire`` made aliases: patch
    # every loaded repro module that holds the same function object.
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if module is owner or name == "repro" or name.startswith("repro."):
            if getattr(module, leaf, None) is original:
                setattr(module, leaf, wrapped)
    return True


def _with_subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> self time in seconds (see the module docstring)."""
    bounds = {span[0]: (span[3], span[4]) for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, start, end, _attrs in spans:
        if parent in bounds:
            lo, hi = bounds[parent]
            start, end = max(start, lo), min(end, hi)
            if end > start:
                children[parent].append((start, end))
    out: Dict[int, float] = {}
    for sid, (start, end) in bounds.items():
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            if hi > reach:
                covered += hi - max(lo, reach)
                reach = hi
        out[sid] = (end - start) - covered
    return out


def in_window(spans: Sequence[Span], start: float, end: float) -> List[Span]:
    """Spans that began inside ``[start, end]`` (the timed section)."""
    return [span for span in spans if start <= span[3] <= end]


def by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total self seconds, summed attrs."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, _parent, name, start, end, attrs in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += own[sid]
        entry["max_s"] = max(entry["max_s"], end - start)
        for key, value in (attrs or {}).items():
            entry[key] += value
    return out


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span[4] - span[3] for span in spans if span[2] == name]
