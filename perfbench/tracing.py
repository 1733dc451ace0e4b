"""Spans around public abincull names, installed from outside the library.

The benchmark does not edit the library.  To split a run by layer it
replaces public module or class attributes with timing wrappers for the
length of the run and puts the originals back afterwards.  A name that no
longer exists is skipped and reported, so a refactor that deletes or renames
a layer turns that layer's metrics absent instead of breaking the run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """A public attribute to wrap: ``owner`` is a module path, optionally
    followed by ``:Class`` for a method; ``span`` names the layer."""

    owner: str
    attr: str
    span: str

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


class SpanLog:
    """Spans held in flat arrays, one entry per wrapped call.

    Each span has a name, start and end (perf_counter ns), the index of the
    span that was open when it began (its parent, -1 for none), the frame id
    current at its start and a tag (the method index of the enclosing
    traversal, -1 outside one).  ``before``/``after`` map a span name to a
    hook called with the call's arguments (and result), so a caller can
    advance the frame id, set the tag or read return values.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.frame = array("i")
        self.tag = array("i")
        self._open: list[int] = []
        self.frame_id = -1
        self.current_tag = -1
        self.before: dict = {}
        self.after: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.frame.append(self.frame_id)
        self.tag.append(self.current_tag)
        self.end.append(-1)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, fn, span: str):
        nid = self.name_id(span)
        before = self.before.get(span)
        after = self.after.get(span)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def durations_s(self, span: str, since: int = 0) -> list[float]:
        """Durations in seconds of the named spans from index ``since`` on."""
        nid = self._ids.get(span)
        return [(self.end[i] - self.start[i]) * 1e-9
                for i in range(since, len(self.start)) if self.name[i] == nid]

    def table(self) -> "SpanTable":
        """Snapshot of the closed spans for queries."""
        return SpanTable(self)


class SpanTable:
    """Read-only numpy view of a SpanLog, with per-span self times."""

    def __init__(self, log: SpanLog):
        self._ids = dict(log._ids)
        self.name = np.array(log.name, dtype=np.int32)
        self.parent = np.array(log.parent, dtype=np.int32)
        self.frame = np.array(log.frame, dtype=np.int32)
        self.tag = np.array(log.tag, dtype=np.int32)
        start = np.array(log.start, dtype=np.int64)
        end = np.array(log.end, dtype=np.int64)
        self.duration = np.where(end >= 0, end - start, 0)
        # Spans are recorded on one thread and nest properly, so the
        # children of a span are disjoint intervals inside it and their
        # durations sum to the time they cover.
        cover = np.zeros(len(self.duration), dtype=np.int64)
        has_parent = self.parent >= 0
        np.add.at(cover, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - cover

    def mask(self, span: str, tag: int | None = None) -> np.ndarray:
        if span not in self._ids:
            return np.zeros(len(self.name), dtype=bool)
        m = self.name == self._ids[span]
        if tag is not None:
            m &= self.tag == tag
        return m

    def count(self, span: str, tag: int | None = None) -> int:
        return int(self.mask(span, tag).sum())

    def total_s(self, span: str, tag: int | None = None,
                self_time: bool = False) -> float:
        """Summed duration (or self time) of the named spans, in seconds."""
        values = self.self_time if self_time else self.duration
        return float(values[self.mask(span, tag)].sum()) * 1e-9


def _resolve_owner(owner: str):
    module_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if cls_name:
        obj = getattr(obj, cls_name)
    return obj


@contextmanager
def patched(log: SpanLog, targets):
    """Install ``log`` wrappers on every target that exists; restore on exit.

    Yields ``{target label: reason}`` for the targets that could not be
    wrapped.  On exit every wrapped attribute is put back exactly: a class
    attribute that was inherited rather than defined on the class is
    deleted again instead of being shadowed by the original.
    """
    missing = {}
    installed = []  # (owner object, attr, original, was defined on owner)
    try:
        for target in targets:
            try:
                owner = _resolve_owner(target.owner)
            except (ImportError, AttributeError) as exc:
                missing[target.label] = f"owner missing: {exc}"
                continue
            original = getattr(owner, target.attr, None)
            if original is None or not callable(original):
                missing[target.label] = "attribute missing"
                continue
            own = target.attr in vars(owner)
            installed.append((owner, target.attr, original, own))
            setattr(owner, target.attr, log.wrap(original, target.span))
        yield missing
    finally:
        for owner, attr, original, own in reversed(installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
