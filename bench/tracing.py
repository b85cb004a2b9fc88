"""Spans recorded around the public functions of epiq, kept in memory.

A span is (name, start, end, parent, op id).  Wrappers are installed on the
attribute the caller looks up (``epiq.cli.propagate``, a class's ``__mul__``)
and removed afterwards.  A name that no longer exists is recorded as missing
instead of failing the run, so the traced run survives a refactor that
deletes or moves a function.
"""
from __future__ import annotations

import gzip
import importlib
import json
import re
import statistics
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags = {}  # span index -> tag set by a classifier
        self.counts = {}  # counter name -> one-element list
        self.missing = {}  # span or counter name -> reason
        self.current_op = -1
        self._stack = []
        self._patches = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self):
        return len(self.start)

    def span_wrapper(self, name, fn, classify=None):
        nid = self._intern(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            # A call that reaches the same layer through a second wrapped
            # name (scipy.optimize.least_squares behind
            # epiq.uniqueness.least_squares) or by recursion is one span.
            if stack and self.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if classify is not None:
                self.tags[idx] = classify(result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, target, name, counter=False, classify=None):
        """Wrap ``target`` ("pkg.module:attr" or "pkg.module:Class.attr")."""
        module_path, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_path)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as e:
            self.missing.setdefault(name, f"{target} not found ({e})")
            return
        had = attr in vars(owner)
        wrapper = (self.count_wrapper(name, original) if counter
                   else self.span_wrapper(name, original, classify))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had))

    def unpatch(self):
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def write(self, path):
        """Write every span (columns, with the name table) as gzipped JSON."""
        doc = {"names": self.names, "name_id": list(self.name_id),
               "parent": list(self.parent), "op": list(self.op),
               "start": list(self.start), "end": list(self.end),
               "tags": {str(k): v for k, v in self.tags.items()},
               "counts": {k: v[0] for k, v in self.counts.items()}}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def self_times(start, end, parent):
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations add up.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class SpanStats:
    """Per-name durations and self times of the spans in [lo, hi)."""

    def __init__(self, tracer, lo, hi):
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        self.durations = {}
        self.selfs = {}
        self.by_tag = {}
        self.by_op = {}
        for i in range(lo, hi):
            name = tracer.names[tracer.name_id[i]]
            d = tracer.end[i] - tracer.start[i]
            self.durations.setdefault(name, []).append(d)
            self.selfs.setdefault(name, []).append(selfs[i])
            tag = tracer.tags.get(i)
            if tag is not None:
                key = (name, tag)
                self.by_tag[key] = self.by_tag.get(key, 0.0) + d
            key = (name, tracer.op[i])
            self.by_op[key] = self.by_op.get(key, 0.0) + d

    def calls(self, *names):
        return sum(len(self.durations.get(n, ())) for n in names)

    def total(self, *names):
        return sum(sum(self.durations.get(n, ())) for n in names)

    def median(self, name):
        d = self.durations.get(name)
        return statistics.median(d) if d else 0.0

    def median_self(self, name):
        s = self.selfs.get(name)
        return statistics.median(s) if s else 0.0


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(text):
    """name -> (self seconds, cumulative seconds) from ``-X importtime`` output."""
    out = {}
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out[m.group(4)] = (int(m.group(1)) / 1e6, int(m.group(2)) / 1e6)
    return out
