"""Span tracing of breakboot's layers from outside the package.

:meth:`Tracer.install` wraps the public functions listed in ``TARGETS``
under every name that a ``breakboot`` module binds them to (modules import
them with ``from ... import``, so each binding needs its own wrapper) and
:meth:`Tracer.uninstall` restores the originals.  Each call records one
span: name, layer group, start, end, parent span and test id.  Counts
(candidate evaluations, failed replications, multiplier columns, ...) are
read from argument shapes and return values at the same boundaries.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, layer group).  A dotted attribute names a method.
TARGETS = [
    ("breakboot.stats", "scan_partitions_batch", "stats.scan"),
    ("breakboot.stats", "scan_partitions", "stats.scan"),
    ("breakboot.stats", "restricted_fit_batch", "stats.restricted"),
    ("breakboot.stats", "sup_wald_design", "stats.sample_stat"),
    ("breakboot.stats", "sup_f_design", "stats.sample_stat"),
    ("breakboot.stats", "sup_wald_seq_design", "stats.sample_stat"),
    ("breakboot.sequential", "rf_sup_wald", "stats.sample_stat"),
    ("breakboot.sequential", "rf_sup_wald_seq", "stats.sample_stat"),
    ("breakboot.bootstrap", "case_i_draws", "bootstrap.draws"),
    ("breakboot.bootstrap", "case_ii_draws", "bootstrap.draws"),
    ("breakboot.bootstrap", "rf_case_i_draws", "bootstrap.draws"),
    ("breakboot.bootstrap", "rf_case_ii_draws", "bootstrap.draws"),
    ("breakboot.bootstrap", "MultiplierStream.matrix", "rng.multiplier"),
    ("breakboot.sequential", "estimate_rf_breaks_design", "sequential.pretest"),
    ("breakboot.partition_search", "global_ssr_breaks", "partition_search.dp"),
    ("breakboot.partition_search", "rf_break_grid_and_fit", "partition_search.dp"),
    ("breakboot.estimation", "make_design", "estimation.fit"),
    ("breakboot.estimation", "first_stage", "estimation.fit"),
    ("breakboot.estimation", "fit_regimes", "estimation.fit"),
    ("breakboot.dgp", "generate", "dgp.generate"),
]

ROOT_GROUP = "harness"
F64_BYTES = 8


# Counters read argument shapes and return values at the same boundaries:
# count(original function, positional args without self, kwargs, result, add)

def _count_scan_batch(orig, args, kwargs, result, add):
    Ws, parts = args[1], args[2]
    B, n, d = Ws.shape
    m = parts.shape[0]
    ok = result[2]
    add("cand_evals", B * m)
    add("cand_failed", int(ok.size - ok.sum()))
    # the (batch, candidates, rows) score arrays of one chunk; the SSR-only
    # path forms (batch, candidates, d*d) Gram gathers instead
    chunk_rows = kwargs.get("chunk_rows", orig.__kwdefaults__["chunk_rows"])
    bc = max(1, min(B, chunk_rows // max(1, m * n)))
    per = n if kwargs.get("compute_wald", True) else d * d
    add("work_bytes_max", bc * m * per * F64_BYTES, mode="max")


def _count_scan(orig, args, kwargs, result, add):
    add("cand_evals", int(args[2].shape[0]))
    add("cand_failed", int(result.n_skipped))


def _count_draws(orig, args, kwargs, result, add):
    draws, failures = result
    add("boot_attempted", len(draws) + int(failures))
    add("boot_failed", int(failures))


def _count_streams(orig, args, kwargs, result, add):
    add("streams", int(result.shape[1]))


def _count_stages(orig, args, kwargs, result, add):
    add("stages", len(result.trail))


def _count_dp(orig, args, kwargs, result, add):
    add("dp_calls", 1)


COUNTERS = {
    "scan_partitions_batch": _count_scan_batch,
    "scan_partitions": _count_scan,
    "case_i_draws": _count_draws,
    "case_ii_draws": _count_draws,
    "rf_case_i_draws": _count_draws,
    "rf_case_ii_draws": _count_draws,
    "MultiplierStream.matrix": _count_streams,
    "estimate_rf_breaks_design": _count_stages,
    "global_ssr_breaks": _count_dp,
    "rf_break_grid_and_fit": _count_dp,
}


class Tracer:
    """Span recorder for one benchmark process (single thread)."""

    def __init__(self) -> None:
        # span: [name, group, start, end, parent index or -1, test id]
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._test: int = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, group: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, group, time.perf_counter(), None, parent, self._test])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _add(self, key: str, value: int, mode: str = "sum") -> None:
        bucket = self.counts[self._test]
        if mode == "max":
            bucket[key] = max(bucket[key], value)
        else:
            bucket[key] += value

    def test(self, test_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of test ``test_id``."""
        self._test = test_id
        idx = self._open("test", ROOT_GROUP)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._test = -1

    def _wrap(self, orig, name: str, group: str):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, group)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(orig, args[1:] if "." in name else args, kwargs, result, tracer._add)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import breakboot  # noqa: F401  (loads every submodule)

        mods = [m for k, m in sys.modules.items() if k == "breakboot" or k.startswith("breakboot.")]
        for mod_name, attr, group in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, attr, group))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, attr, group)
            for mod in mods:
                for bound, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, bound, orig))
                        setattr(mod, bound, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def _children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[4] >= 0:
                children[s[4]].append(i)
        return children

    def per_test(self) -> dict[int, dict[str, float]]:
        """Per-test layer times (outermost spans of each group), self
        times, and counts.  A span's self time is its duration minus the
        union of its children's intervals clipped to it, so the self
        times of a test add up to its wall time only when every child
        lies inside its parent and siblings do not overlap."""
        children = self._children()
        out: dict[int, dict[str, float]] = {}

        def dur(i: int) -> float:
            return self.spans[i][3] - self.spans[i][2]

        def self_time(i: int) -> float:
            lo, hi = self.spans[i][2], self.spans[i][3]
            covered, edge = 0.0, lo
            for a, b in sorted((self.spans[c][2], self.spans[c][3]) for c in children[i]):
                a, b = max(a, edge), min(b, hi)
                if b > a:
                    covered += b - a
                    edge = b
            return dur(i) - covered

        def walk(i: int, open_groups: frozenset, acc: dict) -> None:
            group = self.spans[i][1]
            if group not in open_groups:
                acc[f"{group}_s"] = acc.get(f"{group}_s", 0.0) + dur(i)
            acc[f"{group}_self_s"] = acc.get(f"{group}_self_s", 0.0) + self_time(i)
            acc["self_sum_s"] = acc.get("self_sum_s", 0.0) + self_time(i)
            for c in children[i]:
                walk(c, open_groups | {group}, acc)

        for i, s in enumerate(self.spans):
            if s[4] == -1 and s[1] == ROOT_GROUP:
                acc: dict[str, float] = {"wall_s": dur(i)}
                walk(i, frozenset(), acc)
                acc.update(self.counts.get(s[5], {}))
                out[s[5]] = acc
        return out

    def problems(self) -> list[str]:
        """Spans that break the tree: unclosed, outside or in another test
        than their parent, overlapping a sibling, directly inside a span of
        the same function (a double wrapper), or outside any test."""
        found = []
        for i, (name, _, start, end, parent, test) in enumerate(self.spans):
            if end is None or end < start:
                found.append(f"span {i} {name} not closed")
            elif parent == -1:
                if name != "test" or test < 0:
                    found.append(f"span {i} {name} outside any test")
            else:
                p = self.spans[parent]
                if p[5] != test or start < p[2] or (p[3] is not None and end > p[3]):
                    found.append(f"span {i} {name} outside its parent {parent} {p[0]}")
                if p[0] == name:
                    found.append(f"span {i} {name} directly inside another {name}")
        for parent, kids in self._children().items():
            edge = -float("inf")
            for start, end, i in sorted((self.spans[c][2], self.spans[c][3], c) for c in kids):
                if start < edge:
                    found.append(f"span {i} overlaps a sibling under {parent}")
                edge = max(edge, end if end is not None else edge)
        return found

    def dump(self, path) -> None:
        """Write spans (one JSON list per line) and per-test counts."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "group", "start", "end", "parent", "test"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"counts": {str(k): v for k, v in self.counts.items()}}) + "\n")
