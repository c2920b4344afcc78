"""Span tracing for the traced run, installed from outside phctrl.

Every module-level name through which phctrl reaches a layer function
(``phctrl.experiments.sample_ph``, ``phctrl.sample.validate_ph``,
``numpy.linalg.svd``, ...) and ``PHTSystem.__post_init__`` are replaced
by a wrapper that records a span: name, start, end, parent span and the
unit of work it belongs to.  Spans stay in memory until the run ends.
Nothing is installed in an untraced run.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from collections import Counter

import numpy as np

import phctrl
from phctrl import cli, core, ctrb, experiments, sample, vectorize

LAYERS = {
    "experiments": (experiments, ("run_genericity_trial", "run_nowhere_density_probe",
                                  "distance_to_uncontrollability")),
    "cli": (cli, ("main",)),
    "sample": (sample, ("stream", "sample_ph", "sample_pht", "sample_uncontrollable",
                        "perturb")),
    "core": (core, ("PHTSystem", "validate_ph", "validate_pht", "system_from_dict",
                    "system_matrix")),
    "vectorize": (vectorize, ("pack", "unpack")),
    "ctrb": (ctrb, ("kalman_matrix", "rank_svd", "pbh_check", "minors_order_n",
                    "canonical_witness")),
    "kernel": (np.linalg, ("svd", "eigvalsh", "eigvals", "det", "norm")),
}
PHCTRL_MODULES = (phctrl, core, sample, ctrb, vectorize, experiments, cli)
ROOT = "root.unit"
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)
BYTES_COUNTED = ("kernel.svd", "kernel.eigvalsh", "kernel.eigvals", "kernel.det")
DRAWS = ("sample.sample_ph", "sample.sample_uncontrollable")


class Tracer:
    """Owns the span arrays and the patches; ``install`` and ``uninstall``
    bracket the traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.kind = array("i")
        self.parent = array("q")
        self.unit_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._unit = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, kind: int) -> int:
        sid = len(self.start)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.unit_of.append(self._unit)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def unit(self):
        """Root span around one call into the workload's entry function."""
        sid = self._open(0)
        self._unit = sid
        self.unit_of[sid] = sid
        try:
            yield
        finally:
            self._close(sid)
            self._unit = -1

    def _wrap(self, name: str, fn, observe=None):
        kind = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            sid = self._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observer(self, name: str):
        counters = self.counters
        if name in BYTES_COUNTED:
            def observe(args, result):
                counters[name + ".bytes"] += args[0].nbytes
            return observe
        field = {"sample.perturb": "halvings", "ctrb.minors_order_n": "q",
                 "experiments.distance_to_uncontrollability": "evaluations"}.get(name)
        if field is None:
            return None

        def observe(args, result):
            counters[f"{name}.{field}"] += getattr(result, field)
        return observe

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer, (module, fns) in LAYERS.items():
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if name == "core.PHTSystem":
                    cls = core.PHTSystem
                    self._patch(cls, "__post_init__",
                                self._wrap(name, cls.__post_init__))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original, self._observer(name))
                owners = (np.linalg,) if layer == "kernel" else PHCTRL_MODULES
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics; self time is a span's duration minus the time
        its child spans cover."""
        count = len(self.start)
        child = [0.0] * count
        parent = self.parent
        for i in range(count):
            if parent[i] >= 0:
                child[parent[i]] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(count):
            name = self.names[self.kind[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]

        out = {}
        for name in (ROOT, *SPAN_NAMES):
            n = calls[name]
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_us_per_call"] = (self_s[name] / n * 1e6 if n else 0.0, "us")
            out[f"{name}.self_share"] = (self_s[name] / wall, "ratio")

        draws = attempts = 0
        validate_ph = self.names.index("core.validate_ph")
        for i in range(count):
            name = self.names[self.kind[i]]
            if name in DRAWS:
                draws += 1
            elif self.kind[i] == validate_ph and parent[i] >= 0 \
                    and self.names[self.kind[parent[i]]] in DRAWS:
                attempts += 1
        c = self.counters
        out["sample.pd_retry_ratio"] = (attempts / draws if draws else 0.0, "ratio")
        perturbs = calls["sample.perturb"]
        out["sample.perturb.halvings_per_call"] = (
            c["sample.perturb.halvings"] / perturbs if perturbs else 0.0, "1/call")
        out["ctrb.minors_order_n.q_total"] = (c["ctrb.minors_order_n.q"], "count")
        out["experiments.distance.evaluations_total"] = (
            c["experiments.distance_to_uncontrollability.evaluations"], "count")
        for name in BYTES_COUNTED:
            out[f"{name}.bytes_in_computed"] = (c[name + ".bytes"], "B")
        out["tracing.accounted_share"] = (sum(self_s.values()) / wall, "ratio")
        return out

    def write_jsonl(self, path) -> None:
        """Gzipped JSON lines, one object per span; times in seconds from
        the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fp:
            for i in range(len(self.start)):
                fp.write(
                    f'{{"id":{i},"name":"{self.names[self.kind[i]]}",'
                    f'"start":{self.start[i] - t0:.9f},"end":{self.end[i] - t0:.9f},'
                    f'"parent":{self.parent[i]},"unit":{self.unit_of[i]}}}\n'
                )
