"""In-memory span tracing around the public callables of each conftorus layer.

A span is recorded for every call of a wrapped callable: which callable, the
span open when it started (its parent), start and end times, and a small tag
read from the arguments or the result through public attributes.  Spans stay
in a list until the traced pass ends; :meth:`Tracer.write` then dumps them.

Functions are wrapped in every ``conftorus`` module namespace that holds
them, because ``from .linalg import rank_of_rows`` copies the binding:
wrapping only the defining module would miss calls made through the
importing one.  Methods are wrapped on their class, which all namespaces
share.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("gcalg", "linalg", "specseq", "series", "oracle")


@dataclass(frozen=True)
class Target:
    """One wrapped callable; ``owner`` is ``module`` or ``module:Class``."""

    layer: str
    owner: str
    name: str
    tag: Callable | None = None  # (args, result) -> value kept on the span

    @property
    def key(self):
        module, _, cls = self.owner.partition(":")
        return ".".join(filter(None, (module.split(".")[-1], cls, self.name)))


TARGETS = {
    t.key: t
    for t in (
        Target("gcalg", "conftorus.gcalg:BidegreeSpace", "__init__",
               lambda a, out: (a[0].n, a[0].free_dim, a[0].dim)),
        Target("gcalg", "conftorus.gcalg:BidegreeSpace", "reduce"),
        Target("gcalg", "conftorus.gcalg:BidegreeSpace", "reduce_mask"),
        Target("gcalg", "conftorus.gcalg", "differential"),
        Target("gcalg", "conftorus.gcalg", "sn_act"),
        Target("gcalg", "conftorus.gcalg", "symmetrize"),
        Target("gcalg", "conftorus.gcalg", "multiply"),
        Target("linalg", "conftorus.linalg", "kernel_of_columns", lambda a, out: a[1]),
        Target("linalg", "conftorus.linalg", "rank_of_rows", lambda a, out: len(a[0])),
        Target("specseq", "conftorus.specseq:SpectralEngine", "invariants",
               lambda a, out: (a[0].n, a[1], a[2], out.dim if out is not None else 0)),
        Target("specseq", "conftorus.specseq:SpectralEngine", "d_rank", lambda a, out: out),
        Target("specseq", "conftorus.specseq:SpectralEngine", "report",
               lambda a, out: (len(out.hodge), sum(out.e3_inv.values()))),
        Target("specseq", "conftorus.specseq", "verify_against_series"),
        Target("specseq", "conftorus.specseq", "purity_check"),
        Target("series", "conftorus.series", "macdonald_zeta"),
        Target("series", "conftorus.series", "cheah_zeta"),
        Target("series", "conftorus.series", "expand"),
        Target("series", "conftorus.series", "vakil_wood_conf",
               lambda a, out: len(out[-1].terms)),
        Target("series", "conftorus.series", "decode_betti"),
        Target("series", "conftorus.series", "decode_hodge"),
        Target("series", "conftorus.series", "property_checks"),
        Target("oracle", "conftorus.oracle:ArnoldAlgebra", "degree",
               lambda a, out: (a[0].n, a[1], out.dim)),
        Target("oracle", "conftorus.oracle:ArnoldAlgebra", "invariant_dim",
               lambda a, out: (a[0].n, a[1])),
        Target("oracle", "conftorus.oracle", "run_selftest"),
    )
}


class Tracer:
    """Wraps the given :data:`TARGETS` keys while used as a context manager."""

    def __init__(self, keys):
        self.targets = [TARGETS[k] for k in keys]
        self.spans = []  # [target index, parent span index, start, end, tag]
        self._stack = []
        self._restore = []
        self.start = self.end = None

    def _wrapper(self, index, orig):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag = self.targets[index].tag

        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, out)
            return out

        traced.__wrapped__ = orig
        return traced

    def __enter__(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "conftorus" or name.startswith("conftorus."))
        ]
        for index, target in enumerate(self.targets):
            module_name, _, cls_name = target.owner.partition(":")
            if cls_name:
                cls = getattr(sys.modules[module_name], cls_name)
                orig = cls.__dict__[target.name]
                setattr(cls, target.name, self._wrapper(index, orig))
                self._restore.append((cls, target.name, orig))
                continue
            orig = getattr(sys.modules[module_name], target.name)
            wrapped = self._wrapper(index, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, orig))
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    @property
    def wall_s(self):
        return self.end - self.start

    def calls(self):
        counts = dict.fromkeys((t.key for t in self.targets), 0)
        for s in self.spans:
            counts[self.targets[s[0]].key] += 1
        return counts

    def write(self, path):
        doc = {
            "targets": [{"key": t.key, "layer": t.layer} for t in self.targets],
            "wall_s": self.wall_s,
            "spans": [[s[0], s[1], s[2] - self.start, s[3] - self.start] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


_REDUCE = ("gcalg.BidegreeSpace.reduce", "gcalg.BidegreeSpace.reduce_mask")
_ELEMENT = ("gcalg.differential", "gcalg.sn_act", "gcalg.symmetrize", "gcalg.multiply")
_ARNOLD = ("oracle.ArnoldAlgebra.degree", "oracle.ArnoldAlgebra.invariant_dim")


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    A callable's time is its self time: span duration minus the durations
    of the wrapped calls made inside it.  ``*_calls`` counts calls entered
    from outside their own group (``reduce`` calling ``reduce_mask`` is one
    read of the quotient).  Sizes are summed over distinct bidegrees or
    degrees, since the engines cache them.
    """
    keys = [t.key for t in tracer.targets]
    spans = [(keys[s[0]], s[1], s[3] - s[2], s[4]) for s in tracer.spans]
    self_s = [dur for _, _, dur, _ in spans]
    for _, parent, dur, _ in spans:
        if parent >= 0:
            self_s[parent] -= dur
    calls = tracer.calls()
    by_key = defaultdict(float)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for (key, _, _, _), t in zip(spans, self_s):
        by_key[key] += t
        by_layer[TARGETS[key].layer] += t

    def time_of(*group):
        return sum(by_key[k] for k in group)

    def tags(key):
        return [tag for k, _, _, tag in spans if k == key and tag is not None]

    def outer_calls(group):
        return sum(1 for k, parent, _, _ in spans
                   if k in group and (parent < 0 or spans[parent][0] not in group))

    builds = [(tag, t) for (k, _, _, tag), t in zip(spans, self_s)
              if k == "gcalg.BidegreeSpace.__init__" and tag is not None]
    build_n = defaultdict(float)
    for (n, _, _), t in builds:
        build_n[n] += t
    quotient_dim = sum(dim for (_, _, dim), _ in builds)
    build_s = time_of("gcalg.BidegreeSpace.__init__")
    invariants = {tag[:3]: tag[3] for tag in tags("specseq.SpectralEngine.invariants")}
    reports = tags("specseq.SpectralEngine.report")
    degrees = [(tag, dur) for k, _, dur, tag in spans
               if k == "oracle.ArnoldAlgebra.degree" and tag is not None]
    wall = tracer.wall_s
    top_level = sum(dur for _, parent, dur, _ in spans if parent < 0)

    out = {
        "gcalg.build_s": (build_s, "s"),
        "gcalg.build_s.n4": (build_n[4], "s"),
        "gcalg.build_s.n5": (build_n[5], "s"),
        "gcalg.build_growth.n5_over_n4": (
            build_n[5] / build_n[4] if build_n[4] else 0.0, "ratio"),
        "gcalg.build_us_per_basis": (
            1e6 * build_s / quotient_dim if quotient_dim else 0.0, "us"),
        "gcalg.spaces_built": (len(builds), "count"),
        "gcalg.free_dim": (sum(free for (_, free, _), _ in builds), "count"),
        "gcalg.quotient_dim": (quotient_dim, "count"),
        "gcalg.reduce_s": (time_of(*_REDUCE), "s"),
        "gcalg.reduce_calls": (outer_calls(_REDUCE), "count"),
        "gcalg.element_s": (time_of(*_ELEMENT), "s"),
        "gcalg.element_calls": (outer_calls(_ELEMENT), "count"),
        "specseq.invariants_s": (time_of("specseq.SpectralEngine.invariants"), "s"),
        "specseq.d_rank_s": (time_of("specseq.SpectralEngine.d_rank"), "s"),
        "specseq.report_s": (time_of("specseq.SpectralEngine.report"), "s"),
        "specseq.invariant_dim": (sum(invariants.values()), "count"),
        "specseq.d_rank": (sum(tags("specseq.SpectralEngine.d_rank")), "count"),
        "specseq.hodge_blocks": (sum(h for h, _ in reports), "count"),
        "specseq.e3_dim": (sum(e for _, e in reports), "count"),
        "linalg.kernel_s": (time_of("linalg.kernel_of_columns"), "s"),
        "linalg.kernel_calls": (calls.get("linalg.kernel_of_columns", 0), "count"),
        "linalg.kernel_cols": (sum(tags("linalg.kernel_of_columns")), "count"),
        "linalg.rank_s": (time_of("linalg.rank_of_rows"), "s"),
        "linalg.rank_calls": (calls.get("linalg.rank_of_rows", 0), "count"),
        "linalg.rank_rows": (sum(tags("linalg.rank_of_rows")), "count"),
        "series.zeta_s": (time_of("series.macdonald_zeta", "series.cheah_zeta"), "s"),
        "series.expand_s": (time_of("series.expand"), "s"),
        "series.vakil_wood_s": (time_of("series.vakil_wood_conf"), "s"),
        "series.decode_s": (time_of("series.decode_betti", "series.decode_hodge"), "s"),
        "series.decode_calls": (
            calls.get("series.decode_betti", 0) + calls.get("series.decode_hodge", 0), "count"),
        "series.top_terms": (max(tags("series.vakil_wood_conf"), default=0), "count"),
        "series.property_checks_s": (time_of("series.property_checks"), "s"),
        "oracle.arnold_quotient_s": (time_of("oracle.ArnoldAlgebra.degree"), "s"),
        "oracle.arnold_invariant_s": (time_of("oracle.ArnoldAlgebra.invariant_dim"), "s"),
        "oracle.arnold_s.n7": (
            sum(dur for k, parent, dur, tag in spans
                if k in _ARNOLD and tag is not None and tag[0] == 7
                and (parent < 0 or spans[parent][0] not in _ARNOLD)), "s"),
        "oracle.arnold_empty_degree_s": (
            sum(dur for (_, _, dim), dur in degrees if dim == 0), "s"),
        "oracle.arnold_quotient_dim": (
            sum({tag[:2]: tag[2] for tag, _ in degrees}.values()), "count"),
        "oracle.selftest_self_s": (time_of("oracle.run_selftest"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - top_level, "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer, t in by_layer.items():
        out[f"{layer}.self_s"] = (t, "s")
    return out
