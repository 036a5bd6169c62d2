"""Outside-in span tracing of the trunclc layers.

Nothing in the package is edited: the tracer swaps, for the duration of a
``with installed(tracer):`` block, the module attributes through which the
layers call each other (``truncate``, ``log_interval_mass``,
``ds_sample_batch``, ``its_sample_batch``, ``build_descriptor``, the
diagnostics entry points, the incomplete-gamma helpers and the CLI's
``main``), wraps every
descriptor callable through ``dataclasses.replace``, and hands out
``RngStream`` objects whose ``generator`` is a timing proxy.  Each wrapper
forwards its arguments unchanged, so a traced run draws exactly the
variates an untraced run draws.

Spans (name, start, end, parent, points) live in flat arrays until the run
ends; :meth:`Tracer.summary` folds them into additive sums and
:func:`layer_metrics` turns sums into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
from array import array
from time import perf_counter

import numpy as np

import trunclc.cli
from trunclc import core, devroye, diagnostics, families, reference
from workloads import acceptance_theory


class Tracer:
    """In-memory span store; one span per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self._stack = [-1]
        self.active = False
        self.proposals = 0
        self.accepts = 0
        self.expected_accepts = 0.0
        self.bytes_out = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, points_arg=None, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``points_arg`` is the position of the argument whose size counts as
        the span's points; a ``size`` keyword (random draws) takes precedence.
        The wrapper records only while the tracer is active (inside
        :func:`installed`); otherwise it calls ``fn`` and nothing else, so
        descriptors and streams made in a traced call cost nothing later.
        """
        nid = self._id(name)
        stack = self._stack
        name_ids, parents, starts, ends, points = (
            self.name_id, self.parent, self.start, self.end, self.points)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            pts = 0
            if points_arg is not None:
                pts = kwargs.get("size") or (
                    getattr(args[points_arg], "size", 1) if len(args) > points_arg else 1)
            points.append(pts)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if on_result is not None:
                on_result(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- wrappers for the objects the layers pass around -------------------

    def descriptor(self, desc):
        """The descriptor with every callable wrapped (``dataclasses.replace``)."""
        if getattr(desc.log_pdf, "__wrapped__", None) is not None:
            return desc
        changes = {
            "log_pdf": self.wrap("families.log_pdf", desc.log_pdf, points_arg=0),
            "log_cdf": self.wrap("families.tail", desc.log_cdf, points_arg=0),
            "log_sf": self.wrap("families.tail", desc.log_sf, points_arg=0),
        }
        if desc.quantile is not None:
            changes["quantile"] = self.wrap("families.quantile", desc.quantile,
                                            points_arg=0)
        return dataclasses.replace(desc, **changes)

    def rng_stream(self, seed=0, *, _seq=None):
        return TracedRngStream(self, seed, _seq=_seq)

    def _record_batch(self, args, batch):
        target = args[0]
        self.proposals += batch.proposals
        self.accepts += batch.accepts
        self.expected_accepts += acceptance_theory(target) * batch.proposals

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "points": np.frombuffer(self.points, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Additive sums per span name: calls, total, self time, points."""
        a = self.arrays()
        names = list(a["names"])
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)[: dur.size]
        self_time = dur - child
        pname = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        # a span nested in one of its own name (memorylessness_check calling
        # chi_square_gof) is already inside its parent's total
        outer = pname != nid
        k = len(names)
        out = {
            "total_s": dict(zip(names, np.bincount(nid[outer], weights=dur[outer],
                                                   minlength=k).tolist())),
            "self_s": dict(zip(names, np.bincount(nid, weights=self_time, minlength=k).tolist())),
            "calls": dict(zip(names, np.bincount(nid, minlength=k).tolist())),
            "points": dict(zip(names, np.bincount(nid, weights=a["points"], minlength=k).tolist())),
        }
        # parent-child call counts that the per-layer metrics need
        idx = self._ids
        rounds = classify = 0
        if "families.log_pdf" in idx and "devroye.batch" in idx:
            rounds = int(np.sum((nid == idx["families.log_pdf"]) & (pname == idx["devroye.batch"])))
        if "core.truncate" in idx and "diagnostics.scan" in idx:
            classify = int(np.sum((nid == idx["core.truncate"]) & (pname == idx["diagnostics.scan"])))
        out["counts"] = {
            "devroye.rounds": rounds,
            "diagnostics.classify_calls": classify,
            "devroye.proposals": self.proposals,
            "devroye.accepts": self.accepts,
            "devroye.expected_accepts": self.expected_accepts,
            "cli.bytes_out": self.bytes_out,
        }
        return out


class TracedRngStream(devroye.RngStream):
    """``RngStream`` whose generator times every draw as ``devroye.rng``."""

    def __init__(self, tracer: Tracer, seed=0, *, _seq=None):
        super().__init__(seed, _seq=_seq)
        self.tracer = tracer
        self.generator = _GeneratorProxy(self.generator, tracer)

    def spawn(self, n):
        return [TracedRngStream(self.tracer, _seq=s) for s in self.seed_sequence.spawn(n)]


class _GeneratorProxy:
    """Forwards to a ``numpy.random.Generator``, timing each draw."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer
        for name in ("random", "uniform", "standard_exponential"):
            setattr(self, name, tracer.wrap("devroye.rng", getattr(gen, name),
                                            points_arg=0))

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if callable(attr):
            return self._tracer.wrap("devroye.rng", attr, points_arg=0)
        return attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap traced wrappers into the package's module attributes and record
    spans; restore the attributes and stop recording on exit."""
    build = families.build_descriptor

    def traced_build(*args, **kwargs):
        return tracer.descriptor(build(*args, **kwargs))

    truncate = tracer.wrap("core.truncate", core.truncate)

    def truncate_traced(desc, *args, **kwargs):
        return truncate(tracer.descriptor(desc), *args, **kwargs)

    batch = tracer.wrap("devroye.batch", devroye.ds_sample_batch,
                        on_result=tracer._record_batch)
    its = tracer.wrap("reference.its", reference.its_sample_batch)
    gamma_upper = tracer.wrap("logspace.gamma_reg", families.log_gamma_upper_reg)
    gamma_lower = tracer.wrap("logspace.gamma_reg", families.log_gamma_lower_reg)
    scan = tracer.wrap("diagnostics.scan", diagnostics.scan_safety)
    oracle = tracer.wrap("diagnostics.oracle", diagnostics.truncated_mean_oracle)
    stat = {name: tracer.wrap("diagnostics.stat_test", getattr(diagnostics, name))
            for name in ("z_test_mean", "chi_square_gof", "exp_tail_qq",
                         "memorylessness_check")}
    patches = [
        (core, "log_interval_mass", tracer.wrap("core.log_interval_mass", core.log_interval_mass)),
        (core, "truncate", truncate_traced),
        (core.TruncatedTarget, "cdf",
         tracer.wrap("core.cdf", core.TruncatedTarget.cdf, points_arg=1)),
        (families, "build_descriptor", traced_build),
        (families, "log_gamma_upper_reg", gamma_upper),
        (families, "log_gamma_lower_reg", gamma_lower),
        (devroye, "truncate", truncate_traced),
        (devroye, "ds_sample_batch", batch),
        (reference, "truncate", truncate_traced),
        (reference, "its_sample_batch", its),
        (diagnostics, "truncate", truncate_traced),
        (diagnostics, "build_descriptor", traced_build),
        (diagnostics, "ds_sample_batch", batch),
        (diagnostics, "its_sample_batch", its),
        (diagnostics, "RngStream", tracer.rng_stream),
        (diagnostics, "scan_safety", scan),
        (diagnostics, "truncated_mean_oracle", oracle),
        *((diagnostics, name, fn) for name, fn in stat.items()),
        (trunclc.cli, "main", tracer.wrap("cli.main", trunclc.cli.main)),
        (trunclc.cli, "truncate", truncate_traced),
        (trunclc.cli, "build_descriptor", traced_build),
        (trunclc.cli, "ds_sample_batch", batch),
        (trunclc.cli, "its_sample_batch", its),
        (trunclc.cli, "RngStream", tracer.rng_stream),
        (trunclc.cli, "scan_safety", scan),
        (trunclc.cli, "truncated_mean_oracle", oracle),
        *((trunclc.cli, name, fn) for name, fn in stat.items() if hasattr(trunclc.cli, name)),
    ]
    saved = [(obj, name, obj.__dict__[name]) for obj, name, _ in patches]
    try:
        for obj, name, fn in patches:
            setattr(obj, name, fn)
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for obj, name, fn in saved:
            setattr(obj, name, fn)


def layer_metrics(summary: dict, passes: int) -> dict:
    """Per-layer metrics (per traced pass) from a summed span summary."""
    tot, self_, calls, pts = (summary.get(k, {}) for k in ("total_s", "self_s", "calls", "points"))
    counts = summary.get("counts", {})

    def ms(section, name):
        return 1e3 * section.get(name, 0.0) / passes

    def per_point(name, scale):
        n = pts.get(name, 0)
        return scale * tot.get(name, 0.0) / n if n else 0.0

    proposals = counts.get("devroye.proposals", 0)
    expected = counts.get("devroye.expected_accepts", 0.0)
    return {
        "families.log_pdf_ms": (ms(tot, "families.log_pdf"), "ms"),
        "families.log_pdf_ns_per_point": (per_point("families.log_pdf", 1e9), "ns"),
        "families.tail_ms": (ms(tot, "families.tail"), "ms"),
        "devroye.rng_ms": (ms(tot, "devroye.rng"), "ms"),
        "devroye.self_ms": (ms(self_, "devroye.batch"), "ms"),
        "devroye.acceptance": (counts.get("devroye.accepts", 0) / proposals if proposals else 0.0, "ratio"),
        "devroye.acceptance_vs_theory": (counts.get("devroye.accepts", 0) / expected if expected else 0.0, "ratio"),
        "devroye.rounds": (counts.get("devroye.rounds", 0) / passes, "count"),
        "devroye.batches": (calls.get("devroye.batch", 0) / passes, "count"),
        "core.truncate_ms": (ms(tot, "core.truncate"), "ms"),
        "core.truncate_calls": (calls.get("core.truncate", 0) / passes, "count"),
        "core.log_interval_mass_calls": (calls.get("core.log_interval_mass", 0) / passes, "count"),
        "core.cdf_us_per_point": (per_point("core.cdf", 1e6), "us"),
        "logspace.gamma_reg_ms": (ms(tot, "logspace.gamma_reg"), "ms"),
        "reference.its_ms": (ms(tot, "reference.its"), "ms"),
        "diagnostics.classify_calls": (counts.get("diagnostics.classify_calls", 0) / passes, "count"),
        "diagnostics.self_ms": (sum(ms(self_, n) for n in self_ if n.startswith("diagnostics.")), "ms"),
        "diagnostics.oracle_ms": (ms(tot, "diagnostics.oracle"), "ms"),
        "diagnostics.stat_test_ms": (ms(tot, "diagnostics.stat_test"), "ms"),
        "cli.format_ms": (ms(self_, "cli.main"), "ms"),
        "cli.bytes_out": (counts.get("cli.bytes_out", 0) / passes, "bytes"),
    }
