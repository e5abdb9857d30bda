"""In-memory span tracer that wraps the library's layer functions from outside.

The benchmark measures the library without changing it, so every span is
recorded by a wrapper installed over a public (or module-level) name.  A
name bound with ``from .numerics import poisson_cap`` is a second binding
of the same object, so each wrapper is installed in every loaded
``tandemq`` module that holds the original object, and on the class for
methods.  ``Tracer.installed()`` restores every binding in ``finally``.

Spans are kept in flat arrays: name, evaluation id, parent span, start,
duration and a work count.  Self time is a span's duration minus the
durations of its direct children.  A wrapped generator records one span
whose duration is the time spent inside ``next`` (its busy time), so its
parent's self time excludes the enumeration.
"""

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name, kind); kind selects the wrapper:
# "call" for functions, "method" and "static" for class attributes,
# "gen" for generator functions.  Work counts are attached in _WORK.
TARGETS = (
    ("tandemq.cli", "main", "cli.main", "call"),
    ("tandemq.queueprobs", "kt00_stationary", "queueprobs.kt00_stationary", "call"),
    ("tandemq.queueprobs", "kt00_direct", "queueprobs.kt00_direct", "call"),
    ("tandemq.queueprobs", "kt_general", "queueprobs.kt_general", "call"),
    ("tandemq.queueprobs", "kt00_gap", "queueprobs.kt00_gap", "call"),
    ("tandemq.queueprobs", "kt00_gap_relative", "queueprobs.kt00_gap_relative", "call"),
    ("tandemq.asymptotics", "decay_report", "asymptotics.decay_report", "call"),
    ("tandemq.kernels", "queue_kernel_sum", "kernels.queue_kernel_sum", "call"),
    ("tandemq.kernels", "departure_to_chamber_support", "kernels.departure_to_chamber_support", "call"),
    ("tandemq.kernels", "departure_kernel", "kernels.departure_kernel", "call"),
    ("tandemq.kernels", "window_weight", "kernels.window_weight", "call"),
    ("tandemq.kernels", "noncrossing_prob", "kernels.noncrossing_prob", "call"),
    ("tandemq.lattice", "survival_probability", "lattice.survival_probability", "call"),
    ("tandemq.lattice", "chain_sum", "lattice.chain_sum", "call"),
    ("tandemq.lattice", "ordered_tuples", "lattice.ordered_tuples", "gen"),
    ("tandemq.lattice", "grow_weighted_box", "lattice.grow_weighted_box", "call"),
    ("tandemq.lattice", "DetStackAccumulator.logdet", "lattice.DetStackAccumulator.logdet", "static"),
    ("tandemq.numerics", "Numerics.poisson_pmf_table", "numerics.poisson_pmf_table", "method"),
    ("tandemq.numerics", "Numerics.poisson_sf", "numerics.poisson_sf", "method"),
    ("tandemq.numerics", "poisson_cap", "numerics.poisson_cap", "call"),
    ("tandemq.linalg", "det", "linalg.det", "call"),
    ("tandemq.symfunc", "window_e", "symfunc.window_e", "call"),
    ("tandemq.symfunc", "window_h", "symfunc.window_h", "call"),
    ("tandemq.symfunc", "window_h_table", "symfunc.window_h_table", "call"),
    ("tandemq.simulator", "simulate_queue_prob", "simulator.simulate_queue_prob", "call"),
    ("tandemq.simulator", "simulate_noncrossing", "simulator.simulate_noncrossing", "call"),
    ("tandemq.simulator", "uniformization_kt", "simulator.uniformization_kt", "call"),
    ("tandemq.simulator", "_queue_block", "simulator.block", "call"),
    ("tandemq.simulator", "_noncross_block", "simulator.block", "call"),
)

# Calls made in precision="high" get their own span name (suffix ".high")
# so their time can be reported apart; each entry tells high calls by
# their arguments.
HIGH = {
    "numerics.poisson_pmf_table": lambda args: args[0].high,
    "lattice.chain_sum": lambda args: args[1].high,
}


def _chain_cells(args, kwargs, result):
    tables = args[0]
    return len(tables) * len(tables[-1])


def _pmf_entries(args, kwargs, result):
    return len(result)


def _logdet_dets(args, kwargs, result):
    return len(result[0])


def _support_points(args, kwargs, result):
    return len(result)


def _h_entries(args, kwargs, result):
    return len(result)


def _reps(args, kwargs, result):
    return result.replications


_WORK = {
    "lattice.chain_sum": _chain_cells,
    "numerics.poisson_pmf_table": _pmf_entries,
    "lattice.DetStackAccumulator.logdet": _logdet_dets,
    "kernels.departure_to_chamber_support": _support_points,
    "symfunc.window_h_table": _h_entries,
    "simulator.simulate_queue_prob": _reps,
    "simulator.simulate_noncrossing": _reps,
}


class Tracer:
    """Records spans of wrapped library calls, tagged with an evaluation id."""

    def __init__(self):
        self.names = []
        self._nid = {}
        self.name = array("i")
        self.eval = array("i")
        self.parent = array("i")
        self.dur = array("d")
        self.work = array("d")
        self._start = array("d")
        self._stack = []
        self.eval_id = -1
        # (metric, eval id) -> value, for counts that are not one span's work
        self.counters = {}
        self.missing = []
        self._patches = []

    # -- span recording -----------------------------------------------------

    def nid(self, name):
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
        return self._nid[name]

    def _open(self, nid, push=True):
        i = len(self.name)
        self.name.append(nid)
        self.eval.append(self.eval_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.dur.append(0.0)
        self.work.append(0.0)
        self._start.append(perf_counter())
        if push:
            self._stack.append(i)
        return i

    def _close(self, i):
        self.dur[i] = perf_counter() - self._start[i]
        self._stack.pop()

    def count(self, metric, value):
        key = (metric, self.eval_id)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def parent_name(self):
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, fn, span):
        nid = self.nid(span)
        is_high = HIGH.get(span)
        high_nid = self.nid(span + ".high") if is_high else None
        work = _WORK.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(high_nid if is_high and is_high(args) else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if work is not None:
                tracer.work[i] = work(args, kwargs, result)
            tracer._after(span, args, result)
            return result

        return wrapper

    def _after(self, span, args, result):
        """Counts that need the caller's context or an extra computation,
        taken after the span has closed (the counting costs microseconds)."""
        if span == "numerics.poisson_cap":
            if self.parent_name() == "simulator.uniformization_kt":
                # uniformization multiplies the vector once per Poisson term 0..cap
                self.count("simulator.uniformization_kt.matvecs", result[0] + 1)
        elif span == "lattice.grow_weighted_box":
            lattice = sys.modules["tandemq.lattice"]
            count_fn = getattr(lattice, "count_ordered_tuples", None)
            if count_fn is not None:
                self.count("lattice.grow_weighted_box.box_points", count_fn(args[0], result[0]))

    def _wrap_gen(self, fn, span):
        nid = self.nid(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # not pushed: the consumer runs between next() calls
            i = tracer._open(nid, push=False)
            gen = fn(*args, **kwargs)

            def timed():
                busy, points = 0.0, 0
                try:
                    while True:
                        t0 = perf_counter()
                        try:
                            item = next(gen)
                        except StopIteration:
                            busy += perf_counter() - t0
                            return
                        busy += perf_counter() - t0
                        points += 1
                        yield item
                finally:
                    tracer.dur[i] = busy
                    tracer.work[i] = points

            return timed()

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        for modname, attr, span, kind in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(mod, clsname, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                raw = vars(cls)[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap_call(fn, span)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(wrapped) if kind == "static" else wrapped)
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = (self._wrap_gen if kind == "gen" else self._wrap_call)(original, span)
            for owner, name in _bindings(original):
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapped)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis -----------------------------------------------------------

    def spans(self):
        """Arrays (name, eval, dur, self, work) over every recorded span."""
        name = np.asarray(self.name, dtype=np.int64)
        ev = np.asarray(self.eval, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.dur, dtype=float)
        work = np.asarray(self.work, dtype=float)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return name, ev, dur, dur - child, work


def patch_snapshot():
    """Every attribute of the loaded tandemq modules and every patched class
    attribute, for checking that the tracer restored them."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "tandemq" or modname.startswith("tandemq.")):
            snap.update({(modname, attr): val for attr, val in vars(mod).items()})
    for modname, attr, _, _ in TARGETS:
        clsname, _, meth = attr.partition(".")
        cls = getattr(sys.modules.get(modname), clsname, None)
        if meth and cls is not None and meth in vars(cls):
            snap[(modname, attr)] = vars(cls)[meth]
    return snap


def _bindings(obj):
    """Every (module, attribute) of a loaded tandemq module bound to obj."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "tandemq" or modname.startswith("tandemq.")):
            out.extend((mod, attr) for attr, val in list(vars(mod).items()) if val is obj)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric, unit, statistic, span names).  The statistic is the span count
# ("calls"), summed self time ("self"), summed duration ("total"), summed
# work count ("work"), or a Tracer.count counter ("counter").
PMF = ("numerics.poisson_pmf_table", "numerics.poisson_pmf_table.high")
CHAIN = ("lattice.chain_sum", "lattice.chain_sum.high")
LAYER_METRICS = (
    ("lattice.chain_sum.calls", "count", "calls", CHAIN),
    ("lattice.chain_sum.cells", "count", "work", CHAIN),
    ("lattice.chain_sum.self_s", "s", "self", CHAIN),
    ("lattice.chain_sum.high_s", "s", "self", ("lattice.chain_sum.high",)),
    ("lattice.survival_probability.calls", "count", "calls", ("lattice.survival_probability",)),
    ("lattice.survival_probability.self_s", "s", "self", ("lattice.survival_probability",)),
    ("numerics.poisson_pmf_table.calls", "count", "calls", PMF),
    ("numerics.poisson_pmf_table.entries", "count", "work", PMF),
    ("numerics.poisson_pmf_table.self_s", "s", "self", PMF),
    ("numerics.poisson_pmf_table.high_s", "s", "self", ("numerics.poisson_pmf_table.high",)),
    ("numerics.poisson_sf.calls", "count", "calls", ("numerics.poisson_sf",)),
    ("numerics.poisson_sf.self_s", "s", "self", ("numerics.poisson_sf",)),
    ("numerics.poisson_cap.calls", "count", "calls", ("numerics.poisson_cap",)),
    ("queueprobs.kt00_gap.calls", "count", "calls", ("queueprobs.kt00_gap",)),
    ("queueprobs.kt00_gap_relative.total_s", "s", "total", ("queueprobs.kt00_gap_relative",)),
    ("asymptotics.decay_report.total_s", "s", "total", ("asymptotics.decay_report",)),
    ("lattice.ordered_tuples.points", "count", "work", ("lattice.ordered_tuples",)),
    ("lattice.ordered_tuples.self_s", "s", "self", ("lattice.ordered_tuples",)),
    ("lattice.DetStackAccumulator.logdet.dets", "count", "work", ("lattice.DetStackAccumulator.logdet",)),
    ("lattice.DetStackAccumulator.logdet.self_s", "s", "self", ("lattice.DetStackAccumulator.logdet",)),
    ("lattice.grow_weighted_box.calls", "count", "calls", ("lattice.grow_weighted_box",)),
    ("lattice.grow_weighted_box.box_points", "count", "counter", ("lattice.grow_weighted_box.box_points",)),
    ("lattice.grow_weighted_box.self_s", "s", "self", ("lattice.grow_weighted_box",)),
    ("kernels.queue_kernel_sum.calls", "count", "calls", ("kernels.queue_kernel_sum",)),
    ("kernels.queue_kernel_sum.self_s", "s", "self", ("kernels.queue_kernel_sum",)),
    ("kernels.departure_to_chamber_support.calls", "count", "calls", ("kernels.departure_to_chamber_support",)),
    ("kernels.departure_to_chamber_support.points", "count", "work", ("kernels.departure_to_chamber_support",)),
    ("kernels.departure_to_chamber_support.total_s", "s", "total", ("kernels.departure_to_chamber_support",)),
    ("linalg.det.calls", "count", "calls", ("linalg.det",)),
    ("linalg.det.self_s", "s", "self", ("linalg.det",)),
    ("symfunc.window_e.calls", "count", "calls", ("symfunc.window_e",)),
    ("symfunc.window_e.self_s", "s", "self", ("symfunc.window_e",)),
    ("kernels.departure_kernel.calls", "count", "calls", ("kernels.departure_kernel",)),
    ("kernels.departure_kernel.total_s", "s", "total", ("kernels.departure_kernel",)),
    ("kernels.window_weight.calls", "count", "calls", ("kernels.window_weight",)),
    ("kernels.window_weight.self_s", "s", "self", ("kernels.window_weight",)),
    ("symfunc.window_h.calls", "count", "calls", ("symfunc.window_h",)),
    ("symfunc.window_h.self_s", "s", "self", ("symfunc.window_h",)),
    ("symfunc.window_h_table.entries", "count", "work", ("symfunc.window_h_table",)),
    ("kernels.noncrossing_prob.calls", "count", "calls", ("kernels.noncrossing_prob",)),
    ("kernels.noncrossing_prob.total_s", "s", "total", ("kernels.noncrossing_prob",)),
    ("queueprobs.kt00_stationary.total_s", "s", "total", ("queueprobs.kt00_stationary",)),
    ("queueprobs.kt00_direct.total_s", "s", "total", ("queueprobs.kt00_direct",)),
    ("queueprobs.kt_general.total_s", "s", "total", ("queueprobs.kt_general",)),
    ("cli.main.calls", "count", "calls", ("cli.main",)),
    ("cli.main.self_s", "s", "self", ("cli.main",)),
    ("simulator.simulate_queue_prob.total_s", "s", "total", ("simulator.simulate_queue_prob",)),
    ("simulator.simulate_noncrossing.total_s", "s", "total", ("simulator.simulate_noncrossing",)),
    ("simulator.uniformization_kt.total_s", "s", "total", ("simulator.uniformization_kt",)),
    ("simulator.reps", "count", "work", ("simulator.simulate_queue_prob", "simulator.simulate_noncrossing")),
    ("simulator.blocks", "count", "calls", ("simulator.block",)),
    ("simulator.uniformization_kt.matvecs", "count", "counter", ("simulator.uniformization_kt.matvecs",)),
)
OVERHEAD = ("trace.overhead_s", "s")


def _layer_values(tracer, arrays, select):
    """Every LAYER_METRICS value over the spans where select (a boolean
    mask over spans, or a set of eval ids for counters) holds."""
    name, ev, dur, self_t, work = arrays
    mask, eval_ids = select
    out = {}
    for metric, unit, stat, spans in LAYER_METRICS:
        if stat == "counter":
            value = sum(v for (m, e), v in tracer.counters.items() if m == spans[0] and e in eval_ids)
        else:
            m = mask & np.isin(name, [tracer.nid(s) for s in spans])
            value = float(m.sum() if stat == "calls" else {"self": self_t, "total": dur, "work": work}[stat][m].sum())
        out[metric] = {"value": value, "unit": unit}
    return out


def per_layer(tracer, evals, batches):
    """Per-layer metrics per traced batch, as the median over batches."""
    arrays = tracer.spans()
    ev = arrays[1]
    n = len(evals)
    per_batch = []
    for b in range(len(batches)):
        ids = set(range(b * n, (b + 1) * n))
        per_batch.append(_layer_values(tracer, arrays, ((ev >= b * n) & (ev < (b + 1) * n), ids)))
    return {
        metric: {"value": float(np.median([pb[metric]["value"] for pb in per_batch])), "unit": unit}
        for metric, unit, _, _ in LAYER_METRICS
    }


def by_group(tracer, evals):
    """Nonzero per-layer values of the first traced batch, split by the
    evaluation group (station count N, and route or precision), with the
    t range of the group."""
    arrays = tracer.spans()
    ev = arrays[1]
    groups = {}
    for i, e in enumerate(evals):
        groups.setdefault(e.group, []).append(i)
    rows = []
    for group, idx in groups.items():
        values = _layer_values(tracer, arrays, (np.isin(ev, idx), set(idx)))
        rows.append(
            {
                "group": group,
                "N": sorted({evals[i].n for i in idx}),
                "t_range": [min(evals[i].t for i in idx), max(evals[i].t for i in idx)],
                "evaluations": len(idx),
                "metrics": {k: v["value"] for k, v in values.items() if v["value"]},
            }
        )
    return rows
