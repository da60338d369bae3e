"""Span recording around the calls the benchmark makes into smbounds.

The benchmark never edits the package: in a traced run it replaces public
module attributes (and the law classes' ``sample``) with wrappers that record
one span per call.  Spans live in compact in-memory arrays and are written out
once, when the run ends.  Everything runs in one thread, so the child spans of
a span never overlap and its self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Optional, Union

NO_PARENT = -1


class Tracer:
    """Records spans (name, start, end, parent, op id) and counters.

    Spans are recorded only while an op is open (``begin_op`` .. ``end_op``),
    so library calls the benchmark makes for its own untimed checks leave no
    spans.  A worker process holds one tracer and patches the package once.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._next_op = 0
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        code = self._name_ids.get(name)
        if code is None:
            code = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, name: str) -> int:
        """Open the root span of one op; every span until ``end_op`` shares its id."""
        self._op = self._next_op
        self._next_op += 1
        return self.open(name)

    def end_op(self, index: int) -> None:
        self.close(index)
        self._op = None

    def wrap(self, name: Union[str, Callable[[tuple], str]], fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """A stand-in for ``fn`` that records one span per call made inside an
        op.  ``name`` may be a function of the call's positional arguments;
        ``on_result(tracer, result)`` updates counters."""

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self.open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, name, on_result: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its traced stand-in for the rest of the
        process.  An entry point the package no longer has is skipped, and the
        metrics built on it read 0."""
        if hasattr(owner, attr):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    # -- summaries ----------------------------------------------------------

    def durations(self) -> tuple[list[float], list[float]]:
        """(duration, self time) of every span."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_time = list(dur)
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                self_time[p] -= dur[i]
        return dur, self_time

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_id, dtype=np.int64),
        )


def _count_sample(tracer: Tracer, result) -> None:
    tracer.counters["processes.bytes_sampled"] += result.nbytes
    tracer.counters["montecarlo.paths"] += result.shape[0]


def _count_dp(tracer: Tracer, result) -> None:
    # (absorbed by step, surviving final states, mass defect)
    if isinstance(result, tuple) and len(result) == 3:
        _, final, defect = result
        tracer.counters["oracle.final_states"] += len(final)
        tracer.maxima["oracle.mass_defect_max"] = max(
            tracer.maxima["oracle.mass_defect_max"], defect)


def install(tracer: Tracer, dp_name: Callable[[tuple], str]) -> None:
    """Wrap the public entry points of every layer the workloads call.

    ``dp_name`` maps the arguments of ``first_passage_dp`` to its span name,
    so DP time can be split by horizon tier and lattice branch.
    """
    from smbounds import bounds, cumulant, montecarlo, oracle, processes, suites

    for attr in bounds.__all__:
        if inspect.isfunction(getattr(bounds, attr)):
            tracer.patch(bounds, attr, f"bounds.{attr}")
    tracer.patch(cumulant, "minimize_tilt", "cumulant.minimize_tilt")
    for cls in (processes.TwoPointExtremal, processes.TwoPointBounded,
                processes.DriftedTwoPoint, processes.CenteredExponential):
        tracer.patch(cls, "sample", "processes.sample", _count_sample)
    tracer.patch(montecarlo, "event_hits", "processes.event_hits")
    tracer.patch(montecarlo, "clopper_pearson", "montecarlo.clopper_pearson")
    tracer.patch(oracle, "first_passage_dp", dp_name, _count_dp)
    tracer.patch(suites, "applicable_checks", "suites.applicable_checks")
