"""In-memory span recorder for the traced benchmark run.

Every span is one row ``[name, start_ns, end_ns, parent]`` (``parent`` is
the row index of the span that was open when this one started, ``-1`` at
the root).  Rows stay in memory until the run ends; :meth:`report` then
aggregates them by path into the ``{path, calls, total_ns, self_ns}``
records ``repro.telemetry.profiler.PhaseProfiler.report()`` produces, so
spans recorded inside the engines can replace the outside ones later
without touching the readers.

``start``/``stop`` match ``PhaseProfiler``'s method names on purpose:
public functions that accept a duck-typed ``profiler=`` (for example
``POSGScheduler.begin_block``) nest their own spans under ours.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._paths: list[tuple[str, ...]] = []
        self._open: list[int] = []

    def start(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._paths.append(self.path() + (name,))
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), None, parent])

    def stop(self) -> None:
        end = perf_counter_ns()
        self.spans[self._open.pop()][2] = end

    @contextmanager
    def span(self, name: str):
        self.start(name)
        try:
            yield self
        finally:
            self.stop()

    def path(self) -> tuple[str, ...]:
        """Names of the open spans, outermost first."""
        return self._paths[self._open[-1]] if self._open else ()

    def _nodes(self) -> dict[tuple[str, ...], list[int]]:
        """``path -> [calls, total_ns, children_ns]`` over the closed spans."""
        nodes: dict[tuple[str, ...], list[int]] = {}
        for path, (_, start, end, _) in zip(self._paths, self.spans):
            if end is None:
                continue
            node = nodes.setdefault(path, [0, 0, 0])
            node[0] += 1
            node[1] += end - start
            if len(path) > 1:
                nodes.setdefault(path[:-1], [0, 0, 0])[2] += end - start
        return nodes

    def seconds(self, *path: str, self_time: bool = False) -> float:
        """Total (or self) seconds of the closed spans at ``path``."""
        _, total, children = self._nodes().get(path, (0, 0, 0))
        return (total - children if self_time else total) / 1e9

    def report(self) -> dict:
        """Spans aggregated by path, in ``PhaseProfiler.report()`` shape.

        A span's self time is its duration minus the part of that interval
        its direct children cover.
        """
        if self._open:
            raise RuntimeError(f"cannot report with open spans: {self.path()!r}")
        spans = [
            {
                "path": list(path),
                "name": path[-1],
                "depth": len(path),
                "calls": calls,
                "total_ns": total,
                "self_ns": total - children,
            }
            for path, (calls, total, children) in sorted(self._nodes().items())
        ]
        root_total = sum(span["total_ns"] for span in spans if span["depth"] == 1)
        return {"total_ns": root_total, "spans": spans}
