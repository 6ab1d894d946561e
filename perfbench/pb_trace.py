"""In-memory span recording for the benchmark's traced run.

Spans are recorded only from the benchmark's own files: around the
benchmark's direct calls, and by temporarily wrapping public functions
and methods of the program (:meth:`Tracer.wrap`) for the length of a
traced phase. Nothing inside ``src/`` is edited; :meth:`Tracer.restore`
puts every original back.

A span is ``[id, parent, name, layer, start, end, tag]``. Spans of one
run share the tracer; all of them are written out when the run ends.
Counts (cache hits, broker polls, ...) are taken from the spans.
A layer's self time is its spans' durations minus the parts their child
spans cover, so the self times of every layer sum to the root span.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

perf_counter = time.perf_counter


class Tracer:
    """Records nested spans; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str, layer: str, tag: object) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [len(self.spans), parent, name, layer, perf_counter(), 0.0, tag]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str, tag: object = None) -> Iterator[list]:
        span = self._open(name, layer, tag)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        tag: Callable[[tuple, object], object] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning pass-through until restore.

        ``tag(args, result)`` may derive the span's tag from the call's
        arguments and result (for instance a cell's mechanism).
        """
        original = getattr(owner, attr)
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def traced(*args, **kwargs):  # type: ignore[no-untyped-def]
            span = tracer._open(name, layer, None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if tag is not None:
                span[6] = tag(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[2] == name]

    def self_durations(self) -> list[float]:
        """Per span (by id): its duration minus its children's."""
        own = [s[5] - s[4] for s in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                own[span[1]] -= span[5] - span[4]
        return own

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: the self durations of the layer's spans."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_durations()):
            out[span[3]] = out.get(span[3], 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "parent", "name", "layer", "start", "end", "tag"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, default=str))


class NullTracer(Tracer):
    """Tracing off: spans cost one no-op context manager, nothing recorded."""

    @contextmanager
    def span(self, name: str, layer: str, tag: object = None) -> Iterator[list]:
        yield []
