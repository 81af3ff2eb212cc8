"""In-memory span recorder for the benchmark's traced runs.

The recorder replaces functions that are module attributes with timing
wrappers. Inside mpctrack every call between layers goes through a module
attribute or a module global, so a wrapper installed with `setattr` sees every
call; nothing under `src/` is changed. Spans stay in memory until the run ends
and the benchmark reads them.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    """One call of a wrapped function. `parent` indexes the enclosing span in
    the recorder's list (-1 at top level); `info` holds counts taken at the
    call boundary (see `Recorder.wrap`)."""
    name: str
    start: float
    end: float
    parent: int
    run: int
    step: int
    info: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collect spans for the calls of the functions it wraps.

    `run` is set by the caller before each run; `step` counts snapshots and is
    advanced by the wrapper registered with `new_step=True`. Use as a context
    manager so the original functions are restored even when a run raises.
    """

    def __init__(self):
        self.spans: list = []
        self.run = -1
        self.step = -1
        self._open: list = []
        self._patched: list = []

    def wrap(self, module, attr: str, *, new_step: bool = False,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace `module.attr` by a wrapper that records one span per call.

        `before(*args, **kwargs)` runs before the clock starts and returns a
        dict stored as the span's info; `after(info, result)` runs after the
        clock stops and may add to it. Their cost is therefore charged to the
        parent span's self time, never to the wrapped function.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        rec = self

        def wrapper(*args, **kwargs):
            if new_step:
                rec.step += 1
            info = before(*args, **kwargs) if before else None
            idx = len(rec.spans)
            parent = rec._open[-1] if rec._open else -1
            rec.spans.append(None)
            rec._open.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec._open.pop()
                rec.spans[idx] = Span(name, t0, t1, parent, rec.run, rec.step,
                                      info)
            if after:
                rec.spans[idx].info = after(info, out)
            return out

        wrapper.__wrapped__ = fn
        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def close(self) -> None:
        """Restore every wrapped function, last wrapped first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover.

    The program is single-threaded, so the children of one span run one
    after another and never overlap: the covered time is their summed
    duration.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]
