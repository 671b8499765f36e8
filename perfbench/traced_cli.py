"""Run the ``harr`` command line in this process with a span around every
public harr function that the CLI's modules call across a module boundary.

    python3 perfbench/traced_cli.py SPANS.json cluster --data ... --k 5 ...

Functions are replaced in the namespaces of ``harr.cli``, ``harr.bench``
and ``harr.cluster``, which is where the program looks them up, so the
program itself is unchanged. ``harr.bench.load_dataset`` is wrapped too,
because ``cmd_cluster`` reaches the schema layer through it. Spans stay in
memory and are written to SPANS.json when the command returns. Each span
records its thread; a span opened on a pool thread with nothing open on
that thread gets the main thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

ROOT_ID = 0


class Recorder:
    """Collects spans; shared by every wrapper and safe across threads
    (``list.append`` and ``next`` on a counter are atomic in CPython)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(ROOT_ID + 1)
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, describe=None):
        """Wrap ``fn`` so each call records a span. ``describe(args, kwargs,
        result)`` adds attributes read from the call's public inputs and
        result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else ROOT_ID
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = describe(args, kwargs, result) if describe else {}
            self.spans.append(
                {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "thread": threading.get_ident(),
                    "start": start,
                    "end": end,
                    "attrs": attrs,
                }
            )
            return result

        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append(
            {
                "id": next(self._ids),
                "parent": ROOT_ID,
                "name": name,
                "thread": threading.get_ident(),
                "start": start,
                "end": end,
                "attrs": {},
            }
        )


def _describe_run(args, kwargs, report):
    return {
        "variant": report.variant,
        "seed": report.seed,
        "inner_iterations": report.inner_iterations,
    }


def _describe_reconstruct(args, kwargs, space):
    # Computed, not measured: the value-by-value distance tables the engine
    # derives from this space hold v*v float64 entries per sub-attribute.
    return {
        "d_hat": space.d_hat,
        "table_bytes": sum(sub.v * sub.v * 8 for sub in space.sub_attributes),
    }


def _describe_save(args, kwargs, path):
    return {"path": path, "bytes": os.path.getsize(path)}


DESCRIBE = {
    "cluster.run_prepared": _describe_run,
    "projection.reconstruct": _describe_reconstruct,
    "report.save_report": _describe_save,
    "report.save_timings": _describe_save,
    "report.save_summary": _describe_save,
}


def instrument(recorder: Recorder, modules) -> None:
    """Replace, in each module's namespace, every public function imported
    from another harr module (plus ``bench.load_dataset``) by a wrapper."""
    wrapped: dict[int, object] = {}
    for module in modules:
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            own = fn.__module__ == module.__name__
            if own and (module.__name__, attr) != ("harr.bench", "load_dataset"):
                continue
            if not fn.__module__.startswith("harr."):
                continue
            if id(fn) not in wrapped:
                name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
                wrapped[id(fn)] = recorder.span(name, fn, DESCRIBE.get(name))
            setattr(module, attr, wrapped[id(fn)])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    start = time.perf_counter()
    import harr.cli

    recorder.record("cli.import", start, time.perf_counter())
    import harr.bench
    import harr.cluster

    instrument(recorder, (harr.cli, harr.bench, harr.cluster))
    code = recorder.span("cli.main", harr.cli.main)(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
