"""In-memory span tracer wrapped around the public functions of cvsteer.

The tracer lives entirely in the benchmark: it replaces every public
function of the instrumented modules with a timing wrapper, and rebinds
every name in every loaded ``cvsteer`` module that refers to the original.
That rebinding matters because ``cli``, ``protocol`` and ``optimize`` import
``ppt_min``, ``steerability`` and ``build_network_state`` by name, so
patching only the defining module would miss their calls.

A span is (name, start, end, parent span, request id, ok).  Spans are only
recorded while a request is open; calls made by the benchmark's own
correctness gates, outside any request, pass straight through.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import zipfile
from array import array

import numpy as np

LAYER_MODULES = ("core", "criteria", "protocol", "optimize", "sampler", "cli")

#: Method wrapped besides the module-level functions: every state built.
STATE_NEW = "core.GaussianState.__post_init__"


def _build_stage(args, kwargs, result):
    return kwargs.get("stage", args[1] if len(args) > 1 else None)


def _text_bytes(args, kwargs, result):
    return len(result.encode())


def _shot_bytes(args, kwargs, result):
    # computed from the array shape (shots x 2n float64), not measured
    return result.quads.shape[0] * result.quads.shape[1] * 8


#: Span name -> function of (args, kwargs, result) giving a note to keep.
NOTES = {
    "protocol.build_network_state": _build_stage,
    "cli.format_scan_csv": _text_bytes,
    "cli.format_scan_json": _text_bytes,
    "cli.format_report_json": _text_bytes,
    "sampler.simulate_shots": _shot_bytes,
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._originals: dict[object, object] = {}  # original -> wrapper
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans (names and wrappers stay)."""
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request_of = array("l")
        self.ok = array("b")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self.request = -1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_of.append(self.request)
        self.ok.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self.end[idx] = time.perf_counter()
        self.ok[idx] = ok
        self._stack.pop()

    def begin_request(self, request_id: int, name: str) -> None:
        """Open the root span of one request; wrapped calls nest under it."""
        self.request = request_id
        self._root = self._open(self._intern(name))

    def end_request(self, ok: bool) -> None:
        self._close(self._root, ok)
        self.request = -1

    def _wrap(self, name: str, fn):
        name_id = self._intern(name)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request < 0:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, False)
                raise
            self._close(idx, True)
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def targets(self) -> list[tuple[str, object]]:
        """(span name, original function) for every instrumented callable."""
        out = []
        for short in LAYER_MODULES:
            module = sys.modules[f"cvsteer.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    out.append((f"{short}.{attr}", obj))
        state_cls = sys.modules["cvsteer.core"].GaussianState
        out.append((STATE_NEW, vars(state_cls)["__post_init__"]))
        return out

    def _bindings(self):
        """(holder, attribute, value) for every name in the loaded cvsteer modules."""
        state_cls = sys.modules["cvsteer.core"].GaussianState
        holders = [m for n, m in list(sys.modules.items())
                   if n == "cvsteer" or n.startswith("cvsteer.")] + [state_cls]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if _hashable(obj):
                    yield holder, attr, obj

    def install(self) -> None:
        if self._patched:
            return
        if not self._originals:
            self._originals = {fn: self._wrap(name, fn) for name, fn in self.targets()}
        for holder, attr, obj in self._bindings():
            wrapper = self._originals.get(obj)
            if wrapper is not None:
                setattr(holder, attr, wrapper)
                self._patched.append((holder, attr, obj))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def unwrapped_references(self) -> list[str]:
        """Names still bound to an original function (none while installed)."""
        return [f"{getattr(h, '__name__', h)}.{a}" for h, a, obj in self._bindings()
                if obj in self._originals]

    def bound_wrappers(self) -> list[str]:
        """Names bound to a wrapper (none once uninstalled)."""
        wrappers = set(self._originals.values())
        return [f"{getattr(h, '__name__', h)}.{a}" for h, a, obj in self._bindings()
                if obj in wrappers]

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Recorded spans as numpy columns, with duration and self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            "parent": parent,
            "dur": dur,
            "self": dur - child_time,
            "ok": np.frombuffer(self.ok, dtype=np.int8).astype(bool),
        }

    def within(self, cols: dict[str, np.ndarray], name: str) -> np.ndarray:
        """Mask of spans that are ``name`` or nested anywhere below one."""
        target = self._name_ids.get(name, -1)
        inside = cols["name_id"] == target
        if not inside.any():
            return inside
        parent = cols["parent"]
        for i in np.nonzero(parent >= 0)[0]:  # parents always precede children
            if inside[parent[i]]:
                inside[i] = True
        return inside

    def dump(self, archive: zipfile.ZipFile, round_no: int, t0: float) -> None:
        """Add this round's spans to an open ``.npz`` archive, one array per column.

        Entries are named ``r<round>_<column>``: ``name`` (index into the
        ``names`` entry), ``start_s`` (seconds since ``t0``), ``dur_s``,
        ``parent`` (span index within the round, -1 for a request's root),
        ``request``, ``ok``, and ``note_span``/``note`` for the kept notes.
        """
        columns = {
            "name": np.frombuffer(self.name_id, dtype=np.uint16),
            "start_s": np.frombuffer(self.start, dtype=float) - t0,
            "dur_s": (np.frombuffer(self.end, dtype=float)
                      - np.frombuffer(self.start, dtype=float)).astype(np.float32),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request_of, dtype=np.int32),
            "ok": np.frombuffer(self.ok, dtype=np.int8),
            "note_span": np.array(sorted(self.notes), dtype=np.int32),
            "note": np.array([str(self.notes[i]) for i in sorted(self.notes)], dtype=str),
        }
        for key, values in columns.items():
            with archive.open(f"r{round_no}_{key}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, values, allow_pickle=False)

    def dump_names(self, archive: zipfile.ZipFile) -> None:
        with archive.open("names.npy", "w") as fh:
            np.lib.format.write_array(fh, np.array(self.names, dtype=str), allow_pickle=False)


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True
