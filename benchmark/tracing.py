"""Per-layer tracing of in-process rigidkit runs, from outside the program.

The layers are the modules of ``src/rigidkit``. ``Tracer.install`` replaces
each traced public function, in every rigidkit module that holds a reference
to it, with a wrapper that records a span (name, start, end, parent span).
A layer's self time is the time of its spans minus the time of their child
spans. ``numpy.linalg.svd`` and ``numpy.linalg.eigh`` are counted and timed
but open no span, so their time also stays in the calling layer's self time.
Spans stay in memory; ``Tracer.dump`` writes the last pass's spans out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer -> traced function names; None means every function in the module's __all__
LAYERS = {
    "framework": ["load_scenario", "save_scenario", "scenario_to_dict"],
    "rigidity": None,
    "subspaces": None,
    "modes": None,
    "dynamics": None,
    "jsonio": ["dump_json", "dumps_json", "load_json"],
    "cli": ["main"],
}
# functions whose self time gets a bucket of its own instead of <layer>.self_s
OWN_BUCKET = {
    "simulate_lti": "dynamics.lti_s",
    "sweep_impulse_angles": "dynamics.sweep_s",
    "simulate_nonlinear": "dynamics.nonlinear_s",
}
COUNTED = {"rigidity_matrix": "rigidity.rigidity_matrix_calls", "eigenspaces": "modes.eigenspaces_calls"}
LINALG = ("svd", "eigh")

PER_LAYER = {
    "import.rigidkit_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "framework.self_s": "s", "framework.calls": "count",
    "rigidity.self_s": "s", "rigidity.calls": "count", "rigidity.rigidity_matrix_calls": "count",
    "subspaces.self_s": "s", "subspaces.calls": "count",
    "modes.self_s": "s", "modes.calls": "count", "modes.eigenspaces_calls": "count",
    "linalg.svd_calls": "count", "linalg.svd_s": "s", "linalg.eigh_calls": "count", "linalg.eigh_s": "s",
    "dynamics.lti_s": "s", "dynamics.sweep_s": "s", "dynamics.nonlinear_s": "s", "dynamics.self_s": "s",
    "jsonio.self_s": "s", "jsonio.bytes_written": "bytes",
    "cli.write_self_s": "s", "cli.check_self_s": "s", "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


def import_rigidkit(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return importlib.import_module("rigidkit.cli")


def _targets(layer: str):
    try:
        mod = importlib.import_module(f"rigidkit.{layer}")
    except ModuleNotFoundError:  # a layer the tree no longer has reads as zero
        return
    names = LAYERS[layer] if LAYERS[layer] is not None else getattr(mod, "__all__", [])
    for name in names:
        fn = getattr(mod, name, None)
        if inspect.isfunction(fn):
            yield name, fn


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [child time, span index]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, layer: str, name: str, fn):
        bucket = OWN_BUCKET.get(name, f"{layer}.self_s")
        counter = COUNTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, len(self.spans)]
            parent = self._stack[-1][1] if self._stack else -1
            self.spans.append((f"{layer}.{name}", 0.0, 0.0, parent))
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += end - start
                self.spans[frame[1]] = (f"{layer}.{name}", start, end, parent)
                key = bucket
                if layer == "cli":
                    argv = args[0] if args else kwargs.get("argv") or []
                    key = "cli.check_self_s" if "--check" in argv else "cli.write_self_s"
                self.values[key] += end - start - frame[0]
                self.values[f"{layer}.calls"] += 1
                if counter:
                    self.values[counter] += 1
            if name == "dumps_json":
                self.values["jsonio.bytes_written"] += len(result.encode("utf-8"))
            return result

        return wrapper

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.values[f"linalg.{name}_s"] += time.perf_counter() - start
                self.values[f"linalg.{name}_calls"] += 1

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            for name, fn in _targets(layer):
                wrappers[id(fn)] = (fn, self._span(layer, name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rigidkit" and not mod_name.startswith("rigidkit."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        import numpy.linalg

        for name in LINALG:
            fn = getattr(numpy.linalg, name)
            self._patches.append((numpy.linalg, name, fn))
            setattr(numpy.linalg, name, self._timed(name, fn))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        Path(path).write_text(json.dumps(spans), encoding="utf-8")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times(root: Path, env: dict) -> dict[str, float]:
    """Cumulative import seconds of rigidkit, scipy and numpy from
    ``python -X importtime -c "import rigidkit"``.

    The output lists each module after its nested imports, indented by depth.
    A family's time is the sum of the cumulative times of its outermost
    entries, outside the subtrees of the other library: numpy modules that
    scipy imports count toward scipy only, so scipy and numpy do not overlap.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rigidkit"],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    pending: list[tuple[int, str, int, list]] = []  # (depth, name, cumulative us, children)
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(3))
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, m.group(4), int(m.group(2)), children))

    def member(name: str, prefix: str) -> bool:
        return name == prefix or name.startswith(prefix + ".")

    def family(nodes, prefix: str) -> int:
        total = 0
        for _, name, cumulative, children in nodes:
            if member(name, prefix):
                total += cumulative
            elif not (member(name, "scipy") or member(name, "numpy")):
                total += family(children, prefix)
        return total

    return {f"import.{p}_s": family(pending, p) / 1e6 for p in ("rigidkit", "scipy", "numpy")}
