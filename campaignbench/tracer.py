"""Cross-layer span recorder for the traced campaign run.

Wraps every function and method that a ``repro.<layer>`` package defines,
opens a span only when control crosses from one layer into another, and
restores the originals afterwards.  Nothing under ``src/`` is edited: the
recorder patches module and class namespaces at run time.

Spans live in flat in-memory arrays (name, start, end, parent span,
scenario index) and are written out by :meth:`SpanRecorder.write` when the
run ends.  Self time and call counts per layer are derived from them, and
phase spans (table load, initial convergence, failure, recovery) are
recorded around the scenario lab's workflow methods.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Traced layers and the ``src/repro/`` packages each one covers.  ``core``
#: takes in ``supercharge``: together they are the controller side, and
#: ``supercharge`` alone runs only in ``remote_groups`` scenarios.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim",),
    "net": ("net",),
    "bgp": ("bgp",),
    "bfd": ("bfd",),
    "arp": ("arp",),
    "router": ("router",),
    "core": ("core", "supercharge"),
    "openflow": ("openflow",),
    "traffic": ("traffic",),
    "telemetry": ("telemetry",),
    "routes": ("routes",),
    "scenarios": ("scenarios",),
}

#: Phase spans, in workflow order.
PHASES = ("load", "converge", "fail", "recover")

#: Methods left unwrapped: implicit static/class methods, the finaliser
#: (the garbage collector calls it from anywhere) and the hashing,
#: comparison and formatting hooks that dict, set and sort operations call
#: implicitly.  Their time counts to the layer doing the lookup or sort.
_SKIPPED_DUNDERS = frozenset({
    "__new__", "__init_subclass__", "__class_getitem__", "__del__",
    "__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
    "__repr__", "__str__", "__format__", "__bool__", "__len__",
})

_clock = time.perf_counter


class SpanRecorder:
    """Records cross-layer spans while :meth:`install` is in effect."""

    def __init__(
        self,
        on_scenario: Optional[Callable[[Dict[str, Any], Any], None]] = None,
    ) -> None:
        self.layers = tuple(LAYERS)
        #: Span name table; ``names[i]`` is ``"<module>:<qualname>"``.
        self.names: List[str] = []
        self.name_layer = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_scenario = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: ``(scenario, phase, start, end)`` for each phase span.
        self.phases: List[Tuple[int, str, float, float]] = []
        #: Index into ``layers`` of the code now running; -1 is code outside
        #: every layer (the benchmark itself).
        self.layer = -1
        self.current = -1
        self.scenario = -1
        self.warmups = 0
        #: Called with ``(record, lab)`` after each scenario, untraced.
        self.on_scenario = on_scenario
        self.suspended = False
        self._patches: List[Tuple[Any, str, Any]] = []
        self._phase: Optional[Tuple[str, float]] = None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name_id(self, layer: int, name: str) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        return len(self.names) - 1

    def _enter(self, layer: int, name_id: int) -> Tuple[int, int, int]:
        index = len(self.span_start)
        saved = (self.layer, self.current, index)
        self.span_name.append(name_id)
        self.span_parent.append(self.current)
        self.span_scenario.append(self.scenario)
        self.span_end.append(0.0)
        self.layer = layer
        self.current = index
        self.span_start.append(_clock())
        return saved

    def _leave(self, saved: Tuple[int, int, int]) -> None:
        self.span_end[saved[2]] = _clock()
        self.layer, self.current = saved[0], saved[1]

    def _wrap_function(self, func: Callable, layer: int, module: str) -> Callable:
        name_id = self._name_id(layer, f"{module}:{func.__qualname__}")
        recorder = self

        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
                return _TracedIterator(recorder, layer, name_id, func(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if recorder.layer == layer or recorder.suspended:
                return func(*args, **kwargs)
            saved = recorder._enter(layer, name_id)
            try:
                return func(*args, **kwargs)
            finally:
                recorder._leave(saved)

        return wrapper

    def _wrap_member(self, member: Any, layer: int, module: str) -> Any:
        """A traced replacement for a class attribute, or None."""
        if inspect.isfunction(member):
            return self._wrap_function(member, layer, module)
        if isinstance(member, staticmethod):
            return staticmethod(self._wrap_function(member.__func__, layer, module))
        if isinstance(member, classmethod):
            return classmethod(self._wrap_function(member.__func__, layer, module))
        # Properties stay unwrapped: an attribute read counts to the reader.
        return None

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer's functions and methods."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        replaced: Dict[int, Callable] = {}
        for module, layer in _layer_modules():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    replaced[id(value)] = self._wrap_function(value, layer, module.__name__)
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (BaseException, enum.Enum))
                ):
                    self._wrap_class(value, layer, module.__name__)
        # Point every module-level reference (including ``from x import f``
        # copies in other packages) at the wrapper.
        for module in [m for m in list(sys.modules.values()) if _is_repro(m)]:
            for name, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patch(module, name, wrapper)
        self._wrap_phases()

    def _wrap_class(self, cls: type, layer: int, module: str) -> None:
        for name, member in list(vars(cls).items()):
            if name in _SKIPPED_DUNDERS:
                continue
            if inspect.isclass(member) and member.__qualname__.startswith(
                cls.__qualname__ + "."
            ):
                self._wrap_class(member, layer, module)
                continue
            wrapped = self._wrap_member(member, layer, module)
            if wrapped is not None:
                self._patch(cls, name, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Phases and per-scenario bookkeeping
    # ------------------------------------------------------------------
    def _wrap_phases(self) -> None:
        from repro.scenarios import campaign
        from repro.scenarios.testbed import ScenarioLab

        recorder = self
        execute = campaign.execute_scenario

        @functools.wraps(execute)
        def execute_scenario(*args: Any, **kwargs: Any) -> Any:
            recorder.scenario += 1
            recorder._open_phase("load")
            record, lab = execute(*args, **kwargs)
            if recorder.on_scenario is not None:
                recorder.suspended = True
                try:
                    recorder.on_scenario(record, lab)
                finally:
                    recorder.suspended = False
            return record, lab

        self._patch(campaign, "execute_scenario", execute_scenario)
        # Phase boundaries: load runs from the scenario's construction to
        # the end of load_feeds, converge is wait_converged, fail runs from
        # there to wait_recovered (monitoring, arming, churn scheduling and
        # the failure horizon) and recover is wait_recovered.
        self._boundary(ScenarioLab, "load_feeds", None, "converge", warmup=True)
        self._boundary(ScenarioLab, "wait_converged", None, "fail")
        self._boundary(ScenarioLab, "wait_recovered", "recover", None)

    def _boundary(
        self,
        owner: type,
        name: str,
        on_enter: Optional[str],
        on_exit: Optional[str],
        warmup: bool = False,
    ) -> None:
        """Wrap ``owner.name`` so that entering it opens phase ``on_enter``
        and leaving it opens ``on_exit``; opening None closes the phase."""
        recorder = self
        traced = owner.__dict__[name]

        @functools.wraps(traced)
        def boundary(*args: Any, **kwargs: Any) -> Any:
            if warmup:
                recorder.warmups += 1
            if on_enter is not None:
                recorder._open_phase(on_enter)
            result = traced(*args, **kwargs)
            recorder._open_phase(on_exit)
            return result

        self._patch(owner, name, boundary)

    def _open_phase(self, phase: Optional[str]) -> None:
        now = _clock()
        if self._phase is not None:
            self.phases.append((self.scenario, self._phase[0], self._phase[1], now))
        self._phase = (phase, now) if phase is not None else None

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Self seconds and cross-layer entries per layer."""
        count = len(self.span_start)
        child = [0.0] * count
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        self_s = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        name_layer, span_name = self.name_layer, self.span_name
        for index in range(count):
            layer = name_layer[span_name[index]]
            self_s[layer] += ends[index] - starts[index] - child[index]
            calls[layer] += 1
        return {
            layer: {"self_s": self_s[i], "calls": calls[i]}
            for i, layer in enumerate(self.layers)
        }

    def phase_totals(self) -> Dict[str, float]:
        """Wall seconds per phase, summed over scenarios."""
        totals = {phase: 0.0 for phase in PHASES}
        for _scenario, phase, start, end in self.phases:
            totals[phase] += end - start
        return totals

    def write(self, path: str) -> None:
        """Write the spans out: one JSON header line (name table, layers,
        phases, array typecodes), then the raw span arrays in that order."""
        arrays = [
            ("name", self.span_name), ("parent", self.span_parent),
            ("scenario", self.span_scenario), ("start", self.span_start),
            ("end", self.span_end),
        ]
        header = {
            "layers": list(self.layers),
            "names": self.names,
            "name_layer": self.name_layer.tolist(),
            "phases": self.phases,
            "spans": len(self.span_start),
            "arrays": [[key, values.typecode] for key, values in arrays],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for _key, values in arrays:
                values.tofile(handle)


class _TracedIterator:
    """Iterator over a layer's generator that opens a span around each
    resumption (nothing in the traced packages sends into generators)."""

    __slots__ = ("_recorder", "_layer", "_name_id", "_generator")

    def __init__(self, recorder: SpanRecorder, layer: int, name_id: int, generator: Any) -> None:
        self._recorder = recorder
        self._layer = layer
        self._name_id = name_id
        self._generator = generator

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        recorder = self._recorder
        if recorder.layer == self._layer or recorder.suspended:
            return next(self._generator)
        saved = recorder._enter(self._layer, self._name_id)
        try:
            return next(self._generator)
        finally:
            recorder._leave(saved)


def _is_repro(module: Any) -> bool:
    name = getattr(module, "__name__", "")
    return name == "repro" or name.startswith("repro.")


def _layer_modules() -> List[Tuple[Any, int]]:
    """Every module of each layer's packages, imported, with its layer index."""
    found: List[Tuple[Any, int]] = []
    for index, packages in enumerate(LAYERS.values()):
        for name in packages:
            package = importlib.import_module(f"repro.{name}")
            found.append((package, index))
            for info in pkgutil.iter_modules(package.__path__, f"repro.{name}."):
                found.append((importlib.import_module(info.name), index))
    return found
