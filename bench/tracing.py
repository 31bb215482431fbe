"""Per-layer tracing of joinforge from outside the library.

The tracer replaces each target function with a timing wrapper in every
``joinforge`` module namespace (the package ``__init__`` and each
submodule's globals), so calls the library makes internally are timed as
well as calls from the command line.  Class-level targets (constructors
and classmethods) are patched on the class itself.

For every target it keeps a call count and a self time: the span's
duration minus the time spent in wrapped children.  A call nested inside a
call to the same target (``from_mapping`` calling ``__init__``, for
example) is timed but not counted again.  Spans are aggregated as they
close rather than stored, because some targets run hundreds of thousands
of times per second.

A target the library no longer defines is recorded as absent instead of
failing the run, so a later refactor that removes a function leaves the
benchmark working.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# metric name -> (module, attribute paths); every path's time and calls go
# to the same metric
TARGETS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli.main": ("joinforge.cli", ("main",)),
    "verify.fuzz_campaign": ("joinforge.verify", ("fuzz_campaign",)),
    "verify.random_instance": ("joinforge.verify", ("random_instance",)),
    "verify.load_instance": ("joinforge.verify", ("load_instance",)),
    "verify.check_inequality": ("joinforge.verify", ("check_inequality",)),
    "verify.resolve_constant": ("joinforge.verify", ("resolve_constant",)),
    "tree.weights": (
        "joinforge.tree",
        ("WeightAssignment.__init__", "WeightAssignment.from_mapping"),
    ),
    "tree.f": ("joinforge.tree", ("LevelFunction.__init__", "LevelFunction.from_mapping")),
    "tree.cylinder_masses": ("joinforge.tree", ("cylinder_masses",)),
    "orbits.extract_shape": ("joinforge.orbits", ("extract_shape",)),
    "orbits.shape_orbit_size": ("joinforge.orbits", ("shape_orbit_size",)),
    "energy.orbit_energy_factorized": ("joinforge.energy", ("orbit_energy_factorized",)),
    "energy.factorized_from_shape": ("joinforge.energy", ("factorized_from_shape",)),
    "bounds.rhs_product": ("joinforge.bounds", ("rhs_product",)),
    "bounds.validate_exponents": ("joinforge.bounds", ("validate_exponents",)),
    "bounds.k_general": ("joinforge.bounds", ("k_general",)),
    "bounds.k_binary": ("joinforge.bounds", ("k_binary",)),
    "bounds.k_inductive": ("joinforge.bounds", ("k_inductive",)),
    "bounds.muirhead_numeric": ("joinforge.bounds", ("muirhead_numeric",)),
    "bounds.muirhead_closed_form": ("joinforge.bounds", ("muirhead_closed_form",)),
    "bounds.symmetric_sum": ("joinforge.bounds", ("symmetric_sum",)),
}


class Tracer:
    """Call counts, self times and input properties for the target functions."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.absent: list[str] = []
        self._depth = {name: 0 for name in TARGETS}
        self._child_time: list[float] = []  # one entry per open span
        # input properties seen through the wrapped calls
        self.vertices_total = 0
        self.max_join_degree = 0
        self.closed_form_calls = 0
        self.bracket_calls = 0
        self.property_errors: list[str] = []

    def install(self) -> None:
        """Patch every target; call once, after ``joinforge.cli`` is imported."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "joinforge" or name.startswith("joinforge."))
        ]
        for metric, (module_name, paths) in TARGETS.items():
            found = False
            for path in paths:
                found |= self._patch(metric, sys.modules.get(module_name), path, modules)
            if not found:
                self.absent.append(metric)

    def _patch(self, metric: str, module, path: str, modules: list) -> bool:
        if module is None:
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = None if owner is None else owner.__dict__.get(attr)
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(metric, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(metric, raw))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(metric, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return True

    def _wrap(self, metric: str, fn):
        observe = _OBSERVERS.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._depth[metric] == 0
            if outer:
                self.calls[metric] += 1
            self._depth[metric] += 1
            self._child_time.append(0.0)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = perf_counter() - start
                child = self._child_time.pop()
                self.self_s[metric] += duration - child
                if self._child_time:
                    self._child_time[-1] += duration
                self._depth[metric] -= 1
                if observe is not None and outer:
                    observe(self, args, result)

        return wrapper


def _observe_check(tracer: Tracer, args, result) -> None:
    # the instance's shape is cached by the time the check returns or refuses
    try:
        inst = args[0]
        tracer.vertices_total += inst.tree.vertex_count
        tracer.max_join_degree = max(tracer.max_join_degree, _max_degree(inst.shape))
    except (AttributeError, IndexError, TypeError) as exc:
        tracer.property_errors.append(f"check_inequality: {exc!r}")


def _max_degree(shape) -> int:
    branches = getattr(shape, "branches", ())
    return max([len(branches)] + [_max_degree(b) for b in branches]) if branches else 0


def _observe_closed_form(tracer: Tracer, args, result) -> None:
    if result is None:
        return
    try:
        exact = bool(result.exact)
    except AttributeError as exc:
        tracer.property_errors.append(f"muirhead_closed_form: {exc!r}")
        return
    tracer.closed_form_calls += 1
    tracer.bracket_calls += not exact


_OBSERVERS = {
    "verify.check_inequality": _observe_check,
    "bounds.muirhead_closed_form": _observe_closed_form,
}
