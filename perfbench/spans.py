"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of ``nvalued`` from outside the
package.  A module that did ``from .intlinalg import solve_rational``
holds its own binding of that function, so each metric's function is
replaced in *every* ``nvalued`` module that holds it; ``compose`` is
replaced on the ``SemidirectElement`` class, where method lookups find
it.  A metric whose function no longer exists is reported as absent.

Each call becomes a span: (name, start, end, parent).  Spans live in
flat arrays until the run ends; a span's self time is its duration
minus the durations of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# metric name -> (defining module, attribute); the metric name is
# "<module>.<function>" with the module's short name
FUNCTIONS = (
    ("cli.main", "nvalued.cli", "main"),
    ("cli.build_system", "nvalued.cli", "build_system"),
    ("cli.build_report", "nvalued.cli", "build_report"),
    ("cli.emit", "nvalued.cli", "emit"),
    ("liftsystems.validate", "nvalued.liftsystems", "validate"),
    ("liftsystems.psi_of", "nvalued.liftsystems", "psi_of"),
    ("semidirect.compose", "nvalued.semidirect", "SemidirectElement.compose"),
    ("reidemeister.reidemeister_number", "nvalued.reidemeister", "reidemeister_number"),
    ("reidemeister.sigma_classes", "nvalued.reidemeister", "sigma_classes"),
    ("reidemeister.phi_restricted", "nvalued.reidemeister", "phi_restricted"),
    ("intlinalg.rational_left_kernel", "nvalued.intlinalg", "rational_left_kernel"),
    ("intlinalg.lattice_from_generators", "nvalued.intlinalg", "lattice_from_generators"),
    ("intlinalg.lattice_index", "nvalued.intlinalg", "lattice_index"),
    ("intlinalg.coset_representatives", "nvalued.intlinalg", "coset_representatives"),
    ("intlinalg.solve_rational", "nvalued.intlinalg", "solve_rational"),
    ("intlinalg.coset_reduce", "nvalued.intlinalg", "coset_reduce"),
    ("fixedpoints.fixed_point_classes", "nvalued.fixedpoints", "fixed_point_classes"),
    ("fixedpoints.nielsen_number", "nvalued.fixedpoints", "nielsen_number"),
    ("oracle.oracle_check", "nvalued.oracle", "oracle_check"),
    ("oracle.brute_classes", "nvalued.oracle", "brute_classes"),
    ("oracle.brute_fixed_points", "nvalued.oracle", "brute_fixed_points"),
    ("planner.validate_graph", "nvalued.planner", "validate_graph"),
    ("planner.plan", "nvalued.planner", "plan"),
    ("planner.simulate", "nvalued.planner", "simulate"),
)

# functions whose result sizes are summed as well (into Recorder.sizes)
SIZED = {"intlinalg.coset_representatives"}


class Recorder:
    """Spans of wrapped calls, kept in flat arrays."""

    def __init__(self):
        self.names = [name for name, _, _ in FUNCTIONS]
        self.name_id = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = []
        self.sizes = {}
        self.absent = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._resolve()

    # -- binding -----------------------------------------------------------

    def _resolve(self):
        """Find every binding of every traced function, once."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "nvalued" or name.startswith("nvalued.")}
        for metric, module_name, attr in FUNCTIONS:
            module = modules.get(module_name)
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, fname, None) if holder is not None else None
            if original is None:
                self.absent.append(metric)
                continue
            wrapper = self._wrap(metric, original)
            if owner:
                self._patches.append((holder, fname, original, wrapper))
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _wrap(self, metric, fn):
        name_id = self.name_id[metric]
        sized = metric in SIZED
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sized:
                self.sizes[metric] = self.sizes.get(metric, 0) + len(result)
            return result

        return wrapper

    # -- summary -----------------------------------------------------------

    def summary(self):
        """Per function: calls, inclusive seconds, self seconds; plus the
        number of calls of each function made directly inside another."""
        count = len(self.start)
        child_time = [0.0] * count
        for idx in range(count):
            p = self.parent[idx]
            if p >= 0:
                child_time[p] += self.end[idx] - self.start[idx]
        table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        under = {}
        for idx in range(count):
            name = self.names[self.span_name[idx]]
            dur = self.end[idx] - self.start[idx]
            row = table[name]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_time[idx]
            p = self.parent[idx]
            if p >= 0:
                key = (self.names[self.span_name[p]], name)
                under[key] = under.get(key, 0) + 1
        return table, under
