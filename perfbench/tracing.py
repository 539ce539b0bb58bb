"""Spans around calls into caexp's public functions, recorded from outside the
program.

``instrument`` replaces each traced function or method with a wrapper wherever
a loaded caexp module binds it: ``claims`` and ``cli`` import ``kexp_search``
and others by name, and ``engine.iterate``, ``trace``, ``traces_equal`` and
``fronts`` reach ``step`` through their module's globals.  Each span records
its name, parent, start and end, and the work counts read off the call's
arguments and result.  Spans stay in memory until ``layer_metrics`` reads them
after the pass.  A span's self time is its duration minus the time its child
spans cover.
"""
from __future__ import annotations

import sys
import time
from array import array

from workloads import CLAIM_NAMES

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"claims.{n}_s", "s", "lower") for n in CLAIM_NAMES]
    + [
        ("engine.step_calls", "count", "lower"),
        ("engine.step_cells_in", "count", "lower"),
        ("engine.step_self_s", "s", "lower"),
        ("engine.cells_per_s", "1/s", "higher"),
        ("bitgrid.step_calls", "count", "lower"),
        ("bitgrid.cell_updates", "count", "lower"),
        ("bitgrid.bytes_computed", "B", "lower"),
        ("bitgrid.step_self_s", "s", "lower"),
        ("bitgrid.updates_per_s", "1/s", "higher"),
        ("dense1d.orbit_calls", "count", "lower"),
        ("dense1d.cell_steps", "count", "lower"),
        ("dense1d.bytes_allocated", "B", "lower"),
        ("dense1d.orbit_self_s", "s", "lower"),
        ("dense1d.cell_steps_per_s", "1/s", "higher"),
        ("expansivity.candidates", "count", "lower"),
        ("expansivity.window_checks", "count", "lower"),
        ("expansivity.checks_per_candidate", "ratio", "lower"),
        ("expansivity.candidate_loop_s", "s", "lower"),
        ("expansivity.candidates_per_s", "1/s", "higher"),
        ("expansivity.witnesses", "count", "higher"),
        ("expansivity.witness_verify_s", "s", "lower"),
        ("expansivity.table_builds", "count", "lower"),
        ("expansivity.table_entries", "count", "lower"),
        ("expansivity.table_build_self_s", "s", "lower"),
        ("z2subst.oracle_calls", "count", "lower"),
        ("z2subst.oracle_s", "s", "lower"),
        ("z2subst.cache_entries", "count", "lower"),
        ("freegroup.profile_calls", "count", "lower"),
        ("freegroup.profile_s", "s", "lower"),
        ("freegroup.ball_nodes", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ])

# Counts that must repeat exactly between two traced passes of one workload.
EXACT_COUNTS = (
    "engine.step_calls", "engine.step_cells_in", "bitgrid.step_calls",
    "bitgrid.cell_updates", "dense1d.orbit_calls", "dense1d.cell_steps",
    "expansivity.candidates", "expansivity.window_checks",
    "expansivity.table_entries", "z2subst.oracle_calls",
    "z2subst.cache_entries", "freegroup.profile_calls",
    "freegroup.ball_nodes",
)


def rebind(original, replacement) -> None:
    """Bind ``replacement`` wherever a loaded caexp module binds ``original``."""
    for name, mod in list(sys.modules.items()):
        if name != "caexp" and not name.startswith("caexp."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def record_verdicts() -> list:
    """Collect every ``ExpansivityVerdict`` that ``kexp_search`` returns.

    This reads results only; it is installed in untraced passes too, because
    ``candidates_per_s`` needs the searches that claims make internally.
    """
    from caexp import expansivity
    verdicts = []
    search = expansivity.kexp_search

    def kexp_search(*args, **kwargs):
        verdict = search(*args, **kwargs)
        verdicts.append(verdict)
        return verdict

    rebind(search, kexp_search)
    return verdicts


class Tracer:
    """Spans kept in flat arrays, one entry per call, until the pass ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")  # index into names
        self.parent = array("i")  # index of the enclosing span, -1 at top level
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")    # first count read off the call
        self.nbytes = array("q")  # second count (bytes) read off the call
        self.hits: dict[str, int] = {}  # calls through count-only wrappers
        self._stack = [-1]

    def span(self, name: str, fn, measure=None):
        """Wrap ``fn`` in a span; ``measure(args, result)`` gives its counts."""
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (self.name_id, self.parent,
                                           self.start, self.end)
        work, nbytes, stack = self.work, self.nbytes, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            work.append(0)
            nbytes.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if measure is not None:
                work[i], nbytes[i] = measure(args, out)
            return out

        return wrapper

    def count(self, name: str, fn):
        """Wrap ``fn`` in a call counter only.

        Used where a call is too short and too frequent for a span:
        a ``search`` pass makes about 725k ``null_at_window_cell`` calls.
        """
        hits = self.hits
        hits[name] = 0

        def wrapper(*args, **kwargs):
            hits[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _cells_in(args, out):
    return len(args[1]), 0


def _grid_step(args, out):
    grid, offsets = args
    # computed, not measured: the grid words each offset's term reads
    return grid.height * grid.width, 8 * grid.height * grid.nwords * len(offsets)


def _orbit(args, out):
    arrays = out[1:]
    steps, length = arrays[0].shape
    return (steps - 1) * length, sum(a.nbytes for a in arrays)


def _verdict(args, out):
    return out.searched, int(out.found)


def _table(args, out):
    table = args[0]
    return len(table.offsets) * (table.t_max + 1) * len(table.moduli) ** 2, 0


def _ball(args, out):
    return args[0].total, 0


def instrument(tracer: Tracer) -> None:
    """Install the tracer's wrappers on every traced caexp function."""
    from caexp import (bitgrid, claims, cli, dense1d, engine, expansivity,  # noqa: F401
                       freegroup, z2subst)
    functions = [
        (engine, "step", "engine.step", _cells_in),
        (bitgrid, "simulate_series", "bitgrid.simulate_series", None),
        (bitgrid, "simulate_support", "bitgrid.simulate_support", None),
        (bitgrid, "first_nonzero_window_time",
         "bitgrid.first_nonzero_window_time", None),
        (dense1d, "orbit_linear", "dense1d.orbit_linear", _orbit),
        (dense1d, "orbit_second_order", "dense1d.orbit_second_order", _orbit),
        (dense1d, "orbit_mult", "dense1d.orbit_mult", _orbit),
        (expansivity, "kexp_search", "expansivity.kexp_search", _verdict),
        (expansivity, "_verify_witness", "expansivity.verify_witness", None),
        (z2subst, "exact_trace_null", "z2subst.exact_trace_null", None),
        (freegroup, "layer_profile", "freegroup.layer_profile", None),
    ]
    for module, attr, name, measure in functions:
        original = getattr(module, attr)
        rebind(original, tracer.span(name, original, measure))
    methods = [
        (bitgrid.BitGrid, "step", "bitgrid.BitGrid.step", _grid_step),
        (expansivity.TraceTable, "__init__", "expansivity.TraceTable.build",
         _table),
        (freegroup.BallTree, "__init__", "freegroup.BallTree.build", _ball),
    ]
    for cls, attr, name, measure in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), measure))
    table = expansivity.TraceTable
    table.null_at_window_cell = tracer.count(
        "expansivity.null_at_window_cell", table.null_at_window_cell)
    for claim, (doc, fn) in list(claims.CLAIMS.items()):
        wrapped = tracer.span(f"claims.{claim}", fn)
        claims.CLAIMS[claim] = (doc, wrapped)
        rebind(fn, wrapped)


def cache_entries() -> int:
    """Entries held by the exact oracle's module-level caches."""
    from caexp import z2subst
    return len(z2subst._U_CACHE) + len(z2subst._V_CACHE)


def span_tree(tracer: Tracer) -> tuple[dict, list]:
    """Aggregate the spans by name and by call path.

    Returns ``{name: [calls, total_s, self_s, work, bytes]}`` and rows
    ``[path, calls, total_s, self_s]`` sorted by path.
    """
    n = len(tracer.end)
    names, parent = tracer.names, tracer.parent
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += dur[i]
    by_name: dict[str, list] = {}
    by_path: dict[str, list] = {}
    path = [""] * n
    for i in range(n):
        name = names[tracer.name_id[i]]
        path[i] = name if parent[i] < 0 else f"{path[parent[i]]} > {name}"
        self_s = dur[i] - covered[i]
        agg = by_name.setdefault(name, [0, 0.0, 0.0, 0, 0])
        agg[0] += 1
        agg[1] += dur[i]
        agg[2] += self_s
        agg[3] += tracer.work[i]
        agg[4] += tracer.nbytes[i]
        row = by_path.setdefault(path[i], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += self_s
    rows = [[p, *by_path[p]] for p in sorted(by_path)]
    return by_name, rows


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_s``),
    and the span rows by call path."""
    by_name, rows = span_tree(tracer)

    def get(name):
        return by_name.get(name, [0, 0.0, 0.0, 0, 0])

    out = {f"claims.{n}_s": get(f"claims.{n}")[1] for n in CLAIM_NAMES}

    calls, _, self_s, cells, _ = get("engine.step")
    out.update({"engine.step_calls": calls, "engine.step_cells_in": cells,
                "engine.step_self_s": self_s,
                "engine.cells_per_s": _rate(cells, self_s)})

    calls, _, self_s, updates, nbytes = get("bitgrid.BitGrid.step")
    out.update({"bitgrid.step_calls": calls, "bitgrid.cell_updates": updates,
                "bitgrid.bytes_computed": nbytes, "bitgrid.step_self_s": self_s,
                "bitgrid.updates_per_s": _rate(updates, self_s)})

    orbits = [get(f"dense1d.{f}") for f in
              ("orbit_linear", "orbit_second_order", "orbit_mult")]
    calls = sum(o[0] for o in orbits)
    self_s = sum(o[2] for o in orbits)
    steps = sum(o[3] for o in orbits)
    out.update({"dense1d.orbit_calls": calls, "dense1d.cell_steps": steps,
                "dense1d.bytes_allocated": sum(o[4] for o in orbits),
                "dense1d.orbit_self_s": self_s,
                "dense1d.cell_steps_per_s": _rate(steps, self_s)})

    _, _, loop_s, candidates, witnesses = get("expansivity.kexp_search")
    checks = tracer.hits.get("expansivity.null_at_window_cell", 0)
    builds, _, build_s, entries, _ = get("expansivity.TraceTable.build")
    out.update({
        "expansivity.candidates": candidates,
        "expansivity.window_checks": checks,
        "expansivity.checks_per_candidate": (checks / candidates
                                             if candidates else 0.0),
        "expansivity.candidate_loop_s": loop_s,
        "expansivity.candidates_per_s": _rate(candidates, loop_s),
        "expansivity.witnesses": witnesses,
        "expansivity.witness_verify_s": get("expansivity.verify_witness")[1],
        "expansivity.table_builds": builds,
        "expansivity.table_entries": entries,
        "expansivity.table_build_self_s": build_s,
    })

    calls, oracle_s, *_ = get("z2subst.exact_trace_null")
    out.update({"z2subst.oracle_calls": calls, "z2subst.oracle_s": oracle_s,
                "z2subst.cache_entries": cache_entries()})

    calls, profile_s, *_ = get("freegroup.layer_profile")
    out.update({"freegroup.profile_calls": calls, "freegroup.profile_s": profile_s,
                "freegroup.ball_nodes": get("freegroup.BallTree.build")[3]})
    return out, rows
