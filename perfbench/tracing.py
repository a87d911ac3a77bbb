"""Spans around sphfan's public functions, for the traced benchmark run.

``install`` replaces each wrapped name where sphfan looks it up (a module
global, or a method on its class) with a wrapper that records a span:
name, start, end and parent.  ``uninstall`` puts the original objects
back.  Spans stay in memory; ``layer_metrics`` turns one round of them
into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Optional


class Recorder:
    """Spans as parallel lists, plus counters fed from wrapped results.

    Span times are process CPU seconds, the clock the benchmark times
    calls with.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[Optional[int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.process_time())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.process_time()
        self._stack.pop()

    def __len__(self):
        return len(self.names)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent in enumerate(parents):
        if parent is not None:
            children.setdefault(parent, []).append((starts[sid], ends[sid]))
    out = []
    for sid in range(len(starts)):
        covered = 0.0
        reach = starts[sid]
        for lo, hi in sorted(children.get(sid, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[sid] - starts[sid] - covered)
    return out


def _wrap(fn: Callable, name: str, rec: Recorder, observe=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if observe is not None:
            observe(rec.counts, result, args)
        return result
    return wrapper


def _count_hit(name):
    def observe(counts, result, args):
        counts[name] += bool(result)
    return observe


def _count_len(name, of_arg=False):
    def observe(counts, result, args):
        counts[name] += len(args[0].encode() if of_arg else result.encode())
    return observe


def _observe_rays(counts, result, args):
    counts["cones.dual_description.rays_out"] += len(result[1])


def _observe_faces(counts, result, args):
    counts["cones.faces.out"] += len(result)


def _observe_meet(counts, result, args):
    if args[1] is not None:
        counts["spherical.cf2_pairs"] += 1
        counts["spherical.cf2_meets"] += result is not None


def _observe_solve(counts, result, args):
    counts["lp.solve.feasible"] += result is not None


def _patch_points():
    """(owner, attribute, span name, observer) for every wrapped lookup."""
    from sphfan import (cli, cones, docio, fourier_motzkin, galois, lp,
                        morphisms, rational, spherical)
    parse = _count_len("docio.parse.bytes", of_arg=True)
    serialize = _count_len("docio.serialize.bytes")
    points = [
        (rational.Mat, "rank", "rational.rank", None),
        (rational.Mat, "solve_homogeneous", "rational.solve_homogeneous", None),
        (rational.Mat, "det", "rational.det", None),
        (rational.Mat, "matmul", "rational.matmul", None),
        (cones, "dual_description", "cones.dual_description", _observe_rays),
        (cones.Cone, "faces", "cones.faces", _observe_faces),
        (cones.Cone, "contains", "cones.contains", None),
        (lp.FeasibilitySystem, "solve", "lp.solve", _observe_solve),
        (fourier_motzkin, "feasible", "fourier_motzkin.feasible", None),
    ]
    for owner in (cones, spherical):
        points += [
            (owner, "relints_meet_in", "cones.relints_meet_in", _observe_meet),
            (owner, "relint_meets_cone", "cones.relint_meets_cone", None),
        ]
    for owner in (cones, spherical, galois):
        points.append((owner, "cones_equal", "cones.cones_equal",
                       _count_hit("cones.cones_equal.hits")))
    for owner in (spherical, galois):
        points.append((owner, "colored_cones_equal", "spherical.colored_cones_equal",
                       _count_hit("spherical.colored_cones_equal.hits")))
    for fn in ("validate_colored_fan", "validate_colored_cone", "colored_faces"):
        points.append((spherical, fn, f"spherical.{fn}", None))
    for owner in (spherical, galois):
        points.append((owner, "faces_closure", "spherical.faces_closure", None))
    for fn in ("validate_action", "is_invariant_fan", "invariant_closure",
               "apply_element"):
        points.append((galois, fn, f"galois.{fn}", None))
    for fn in ("validate_morphism", "is_morphism_of_fans"):
        points.append((morphisms, fn, f"morphisms.{fn}", None))
    for fn in ("parse_datum", "parse_fan", "parse_action", "parse_morphism"):
        points.append((docio, fn, "docio.parse", parse))
    points += [
        (docio, "serialize_fan", "docio.serialize", serialize),
        (cli, "dump_json", "docio.serialize", serialize),
        (cli, "main", "cli.main", None),
    ]
    return points


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every patch point; returns what ``uninstall`` needs to undo it."""
    saved = []
    for owner, attr, name, observe in _patch_points():
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, name, rec, observe))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# layers with more than one wrapped name; the others' totals equal their one span
LAYERS = ("rational", "cones", "spherical", "galois", "morphisms", "docio")

CALLS = ("rational.rank", "cones.dual_description", "cones.faces",
         "cones.cones_equal", "cones.contains", "cones.relints_meet_in",
         "lp.solve", "fourier_motzkin.feasible", "spherical.validate_colored_cone",
         "spherical.colored_faces", "spherical.colored_cones_equal",
         "galois.apply_element", "cli.main")

SELF = ("rational.rank", "cones.dual_description", "cones.faces",
        "cones.relints_meet_in", "lp.solve", "fourier_motzkin.feasible",
        "spherical.validate_colored_cone", "spherical.colored_faces",
        "galois.validate_action", "galois.is_invariant_fan",
        "galois.invariant_closure", "morphisms.validate_morphism",
        "morphisms.is_morphism_of_fans", "docio.parse", "docio.serialize",
        "cli.main")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, root: str) -> dict[str, float]:
    """Counts and self times of one traced round.

    Self time of the ``root`` spans is the work no wrapper covers (object
    construction, the benchmark's own code).
    """
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    calls: Counter = Counter(rec.names)
    self_by_name: Counter = Counter()
    for name, s in zip(rec.names, selfs):
        self_by_name[name] += s
    c = rec.counts
    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls[name]
    for name in SELF:
        out[f"{name}.self_s"] = self_by_name[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for n, s in self_by_name.items()
                                     if n.startswith(layer + "."))
    out["cones.dual_description.rays_out"] = c["cones.dual_description.rays_out"]
    out["cones.faces.out"] = c["cones.faces.out"]
    out["cones.cones_equal.hit_ratio"] = _ratio(c["cones.cones_equal.hits"],
                                                calls["cones.cones_equal"])
    out["lp.solve.feasible_ratio"] = _ratio(c["lp.solve.feasible"], calls["lp.solve"])
    out["spherical.cf2_pairs"] = c["spherical.cf2_pairs"]
    out["spherical.cf2_meet_ratio"] = _ratio(c["spherical.cf2_meets"],
                                             c["spherical.cf2_pairs"])
    out["spherical.colored_cones_equal.hit_ratio"] = _ratio(
        c["spherical.colored_cones_equal.hits"], calls["spherical.colored_cones_equal"])
    out["docio.parse.bytes"] = c["docio.parse.bytes"]
    out["docio.serialize.bytes"] = c["docio.serialize.bytes"]
    out["trace.spans"] = len(rec)
    out["trace.unwrapped_self_s"] = self_by_name[root]
    return out
