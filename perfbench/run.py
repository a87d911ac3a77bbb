"""sphfan benchmark: exact verdicts per second on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sphfan is imported from ./src.
The run repeats its workload's round of calls for about S seconds,
checks every verdict against the answer known from the input's
construction, and prints one JSON object as the last line of stdout.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds, reports per-layer metrics and
writes the spans to .perfbench/spans-NAME.jsonl at the end.

Times are CPU seconds of this process and its finished children, scaled
to a nominal machine speed: before every call (and once after the last)
the run times a fixed piece of Fraction arithmetic (``reference``).  A
call's (or one set-up's) time is multiplied by REFERENCE_S over the mean
of the two reference times around it; per-layer times use the mean over
the whole run.  The host this benchmark was written on changes speed by
up to 1.7x over seconds; the reference moves with it and cancels most
of that drift.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 21
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
REFERENCE_S = 0.03


def cpu_clock() -> float:
    """CPU seconds of this process and of its children that have ended.

    Every call is single-threaded and CPU-bound; on a shared host, wall
    time also counts the spells in which the process is not scheduled.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference() -> Fraction:
    """A fixed piece of Fraction arithmetic, the kind of work sphfan does."""
    s = Fraction(0)
    for i in range(1, 9000):
        s += Fraction(1, i % 97 + 1)
    return s


class Meter:
    """Reference timings taken between calls, and the scales they give."""

    def __init__(self):
        self.refs: list[float] = []

    def probe(self) -> None:
        t0 = cpu_clock()
        reference()
        self.refs.append(cpu_clock() - t0)

    @property
    def scale(self) -> float:
        """Factor from this run's CPU seconds to seconds at nominal speed."""
        return REFERENCE_S / statistics.mean(self.refs)

    def local_scale(self, i: int) -> float:
        """The factor for the call between probes i and i + 1."""
        return 2 * REFERENCE_S / (self.refs[i] + self.refs[i + 1])


def _import_sphfan() -> None:
    """Import sphfan afresh, dropping any modules of an earlier import."""
    for name in [m for m in sys.modules if m == "sphfan" or m.startswith("sphfan.")]:
        del sys.modules[name]
    import sphfan
    if not os.path.abspath(sphfan.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sphfan imported from {sphfan.__file__}, not from {SRC}")


def setup(workload: str, seed: int, workdir: str):
    """Import sphfan, generate the inputs and write the documents, several times.

    Returns the median scaled time of one set-up and the calls of the last.
    """
    import workloads
    meter = Meter()
    times = []
    for _ in range(SETUP_REPEATS):
        meter.probe()
        t0 = cpu_clock()
        _import_sphfan()
        calls = workloads.WORKLOADS[workload](random.Random(seed), workdir)
        times.append(cpu_clock() - t0)
    meter.probe()
    return statistics.median(t * meter.local_scale(i) for i, t in enumerate(times)), calls


def _cli_child(argv, env):
    proc = subprocess.run([sys.executable, "-m", "sphfan.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return proc.returncode, proc.stdout


def cli_in_process(argv):
    """(exit code, stdout) of ``sphfan.cli.main(argv)`` in this process."""
    from sphfan import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _execute(call, env):
    """Run one call; CLI calls in a child process when ``env`` is given."""
    if call.invoke is not None:
        return call.invoke()
    if env is not None:
        return _cli_child(call.argv, env)
    return cli_in_process(call.argv)


def run_round(calls, env, meter: Meter, rec=None):
    """One pass over the calls; returns [(kind, cpu seconds, ok)] in order.

    With a recorder, each call runs under a root span named "call" and
    must also pass ``_call_consistent``.
    """
    out = []
    for call in calls:
        meter.probe()
        ok = False
        root = rec.open("call") if rec is not None else None
        t0 = cpu_clock()
        try:
            try:
                result = _execute(call, env)
            finally:
                dt = cpu_clock() - t0
                if rec is not None:
                    rec.close(root)
            ok = bool(call.check(result))
            if rec is not None:
                ok = _call_consistent(rec, root, call) and ok
        except Exception:
            traceback.print_exc(file=sys.stderr)
        if not ok:
            print(f"perfbench: wrong or failed call: {call.kind}", file=sys.stderr)
        out.append((call.kind, dt, ok))
    return out


def _call_consistent(rec, root: int, call) -> bool:
    """LP solves as constructed, and self times summing to the call's time.

    The call's spans are the root and every span recorded after it.
    """
    import tracing
    ids = range(root, len(rec))
    parents = [None] + [rec.parents[i] - root for i in ids[1:]]
    total = sum(tracing.self_times(rec.starts[root:], rec.ends[root:], parents))
    spent = rec.ends[root] - rec.starts[root]
    ok = abs(total - spent) <= 1e-9 * (1 + spent) * len(ids)
    if not ok:
        print(f"perfbench: {call.kind}: self times add up to {total}, "
              f"the call took {spent}", file=sys.stderr)
    if call.lp_calls is not None:
        lp = sum(1 for i in ids if rec.names[i] == "lp.solve")
        if lp != call.lp_calls:
            print(f"perfbench: {call.kind}: {lp} LP solves, expected {call.lp_calls}",
                  file=sys.stderr)
            ok = False
    return ok


def _more_rounds(start: float, rounds: int, seconds: float, minimum: int) -> bool:
    """Whether to run another round: too few yet, or it ends nearer to ``seconds``."""
    elapsed = time.perf_counter() - start
    return rounds < minimum or elapsed + elapsed / rounds / 2 < seconds


def _tail(durations):
    """The highest percentile with TAIL_BEYOND samples beyond it, and its rank."""
    ordered = sorted(durations)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(calls, seconds, setup_s):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if all(call.invoke is not None for call in calls):
        env = None
    meter = Meter()
    samples = []
    start = time.perf_counter()
    rounds = 0
    while _more_rounds(start, rounds, seconds, MIN_ROUNDS):
        samples += run_round(calls, env, meter)
        rounds += 1
    meter.probe()
    wall = time.perf_counter() - start
    scale = meter.scale
    durations = [dt * meter.local_scale(i) for i, (_, dt, _) in enumerate(samples)]
    failed = sum(1 for _, _, ok in samples if not ok)
    tail, pct = _tail(durations)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    by_kind = {}
    for (kind, _, _), dt in zip(samples, durations):
        by_kind.setdefault(kind, []).append(dt)
    for kind, dts in by_kind.items():
        print(f"# {kind}: n={len(dts)} median={statistics.median(dts):.4f}s")
    print(f"# {len(samples)} calls in {rounds} rounds, {wall:.1f}s wall, "
          f"{sum(dt for _, dt, _ in samples):.1f}s CPU, scale {scale:.3f}; "
          f"p50 of {len(samples)}, tail = p{pct:.1f} ({TAIL_BEYOND} calls beyond)")
    metrics = {
        "verdicts_per_s": _metric((len(samples) - failed) / sum(durations), "1/s"),
        "verdict_s.p50": _metric(statistics.median(durations), "s"),
        "verdict_s.tail": _metric(tail, "s"),
        "ops_ok_ratio": _metric(1 - failed / len(samples), "ratio"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    return len(samples), failed, metrics


def traced_run(calls, seconds, workload):
    """Alternate untraced and traced in-process rounds for about ``seconds``.

    Counts must repeat exactly from one traced round to the next, each
    call's LP solves must match its known count, and the self times of a
    call's spans must add up to the call's time.
    """
    import tracing
    meter = Meter()
    plain_cpu, traced_cpu, rounds, recorders = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while _more_rounds(start, len(rounds), seconds, MIN_TRACED_ROUNDS):
        plain = run_round(calls, None, meter)
        rec = tracing.Recorder()
        saved = tracing.install(rec)
        try:
            traced = run_round(calls, None, meter, rec)
        finally:
            tracing.uninstall(saved)
        plain_cpu.append(sum(dt for _, dt, _ in plain))
        traced_cpu.append(sum(dt for _, dt, _ in traced))
        layer = tracing.layer_metrics(rec, "call")
        if rounds and _counts(layer) != _counts(rounds[0]):
            print("perfbench: counts differ between traced rounds", file=sys.stderr)
            failed += 1
        rounds.append(layer)
        recorders.append(rec)
        for _, _, ok in plain + traced:
            attempted += 1
            failed += not ok

    scale = meter.scale
    metrics = {}
    for name in rounds[0]:
        value = statistics.median(r[name] for r in rounds)
        if name.endswith("_s"):
            metrics[name] = _metric(value * scale, "s")
        elif name.endswith("_ratio"):
            metrics[name] = _metric(value, "ratio")
        else:
            metrics[name] = _metric(value, "B" if name.endswith(".bytes") else "count")
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(traced_cpu) / statistics.median(plain_cpu) - 1, "ratio")
    _write_spans(recorders, workload)
    return attempted, failed, metrics


def _counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if not k.endswith("_s")}


def _write_spans(recorders, workload) -> None:
    """All spans of the traced rounds, one JSON array per line."""
    path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for k, rec in enumerate(recorders):
            for sid in range(len(rec)):
                fh.write(json.dumps([k, sid, rec.parents[sid], rec.names[sid],
                                     rec.starts[sid], rec.ends[sid]]) + "\n")


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sphfan", "__init__.py")):
        print(f"perfbench: no sphfan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setup_s, calls = setup(args.workload, args.seed, workdir)
        if args.trace:
            attempted, failed, metrics = traced_run(calls, args.seconds, args.workload)
        else:
            attempted, failed, metrics = untraced_run(calls, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
