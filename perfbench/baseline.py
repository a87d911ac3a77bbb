"""Off-workload figures: the cases too slow for a benchmark round.

    python3 perfbench/baseline.py

Times the complete P1^4 fan (validate_colored_fan and faces_closure), the
cones over the 5- and 6-cube (ranks 6 and 7), and the invariant closure
of B3 (48 elements) on P1^3, each once without tracing.  It then traces
the uncolored P1^3 and P1^4 validations and checks their LP solves
against the construction's count (503 and 3,946).  Prints one JSON object.
"""

from __future__ import annotations

import json
import platform
import random
import sys
import time

import inputs as gen
import run
import tracing
import workloads


def _timed(fn):
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, {"wall_s": time.perf_counter() - w0,
                    "cpu_s": time.process_time() - c0}


def main() -> int:
    sys.path.insert(0, run.SRC)
    from sphfan import galois
    rng = random.Random(0)
    record = {"python": platform.python_version(), "machine": platform.machine()}
    ok = True

    for n in (3, 4):
        f = gen.p1_fan(rng, n, n, 0)
        calls = [workloads._validate_p1(f)] + ([workloads._closure_p1(f)] if n == 4 else [])
        for call in calls:
            result, record[call.kind] = _timed(call.invoke)
            ok &= call.check(result)

        validate = calls[0]
        rec = tracing.Recorder()
        saved = tracing.install(rec)
        try:
            result, t = _timed(validate.invoke)
        finally:
            tracing.uninstall(saved)
        lp = rec.names.count("lp.solve")
        ok &= validate.check(result) and lp == validate.lp_calls
        record[f"{validate.kind} traced"] = dict(
            t, lp_solve_calls=lp, expected=validate.lp_calls,
            cf2_pairs=rec.counts["spherical.cf2_pairs"],
            lp_self_s=tracing.layer_metrics(rec, "call")["lp.solve.self_s"])

    for r in (6, 7):
        call = workloads._faces(gen.cube_cone(rng, r), f"cube r={r}")
        result, record[call.kind] = _timed(call.invoke)
        ok &= call.check(result)

    d, seeds, action = gen.build_twisted(gen.twisted_p1(rng, 3))
    fan, t = _timed(lambda: galois.invariant_closure(action, seeds))
    ok &= len(fan) == 27
    record["B3 invariant_closure P1^3"] = dict(t, cones=len(fan))
    record["correct"] = bool(ok)
    print(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
