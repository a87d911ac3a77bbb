"""CLI stdout and exit codes pinned byte for byte on the benchmark's documents.

``golden_cli.json`` holds the sha256 of stdout and the exit code of a
fixed set of ``sphfan`` runs: every call of the benchmark's
``cli_twisted`` workload for seeds 1-3, and ``faces``, ``validate
--autocomplete --strict`` and ``invariant`` (without ``--closure``) on
the same documents.  A refactor that changes no verdict and no report
leaves every entry as it is.

To record the file again after a deliberate change of the reports, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile

from sphfan.cli import main

from helpers import load_perfbench

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
SEEDS = (1, 2, 3)


def _runs(seed: int, workdir: str) -> list[tuple[str, ...]]:
    """The argv lists for one seed: each workload call, then the extra runs."""
    load_perfbench("inputs")
    workloads = load_perfbench("workloads")
    argvs = [c.argv for c in workloads.cli_twisted(random.Random(seed), workdir)]
    extra = []
    for argv in argvs:
        if argv[0] == "invariant":
            datum, fan, action = argv[1:4]
            extra.append(("invariant", datum, fan, action))
            pairs = [(datum, fan)]
        elif argv[0] == "--oracle":
            pairs = [argv[2:4]]
        else:
            src, tgt, _, src_fan, tgt_fan = argv[1:6]
            pairs = [(src, src_fan), (tgt, tgt_fan)]
        for datum, fan in pairs:
            extra.append(("faces", datum, fan))
            extra.append(("validate", datum, fan, "--autocomplete", "--strict"))
    return argvs + extra


def _label(seed: int, i: int, argv: tuple[str, ...]) -> str:
    words = [os.path.basename(a) if os.sep in a else a for a in argv]
    return f"seed{seed}/{i:02d} " + " ".join(words)


def _record(seed: int) -> dict[str, dict]:
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for i, argv in enumerate(_runs(seed, workdir)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
            out[_label(seed, i, argv)] = {"exit": code, "sha256": digest}
    return out


def _golden() -> dict[str, dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_reports_match_the_recorded_digests():
    golden = _golden()
    for seed in SEEDS:
        got = _record(seed)
        want = {k: v for k, v in golden.items() if k.startswith(f"seed{seed}/")}
        assert got == want


if __name__ == "__main__":
    table = {}
    for s in SEEDS:
        table.update(_record(s))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} entries to {GOLDEN}")
