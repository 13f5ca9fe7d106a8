"""In-process A/B of one benchmark workload: the working tree against a revision.

    python3 tools/ab.py WORKLOAD --against REV [--rounds K]

``git archive`` extracts REV's ``src/fraclsq`` into a temporary directory, and
both packages are loaded side by side in this process, each with its own
import of ``perfbench/workloads.py`` (no bytecode is written, so ``perfbench/``
and the extracted tree stay as they are).  After each side's warm-up jobs,
every job of the workload's pool runs once per round on each side, the two
runs of a job back to back, with the side that goes first alternating from
job to job and from round to round.  Both sides see the same process, heap
and machine state within a few hundred milliseconds, so a slow spell of the
host weighs on both and a gap of a few percent shows in a minute where
separate benchmark runs drift by tens of percent.

Prints the median and quartiles of the per-job time ratios (working tree /
REV, each job's time summed over the rounds), the pool's total time on each
side, and every job whose finished output differs in bits (floats compared
through their shortest repr, which round-trips).  It exits 1 when any output
differs, so "same bits" is the command's exit status.  It does not replace
the benchmark's own pairs of runs: those also measure set-up, memory and a
fresh process.
"""

import argparse
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "perfbench" / "workloads.py"


def _load(src):
    """The ``workloads`` module imported over the ``fraclsq`` package in
    directory ``src``, with that package's modules then dropped from
    ``sys.modules`` (they stay bound in the returned module's globals)."""
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("fraclsq")
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
        for name in [m for m in sys.modules if m == "fraclsq" or m.startswith("fraclsq.")]:
            del sys.modules[name]
    return module


def _extract(rev, dest):
    """REV's ``src/fraclsq`` under ``dest``; returns (dest / "src", full sha)."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha, "src/fraclsq"], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter where this Python has it (3.10.12 on): paths stay under dest
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                    else {}))
    return Path(dest) / "src", sha


def run(name, rev, rounds, workdir):
    """(sha, ratios, totals, differing): REV's commit, the per-job time ratios
    working tree / REV, each side's total seconds and the ids of the jobs
    whose outputs differ."""
    with tempfile.TemporaryDirectory() as tmp:
        base_src, sha = _extract(rev, tmp)
        sides = {"work": _load(ROOT / "src"), "base": _load(base_src)}
    loads = {side: module.WORKLOADS[name] for side, module in sides.items()}
    pool = list(loads["work"].pool())
    if [sides["work"].spec_digest(s) for _, s in pool] != \
            [sides["base"].spec_digest(s) for _, s in loads["base"].pool()]:
        raise SystemExit(f"{name}: the two sides' job pools differ")
    for w in loads.values():
        for spec in w.warmups():
            w.job(spec, workdir)()

    seconds = {side: [0.0] * len(pool) for side in sides}
    outputs = {side: [None] * len(pool) for side in sides}
    for r in range(rounds):
        for i, (_, spec) in enumerate(pool):
            order = ("work", "base") if (i + r) % 2 == 0 else ("base", "work")
            for side in order:
                w = loads[side]
                job = w.job(spec, workdir)
                t0 = time.perf_counter()
                raw = job()
                seconds[side][i] += time.perf_counter() - t0
                outputs[side][i] = json.dumps(w.finish(spec, raw), sort_keys=True)
    ratios = [a / b for a, b in zip(seconds["work"], seconds["base"])]
    differing = [jid for (jid, _), a, b in zip(pool, outputs["work"], outputs["base"])
                 if a != b]
    return sha, ratios, {side: sum(t) for side, t in seconds.items()}, differing


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    p.add_argument("--against", required=True, metavar="REV",
                   help="the git revision whose src/fraclsq is the base side")
    p.add_argument("--rounds", type=int, default=3,
                   help="times each job runs on each side (default 3)")
    args = p.parse_args(argv)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as workdir:
        sha, ratios, totals, differing = run(args.workload, args.against, args.rounds,
                                             Path(workdir))
    q1, q2, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"{args.workload}: {len(ratios)} jobs x {args.rounds} rounds, working tree "
          f"vs {args.against} ({sha[:12]})")
    print(f"per-job time ratio (working / {args.against}): median {q2:.3f}, "
          f"quartiles {q1:.3f} - {q3:.3f}")
    print(f"pool time: {totals['work']:.2f} s vs {totals['base']:.2f} s "
          f"(ratio {totals['work'] / totals['base']:.3f})")
    print(f"outputs differing in bits: {len(differing)}"
          + "".join(f"\n  {jid}" for jid in differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
