"""Record the reference outputs the benchmark's oracle checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every job of each workload's pool once and writes
``perfbench/refs/<workload>.json``: for each job id, a digest of the job's
parameters and its output.  Run it only at the commit whose outputs define
the references, and again whenever a workload's pool changes (a changed
job fails the run with "no reference recorded").
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(name):
    w = workloads.WORKLOADS[name]
    workdir = ROOT / ".perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    pool = dict(w.pool())
    lines = []
    t0 = time.perf_counter()
    for jid, spec in pool.items():
        out = w.finish(spec, w.job(spec, workdir)())
        entry = {"digest": workloads.spec_digest(spec), "out": out}
        lines.append(f"{json.dumps(jid)}: {json.dumps(entry, sort_keys=True)}")
    path = BENCH / "refs" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{name}: {len(lines)} jobs in {time.perf_counter() - t0:.1f} s -> "
          f"{path.relative_to(ROOT)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        record(name)
