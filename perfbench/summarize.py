"""Aggregate result records into perfbench/baseline.json.

    python3 perfbench/summarize.py

Reads every ``.perfbench/results/*.json`` written by ``run.py`` and reports,
per workload, the median and quartile spread of each metric over the runs,
the traffic shape of the default-seed runs and the ROADMAP baseline
operations measured by the traced runs.
"""

import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED, HELD_OUT_SEED = 1, 9001

#: informal single-run figures from ROADMAP item 1, for comparison
ROADMAP_BASELINE_S = {
    "T8": 0.98, "T9": 0.76, "T1": 0.05, "lsmc_job_10k_paths_60_steps": 0.19,
    "solve_fde_multi_term_ml_n10": 0.77, "solve_fde_multi_term_ml_n14": 2.4,
    "predict_10k_muntz_legendre_n10": 0.92, "predict_10k_monomial_n6": 0.004,
    "fit_discrete_normal_1e6_n6": 1.25,
}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def main():
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / ".perfbench" / "results").glob("*.json"))]
    out = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "environment": None, "workloads": {},
           "roadmap_baseline_note": (
               "raw seconds on the host in 'environment'.  traced_median_s is the "
               "operation's inclusive time in the traced runs (tracing adds a cost per "
               "wrapped call, large for per-point Muntz-Legendre evaluation); "
               "untraced_job_median_s is the untraced wall time of the whole job that "
               "contains it, which for predict_10k_monomial_n6 and "
               "fit_discrete_normal_1e6_n6 is the same 10^6-point fit-and-predict job.  "
               "Few samples back the traced figures, and the 10^6-point fit is much "
               "slower on its first call after other jobs (see README), so compare "
               "ROADMAP with untraced_job_median_s"),
           "roadmap_baseline": {}}
    ops = defaultdict(list)
    untraced_ops = defaultdict(list)
    for wl in sorted({r["workload"] for r in records}):
        mine = [r for r in records if r["workload"] == wl]
        entry = {"why": mine[0]["why"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [r for r in mine if r["trace"] == trace]
            values = defaultdict(list)
            for r in runs:
                for name, m in r["metrics"].items():
                    values[name].append(m["value"])
            entry[key] = {name: spread(v) for name, v in values.items()}
            entry[f"{key}_seeds"] = sorted(r["seed"] for r in runs)
            default = [r for r in runs if r["seed"] == DEFAULT_SEED]
            if default:
                entry[f"traffic_shape_trace{trace}"] = default[0]["traffic_shape"]
                entry[f"stratum_job_s_p50_trace{trace}"] = default[0]["stratum_job_s_p50"]
                out["environment"] = out["environment"] or default[0]["environment"]
            for r in runs:
                for label, op in r.get("baseline_ops", {}).items():
                    ops[label].append(op["median_s"])
                    untraced_ops[label].append(op["untraced_job_median_s"])
        out["workloads"][wl] = entry
    for label, roadmap in ROADMAP_BASELINE_S.items():
        if ops.get(label):
            out["roadmap_baseline"][label] = {
                "roadmap_s": roadmap, "traced_median_s": statistics.median(ops[label]),
                "untraced_job_median_s": statistics.median(untraced_ops[label]),
                "runs": len(ops[label])}
    path = BENCH / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)} from {len(records)} records")


if __name__ == "__main__":
    main()
