"""fraclsq benchmark: one workload, one seed, one measurement window.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload as a closed loop (one caller, no extra threads: the next
job starts when the previous one returns) for whole rounds of its job mix,
stopping at the round boundary nearest ``--seconds``.  Every job's output is
checked against the references in ``perfbench/refs``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
twice, untraced and traced (alternating which goes first), and reports the
per-layer metrics of the traced runs plus the tracing overhead.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, traffic shape, baseline operations) is written to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before the heavy imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("fde_exact", "lsmc", "fit_predict", "cli_reproduce")
#: set-up is timed in this many fresh processes besides the measuring one
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
#: median of calibrate() on the host that defined the benchmark (2 vCPU
#: x86_64 VM, Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31); the kernel is
#: single-threaded, so its wall and CPU times agree on an idle host
CALIBRATION_REF_S = 0.010
#: a job's host-speed factors are medians of this many calibration samples
#: taken around it (one before each job)
CALIBRATION_WINDOW = 9
#: calibration samples taken right after set-up
SETUP_CALIBRATION_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: import, input generation, one warm-up job per job kind
# ---------------------------------------------------------------------------

def setup(name, workdir):
    """Import, job pool, references, and one warm-up job per job kind."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports fraclsq

    w = workloads.WORKLOADS[name]
    pool = dict(w.pool())
    refs = json.loads((BENCH / "refs" / f"{name}.json").read_text(encoding="utf-8"))
    for spec in w.warmups():
        w.job(spec, workdir)()
    return w, pool, refs, workloads.spec_digest


def rounds(w, seed):
    """Endless seeded stream of rounds; each runs every stratum once."""
    import numpy as np

    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(len(w.strata))
        yield [f"{w.strata[i].name}/{int(rng.integers(w.strata[i].variants))}" for i in order]


def probe_setup(name, seed):
    """(raw, host-scaled) set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
         str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------

def calibrate():
    """(wall, CPU) seconds a fixed kernel takes now.

    The kernel mixes what the workloads spend their time in: Fraction
    arithmetic, streaming numpy and tiny linear solves.  It never calls
    fraclsq, so no change to the program moves it, while a slowdown of the
    shared host moves it with the jobs.  Wall times are scaled by
    CALIBRATION_REF_S / (median kernel wall time near the job), CPU times by
    CALIBRATION_REF_S / (median kernel CPU time near the job), so each clock
    is corrected by the same clock.  The kernel's CPU time is that of the
    calling thread: process CPU time would also charge it with BLAS worker
    threads still spinning after the previous job.
    """
    import numpy as np
    from fractions import Fraction

    c0, t0 = time.thread_time(), time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i) * Fraction(3, i + 7)
    a = np.arange(100_000, dtype=float)
    for _ in range(4):
        a = np.sqrt(a * 1.0000001 + 1.0)
    m = np.eye(3) + 0.1
    for _ in range(300):
        np.linalg.solve(m, a[:3])
    return time.perf_counter() - t0, time.thread_time() - c0


def host_scale():
    """Wall-clock host-speed factor right now (for set-up time)."""
    walls = [calibrate()[0] for _ in range(SETUP_CALIBRATION_SAMPLES)]
    return CALIBRATION_REF_S / statistics.median(walls)


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, w, pool, refs, digest, workdir, tracer=None):
        self.w, self.pool, self.refs, self.digest = w, pool, refs, digest
        self.workdir, self.tracer = workdir, tracer
        self.walls, self.cpus, self.traced_walls, self.jids = [], [], [], []
        self.failures, self.attempted = [], 0
        self.round_ends = []  # index into walls/cpus after each round
        self.calib = []  # (wall, CPU) calibration sample taken just before each untraced job
        self.shapes = defaultdict(list)
        self.ops = defaultdict(list)  # (stratum, operation) -> traced inclusive seconds

    def _timed(self, run, traced):
        if traced:
            self.tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            return run(), None, time.perf_counter() - t0, time.process_time() - c0
        except Exception as exc:  # a failed job is counted, the loop goes on
            return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0, 0.0
        finally:
            if traced:
                self.tracer.remove()

    def _verify(self, jid, spec, raw, err):
        """The job's checked output, or None (and a recorded failure)."""
        self.attempted += 1
        out, problems = None, [err] if err else []
        if not err:
            ref = self.refs.get(jid)
            out = self.w.finish(spec, raw)
            if ref is None or ref["digest"] != self.digest(spec):
                problems.append("no reference recorded for this job (re-run record.py)")
            else:
                problems += self.w.check(out, ref["out"])
        if problems:
            self.failures.append({"job": jid, "problems": problems})
            return None
        return out

    def one(self, index, jid):
        spec = self.pool[jid]
        self.jids.append(jid)
        run = self.w.job(spec, self.workdir)
        if self.tracer is None:
            self.calib.append(calibrate())
            raw, err, wall, cpu = self._timed(run, False)
            self.walls.append(wall)
            self.cpus.append(cpu)
            out = self._verify(jid, spec, raw, err)
            if out is not None:
                for key, val in self.w.shape(spec, out).items():
                    self.shapes[key].append(val)
            return
        # paired: untraced and traced, alternating which goes first
        mark = len(self.tracer.log)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            raw, err, wall, _ = self._timed(run, traced)
            (self.traced_walls if traced else self.walls).append(wall)
            out = self._verify(jid, spec, raw, err)
            if traced and out is not None and "bytes" in out:
                self.tracer.counts["cli.bytes_out"] += out["bytes"]
        stratum = jid.split("/")[0]
        for op, dt in self.tracer.log[mark:]:
            self.ops[(stratum, op)].append(dt)

    def scales(self, clock):
        """Host-speed factor of each untraced job for one clock (0 wall,
        1 CPU): the reference calibration time over the median of that
        clock's samples in a window centred on the job."""
        half, n = CALIBRATION_WINDOW // 2, len(self.calib)
        samples = [c[clock] for c in self.calib]
        return [CALIBRATION_REF_S / statistics.median(
                    samples[max(0, min(i - half, n - CALIBRATION_WINDOW)):][:CALIBRATION_WINDOW])
                for i in range(n)]

    def loop(self, stream, seconds):
        start, round_s, index = time.perf_counter(), [], 0
        for rnd in stream:
            t_round = time.perf_counter()
            for jid in rnd:
                self.one(index, jid)
                index += 1
            round_s.append(time.perf_counter() - t_round)
            self.round_ends.append(len(self.walls))
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * statistics.mean(round_s) >= seconds:
                return len(round_s), elapsed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(r, setups, wall_scales, cpu_scales):
    """End-to-end metrics from per-job wall and CPU times.

    Wall and CPU times are multiplied by ``wall_scales`` and ``cpu_scales``
    (one factor per job, all ones for raw seconds).  Throughput and CPU per
    job are medians over the run's rounds, so a transient slowdown of the
    shared host moves them less.
    """
    walls = [w * f for w, f in zip(r.walls, wall_scales)]
    cpus = [c * f for c, f in zip(r.cpus, cpu_scales)]
    bounds = list(zip([0] + r.round_ends[:-1], r.round_ends))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "job_s_p50": (statistics.median(walls), "s"),
        "job_s_p90": (statistics.quantiles(walls, n=10, method="inclusive")[8], "s"),
        "jobs_per_s": (statistics.median((b - a) / sum(walls[a:b]) for a, b in bounds),
                       "1/s"),
        "cpu_s_per_job": (statistics.median(sum(cpus[a:b]) / (b - a) for a, b in bounds),
                          "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": ((r.attempted - len(r.failures)) / r.attempted, "ratio"),
    }


LAYER_COUNTS = {
    "fraccalc": ("calls", "gram_entries"),
    "solvers": ("calls", "errors"),
    "lsq": ("fits", "fit_points", "tensor_bytes", "predict_points"),
    "fracpoly": ("ml_evals",),
    "quadrature": ("rules", "nodes"),
    "orthobasis": ("builds", "point_rungs", "errors"),
    "pricing": ("path_steps",),
    "special": ("calls",),
    "cli": ("bytes_out",),
}
TABLES = ("T1", "T2", "T4", "T6", "T8", "T9", "T10")


def per_layer(r):
    from layertrace import LAYERS

    t = r.tracer
    jobs = len(r.traced_walls)
    c = t.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.self_s[layer] / jobs, "s/job")
        for key in LAYER_COUNTS.get(layer, ()):
            m[f"{layer}.{key}"] = (c[f"{layer}.{key}"] / jobs, "count/job")
    m["lsq.tensor_bytes"] = (c["lsq.tensor_bytes"] / jobs, "B/job")
    m["cli.bytes_out"] = (c["cli.bytes_out"] / jobs, "B/job")
    m["solvers.size_max"] = (c["solvers.size_max"], "count")
    m["pricing.simulate_s"] = (c["pricing.simulate_s"] / jobs, "s/job")
    m["pricing.regression_ratio"] = (_ratio(c["pricing.regressed_dates"],
                                            c["pricing.exercise_dates"]), "ratio")
    m["pricing.itm_share"] = (_ratio(c["pricing.itm_points"], c["pricing.itm_candidates"]),
                              "ratio")
    for table in TABLES:
        times = [dt for (_, op), dts in r.ops.items()
                 if op == f"reproduce.reproduce_{table.lower()}" for dt in dts]
        m[f"reproduce.{table}_s"] = (statistics.median(times) if times else 0.0, "s")
    job_s = sum(r.traced_walls) / jobs
    m["trace.job_s"] = (job_s, "s/job")
    m["bench.self_s"] = (job_s - sum(t.self_s[layer] for layer in LAYERS) / jobs, "s/job")
    m["trace.overhead_ratio"] = (
        statistics.median(r.traced_walls) / statistics.median(r.walls) - 1.0, "ratio")
    return m


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# result record: environment, traffic shape, baseline operations
# ---------------------------------------------------------------------------

def environment(seed):
    import numpy as np
    import scipy

    env = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "seed": seed, "git_commit": git_commit(),
        "src_fraclsq_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                                 for p in sorted((ROOT / "src" / "fraclsq").glob("*.py"))),
    }
    env.update(blas_info())
    return env


def blas_info():
    import ctypes
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        info["blas"] = "unknown"
    threads, libs = None, []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        pass  # not Linux: thread count unknown
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["blas_threads"] = threads
    info["blas_env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS") if k in os.environ}
    return info


def git_commit():
    """Commit of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize_shapes(shapes):
    out = {}
    for key, vals in sorted(shapes.items()):
        if all(isinstance(v, bool) for v in vals):
            out[key] = {"share": sum(vals) / len(vals), "jobs": len(vals)}
        elif all(isinstance(v, (int, float)) for v in vals):
            qs = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            out[key] = {"min": min(vals), "p25": qs[0], "p50": qs[1], "p75": qs[2],
                        "max": max(vals), "mean": statistics.mean(vals), "jobs": len(vals)}
        else:
            out[key] = dict(Counter(vals))
    return out


def trace_shapes(counts):
    sub, gl = counts["shape.fde_rule.substituted_rule"], counts["shape.fde_rule.gauss_legendre"]
    pts = {k.rsplit(".", 1)[1]: v for k, v in counts.items()
           if k.startswith("shape.predict_points.")}
    total = sum(pts.values())
    return {
        "fde_quadrature_route": {"substituted_rule": sub, "gauss_legendre": gl},
        "predict_points_by_basis": pts,
        "muntz_legendre_predict_share": _ratio(pts.get("muntz_legendre", 0), total),
        "lsmc_itm_share": _ratio(counts["pricing.itm_points"], counts["pricing.itm_candidates"]),
        "lsmc_regressed_date_ratio": _ratio(counts["pricing.regressed_dates"],
                                            counts["pricing.exercise_dates"]),
    }


def stratum_medians(jids, walls):
    by_stratum = defaultdict(list)
    for jid, wall in zip(jids, walls):
        by_stratum[jid.split("/")[0]].append(wall)
    return {k: statistics.median(v) for k, v in by_stratum.items()}


def baseline_ops(ops, untraced):
    """Medians of the ROADMAP baseline operations.

    ``median_s`` is the operation's traced inclusive time; tracing adds a
    cost per wrapped call, so ``untraced_job_median_s`` gives the untraced
    wall time of the whole job that contains the operation.
    """
    wanted = {
        "T1": ("reproduce_T1", "reproduce.reproduce_t1"),
        "T8": ("reproduce_T8", "reproduce.reproduce_t8"),
        "T9": ("reproduce_T9", "reproduce.reproduce_t9"),
        "lsmc_job_10k_paths_60_steps": ("t9_lam075", "pricing.price_american_put"),
        "solve_fde_multi_term_ml_n10": ("ml_multi_n10", "fraccalc.solve_fde"),
        "solve_fde_multi_term_ml_n14": ("ml_multi_n14", "fraccalc.solve_fde"),
        "predict_10k_muntz_legendre_n10": ("fq_ml_n10", "lsq.predict"),
        "predict_10k_monomial_n6": ("dn_1e6", "lsq.predict"),
        "fit_discrete_normal_1e6_n6": ("dn_1e6", "lsq.fit_discrete_normal"),
    }
    out = {}
    for label, key in wanted.items():
        if ops.get(key):
            out[label] = {"median_s": statistics.median(ops[key]), "calls": len(ops[key]),
                          "untraced_job_median_s": untraced[key[0]]}
    return out


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fraclsq" / "__init__.py").is_file():
        print(f"error: no fraclsq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w, pool, refs, digest = setup(args.workload, workdir)
        own_setup = time.perf_counter() - _T0
        own_setup = (own_setup, own_setup * host_scale())
        if args.setup_probe:
            print(json.dumps(own_setup))
            return 0
        setups = [own_setup]
        tracer = None
        if args.trace:
            from layertrace import LayerTracer

            tracer = LayerTracer()
        else:
            setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        runner = Runner(w, pool, refs, digest, workdir, tracer)
        n_rounds, elapsed = runner.loop(rounds(w, args.seed), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = len(runner.walls)
    if args.trace:
        metrics, raw_metrics = per_layer(runner), {}
    else:
        scales, cpu_scales = runner.scales(0), runner.scales(1)
        metrics = end_to_end(runner, [scaled for _, scaled in setups], scales, cpu_scales)
        raw_metrics = end_to_end(runner, [raw for raw, _ in setups], [1.0] * jobs,
                                 [1.0] * jobs)
    failed = len(runner.failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n_rounds} rounds, "
          f"{jobs} jobs, {elapsed:.2f} s")
    for name, (value, unit) in metrics.items():
        raw = f"   (raw {raw_metrics[name][0]:.6g})" if name in raw_metrics else ""
        print(f"  {name:<28} {value:.6g} {unit}{raw}")
    print(f"  {'failed_ratio':<28} {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} checked runs; job_s samples: {jobs})")
    for f in runner.failures[:5]:
        print(f"  FAILED {f['job']}: {'; '.join(f['problems'])}")

    record = {
        "workload": args.workload, "why": w.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": n_rounds, "elapsed_s": elapsed, "jobs": jobs,
        "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()},
        "failed_ratio": failed / runner.attempted, "failures": runner.failures,
        "traffic_shape": summarize_shapes(runner.shapes),
    }
    if args.trace:
        record["traffic_shape"].update(trace_shapes(runner.tracer.counts))
        record["baseline_ops"] = baseline_ops(runner.ops, stratum_medians(runner.jids,
                                                                          runner.walls))
    else:
        record["setup_samples_s"] = setups
        record["host_scale"] = {
            clock: {"min": min(f), "median": statistics.median(f), "max": max(f)}
            for clock, f in (("wall", scales), ("cpu", cpu_scales))}
    record["stratum_job_s_p50"] = stratum_medians(runner.jids, runner.walls)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  result record: {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not runner.failures, "attempted": runner.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
