#!/usr/bin/env python3
"""Benchmark one shadowprobe workload: two case pipelines run in turn.

Usage, from the repository root:

    python3 perfbench/run.py --workload flows --seed 1 --seconds 50 --trace 0

One run of the workload runs each of its cases through
``shadowprobe.pipeline.run_pipeline``. The benchmark runs the workload
once to warm up, then repeatedly for ``--seconds`` (at least two timed
runs). Every run is checked: it must not raise, each case must pass its
gates on its report, and the run must write the same output bytes as the
first run of the same inputs.

Set-up is timed in fresh interpreters, two after every run, so that
its median samples the host over the whole measurement as the runs do.

The host's speed drifts by up to 2x over minutes, so ``--trace 0`` also
times a fixed reference computation (``host_probe``, which uses no
shadowprobe code) after every pipeline, and reports ``setup_s``,
``run_s`` and ``cpu_s`` at the reference speed: the median over the
run, times ``PROBE_REF_S`` over the median probe time of the same run.
The raw times are printed on the lines before the result. OpenBLAS runs
one thread, so the process uses one CPU, as the probe does.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of the traced
runs, plus the tracing overhead. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it describe the environment, every run,
and the fastest, median and slowest run. The exit code is 1 when any
check failed and 2 when the program cannot be found.

``--seed`` is the pipeline seed of every case; by default each case uses
its pinned acceptance seed. Traced runs all use that seed, so their
counts must repeat exactly. Untraced runs cycle through ``INPUT_SETS``
sets of inputs, the seed and the seeds ``seed * 100 + j``, so that the
medians average over inputs as well as over the host's noise; every run
of a set must write the same bytes as the first run of that set.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: a second thread on a small
# shared host measures the neighbours, and the probe runs on one CPU.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from tracer import TRACED, Tracer, wrapper_cost_s
from workloads import CHECKS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES_PER_RUN = 2
MIN_TIMED_RUNS = 2
# Untraced runs cycle through this many input sets, so that a result
# averages over inputs: an SVM's training time alone varies by 40%.
INPUT_SETS = 4
# Median host_probe time on the reference machine (2 vCPUs, Python 3.11,
# numpy 2.4); the reported times are scaled to a host this fast.
PROBE_REF_S = 0.21

# A fresh interpreter imports the package and validates the run's configs.
SETUP_CODE = ("import json, sys; import shadowprobe; "
              "from shadowprobe.pipeline import PipelineConfig; "
              "[PipelineConfig.from_dict(c) for c in json.loads(sys.argv[1])]")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "svm.smo_train.calls": "count",
    "svm.smo_train.self_s": "s",
    "svm.kernel_matrix.self_s": "s",
    "svm.kernel_matrix.bytes_computed": "B",
    "svm.smo_train.converged_share": "ratio",
    "svm.smo_train.support_vectors": "count",
    "core.RandomSource.integers.calls": "count",
    "core.numeric_matrix.self_s": "s",
    "hmm.train_acoustic_model.calls": "count",
    "hmm.train_acoustic_model.self_s": "s",
    "hmm.viterbi_train.calls": "count",
    "hmm.viterbi_train.self_s": "s",
    "mlp.backprop_train.calls": "count",
    "mlp.backprop_train.self_s": "s",
    "mlp.epochs_run": "count",
    "mlp.crystallized_share": "ratio",
    "kmeans.kmeans_train.self_s": "s",
    "kmeans.sulq_kmeans_train.self_s": "s",
    "kmeans.kmeans_train.iterations": "count",
    "kmeans.sulq_kmeans_train.iterations": "count",
    "kmeans.sulq_kmeans_train.converged_share": "ratio",
    "dtree.train_tree.calls": "count",
    "dtree.train_tree.self_s": "s",
    "dtree.train_tree.rows": "count",
    "dtree.classify.calls": "count",
    "dtree.classify.self_s": "s",
    "dtree.nodes": "count",
    "datagen.gen_flow_dataset.self_s": "s",
    "datagen.gen_speech_corpus.self_s": "s",
    "attack.extract_features.self_s": "s",
    "attack.build_meta_training_set.self_s": "s",
    "attack.infer_property.self_s": "s",
    "attack.kl_divergence_scores.self_s": "s",
    "metrics.k_fold_cross_validate.self_s": "s",
    "serialize.save_model.self_s": "s",
    "serialize.save_model.bytes": "B",
    "serialize.save_report.self_s": "s",
    "pipeline.run_pipeline.self_s": "s",
    "trace.overhead_s": "s",
}


def host_probe() -> tuple:
    """Time a fixed computation that shares no code with shadowprobe.

    It mixes, in about equal parts, the program's kinds of work: numpy
    calls on 3- and 8-element vectors (interpreter-bound), arithmetic on
    arrays of a few MB (cache-bound) and passes over a 32 MB matrix
    (memory-bound). Returns (wall s, CPU s).
    """
    import numpy as np

    w, x, a, big, v = _probe_inputs()
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(12_000):
        x = np.tanh(w @ x)[:3] * 0.5
    for _ in range(16):
        np.exp(-((a[:, None, :5] - a[None, :, :5]) ** 2).sum(-1))
    for _ in range(6):
        (big @ v).sum() + big.sum()
    return time.perf_counter() - t0, time.process_time() - c0


@functools.cache
def _probe_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return (rng.random((8, 3)), rng.random(3), rng.random((300, 50)),
            rng.random((2000, 2000)), rng.random(2000))


def steal_ticks():
    """Machine-wide CPU steal ticks so far, from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def blas_threads():
    """Thread count OpenBLAS uses, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
    }


def measure_setup(configs: list) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_PROBES_PER_RUN):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(configs)],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def cpu_seconds() -> float:
    """User+sys CPU of this process (all threads) and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Runs cases one after the other, as one timed run, and checks the output."""

    def __init__(self, cases, scale: str, seed, work_dir: Path, workload=None, inputs: int = 1):
        from shadowprobe import pipeline

        self.pipeline = pipeline
        # Run i uses input set i % inputs; set 0 is the seed itself, set j
        # the pipeline seed seed * 100 + j.
        seeds = [c.pinned_seed if seed is None else seed for c in cases]
        self.input_sets = [
            [dict(c.config(scale), seed=s if j == 0 else s * 100 + j) for c, s in zip(cases, seeds)]
            for j in range(inputs)]
        self.configs = self.input_sets[0]
        self.gates = [c.gate(scale) for c in cases]
        self.workload = workload  # if given, traced runs must match its busy/idle layers
        self.work_dir = work_dir
        self.reference = {}  # input set -> digest of the first output of that set
        self.runs = []  # one record per attempted run

    def run(self, traced: bool, probe: bool = False) -> dict:
        """Run every case once, traced or not, and check the output.

        With ``probe``, host_probe runs after each case, outside the timing;
        ``probes`` holds the probes made after the run.
        """
        out = self.work_dir / f"run{len(self.runs)}"
        inputs = len(self.runs) % len(self.input_sets)
        record = {"traced": traced, "inputs": inputs, "problems": [], "probes": []}
        tracer = Tracer() if traced else None
        s0 = steal_ticks()
        try:
            cfgs = [self.pipeline.PipelineConfig.from_dict(dict(c, out_dir=str(out / c["case"])))
                    for c in self.input_sets[inputs]]
            reports, record["run_s"], record["cpu_s"] = [], 0.0, 0.0
            with tracer or contextlib.nullcontext():
                for cfg in cfgs:
                    c0, t0 = cpu_seconds(), time.perf_counter()
                    reports.append(self.pipeline.run_pipeline(cfg))
                    record["run_s"] += time.perf_counter() - t0
                    record["cpu_s"] += cpu_seconds() - c0
                    if probe:
                        record["probes"].append(host_probe())
            for cfg, gate, report in zip(cfgs, self.gates, reports):
                record["problems"] += [f"{cfg.case}: {p}" for p in CHECKS[cfg.case](report, gate)]
            digest = digest_dir(out)
            if self.reference.setdefault(inputs, digest) != digest:
                record["problems"].append("output bytes differ from the first run of its inputs")
            if tracer is not None:
                record["tracer"] = tracer
                record["reports"] = reports
                if self.workload is not None:
                    record["problems"] += coverage_problems(self.workload, tracer)
        except Exception as exc:  # a failed run is counted, and the benchmark goes on
            traceback.print_exc()
            record["problems"].append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        s1 = steal_ticks()
        record["steal_ticks"] = None if s0 is None or s1 is None else s1 - s0
        self.runs.append(record)
        return record


def coverage_problems(workload, tracer) -> list:
    """A layer expected to be busy must record calls; an idle one none."""
    calls = tracer.module_calls()
    problems = [f"layer {m} expected busy but recorded no calls"
                for m in workload.busy if calls[m] == 0]
    problems += [f"layer {m} expected idle but recorded {calls[m]} calls"
                 for m in workload.idle if calls[m] != 0]
    unplanned = set(calls) - set(workload.busy) - set(workload.idle)
    problems += [f"layer {m} is neither busy nor idle on {workload.name}" for m in unplanned]
    return problems


def layer_values(tracer, reports) -> dict:
    """All per-layer values of one traced run, except trace.overhead_s."""
    values = {}
    for module, path in TRACED:
        name = f"{module}.{path}"
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_s[name]
    values.update(tracer.counts)
    for name, done in (("svm.smo_train", "svm.smo_train.converged"),
                       ("kmeans.sulq_kmeans_train", "kmeans.sulq_kmeans_train.converged")):
        calls = tracer.calls[name]
        values[f"{name}.converged_share"] = tracer.counts[done] / calls if calls else 0.0
    mlp = [r for r in reports if r["case"] == "mlp_demo"]
    values["mlp.crystallized_share"] = (
        mlp[0]["successful_seeds"] / len(mlp[0]["runs"]) if mlp else 0.0)
    return values


def probe_medians(runs) -> tuple:
    """Median wall and CPU time of the host probes made in the runs."""
    probes = [p for r in runs for p in r["probes"]]
    return (statistics.median(p[0] for p in probes), statistics.median(p[1] for p in probes))


def summarise(runs, setup_times, peak_rss_mb: float, trace: bool):
    """Metrics from the runs without problems; runs[0] is the warm-up."""
    timed = [r for r in runs[1:] if not r["problems"]]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (trace and not traced):
        return {}, ["no timed run completed without a problem"]
    problems = []
    if not trace:
        probe_s, probe_cpu_s = probe_medians(plain)
        metrics = {
            "setup_s": statistics.median(setup_times) * PROBE_REF_S / probe_s,
            "run_s": statistics.median(r["run_s"] for r in plain) * PROBE_REF_S / probe_s,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain) * PROBE_REF_S / probe_cpu_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        per_run = [layer_values(r["tracer"], r["reports"]) for r in traced]
        exact = [{k: v for k, v in values.items() if not k.endswith("_s")} for values in per_run]
        if any(e != exact[0] for e in exact[1:]):
            problems.append("traced counts differ between runs of the same inputs")
        metrics = {}
        for name in PER_LAYER_UNITS:
            if name == "trace.overhead_s":
                # Traced calls of one run times the cost of one wrapper,
                # measured here: the difference of traced and untraced
                # run times is mostly the host's noise.
                metrics[name] = sum(traced[0]["tracer"].calls.values()) * wrapper_cost_s()
            elif name.endswith("_s"):
                metrics[name] = statistics.median(v[name] for v in per_run)
            else:
                metrics[name] = per_run[0].get(name, 0)
        units = PER_LAYER_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, problems


def timing_summary(runs) -> dict:
    """Sample count, fastest, median and slowest of each raw timing."""
    out = {}
    probes = [p for r in runs[1:] for p in r["probes"]]
    for i, key in enumerate(("probe_s", "probe_cpu_s")):
        values = [p[i] for p in probes]
        if values:
            out[key] = {"n": len(values), "min": min(values),
                        "median": statistics.median(values), "max": max(values)}
    for traced in (False, True):
        for key in ("run_s", "cpu_s"):
            values = [r[key] for r in runs[1:] if r["traced"] == traced and key in r]
            if values:
                out[f"{'traced_' if traced else ''}{key}"] = {
                    "n": len(values), "min": min(values),
                    "median": statistics.median(values), "max": max(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "shadowprobe" / "__init__.py").is_file():
        print(f"perfbench: no shadowprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    steal_start = steal_ticks()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        runner = Runner(workload.cases, "bench", args.seed, Path(tmp), workload,
                        inputs=1 if args.trace else INPUT_SETS)
        setup_configs = [dict(c, out_dir="out") for c in runner.configs]
        setup_times = []
        runner.run(traced=False)
        # The peak of the warm-up run, before the probe's arrays add to it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        start = last = time.perf_counter()
        while True:
            setup_times += measure_setup(setup_configs)
            if not args.trace:  # one more probe per run, between set-up and the next run
                runner.runs[-1]["probes"].append(host_probe())
            timed = runner.runs[1:]
            n_traced = sum(r["traced"] for r in timed)
            enough = len(timed) - n_traced >= MIN_TIMED_RUNS and (
                not args.trace or n_traced >= MIN_TIMED_RUNS)
            now = time.perf_counter()
            # Stop before a run that would likely end past --seconds.
            if enough and now + (now - last) - start > args.seconds:
                break
            last = now
            runner.run(traced=bool(args.trace) and len(timed) % 2 == 1, probe=not args.trace)
    steal_end = steal_ticks()

    runs = runner.runs
    failed = sum(bool(r["problems"]) for r in runs)
    metrics, problems = summarise(runs, setup_times, peak_rss_mb, bool(args.trace))
    env = environment()
    env["steal_ticks"] = None if steal_start is None else steal_end - steal_start
    print(json.dumps({"workload": workload.name, "configs": runner.configs, "environment": env}))
    for i, r in enumerate(runs):
        print(json.dumps({"run": i, "traced": r["traced"], "inputs": r["inputs"],
                          "run_s": r.get("run_s"),
                          "cpu_s": r.get("cpu_s"), "probes": r["probes"],
                          "steal_ticks": r["steal_ticks"],
                          "problems": r["problems"]}))
    print(json.dumps({"timings": timing_summary(runs), "setup_s": setup_times}))
    traced = [r for r in runs if "tracer" in r]
    if traced:
        tracer = traced[0]["tracer"]
        print(json.dumps({"binding_sites": tracer.sites, "functions": {
            f"{m}.{p}": {k: getattr(tracer, k)[f"{m}.{p}"] for k in ("calls", "self_s", "total_s")}
            for m, p in TRACED}}))
    for name, m in metrics.items():
        print(f"{workload.name:10s} {name:45s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    correct = not failed and not problems
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
