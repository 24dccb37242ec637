#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, sets up (several times with
tracing off, reporting the median), runs the workload as a closed loop for S
seconds and prints, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it is a JSON detail record: every metric with its unit, the tail percentile
used, output digests, the environment, and (traced runs) the span
accounting. The same record is written under ``.bench_out/``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
ops twice from the same set-up, first untraced and then traced, each for
S/2 seconds; it reports the per-layer metrics, checks that the traced ops
reproduce the untraced ops' output digests bit for bit, and writes the
spans to ``.bench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def _units(kind):
    """Metric name -> unit, from BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` list: the one place metric names and units are defined."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _with_units(values, units):
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "do not match BENCHMARK.json")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _load_modules():
    """Import the program from this checkout's ``src/`` and nothing else."""
    src = ROOT / "src"
    if not (src / "smrabooth" / "__init__.py").is_file():
        raise ImportError(f"no smrabooth sources under {src}")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import smrabooth
    if Path(smrabooth.__file__).resolve().parent != src / "smrabooth":
        raise ImportError(f"smrabooth imported from {smrabooth.__file__}, not {src}")
    import spans
    import workloads
    return spans, workloads


# -- environment -------------------------------------------------------------------

def _git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(ROOT),
        "src_sha256": h.hexdigest(),
    }


# -- metrics -------------------------------------------------------------------------

def tail(latencies_ms):
    """Latency at the highest percentile with at least TAIL_BEYOND ops above
    it; with fewer ops than that, the smallest (and ``beyond`` says so)."""
    lat = sorted(latencies_ms)
    i = max(0, len(lat) - TAIL_BEYOND - 1)
    return lat[i], {"percentile": 100.0 * (i + 1) / len(lat),
                    "samples": len(lat), "beyond": len(lat) - 1 - i}


def end_to_end(rec, setup_s):
    # no timed op means every op failed: the run is reported incorrect, and
    # its latencies as 0 to keep the result line valid JSON
    lat = [1e3 * s for s in rec.latencies] or [0.0]
    tail_ms, tail_info = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": rec.completed / rec.wall,
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, tail_info


def quality(workload, rec):
    """Output-quality figures over the fixed first ops, so that they repeat
    bit for bit for a seed."""
    out = {"failed_frac": {"value": rec.failed / rec.attempted, "unit": "ratio"}}
    if workload == "generate":
        if rec.first_scores:
            for i, name in enumerate(("subject_similarity", "motion_fidelity",
                                      "temporal_consistency")):
                out[name] = {"value": statistics.fmean(s[i] for s in rec.first_scores),
                             "unit": "cosine"}
    elif rec.first_losses:
        out["loss_tail"] = {"value": statistics.fmean(rec.first_losses[-10:]),
                            "unit": "loss"}
    return out


# -- the run -------------------------------------------------------------------------

def _timed_setups(workloads, workload, seed, size, workdir, repeats):
    times, digests, state = [], [], None
    for r in range(repeats):
        d = os.path.join(workdir, f"setup{r}")
        t = time.perf_counter()
        state, digest = workloads.setup(workload, seed, size, d)
        times.append(time.perf_counter() - t)
        digests.append(digest)
        if r + 1 < repeats:
            shutil.rmtree(d, ignore_errors=True)
    return state, times, digests


def run_benchmark(workload, seed, seconds, trace, size_name="desk", out_root=None):
    """Returns (result, detail): the contract's last line and the detail record."""
    spans, workloads = _load_modules()
    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    size = workloads.SIZES[size_name]
    out_root = Path(out_root or ROOT / ".bench_out")
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root)
    try:
        return _run(spans, workloads, workload, seed, seconds, trace, size,
                    out_root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(spans, workloads, workload, seed, seconds, trace, size, out_root, workdir):
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "size": dataclasses.asdict(size),
              "environment": environment()}
    state, setup_times, setup_digests = _timed_setups(
        workloads, workload, seed, size, workdir, 1 if trace else SETUP_REPEATS)
    setup_s = statistics.median(setup_times)
    problems = []
    if len(set(setup_digests)) != 1:
        problems.append("set-up outputs differ between repeats")

    if not trace:
        rec = workloads.run_phase(workload, state, seconds,
                                  os.path.join(workdir, "ops"))
        e2e, tail_info = end_to_end(rec, setup_s)
        metrics = _with_units(e2e, _units("end_to_end"))
    else:
        # set up again under the tracer: per-layer set-up figures, and a check
        # that tracing leaves the set-up outputs unchanged
        tracer = spans.Tracer()
        traced_dir = os.path.join(workdir, "setup-traced")
        with tracer:
            span = tracer.begin_op("setup")
            try:
                state, traced_setup = workloads.setup(workload, seed, size, traced_dir)
            finally:
                tracer.end_op(span)
        if traced_setup != setup_digests[0]:
            problems.append("traced set-up outputs differ from untraced")
        half = seconds / 2.0
        plain = workloads.run_phase(workload, state, half,
                                    os.path.join(workdir, "ops-plain"))
        setup_spans, tracer.spans = tracer.spans, []
        with tracer:
            rec = workloads.run_phase(workload, state, half,
                                      os.path.join(workdir, "ops-traced"), tracer)
        n = min(len(plain.digests), len(rec.digests))
        if plain.digests[:n] != rec.digests[:n]:
            problems.append("traced ops' output digests differ from untraced")
        e2e, tail_info = end_to_end(plain, setup_s)
        tot = spans.layer_totals(tracer.spans, rec.timed_ops)
        layer = spans.per_layer(tot, len(rec.timed_ops))
        layer["process.cpu_ratio"] = rec.cpu / rec.wall
        layer["trace.overhead"] = (plain.completed / plain.wall) / (rec.completed / rec.wall) - 1.0
        setup_tot = spans.layer_totals(setup_spans, {"setup"})
        for k, v in spans.per_layer(setup_tot, 1).items():
            layer[f"setup.{k}"] = v
        metrics = _with_units(layer, _units("per_layer"))
        detail["end_to_end"] = _with_units(e2e, _units("end_to_end"))
        detail["absent_layers"] = tracer.absent
        detail["missing_entry_points"] = tracer.missing
        detail["accounting"] = spans.accounting(tot)
        detail["digests_compared"] = n
        tracer.write(out_root / f"spans-{workload}.jsonl")
    detail["tail"] = tail_info
    detail["quality"] = quality(workload, rec)
    detail["ops"] = {"attempted": rec.attempted, "failed": rec.failed,
                     "completed": rec.completed, "timed": len(rec.latencies),
                     "wall_s": rec.wall, "gc_collections": rec.gc_collections,
                     "errors": rec.errors}
    detail["setup_times_s"] = setup_times
    detail["digest"] = hashlib.sha256("\n".join([setup_digests[0]] + rec.first_digests)
                                      .encode()).hexdigest()
    detail["problems"] = problems
    correct = rec.failed == 0 and not problems
    result = {"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": metrics}
    detail["metrics"] = result["metrics"]
    return result, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("desk", "tiny"), default="desk",
                   help="tiny: a 16x16x9 smoke size for the benchmark's tests")
    args = p.parse_args(argv)
    # one BLAS thread, set before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    try:
        result, detail = run_benchmark(args.workload, args.seed, args.seconds,
                                       args.trace, args.size)
    except (ImportError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
