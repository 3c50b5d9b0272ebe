"""Measuring process of the in-process workloads (spectra, solitons).

    python3 perfbench/worker.py --workload W --inputs FILE --result FILE
                                [--seconds S] [--trace] [--probe] [--env]

Prints 'READY {...}' once ptbands is imported and the inputs are loaded,
which is where the set-up time ends.  ptbands is the first import, so
numpy and scipy load as ptbands loads them.  With --probe it stops there
(the orchestrator launches several probes for the set-up median).  Otherwise it
runs whole rounds of the workload's operations in a closed loop for about
S seconds, checks every output, and writes the raw result to FILE.  With
--trace the first half of the time runs untraced and the second half under
the span recorder.
"""

import ptbands  # first, so nothing the harness imports is in its import time

import argparse
import json
import os
import resource
import sys

import numpy
import scipy

import rounds


def environment():
    """Versions, BLAS build and BLAS thread count of this process."""
    import ctypes
    import platform

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_config": blas.get("openblas configuration"),
            "blas_threads": threads,
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def timed_rounds(workload, seconds):
    """Whole rounds of the workload's operations; an exception fails only its operation."""
    def run_one(task, n):
        try:
            out, error = workload.run(task), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        return {"task": task, "round": n, "out": out, "error": error}

    return rounds.run_rounds(workload.tasks(), run_one, seconds)


def check_all(workload, records):
    for rec in records:
        if rec["error"] is None:
            try:
                rec["error"] = workload.check(rec["task"], rec.pop("out"))
            except Exception as exc:  # a check that cannot run fails the operation
                rec["error"] = f"check raised {type(exc).__name__}: {exc}"
        rec.pop("out", None)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--result")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args()

    import tasks

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    workload = tasks.WORKLOADS[args.workload](inputs) if args.workload in tasks.WORKLOADS else None
    print("READY " + json.dumps({"ptbands_file": ptbands.__file__}), flush=True)
    if args.env:
        print("ENV " + json.dumps(environment()), flush=True)
    if args.probe:
        return 0

    if hasattr(workload, "verify_reference"):
        workload.verify_reference()
    seconds = args.seconds / 2 if args.trace else args.seconds
    records, elapsed, n_rounds = timed_rounds(workload, seconds)
    result = {"untraced": {"elapsed_s": elapsed, "rounds": n_rounds}}
    if args.trace:
        import tracer

        rec = tracer.Tracer()
        rec.install()
        try:
            traced, t_elapsed, t_rounds = timed_rounds(workload, seconds)
        finally:
            rec.uninstall()
        for r in traced:
            r["traced"] = True
        records += traced
        layers = tracer.summarize(rec.spans)
        result["traced"] = {"elapsed_s": t_elapsed, "rounds": t_rounds, "layers": layers}
        rec.write(args.result + ".spans.jsonl")
    check_all(workload, records)
    result["ops"] = [{"id": r["task"]["id"], "kind": r["task"]["kind"], "round": r["round"],
                      "traced": r.get("traced", False), "seconds": r["seconds"],
                      "error": r["error"]} for r in records]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
