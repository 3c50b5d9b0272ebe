"""Reproduce the ROADMAP "Baseline" rows through the benchmark's own code.

    python3 perfbench/baseline.py

Rows: CLI wall time per shipped config (fresh process each, as cli-cold
runs them, but with the unperturbed configs/*.json), import cost, dense
Newton time per eps on the gentle lattice at J = 20 (with the LU and
Newton self time at eps = 0.025 from the span recorder), and compute_bands
(N_k = 32, 6 bands) plus check_assumption with Richardson curvature on
band 3 at J = 32/64/128 on the two-harmonic lattice at gamma = 1.5 (the
lattice whose shipped bands config checks band 3).  Every figure is a
median over REPEATS runs, the Newton rows over NEWTON_REPEATS studies (one
study takes about 8 s).  Prints a Markdown table and writes
.perfbench/results/baseline.json.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (child environment, checkout layout)

REPEATS = 5
NEWTON_REPEATS = 2


def cli_rows(repeats, launcher_env):
    rows = {}
    for cfg in sorted((ROOT / "configs").glob("*.json")):
        command = cfg.stem.split("_")[0]
        times = []
        for i in range(repeats):
            out = run.WORK / "baseline-out" / cfg.stem / str(i)
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), command,
                                   "--config", str(cfg), "--out", str(out)],
                                  env=launcher_env, cwd=ROOT, capture_output=True)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise SystemExit(f"{cfg.name}: exit {proc.returncode}: {proc.stderr[-300:]!r}")
        rows[cfg.stem] = statistics.median(times)
    shutil.rmtree(run.WORK / "baseline-out")
    return rows


def import_rows(repeats, launcher_env):
    probe = ("import time; t0 = time.perf_counter(); import numpy, scipy.linalg; "
             "t1 = time.perf_counter(); import ptbands; t2 = time.perf_counter(); "
             "print(t1 - t0, t2 - t0)")
    np_s, total_s, wall_s = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", probe], env=launcher_env, cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
        wall_s.append(time.perf_counter() - t0)
        np_s.append(float(out[0]))
        total_s.append(float(out[1]))
    return {"numpy_scipy_linalg_s": statistics.median(np_s),
            "ptbands_incl_numpy_s": statistics.median(total_s),
            "process_wall_s": statistics.median(wall_s)}


def newton_rows(repeats):
    import tracer
    from ptbands import constant, convergence_study
    import inputs
    from ptbands.potential import potential_from_json

    V = potential_from_json(inputs.gentle())
    per_eps = {}
    for _ in range(repeats):
        rec = tracer.Tracer()
        rec.install()
        try:
            convergence_study(V, constant(-1.0), 1, "a", inputs.SOLITON_EPS, s=1.0, J=20)
        finally:
            rec.uninstall()
        # walk the spans of each Newton solve: total, LU (linear_solve) and self time
        child_lu = {}
        for name, parent, t0, t1, tags in rec.spans:
            if name == tracer.LINEAR_SOLVE:
                child_lu[parent] = child_lu.get(parent, 0.0) + t1 - t0
        for i, (name, parent, t0, t1, tags) in enumerate(rec.spans):
            if name == "gpsolve.newton_solve":
                row = per_eps.setdefault(tags["eps"], {"iters": tags["iters"], "total_s": [],
                                                       "points": tags["points"], "lu_s": []})
                row["total_s"].append(t1 - t0)
                row["lu_s"].append(child_lu.get(i, 0.0))
    return {f"{eps:g}": {"iters": r["iters"], "points": r["points"],
                         "total_s": statistics.median(r["total_s"]),
                         "lu_s": statistics.median(r["lu_s"])}
            for eps, r in per_eps.items()}


def bands_rows(repeats):
    from ptbands import check_assumption, compute_bands
    from ptbands.potential import potential_from_json
    import inputs

    V = potential_from_json(inputs.two_harmonic(1.5))
    rows = {}
    for J in (32, 64, 128):
        tb, tc = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            bs = compute_bands(V, J, 32, 6)
            t1 = time.perf_counter()
            check_assumption(bs, 3, p=V)
            tc.append(time.perf_counter() - t1)
            tb.append(t1 - t0)
        rows[str(J)] = {"compute_bands_s": statistics.median(tb),
                        "check_band3_s": statistics.median(tc)}
    return rows


def main():
    env = run.child_env()
    record = {"machine": run.machine_record(None), "repeats": REPEATS,
              "newton_repeats": NEWTON_REPEATS,
              "cli_s": cli_rows(REPEATS, env), "import": import_rows(REPEATS, env),
              "bands": bands_rows(REPEATS), "newton": newton_rows(NEWTON_REPEATS)}
    (run.WORK / "results").mkdir(parents=True, exist_ok=True)
    (run.WORK / "results" / "baseline.json").write_text(json.dumps(record, indent=1))
    print("| row | measured |")
    print("|---|---|")
    for name, secs in record["cli_s"].items():
        print(f"| CLI `{name}` | {secs:.2f} s |")
    for name, secs in record["import"].items():
        print(f"| import {name} | {secs:.3f} s |")
    for eps, r in record["newton"].items():
        print(f"| Newton eps={eps} | N={r['points']}, {r['iters']} iters, {r['total_s']:.2f} s "
              f"(LU {r['lu_s']:.2f} s) |")
    for J, r in record["bands"].items():
        print(f"| compute_bands J={J} | {1e3 * r['compute_bands_s']:.0f} ms; "
              f"check band 3 {1e3 * r['check_band3_s']:.0f} ms |")


if __name__ == "__main__":
    main()
