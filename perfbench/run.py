"""ptbands benchmark: three workloads, end-to-end metrics, optional layer trace.

    python3 perfbench/run.py --workload {spectra,solitons,cli-cold,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ptbands is imported from ./src.
One client drives the program in a closed loop: the next operation starts
when the previous one has finished.  Operations run in whole rounds (one
pass over the workload's generated cases) for about S seconds, then every
output is checked.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a run whose first half is untraced and second half traced.
The full record (environment, every operation, failures, sample counts)
is written to .perfbench/results/.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import rounds  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("spectra", "solitons", "cli-cold")
SETUP_PROBES = 7          # extra launches for the set-up median (in-process workloads)
WORKER_LIMIT_S = 170.0    # a run must end within 180 s
TAIL_BEYOND = 10          # op_tail_s: samples that must lie beyond the percentile

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _layer_metrics():
    calls_self = {
        "discretize": ["assemble"],
        "eigen": ["solve", "make_mode"],
        "bands": ["compute_bands", "check_assumption", "second_derivative"],
        "effective": ["extract_effective_model", "gamma_coefficient", "build_ansatz",
                      "sech_envelope"],
        "gpsolve": ["convergence_study", "newton_solve", "gp_residual", "linear_solve"],
        "dirac": ["find_dirac_points", "predict_splitting", "measure_splitting",
                  "splitting_slope", "prop3_scan", "mw_matrix"],
    }
    out = {"import.numpy_scipy_s": "s", "import.ptbands_s": "s"}
    for module, funcs in calls_self.items():
        for fn in funcs:
            out[f"{module}.{fn}.calls"] = "count"
            out[f"{module}.{fn}.self_s"] = "s"
    out.update({
        "eigen.solve.n3_computed": "count",
        "bands.second_derivative.solves_per_call": "ratio",
        "gpsolve.newton_iters": "count",
        "gpsolve.linear_solve.n3_computed": "count",
    })
    for eps in inputs.SOLITON_EPS:
        out[f"gpsolve.newton_solve.self_s.eps{eps:g}"] = "s"
    out.update({
        "cli.main.total_s": "s", "cli.write_csv.self_s": "s", "cli.write_json.self_s": "s",
        "cli.bytes_written": "bytes",
        "trace.op_p50_untraced_s": "s", "trace.op_p50_traced_s": "s",
        "trace.overhead_s": "s", "trace.self_share": "ratio",
    })
    return out


PER_LAYER = _layer_metrics()


class BenchError(Exception):
    """The benchmark itself could not run (not an operation failure)."""


# -- helpers -------------------------------------------------------------
def percentile(values, p):
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it: 100 (1 - 10/n).

    Undefined (None, None) below p50, that is with fewer than 20 samples.
    """
    p = 100.0 * (1 - TAIL_BEYOND / len(values))
    if p < 50.0:
        return None, None
    return p, percentile(values, p)


def known_defect(op):
    """True for the one documented failure of this version (see tasks.py)."""
    return op["kind"] == "known_bad_edge" and op["error"].startswith(inputs.KNOWN_DEFECT)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    return env


def machine_record(seed):
    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "ptbands").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(),
            "PTBANDS_THREADS": os.environ.get("PTBANDS_THREADS"),
            "commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


class Launcher:
    """Starts children, times them to their READY line, and reaps them."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def _remaining(self):
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("time limit reached")
        return left

    def ready(self, args, importtime=False):
        """Launch the worker; return (process, seconds to READY).

        With importtime the worker runs under `-X importtime`; its stderr
        is then read back with stderr_text() after finish().
        """
        self.count += 1
        err = open(self.workdir / f"worker{self.count}.stderr", "w")
        flags = ["-X", "importtime"] if importtime else []
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + flags + [str(HERE / "worker.py")] + args,
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                env=self.env, cwd=ROOT)
        err.close()
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if not line.startswith("READY "):
            self.finish(proc)
            raise BenchError(f"worker did not start: {self._stderr()}")
        payload = json.loads(line[6:])
        if not Path(payload["ptbands_file"]).resolve().is_relative_to(SRC.resolve()):
            self.finish(proc)
            raise BenchError(f"ptbands imported from {payload['ptbands_file']}, not {SRC}")
        return proc, setup

    def finish(self, proc):
        """Wait for a worker; returns its remaining stdout lines."""
        try:
            rest, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {self._stderr()}")
        return rest.splitlines()

    def stderr_text(self):
        return (self.workdir / f"worker{self.count}.stderr").read_text()

    def _stderr(self):
        text = self.stderr_text().strip()
        return text.splitlines()[-1] if text else "(no stderr)"

    def command(self, argv, log, importtime=False):
        """Run one CLI child to its end.

        Returns (exit code, peak RSS in MB, seconds from launch until its
        import of ptbands.cli returned or None, stderr text).
        """
        ready = Path(f"{log}.ready")
        flags = ["-X", "importtime"] if importtime else []
        with open(log, "w") as out, open(f"{log}.err", "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable] + flags + [str(HERE / "cli_child.py"),
                                     "--ready", str(ready)] + argv,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(self._remaining(), proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        setup = float(ready.read_text()) - t0 if ready.exists() else None
        return (proc.returncode, usage.ru_maxrss / 1024.0, setup,
                Path(f"{log}.err").read_text())


def setup_probes(launcher, workload, inputs_file, count, trace):
    """Launch, import and load the inputs `count` times; the first one records ENV.

    Returns (seconds to READY per launch, (numpy/scipy s, ptbands s) per
    launch when traced, ENV record).  Traced probes run under -X importtime.
    """
    samples, imports, env = [], [], None
    for i in range(count):
        args = ["--workload", workload, "--inputs", str(inputs_file), "--probe"]
        proc, setup = launcher.ready(args + (["--env"] if i == 0 else []), importtime=trace)
        for line in launcher.finish(proc):
            if line.startswith("ENV "):
                env = json.loads(line[4:])
        samples.append(setup)
        if trace:
            imports.append(tracer.import_split(launcher.stderr_text()))
    return samples, imports, env


# -- workloads -----------------------------------------------------------
def run_in_process(launcher, workload, inputs_file, workdir, seconds, trace):
    result_file = workdir / "worker_result.json"
    args = ["--workload", workload, "--inputs", str(inputs_file), "--result", str(result_file),
            "--seconds", str(seconds)] + (["--trace"] if trace else [])
    proc, setup = launcher.ready(args)
    launcher.finish(proc)
    result = json.loads(result_file.read_text())
    spans = Path(str(result_file) + ".spans.jsonl")
    traced = result.get("traced", {})
    return {"setup": setup, "ops": result["ops"],
            "elapsed_s": result["untraced"]["elapsed_s"], "rounds": result["untraced"]["rounds"],
            "peak_rss_mb": result["peak_rss_mb"], "layers": traced.get("layers"),
            "traced_rounds": traced.get("rounds"), "spans": spans if spans.exists() else None}


def run_cli_cold(launcher, data, workdir, seconds, trace):
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir()
    for name, spec in data["configs"].items():
        (cfg_dir / f"{name}.json").write_text(json.dumps(spec["config"], indent=2))
    order = data["order"]

    def phase(name, budget, traced):
        def run_one(cfg, n):
            out = workdir / "out" / name / str(n) / cfg
            argv = [data["configs"][cfg]["command"], "--config",
                    str(cfg_dir / f"{cfg}.json"), "--out", str(out)]
            trace_file = workdir / f"trace-{n}-{cfg}.json" if traced else None
            if traced:
                argv = ["--trace-out", str(trace_file)] + argv
            code, rss, setup, stderr = launcher.command(
                argv, workdir / f"{name}-{n}-{cfg}.log", importtime=traced)
            return {"id": cfg, "kind": data["configs"][cfg]["command"], "round": n,
                    "traced": traced, "code": code, "rss": rss, "setup": setup,
                    "stderr": stderr, "out": out, "trace_file": trace_file}

        return rounds.run_rounds(order, run_one, budget)

    budget = seconds / 2 if trace else seconds
    ops, elapsed, n_rounds = phase("untraced", budget, False)
    layers = t_rounds = imports = None
    if trace:
        t_ops, _, t_rounds = phase("traced", budget, True)
        ops += t_ops
        layers, imports = {}, []
        for op in t_ops:
            if not op["trace_file"].exists():    # the child failed; counted below
                continue
            imports.append(tracer.import_split(op["stderr"]))
            for k, v in json.loads(op["trace_file"].read_text()).items():
                layers[k] = layers.get(k, 0) + v

    # checks: exit 0, outputs present, identical inputs give identical bytes
    first = {}
    for op in ops:
        files = sorted(p for p in op["out"].rglob("*") if p.is_file()) if op["out"].exists() else []
        blobs = {p.name: p.read_bytes() for p in files}
        error = None
        if op["code"] != 0:
            error = f"exit code {op['code']}"
        elif not blobs:
            error = "no output files"
        elif op["id"] in first and blobs != first[op["id"]]:
            error = "outputs differ from the first run of the same config"
        first.setdefault(op["id"], blobs)
        op["error"] = error
    peak = max(op["rss"] for op in ops if not op["traced"])
    setups = [op["setup"] for op in ops if not op["traced"] and op["setup"] is not None]
    for op in ops:
        for key in ("out", "trace_file", "rss", "code", "setup", "stderr"):
            op.pop(key)
    return {"ops": ops, "elapsed_s": elapsed, "rounds": n_rounds, "peak_rss_mb": peak,
            "setups": setups, "layers": layers, "traced_rounds": t_rounds,
            "imports": imports, "spans": None}


# -- reporting -----------------------------------------------------------
def per_round_layers(run, untraced_times):
    """Per-layer metrics per round of the traced phase, plus derived ratios.

    Sums are divided by the number of traced rounds, so counts repeat exactly
    from run to run; import times are medians over process launches under
    -X importtime (the traced CLI children on cli-cold, the set-up launches
    elsewhere).
    """
    sums = run["layers"]
    layers = {k: v / run["traced_rounds"] for k, v in sums.items()}
    for i, key in enumerate(("import.numpy_scipy_s", "import.ptbands_s")):
        layers[key] = statistics.median(split[i] for split in run["imports"])
    d2_calls = sums.get("bands.second_derivative.calls", 0)
    layers["bands.second_derivative.solves_per_call"] = (
        sums.get("bands.second_derivative.solves", 0) / d2_calls if d2_calls else 0.0)
    traced = [op["seconds"] for op in run["ops"] if op["traced"]]
    layers["trace.self_share"] = sums.get("roots_s", 0.0) / sum(traced)
    layers["trace.op_p50_untraced_s"] = statistics.median(untraced_times)
    layers["trace.op_p50_traced_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced_times)
    return {name: layers.get(name, 0.0) for name in PER_LAYER}, layers


def measure(workload, seed, seconds, trace):
    """Run one workload; returns the full record."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        data = inputs.GENERATORS[workload](seed)
        inputs_file = workdir / "inputs.json"
        inputs_file.write_text(json.dumps(data))
        launcher = Launcher(workdir, time.perf_counter() + WORKER_LIMIT_S)
        if workload == "cli-cold":
            # set-up is each CLI child's own launch-to-import; the probe only records ENV
            _, _, env = setup_probes(launcher, workload, inputs_file, 1, False)
            run = run_cli_cold(launcher, data, workdir, seconds, trace)
            samples = run["setups"]
        else:
            samples, imports, env = setup_probes(launcher, workload, inputs_file,
                                                 SETUP_PROBES, trace)
            run = run_in_process(launcher, workload, inputs_file, workdir, seconds, trace)
            samples.append(run["setup"])
            run["imports"] = imports
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        if run["spans"] is not None:
            shutil.move(run["spans"], results / f"{workload}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [op for op in run["ops"] if not op["traced"]]
    times = [op["seconds"] for op in untraced]
    failed = [op for op in run["ops"] if op["error"]]
    unexpected = [op for op in failed if not known_defect(op)]
    tail_p, tail_v = tail(times)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_record(seed), "runtime": env,
        "samples": {"setup_launches": len(samples), "ops": len(untraced),
                    "rounds": run["rounds"], "ops_per_round": len(untraced) // run["rounds"],
                    "timed_s": run["elapsed_s"]},
        "metrics": {
            "setup_s": statistics.median(samples),
            "op_p50_s": statistics.median(times),
            "ops_per_s": len(times) / run["elapsed_s"],
            "peak_rss_mb": run["peak_rss_mb"],
        },
        "op_tail": {"percentile": tail_p, "value_s": tail_v},
        "fail_share": len(failed) / len(run["ops"]),
        "attempted": len(run["ops"]), "failed": len(failed),
        "unexpected_failures": len(unexpected),
        "failures": sorted({f"{op['id']}: {op['error']}" for op in failed}),
        "setup_samples_s": samples,
        "ops": run["ops"],
    }
    if trace:
        record["layers"], record["layers_all"] = per_round_layers(run, times)
    (WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return record


def print_summary(rec):
    s = rec["samples"]
    m = rec["metrics"]
    print(f"== {rec['workload']}  seed {rec['seed']}  {s['ops']} ops in {s['rounds']} rounds "
          f"of {s['ops_per_round']}  ({s['timed_s']:.1f} s timed, trace {int(rec['trace'])})")
    print(f"  setup_s      {m['setup_s']:.4f} s     median of {s['setup_launches']} launches")
    print(f"  op_p50_s     {m['op_p50_s']:.4f} s     n={s['ops']}")
    if rec["op_tail"]["percentile"] is None:
        print(f"  op_tail_s    undefined     n={s['ops']}, fewer than 20 samples")
    else:
        p = rec["op_tail"]["percentile"]
        print(f"  op_tail_s    {rec['op_tail']['value_s']:.4f} s     p{p:.1f}, n={s['ops']}")
    print(f"  ops_per_s    {m['ops_per_s']:.4f} 1/s   {s['ops']} ops / {s['timed_s']:.2f} s")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
    print(f"  fail_share   {rec['fail_share']:.4f}       {rec['failed']} of {rec['attempted']}"
          f" ({rec['unexpected_failures']} not known defects)")
    for f in rec["failures"]:
        print(f"    failed: {f}")
    if rec.get("layers"):
        for name, value in rec["layers"].items():
            print(f"  {name:44s} {value:.6g} {PER_LAYER[name]}")
    print("ENV " + json.dumps({**rec["machine"], **(rec["runtime"] or {})}, sort_keys=True))


def result_line(records, trace):
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        if trace:
            for name, value in rec["layers"].items():
                metrics[prefix + name] = {"value": value, "unit": PER_LAYER[name]}
        else:
            for name, value in rec["metrics"].items():
                metrics[prefix + name] = {"value": value, "unit": END_TO_END[name]}
    return {"correct": all(r["unexpected_failures"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ptbands" / "__init__.py").is_file():
        print(f"perfbench: no ptbands sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_summary(rec)
    print(json.dumps(result_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
