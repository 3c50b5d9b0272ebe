"""Command-line front end: JSON config in, CSV/JSON results out.

Commands:  ptbands {bands,effective,ansatz,converge,dirac} --config FILE --out DIR

Exit codes: 0 success, 1 config error, 2 assumption-check failure,
3 solver failure.  Output is deterministic: floats are written with 17
significant digits, so identical configs give byte-identical files.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bands, dirac, effective, gpsolve, potential
from .errors import (AssumptionError, ConfigError, ExistenceError, NewtonError,
                     PTBandsError)

FLOAT_FMT = "%.17g"


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return FLOAT_FMT % x
    return str(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class _Schema:
    """Strict key checking for one config block."""

    def __init__(self, obj, allowed, required, where):
        if not isinstance(obj, dict):
            raise ConfigError(f"{where}: expected an object")
        unknown = set(obj) - set(allowed)
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
        missing = set(required) - set(obj)
        if missing:
            raise ConfigError(f"{where}: missing keys {sorted(missing)}")
        self.obj = obj
        self.where = where

    def get(self, key, default=None, kind=None, positive=False):
        val = self.obj.get(key, default)
        if val is None:
            return None
        if kind is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{self.where}.{key}: expected an integer")
        elif kind is float:
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"{self.where}.{key}: expected a number")
            val = float(val)
        elif kind is str and not isinstance(val, str):
            raise ConfigError(f"{self.where}.{key}: expected a string")
        elif kind is list and not isinstance(val, list):
            raise ConfigError(f"{self.where}.{key}: expected a list")
        if positive and val <= 0:
            raise ConfigError(f"{self.where}.{key}: must be positive")
        return val


COMMON_KEYS = ("potential", "sigma", "J", "N_k", "n_bands", "tol_real")


def _common(cfg, where, need_sigma=False):
    required = ["potential"] + (["sigma"] if need_sigma else [])
    return _Schema(cfg, COMMON_KEYS + _EXTRA[where], required, where)


_EXTRA = {
    "bands": ("band_index",),
    "effective": ("band_index", "edge", "n_quad"),
    "ansatz": ("band_index", "edge", "n_quad", "eps"),
    "converge": ("band_index", "edge", "eps_list", "s", "newton_max_iter", "newton_tol"),
    "dirac": ("gamma_list", "m_range", "dirac_tol"),
}


def _load_config(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def _tol_real(schema):
    tol = schema.get("tol_real", bands.REALITY_TOL, float, positive=True)
    return tol


def cmd_bands(cfg, out):
    sch = _common(cfg, "bands")
    V = potential.potential_from_json(sch.get("potential"))
    J = sch.get("J", 32, int, positive=True)
    N_k = sch.get("N_k", 32, int, positive=True)
    n_bands = sch.get("n_bands", 6, int, positive=True)
    m = sch.get("band_index", 1, int, positive=True)
    tol_real = _tol_real(sch)

    bs = bands.compute_bands(V, J, N_k, n_bands)
    rows = []
    for mi in range(1, n_bands + 1):
        vals = bs.band(mi)
        for i, k in enumerate(bs.k_grid):
            rows.append((k, mi, vals[i].real, vals[i].imag, bs.tracking_quality[mi - 1, i]))
    write_csv(out / "bands.csv",
              ["k", "band_index", "re_omega", "im_omega", "tracking_overlap"], rows)

    reports = [bands.check_assumption(bs, mi, tol_real, p=V if mi == m else None)
               for mi in range(1, n_bands + 1)]
    target = reports[m - 1]
    summary = {
        "J": J, "N_k": N_k, "n_bands": n_bands, "band_index": m,
        "bands_real": [r.is_real for r in reports],
        "max_im": [r.max_im for r in reports],
        "checked_band": {
            "is_real": target.is_real,
            "isolation_gap": target.isolation_gap,
            "simplicity_margin": target.simplicity_margin,
            "extrema_at_high_symmetry": target.extrema_at_high_symmetry,
            "assumption_ok": target.assumption_ok,
            "edges": [
                # a degenerate edge has no curvature: null, not a bare NaN token
                {"k0": e.k0, "omega_star": e.omega_star, "which": e.which,
                 "curvature": None if np.isnan(e.curvature) else e.curvature,
                 "condition": e.condition}
                for e in target.edges
            ],
        },
    }
    write_json(out / "bands_summary.json", summary)
    return 0 if target.assumption_ok else 2


def _effective_pipeline(sch):
    V = potential.potential_from_json(sch.get("potential"))
    sigma = potential.potential_from_json(sch.get("sigma"))
    J = sch.get("J", 32, int, positive=True)
    N_k = sch.get("N_k", 32, int, positive=True)
    n_bands = sch.get("n_bands", None, int, positive=True)
    n_quad = sch.get("n_quad", None, int, positive=True)
    m = sch.get("band_index", 1, int, positive=True)
    edge = sch.get("edge", "a", str)
    model, mode = effective.extract_effective_model(
        V, sigma, m, edge, J, N_k, n_bands=n_bands, n_quad=n_quad,
        tol_real=_tol_real(sch))
    return V, sigma, model, mode


def cmd_effective(cfg, out):
    sch = _common(cfg, "effective", need_sigma=True)
    _, _, model, _ = _effective_pipeline(sch)
    write_json(out / "effective.json", model.to_json_dict())
    return 0


def cmd_ansatz(cfg, out):
    sch = _common(cfg, "ansatz", need_sigma=True)
    eps = sch.get("eps", 0.1, float, positive=True)
    _, _, model, mode = _effective_pipeline(sch)
    write_json(out / "effective.json", model.to_json_dict())
    env = effective.sech_envelope(model)
    grid = gpsolve.grid_for_envelope(eps, env.width)
    state = effective.build_ansatz(env, mode, eps, grid)
    rows = [(x, u.real, u.imag) for x, u in zip(grid.x, state.values)]
    write_csv(out / "ansatz.csv", ["x", "re_u", "im_u"], rows)
    write_json(out / "ansatz_summary.json", {
        "eps": eps, "omega": state.omega, "half_length": grid.half_length,
        "n_points": grid.n_points, "amplitude": env.amplitude, "width": env.width,
    })
    return 0


def cmd_converge(cfg, out):
    sch = _common(cfg, "converge", need_sigma=True)
    V = potential.potential_from_json(sch.get("potential"))
    sigma = potential.potential_from_json(sch.get("sigma"))
    J = sch.get("J", 24, int, positive=True)
    N_k = sch.get("N_k", 32, int, positive=True)
    m = sch.get("band_index", 1, int, positive=True)
    edge = sch.get("edge", "a", str)
    eps_list = sch.get("eps_list", [0.2, 0.1, 0.05, 0.025], list)
    s = sch.get("s", 1.0, float, positive=True)
    max_iter = sch.get("newton_max_iter", 25, int, positive=True)
    tol = sch.get("newton_tol", 1e-10, float, positive=True)

    study = gpsolve.convergence_study(V, sigma, m, edge, eps_list, s=s, J=J,
                                      N_k=N_k, max_iter=max_iter, tol=tol)
    write_csv(out / "converge.csv",
              ["eps", "L", "n_points", "newton_iters", "residual",
               "hs_error", "hs_error_rel"],
              [(r.eps, r.half_length, r.n_points, r.newton_iters, r.residual,
                r.hs_error, r.hs_error_rel) for r in study.rows])
    write_json(out / "converge_summary.json", {
        "s": study.s,
        "slope": study.slope,
        "slope_stderr": study.slope_stderr,
        "local_slopes": list(study.local_slopes),
        "rel_slope": study.rel_slope,
        "rel_slope_stderr": study.rel_slope_stderr,
        "model": study.model.to_json_dict(),
    })
    return 0


def cmd_dirac(cfg, out):
    sch = _Schema(cfg, ("potential", "J", "N_k", "n_bands") + _EXTRA["dirac"],
                  ("potential", "gamma_list"), "dirac")
    parts = potential.parts_from_json(sch.get("potential"))
    J = sch.get("J", 32, int, positive=True)
    gamma_list = sch.get("gamma_list", None, list)
    if not gamma_list:
        raise ConfigError("dirac: gamma_list must be non-empty")
    rows = []
    summary = {"points": [], "slopes": []}

    if "m_range" in sch.obj:
        m_range = sch.get("m_range", None, list)
        if len(m_range) != 2:
            raise ConfigError("dirac: m_range must be [lo, hi]")
        lo, hi = m_range
        records = []
        for g in gamma_list:
            records += dirac.prop3_scan(parts.cosine_coeffs, parts.sine_coeffs,
                                        float(g), range(int(lo), int(hi) + 1), J)
        for r in records:
            rows.append((r.k0, r.mu, r.gamma, r.pred_im,
                         r.measured[0].real, r.measured[0].imag, r.relative_gap))
        summary["points"] = [
            {"mu": r.mu, "coupling_harmonic": r.coupling_harmonic,
             "gamma": r.gamma, "pred_im": r.pred_im,
             "measured_im": r.measured[0].imag, "relative_gap": r.relative_gap}
            for r in records
        ]
    else:
        N_k = sch.get("N_k", 32, int, positive=True)
        n_bands = sch.get("n_bands", 8, int, positive=True)
        tol = sch.get("dirac_tol", 1e-8, float, positive=True)
        U = potential.from_parts(replace(parts, gamma=0.0))
        bs0 = bands.compute_bands(U, J, N_k, n_bands)
        points = dirac.find_dirac_points(bs0, tol)
        for dp in points:
            for g in gamma_list:
                pred = dirac.predict_splitting(dp, parts, float(g))
                V = potential.from_parts(replace(parts, gamma=float(g)))
                meas = dirac.measure_splitting(V, dp.k0, dp.mu, J)
                pred = pred.with_measurement(meas)
                rows.append((pred.k0, pred.mu, pred.gamma, pred.pred_im,
                             meas[0].real, meas[0].imag,
                             pred.relative_gap if pred.relative_gap is not None else np.nan))
            summary["points"].append({"k0": dp.k0, "mu": dp.mu,
                                      "band_pair": list(dp.band_pair)})
            if len(gamma_list) >= 3:
                try:
                    slope = dirac.splitting_slope(parts, dp, J, tuple(sorted(gamma_list)[:3]))
                    coupling = abs(dirac.mw_matrix(dp, parts)[1, 0])
                    summary["slopes"].append({"mu": dp.mu, "k0": dp.k0,
                                              "richardson_slope": slope,
                                              "coupling": coupling})
                except ConfigError:
                    pass
    write_csv(out / "dirac.csv",
              ["k0", "mu", "gamma", "pred_im", "meas_re_plus", "meas_im_plus", "rel_gap"],
              rows)
    write_json(out / "dirac_summary.json", summary)
    return 0


COMMANDS = {
    "bands": cmd_bands,
    "effective": cmd_effective,
    "ansatz": cmd_ansatz,
    "converge": cmd_converge,
    "dirac": cmd_dirac,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ptbands",
        description="Bloch bands, band-edge envelopes, gap solitons and "
                    "Dirac-point splitting for PT-symmetric periodic potentials.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(args.config)
        code = COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (AssumptionError, ExistenceError) as exc:
        print(f"assumption check failed: {exc}", file=sys.stderr)
        return 2
    except NewtonError as exc:
        where = f" at eps = {exc.eps}" if exc.eps is not None else ""
        print(f"solver failure{where}: {exc}", file=sys.stderr)
        return 3
    except PTBandsError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    if args.verbose:
        print(f"wrote results to {out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
