"""Command-line front end: JSON config in, CSV/JSON results out.

Commands:  ptbands {bands,effective,ansatz,converge,dirac} --config FILE --out DIR

Each command reads one frozen dataclass below (dirac with m_range reads
Prop3Config); its fields and defaults are the whole config schema.
Exit codes: 0 success, 1 config or usage error, 2 assumption-check or
truncation-check failure (J does not resolve the bands, or a coefficient
list stops too close to the harmonics a scan reads), 3 solver failure or
out of memory;
every non-zero exit prints one stderr line, and a successful run that
raised warnings prints one `warning:` line.
Output is deterministic: floats are written with 17 significant digits,
so identical configs give byte-identical files.
The output directory is made at the first write, so a run that fails
before it has a result leaves none.
A run loads only the numerical modules its command needs: the command's
run, or a config check that needs one, imports them.
"""

import argparse
import json
import sys
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import potential
from .errors import (AssumptionError, ConfigError, ExistenceError, PTBandsError,
                     TruncationError)
from .potential import PeriodicPotential, PotentialParts
from .util import is_int, is_real

FLOAT_FMT = "%.17g"


def _fmt(x):
    return FLOAT_FMT % x if isinstance(x, (float, np.floating)) else str(x)


def _write(path, text):
    """text to path, creating its directory at the first write of a run."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path.parent}: {exc.strerror}") from None
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def write_json(path, obj):
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True, kw_only=True)
class BandsConfig:
    potential: PeriodicPotential
    J: int = 32
    N_k: int = 32
    n_bands: int = 6
    band_index: int = 1

    def __post_init__(self):
        if self.band_index >= self.n_bands:
            raise ConfigError(f"band_index {self.band_index} must be below n_bands {self.n_bands}")


@dataclass(frozen=True, kw_only=True)
class EffectiveConfig:
    """The band edge of effective, ansatz and converge; the sweep computes the
    min(band_index + 3, 2J + 1) lowest bands."""

    potential: PeriodicPotential
    sigma: PeriodicPotential
    J: int = 32
    N_k: int = 32
    band_index: int = 1
    edge: str = "a"

    def __post_init__(self):
        # the bifurcation theorem and its envelope equation hold for a PT-symmetric sigma
        if not potential.validate_pt(self.sigma):
            raise ConfigError("sigma is not PT-symmetric: its Fourier coefficients must be "
                              f"real (|Im c_j| <= {potential.PT_TOL:g})")


@dataclass(frozen=True, kw_only=True)
class AnsatzConfig(EffectiveConfig):
    eps: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        from . import effective
        if not 0 < self.eps <= effective.EPS_MAX:
            raise ConfigError(f"eps = {self.eps} outside (0, {effective.EPS_MAX}]")


@dataclass(frozen=True, kw_only=True)
class ConvergeConfig(EffectiveConfig):
    eps_list: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    s: float = 1.0


@dataclass(frozen=True, kw_only=True)
class DiracConfig:
    potential: PotentialParts
    gamma_list: tuple[float, ...]
    J: int = 32
    n_bands: int = 8


@dataclass(frozen=True, kw_only=True)
class Prop3Config:
    """`dirac` with m_range: the high-ladder scan of dirac.prop3_scan."""

    potential: PotentialParts
    gamma_list: tuple[float, ...]
    m_range: tuple[int, int]
    J: int = 32

    def __post_init__(self):
        lo, hi = self.m_range
        if lo > hi:
            raise ConfigError(f"m_range [{lo}, {hi}] is reversed: "
                              "the first entry must not exceed the last")


_PARSERS = {PeriodicPotential: potential.potential_from_json,
            PotentialParts: potential.parts_from_json}
_SCALARS = {int: ("an integer", is_int), float: ("a finite number", is_real),
            str: ("a string", lambda v: isinstance(v, str))}


def _value(val, kind):
    """val checked against the field annotation kind: lists non-empty with typed
    items (tuple[X, ...] any length, tuple[X, X] exactly two), integers
    positive; a float field's range is its config's or the library's rule."""
    if kind in _PARSERS:
        return _PARSERS[kind](val)
    if get_origin(kind) is tuple:
        item, *rest = get_args(kind)
        n = None if rest == [Ellipsis] else 1 + len(rest)
        if not isinstance(val, list) or not val or n not in (None, len(val)):
            raise ConfigError(f"expected a list of {n or 'one or more'} items")
        return tuple(_value(v, item) for v in val)
    name, ok = _SCALARS[kind]
    if not ok(val):
        raise ConfigError(f"expected {name}")
    if kind is int and val <= 0:
        raise ConfigError("must be positive")
    return float(val) if kind is float else val


def from_json(cls, obj, where):
    """Build the config dataclass cls from a JSON object, checking every key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    spec = {f.name: f for f in fields(cls)}
    unknown = set(obj) - set(spec)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k, f in spec.items() if f.default is MISSING and k not in obj]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    values = {}
    for key, val in obj.items():
        try:
            values[key] = _value(val, spec[key].type)
        except ConfigError as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from None
    return cls(**values)


def read_config(command, obj):
    """The typed config of command; dirac with m_range reads Prop3Config."""
    cls = COMMANDS[command][0]
    if cls is DiracConfig and isinstance(obj, dict) and "m_range" in obj:
        cls = Prop3Config
    return from_json(cls, obj, command)


def _load_config(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def cmd_bands(cfg, out):
    from . import bands
    V, n_bands, m = cfg.potential, cfg.n_bands, cfg.band_index
    bs = bands.compute_bands(V, cfg.J, cfg.N_k, n_bands)
    rows = [(k, mi, w.real, w.imag, q) for mi in range(1, n_bands + 1)
            for k, w, q in zip(bs.k_grid, bs.band(mi), bs.tracking_quality[mi - 1])]
    write_csv(out / "bands.csv",
              ["k", "band_index", "re_omega", "im_omega", "tracking_overlap"], rows)

    reports = [bands.check_assumption(bs, mi, V) for mi in range(1, n_bands + 1)]
    target = reports[m - 1]
    summary = {
        "J": cfg.J, "N_k": cfg.N_k, "n_bands": n_bands, "band_index": m,
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
    bands.require_assumption(target)        # exit 2 with the failing clause, data kept


def cmd_effective(cfg, out):
    """Band-edge model written to effective.json; returns (model, mode) for ansatz."""
    from . import effective
    model, mode = effective.extract_effective_model(
        cfg.potential, cfg.sigma, cfg.band_index, cfg.edge, cfg.J, cfg.N_k)
    write_json(out / "effective.json", model.to_json_dict())
    return model, mode


def cmd_ansatz(cfg, out):
    from . import effective
    from .grid import grid_for_envelope
    model, mode = cmd_effective(cfg, out)
    env = effective.sech_envelope(model)
    grid = grid_for_envelope(cfg.eps, env.width)
    state = effective.build_ansatz(env, mode, cfg.eps, grid)
    rows = [(x, u.real, u.imag) for x, u in zip(grid.x, state.values)]
    write_csv(out / "ansatz.csv", ["x", "re_u", "im_u"], rows)
    write_json(out / "ansatz_summary.json", {
        "eps": cfg.eps, "omega": state.omega, "half_length": grid.half_length,
        "n_points": grid.n_points, "amplitude": env.amplitude, "width": env.width,
    })


def cmd_converge(cfg, out):
    from . import gpsolve
    study = gpsolve.convergence_study(
        cfg.potential, cfg.sigma, cfg.band_index, cfg.edge, cfg.eps_list, s=cfg.s,
        J=cfg.J, N_k=cfg.N_k)
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


def cmd_dirac(cfg, out):
    from . import bands, dirac
    parts, J, gamma_list = cfg.potential, cfg.J, cfg.gamma_list
    records = []
    summary = {"points": [], "slopes": []}

    if isinstance(cfg, Prop3Config):
        lo, hi = cfg.m_range
        records = [r for g in gamma_list for r in dirac.prop3_scan(
            parts.cosine_coeffs, parts.sine_coeffs, g, range(lo, hi + 1), J)]
        summary["points"] = [
            {"mu": r.mu, "coupling_harmonic": r.coupling_harmonic,
             "gamma": r.gamma, "pred_im": r.pred_im,
             "measured_im": r.measured[0].imag, "relative_gap": r.relative_gap}
            for r in records
        ]
    else:
        U = potential.from_parts(replace(parts, gamma=0.0))
        # find_dirac_points reads only k = 0 and 1/2, which the smallest grid holds
        bs0 = bands.compute_bands(U, J, bands.MIN_N_K, cfg.n_bands)
        for dp in dirac.find_dirac_points(bs0):
            plus = {}
            for g in gamma_list:
                V = potential.from_parts(replace(parts, gamma=g))
                measured = dirac.measure_splitting(V, dp.k0, dp.mu, J)
                plus[g] = measured[0]
                records.append(dirac.predict_splitting(dp, parts, g).with_measurement(measured))
            summary["points"].append({"k0": dp.k0, "mu": dp.mu,
                                      "band_pair": list(dp.band_pair)})
            if len(gamma_list) >= 3:
                try:
                    # the Richardson slope reuses the pairs just measured
                    slope = dirac.richardson_slope(plus)
                    coupling = abs(dirac.mw_matrix(dp, parts)[1, 0])
                    summary["slopes"].append({"mu": dp.mu, "k0": dp.k0,
                                              "richardson_slope": slope,
                                              "coupling": coupling})
                except ConfigError as exc:
                    warnings.warn(f"no Richardson slope at mu = {dp.mu:.6g}: {exc}",
                                  stacklevel=2)
    # no relative gap (zero predicted splitting): nan in the CSV, null in JSON
    rows = [(r.k0, r.mu, r.gamma, r.pred_im, r.measured[0].real, r.measured[0].imag,
             np.nan if r.relative_gap is None else r.relative_gap) for r in records]
    write_csv(out / "dirac.csv",
              ["k0", "mu", "gamma", "pred_im", "meas_re_plus", "meas_im_plus", "rel_gap"],
              rows)
    write_json(out / "dirac_summary.json", summary)


# each command's config and its run
COMMANDS = {
    "bands": (BandsConfig, cmd_bands),
    "effective": (EffectiveConfig, cmd_effective),
    "ansatz": (AnsatzConfig, cmd_ansatz),
    "converge": (ConvergeConfig, cmd_converge),
    "dirac": (DiracConfig, cmd_dirac),
}


# a TruncationError is a ConfigError found only by checking a computed result
_EXITS = ((TruncationError, 2, "truncation check failed"),
          (ConfigError, 1, "config error"),
          ((AssumptionError, ExistenceError), 2, "assumption check failed"),
          (PTBandsError, 3, "solver failure"),
          (MemoryError, 3, "out of memory"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a config error: exit 1 with one line, not argparse's exit 2
        raise ConfigError(message)


def main(argv=None):
    parser = _Parser(
        prog="ptbands",
        description="Bloch bands, band-edge envelopes, gap solitons and "
                    "Dirac-point splitting for PT-symmetric periodic potentials.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
        _, run = COMMANDS[args.command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = read_config(args.command, _load_config(args.config))
            run(cfg, Path(args.out))
    except (PTBandsError, MemoryError) as exc:
        code, what = next(e[1:] for e in _EXITS if isinstance(exc, e[0]))
        if getattr(exc, "eps", None) is not None:
            what += f" at eps = {exc.eps}"
        print(f"{what}: {exc}", file=sys.stderr)
        return code
    if caught:
        more = f" (+{len(caught) - 1} more)" if len(caught) > 1 else ""
        print(f"warning: {caught[0].message}{more}", file=sys.stderr)
    if args.verbose:
        print(f"wrote results to {Path(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
