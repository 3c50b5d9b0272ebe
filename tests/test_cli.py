import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbands import PotentialParts, assemble, bands, eigen, from_parts, gpsolve, solve
from ptbands.cli import (AnsatzConfig, BandsConfig, ConvergeConfig, DiracConfig,
                         EffectiveConfig, Prop3Config, main)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(tmp_path, command, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / ("out_" + name.removesuffix(".json"))
    code = main([command, "--config", str(path), "--out", str(out)])
    return code, out


def call(argv):
    """Exit code and captured stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_captured(tmp_path, command, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / ("out_" + name.removesuffix(".json"))
    code, err = call([command, "--config", str(path), "--out", str(out)])
    return code, err, out


def two_harmonic_cfg(gamma, band_index, n_bands=5):
    return {
        "potential": {"cosine": [2.0, 1.0], "sine": [0.0, 1.0], "gamma": gamma,
                      "convention": "prop2"},
        "J": 24, "N_k": 32, "n_bands": n_bands, "band_index": band_index,
    }


def gentle_cfg(**extra):
    cfg = {
        "potential": {"cosine": [1.0], "sine": [1.0], "gamma": 0.5,
                      "convention": "prop2"},
        "sigma": {"exp_coeffs": [[0, -1.0, 0.0]]},
        "J": 16, "N_k": 32, "band_index": 1, "edge": "a",
    }
    cfg.update(extra)
    return cfg


class TestBandsCommand:
    def test_gamma1_reports_real_bands(self, tmp_path):
        code, out = run(tmp_path, "bands", two_harmonic_cfg(1.0, 1, n_bands=3))
        assert code == 0
        summary = json.loads((out / "bands_summary.json").read_text())
        assert summary["bands_real"] == [True, True, True]
        header = (out / "bands.csv").read_text().splitlines()[0]
        assert header == "k,band_index,re_omega,im_omega,tracking_overlap"

    def test_gamma15_band3_edges(self, tmp_path):
        code, out = run(tmp_path, "bands", two_harmonic_cfg(1.5, 3))
        assert code == 0
        summary = json.loads((out / "bands_summary.json").read_text())
        assert summary["bands_real"][:2] == [False, False]
        assert summary["bands_real"][2] is True
        edges = {e["which"]: e for e in summary["checked_band"]["edges"]}
        assert edges["a"]["k0"] == 0.0 and edges["b"]["k0"] == 0.5

    def test_free_potential_isolation_failure_exit2(self, tmp_path):
        cfg = {"potential": {"exp_coeffs": []}, "J": 12, "N_k": 32,
               "n_bands": 4, "band_index": 1}
        code, out = run(tmp_path, "bands", cfg)
        assert code == 2
        assert (out / "bands.csv").exists()   # data still emitted
        # the k0 = 1/2 edge is degenerate: its curvature is null in strict JSON
        text = (out / "bands_summary.json").read_text()
        edges = json.loads(text, parse_constant=pytest.fail)["checked_band"]["edges"]
        assert {e["k0"]: e["curvature"] for e in edges} == {0.0: 2.0, 0.5: None}

    def test_assumption_failure_one_line(self, tmp_path):
        cfg = {"potential": {"exp_coeffs": []}, "J": 12, "N_k": 32, "n_bands": 4,
               "band_index": 1}
        code, err, out = run_captured(tmp_path, "bands", cfg)
        assert code == 2 and err.startswith("assumption check failed: band 1")
        assert len(err.splitlines()) == 1 and (out / "bands_summary.json").exists()

    def test_unresolving_truncation_exit2_one_line(self, tmp_path):
        # J = 4 used to exit 0 with assumption_ok and eigenvalues 2.8e-2 off
        cfg = shipped("bands_two_harmonic_gamma15", ("J",), 4)
        code, err, out = run_captured(tmp_path, "bands", cfg)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith("truncation check failed: J = 4 ") and "J = 16" in err
        assert not (out / "bands_summary.json").exists()

    def test_unknown_key_exit1(self, tmp_path):
        cfg = two_harmonic_cfg(1.0, 1)
        cfg["unexpected"] = 1
        code, _ = run(tmp_path, "bands", cfg)
        assert code == 1

    def test_determinism(self, tmp_path):
        _, out1 = run(tmp_path, "bands", two_harmonic_cfg(1.5, 3), name="a.json")
        first = (out1 / "bands.csv").read_bytes()
        _, out2 = run(tmp_path, "bands", two_harmonic_cfg(1.5, 3), name="b.json")
        assert (out2 / "bands.csv").read_bytes() == first

    def test_band_index_above_n_bands_exit1_before_solving(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bands, "compute_bands", lambda *args: pytest.fail("solved"))
        code, err, out = run_captured(tmp_path, "bands", two_harmonic_cfg(1.0, 6, n_bands=5))
        assert code == 1 and "band_index" in err
        assert len(err.splitlines()) == 1 and not out.exists()

    def test_edge_condition_reported(self, tmp_path):
        code, out = run(tmp_path, "bands", two_harmonic_cfg(1.5, 3))
        assert code == 0
        edges = json.loads((out / "bands_summary.json").read_text())["checked_band"]["edges"]
        for e in edges:
            assert set(e) == {"k0", "omega_star", "which", "curvature", "condition"}
            assert 1.0 <= e["condition"] < 1e3


class TestEffectiveCommand:
    def test_gentle_model(self, tmp_path):
        code, out = run(tmp_path, "effective", gentle_cfg())
        assert code == 0
        model = json.loads((out / "effective.json").read_text())
        assert model["exists"] is True
        assert model["k0"] == 0.0 and model["Omega"] == -1
        assert abs(model["gamma_im"]) <= 1e-8

    def test_sign_violating_edge_informative_exit0(self, tmp_path):
        cfg = gentle_cfg()
        cfg["sigma"] = {"exp_coeffs": [[0, 1.0, 0.0]]}   # wrong sign at edge a
        code, out = run(tmp_path, "effective", cfg)
        assert code == 0
        model = json.loads((out / "effective.json").read_text())
        assert model["exists"] is False

    def test_assumption_failure_exit2(self, tmp_path):
        cfg = gentle_cfg()
        cfg["potential"] = {"exp_coeffs": []}
        code, _ = run(tmp_path, "effective", cfg)
        assert code == 2

    def test_gamma15_band3_exists_flag_matches_signs(self, tmp_path):
        cfg = two_harmonic_cfg(1.5, 3)
        cfg.update({"sigma": {"exp_coeffs": [[0, -1.0, 0.0]]}, "edge": "a"})
        code, out = run(tmp_path, "effective", cfg)
        assert code == 0
        model = json.loads((out / "effective.json").read_text())
        import numpy as np
        signs_ok = (np.sign(model["gamma_re"]) == np.sign(model["Omega"])
                    == -np.sign(model["curvature"]))
        assert model["exists"] == bool(signs_ok and model["gamma_re"] != 0)
        assert model["k0"] == 0.0 and model["Omega"] == -1


class TestAnsatzCommand:
    def test_emits_field_and_summary(self, tmp_path):
        code, out = run(tmp_path, "ansatz", gentle_cfg(eps=0.1))
        assert code == 0
        rows = (out / "ansatz.csv").read_text().splitlines()
        assert rows[0] == "x,re_u,im_u"
        summary = json.loads((out / "ansatz_summary.json").read_text())
        assert summary["eps"] == 0.1
        assert summary["n_points"] == len(rows) - 1

    def test_nonexistent_envelope_exit2(self, tmp_path):
        cfg = gentle_cfg(eps=0.1)
        cfg["sigma"] = {"exp_coeffs": [[0, 1.0, 0.0]]}
        code, _ = run(tmp_path, "ansatz", cfg)
        assert code == 2

    def test_eps_above_half_rejected_before_output(self, tmp_path):
        cfg = shipped("ansatz_gentle", ("eps",), 0.7)
        code, err, out = run_captured(tmp_path, "ansatz", cfg)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")
        assert not out.exists()


class TestConvergeCommand:
    def test_short_study(self, tmp_path):
        code, out = run(tmp_path, "converge", gentle_cfg(eps_list=[0.2, 0.1]))
        assert code == 0
        summary = json.loads((out / "converge_summary.json").read_text())
        assert summary["slope"] >= 1.0
        assert summary["local_slopes"] == [pytest.approx(summary["slope"])]
        lines = (out / "converge.csv").read_text().splitlines()
        assert lines[0] == "eps,L,n_points,newton_iters,residual,hs_error,hs_error_rel"
        assert len(lines) == 3

    def test_single_eps_slope_null(self, tmp_path):
        code, out = run(tmp_path, "converge", gentle_cfg(eps_list=[0.1]))
        assert code == 0
        summary = json.loads((out / "converge_summary.json").read_text())
        assert summary["slope"] is None
        assert summary["local_slopes"] == []

    def test_newton_divergence_exit3(self, tmp_path, capsys):
        code, _ = run(tmp_path, "converge",
                      gentle_cfg(eps_list=[0.2], newton_max_iter=1))
        assert code == 3
        assert "eps = 0.2" in capsys.readouterr().err

    def test_preconditioner_failure_exit3_one_line(self, tmp_path, monkeypatch):
        # every Floquet-Bloch block has 1-norm condition >= 1, so each one fails
        monkeypatch.setattr(gpsolve, "BLOCK_COND_MAX", 0.5)
        code, err, _ = run_captured(tmp_path, "converge", gentle_cfg(eps_list=[0.2]))
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith("solver failure at eps = 0.2: preconditioner block 0 of ")

    @pytest.mark.parametrize("eps_list", [[0.2, 0.2], [], ["a"], [-0.1, 0.1], [True, 0.1],
                                          [0.1, 0.6], [0.1, float("nan")]])
    def test_degenerate_eps_list_exit1(self, tmp_path, capsys, eps_list):
        code, out = run(tmp_path, "converge", gentle_cfg(eps_list=eps_list))
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (out / "converge.csv").exists()

    @pytest.mark.parametrize("s", [3, 2.5, -1.0, 0, float("nan"), float("inf"), True])
    def test_s_outside_0_2_exit1(self, tmp_path, s):
        code, err, out = run_captured(tmp_path, "converge", gentle_cfg(eps_list=[0.2], s=s))
        assert code == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (out / "converge.csv").exists()


class TestDiracCommand:
    def test_sin2x_row(self, tmp_path):
        cfg = {"potential": {"sine": [0.0, 1.0], "gamma": 0.2, "convention": "prop2"},
               "J": 24, "N_k": 32, "n_bands": 6, "gamma_list": [0.2]}
        code, out = run(tmp_path, "dirac", cfg)
        assert code == 0
        lines = (out / "dirac.csv").read_text().splitlines()
        assert lines[0] == "k0,mu,gamma,pred_im,meas_re_plus,meas_im_plus,rel_gap"
        rows = [line.split(",") for line in lines[1:]]
        near1 = [r for r in rows if abs(float(r[1]) - 1.0) < 1e-9]
        assert len(near1) == 1
        assert float(near1[0][3]) == pytest.approx(0.1)
        assert float(near1[0][6]) <= 0.1

    def test_gamma_sweep_slope(self, tmp_path):
        cfg = {"potential": {"sine": [0.0, 1.0], "gamma": 0.0, "convention": "prop2"},
               "J": 24, "N_k": 32, "n_bands": 6, "gamma_list": [0.01, 0.02, 0.04]}
        code, out = run(tmp_path, "dirac", cfg)
        assert code == 0
        summary = json.loads((out / "dirac_summary.json").read_text())
        slopes = {s["mu"]: s for s in summary["slopes"]}
        s1 = slopes[1.0]
        assert abs(s1["richardson_slope"] - s1["coupling"]) / s1["coupling"] <= 0.02

    def test_skipped_slopes_make_one_warning_line(self, tmp_path):
        # the first three sorted gammas are not in ratio 1:2:4: no Richardson slope
        cfg = shipped("dirac_sin2x", ("gamma_list",), [0.01, 0.03, 0.04])
        code, err, out = run_captured(tmp_path, "dirac", cfg)
        assert code == 0
        assert len(err.splitlines()) == 1
        assert err.startswith("warning: no Richardson slope at mu = ") and "1:2:4" in err
        assert json.loads((out / "dirac_summary.json").read_text())["slopes"] == []

    def test_determinism(self, tmp_path):
        cfg = {"potential": {"sine": [0.0, 1.0], "gamma": 0.2, "convention": "prop2"},
               "J": 20, "N_k": 32, "n_bands": 6, "gamma_list": [0.2]}
        _, out1 = run(tmp_path, "dirac", cfg, name="d1.json")
        _, out2 = run(tmp_path, "dirac", cfg, name="d2.json")
        assert (out1 / "dirac.csv").read_bytes() == (out2 / "dirac.csv").read_bytes()

    def test_prop3_config_file(self, tmp_path):
        code = main(["dirac", "--config", str(CONFIGS / "dirac_prop3.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "dirac.csv").read_text().splitlines()
        assert len(lines) == 8   # header + m = 6..12
        for line in lines[1:]:
            vals = line.split(",")
            assert abs(float(vals[5])) > 1e-6       # measured complex
            assert float(vals[6]) <= 0.30

    def test_prop3_zero_gamma_gap_nan_in_csv_null_in_json(self, tmp_path):
        cfg = shipped("dirac_prop3", ("gamma_list",), [0.0])
        code, out = run(tmp_path, "dirac", cfg)
        assert code == 0
        lines = (out / "dirac.csv").read_text().splitlines()
        assert [line.split(",")[6] for line in lines[1:]] == ["nan"] * 7
        summary = json.loads((out / "dirac_summary.json").read_text())
        assert [p["relative_gap"] for p in summary["points"]] == [None] * 7

    def test_prop3_short_sequences_exit2_one_line(self, tmp_path):
        # 24 harmonics stop at the coupling harmonic of m = 12, whose gap then
        # read 0.104 instead of 0.0207; 28 are needed
        cfg = json.loads((CONFIGS / "dirac_prop3.json").read_text())
        for key in ("cosine", "sine"):
            cfg["potential"][key] = cfg["potential"][key][:27]
        code, err, _ = run_captured(tmp_path, "dirac", cfg)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith("truncation check failed: ") and "27 harmonics" in err

    @pytest.mark.parametrize("J, weight", [(3, "5.0e-02"), (5, "4.2e-04")])
    def test_unresolved_dirac_pair_exit2_one_line(self, tmp_path, J, weight):
        # the gamma = 0 lattice is free, so the sweep resolves its 4 bands at any
        # J; the gamma = 0.2 pair at mu = 1/4 does not (at J = 3 its members sat
        # 1.4e-7 and 2.2e-6 off the J = 32 double) and used to exit 0
        cfg = shipped("dirac_sin2x", ("J",), J)
        cfg["n_bands"] = 4
        code, err, out = run_captured(tmp_path, "dirac", cfg)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith(f"truncation check failed: J = {J} does not resolve the pair "
                              f"near mu = 0.25: their eigenvectors weigh {weight}")
        assert not (out / "dirac.csv").exists()

    def test_pairs_at_top_of_leading_block_match_full_solve(self, tmp_path):
        # 31 bands reach the k0 = 0 double mu = 225 (modes j = +-15).  sin 2x
        # couples it to j = +-17 and leaves |j| = 16 empty, so a J' = 16 block
        # certified by the |j| = 16 slot alone put it 1.6e-4 off.  Every
        # measured value lies within kappa u ||M_J|| of the full J = 32 solve
        cfg = shipped("dirac_sin2x", ("n_bands",), 31)
        code, out = run(tmp_path, "dirac", cfg)
        assert code == 0
        V = from_parts(PotentialParts(sine_coeffs=(0.0, 1.0), gamma=0.2))
        with (out / "dirac.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert 225.0 in [float(r["mu"]) for r in rows]
        for r in rows:
            M = assemble(V, float(r["k0"]), cfg["J"])
            spec = solve(M)
            idx = np.argsort(np.abs(spec.eigenvalues - float(r["mu"])))[:2]
            R, L = spec.right_vectors[:, idx], spec.left_vectors[:, idx]
            kappa = np.linalg.norm(R @ np.linalg.solve(L.conj().T @ R, L.conj().T), 2)
            plus = complex(float(r["meas_re_plus"]), float(r["meas_im_plus"]))
            full = eigen.eigenvalues(M)
            assert np.abs(full - plus).min() <= kappa * np.finfo(float).eps * M.norm()

    @pytest.mark.parametrize("tol, gamma, code, prefix", [(2.5, 0.2, 0, "warning: "),
                                                          (1.0, 0.8, 1, "config error: ")])
    def test_skipped_crossings_make_one_stderr_line(self, tmp_path, tol, gamma, code, prefix):
        # a wide dirac_tol merges the free ladder into eigenspaces of dimension
        # > 2, each skipped with a warning (tol 1.0 keeps mu = 1/4, where
        # |gamma| > 1/2 then fails); a failing run prints only its error line
        cfg = shipped("dirac_sin2x", ("dirac_tol",), tol)
        cfg["gamma_list"] = [gamma]
        got, err, _ = run_captured(tmp_path, "dirac", cfg)
        assert got == code
        assert len(err.splitlines()) == 1 and err.startswith(prefix)
        if code == 0:
            assert "dimension" in err and err.rstrip().endswith("more)")


def test_cli_import_leaves_out_optimize_and_sparse_linalg():
    # scipy.optimize cost every process about 0.25 s; sparse.linalg is Newton's
    probe = ("import sys, ptbands.cli; "
             "print([m for m in ('scipy.optimize', 'scipy.sparse.linalg') if m in sys.modules])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_sample_configs_parse(tmp_path):
    # every shipped config runs through its command without a config error
    commands = {"bands_two_harmonic_gamma1.json": "bands",
                "bands_two_harmonic_gamma15.json": "bands",
                "effective_gentle.json": "effective",
                "ansatz_gentle.json": "ansatz",
                "dirac_sin2x.json": "dirac"}
    for name, command in commands.items():
        out = tmp_path / name.replace(".json", "")
        code = main([command, "--config", str(CONFIGS / name), "--out", str(out)])
        assert code == 0, name


def test_missing_config_file(tmp_path):
    assert main(["bands", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1


def test_config_defaults():
    # the dataclass fields are the whole schema: names and defaults per command
    def defaults(cls):
        return {f.name: f.default for f in fields(cls) if f.name not in ("potential", "sigma")}

    assert defaults(BandsConfig) == {"J": 32, "N_k": 32, "n_bands": 6, "band_index": 1,
                                     "tol_real": bands.REALITY_TOL}
    effective = {"J": 32, "N_k": 32, "n_bands": None, "band_index": 1,
                 "edge": "a", "tol_real": bands.REALITY_TOL}
    assert defaults(EffectiveConfig) == effective
    assert defaults(AnsatzConfig) == {**effective, "eps": 0.1}
    assert defaults(ConvergeConfig) == {
        "J": 24, "N_k": 32, "band_index": 1, "edge": "a", "eps_list": (0.2, 0.1, 0.05, 0.025),
        "s": 1.0, "newton_max_iter": 25, "newton_tol": 1e-10}
    assert {k: v for k, v in defaults(DiracConfig).items() if k != "gamma_list"} == {
        "J": 32, "N_k": 32, "n_bands": 8, "dirac_tol": 1e-8}
    assert defaults(Prop3Config)["J"] == 32


def test_readme_config_table_matches_schema():
    # README's key table against the dataclasses: which command accepts each
    # key ("" = rejected) and its default ("required", "null ..." or a JSON value)
    columns = [BandsConfig, EffectiveConfig, AnsatzConfig, ConvergeConfig, DiracConfig,
               Prop3Config]
    rows = [line.strip("|").split("|") for line in README.read_text().splitlines()
            if line.startswith("| `")]
    table = {key.strip().strip("`"): [c.strip() for c in cells[1:]]
             for key, *cells in rows}
    assert len(table) == len(rows)
    for col, cls in enumerate(columns):
        documented = {key: cells[col] for key, cells in table.items() if cells[col]}
        schema = {f.name: f.default for f in fields(cls)}
        assert set(documented) == set(schema), cls.__name__
        for key, cell in documented.items():
            if cell.startswith("required"):
                want = MISSING
            elif cell.startswith("null"):
                want = None
            else:
                want = json.loads(cell.strip("`"))
            default = schema[key]
            assert (list(default) if isinstance(default, tuple) else default) == want, \
                (cls.__name__, key)


def shipped(name, path, value):
    """A shipped config with the value at the key path replaced (all of it for ())."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    if not path:
        return value
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


BANDS, EFFECTIVE = "bands_two_harmonic_gamma1", "effective_gentle"
MALFORMED = {                   # case: (command, shipped config, key path, value)
    "cosine-str": ("bands", BANDS, ("potential", "cosine"), ["x"]),
    "cosine-int": ("bands", BANDS, ("potential", "cosine"), 5),
    "exp-int": ("effective", EFFECTIVE, ("sigma", "exp_coeffs"), 5),
    "exp-str-j": ("effective", EFFECTIVE, ("sigma", "exp_coeffs"), [["a", 1, 0]]),
    "exp-float-j": ("effective", EFFECTIVE, ("sigma", "exp_coeffs"), [[0.5, 1, 0]]),
    "gamma-str": ("bands", BANDS, ("potential", "gamma"), "1"),
    "gamma-list-str": ("dirac", "dirac_sin2x", ("gamma_list",), ["z"]),
    "gamma-list-bool": ("dirac", "dirac_sin2x", ("gamma_list",), [True]),
    "gamma-list-empty": ("dirac", "dirac_sin2x", ("gamma_list",), []),
    "m-range-str": ("dirac", "dirac_prop3", ("m_range",), [1, "b"]),
    "m-range-float": ("dirac", "dirac_prop3", ("m_range",), [1, 2.5]),
    "m-range-three": ("dirac", "dirac_prop3", ("m_range",), [1, 2, 3]),
    "J-null": ("bands", BANDS, ("J",), None),
    "n-bands-null": ("bands", BANDS, ("n_bands",), None),
    "tol-real-nan": ("bands", BANDS, ("tol_real",), math.nan),
    "bands-sigma": ("bands", BANDS, ("sigma",), {"exp_coeffs": [[0, -1.0, 0.0]]}),
    "converge-n-bands": ("converge", "converge_gentle", ("n_bands",), 4),
    "converge-tol-real": ("converge", "converge_gentle", ("tol_real",), 1e-8),
    "prop3-N_k": ("dirac", "dirac_prop3", ("N_k",), 32),
    "prop3-n-bands": ("dirac", "dirac_prop3", ("n_bands",), 8),
    "prop3-dirac-tol": ("dirac", "dirac_prop3", ("dirac_tol",), 1e-8),
    "band-index-above": ("bands", BANDS, ("band_index",), 6),
    "s-3": ("converge", "converge_gentle", ("s",), 3),
    "s-nan": ("converge", "converge_gentle", ("s",), math.nan),
    "not-an-object": ("bands", BANDS, (), [1, 2]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exit1(tmp_path, case):
    command, name, path, value = MALFORMED[case]
    code, err, out = run_captured(tmp_path, command, shipped(name, path, value))
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert not out.exists() or not any(out.iterdir())


def test_null_allowed_where_default_is_none(tmp_path):
    cfg = gentle_cfg(n_bands=None)
    code, out = run(tmp_path, "effective", cfg)
    assert code == 0 and (out / "effective.json").exists()


class TestIoAndUsage:
    def test_config_is_directory(self, tmp_path):
        code, err = call(["bands", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 1 and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"J": "\xff\xfe"}')
        code, err = call(["bands", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1 and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"J": ' + "1" * 5000 + "}"])
    def test_json_beyond_parser_limits(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, err = call(["bands", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1 and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_is_or_lies_under_a_file(self, tmp_path, out):
        (tmp_path / "file").write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(two_harmonic_cfg(1.0, 1)))
        code, err = call(["bands", "--config", str(cfg), "--out", str(tmp_path / out)])
        assert code == 1 and len(err.splitlines()) == 1
        assert "output directory" in err

    def test_missing_config_creates_no_output_dir(self, tmp_path):
        code, err = call(["bands", "--config", str(tmp_path / "nope.json"),
                          "--out", str(tmp_path / "o")])
        assert code == 1 and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [[], ["bands"], ["nope", "--config", "c.json"],
                                      ["bands", "--config", "c.json", "--bogus"]])
    def test_usage_error_exit1(self, argv):
        code, err = call(argv)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")


# -- no-traceback contract over malformed variants of the shipped configs -----

SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
CONFIG_KEYS = sorted({f.name for cls in (AnsatzConfig, BandsConfig, ConvergeConfig, DiracConfig,
                                         Prop3Config) for f in fields(cls)}
                     | {"cosine", "sine", "gamma", "convention", "exp_coeffs"})
BAD_VALUES = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
    st.integers(-2, 6), st.sampled_from([-1.5, 0.0, 0.3, 2.5]))
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


def _nodes(node, path=()):
    """(path, node) for every node of a JSON tree; only the first two items of a list."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node[:2]) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def malformed_runs(draw):
    """(command, JSON document): a shipped config with small sizes drawn and, mostly,
    one value replaced or one key or list item added; sometimes a non-object document."""
    name = draw(st.sampled_from(sorted(SHIPPED)))
    command = name.split("_")[0]
    if draw(st.integers(0, 9)) == 0:
        return command, draw(JSON_DOCS.filter(lambda doc: not isinstance(doc, dict)))
    cfg = copy.deepcopy(SHIPPED[name])
    if command == "converge":
        cfg["eps_list"] = [0.2]             # one Newton solve keeps an example cheap
    sizes = {"J": st.integers(1, 16), "N_k": st.sampled_from([16, 18, 14]),
             "n_bands": st.integers(1, 6)}
    for key, size in sizes.items():
        if key in cfg and draw(st.booleans()):
            cfg[key] = draw(size)
    nodes = list(_nodes(cfg))
    how = draw(st.sampled_from(["replace", "extra key", "extra item", "sizes only"]))
    if how == "replace":
        top = draw(st.sampled_from(sorted(cfg)))       # each key, then a node below it
        path = draw(st.sampled_from([path for path, _ in nodes if path[:1] == (top,)]))
        parent = dict(nodes)[path[:-1]]
        parent[path[-1]] = draw(BAD_VALUES)
    elif how == "extra key":
        target = draw(st.sampled_from([node for _, node in nodes if isinstance(node, dict)]))
        target[draw(st.sampled_from(CONFIG_KEYS) | st.text(max_size=6))] = draw(BAD_VALUES)
    elif how == "extra item":
        target = draw(st.sampled_from([node for _, node in nodes if isinstance(node, list)]))
        target.append(draw(BAD_VALUES))
    return command, cfg


@settings(max_examples=300)
@given(malformed_runs())
def test_no_traceback_on_malformed_configs(run_case):
    command, doc = run_case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        code, err = call([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
