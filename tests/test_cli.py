import json
from pathlib import Path

import pytest

from ptbands.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(tmp_path, command, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / ("out_" + name.removesuffix(".json"))
    code = main([command, "--config", str(path), "--out", str(out)])
    return code, out


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

    def test_determinism_across_thread_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PTBANDS_THREADS", "1")
        _, out1 = run(tmp_path, "bands", two_harmonic_cfg(1.0, 1), name="t1.json")
        monkeypatch.setenv("PTBANDS_THREADS", "4")
        _, out4 = run(tmp_path, "bands", two_harmonic_cfg(1.0, 1), name="t4.json")
        assert (out4 / "bands.csv").read_bytes() == (out1 / "bands.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", "", "1.5"])
    def test_invalid_thread_count_exit1(self, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.setenv("PTBANDS_THREADS", threads)
        code, out = run(tmp_path, "bands", two_harmonic_cfg(1.0, 1))
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "PTBANDS_THREADS" in err
        assert "Traceback" not in err
        assert not (out / "bands.csv").exists()

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

    @pytest.mark.parametrize("eps_list", [[0.2, 0.2], [], ["a"], [-0.1, 0.1], [True, 0.1],
                                          [0.1, 0.6], [0.1, float("nan")]])
    def test_degenerate_eps_list_exit1(self, tmp_path, capsys, eps_list):
        code, out = run(tmp_path, "converge", gentle_cfg(eps_list=eps_list))
        assert code == 1
        err = capsys.readouterr().err
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
