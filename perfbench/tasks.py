"""In-process operations of the spectra and solitons workloads and their checks.

An operation returns a small plain record of its outputs; the check runs
after the timed section and returns None or a one-line failure reason.
Reference values (Richardson curvature at h = 1e-3) are computed only in
the checks, outside the timed section, and cached for the run.
"""

import functools
from dataclasses import replace

import numpy as np

from ptbands import bands, dirac, effective, gpsolve, potential
from ptbands.potential import constant

import inputs

N_K = 64
CURVATURE_RTOL = 1e-3       # the known-bad edge is 3.9% off
REFERENCE_STEP = 1e-3
SPLIT_RTOL = 0.10           # acceptance criterion 4
SLOPE_RTOL = 0.02
PROP3_GAP = 0.30            # acceptance criterion 8

# Reality and edge layout of the reference lattices (acceptance criterion 3):
# per band, None for a complex band, else (k0 of edge a, k0 of edge b).
LAYOUT = {
    "two_harmonic_g1": [(0.0, 0.5), (0.5, 0.0), (0.0, 0.5)],
    "two_harmonic_g15": [None, None, (0.0, 0.5), None, None],
}
GENTLE_EDGES = {"a": (0.0, True), "b": (0.5, False)}   # band 1: k0, sech exists


class Spectra:
    """Operations on the reference lattices; one instance per run."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.lattices = {name: potential.potential_from_json(spec)
                         for name, spec in inputs["lattices"].items()}
        self.parts = {name: potential.parts_from_json(spec)
                      for name, spec in inputs["lattices"].items()}
        self.gentle0 = potential.potential_from_json(inputs["gentle_unperturbed"])
        self.sigma = constant(-1.0)
        self.gammas = tuple(inputs["gamma_sweep"])
        self._references = {}

    def tasks(self):
        return self.inputs["tasks"]

    # -- operations ----------------------------------------------------
    def run(self, task):
        return getattr(self, "op_" + task["kind"])(task)

    def op_bands(self, t):
        V = self.lattices[t["lattice"]]
        bs = bands.compute_bands(V, t["J"], N_K, t["n_bands"])
        reports = [bands.check_assumption(bs, m, p=V) for m in range(1, bs.n_bands + 1)]
        ranks = {}
        for r in reports:
            for e in r.edges:
                col = bs.column(e.k0)
                order = np.lexsort((bs.omega[:, col].imag, bs.omega[:, col].real))
                ranks[(r.m, e.k0)] = int(np.nonzero(order == r.m - 1)[0][0]) + 1
        return {"omega": bs.omega, "reports": reports, "ranks": ranks}

    def op_effective(self, t):
        V = self.lattices[t["lattice"]]
        model, mode = effective.extract_effective_model(V, self.sigma, 1, t["edge"], t["J"], N_K)
        env = effective.sech_envelope(model) if model.exists else None
        return {"model": model, "env": env}

    def op_dirac(self, t):
        parts = self.parts[t["lattice"]]
        J = t["J"]
        U = potential.from_parts(replace(parts, gamma=0.0))
        bs0 = bands.compute_bands(U, J, N_K, t["n_bands"])
        points = []
        for dp in dirac.find_dirac_points(bs0):
            preds = []
            for g in self.gammas:
                pred = dirac.predict_splitting(dp, parts, g)
                V = potential.from_parts(replace(parts, gamma=g))
                preds.append(pred.with_measurement(dirac.measure_splitting(V, dp.k0, dp.mu, J)))
            slope = dirac.splitting_slope(parts, dp, J, self.gammas)
            coupling = abs(dirac.mw_matrix(dp, parts)[1, 0])
            points.append({"preds": preds, "slope": slope, "coupling": coupling})
        return {"points": points}

    def op_prop3(self, t):
        parts = self.parts[t["lattice"]]
        return {"records": dirac.prop3_scan(parts.cosine_coeffs, parts.sine_coeffs,
                                            parts.gamma, range(6, 13), t["J"])}

    def op_known_bad_edge(self, t):
        value, err = bands.second_derivative(self.gentle0, t["m"], t["k0"], t["J"])
        return {"value": value, "err": err}

    # -- checks --------------------------------------------------------
    def check(self, task, out):
        return getattr(self, "check_" + task["kind"])(task, out)

    def reference_curvature(self, V_key, V, m, k0, J):
        key = (V_key, m, k0, J)
        if key not in self._references:
            self._references[key] = bands.second_derivative(V, m, k0, J, h=REFERENCE_STEP)[0]
        return self._references[key]

    def _curvature_error(self, V_key, V, rank, k0, J, value):
        ref = self.reference_curvature(V_key, V, rank, k0, J)
        if abs(value - ref) > CURVATURE_RTOL * max(1.0, abs(ref)):
            return f"curvature {value:.6g} vs reference {ref:.6g} (rank {rank}, k0 {k0})"
        return None

    def check_bands(self, t, out):
        layout = LAYOUT[t["family"]]
        V = self.lattices[t["lattice"]]
        omega = out["omega"]
        for col in omega.T:
            # the window holds the lowest n by real part, so only the highest
            # value may lack its conjugate partner (cut off at the window edge)
            scale = np.maximum(1.0, np.abs(col))
            unpaired = np.abs(col[:, None] - np.conj(col)[None, :]).min(axis=1) > 1e-9 * scale
            unpaired[np.argmax(col.real)] = False
            if unpaired.any():
                return "tracked eigenvalues not closed under conjugation"
        for r, expect in zip(out["reports"], layout):
            if r.is_real != (expect is not None):
                return f"band {r.m}: real={r.is_real}, expected {expect is not None}"
            if expect is None:
                continue
            if not r.assumption_ok:
                return f"band {r.m}: assumption check failed"
            edges = {e.which: e for e in r.edges}
            if (edges["a"].k0, edges["b"].k0) != expect:
                return f"band {r.m}: edges at {(edges['a'].k0, edges['b'].k0)}, expected {expect}"
            for e in r.edges:
                why = self._curvature_error(t["lattice"], V, out["ranks"][(r.m, e.k0)],
                                            e.k0, t["J"], e.curvature)
                if why:
                    return f"band {r.m} edge {e.which}: {why}"
        return None

    def check_effective(self, t, out):
        model = out["model"]
        k0, exists = GENTLE_EDGES[t["edge"]]
        if model.k0 != k0 or model.exists != exists:
            return f"edge {t['edge']}: k0 {model.k0}, exists {model.exists}"
        if abs(model.gamma_nl.imag) > 1e-8:
            return f"Im Gamma = {model.gamma_nl.imag:.3e}"
        if exists and not (out["env"].amplitude > 0 and out["env"].width > 0):
            return "sech envelope not positive"
        return self._curvature_error(t["lattice"], self.lattices[t["lattice"]], 1, k0,
                                     t["J"], model.curvature)

    def check_dirac(self, t, out):
        coupled = 0
        for pt in out["points"]:
            for pred in pt["preds"]:
                plus, minus = pred.measured
                tol = 1e-9 * max(1.0, abs(plus))
                both_real = abs(plus.imag) <= tol and abs(minus.imag) <= tol
                if not both_real and abs(plus - np.conj(minus)) > tol:
                    return f"split pair at mu={pred.mu} neither real nor conjugate"
                if pred.regime is dirac.Regime.DEGENERATE_PAIR and pred.relative_gap > SPLIT_RTOL:
                    return f"mu={pred.mu} gamma={pred.gamma}: relative gap {pred.relative_gap:.3g}"
            if pt["preds"][0].regime is dirac.Regime.DEGENERATE_PAIR:
                coupled += 1
                if abs(pt["slope"] - pt["coupling"]) > SLOPE_RTOL * pt["coupling"]:
                    return f"splitting slope {pt['slope']:.6g} vs coupling {pt['coupling']:.6g}"
        return None if coupled else "no coupled Dirac point found"

    def check_prop3(self, t, out):
        for r in out["records"]:
            if abs(r.measured[0].imag) <= 1e-6 or r.relative_gap > PROP3_GAP:
                return f"m^2={r.mu}: Im {r.measured[0].imag:.3g}, gap {r.relative_gap:.3g}"
        return None

    def check_known_bad_edge(self, t, out):
        ref, value = t["reference"], out["value"]
        if abs(value - ref) <= CURVATURE_RTOL * abs(ref):
            return None
        why = f"curvature {value:.6g} (err {out['err']:.3g}) vs stored reference {ref}"
        if abs(value - t["estimate"]) <= CURVATURE_RTOL * abs(ref):
            return inputs.KNOWN_DEFECT + why
        return why

    def verify_reference(self):
        """The stored known-bad reference must match a fresh h = 1e-3 solve."""
        t = next(t for t in self.tasks() if t["kind"] == "known_bad_edge")
        fresh = self.reference_curvature("gentle0", self.gentle0, t["m"], t["k0"], t["J"])
        if abs(fresh - t["reference"]) > 1e-5 * abs(t["reference"]):
            raise RuntimeError(f"known-bad reference drifted: {fresh} vs {t['reference']}")


class Solitons:
    """One gentle-lattice convergence study per operation."""

    def __init__(self, inputs):
        cfg = inputs["study"]
        self.cfg = cfg
        self.V = potential.potential_from_json(cfg["potential"])
        self.sigma = potential.potential_from_json(cfg["sigma"])
        self.solves = []          # (n_points, residual, PT defect) per Newton solve
        original = gpsolve.newton_solve

        @functools.wraps(original)
        def observed(*args, **kwargs):
            state = original(*args, **kwargs)
            self.solves.append((state.grid.n_points, state.residual_norm, state.pt_defect()))
            return state

        # the PT defect of every Newton state is an output to check, and the
        # study returns only error norms; wraps() keeps the tracer's name
        gpsolve.newton_solve = observed

    def tasks(self):
        return [{"kind": "convergence_study", "id": "study"}]

    def run(self, task):
        c = self.cfg
        start = len(self.solves)
        study = gpsolve.convergence_study(self.V, self.sigma, c["band_index"], c["edge"],
                                          c["eps_list"], s=c["s"], J=c["J"], N_k=c["N_k"])
        return {"study": study, "solves": self.solves[start:]}

    def check(self, task, out):
        study = out["study"]
        if len(out["solves"]) != len(self.cfg["eps_list"]):
            return f"{len(out['solves'])} Newton solves for {len(self.cfg['eps_list'])} eps"
        for n, residual, defect in out["solves"]:
            if not residual <= 1e-10:
                return f"N={n}: residual {residual:.3e} above tol"
            if defect > 1e-12:
                return f"N={n}: PT defect {defect:.3e}"
        if not (study.slope >= 1.0 and study.rel_slope >= 0.5):
            return f"slope {study.slope:.3f}, relative slope {study.rel_slope:.3f}"
        return None


WORKLOADS = {"spectra": Spectra, "solitons": Solitons}
