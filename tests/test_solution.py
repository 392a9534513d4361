import json
from dataclasses import asdict

import numpy as np
import pytest

from irs_secrecy.solution import (
    HistoryRecord,
    RunHistory,
    TransmitSolution,
    hermitize,
)


class TestHermitize:
    def test_fixes_roundoff_skew(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = hermitize(a)
        assert np.allclose(h, np.conj(h).T)

    def test_stacked(self, rng):
        a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        h = hermitize(a)
        assert np.allclose(h, np.conj(np.swapaxes(h, -1, -2)))


class TestTransmitSolution:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TransmitSolution(W=np.zeros((2, 3, 2)), Z=np.zeros((3, 3)), u=np.ones(2))
        with pytest.raises(ValueError):
            TransmitSolution(W=np.zeros((2, 3, 3)), Z=np.zeros((2, 2)), u=np.ones(2))

    def test_validate_power_violation(self):
        sol = TransmitSolution(
            W=np.stack([np.eye(2, dtype=complex)]), Z=np.eye(2, dtype=complex),
            u=np.ones(3, dtype=complex),
        )
        sol.validate(p_max=4.0)
        with pytest.raises(ValueError, match="power"):
            sol.validate(p_max=3.9)

    def test_validate_unit_modulus(self):
        sol = TransmitSolution(
            W=np.zeros((1, 2, 2)), Z=np.zeros((2, 2)),
            u=np.array([1.0, 1.0 + 1e-6]),
        )
        with pytest.raises(ValueError, match="unit circle"):
            sol.validate(p_max=1.0)

    def test_validate_psd(self):
        sol = TransmitSolution(
            W=np.stack([np.diag([1.0, -0.1]).astype(complex)]),
            Z=np.zeros((2, 2)), u=np.ones(2),
        )
        with pytest.raises(ValueError, match="PSD"):
            sol.validate(p_max=10.0)

    def test_validate_beamformer_consistency(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        good = TransmitSolution(
            W=np.stack([np.outer(v, np.conj(v))]), Z=np.zeros((3, 3)),
            u=np.ones(2), w=np.stack([v]),
        )
        good.validate(p_max=100.0)
        bad = TransmitSolution(
            W=np.stack([np.outer(v, np.conj(v))]), Z=np.zeros((3, 3)),
            u=np.ones(2), w=np.stack([2 * v]),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            bad.validate(p_max=100.0)


class TestValidateNaN:
    """Every check of validate fails on NaN, with or without given eigenvalues."""

    @staticmethod
    def feasible(n=2):
        return TransmitSolution(
            W=np.stack([np.eye(n, dtype=complex)]), Z=np.eye(n, dtype=complex),
            u=np.ones(3, dtype=complex),
        )

    def test_nan_u_rejected(self):
        sol = self.feasible()
        sol.u[1] = np.nan
        with pytest.raises(ValueError, match="unit circle"):
            sol.validate(p_max=4.0)

    @pytest.mark.parametrize("where", [(0, 0, 0), (0, 0, 1), (0, 1, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_w_rejected(self, where, value):
        # W = [[nan, 0], [0, 1]] passed: eigvalsh returned [0, -0]
        sol = TransmitSolution(
            W=np.diag([1.0, 1.0]).astype(complex)[None], Z=np.zeros((2, 2)),
            u=np.ones(3),
        )
        sol.W[where] = value
        with pytest.raises(ValueError, match="non-finite"):
            sol.validate(p_max=4.0)

    def test_nan_z_rejected(self):
        sol = self.feasible()
        sol.Z[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sol.validate(p_max=4.0)

    def test_given_eigenvalues_reused(self, monkeypatch):
        sol = self.feasible()
        eigs = sol.validate(p_max=4.0)

        def no_decomposition(*args, **kwargs):
            raise AssertionError("eigenvalues recomputed")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_decomposition)
        assert sol.validate(p_max=4.0, eigenvalues=eigs) is eigs
        # the same floors, budget and unit modulus on the given spectrum
        with pytest.raises(ValueError, match="power"):
            sol.validate(p_max=3.9, eigenvalues=eigs)
        with pytest.raises(ValueError, match="Z is not PSD"):
            sol.validate(p_max=4.0, eigenvalues=np.array([[1.0, 1.0], [-0.1, 1.0]]))
        with pytest.raises(ValueError, match="W is not PSD"):
            sol.validate(p_max=4.0, eigenvalues=np.array([[np.nan, 1.0], [1.0, 1.0]]))
        sol.W[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sol.validate(p_max=4.0, eigenvalues=eigs)
        sol.W[0, 0, 0] = 1.0
        sol.u[0] = np.nan
        with pytest.raises(ValueError, match="unit circle"):
            sol.validate(p_max=4.0, eigenvalues=eigs)

    def test_nan_beamformer_rejected(self):
        v = np.array([1.0, 1j])
        sol = TransmitSolution(
            W=np.stack([np.outer(v, np.conj(v))]), Z=np.zeros((2, 2)),
            u=np.ones(2), w=np.stack([np.array([np.nan, 1j])]),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            sol.validate(p_max=100.0)


class TestRunHistory:
    def test_monotone_helper(self):
        hist = RunHistory()
        for i, f in enumerate([1.0, 0.5, 0.5, 0.2]):
            hist.append(HistoryRecord(iteration=i, phase="sca", f=f, power_used=1.0))
        assert hist.is_monotone()
        hist.append(HistoryRecord(iteration=4, phase="sca", f=0.4, power_used=1.0))
        assert not hist.is_monotone()
        assert hist.is_monotone(slack=0.5)

    def test_rows_export(self):
        # the sweep audit writes each record as its asdict() JSON object
        hist = RunHistory()
        hist.append(HistoryRecord(iteration=0, phase="init", f=0.0, power_used=2.0))
        rows = json.loads(json.dumps([asdict(r) for r in hist.records]))
        assert rows[0]["phase"] == "init"
        assert rows[0]["power_used"] == 2.0
