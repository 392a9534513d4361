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
