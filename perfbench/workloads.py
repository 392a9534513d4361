"""The benchmark workloads: inputs from a seed, one timed call, checks.

Each workload turns the benchmark seed into a pool of inputs through
``derive_seed`` and runs them in a closed loop (one caller; the next call
starts when the previous one returns). ``call`` times one call into the
package and checks its outputs; every check runs outside the timed region.
The first ``fixed_calls`` calls of a run depend on the seed alone: their
answers are fingerprinted, and the traced run repeats exactly those calls.

Why these two: ``inner_heavy`` spends most of its time in
``convex_inner.solve`` and ``phase_heavy`` most of its time in
``manifold.run_cg``. An optimization of one solver layer shows on its
workload and is predicted to leave the other one unchanged. Both run at
40 dBm, the regime of the slow high-power runs; their sizes are small
enough that one run holds one to a few hundred independent draws, which
keeps the quartiles of the figures over ten seeds close to their median.

A ``run_sweep`` workload is left out: on the sweep fixture's shape about
one row in a thousand fails inside the package (``build_subproblem``
rejects a start whose power exceeds the budget by float round-off after an
exact projection), and a workload here must run without failures.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

import irs_secrecy as irs
from irs_secrecy import (
    ScenarioConfig,
    dbm_to_watts,
    derive_seed,
    generate_scenario,
    secrecy_rates,
)

MONOTONE_SLACK = 1e-6


@dataclass
class CallResult:
    """One timed ``optimize`` call and what its check found."""

    busy_s: float
    status: str  # "ok", "error" (the program raised) or "wrong"
    sum_secrecy: float  # reported answer; nan unless status is "ok"
    fingerprint: list


class OptimizeWorkload:
    """``optimize`` with its default start and caps on independent draws."""

    def __init__(self, name, num_bs_antennas, num_irs_elements, num_users,
                 p_max_dbm, fixed_calls, pool_size):
        self.name = name
        self.base = ScenarioConfig(
            num_bs_antennas=num_bs_antennas,
            num_irs_elements=num_irs_elements,
            num_users=num_users,
            p_max=dbm_to_watts(p_max_dbm),
        )
        self.fixed_calls = fixed_calls
        self.pool_size = pool_size
        self.sizes = {
            "N_T": num_bs_antennas,
            "M": num_irs_elements,
            "K": num_users,
            "p_max_dbm": p_max_dbm,
            "fixed_calls": fixed_calls,
        }

    def prepare(self, seed: int) -> list:
        inputs = []
        for j in range(self.pool_size):
            cfg = replace(self.base, rng_seed=derive_seed(self.name, seed, j))
            inputs.append((cfg, generate_scenario(cfg)))
        return inputs

    def call(self, inp) -> CallResult:
        cfg, ch = inp
        t0 = time.perf_counter()
        try:
            sol, history = irs.optimize(ch, cfg)
        except Exception as exc:  # counted as a failed run, never aborts
            busy = time.perf_counter() - t0
            return CallResult(busy, "error", math.nan, [f"error:{type(exc).__name__}"])
        busy = time.perf_counter() - t0
        ok, value = _check_optimize(sol, history, ch, cfg.p_max)
        return CallResult(busy, "ok" if ok else "wrong", value, [repr(value), history.status])


def _check_optimize(sol, history, ch, p_max):
    try:
        sol.validate(p_max)
    except ValueError:
        return False, math.nan
    arrays = (sol.W, sol.Z, sol.u, sol.w, history.f_trace())
    if not all(a is not None and np.all(np.isfinite(a)) for a in arrays):
        return False, math.nan
    if not history.is_monotone(slack=MONOTONE_SLACK):
        return False, math.nan
    value = secrecy_rates(sol, ch).sum_secrecy
    return bool(math.isfinite(value) and value >= 0.0), value


WORKLOADS = {
    "inner_heavy": OptimizeWorkload(
        "inner_heavy", num_bs_antennas=8, num_irs_elements=4, num_users=2,
        p_max_dbm=40.0, fixed_calls=100, pool_size=1200,
    ),
    "phase_heavy": OptimizeWorkload(
        "phase_heavy", num_bs_antennas=2, num_irs_elements=40, num_users=1,
        p_max_dbm=40.0, fixed_calls=50, pool_size=600,
    ),
}
