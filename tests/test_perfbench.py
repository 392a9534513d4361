"""The benchmark's tracer patches package functions by name, so each name it
lists must still resolve where the tracer looks for it."""
import importlib

from perfbench.tracer import PACKAGE, PHASE_OBJECTIVE_EVALS, SPANNED


def test_spanned_functions_resolve():
    for mod_name, func_name in SPANNED:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        assert callable(getattr(module, func_name, None)), f"{mod_name}.{func_name}"


def test_patched_phase_objective_methods_resolve():
    phase_objective = importlib.import_module(f"{PACKAGE}.manifold").PhaseObjective
    for method in ("__init__",) + PHASE_OBJECTIVE_EVALS:
        assert callable(vars(phase_objective).get(method)), f"PhaseObjective.{method}"
