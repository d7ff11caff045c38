"""The public surface: what `import enki` exports, and that every export exists."""
import importlib
import pkgutil

import enki

ENTRY_POINTS = [
    "AbcMcmcConfig",
    "AbcSmcConfig",
    "EkiConfig",
    "ExperimentConfig",
    "RunResult",
    "SimulatorModel",
    "__version__",
    "available_models",
    "build_model",
    "run_abc_mcmc",
    "run_abc_smc",
    "run_eki",
    "run_experiment",
]


def test_public_surface_is_the_entry_points_and_every_export_resolves():
    assert sorted(enki.__all__) == ENTRY_POINTS
    modules = [enki] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(enki.__path__, "enki.")
    ]
    assert enki.models in modules
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"
