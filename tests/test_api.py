"""The public surface: what `import enki` exports, that every export exists,
and that the README quickstarts still run against it."""
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import enki
from enki.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_algorithm_configs_hold_only_caller_set_fields():
    # each field is set by the harness, the CLI, the benchmark or a README
    # quickstart; every other tuning value is a module constant
    fields = {
        config.__name__: [f.name for f in dataclasses.fields(config)]
        for config in (enki.EkiConfig, enki.AbcSmcConfig, enki.AbcMcmcConfig)
    }
    assert fields == {
        "EkiConfig": ["n_particles", "stop_mode", "max_iters", "snapshots"],
        "AbcSmcConfig": ["n_particles"],
        "AbcMcmcConfig": ["n_steps", "n_keep"],
    }


def _readme_block(language: str) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, f"README should hold one {language} block"
    return blocks[0]


def test_readme_quickstarts_run(tmp_path):
    namespace = {}
    exec(_readme_block("python"), namespace)
    assert namespace["res"].termination_reason == "optimisation"
    config = tmp_path / "experiment.yaml"
    config.write_text(_readme_block("yaml"))
    assert cli_main(["validate", str(config)]) == 0
