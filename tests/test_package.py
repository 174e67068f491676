"""Package-level contract tests: public API importable and coherent."""

import importlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import repro

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: Every lazy package namespace: ``repro`` and its twelve subpackages.
PACKAGES = [
    "repro",
    "repro.sim",
    "repro.switch",
    "repro.core",
    "repro.cbr",
    "repro.network",
    "repro.traffic",
    "repro.fairness",
    "repro.analysis",
    "repro.hardware",
    "repro.obs",
    "repro.fleet",
    "repro.check",
]

SUBPACKAGES = PACKAGES[1:] + ["repro.cli"]

#: ``repro.core.batch`` and its five kernels, which load with ``repro.core``.
KERNELS = ["batch", "pim", "islip", "lqf", "qps", "wavefront"]


def loaded_after(statement: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    script = (
        f"import sys\n{statement}\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_import(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"

    def test_quickstart_docstring_example_runs(self):
        """The package docstring's example must actually work."""
        from repro import CrossbarSwitch, PIMScheduler, UniformTraffic

        switch = CrossbarSwitch(ports=16, scheduler=PIMScheduler(iterations=4, seed=1))
        traffic = UniformTraffic(ports=16, load=0.9, seed=2)
        result = switch.run(traffic, slots=2_000, warmup=200)
        assert result.mean_delay > 0
        assert 0.8 < result.throughput <= 1.0

    def test_every_public_callable_has_docstring(self):
        missing = []
        for module_name in SUBPACKAGES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                # A typing alias (``TraceEvent = Union[...]``) is callable
                # but documents nothing of its own.
                if typing.get_origin(obj) is not None:
                    continue
                if callable(obj) and not (obj.__doc__ or "").strip():
                    missing.append(f"{module_name}.{name}")
        assert not missing, f"public callables without docstrings: {missing}"

    def test_schedulers_share_the_protocol(self):
        import numpy as np

        from repro.core import (
            ISLIPScheduler,
            MaximumMatchingScheduler,
            PIMScheduler,
            WavefrontScheduler,
        )

        requests = np.eye(4, dtype=bool)
        for scheduler in (
            PIMScheduler(seed=0),
            ISLIPScheduler(),
            WavefrontScheduler(),
            MaximumMatchingScheduler(),
        ):
            matching = scheduler.schedule(requests)
            assert len(matching) == 4
            scheduler.reset()


class TestLazyNamespaces:
    """Each package's ``__all__`` is its lazy table, and every name in it
    reads, lists and star-imports as the object its submodule defines."""

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_is_the_table(self, package):
        module = importlib.import_module(package)
        assert module.__all__ == list(module._exports)
        assert len(set(module.__all__)) == len(module.__all__)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_each_name_is_its_submodules_object(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name, submodule in module._exports.items():
            home = importlib.import_module(f"{package}.{submodule}")
            assert getattr(module, name) is getattr(home, name), name
            assert name in listed, name

    @pytest.mark.parametrize("package", PACKAGES)
    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_an_unknown_name_raises_attribute_error(self):
        import repro.network

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.network.no_such_name  # noqa: B018

    def test_a_submodule_still_imports_through_its_package(self):
        from repro.network import topologies

        assert topologies.__name__ == "repro.network.topologies"

    def test_a_submodule_never_hides_the_public_name_it_shares(self):
        """``repro.check.fuzz`` the function, even after the module
        ``repro/check/fuzz.py`` was imported on its own first."""
        assert loaded_after(
            "import repro.check.fuzz\n"
            "import repro.check, inspect\n"
            "assert inspect.isfunction(repro.check.fuzz), repro.check.fuzz"
        ) >= {"repro.check.fuzz"}


class TestImportSet:
    """A fresh process loads only the modules it names: exact module sets,
    no timing."""

    def test_the_root_package_loads_nothing_else(self):
        assert loaded_after("import repro") == {"repro"}

    def test_the_cli_loads_only_itself(self):
        assert loaded_after("import repro.cli") == {"repro", "repro.cli"}

    def test_the_fleet_runner_leaves_the_other_backends_unloaded(self):
        loaded = loaded_after("from repro.fleet import run_sweep, load_spec")
        for absent in ("repro.cbr", "repro.network", "repro.check", "repro.analysis"):
            assert not {m for m in loaded if m.split(".")[:2] == absent.split(".")}
        assert "repro.sim.fastpath_network" not in loaded
        assert "repro.switch.switch" not in loaded

    def test_the_kernel_family_loads_with_the_fast_path(self):
        loaded = loaded_after("import repro.sim.fastpath")
        assert {f"repro.core.{kernel}" for kernel in KERNELS} <= loaded
