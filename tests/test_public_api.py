"""The public API surface: everything advertised must import and work."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro
from tests.core.test_grouping import POLICIES

ROOT = Path(__file__).resolve().parent.parent

#: where a policy counts as reached by something a user runs
REACHING_DIRS = ("src/repro/experiments", "examples", "bench")

#: policies no experiment, example or bench workload names, each mapped to
#: the tier-1 test (``path::Class::function``) of the paper claim it backs
CLAIM_TESTS = {
    "ReactiveGrouping": "tests/core/test_baselines.py::TestReactiveGrouping"
    "::test_posg_beats_reactive_under_control_plane_latency",
}


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize("module", [
        "repro.sketches",
        "repro.core",
        "repro.simulator",
        "repro.storm",
        "repro.workloads",
        "repro.analysis",
        "repro.experiments",
        "repro.faults",
    ])
    def test_subpackage_all_exports_resolve(self, module):
        package = importlib.import_module(module)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{module}.{name} missing"

    def test_every_public_item_documented(self):
        """Doc-comment deliverable: every exported item has a docstring."""
        for module_name in [
            "repro", "repro.sketches", "repro.core", "repro.simulator",
            "repro.storm", "repro.workloads", "repro.analysis",
            "repro.experiments", "repro.faults",
        ]:
            package = importlib.import_module(module_name)
            assert package.__doc__, f"{module_name} lacks a module docstring"
            for name in getattr(package, "__all__", []):
                item = getattr(package, name)
                if callable(item) or isinstance(item, type):
                    assert item.__doc__, f"{module_name}.{name} undocumented"

    def test_minimal_workflow(self):
        """The README's quickstart snippet, condensed."""
        import numpy as np

        spec = repro.StreamSpec(m=512, n=64, w_n=8, k=2)
        stream = repro.generate_stream(
            repro.ZipfItems(64, 1.0), spec, np.random.default_rng(0)
        )
        result = repro.simulate_stream(
            stream, repro.RoundRobinGrouping(), k=2
        )
        assert result.stats.m == 512


class TestReachability:
    """A policy earns its place by being run or by backing a claim."""

    def test_every_policy_is_reached_or_backs_a_claim(self):
        text = "\n".join(
            path.read_text()
            for directory in REACHING_DIRS
            for path in sorted((ROOT / directory).rglob("*.py"))
        )
        for name in (cls.__name__ for cls in POLICIES):
            reached = re.search(rf"\b{name}\b", text) is not None
            assert reached != (name in CLAIM_TESTS), (
                f"{name}: name it under {', '.join(REACHING_DIRS)} or map it "
                "to its claim test in CLAIM_TESTS, not both and not neither"
            )

    @pytest.mark.parametrize("policy", sorted(CLAIM_TESTS))
    def test_claim_test_exists(self, policy):
        node = CLAIM_TESTS[policy]
        path, *names = node.split("::")
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names:
            found = [
                item
                for item in scope
                if isinstance(item, (ast.ClassDef, ast.FunctionDef))
                and item.name == name
            ]
            assert found, f"{node}: no {name}"
            scope = found[0].body
