"""Smoke tests for the example scripts.

The fast examples run end-to-end (they double as documentation, so a
broken example is a broken deliverable); the heavyweight ones are only
import-checked so the suite stays quick — the benchmark run exercises
the same code paths at scale.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_main_runs(self, capsys):
        module = _load("quickstart")
        module.main()
        output = capsys.readouterr().out
        assert "Example 1" in output
        assert "auth(B, technology) = 0.6667" in output
        assert "1. D" in output  # D outranks E, the paper's Example 2

    def test_figure1_graph_matches_example1(self):
        module = _load("quickstart")
        graph = module.build_figure1_graph()
        # B: 3 followers (2 technology); C: 6 followers (2 technology)
        assert graph.follower_count(1) == 3
        assert graph.follower_count_on(1, "technology") == 2
        assert graph.follower_count(2) == 6
        assert graph.follower_count_on(2, "technology") == 2


class TestDynamicUpdates:
    def test_main_runs(self, capsys):
        module = _load("dynamic_updates")
        module.main()
        lines = capsys.readouterr().out.splitlines()
        rows = {line.split()[0]: [float(v) for v in line.split()[1:]]
                for line in lines
                if line.split() and line.split()[0] in ("1", "never")}
        # compacting after every applied event refreshes every landmark
        # per event; without in-stream compaction the index drifts
        assert rows["1"][0] == module.NUM_LANDMARKS
        assert rows["never"][0] == 0.0 and rows["never"][1] > 0.0
        # the headline: staleness is 0.0 right after a compaction
        assert rows["1"][1] == 0.0
        assert rows["1"][2] == rows["never"][2] == 0.0


class TestDistributedDeployment:
    def test_main_runs(self, capsys):
        module = _load("distributed_deployment")
        module.main()  # asserts identical scores under every partitioner
        output = capsys.readouterr().out
        for name in ("hash", "greedy", "topic"):
            assert f"\n{name} " in output
        assert "identical under every partitioning" in output


@pytest.mark.parametrize("name", [
    "who_to_follow", "landmark_scaling", "dblp_citations",
])
def test_heavy_examples_are_importable(name):
    module = _load(name)
    assert callable(module.main)
