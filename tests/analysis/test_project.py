"""Whole-program pass: layering (W1), dropped flags (W2), exception
contracts (W3), dead public API (W4), test-only modules (W5), and the
CLI gate over fixture trees — including the two acceptance fixtures, a
deliberately introduced layering violation and a dropped-``allow_stale``
call, each of which must fail the gate."""

import textwrap

import pytest

from repro.analysis import (
    LayersConfig,
    LayersConfigError,
    ProjectRule,
    all_project_rules,
    load_layers_config,
    register_project,
    run_project_rules,
    summarize_module,
)
from repro.analysis.__main__ import main
from repro.analysis.engine import run_analysis
from repro.analysis.project import PROJECT_REGISTRY, ProjectContext
from repro.analysis import project as project_module


def summarize(path, source):
    return summarize_module(textwrap.dedent(source), path)


def run_rule(rule_id, summaries, layers=None):
    return run_project_rules(summaries, select=[rule_id], layers=layers)


#: Fixture layering: three packages, alpha may import beta, nobody
#: may import gamma at module load, alpha may defer-import gamma.
FIXTURE_LAYERS = LayersConfig(
    allowed={"alpha": ("beta",), "beta": (), "gamma": ()},
    deferred={"alpha": ("gamma",)},
)


class TestLayersConfig:
    def test_checked_in_config_loads_and_matches_the_tree(self):
        config = load_layers_config()
        for package in ("core", "landmarks", "distributed", "graph",
                        "analysis", "cli"):
            assert package in config.allowed
        # The tentpole fix of this PR: landmarks must NOT be allowed
        # to import dynamics (the wal.py cycle this rule caught).
        assert "dynamics" not in config.allowed["landmarks"]
        assert "graph" in config.allowed["landmarks"]

    def test_deferred_keys_must_exist_in_layers(self, tmp_path):
        config = tmp_path / "layers.toml"
        config.write_text('[layers]\na = []\n[deferred]\nb = ["a"]\n',
                          encoding="utf-8")
        with pytest.raises(LayersConfigError, match="deferred"):
            load_layers_config(config)

    def test_cyclic_layers_are_rejected(self, tmp_path):
        config = tmp_path / "layers.toml"
        config.write_text(
            '[layers]\na = ["b"]\nb = ["c"]\nc = ["a"]\n',
            encoding="utf-8")
        with pytest.raises(LayersConfigError, match="cyclic"):
            load_layers_config(config)

    def test_malformed_entry_is_rejected(self, tmp_path):
        config = tmp_path / "layers.toml"
        config.write_text("[layers]\nwhat even is this\n", encoding="utf-8")
        with pytest.raises(LayersConfigError, match="cannot parse"):
            load_layers_config(config)


class TestW1Layering:
    def test_module_load_violation(self):
        summary = summarize("src/repro/beta/mod.py", """
            from repro.alpha import helper
        """)
        findings = run_rule("W1", [summary], layers=FIXTURE_LAYERS)
        assert [f.rule for f in findings] == ["W1"]
        assert "'beta' -> 'alpha'" in findings[0].message
        assert findings[0].line == 2

    def test_allowed_edge_is_silent(self):
        summary = summarize("src/repro/alpha/mod.py", """
            from repro.beta import helper
        """)
        assert run_rule("W1", [summary], layers=FIXTURE_LAYERS) == []

    def test_deferred_import_uses_the_extra_table(self):
        source = """
            def late():
                from repro.gamma import helper
                return helper
        """
        sanctioned = summarize("src/repro/alpha/mod.py", source)
        assert run_rule("W1", [sanctioned], layers=FIXTURE_LAYERS) == []
        # beta has no deferred grant for gamma: same import flags.
        unsanctioned = summarize("src/repro/beta/mod.py", source)
        findings = run_rule("W1", [unsanctioned], layers=FIXTURE_LAYERS)
        assert len(findings) == 1
        assert "deferred import" in findings[0].message

    def test_undeclared_package_is_flagged(self):
        summary = summarize("src/repro/delta/mod.py", "x = 1\n")
        findings = run_rule("W1", [summary], layers=FIXTURE_LAYERS)
        assert len(findings) == 1
        assert "not declared" in findings[0].message

    def test_intra_package_imports_are_free(self):
        summary = summarize("src/repro/alpha/mod.py", """
            from repro.alpha.other import helper
            from . import sibling
        """)
        assert run_rule("W1", [summary], layers=FIXTURE_LAYERS) == []


class TestW2DroppedParameterFlow:
    def test_bare_call_drops_the_flag(self):
        summary = summarize("src/repro/core/flags.py", """
            def inner(allow_stale=False):
                return allow_stale

            def outer(allow_stale=False):
                return inner()
        """)
        findings = run_rule("W2", [summary])
        assert [f.rule for f in findings] == ["W2"]
        assert "'outer' accepts 'allow_stale'" in findings[0].message

    def test_keyword_and_positional_forwarding_pass(self):
        summary = summarize("src/repro/core/flags.py", """
            def inner(allow_stale=False):
                return allow_stale

            def by_keyword(allow_stale=False):
                return inner(allow_stale=allow_stale)

            def by_position(allow_stale=False):
                return inner(allow_stale)

            def by_star(allow_stale=False, **kw):
                return inner(**kw)
        """)
        assert run_rule("W2", [summary]) == []

    def test_self_method_boundary_is_resolved(self):
        summary = summarize("src/repro/core/rec.py", """
            class Recommender:
                def _resolve(self, allow_stale=None):
                    return allow_stale

                def query(self, allow_stale=None):
                    return self._resolve()
        """)
        findings = run_rule("W2", [summary])
        assert len(findings) == 1
        assert "'Recommender.query'" in findings[0].message

    def test_constructor_boundary_is_resolved(self):
        summary = summarize("src/repro/core/build.py", """
            class Engine:
                def __init__(self, allow_stale=False):
                    self.allow_stale = allow_stale

            def build(allow_stale=False):
                return Engine()
        """)
        findings = run_rule("W2", [summary])
        assert len(findings) == 1
        assert "'Engine'" in findings[0].message

    def test_suppression_with_justification_silences(self):
        summary = summarize("src/repro/core/flags.py", """
            def inner(allow_stale=False):
                return allow_stale

            def on_purpose(allow_stale=False):
                return inner()  # repro: ignore[W2] -- fresh-only path: staleness must not propagate here
        """)
        assert run_rule("W2", [summary]) == []

    def test_callee_without_the_flag_is_silent(self):
        summary = summarize("src/repro/core/flags.py", """
            def inner(user):
                return user

            def outer(allow_stale=False):
                return inner(42)
        """)
        assert run_rule("W2", [summary]) == []


API_SOURCE = """
    from repro.core.scoring import score

    def recommend(user):
        return score(user)
"""

RAISER_SOURCE = """
    from repro.errors import StaleSnapshotError

    def score(user):
        if user < 0:
            raise StaleSnapshotError("stale")
        return user
"""


class TestW3ExceptionContracts:
    def _summaries(self, api_source=API_SOURCE):
        return [
            summarize("src/repro/api.py", api_source),
            summarize("src/repro/core/scoring.py", RAISER_SOURCE),
        ]

    def test_undeclared_escape_is_flagged_at_the_raiser(self):
        findings = run_rule("W3", self._summaries())
        assert [f.rule for f in findings] == ["W3"]
        assert findings[0].path == "src/repro/core/scoring.py"
        assert "repro.core.scoring.score" in findings[0].message
        assert "StaleSnapshotError" in findings[0].message

    def test_handling_on_the_path_clears_it(self):
        handled = """
            from repro.core.scoring import score

            def recommend(user):
                try:
                    return score(user)
                except StaleSnapshotError:
                    return 0
        """
        assert run_rule("W3", self._summaries(handled)) == []

    def test_catching_a_base_class_counts(self):
        handled = """
            from repro.core.scoring import score

            def recommend(user):
                try:
                    return score(user)
                except GraphError:
                    return 0
        """
        assert run_rule("W3", self._summaries(handled)) == []

    def test_bare_reraise_does_not_count_as_handling(self):
        reraised = """
            from repro.core.scoring import score

            def recommend(user):
                try:
                    return score(user)
                except StaleSnapshotError:
                    raise
        """
        findings = run_rule("W3", self._summaries(reraised))
        assert len(findings) == 1

    def test_contract_listed_raiser_is_sanctioned(self, monkeypatch):
        monkeypatch.setattr(
            project_module, "EXCEPTION_CONTRACTS",
            {"repro.core.scoring.score": ("StaleSnapshotError",)})
        assert run_rule("W3", self._summaries()) == []

    def test_unreachable_raiser_is_silent(self):
        summaries = [
            summarize("src/repro/api.py", "def recommend(user):\n"
                                          "    return user\n"),
            summarize("src/repro/core/scoring.py", RAISER_SOURCE),
        ]
        assert run_rule("W3", summaries) == []


class TestW4DeadPublicApi:
    def _summaries(self, extra_test="from repro.core.util import used\n"
                                    "used()\n"):
        summaries = [
            summarize("src/repro/__init__.py", ""),
            summarize("src/repro/core/util.py", """
                def used():
                    return 1

                def dead():
                    return 2

                def _private():
                    return 3
            """),
        ]
        if extra_test is not None:
            summaries.append(
                summarize("tests/test_util.py", extra_test))
        return summaries

    def test_unreferenced_public_name_is_flagged(self):
        findings = run_rule("W4", self._summaries())
        assert [f.rule for f in findings] == ["W4"]
        assert "'dead'" in findings[0].message
        assert findings[0].path == "src/repro/core/util.py"

    def test_init_reexport_does_not_keep_a_name_alive(self):
        summaries = self._summaries()
        summaries[0] = summarize("src/repro/__init__.py",
                                 "from .core.util import dead\n")
        findings = run_rule("W4", summaries)
        assert len(findings) == 1 and "'dead'" in findings[0].message

    def test_partial_runs_do_not_fire(self):
        # Without the package root, or without an out-of-package file
        # (the tests), the census is incomplete: the rule stays quiet.
        without_tests = self._summaries(extra_test=None)
        assert run_rule("W4", without_tests) == []
        without_root = self._summaries()[1:]
        assert run_rule("W4", without_root) == []

    def test_decorated_defs_are_exempt(self):
        summaries = self._summaries()
        summaries[1] = summarize("src/repro/core/util.py", """
            def used():
                return 1

            @staticmethod
            def dead():
                return 2
        """)
        assert run_rule("W4", summaries) == []


#: A fixture repo: the CLI root reaches ``scoring``, an example reaches
#: ``demo_only`` through a package re-export, and only a test imports
#: ``test_only`` (which the package ``__init__`` also re-exports).
W5_TREE = {
    "src/repro/__init__.py": "",
    "src/repro/cli.py": "from repro.core import scoring\n",
    "src/repro/core/__init__.py": (
        "from .demo_only import render\nfrom .test_only import helper\n"),
    "src/repro/core/scoring.py": "def score():\n    return 1\n",
    "src/repro/core/demo_only.py": "def render():\n    return 2\n",
    "src/repro/core/test_only.py": "def helper():\n    return 3\n",
    "tests/test_core.py": (
        "from repro.core.test_only import helper\n"
        "from repro.core import render, scoring\n"),
    "examples/demo.py": "from repro.core import render\n",
}


class TestW5TestOnlyModules:
    def _run(self, tmp_path, overrides=(), dirs=("src", "tests")):
        files = dict(W5_TREE, **dict(overrides))
        for relative, body in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body, encoding="utf-8")
        return run_analysis([str(tmp_path / d) for d in dirs],
                            select=["W5"]).findings

    def test_module_imported_only_by_a_test_is_flagged(self, tmp_path):
        findings = self._run(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [("W5", 1)]
        assert findings[0].path.endswith("test_only.py")
        assert "only tests import it" in findings[0].message

    def test_module_imported_by_an_example_is_not(self, tmp_path):
        findings = self._run(tmp_path)
        assert not any(f.path.endswith("demo_only.py") for f in findings)
        # Once the example stops importing it, nothing in production
        # reaches it.
        findings = self._run(tmp_path, {"examples/demo.py": ""})
        assert sorted(f.path.rsplit("/", 1)[-1] for f in findings) == [
            "demo_only.py", "test_only.py"]

    def test_justified_suppression_silences_the_module(self, tmp_path):
        findings = self._run(tmp_path, {
            "src/repro/core/test_only.py": (
                "# repro: ignore[W5] -- kept for a planned consumer\n"
                "def helper():\n    return 3\n")})
        assert findings == []

    def test_suppression_needs_a_justification(self, tmp_path):
        findings = self._run(tmp_path, {
            "src/repro/core/test_only.py": (
                "# repro: ignore[W5]\n"
                "def helper():\n    return 3\n")})
        assert [f.rule for f in findings] == ["R0"]
        assert "justification" in findings[0].message

    def test_partial_runs_do_not_fire(self, tmp_path):
        assert self._run(tmp_path, dirs=("src",)) == []


class TestProjectRulePlumbing:
    def test_registry_contains_w1_through_w4(self):
        assert set(PROJECT_REGISTRY) == {"W1", "W2", "W3", "W4", "W5"}
        instances = all_project_rules()
        assert [rule.id for rule in instances] == [
            "W1", "W2", "W3", "W4", "W5"]
        for rule in instances:
            assert rule.name and rule.description

    def test_custom_rule_registers_and_runs(self):
        @register_project
        class NoBetaModules(ProjectRule):
            id = "W9"
            name = "no-beta"
            description = "fixture rule: the beta package is forbidden"

            def check(self, project):
                for module in sorted(project.package_modules):
                    if module.startswith("repro.beta"):
                        yield self.finding(
                            project.package_modules[module], 1,
                            "beta is forbidden")

        try:
            summary = summarize("src/repro/beta/mod.py", "x = 1\n")
            findings = run_project_rules([summary], select=["W9"],
                                         layers=FIXTURE_LAYERS)
            assert [f.rule for f in findings] == ["W9"]
        finally:
            del PROJECT_REGISTRY["W9"]

    def test_context_resolves_imported_bindings(self):
        summaries = [
            summarize("src/repro/core/scoring.py",
                      "def score(user):\n    return user\n"),
            summarize("src/repro/api.py", API_SOURCE),
        ]
        context = ProjectContext(summaries, layers=FIXTURE_LAYERS)
        api = context.package_modules["repro.api"]
        candidates, confident = context.resolve_call(
            api, None, "score")
        assert candidates == ["repro.core.scoring.score"]
        assert confident


LAYERING_VIOLATION = """
from repro.dynamics import events


def replay(log):
    return [events, log]
"""

DROPPED_FLAG = """
def resolve(allow_stale=False):
    return allow_stale


def serve(allow_stale=False):
    return resolve()
"""


class TestGateFixtures:
    """The two acceptance fixtures: each must fail the CLI gate."""

    def _tree(self, tmp_path, package, name, body):
        target = tmp_path / "repro" / package
        target.mkdir(parents=True)
        (target / name).write_text(body, encoding="utf-8")
        return tmp_path

    def test_layering_violation_fails_the_gate(self, tmp_path, capsys):
        # landmarks -> dynamics at module load: the exact edge the
        # checked-in layers.toml forbids (PR 7 moved the shared event
        # model to repro.graph.events to break it).
        tree = self._tree(tmp_path, "landmarks", "replay.py",
                          LAYERING_VIOLATION)
        assert main([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "W1" in out
        assert "'landmarks' -> 'dynamics'" in out

    def test_dropped_allow_stale_fails_the_gate(self, tmp_path, capsys):
        tree = self._tree(tmp_path, "core", "serve.py", DROPPED_FLAG)
        assert main([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "W2" in out
        assert "allow_stale" in out

    def test_clean_fixture_tree_passes(self, tmp_path, capsys):
        tree = self._tree(tmp_path, "core", "serve.py", textwrap.dedent("""
            def resolve(allow_stale=False):
                return allow_stale


            def serve(allow_stale=False):
                return resolve(allow_stale=allow_stale)
        """))
        assert main([str(tree)]) == 0
        assert "no findings" in capsys.readouterr().out
