"""Static-analyzer tests: every diagnostic code, CLI, ODE050.

The deliberately-defective declarations live in
:mod:`tests.analysis_fixtures`; each test here asserts the analyzer
reports exactly the expected stable code, and the ``Clean*`` control
classes stay quiet.  CLI behaviour (including the ``examples/ --fail-on
info`` repo gate) runs in subprocesses so the bad fixture classes never
pollute the child's type registry.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import (
    CODES,
    Severity,
    analyze_class,
    analyze_classes,
    analyze_database,
    analyze_machine,
)
from repro.analysis.subsumption import check_subsumption
from repro.core.declarations import trigger
from repro.events.compile import compile_expression
from repro.events.dfa import find_inclusion_witness, language_included
from repro.objects.persistent import Persistent
from tests import analysis_fixtures as fx

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"


def _noop(self, ctx) -> None:
    pass


class TestDiagnosticCatalogue:
    def test_every_code_has_severity_and_title(self):
        for code, (severity, title) in CODES.items():
            assert code.startswith("ODE")
            assert isinstance(severity, Severity)
            assert title

    def test_unknown_code_rejected(self):
        from repro.analysis import Diagnostic

        with pytest.raises(ValueError):
            Diagnostic("ODE999", "no such code")


class TestClassFixtures:
    """Each bad class seeds exactly its expected code."""

    @pytest.mark.parametrize(
        "cls_name, code",
        [
            ("BadVacuousMask", "ODE010"),
            ("BadUnusedMask", "ODE011"),
            ("BadSubsumedPair", "ODE020"),
            ("BadIdenticalPair", "ODE021"),
            ("BadImmediateCascade", "ODE030"),
            ("BadDeferredCascade", "ODE031"),
            ("BadGhostPoster", "ODE032"),
            ("BadDetachedAbort", "ODE040"),
            ("BadDeferredCommitWatch", "ODE041"),
            ("WarnGuardedCascade", "ODE201"),
            ("BadRacingPair", "ODE202"),
            ("BadStalePoster", "ODE203"),
            ("BadSilentPoster", "ODE204"),
            ("BadStaleSuppress", "ODE205"),
            ("BadOpaqueAction", "ODE206"),
        ],
    )
    def test_bad_class_reports_exact_code(self, cls_name, code):
        report = analyze_class(getattr(fx, cls_name))
        assert report.codes() == {code}

    def test_immediate_cascade_is_an_error(self):
        report = analyze_class(fx.BadImmediateCascade)
        (diag,) = report.by_code("ODE030")
        assert diag.severity == Severity.ERROR

    def test_hidden_cascade_needs_inference(self):
        """An undeclared post_event cycle with no posts= metadata at all:
        the ODE200 acceptance case, plus one ODE204 per silent post."""
        report = analyze_class(fx.BadHiddenCascade)
        assert report.codes() == {"ODE200", "ODE204"}
        (diag,) = report.by_code("ODE200")
        assert diag.severity == Severity.ERROR
        assert "A2B" in diag.message and "B2A" in diag.message
        assert len(report.by_code("ODE204")) == 2

    def test_guarded_cycle_is_a_warning_not_an_error(self):
        report = analyze_class(fx.WarnGuardedCascade)
        (diag,) = report.by_code("ODE201")
        assert diag.severity == Severity.WARNING
        assert "predicate-guarded" in diag.message

    def test_racing_pair_names_the_conflicting_attribute(self):
        report = analyze_class(fx.BadRacingPair)
        (diag,) = report.by_code("ODE202")
        assert "total" in diag.message
        assert diag.related == ("BadRacingPair.ClampTotal",)

    def test_subsumption_names_both_triggers(self):
        report = analyze_class(fx.BadSubsumedPair)
        (diag,) = report.by_code("ODE020")
        assert diag.location.trigger == "Narrow"
        assert "Broad" in diag.related

    @pytest.mark.parametrize(
        "cls_name",
        [
            "CleanIncomparablePair",
            "CleanOnceOnlyCycle",
            "CleanSuppressedPair",
            "CleanDeclaredPoster",
            "CleanCommutingPair",
        ],
    )
    def test_control_classes_are_clean(self, cls_name):
        report = analyze_class(getattr(fx, cls_name))
        assert report.diagnostics == []

    def test_suppression_hides_a_real_finding(self):
        """The suppressed pair genuinely overlaps; suppress= is doing work."""
        infos = fx.CleanSuppressedPair.__metatype__.trigger_infos
        raw = check_subsumption(list(infos), "CleanSuppressedPair")
        assert {d.code for d in raw} == {"ODE020"}
        assert raw[0].location.trigger == "Escalate"


class TestMachineFixtures:
    """Hand-built machines the compiler could never emit."""

    @pytest.mark.parametrize(
        "machine_name, code",
        [
            ("unreachable-state", "ODE001"),
            ("trap-state", "ODE002"),
            ("never-accepts", "ODE003"),
            ("vacuous-mask", "ODE010"),
        ],
    )
    def test_machine_reports_exact_code(self, machine_name, code):
        fsm = fx.__analysis_machines__[machine_name]
        found = analyze_machine(fsm)
        assert {d.code for d in found} == {code}

    def test_compiled_machines_pass_machine_passes(self):
        """The pipeline (minimize + prune) leaves nothing for these passes."""
        for text in ["A, B", "^(A, B)", "(A & m) || B", "*(A), B, +(C)"]:
            fsm = compile_expression(text, ["A", "B", "C"]).fsm
            assert analyze_machine(fsm) == []


class TestLanguageInclusion:
    """The product construction, exercised in both directions."""

    DECLS = ["Deposit", "Audit"]

    def _fsm(self, text):
        return compile_expression(text, self.DECLS, known_masks=["big"]).fsm

    def test_narrow_included_in_broad(self):
        narrow = self._fsm("Deposit & big")
        broad = self._fsm("Deposit")
        assert language_included(narrow, broad)
        assert find_inclusion_witness(narrow, broad) is None

    def test_broad_not_included_in_narrow(self):
        narrow = self._fsm("Deposit & big")
        broad = self._fsm("Deposit")
        witness = find_inclusion_witness(broad, narrow)
        assert witness is not None
        assert not language_included(broad, narrow)

    def test_incomparable_pair_has_witnesses_both_ways(self):
        a = self._fsm("Deposit")
        b = self._fsm("Audit")
        assert find_inclusion_witness(a, b) is not None
        assert find_inclusion_witness(b, a) is not None

    def test_identical_languages_included_both_ways(self):
        a = self._fsm("Deposit, Audit")
        b = self._fsm("Deposit, Audit")
        assert language_included(a, b)
        assert language_included(b, a)


class _ExampleLoader:
    _modules: dict[str, object] = {}

    @classmethod
    def load(cls, path: pathlib.Path):
        name = f"ode_test_example_{path.stem}"
        if name not in cls._modules:
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            cls._modules[name] = module
        return cls._modules[name]


class TestExamplesAreClean:
    def test_every_example_class_is_clean(self):
        """The examples directory is lint-clean (in-process twin of the CLI
        ``examples/ --fail-on info`` gate; uses explicit targets because the
        bad fixture classes share this process's type registry)."""
        targets = []
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            module = _ExampleLoader.load(path)
            for obj in vars(module).values():
                if (
                    isinstance(obj, type)
                    and issubclass(obj, Persistent)
                    and obj is not Persistent
                    and obj.__module__ == module.__name__
                ):
                    targets.append(obj)
        assert targets, "no persistent classes found under examples/"
        report = analyze_classes(targets)
        assert report.diagnostics == [], report.render_text()

    def test_builtin_workloads_are_clean(self):
        from repro.workloads.credit_card import CredCard
        from repro.workloads.trading import Portfolio, Stock

        report = analyze_classes([CredCard, Stock, Portfolio])
        assert report.diagnostics == [], report.render_text()


class DeadEndGadget(Persistent):
    """Anchored two-step window: one wrong event and the machine is dead."""

    __events__ = ["EvA", "EvB"]
    __triggers__ = [trigger("Window", "^(EvA, EvB)", action=_noop)]


class TestDatabaseAnalysis:
    def test_healthy_active_trigger_is_clean(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            gadget = db.pnew(DeadEndGadget)
            gadget.Window()
        assert analyze_database(db).diagnostics == []

    def test_dead_anchored_trigger_reports_ode050(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            gadget = db.pnew(DeadEndGadget)
            gadget.Window()
            gadget.post_event("EvB")  # misses the window for good
        report = analyze_database(db)
        assert report.codes() == {"ODE050"}
        (diag,) = report.diagnostics
        assert diag.location.trigger == "Window"


def _run_cli(*argv: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        cwd=cwd or str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


EXPECTED_FIXTURE_CODES = {
    "ODE001",
    "ODE002",
    "ODE003",
    "ODE010",
    "ODE011",
    "ODE020",
    "ODE021",
    "ODE030",
    "ODE031",
    "ODE032",
    "ODE040",
    "ODE041",
    "ODE200",
    "ODE201",
    "ODE202",
    "ODE203",
    "ODE204",
    "ODE205",
    "ODE206",
}


class TestCommandLine:
    def test_fixtures_file_reports_every_seeded_code(self):
        proc = _run_cli("tests/analysis_fixtures.py")
        assert proc.returncode == 1, proc.stderr
        for code in EXPECTED_FIXTURE_CODES:
            assert code in proc.stdout

    def test_json_output_is_parseable(self):
        proc = _run_cli("tests/analysis_fixtures.py", "--format", "json")
        assert proc.returncode == 1, proc.stderr
        findings = json.loads(proc.stdout)
        assert {f["code"] for f in findings} == EXPECTED_FIXTURE_CODES
        assert all("severity" in f and "message" in f for f in findings)

    def test_fail_on_never_reports_but_exits_zero(self):
        proc = _run_cli("tests/analysis_fixtures.py", "--fail-on", "never")
        assert proc.returncode == 0, proc.stderr
        assert "ODE030" in proc.stdout

    def test_self_check_examples_passes(self):
        """The repo gate: examples/ must be lint-clean — a directory target
        under ``--fail-on info`` fails on any finding at all."""
        proc = _run_cli("examples", "--fail-on", "info")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_self_check_fails_on_bad_directory(self, tmp_path):
        bad = tmp_path / "bad_module.py"
        bad.write_text(
            "from repro.core.declarations import trigger\n"
            "from repro.objects.persistent import Persistent\n"
            "class Leak(Persistent):\n"
            "    __events__ = ['Go']\n"
            "    __triggers__ = [trigger('T', 'Go', action=lambda s, c: None,\n"
            "                            posts=('Missing',))]\n"
        )
        proc = _run_cli(str(tmp_path), "--fail-on", "info")
        assert proc.returncode == 1
        assert "ODE032" in proc.stdout

    def test_module_target_is_clean(self):
        proc = _run_cli("repro.workloads.credit_card", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_list_codes_prints_catalogue(self):
        proc = _run_cli("--list-codes")
        assert proc.returncode == 0
        for code in ("ODE001", "ODE020", "ODE050"):
            assert code in proc.stdout

    def test_unknown_target_exits_two(self):
        proc = _run_cli("no/such/target")
        assert proc.returncode == 2

    def test_database_target_with_and_without_schema(self, tmp_path):
        """A db path is a *prefix*; without the defining module the states
        are skipped with an ODE051 note, with it the dead state is ODE050."""
        schema = tmp_path / "sensor_schema.py"
        schema.write_text(
            "from repro import Persistent, trigger\n"
            "class CliSensor(Persistent):\n"
            "    __events__ = ['EvA', 'EvB']\n"
            "    __triggers__ = [trigger('Window', '^(EvA, EvB)',\n"
            "                            action=lambda s, c: None)]\n"
        )
        build = tmp_path / "build_db.py"
        build.write_text(
            "import sys\n"
            f"sys.path.insert(0, {str(tmp_path)!r})\n"
            "from repro import Database\n"
            "from sensor_schema import CliSensor\n"
            f"db = Database.open({str(tmp_path / 'sensors')!r}, engine='disk')\n"
            "with db.transaction():\n"
            "    s = db.pnew(CliSensor)\n"
            "    s.Window()\n"
            "    s.post_event('EvB')\n"  # anchored window missed: dead
            "db.close()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        subprocess.run(
            [sys.executable, str(build)],
            env=env,
            check=True,
            capture_output=True,
            timeout=120,
        )
        db_prefix = str(tmp_path / "sensors")

        alone = _run_cli(db_prefix)
        assert alone.returncode == 0, alone.stdout + alone.stderr
        assert "ODE051" in alone.stdout  # info: type not loaded, exit clean

        # ODE050 is a warning; the default gate is `error`, so ask for
        # the stricter threshold explicitly.
        with_schema = _run_cli(str(schema), db_prefix, "--fail-on", "warning")
        assert with_schema.returncode == 1
        assert "ODE050" in with_schema.stdout

    def test_warnings_only_run_exits_zero(self, tmp_path):
        """The exit-code contract: findings below `error` never fail the
        default run, in text or JSON mode."""
        mod = tmp_path / "stale_posts.py"
        mod.write_text(
            "from repro.core.declarations import trigger\n"
            "from repro.objects.persistent import Persistent\n"
            "def _quiet(self, ctx):\n"
            "    pass\n"
            "class StaleOnly(Persistent):\n"
            "    __events__ = ['Go', 'Done']\n"
            "    __triggers__ = [trigger('T', 'Go', action=_quiet,\n"
            "                            posts=('Done',))]\n"
        )
        text = _run_cli(str(mod))
        assert text.returncode == 0, text.stdout + text.stderr
        assert "ODE203" in text.stdout
        as_json = _run_cli(str(mod), "--format", "json")
        assert as_json.returncode == 0, as_json.stdout + as_json.stderr
        assert {f["code"] for f in json.loads(as_json.stdout)} == {"ODE203"}

    def test_tools_lint_subcommand_dispatches(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools", "lint", "--list-codes"],
            cwd=str(REPO_ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "ODE020" in proc.stdout

    def test_package_directory_imports_each_file_once(self):
        """A directory of package modules that import one another: each is
        loaded once, under its dotted name, so no class is registered twice
        (which would warn that it "replaces the one from module")."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning", "-m",
                "repro.tools", "lint", "src/repro/workloads/", "--fail-on", "error",
            ],
            cwd=str(REPO_ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
