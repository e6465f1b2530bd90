"""The gate of the mutation table in ``mutants.py``: every entry applies to
today's source, the unmutated copy passes every named test, and every mutant
is killed."""

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT, copy_src, mutated_text, run_all

by_id = pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@by_id
def test_old_snippet_occurs_once(mutant):
    # mutated_text raises unless the snippet occurs exactly once
    assert mutated_text(mutant) != (ROOT / "src" / mutant.path).read_text()


def test_copy_is_what_the_tests_import(tmp_path):
    src = copy_src(tmp_path)
    out = subprocess.run(
        [sys.executable, "-c", "import detfuse; print(detfuse.__file__)"],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == str(src / "detfuse" / "__init__.py")


@pytest.fixture(scope="module")
def runs():
    """The unmutated copy's run and every mutant's ``killed`` result, run in
    one parallel pool once for the module."""
    clean, results = run_all()
    return clean, {mutant.id: outcome for mutant, outcome in zip(MUTANTS, results)}


def test_unmutated_copy_passes_every_named_test(runs):
    clean, _ = runs
    assert clean.returncode == 0, clean.stdout[-4000:]


@by_id
def test_mutant_is_killed(mutant, runs):
    _, outcomes = runs
    ok, result = outcomes[mutant.id]
    assert ok, f"{mutant.id} survived {mutant.tests}:\n{result.stdout[-4000:]}"
