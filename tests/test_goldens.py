"""The Chow layer and every count in `formulas` against the golden file
written by `tests/chow_goldens.py`: canonical strings, variable tables and
coefficient types stay identical across refactors."""

import json

import pytest

import chow_goldens
from toricsing import catalog

GOLDENS = json.loads(chow_goldens.PATH.read_text(encoding="utf-8"))
NOW = chow_goldens.compute()


@pytest.mark.parametrize("spec", chow_goldens.SPECS)
def test_model_goldens(spec):
    assert NOW["models"][spec] == GOLDENS["models"][spec]


def test_large_symbolic_goldens():
    assert NOW["large"] == GOLDENS["large"]


def test_scalar_goldens():
    assert NOW["scalars"] == GOLDENS["scalars"]


def test_the_golden_file_covers_every_builtin_family():
    families = {spec.partition(":")[0] for spec in GOLDENS["models"]}
    assert families == set(catalog.FAMILIES)
