"""Fixtures shared by the test modules."""

import pytest

import minasym.autom as autom_mod


@pytest.fixture(autouse=True)
def _no_shared_engine():
    """Each test starts with no engine held for reuse, so the tests that
    count walks, refinements or incidence lists do not depend on which
    structure the test before them queried last."""
    autom_mod._memo.key = autom_mod._memo.engine = None
