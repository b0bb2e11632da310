from __future__ import annotations

import pytest

from finquot.groups import cyclic_group, diagonal_group, sanov_group
from finquot.profiler import ReductionBudget, ReductionScanner


@pytest.fixture(scope="session")
def sanov():
    return sanov_group(0)


@pytest.fixture(scope="session")
def sanov3():
    return sanov_group(3)


@pytest.fixture(scope="session")
def cyclic():
    return cyclic_group()


@pytest.fixture(scope="session")
def diagonal():
    return diagonal_group()


@pytest.fixture(scope="session")
def sanov_scanner(sanov):
    return ReductionScanner(sanov, ReductionBudget())


@pytest.fixture(scope="session")
def sanov3_scanner(sanov3):
    return ReductionScanner(sanov3, ReductionBudget())


@pytest.fixture(scope="session")
def cyclic_scanner(cyclic):
    return ReductionScanner(cyclic, ReductionBudget())
