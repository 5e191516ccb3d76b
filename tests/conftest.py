"""Tier-1 runs in one memo scope: a result one test computes is a memo hit in
the tests after it, as the checks of one `run_suite` share theirs."""
import pytest

from hyperkit import search


@pytest.fixture(scope="session", autouse=True)
def one_memo_scope():
    with search.scope():
        yield
