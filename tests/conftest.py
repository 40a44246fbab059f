"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from resichain import _memo


@pytest.fixture
def memo_restarts(monkeypatch):
    """memo_restarts(memo): how often memo has started over during the
    test, whether by clear() or by put() at the size limit."""
    counts = Counter()

    def clear(memo):
        counts[id(memo)] += 1
        dict.clear(memo)

    monkeypatch.setattr(_memo.Memo, "clear", clear)
    return lambda memo: counts[id(memo)]
