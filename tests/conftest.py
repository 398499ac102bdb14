"""Fixtures shared by the test modules."""

import pytest

import nmcg.pi1_action as pa


@pytest.fixture
def cold_evaluators():
    """Drop the shared per-genus Evaluators, so a test sees every letter
    table and part built afresh, whatever earlier tests evaluated."""
    pa.evaluator.cache_clear()
