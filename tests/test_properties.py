"""Property tests on random labels (skipped when hypothesis is missing)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from oracle_utils import ideal_rows_reference  # noqa: E402

from slfusion.dual import oracle_character  # noqa: E402
from slfusion.modules import FusionModule  # noqa: E402

# sorted labels with n <= 4 and entries <= 5; (5,5,5,5) is the costliest
labels = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=15, deadline=None)
@given(labels)
def test_build_matches_reference_and_dual_oracle(a):
    module = FusionModule(a)
    assert module.ideal_rows == ideal_rows_reference(a)
    assert module.character() == oracle_character(a)
