from __future__ import annotations

import numpy as np
import pytest

from noisebench.errors import DegenerateSpectrumError, ZeroPowerError, raise_first


def checks(zero, negative):
    return [
        (np.array(zero), lambda i: ZeroPowerError(f"zero at {i}")),
        (np.array(negative), lambda i: DegenerateSpectrumError(f"negative at {i}")),
    ]


class TestRaiseFirst:
    def test_entry_order_beats_check_order(self):
        with pytest.raises(DegenerateSpectrumError, match="negative at 1"):
            raise_first(checks([False, False, True], [False, True, False]))

    def test_first_check_wins_within_an_entry(self):
        with pytest.raises(ZeroPowerError, match="zero at 2"):
            raise_first(checks([False, False, True, True], [False, False, True, False]))

    def test_nothing_flagged_raises_nothing(self):
        raise_first(checks([False, False], [False, False]))
        raise_first(checks([], []))
        raise_first([])
