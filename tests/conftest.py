"""The Hermite form against its reference on every matrix the tests reduce.

``intlinalg.hermite_normal_form`` row-reduces the one matrix [A | I].  Each
call that a test makes through the module, such as the kernel behind a
torus or g3 condition K, or a rank over Q, must return the (H, U) of
``reference.hermite_normal_form_ref``, which updates U beside A.
"""

import pytest
from reference import hermite_normal_form_ref

from twistk import intlinalg


@pytest.fixture(autouse=True)
def hermite_form_matches_reference(monkeypatch):
    form = intlinalg.hermite_normal_form

    def checked(rows):
        result = form(rows)
        assert result == hermite_normal_form_ref(rows), f"Hermite form differs from the reference on {rows}"
        return result

    monkeypatch.setattr(intlinalg, "hermite_normal_form", checked)
