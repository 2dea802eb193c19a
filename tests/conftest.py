import warnings

import pytest

from elgeo.axioms import Signature

# hypothesis imports this module to report a failing example, and the import warns that
# mypy_extensions.TypedDict is deprecated; under -W error that warning would end the
# whole session, so it is imported once here, with the warning ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def tiny_sig():
    sig = Signature()
    for name in "ABCDEFGH":
        sig.intern_class(name)
    for name in ("r", "s"):
        sig.intern_relation(name)
    return sig
