import sys

import pytest


@pytest.fixture
def digit_limit():
    """The interpreter's limit on the digits ``int`` and ``str`` convert at
    once (``PYTHONINTMAXSTRDIGITS``), set to its default of 4300 for the
    test where it is off."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit or 4300)
    yield limit or 4300
    sys.set_int_max_str_digits(limit)
