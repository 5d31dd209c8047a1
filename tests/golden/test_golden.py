"""Every golden op reproduces its recorded exit code, stdout and report.

Regenerate the records with ``tests/golden/update.py`` after an intended
change; set ``HARTOGS_GOLDEN_EXACT=1`` to demand identical bytes.
"""

import pytest

from corpus import OPS, read_record, record_diff, run_op


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_matches_its_record(name, tmp_path):
    diff = record_diff(read_record(name), run_op(name, tmp_path))
    assert diff is None, f"{name}: {diff}"
