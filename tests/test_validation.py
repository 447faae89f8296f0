"""The built-in property-check suites must pass end to end."""
import re

import pytest

from predfdr.validation import run_checks


def test_quick_checks_all_pass():
    results = run_checks(full=False, seed=0)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, failed


def test_checks_stable_across_seeds():
    for seed in (1, 7):
        results = run_checks(full=False, seed=seed)
        assert all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed
        ]


@pytest.mark.parametrize(
    "seed, named", [(-1, "seed >= 0, got seed=-1"), (1.5, "integer seed, got seed=1.5")]
)
def test_checks_reject_a_bad_seed(seed, named):
    # seed = -1 used to fail with numpy's message
    with pytest.raises(ValueError, match=re.escape(named)):
        run_checks(seed=seed)
