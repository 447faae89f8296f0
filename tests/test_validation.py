"""The built-in property-check suites must pass end to end."""
import re

import numpy as np
import pytest

from predfdr import validation
from predfdr.validation import CheckResult, _check_conjugacy, _check_mc_fdr, run_checks


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


def _shared_stream(seed, words, uinteger=None):
    """The one stream ``run_checks(seed=seed)`` used to pass every check in
    turn, where it reached a check: ``words`` 64-bit draws on, holding the
    unused half ``uinteger`` of a 32-bit draw when one was left over."""
    bit_gen = np.random.PCG64(seed)
    bit_gen.advance(words)
    if uinteger is not None:
        state = bit_gen.state
        state.update(has_uint32=1, uinteger=uinteger)
        bit_gen.state = state
    return np.random.Generator(bit_gen)


@pytest.mark.parametrize(
    "check, n, seed, words, uinteger",
    [
        # the mean threshold was compared with the classic rule's threshold,
        # which it does not estimate: |mc - deterministic| 0.0583 > tol 0.0577
        (_check_mc_fdr, 3000, 9, 40160, None),
        (_check_mc_fdr, 3000, 24, 42094, None),
        # a posterior mean that cancels to about -3e-5 made a rounding gap of
        # 6e-17 read 1.76e-12 relative
        (_check_conjugacy, 200, 372, 38435, 2677329863),
        (_check_conjugacy, 200, 391, 41193, 4208900566),
    ],
    ids=["mc_fdr_seed9", "mc_fdr_seed24", "conjugacy_seed372", "conjugacy_seed391"],
)
def test_checks_pass_on_the_inputs_they_failed_on(check, n, seed, words, uinteger):
    # `predfdr validate --seed <seed>` failed these checks on a correct program
    result = check(_shared_stream(seed, words, uinteger), n)
    assert result.passed, result.detail


def test_each_check_draws_from_its_own_stream(monkeypatch):
    # a check that draws nothing leaves every other check's inputs, and so
    # its result and diagnostic, as they were
    before = run_checks(seed=3)
    monkeypatch.setattr(
        validation,
        "_check_selector_equivalence",
        lambda rng, n: CheckResult("selector_equivalence", True, "stub"),
    )
    after = run_checks(seed=3)
    assert after[0].detail == "stub"
    assert after[1:] == before[1:]
