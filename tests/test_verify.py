import pytest

import oscillax.verify as verify
from oscillax.errors import ParamOutOfRange


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(ParamOutOfRange, match="unknown suite 'bogus'"):
        verify.run_suites(["bogus"])


def test_run_suites_checks_every_name_before_running(monkeypatch):
    ran = []
    monkeypatch.setitem(
        verify.SUITE_BUILDERS, "paper", lambda nmax, cases, seed: ran.append("paper")
    )
    with pytest.raises(ParamOutOfRange, match="unknown suite 'bogus'"):
        verify.run_suites(["paper", "bogus"])
    assert ran == []
    verify.run_suites(["paper"])
    assert ran == ["paper"]
