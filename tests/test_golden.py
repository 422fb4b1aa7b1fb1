"""The argv corpus (tests/golden): every argv gives its recorded exit code,
stdout, stderr and files, and the comparison notices a changed byte."""

import math

import pytest

from golden import corpus
from ldpkit.cli import BOUNDS

ENTRIES = corpus.entries()
RECORDED = corpus.load()
# Bytes where the platform is the record's; elsewhere each number within the budget.
ULPS = 0 if RECORDED["platform"] == corpus.platform() else corpus.ULP_BUDGET


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.id for e in ENTRIES])
def test_argv_gives_its_recorded_bytes(entry, tmp_path):
    expected = RECORDED["records"][entry.id]
    actual = corpus.run(entry.argv, tmp_path)
    if not corpus.same(expected, actual, ULPS):
        hint = f"{entry.id} moved ({entry.note or 'no note'}); if intended, regenerate the records"
        assert actual == expected, hint


def test_every_entry_has_one_record_and_every_command_an_entry():
    ids = [e.id for e in ENTRIES]
    assert len(ids) == len(set(ids)) and set(ids) == set(RECORDED["records"])
    commands = {e.argv[0] for e in ENTRIES if e.argv}
    assert commands >= {"audit", "figure1", "bound", "remark", "model-curves", "oracle"}
    kinds = {e.argv[1] for e in ENTRIES if e.argv[:1] in (("bound",), ("oracle",))}
    assert kinds >= {*BOUNDS, "bayes-gammaopt", "eta-f", "profile-check"}


def test_every_fixture_is_read_by_an_entry():
    named = {word for e in ENTRIES for word in e.argv}
    assert sorted(p.name for p in corpus.FIXTURES.iterdir() if p.name not in named) == []


LECAM = RECORDED["records"]["lecam"]
_OUT = LECAM["stdout"]
_START = _OUT.index('"value": ') + len('"value": ')
_END = _OUT.index(",", _START)
_VALUE = _OUT[_START:_END]


def _with_value(text):
    """The lecam record with its bound value written as ``text``."""
    return {**LECAM, "stdout": _OUT[:_START] + text + _OUT[_END:]}


def test_one_changed_byte_fails():
    assert not corpus.same(LECAM, _with_value(chr(ord(_VALUE[0]) ^ 1) + _VALUE[1:]), 0)


def test_a_one_ulp_move_fails_at_budget_zero_and_passes_within_the_budget():
    x = float(_VALUE)
    moved = _with_value(repr(math.nextafter(x, 1.0)))
    assert not corpus.same(LECAM, moved, 0)
    assert corpus.same(LECAM, moved, corpus.ULP_BUDGET)
    assert not corpus.same(LECAM, _with_value(repr(x * (1 + 1e-9))), corpus.ULP_BUDGET)


@pytest.mark.parametrize("ulps", [0, corpus.ULP_BUDGET])
def test_changed_text_fails_at_any_budget(ulps):
    renamed = {**LECAM, "stdout": _OUT.replace('"value"', '"valuf"')}
    assert not corpus.same(LECAM, renamed, ulps)
