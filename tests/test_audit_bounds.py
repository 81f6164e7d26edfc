"""The audit's size bounds, checked before any basis is drawn."""

from __future__ import annotations

import pytest

from envarkit import CustomFrame, DimensionMismatch, ParseError, audit
from envarkit import gleason


def test_audit_rejects_sizes_past_its_bounds_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("bases drawn for an audit past its bounds")

    monkeypatch.setattr(gleason, "_haar_bases", no_draw)
    frame = CustomFrame(lambda v: 0.0)
    with pytest.raises(DimensionMismatch, match="exceeds bound"):
        audit(frame, gleason.MAX_AUDIT_DIM + 1, 1)
    with pytest.raises(ParseError, match="exceed bound"):
        audit(frame, 3, gleason.MAX_AUDIT_TRIALS + 1)
    gleason._check_audit_size(gleason.MAX_AUDIT_DIM, gleason.MAX_AUDIT_TRIALS, 0)


def test_bounds_cover_every_used_dim_and_keep_a_stack_small():
    # the tests, golden entries and benchmark audit dims 3-16; the largest
    # stack's (256, 2, dim, dim) float64 draw stays far below 1 GB
    assert gleason.MAX_AUDIT_DIM >= 16
    assert gleason._AUDIT_CHUNK * 2 * gleason.MAX_AUDIT_DIM**2 * 8 < 2**25


def test_an_audit_at_the_dim_bound_runs():
    report = audit(CustomFrame(lambda v: 1.0 / gleason.MAX_AUDIT_DIM), gleason.MAX_AUDIT_DIM, 2)
    assert report.dim == gleason.MAX_AUDIT_DIM and report.verdict == "CONSISTENT"
