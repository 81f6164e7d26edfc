"""Short runs of the two reference sweeps, so neither gate can rot between full runs."""

from __future__ import annotations

import sweep_audit_reference
import sweep_engine_reference


def test_reference_sweeps_pass_short_runs(capsys):
    assert sweep_engine_reference.main(["--states", "20"]) == 0
    assert sweep_audit_reference.main(["--audits", "18"]) == 0
    out = capsys.readouterr().out
    assert "hand-built" in out and "18 audits, 0 mismatches" in out
