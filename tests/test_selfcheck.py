"""The erratum probes and the certification scans, frozen byte for byte.

Both hashes were taken before the family membership rule moved into the one
analysis record that certify, the pairings and the scans read.
"""

import hashlib
import json
import subprocess
import sys

from theta_selmer import selfcheck, survey


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_selfcheck_unchanged():
    proc = subprocess.run(
        [sys.executable, "-m", "theta_selmer.cli", "selfcheck"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert sha256(proc.stdout) == (
        "6616d8619cb90af7f48168708b3fc31659690c18457e265a8f76b3a2f9fe314f"
    )


def test_scan_certification_unchanged():
    out = "\n".join(
        json.dumps(survey.scan_certification(family, 5000).as_dict(), sort_keys=True)
        for family in ("f5", "f11", "cor15", "cor16")
    )
    assert sha256(out) == "a9a1a653f1e9420fd6698b5296f07e060b19290ec08464b07c03a84d6876d855"


def test_selfcheck_max_bounds_the_family_probes():
    # 259 = 7 * 37 is the only F19 member up to 300
    small = selfcheck.run_all(max_n=300)
    assert small["probes"][1]["instances"] == [259]
    assert json.dumps(small, sort_keys=True) != json.dumps(selfcheck.run_all(1500), sort_keys=True)
