"""Pinned report bytes for the README's four CLI modes.

Reference pattern, seed 0, all 8 inputs, 32 shots; the noisy mode is routed
on ``couplings/ladder16.txt``.  The ``qfhe`` run's ``--dump-transcript``
file is pinned too.  Any change to seeded output fails here; a
change that must move a hash says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from qfhesim.cli import main

REPO = Path(__file__).resolve().parents[1]

GOLDEN = {
    "interactive": (
        "60214d6c53170ff2791d0edef095e07246892b2f2197ad2cbd6e699ab44e12a0",
        "177413e65b60631d0e719122a7518a14e3a2b6352c6167f68a0754e3f370f80e",
    ),
    "qfhe": (
        "90ae03c4f9e5fb2ae82d9a50d32e150368c77cf1923b4362310af4c4a72dba65",
        "b6b39857b2692b25806cc9d4812fe5f6c52c80dbe9b59faaaa88838c933b1524",
    ),
    "qfhe-circuit": (
        "96358b01474cccae5a128651d2d17e2b6dcc37ea1dbfd7dbc2dcbe1cbfbc3c08",
        "744ab152041c688ea3b6d1abece4c340bbb2a2a5ab94ff3361009dfde70e0283",
    ),
    "qfhe-circuit-noisy": (
        "dc2492281e186a6ac7686bcadb59aadd1f715697a9b8459cdc6356b436a858ea",
        "66b8339345165b8da84fe8a8a87cc5a32a56908cbacc6f6e82a3dcca3fc50fc4",
    ),
}


@pytest.mark.parametrize("mode", list(GOLDEN))
def test_report_bytes_are_pinned(tmp_path, mode):
    args = ["run", "--mode", mode, "--pattern", "reference"]
    args += ["--shots", "32", "--seed", "0", "--out", str(tmp_path)]
    if mode == "qfhe-circuit-noisy":
        args += ["--coupling", str(REPO / "couplings" / "ladder16.txt")]
    assert main(args) == 0
    got = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("report.json", "table.csv")
    )
    assert got == GOLDEN[mode]


TRANSCRIPT = "ae0c77ceb5de02b9833c8e5cd966e1e87a284c48ede0382bd549685ffad11637"


def test_transcript_bytes_are_pinned(tmp_path):
    args = ["run", "--mode", "qfhe", "--pattern", "reference", "--shots", "32"]
    args += ["--seed", "0", "--out", str(tmp_path), "--dump-transcript"]
    assert main(args) == 0
    got = hashlib.sha256((tmp_path / "transcript.txt").read_bytes()).hexdigest()
    assert got == TRANSCRIPT
