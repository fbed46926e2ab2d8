"""The CLI's outputs over the golden command set equal the committed ones.

``tools/golden.txt`` is ``python tools/golden.py src`` at the committed code:
one line per command with the digests of its stdout and stderr, its exit
code and its argv.  The digests depend on the platform's libm, numpy,
orjson and Python; a change that means to change an output regenerates the
file.
"""

from __future__ import annotations

from pathlib import Path

from xkraus import cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_outputs_match_the_committed_fingerprints(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import golden

    monkeypatch.syspath_prepend(str(golden.BENCH))
    monkeypatch.setenv("COLUMNS", "80")
    got = golden.fingerprints(cli)
    want = (TOOLS / "golden.txt").read_text().splitlines()
    assert len(got) == len(want)
    # the argv, the last field, of every command whose line differs
    assert [g.split(" ", 3)[3] for g, w in zip(got, want) if g != w] == []
