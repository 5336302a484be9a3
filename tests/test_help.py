"""The help text of ``rulemine`` and of each subcommand, pinned by SHA-256
at two terminal widths. argparse reads the width from ``COLUMNS``, so each
case sets it. The digests were recorded with Python 3.11."""

import hashlib

import pytest

from rulemine.cli import main

HELP_SHA256 = {
    ("60", ""): "5a0bc1f07b688c7c283860954c06ae7d31ebc909907da882179b6af39f1b2fc2",
    ("60", "freq"): "822631d33dc8c1041c55e459712141b89add44105a843212658b2de464eba1c5",
    ("60", "select"): "7a4419fb803af326c68f8958b4c3d858174181c0f58727b974dc7bcb28612faf",
    ("60", "mine"): "65058b5123d4432d0eb0142ee341fe52f9087595ec0beb15393414a8b3e12466",
    ("60", "synth"): "b25a3fdc23ca653fc5723d459a72af2573e024f70e4237891f1b255f92bf0265",
    ("60", "verify"): "788c3f0ed318fb870f3ca44f8182206dfa20640caf271c8751d6c9688aac1de7",
    ("120", ""): "50a0281a21db224673877ab6918478be813fdf3b62750ea01e2590d93e28b177",
    ("120", "freq"): "84106b128a9be9143be9a0616843e3fbcaa9faf75a45f511da1eed0b762df8a1",
    ("120", "select"): "a562082ca00d202dab43b4dda009025c2bef306a98e1c90cfcaf85c8136686e4",
    ("120", "mine"): "5c3c41969eb5e3b991285505f8da41faa8719f87a92fca84b3fbe035251e8287",
    ("120", "synth"): "3f0641159e04ec60fe08c392cafc05e94ca75576c252bf277575490b7b6104c3",
    ("120", "verify"): "e50d5ca3eda49daafcff46cc1328e11b874ead26867f7513c8728a2163cfddfe",
}


@pytest.mark.parametrize("columns,command", HELP_SHA256, ids=[
    f"{command or 'rulemine'}-{columns}" for columns, command in HELP_SHA256])
def test_help_text_is_pinned(monkeypatch, capsys, columns, command):
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[columns, command]
