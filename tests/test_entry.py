"""The process entry ``cli.run``: ``python -m rulemine``, ``python -m
rulemine.cli`` and the ``rulemine`` script freeze the heap once ``main()``
returns, keep its exit code, report an unwritable or closed stdout as a
data error, and write the ``--output`` bytes to stdout whatever its
encoding."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rulemine.cli import main

ROOT = Path(__file__).resolve().parent.parent
# children get block-buffered stdio, as a user's shell gives them
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
ENV.pop("PYTHONUNBUFFERED", None)

# argv -> the exit code main() returns (or argparse raises) for it
SYNTH_OK = ["synth", "--n", "5", "--marginal", "a=0.5"]
MISSING_INPUT = ["mine", "--input", str(ROOT / "no-such-cohort.csv")]
BAD_THRESHOLD = ["mine", "--input", str(ROOT / "no-such-cohort.csv"), "--min-support", "2"]
CASES = pytest.mark.parametrize("argv,code", [
    (SYNTH_OK, 0), (MISSING_INPUT, 1), (BAD_THRESHOLD, 2),
], ids=["ok", "missing_input", "bad_threshold"])

# a child that runs one entry with sys.argv set and prints the freeze count
# and the exit code; the module entries end in SystemExit, as under -m
CHILD = """
import gc, runpy, sys
sys.argv = ["rulemine", *{argv!r}]
try:
    {call}
except SystemExit as exc:
    rc = exc.code
print(gc.get_freeze_count(), rc)
"""
ENTRIES = {
    "run": "from rulemine.cli import run; rc = run()",
    "__main__": "runpy.run_module('rulemine', run_name='__main__', alter_sys=True)",
    "cli": "runpy.run_module('rulemine.cli', run_name='__main__', alter_sys=True)",
}


def _child(*args, stdout=subprocess.PIPE, env=ENV) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


def _entry_child(entry: str, argv: list[str]) -> tuple[int, int]:
    """The freeze count and exit code of a child that ran ``entry``."""
    out = _child("-c", CHILD.format(argv=argv, call=ENTRIES[entry])).stdout
    freeze_count, rc = map(int, out.split()[-2:])
    return freeze_count, rc


def test_main_does_not_freeze(tmp_path, capsys):
    before = gc.get_freeze_count()
    cohort = tmp_path / "cohort.csv"
    assert main([*SYNTH_OK, "--output", str(cohort)]) == 0
    assert main(["mine", "--input", str(cohort), "--min-support", "0.2"]) == 0
    assert main(MISSING_INPUT) == 1
    assert gc.get_freeze_count() == before


@CASES
def test_run_freezes_and_returns_mains_code(argv, code):
    freeze_count, rc = _entry_child("run", argv)
    assert freeze_count > 0
    assert rc == code


@pytest.mark.parametrize("entry", ["__main__", "cli"])
def test_module_entries_freeze(entry):
    freeze_count, rc = _entry_child(entry, SYNTH_OK)
    assert freeze_count > 0
    assert rc == 0


@CASES
@pytest.mark.parametrize("module", ["rulemine", "rulemine.cli"])
def test_exit_codes_through_the_entry(module, argv, code):
    child = _child("-m", module, *argv)
    assert child.returncode == code
    assert "Traceback" not in child.stderr


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_console_script_is_run():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"rulemine": "rulemine.cli:run"}


# ---------------------------------------------------------------- stdout
# Block-buffered, the write fails at a flush and leaves the buffer for the
# interpreter's final flush; unbuffered, it fails at the write itself.
STDIO = pytest.mark.parametrize("env", [ENV, ENV | {"PYTHONUNBUFFERED": "1"}],
                                ids=["buffered", "unbuffered"])


def _assert_stdout_error(child, reason):
    assert child.returncode == 1
    assert child.stderr == f"error: cannot write to stdout: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@STDIO
def test_full_stdout_is_a_data_error(env):
    with open("/dev/full", "w") as full:
        child = _child("-m", "rulemine", *SYNTH_OK, stdout=full, env=env)
    _assert_stdout_error(child, "No space left on device")


@pytest.mark.skipif(sys.platform != "linux", reason="pipe semantics checked on Linux")
@STDIO
def test_closed_pipe_is_a_data_error(env):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        child = _child("-m", "rulemine", *SYNTH_OK, stdout=write_end, env=env)
    finally:
        os.close(write_end)
    _assert_stdout_error(child, "Broken pipe")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
def test_closed_stdout_is_a_data_error():
    # fd 1 is closed in the child before exec, as a shell's `>&-` does
    child = subprocess.run([sys.executable, "-m", "rulemine", *SYNTH_OK], env=ENV,
                           stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    _assert_stdout_error(child, "Bad file descriptor")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("name", ["发热", "Fièvre"], ids=["cjk", "accented"])
def test_stdout_is_the_output_bytes_in_any_encoding(tmp_path, encoding, name):
    path = tmp_path / "cohort.csv"
    path.write_text(f"age,sex,outcome,{name},Cough\n30,M,recovered,1,1\n"
                    "40,F,deceased,1,0\n50,M,recovered,0,1\n", encoding="utf-8")
    argv = ["mine", "--input", str(path), "--min-lift", "0"]
    report = tmp_path / "report.csv"
    assert main([*argv, "--output", str(report)]) == 0
    child = subprocess.run([sys.executable, "-m", "rulemine", *argv], capture_output=True,
                           env=ENV | {"PYTHONIOENCODING": encoding})
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == report.read_bytes()
    assert name.encode("utf-8") in child.stdout
