"""README's examples run as written: its file blocks parse, its snippet runs, its commands print what it shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from toricsplit.bundle_data import load_bundle
from toricsplit.cli import main
from toricsplit.fan import format_fan, parse_fan, projective_space

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# (info string, body) of every fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
P2 = projective_space(2)


def _block(first_line):
    (body,) = [body for _, body in BLOCKS if body.startswith(first_line + "\n")]
    return body


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_file_blocks_parse():
    fan = parse_fan(_block("dim 2"))
    assert (fan.dim, len(fan.rays), len(fan.max_cones)) == (2, 4, 4)
    assert load_bundle(_block("rank 2"), P2).rank == 2
    assert load_bundle(_block("euler"), P2).rank == 2


def test_euler_block_has_the_stated_type(tmp_path):
    fan_file, bundle_file = tmp_path / "p2.fan", tmp_path / "euler.bundle"
    fan_file.write_text(format_fan(P2))
    bundle_file.write_text(_block("euler"))
    code, out = _run(["bundle-split", "--fan", str(fan_file), "--bundle", str(bundle_file)])
    assert code == 0
    # the classes README names for this file, as it names them
    stated = re.search(r"reports the unique type\s+with canonical classes `([-\d ]+)` and `([-\d ]+)`", README)
    assert stated.groups() == ("2 0 0", "1 0 0")
    assert "splitting types: 1\n" in out
    assert re.findall(r"canonical ([-\d ]+) ;", out) == list(stated.groups())


def test_library_snippet_runs():
    (snippet,) = [body for info, body in BLOCKS if info == "python"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue()


COMMANDS = [body for _, body in BLOCKS if body.startswith("$ toricsplit ")]


@pytest.mark.parametrize("block", COMMANDS, ids=[b.splitlines()[0][2:] for b in COMMANDS])
def test_command_prints_the_lines_shown(block):
    command, *shown = block.splitlines()
    code, out = _run(shlex.split(command)[2:])
    assert code == 0
    # the lines shown, "..." elisions left out, appear in the real output in this order
    lines = iter(out.splitlines())
    for line in shown:
        if line.strip() != "...":
            assert any(got == line for got in lines), line
