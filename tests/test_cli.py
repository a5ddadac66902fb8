"""Command-line behavior: golden outputs, error paths, determinism."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import toricsplit.bundle_data as bundle_data
import toricsplit.splitting as splitting
from toricsplit.bundle_data import (
    cp2_rank2,
    euler_monomial_spec,
    format_bundle,
    format_euler,
    load_bundle,
    parse_bundle,
    tangent_bundle,
)
from toricsplit.cli import main, table41_rows
from toricsplit.fan import format_fan, projective_space, walls
from toricsplit.surface_graph import graph_to_fan, hirzebruch

CP2_TANGENT_REPORT = """\
splitting numbers:
tau(1): 2 1
tau(2): 2 1
tau(3): 2 1
intersection matrix:
tau(1): 1 1 1
tau(2): 1 1 1
tau(3): 1 1 1
splitting types: 1
type 1 (candidate 1)
  degrees tau(1): 2 1
  degrees tau(2): 2 1
  degrees tau(3): 2 1
  class 1: column 2 0 0 ; canonical 2 0 0 ; sign positive
  class 2: column 1 0 0 ; canonical 1 0 0 ; sign positive
"""

F0_TANGENT_TSV = """\
degrees\ttau(1)\t2,0
degrees\ttau(2)\t2,0
degrees\ttau(3)\t2,0
degrees\ttau(4)\t2,0
q\ttau(1)\t0,1,0,1
q\ttau(2)\t1,0,1,0
q\ttau(3)\t0,1,0,1
q\ttau(4)\t1,0,1,0
type\t1\tclass\t1\t2,2,0,0\tpositive
type\t1\tclass\t2\t0,0,0,0\tzero
type\t2\tclass\t1\t0,2,0,0\tnef
type\t2\tclass\t2\t2,0,0,0\tnef
"""

F0_EULER_TSV = """\
degrees\ttau(1)\t2,2,0
degrees\ttau(2)\t1,1,0
degrees\ttau(3)\t2,2,0
degrees\ttau(4)\t1,1,0
q\ttau(1)\t0,1,0,1
q\ttau(2)\t1,0,1,0
q\ttau(3)\t0,1,0,1
q\ttau(4)\t1,0,1,0
type\t1\tclass\t1\t1,2,0,0\tpositive
type\t1\tclass\t2\t1,2,0,0\tpositive
type\t1\tclass\t3\t0,0,0,0\tzero
type\t2\tclass\t1\t1,2,0,0\tpositive
type\t2\tclass\t2\t0,2,0,0\tnef
type\t2\tclass\t3\t1,0,0,0\tnef
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tangent_split_cp2_golden(capsys):
    code, out, err = run(capsys, "tangent-split", "--graph", "1,1,1")
    assert code == 0 and err == ""
    assert out == CP2_TANGENT_REPORT


def test_tangent_split_positive_hirzebruch(capsys):
    code, out, _ = run(capsys, "tangent-split", "--graph", "0,2,0,-2")
    assert code == 0
    assert out.endswith("no splitting type\n")


def test_tangent_split_f0_types(capsys):
    code, out, _ = run(capsys, "tangent-split", "--graph", "0,0,0,0")
    assert code == 0
    assert "splitting types: 2" in out
    assert "canonical 2 2 0 0" in out
    assert "canonical 0 0 0 0 ; sign zero" in out
    code, strict_out, _ = run(capsys, "tangent-split", "--graph", "0,0,0,0", "--strict-signs")
    assert code == 0
    assert "splitting types: 1" in strict_out
    assert "canonical 0 2 0 0" not in strict_out
    # the parser is shared between calls: no flag may carry over
    code, again, _ = run(capsys, "tangent-split", "--graph", "0,0,0,0")
    assert code == 0
    assert "splitting types: 2" in again
    assert again == out
    code, tsv, err = run(capsys, "tangent-split", "--graph", "0,0,0,0", "--format", "tsv")
    assert code == 0 and err == ""
    assert tsv == F0_TANGENT_TSV


def test_tangent_split_accepts_negative_leading_weight(capsys):
    code, out, _ = run(capsys, "tangent-split", "--graph", "-1,-1,-1,-1,-1,-1")
    assert code == 0
    assert "canonical 2 4 4 2 0 0 ; sign positive" in out
    assert "canonical -1 -2 -2 -1 0 0 ; sign negative" in out


def test_surfaces_listing(capsys):
    code, out, _ = run(capsys, "surfaces", "--k", "0")
    assert code == 0
    assert out == "surfaces with 0 blowups: 1\n1,1,1\n"
    code, out, _ = run(capsys, "surfaces", "--k", "1")
    assert out == "surfaces with 1 blowups: 1\n-1,0,1,0\n"
    code, out, _ = run(capsys, "surfaces", "--k", "3")
    lines = out.splitlines()
    assert lines[0] == "surfaces with 3 blowups: 6"
    assert "-1,-1,-1,-1,-1,-1" in lines[1:]


def test_surfaces_tsv(capsys):
    code, out, _ = run(capsys, "surfaces", "--k", "1", "--format", "tsv")
    assert code == 0
    assert out == "1\t-1,0,1,0\n"


def test_q_matrix_golden(capsys):
    code, out, _ = run(capsys, "q-matrix", "--graph", "-1,-1,-1,-1,-1,-1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "intersection matrix: 6 walls x 6 rays"
    assert lines[1] == "tau(1): -1 1 0 0 0 1"
    assert lines[6] == "tau(6): 1 0 0 0 1 -1"


def test_q_matrix_tsv(capsys):
    code, out, _ = run(capsys, "q-matrix", "--graph", "1,1,1", "--format", "tsv")
    assert code == 0
    assert out == "tau(1)\t1,1,1\ntau(2)\t1,1,1\ntau(3)\t1,1,1\n"


def test_fan_file_input_matches_graph_input(capsys, tmp_path):
    fan_file = tmp_path / "f0.fan"
    fan_file.write_text(format_fan(graph_to_fan(hirzebruch(0))))
    _, from_file, _ = run(capsys, "tangent-split", "--fan", str(fan_file))
    _, from_graph, _ = run(capsys, "tangent-split", "--graph", "0,0,0,0")
    assert from_file == from_graph


def test_bundle_split_rank2_examples(capsys, tmp_path):
    fan_file = tmp_path / "cp2.fan"
    fan_file.write_text(format_fan(projective_space(2)))
    equal = tmp_path / "equal.bundle"
    equal.write_text(format_bundle(cp2_rank2(1, 1, 1)))
    code, out, _ = run(capsys, "bundle-split", "--fan", str(fan_file), "--bundle", str(equal))
    assert code == 0
    assert "canonical 2 0 0" in out and "canonical 1 0 0" in out
    unequal = tmp_path / "unequal.bundle"
    unequal.write_text(format_bundle(cp2_rank2(2, 1, 1)))
    code, out, _ = run(capsys, "bundle-split", "--fan", str(fan_file), "--bundle", str(unequal))
    assert code == 0
    assert out.endswith("no splitting type\n")


def test_bundle_split_restricts_each_wall_once(capsys, tmp_path, monkeypatch):
    # validate and splitting_system share the bundle's restrictions
    restricted = []
    restrict = splitting.restrict

    def spy(data, wall, *args):
        restricted.append(wall.tau)
        return restrict(data, wall, *args)

    for module in (bundle_data, splitting):
        monkeypatch.setattr(module, "restrict", spy)
    for fan, data in [
        (projective_space(2), cp2_rank2(1, 2, 3)),
        (graph_to_fan(hirzebruch(1)), tangent_bundle(graph_to_fan(hirzebruch(1)))),
    ]:
        fan_file, bundle_file = tmp_path / "x.fan", tmp_path / "x.bundle"
        fan_file.write_text(format_fan(fan))
        bundle_file.write_text(format_bundle(data))
        restricted.clear()
        code, _, _ = run(capsys, "bundle-split", "--fan", str(fan_file), "--bundle", str(bundle_file))
        assert code == 0
        assert restricted == [wall.tau for wall in walls(fan)]


def test_bundle_split_euler_file(capsys, tmp_path):
    fan_file = tmp_path / "f0.fan"
    fan_file.write_text(format_fan(graph_to_fan(hirzebruch(0))))
    bundle = tmp_path / "euler.bundle"
    bundle.write_text(
        "euler\n"
        "summand 1 0 0 0 : 1 0 0 0\n"
        "summand 0 2 0 0 : 0 2 0 0\n"
        "summand 0 0 1 0 : 0 0 1 0\n"
        "summand 0 0 0 2 : 0 0 0 2\n"
    )
    code, out, _ = run(capsys, "bundle-split", "--fan", str(fan_file), "--bundle", str(bundle))
    assert code == 0
    assert "tau(1): 2 2 0" in out
    assert "splitting types: 2" in out
    assert "canonical 1 2 0 0" in out
    code, out, err = run(
        capsys, "bundle-split", "--fan", str(fan_file), "--bundle", str(bundle), "--format", "tsv"
    )
    assert code == 0 and err == ""
    assert out == F0_EULER_TSV


def test_error_paths(capsys, tmp_path):
    cases = [
        (("surfaces",), "requires --k"),
        (("surfaces", "--k", "13"), "k must be between 0 and 9"),
        (("surfaces", "--k", "10"), "k must be between 0 and 9"),
        (("surfaces", "--k", "-1"), "k must be between 0 and 9"),
        (("surfaces", "--k", "\u0661"), "k must be an integer: '\u0661'"),
        (("surfaces", "--k", "1_0"), "k must be an integer: '1_0'"),
        (("surfaces", "--k", "x"), "k must be an integer: 'x'"),
        (("tangent-split",), "exactly one of"),
        (("tangent-split", "--graph", "1,1,1", "--fan", "x"), "exactly one of"),
        (("tangent-split", "--graph", "1,x,1"), "integers"),
        (("tangent-split", "--graph", "1,1,1,1"), "inconsistent weight sequence"),
        (("tangent-split", "--fan", str(tmp_path / "missing.fan")), "No such file"),
        (("bundle-split", "--graph", "1,1,1"), "--bundle"),
        (("q-matrix", "--graph", "1,1,1", "--strict-signs"), "unrecognized arguments: --strict-signs"),
        (("tangent-split", "--graph", "1,1,1", "--k", "3"), "unrecognized arguments: --k 3"),
        (("tangent-split", "--graph", "1,1,1", "--bundle", "x"), "unrecognized arguments: --bundle x"),
    ]
    for argv, message in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1


def test_graph_weights_are_ascii_integers(capsys, int_lookalike):
    code, out, err = run(capsys, "q-matrix", "--graph", f"1,{int_lookalike},1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: graph weights must be integers: ") and err.count("\n") == 1


def test_invalid_bundle_file_reports_validation(capsys, tmp_path):
    cp2 = format_bundle(cp2_rank2(1, 1, 1))
    p1 = format_bundle(tangent_bundle(projective_space(1)))
    tangent = tangent_bundle(projective_space(2))
    # an invertible pair of pastings between cones 0 and 1 that couples weights at a wall
    skew = (tangent.to_base[0], ((0, 1), (1, -1)), tangent.to_base[2])
    skew_back = (tangent.from_base[0], ((1, 1), (1, 0)), tangent.from_base[2])
    cases = [
        (2, cp2.replace("weights 1: (0 1);(1 0)", "weights 1: (0 2);(1 0)"), "net condition"),
        (2, cp2.replace("pasting 3 2: -1 1 0 1", "pasting 3 2: -1 1 0 2"), "cocycle fails"),
        (1, p1.replace("pasting 2 1: -1", "pasting 2 1: 0"), "singular"),
        (2, format_bundle(replace(tangent, to_base=skew, from_base=skew_back)), "support fails"),
    ]
    for n, text, message in cases:
        fan_file = tmp_path / "p.fan"
        fan_file.write_text(format_fan(projective_space(n)))
        bad = tmp_path / "bad.bundle"
        bad.write_text(text)
        code = main(["bundle-split", "--fan", str(fan_file), "--bundle", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err, (message, captured.err)


@pytest.mark.parametrize(
    "old, new, lineno",
    [
        ("rank 1", "ranks 1", 1),
        ("rank 1", "rank 1 7", 1),
        ("weights 1:", "weightsX 1:", 2),
        ("weights 2:", "weights 2 9:", 3),
        ("pasting 1 2:", "pastings 1 2 3:", 4),
    ],
)
def test_bundle_keywords_are_whole_tokens(capsys, tmp_path, old, new, lineno):
    fan = projective_space(1)
    good = format_bundle(tangent_bundle(fan))
    assert good.splitlines()[lineno - 1].startswith(old)
    text = good.replace(old, new, 1)
    for load in (parse_bundle, load_bundle):
        with pytest.raises(ValueError, match=f"^line {lineno}: "):
            load(text, fan)
    fan_file = tmp_path / "p1.fan"
    fan_file.write_text(format_fan(fan))
    bad = tmp_path / "bad.bundle"
    bad.write_text(text)
    code, out, err = run(capsys, "bundle-split", "--fan", str(fan_file), "--bundle", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1


@pytest.mark.parametrize("token", ["1/0", "1e9", "0.5", "1/-2", "1" * 4301])
def test_bad_pasting_entries_are_named(capsys, tmp_path, token):
    # only p and p/q with q != 0 are read; nothing else reaches Fraction,
    # which would divide by zero or expand the exponent of 1e10000000
    fan = projective_space(1)
    good = format_bundle(tangent_bundle(fan))
    assert good.splitlines()[3] == "pasting 1 2: -1"
    text = good.replace("pasting 1 2: -1", f"pasting 1 2: {token}")
    with pytest.raises(ValueError, match="^line 4: non-rational pasting entry$"):
        parse_bundle(text, fan)
    fan_file = tmp_path / "p1.fan"
    fan_file.write_text(format_fan(fan))
    bad = tmp_path / "bad.bundle"
    bad.write_text(text)
    code, out, err = run(capsys, "bundle-split", "--fan", str(fan_file), "--bundle", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: line 4: non-rational pasting entry\n"


def test_bundle_rank_over_ordering_cap_is_named(capsys, tmp_path):
    r = 9
    identity = " ".join(str(int(i == j)) for i in range(r) for j in range(r))
    text = "\n".join(
        [
            f"rank {r}",
            "weights 1: " + ";".join(f"({i})" for i in range(r)),
            "weights 2: " + ";".join(f"({-i})" for i in range(r)),
            f"pasting 1 2: {identity}",
            f"pasting 2 1: {identity}",
        ]
    )
    fan_file = tmp_path / "p1.fan"
    fan_file.write_text(format_fan(projective_space(1)))
    bundle = tmp_path / "rank9.bundle"
    bundle.write_text(text + "\n")
    code, out, err = run(capsys, "bundle-split", "--fan", str(fan_file), "--bundle", str(bundle))
    assert code == 2
    assert out == ""
    assert err == "error: bundle rank 9 exceeds the ordering rank cap 8\n"


def test_table41_scans_once_per_sign_rule(capsys):
    # the subcommand and direct calls share one cache entry per sign rule
    for strict in (False, True):
        assert main(["table41", "--format", "tsv"] + ["--strict-signs"] * strict) == 0
        rows = table41_rows(strict)
        assert main(["table41"] + ["--strict-signs"] * strict) == 0
        assert table41_rows(strict) is rows
    capsys.readouterr()
    assert table41_rows.cache_info().currsize == 2
    with pytest.raises(TypeError):
        table41_rows(strict=False)


def test_missing_subcommand(capsys):
    code = main([])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "tangent-split", "--graph", "0,0,0,0")
    _, second, _ = run(capsys, "tangent-split", "--graph", "0,0,0,0")
    assert first == second


@pytest.mark.parametrize(
    "graph", ["0,0,0,0", "-1,-1,-1,-1,-1,-1", "-1,-2,-2,-1,-2,-2,-1,-2,-2"]
)
def test_output_does_not_depend_on_hash_seed(graph):
    # one interpreter cannot see hash randomisation: compare two fresh ones
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        result = subprocess.run(
            [sys.executable, "-m", "toricsplit.cli", "tangent-split", "--graph", graph, "--format", "tsv"],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0 and result.stderr == b"", result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"degrees\t")


def _fuzz_seeds():
    """(fan text, bundle text) pairs that bundle-split accepts: P2, F1 and P3 with their
    tangent and Euler files, and P2 with a cp2_rank2 file."""
    p2 = projective_space(2)
    seeds = [(format_fan(p2), format_bundle(cp2_rank2(1, 2, 3)))]
    for fan in (p2, graph_to_fan(hirzebruch(1)), projective_space(3)):
        euler = euler_monomial_spec(fan, [1] * len(fan.rays))
        seeds += [(format_fan(fan), format_bundle(tangent_bundle(fan))), (format_fan(fan), format_euler(euler))]
    return seeds


def _mutate(rng, text):
    """``text`` with a few characters deleted or inserted, a line duplicated, or two lines swapped."""
    lines = text.splitlines(keepends=True)
    kind = rng.randrange(4)
    at = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:at] + text[at + rng.randint(1, 3) :]
    if kind == 1:
        return text[:at] + "".join(rng.choices("0123456789-+/ ():;#\n\tabx", k=rng.randint(1, 3))) + text[at:]
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == 2:
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def test_no_malformed_file_gives_a_traceback(capsys, tmp_path):
    # each run either splits or fails with one named error line, in-process through main
    rng = random.Random(33)
    seeds = _fuzz_seeds()
    fan_path, bundle_path = tmp_path / "fan.txt", tmp_path / "bundle.txt"
    argv = ["bundle-split", "--fan", str(fan_path), "--bundle", str(bundle_path)]
    outcomes = {0: 0, 2: 0}
    for trial in range(len(seeds) + 400):
        fan_text, bundle_text = seeds[trial % len(seeds)]
        if trial >= len(seeds):  # every seed first runs as it is
            if rng.random() < 0.3:
                fan_text = _mutate(rng, fan_text)
            else:
                bundle_text = _mutate(rng, bundle_text)
        fan_path.write_text(fan_text, encoding="utf-8")
        bundle_path.write_text(bundle_text, encoding="utf-8")
        code, out, err = run(capsys, *argv)
        case = f"trial {trial}:\n{fan_text}---\n{bundle_text}"
        if trial < len(seeds) or code == 0:
            assert code == 0 and err == "" and out.startswith("splitting numbers:\n"), case
        else:
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, case
        outcomes[code] += 1
    # the mutations reach both outcomes
    assert min(outcomes.values()) > 0, outcomes
