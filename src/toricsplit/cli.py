"""Command-line front end: enumeration, intersection data, and splitting types.

Output is deterministic plain text (or tab-separated rows with --format tsv)
so runs can be diffed byte for byte.  Every error is reported as a single
``error: ...`` line on stderr with a nonzero exit status.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .bundle_data import EulerBundleSpec, euler_splitting_system, load_bundle, tangent_bundle
from .fan import Fan, parse_fan, parse_int, wall_label
from .intersection import augmented_matrix
from .solver import SplittingType, find_splitting_types
from .splitting import splitting_system
from .surface_graph import WeightedCircularGraph, enumerate_blowups, graph_to_fan

SURFACE_ENUMERATION_CAP = 9


def _load_fan(ns: argparse.Namespace) -> Fan:
    if (ns.fan is None) == (ns.graph is None):
        raise ValueError("exactly one of --fan and --graph is required")
    if ns.fan is not None:
        with open(ns.fan, encoding="utf-8") as handle:
            return parse_fan(handle.read())
    try:
        weights = tuple(parse_int(tok.strip()) for tok in ns.graph.split(","))
    except ValueError:
        raise ValueError(f"graph weights must be integers: {ns.graph!r}") from None
    return graph_to_fan(WeightedCircularGraph(weights))


def _print_rows(out, fmt: str, tag: str, taus, rows) -> None:
    """Wall-labelled rows: ``tag label: v v`` in text, ``tag<TAB>label<TAB>v,v`` in tsv.

    An empty tag is left out.
    """
    tag_sep, label_sep, join = (" ", ": ", " ") if fmt == "text" else ("\t", "\t", ",")
    head = tag + tag_sep if tag else ""
    for tau, row in zip(taus, rows):
        print(head + wall_label(tau) + label_sep + join.join(map(str, row)), file=out)


def cmd_surfaces(ns: argparse.Namespace, out) -> None:
    if ns.k is None:
        raise ValueError("surfaces requires --k")
    try:
        k = parse_int(ns.k)
    except ValueError:
        raise ValueError(f"k must be an integer: {ns.k!r}") from None
    if not 0 <= k <= SURFACE_ENUMERATION_CAP:
        raise ValueError(f"k must be between 0 and {SURFACE_ENUMERATION_CAP}")
    graphs = sorted(enumerate_blowups(k), key=lambda g: g.weights)
    if ns.format == "text":
        print(f"surfaces with {k} blowups: {len(graphs)}", file=out)
    for g in graphs:
        weights = ",".join(map(str, g.weights))
        print(weights if ns.format == "text" else f"{k}\t{weights}", file=out)


def cmd_q_matrix(ns: argparse.Namespace, out) -> None:
    aim = augmented_matrix(_load_fan(ns))
    if ns.format == "text":
        print(f"intersection matrix: {aim.q.rows} walls x {aim.q.cols} rays", file=out)
    _print_rows(out, ns.format, "", (w.tau for w in aim.row_walls), aim.q.entries)


def cmd_split(ns: argparse.Namespace, out) -> None:
    """The split report of ``--bundle``, or of the tangent bundle when there is none."""
    fan = _load_fan(ns)
    bundle_path = getattr(ns, "bundle", None)
    if bundle_path is None:
        bundle = tangent_bundle(fan)
    else:
        with open(bundle_path, encoding="utf-8") as handle:
            bundle = load_bundle(handle.read(), fan)
    aim = augmented_matrix(fan)
    if isinstance(bundle, EulerBundleSpec):
        system = euler_splitting_system(bundle, aim)
    else:
        system = splitting_system(bundle)
    types = find_splitting_types(aim, system, strict=ns.strict_signs)

    # find_splitting_types has checked that system.taus are Q's row walls
    text = ns.format == "text"
    if text:
        print("splitting numbers:", file=out)
    _print_rows(out, ns.format, "" if text else "degrees", system.taus, system.degrees)
    if text:
        print("intersection matrix:", file=out)
    _print_rows(out, ns.format, "" if text else "q", system.taus, aim.q.entries)
    if not types:
        print("no splitting type", file=out)
        return
    if text:
        print(f"splitting types: {len(types)}", file=out)
    for idx, t in enumerate(types, start=1):
        if text:
            print(f"type {idx} (candidate {t.perm_id})", file=out)
            _print_rows(out, ns.format, "  degrees", system.taus, t.rows)
        for l, (col, canon, sign) in enumerate(zip(t.columns, t.canonical, t.sign_classes), start=1):
            if text:
                print(
                    f"  class {l}: column " + " ".join(map(str, col))
                    + " ; canonical " + " ".join(map(str, canon)) + f" ; sign {sign.value}",
                    file=out,
                )
            else:
                print(f"type\t{idx}\tclass\t{l}\t" + ",".join(map(str, canon)) + f"\t{sign.value}", file=out)


@lru_cache(maxsize=None)
def table41_rows(strict: bool, /) -> tuple[tuple[int, tuple[int, ...], SplittingType], ...]:
    """Every (blowup count, canonical weights, type) admitting a splitting type, k=1..9.

    ``strict`` is positional and has no default, so each sign rule has one
    call form and one cache entry.
    """
    rows = []
    for k in range(1, SURFACE_ENUMERATION_CAP + 1):
        for graph in sorted(enumerate_blowups(k), key=lambda g: g.weights):
            fan = graph_to_fan(graph)
            aim = augmented_matrix(fan)
            system = splitting_system(tangent_bundle(fan))
            for t in find_splitting_types(aim, system, strict=strict):
                rows.append((k, graph.weights, t))
    return tuple(rows)


def cmd_table41(ns: argparse.Namespace, out) -> None:
    for k, weights, t in table41_rows(ns.strict_signs):
        w = ",".join(map(str, weights))
        cols = [",".join(map(str, canon[: len(weights) - 2])) for canon in t.canonical]
        if ns.format == "text":
            print(f"k={k} w=({w}) type=(" + ",".join(f"({c})" for c in cols) + ")", file=out)
        else:
            print("\t".join([str(k), w, *cols]), file=out)


_FLAGS = {
    "--format": {"choices": ("text", "tsv"), "default": "text"},
    "--strict-signs": {"action": "store_true"},
    "--fan": {"help": "fan description file"},
    "--graph": {"help": "comma-separated circular weights"},
    "--bundle": {"required": True, "help": "bundle description file"},
    "--k": {"help": "number of blowups, 0 to 9"},
}

# subcommand, handler, the flags it reads (in help order)
_SUBCOMMANDS = (
    ("surfaces", cmd_surfaces, ("--format", "--k")),
    ("q-matrix", cmd_q_matrix, ("--format", "--fan", "--graph")),
    ("tangent-split", cmd_split, ("--format", "--strict-signs", "--fan", "--graph")),
    ("bundle-split", cmd_split, ("--format", "--strict-signs", "--fan", "--graph", "--bundle")),
    ("table41", cmd_table41, ("--format", "--strict-signs")),
)


class _Parser(argparse.ArgumentParser):
    # argparse prints multi-line usage on error; we want one parsable line
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="toricsplit")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, handler, flags in _SUBCOMMANDS:
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(run=handler)
    return parser


_PARSER = _build_parser()


def _merge_dashed_values(argv: list[str]) -> list[str]:
    # "--graph -1,-1,..." would be read as two options; fold the value in
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--graph" and i + 1 < len(argv) and argv[i + 1][:2].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = _PARSER.parse_args(_merge_dashed_values(list(argv)))
        ns.run(ns, sys.stdout)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
