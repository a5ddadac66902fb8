"""Command-line front end: enumeration, intersection data, and splitting types.

Output is deterministic plain text (or tab-separated rows with --format tsv)
so runs can be diffed byte for byte.  Every error is reported as a single
``error: ...`` line on stderr with a nonzero exit status.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from functools import lru_cache

from .bundle_data import (
    EulerBundleSpec,
    euler_splitting_system,
    load_bundle,
    tangent_bundle,
)
from .fan import Fan, parse_fan, wall_label
from .intersection import AugmentedIntersectionMatrix, augmented_matrix
from .solver import SplittingType, find_splitting_types
from .splitting import SplittingSystem, format_system, splitting_system
from .surface_graph import WeightedCircularGraph, enumerate_blowups, graph_to_fan

SURFACE_ENUMERATION_CAP = 9


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    fan_path: str | None
    bundle_path: str | None
    graph: str | None
    strict: bool
    k: int | None
    fmt: str

    def __post_init__(self) -> None:
        if self.k is not None and not 0 <= self.k <= SURFACE_ENUMERATION_CAP:
            raise ValueError(f"k must be between 0 and {SURFACE_ENUMERATION_CAP}")
        if self.fmt not in ("text", "tsv"):
            raise ValueError(f"unknown output format {self.fmt!r}")


class _Parser(argparse.ArgumentParser):
    # argparse prints multi-line usage on error; we want one parsable line
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="toricsplit", add_help=True)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def common(
        p: _Parser, fan_inputs: bool = False, bundle: bool = False, strict: bool = False
    ) -> _Parser:
        p.add_argument("--format", choices=("text", "tsv"), default="text")
        if strict:
            p.add_argument("--strict-signs", action="store_true")
        if fan_inputs:
            p.add_argument("--fan", default=None, help="fan description file")
            p.add_argument("--graph", default=None, help="comma-separated circular weights")
        if bundle:
            p.add_argument("--bundle", required=True, help="bundle description file")
        return p

    common(sub.add_parser("surfaces")).add_argument("--k", type=int, default=None)
    common(sub.add_parser("q-matrix"), fan_inputs=True)
    common(sub.add_parser("tangent-split"), fan_inputs=True, strict=True)
    common(sub.add_parser("bundle-split"), fan_inputs=True, bundle=True, strict=True)
    common(sub.add_parser("table41"), strict=True)
    return parser


def _config(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=ns.subcommand,
        fan_path=getattr(ns, "fan", None),
        bundle_path=getattr(ns, "bundle", None),
        graph=getattr(ns, "graph", None),
        strict=getattr(ns, "strict_signs", False),
        k=getattr(ns, "k", None),
        fmt=ns.format,
    )


def _load_fan(config: RunConfig) -> Fan:
    if (config.fan_path is None) == (config.graph is None):
        raise ValueError("exactly one of --fan and --graph is required")
    if config.fan_path is not None:
        with open(config.fan_path, encoding="utf-8") as handle:
            return parse_fan(handle.read())
    try:
        weights = tuple(int(tok) for tok in config.graph.split(","))
    except ValueError:
        raise ValueError(f"graph weights must be integers: {config.graph!r}") from None
    return graph_to_fan(WeightedCircularGraph(weights))


def cmd_surfaces(config: RunConfig, out) -> None:
    if config.k is None:
        raise ValueError("surfaces requires --k")
    graphs = sorted(enumerate_blowups(config.k), key=lambda g: g.weights)
    if config.fmt == "text":
        print(f"surfaces with {config.k} blowups: {len(graphs)}", file=out)
        for g in graphs:
            print(",".join(str(w) for w in g.weights), file=out)
    else:
        for g in graphs:
            print(f"{config.k}\t" + ",".join(str(w) for w in g.weights), file=out)


def cmd_q_matrix(config: RunConfig, out) -> None:
    fan = _load_fan(config)
    aim = augmented_matrix(fan)
    if config.fmt == "text":
        print(f"intersection matrix: {aim.q.rows} walls x {aim.q.cols} rays", file=out)
        for wall, row in zip(aim.row_walls, aim.q.entries):
            print(f"{wall_label(wall.tau)}: " + " ".join(str(x) for x in row), file=out)
    else:
        for wall, row in zip(aim.row_walls, aim.q.entries):
            print(wall_label(wall.tau) + "\t" + ",".join(str(x) for x in row), file=out)


def _print_split_report(
    aim: AugmentedIntersectionMatrix,
    system: SplittingSystem,
    types: list[SplittingType],
    config: RunConfig,
    out,
) -> None:
    if config.fmt == "text":
        print("splitting numbers:", file=out)
        out.write(format_system(system))
        print("intersection matrix:", file=out)
        for wall, row in zip(aim.row_walls, aim.q.entries):
            print(f"{wall_label(wall.tau)}: " + " ".join(str(x) for x in row), file=out)
        if not types:
            print("no splitting type", file=out)
            return
        print(f"splitting types: {len(types)}", file=out)
        for idx, t in enumerate(types, start=1):
            print(f"type {idx} (candidate {t.perm_id})", file=out)
            for tau, row in zip(system.taus, t.rows):
                print(f"  degrees {wall_label(tau)}: " + " ".join(str(d) for d in row), file=out)
            for l, (col, canon, sign) in enumerate(
                zip(t.columns, t.canonical, t.sign_classes), start=1
            ):
                print(
                    f"  class {l}: column " + " ".join(str(x) for x in col)
                    + " ; canonical " + " ".join(str(x) for x in canon)
                    + f" ; sign {sign.value}",
                    file=out,
                )
    else:
        for tau, row in zip(system.taus, system.degrees):
            print("degrees\t" + wall_label(tau) + "\t" + ",".join(str(d) for d in row), file=out)
        for wall, row in zip(aim.row_walls, aim.q.entries):
            print("q\t" + wall_label(wall.tau) + "\t" + ",".join(str(x) for x in row), file=out)
        if not types:
            print("no splitting type", file=out)
            return
        for idx, t in enumerate(types, start=1):
            for l, (canon, sign) in enumerate(zip(t.canonical, t.sign_classes), start=1):
                print(
                    f"type\t{idx}\tclass\t{l}\t" + ",".join(str(x) for x in canon)
                    + f"\t{sign.value}",
                    file=out,
                )


def cmd_tangent_split(config: RunConfig, out) -> None:
    fan = _load_fan(config)
    aim = augmented_matrix(fan)
    system = splitting_system(tangent_bundle(fan))
    types = find_splitting_types(aim, system, strict=config.strict)
    _print_split_report(aim, system, types, config, out)


def cmd_bundle_split(config: RunConfig, out) -> None:
    fan = _load_fan(config)
    with open(config.bundle_path, encoding="utf-8") as handle:
        bundle = load_bundle(handle.read(), fan)
    aim = augmented_matrix(fan)
    if isinstance(bundle, EulerBundleSpec):
        system = euler_splitting_system(bundle, aim)
    else:
        system = splitting_system(bundle)
    types = find_splitting_types(aim, system, strict=config.strict)
    _print_split_report(aim, system, types, config, out)


@lru_cache(maxsize=None)
def table41_rows(strict: bool = False) -> tuple[tuple[int, tuple[int, ...], SplittingType], ...]:
    """Every (blowup count, canonical weights, type) admitting a splitting type, k=1..9."""
    rows = []
    for k in range(1, 10):
        for graph in sorted(enumerate_blowups(k), key=lambda g: g.weights):
            fan = graph_to_fan(graph)
            aim = augmented_matrix(fan)
            system = splitting_system(tangent_bundle(fan))
            for t in find_splitting_types(aim, system, strict=strict):
                rows.append((k, graph.weights, t))
    return tuple(rows)


def cmd_table41(config: RunConfig, out) -> None:
    for k, weights, t in table41_rows(strict=config.strict):
        s = len(weights)
        reduced = [canon[: s - 2] for canon in t.canonical]
        if config.fmt == "text":
            print(
                f"k={k} w=(" + ",".join(str(w) for w in weights) + ") type=("
                + ",".join("(" + ",".join(str(x) for x in col) + ")" for col in reduced)
                + ")",
                file=out,
            )
        else:
            print(
                f"{k}\t" + ",".join(str(w) for w in weights) + "\t"
                + "\t".join(",".join(str(x) for x in col) for col in reduced),
                file=out,
            )


_COMMANDS = {
    "surfaces": cmd_surfaces,
    "q-matrix": cmd_q_matrix,
    "tangent-split": cmd_tangent_split,
    "bundle-split": cmd_bundle_split,
    "table41": cmd_table41,
}


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
        ns = _build_parser().parse_args(_merge_dashed_values(list(argv)))
        config = _config(ns)
        _COMMANDS[config.subcommand](config, sys.stdout)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
