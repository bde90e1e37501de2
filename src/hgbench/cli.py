"""Batch command line: config parsing, replicated runs, deterministic file output.

One invocation generates ``replicates`` hypergraphs (seed = base seed + r),
writing for each an edge file, a ground-truth assignment file, and a numeric
report.  All settings can come from a key=value config file, from flags, or
both; flags win.  Files are byte-identical across runs with the same settings.

Exit codes: 0 ok, 1 usage or unparseable input, 2 invalid parameter values,
3 generation infeasible, 4 rewiring budget exhausted (outputs still written).
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import os
import re
import sys

import numpy as np

from . import __version__
from .config import (
    WEIGHT_MODELS,
    GeneratorParams,
    WeightMatrix,
    build_weight_matrix,
    modularity_weights,
    validate,
)
from .errors import (
    HgbenchError,
    InfeasibleError,
    InvalidParameters,
    UndefinedInputError,
    UnrepairableError,
)
from .generation import generate
from .metrics import ccdf_report, census

# The report reads every modularity and histogram line from one census.  These
# metrics stay importable from here, where bench/worker.py traces them.
from .metrics import graph_modularity, hypergraph_modularity, two_section, type_histogram  # noqa: F401

OUT_DIR_ENV = "HGBENCH_OUT_DIR"
DEFAULT_PREFIX = "hgbench"


class _UsageError(Exception):
    """Malformed invocation or unparseable config input (exit 1)."""


class _ValidationError(Exception):
    """Well-formed input with invalid values (exit 2)."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_q(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


_CONVERTERS = {
    "n": int,
    "gamma": float,
    "delta": int,
    "D": int,
    "zeta": float,
    "beta": float,
    "s": int,
    "S": int,
    "tau": float,
    "xi": float,
    "L": int,
    "q": _parse_q,
    "w_model": str,
    "simple": _parse_bool,
    "seed": int,
    "replicates": int,
    "out": str,
    "stats": _parse_bool,
    "modularity": _parse_bool,
    "histograms": _parse_bool,
}


def load_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    settings: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONVERTERS:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            settings[key] = _CONVERTERS[key](value)
        except ValueError as exc:
            raise _UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return settings


def load_weight_file(path: str, max_edge_size: int) -> WeightMatrix:
    """Explicit weight matrix: lines of "size count weight"; '#' comments.

    Every size 1..max_edge_size needs its weights to sum to 1 (size 1 means
    the single line "1 1 1.0"), which parameter validation enforces later.
    """
    entries: dict[tuple[int, int], float] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read weight file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 3:
            raise _UsageError(f"{path}:{lineno}: expected 'size count weight'")
        try:
            d, c, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise _UsageError(f"{path}:{lineno}: bad numbers: {exc}") from exc
        entries[(c, d)] = w
    return WeightMatrix.from_entries(max_edge_size, entries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgbench",
        description="Generate benchmark hypergraphs with ground-truth communities.")
    parser.add_argument("--version", action="version", version=f"hgbench {__version__}")
    parser.add_argument("--config", metavar="PATH", help="key=value settings file")
    parser.add_argument("--n", type=int, help="number of nodes (required here or in the config)")
    parser.add_argument("--gamma", type=float, help="degree power-law exponent (default 2.5)")
    parser.add_argument("--delta", type=int, help="minimum degree (default 5)")
    parser.add_argument("--D", type=int, help="maximum degree (exclusive with --zeta)")
    parser.add_argument("--zeta", type=float,
                        help="degree-cap exponent: max degree = floor(n**zeta) (default 0.5)")
    parser.add_argument("--beta", type=float, help="community-size exponent (default 1.5)")
    parser.add_argument("--s", type=int, help="minimum community size (default 50)")
    parser.add_argument("--S", type=int, help="maximum community size (exclusive with --tau)")
    parser.add_argument("--tau", type=float,
                        help="size-cap exponent: max size = floor(n**tau) (default 0.75)")
    parser.add_argument("--xi", type=float, help="background noise fraction (default 0.2)")
    parser.add_argument("--L", type=int, help="maximum edge size (default 5)")
    parser.add_argument("--q", type=_parse_q, metavar="Q1,...,QL",
                        help="volume share per edge size (default 0 for size 1, uniform above)")
    parser.add_argument("--w-model", dest="w_model",
                        help="majority | linear | strict | path to a weight file (default majority)")
    parser.add_argument("--simple", action=argparse.BooleanOptionalAction, default=None,
                        help="repair the output into a simple hypergraph (default on; "
                             "--no-simple keeps the raw multi-hypergraph)")
    parser.add_argument("--seed", type=int, help="base seed; replicate r uses seed + r (default 0)")
    parser.add_argument("--replicates", type=int, help="number of hypergraphs to generate (default 1)")
    parser.add_argument("--out", metavar="PREFIX",
                        help=f"output path prefix (default '{DEFAULT_PREFIX}', "
                             f"placed under ${OUT_DIR_ENV} when that is set)")
    parser.add_argument("--stats", action=argparse.BooleanOptionalAction, default=None,
                        help="include distribution tables in the report (default on)")
    parser.add_argument("--modularity", action=argparse.BooleanOptionalAction, default=None,
                        help="include ground-truth modularity in the report (default on)")
    parser.add_argument("--histograms", action=argparse.BooleanOptionalAction, default=None,
                        help="include the edge-type histogram in the report (default on)")
    return parser


_RUN_DEFAULTS = dict(
    gamma=2.5, delta=5, beta=1.5, s=50, xi=0.2, L=5,
    w_model="majority", simple=True, seed=0, replicates=1,
    out=DEFAULT_PREFIX, stats=True, modularity=True, histograms=True,
)


def merge_settings(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    settings = dict(_RUN_DEFAULTS)
    if args.config:
        settings.update(load_config_file(args.config))
    for key in _CONVERTERS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def build_params(settings: dict) -> GeneratorParams:
    if "n" not in settings:
        raise _ValidationError("n is required (flag --n or config key n)")
    n = settings["n"]
    if not isinstance(n, int) or n < 1:
        raise _ValidationError(f"n must be a positive integer, got {n!r}")

    if "D" in settings and "zeta" in settings:
        raise _ValidationError("give exactly one of D and zeta, not both")
    if "S" in settings and "tau" in settings:
        raise _ValidationError("give exactly one of S and tau, not both")
    max_degree = settings["D"] if "D" in settings else int(n ** settings.get("zeta", 0.5))
    max_size = settings["S"] if "S" in settings else int(n ** settings.get("tau", 0.75))

    max_edge_size = settings["L"]
    if not isinstance(max_edge_size, int) or max_edge_size < 1:
        raise _ValidationError(f"L must be a positive integer, got {max_edge_size!r}")
    if "q" in settings:
        q = settings["q"]
    elif max_edge_size == 1:
        q = (1.0,)
    else:
        q = (0.0,) + (1.0 / (max_edge_size - 1),) * (max_edge_size - 1)

    w_model = settings["w_model"]
    if w_model in WEIGHT_MODELS:
        w = build_weight_matrix(w_model, max_edge_size)
    else:
        w = load_weight_file(w_model, max_edge_size)

    params = GeneratorParams(
        n=n, gamma=settings["gamma"], min_degree=settings["delta"],
        max_degree=max_degree, beta=settings["beta"], min_size=settings["s"],
        max_size=max_size, xi=settings["xi"], max_edge_size=max_edge_size,
        q=q, w=w, simple=settings["simple"], seed=settings["seed"])
    validate(params)
    return params


def resolve_prefix(out: str) -> str:
    env_dir = os.environ.get(OUT_DIR_ENV)
    if env_dir and not os.path.dirname(out):
        out = os.path.join(env_dir, out)
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return out


def write_edges_file(path: str, hg, seed: int) -> None:
    """One edge per line: member node ids, 1-based, ascending, space-separated."""
    buf = io.StringIO()
    buf.write(f"# hgbench {__version__} edges\n")
    buf.write(f"# nodes={hg.n} edges={hg.edge_count} seed={seed}\n")
    shifted = (hg.members.astype(np.int64) + 1).tolist()
    offsets = hg.offsets.tolist()
    for i in range(hg.edge_count):
        buf.write(" ".join(map(str, shifted[offsets[i]: offsets[i + 1]])))
        buf.write("\n")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(buf.getvalue())


def write_assignment_file(path: str, assignment, seed: int) -> None:
    """One line per node: "node community", both 1-based."""
    member_of = assignment.member_of
    buf = io.StringIO()
    buf.write(f"# hgbench {__version__} assignments\n")
    buf.write(f"# nodes={len(member_of)} communities={len(assignment.sizes)} seed={seed}\n")
    for node, comm in enumerate(member_of.tolist(), start=1):
        buf.write(f"{node} {comm + 1}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(buf.getvalue())


def read_edges_file(path: str) -> list[list[int]]:
    """Parse an edges file back into 0-based member lists."""
    edges = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            edges.append([int(tok) - 1 for tok in text.split()])
    return edges


def read_assignment_file(path: str) -> np.ndarray:
    """Parse an assignment file back into a 0-based label array.

    The node count n comes from the header's ``nodes=`` field, or else from
    the number of data lines.  Every node 1..n needs exactly one line
    "node community" with a positive community id; the first fault raises a
    ValueError naming ``path:line``.
    """
    with open(path, encoding="utf-8") as handle:
        raw = handle.read().encode()   # universal newlines: every line ends in \n

    def fail(lineno, why: str):
        raise ValueError(f"{path}:{lineno}: {why}")

    text = re.sub(rb"#[^\n]*", b"", raw)       # comments go, line breaks stay
    tokens = text.split()
    buf = np.frombuffer(text, dtype=np.uint8)
    blank = np.isin(buf, np.frombuffer(b" \t\n\r\v\f", dtype=np.uint8))
    starts = np.flatnonzero(~blank & np.concatenate(([True], blank[:-1])))
    token_line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts) + 1
    per_line = np.bincount(token_line)
    wrong = np.flatnonzero((per_line != 0) & (per_line != 2))
    if len(wrong):
        shown = raw.split(b"\n")[wrong[0] - 1].decode(errors="replace").strip()
        fail(wrong[0], f"expected 'node community', got {shown!r}")
    linenos = token_line[::2]
    try:
        node, comm = np.array(tokens, dtype=np.int64).reshape(-1, 2).T
    except (ValueError, OverflowError):
        for tok, lineno in zip(tokens, token_line):
            try:
                np.int64(int(tok))
            except (ValueError, OverflowError) as exc:
                fail(lineno, f"bad number: {exc}")
        raise
    n = len(node)
    header = re.search(rb"^#.*\bnodes=(\d+)", raw, re.MULTILINE)
    if header:
        n = int(header[1])
    bad = np.flatnonzero((node < 1) | (node > n) | (comm < 1))
    if len(bad):
        k = bad[0]
        fail(linenos[k], f"node must be in 1..{n} and community >= 1, got {node[k]} {comm[k]}")
    order = np.argsort(node, kind="stable")
    repeats = order[1:][node[order[1:]] == node[order[:-1]]]
    if len(repeats):
        k = repeats.min()
        fail(linenos[k], f"node {node[k]} is assigned twice")
    if len(node) < n:
        # ids are distinct and in range, so the first gap is a missing node
        gaps = np.flatnonzero(node[order] != np.arange(1, len(node) + 1))
        missing = gaps[0] + 1 if len(gaps) else len(node) + 1
        fail(raw.count(b"\n", 0, header.start()) + 1, f"node {missing} has no assignment")
    labels = np.empty(n, dtype=np.int64)
    labels[node - 1] = comm - 1
    return labels


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _score_line(name: str, score, *args) -> str:
    """"name value", or "name undefined" when score(*args) has no value: no
    edges, or (pairwise) no edge with two distinct members."""
    try:
        return f"{name} {_fmt(score(*args))}"
    except UndefinedInputError:
        return f"{name} undefined"


def _params_lines(params: GeneratorParams, w_model: str) -> list[str]:
    return [
        "[params]",
        f"n {params.n}",
        f"gamma {_fmt(params.gamma)}",
        f"delta {params.min_degree}",
        f"D {params.max_degree}",
        f"beta {_fmt(params.beta)}",
        f"s {params.min_size}",
        f"S {params.max_size}",
        f"xi {_fmt(params.xi)}",
        f"L {params.max_edge_size}",
        "q " + ",".join(_fmt(v) for v in params.q),
        f"w_model {w_model}",
        f"simple {str(params.simple).lower()}",
        f"seed {params.seed}",
    ]


def write_report_file(path: str, result, params: GeneratorParams,
                      settings: dict) -> None:
    """Structured text report: run scalars, distribution tables, modularity,
    and the edge-type histogram, section by section."""
    hg = result.hypergraph
    truth = result.assignment
    lines = [f"# hgbench {__version__} report"]
    lines.append("[run]")
    lines.append(f"nodes {hg.n}")
    lines.append(f"edges {hg.edge_count}")
    lines.append(f"volume {hg.volume}")
    lines.append(f"communities {len(truth.sizes)}")
    lines.append(f"mode {'simple' if params.simple else 'multi'}")
    lines.append(f"seed {params.seed}")
    lines.append(f"warnings {len(result.warnings)}")
    for note in result.warnings:
        lines.append(f"# warning: {note}")
    lines.extend(_params_lines(params, settings["w_model"]))

    if settings["stats"]:
        rep = ccdf_report(hg, truth, params)
        lines.append("[degree_ccdf]")
        lines.append("K empirical model")
        for k, emp, mod in zip(rep.degree_k, rep.degree_ccdf, rep.degree_ccdf_model):
            lines.append(f"{k} {_fmt(emp)} {_fmt(mod)}")
        lines.append("[community_size_ccdf]")
        lines.append("K empirical model")
        for k, emp, mod in zip(rep.community_size_k, rep.community_size_ccdf,
                               rep.community_size_ccdf_model):
            lines.append(f"{k} {_fmt(emp)} {_fmt(mod)}")
        lines.append("[edge_sizes]")
        lines.append("size count volume_share")
        for d in range(1, params.max_edge_size + 1):
            lines.append(f"{d} {rep.edge_size_counts[d - 1]} {_fmt(rep.volume_share[d - 1])}")

    if settings["modularity"] or settings["histograms"]:
        cen = census(hg, truth.member_of)

    if settings["modularity"]:
        lines.append("[modularity]")
        lines.append(_score_line("two_section", cen.pairwise_modularity))
        lines.extend(_score_line(f"hypergraph_{name}", cen.hypergraph_modularity,
                                 modularity_weights(name, params.max_edge_size))
                     for name in WEIGHT_MODELS)

    if settings["histograms"]:
        lines.append("[type_histogram]")
        lines.append("size majority count fraction")
        for (c, d), count in cen.type_histogram().items():
            lines.append(f"{d} {c} {count} {_fmt(count / int(cen.counts[d].sum()))}")

    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_summary_file(path: str, rows: list[dict], base_seed: int) -> None:
    lines = [f"# hgbench {__version__} summary"]
    lines.append("[replicates]")
    lines.append("r seed communities edges volume")
    for row in rows:
        lines.append(f"{row['r']} {row['seed']} {row['communities']} "
                     f"{row['edges']} {row['volume']}")
    comm = np.array([row["communities"] for row in rows], dtype=float)
    edges = np.array([row["edges"] for row in rows], dtype=float)
    lines.append("[aggregate]")
    lines.append(f"count {len(rows)}")
    lines.append(f"base_seed {base_seed}")
    lines.append(f"communities_mean {_fmt(comm.mean())}")
    lines.append(f"communities_std {_fmt(comm.std(ddof=1) if len(rows) > 1 else 0.0)}")
    lines.append(f"edges_mean {_fmt(edges.mean())}")
    lines.append(f"edges_std {_fmt(edges.std(ddof=1) if len(rows) > 1 else 0.0)}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def run(settings: dict) -> int:
    """Generate all replicates and write their files; returns the exit code."""
    params = build_params(settings)
    prefix = resolve_prefix(settings["out"])
    replicates = settings["replicates"]
    if not isinstance(replicates, int) or replicates < 1:
        raise _ValidationError(f"replicates must be a positive integer, got {replicates!r}")

    exhausted = False
    rows = []
    for r in range(replicates):
        run_params = dataclasses.replace(params, seed=settings["seed"] + r)
        result = generate(run_params)
        tag = f"{prefix}_r{r}" if replicates > 1 else prefix
        write_edges_file(f"{tag}.edges", result.hypergraph, run_params.seed)
        write_assignment_file(f"{tag}.assign", result.assignment, run_params.seed)
        write_report_file(f"{tag}.report.txt", result, run_params, settings)
        for note in result.warnings:
            print(f"hgbench: warning[rewiring]: replicate {r}: {note}", file=sys.stderr)
            exhausted = True
        rows.append(dict(r=r, seed=run_params.seed,
                         communities=len(result.assignment.sizes),
                         edges=result.hypergraph.edge_count,
                         volume=result.hypergraph.volume))
        print(f"replicate {r}: seed={run_params.seed} "
              f"communities={rows[-1]['communities']} edges={rows[-1]['edges']}")
    if replicates > 1:
        write_summary_file(f"{prefix}.summary.txt", rows, settings["seed"])
    return 4 if exhausted else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; 0 for --help/--version
        return 0 if not exc.code else 1
    try:
        settings = merge_settings(args)
        return run(settings)
    except _UsageError as exc:
        print(f"hgbench: error[usage]: {exc}", file=sys.stderr)
        return 1
    except (_ValidationError, InvalidParameters) as exc:
        print(f"hgbench: error[validation]: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, UnrepairableError) as exc:
        print(f"hgbench: error[generation]: {exc}", file=sys.stderr)
        return 3
    except HgbenchError as exc:
        print(f"hgbench: error[generation]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
