"""Batch command line: config parsing, replicated runs, deterministic file output.

One invocation generates ``replicates`` hypergraphs (seed = base seed + r),
writing for each an edge file, a ground-truth assignment file, and a numeric
report.  All settings can come from a key=value config file, from flags, or
both; flags win.  Files are byte-identical across runs with the same settings.

Exit codes: 0 ok, 1 usage or unparseable input, 2 invalid parameter values,
3 infeasible or out of memory, 4 rewiring budget exhausted (outputs still written).
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import re
import sys
import warnings

import numpy as np

from . import __version__
from .config import (
    MAX_N,
    WEIGHT_MODELS,
    GeneratorParams,
    WeightMatrix,
    build_weight_matrix,
    default_params,
    modularity_weights,
    validate,
)
from .errors import (
    HgbenchError,
    InvalidParameters,
    UndefinedInputError,
)
from .generation import generate
from .metrics import ccdf_report, census
from .structures import EdgeLists, size_runs

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


# One row per setting: (key, converter, run default, help).  The key is the
# config key and the flag --key ('-' for '_'); a _parse_bool row also gets
# --no-key.  Generator defaults are config.default_params's, so only run-only
# settings carry a run default here (None: no default).
_SETTINGS = (
    ("n", int, None, "number of nodes (required here or in the config)"),
    ("gamma", float, None, "degree power-law exponent (default 2.5)"),
    ("delta", int, None, "minimum degree (default 5)"),
    ("D", int, None, "maximum degree (exclusive with --zeta)"),
    ("zeta", float, None, "degree-cap exponent: max degree = floor(n**zeta) (default 0.5)"),
    ("beta", float, None, "community-size exponent (default 1.5)"),
    ("s", int, None, "minimum community size (default 50)"),
    ("S", int, None, "maximum community size (exclusive with --tau)"),
    ("tau", float, None, "size-cap exponent: max size = floor(n**tau) (default 0.75)"),
    ("xi", float, None, "background noise fraction (default 0.2)"),
    ("L", int, None, "maximum edge size (default 5)"),
    ("q", _parse_q, None, "volume share per edge size (default 0 for size 1, uniform above)"),
    ("w_model", str, "majority", "majority | linear | strict | path to a weight file (default majority)"),
    ("simple", _parse_bool, None,
     "repair the output into a simple hypergraph (default on; --no-simple keeps the raw multi-hypergraph)"),
    ("seed", int, None, "base seed; replicate r uses seed + r (default 0)"),
    ("replicates", int, 1, "number of hypergraphs to generate (default 1)"),
    ("out", str, DEFAULT_PREFIX,
     f"output path prefix (default '{DEFAULT_PREFIX}', placed under ${OUT_DIR_ENV} when that is set)"),
    ("stats", _parse_bool, True, "include distribution tables in the report (default on)"),
    ("modularity", _parse_bool, True, "include ground-truth modularity in the report (default on)"),
    ("histograms", _parse_bool, True, "include the edge-type histogram in the report (default on)"),
)
_CONVERTER = {key: convert for key, convert, _, _ in _SETTINGS}
_METAVAR = {"q": "Q1,...,QL", "out": "PREFIX"}
# the CLI keys whose GeneratorParams field has another name
_FIELD = {"delta": "min_degree", "D": "max_degree", "s": "min_size", "S": "max_size", "L": "max_edge_size"}
_PARAM_FIELDS = {field.name for field in dataclasses.fields(GeneratorParams)}


def _data_lines(path: str, what: str) -> list[tuple[int, str, str]]:
    """(line number, text before any '#', raw line) of each line with such text."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {what} file {path}: {exc}") from exc
    return [(lineno, text, raw) for lineno, raw in enumerate(lines, start=1)
            if (text := raw.split("#", 1)[0].strip())]


def load_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    settings: dict = {}
    for lineno, text, raw in _data_lines(path, "config"):
        if "=" not in text:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _CONVERTER:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            settings[key] = _CONVERTER[key](value)
        except ValueError as exc:
            raise _UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return settings


def load_weight_file(path: str, max_edge_size: int) -> WeightMatrix:
    """Explicit weight matrix: lines of "size count weight"; '#' comments.

    Every size 1..max_edge_size needs its weights to sum to 1 (size 1 means
    the single line "1 1 1.0"), which parameter validation enforces later.
    A (size, count) pair may appear only once.
    """
    entries: dict[tuple[int, int], float] = {}
    for lineno, text, _ in _data_lines(path, "weight"):
        parts = text.split()
        if len(parts) != 3:
            raise _UsageError(f"{path}:{lineno}: expected 'size count weight'")
        try:
            d, c, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise _UsageError(f"{path}:{lineno}: bad numbers: {exc}") from exc
        if (c, d) in entries:
            raise _UsageError(f"{path}:{lineno}: size {d} count {c} is listed twice")
        entries[(c, d)] = w
    return WeightMatrix.from_entries(max_edge_size, entries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgbench",
        description="Generate benchmark hypergraphs with ground-truth communities.")
    parser.add_argument("--version", action="version", version=f"hgbench {__version__}")
    parser.add_argument("--config", metavar="PATH", help="key=value settings file")
    for key, convert, _, text in _SETTINGS:
        kind = ({"action": argparse.BooleanOptionalAction} if convert is _parse_bool
                else {"type": convert, "metavar": _METAVAR.get(key)})
        parser.add_argument("--" + key.replace("_", "-"), help=text, **kind)
    return parser


def merge_settings(args: argparse.Namespace) -> dict:
    """run defaults < config file < explicit flags."""
    settings = {key: default for key, _, default, _ in _SETTINGS if default is not None}
    if args.config:
        settings.update(load_config_file(args.config))
    for key in _CONVERTER:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _cap(n: int, key: str, exponent: float) -> int:
    """floor(n**exponent), the cap that a zeta or tau setting stands for."""
    try:
        if math.isfinite(exponent):
            return int(n ** exponent)
    except OverflowError:
        pass
    raise _ValidationError(f"{key} must give a finite cap floor(n**{key}), got {exponent!r}")


def build_params(settings: dict) -> GeneratorParams:
    if "n" not in settings:
        raise _ValidationError("n is required (flag --n or config key n)")
    n = settings["n"]
    if not isinstance(n, int) or not 1 <= n <= MAX_N:
        raise _ValidationError(f"n must be an integer in 1..{MAX_N}, got {n!r}")

    if "D" in settings and "zeta" in settings:
        raise _ValidationError("give exactly one of D and zeta, not both")
    if "S" in settings and "tau" in settings:
        raise _ValidationError("give exactly one of S and tau, not both")
    fields = {_FIELD.get(key, key): value for key, value in settings.items()
              if _FIELD.get(key, key) in _PARAM_FIELDS}
    if "zeta" in settings:
        fields["max_degree"] = _cap(n, "zeta", settings["zeta"])
    if "tau" in settings:
        fields["max_size"] = _cap(n, "tau", settings["tau"])

    if "L" in settings and not (isinstance(settings["L"], int) and settings["L"] >= 1):
        raise _ValidationError(f"L must be a positive integer, got {settings['L']!r}")
    params = default_params(**fields)

    w_model = settings["w_model"]
    if w_model != "majority":
        load = build_weight_matrix if w_model in WEIGHT_MODELS else load_weight_file
        params = dataclasses.replace(params, w=load(w_model, params.max_edge_size))
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
    """One edge per line: member node ids, 1-based, ascending, space-separated.

    Edges come in runs of equal size, and each run is formatted with one
    template of that run's shape.  An empty edge would be a blank line, which
    the reader skips, so the first one raises ValueError before the file is
    opened.
    """
    empty = np.flatnonzero(hg.sizes() == 0)
    if len(empty):
        raise ValueError(f"edge {empty[0]} is empty; an edges file cannot hold an empty edge")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# hgbench {__version__} edges\n")
        handle.write(f"# nodes={hg.n} edges={hg.edge_count} seed={seed}\n")
        for run in size_runs(hg.members, hg.offsets):
            line = " ".join(["%d"] * run.shape[1]) + "\n"
            handle.write((line * len(run)) % tuple((run + 1).ravel().tolist()))


def write_assignment_file(path: str, assignment, seed: int) -> None:
    """One line per node: "node community", both 1-based."""
    n = len(assignment.member_of)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# hgbench {__version__} assignments\n")
        handle.write(f"# nodes={n} communities={len(assignment.sizes)} seed={seed}")
        handle.write(_rows("%d %d", np.arange(1, n + 1), assignment.member_of + 1) + "\n")


_BLOCK = 1 << 20   # bytes _scan reads at a time; each block is cut back to whole lines
_HEAD = re.compile(rb"(?:[ \t\v\f]*\n|#[^\n]*\n?)*")   # the leading blank and '#' lines
# _scan's faults, highest rank first; a byte that is not UTF-8 outranks them
# all, so it raises at once
_HEADER, _BAD_BYTE, _WIDE = range(3)


def _fail(path: str, lineno: int, why: str):
    raise ValueError(f"{path}:{lineno}: {why}")


def _in_range(buf: np.ndarray, lo: int, count: int) -> np.ndarray:
    """``lo <= buf < lo + count`` in the array of ``buf - lo``, whose uint8 wraps."""
    diff = np.subtract(buf, lo, dtype=np.uint8)
    return np.less(diff, count, out=diff.view(bool))


def _line(path: str, lineno: int) -> str:
    """Line ``lineno`` of a data file, stripped, to show in a fault."""
    with open(path, encoding="utf-8", errors="replace") as handle:
        return next(itertools.islice(handle, lineno - 1, None)).strip()


def _line_blocks(path: str):
    """The bytes of a file in blocks of whole lines, every newline made ``\\n``.

    A block is about ``_BLOCK`` bytes.  A partial line waits for the next
    block, and so does a final ``\\r``, which may start a ``\\r\\n``; a line
    longer than the block doubles the next read.
    """
    with open(path, "rb") as handle:
        rest = b""
        while chunk := handle.read(max(_BLOCK, len(rest))):
            text = rest + chunk
            held = text.endswith(b"\r")
            if b"\r" in text:
                text = text[:len(text) - held].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            cut = text.rfind(b"\n") + 1
            rest = text[cut:] + b"\r" * held
            if cut:
                yield text[:cut]
    if rest:
        yield rest.replace(b"\r", b"\n")


def _scan(path: str, bad: str, noun: str, width: int | None = None):
    """Tokenize a data file of unsigned decimal ids, one block of whole lines
    at a time, so no whole-file copy is ever held.

    Returns (header, blocks).  ``header`` holds the header's ``nodes=`` and
    ``edges=`` as {key: (value, line number)}; the header is the run of blank
    and '#' lines before the first other line, so a key in a later comment
    is not read.  ``blocks`` yields (ids, bounds, lines) per block: its ids
    in file order as int64; the bounds of each of its lines that hold ids
    once '#' comments are removed (the j-th holds ``ids[bounds[j]:bounds[j+1]]``);
    and the numbers of those lines in the file.

    Newlines are universal.  Faults raise a ValueError naming ``path:line``,
    from the highest rank down: a byte that is not UTF-8; a header value
    with more than 18 digits; outside comments, a byte that is neither a
    digit nor whitespace ("<bad>, got <line>"); an id with more than
    ``width`` digits ("<noun> <id> has more than ...").  ``width`` defaults
    to the digits of ``nodes=``, so every id fits int64.  ``blocks`` yields
    no block from the first fault on; it reads on for a fault of higher rank
    and raises the first fault of the highest rank found.
    """
    texts = _line_blocks(path)
    head = []
    for text in texts:   # the header ends in the first block that is not all header
        head.append(text)
        if _HEAD.match(text).end() < len(text):
            break
    head_text = b"".join(head)
    head_text = head_text[: _HEAD.match(head_text).end()]
    header, fault = {}, None
    for key in ("nodes", "edges"):
        found = re.search(rb"\b" + key.encode() + rb"=(\d+)", head_text)
        if found:
            lineno = head_text.count(b"\n", 0, found.start()) + 1
            if len(found[1]) > 18:
                fault = _HEADER, lineno, f"header {key}= has more than 18 digits"
                break
            header[key] = int(found[1]), lineno
    if width is None:
        width = len(str(header["nodes"][0])) if "nodes" in header else 18

    def blocks(fault):
        line = 1   # the number of the next block's first line
        for text in itertools.chain(head, texts):
            first = line
            if not text.isascii():
                try:
                    text.decode()
                except UnicodeDecodeError as exc:
                    _fail(path, first + text.count(b"\n", 0, exc.start),
                          f"byte {text[exc.start]:#x} is not UTF-8")
            if fault and fault[0] <= _BAD_BYTE:
                line += text.count(b"\n")
                continue
            text = re.sub(rb"#[^\n]*", b"", text)   # comments go, line breaks stay
            buf = np.frombuffer(text, dtype=np.uint8)
            breaks = np.flatnonzero(buf == ord("\n"))
            line += len(breaks)
            digit = _in_range(buf, ord("0"), 10)
            ok = digit | _in_range(buf, ord("\t"), 5) | (buf == ord(" "))   # whitespace: \t-\r and space
            if not ok.all():
                lineno = first + int(np.searchsorted(breaks, np.argmin(ok)))
                fault = _BAD_BYTE, lineno, f"{bad}, got {_line(path, lineno)}"
                continue
            del ok   # freed before the token arrays are made, which keeps the read's heap compact
            if fault:
                continue
            # a token is a run of digits: it starts and ends where the digit mask flips
            flips = np.flatnonzero(np.diff(digit, prepend=False, append=False))
            starts, ends = flips.reshape(-1, 2).T
            wide = np.flatnonzero(ends - starts > width)
            if len(wide):
                k = wide[0]
                fault = (_WIDE, first + int(np.searchsorted(breaks, starts[k])),
                         f"{noun} {text[starts[k]: ends[k]].decode()} has more than {width} digits")
                continue
            # fromstring reads a block with no tokens as [0]
            ids = np.fromstring(text, dtype=np.int64, sep=" ") if len(starts) else np.empty(0, np.int64)
            if not text.endswith(b"\n"):
                breaks = np.append(breaks, len(buf))   # the file's last line ends with it
            # a line holds ids when more ids start before its break than before the one above
            after = np.searchsorted(starts, breaks)
            full = np.flatnonzero(np.diff(after, prepend=0))
            yield ids, np.append(0, after[full]), first + full
        if fault:
            _fail(path, *fault[1:])

    return header, blocks(fault)


def read_edges_file(path: str) -> EdgeLists:
    """Parse an edges file back into 0-based member lists, in file order, as
    an ``EdgeLists`` of the blocks ``_scan`` reads: no list is built here.

    Every line that is not blank once '#' comments are removed is one edge:
    node ids in 1..n, n the smaller of the header's ``nodes=`` and ``MAX_N``,
    so every block is int32.  When the header gives ``edges=``, the file must
    have that many edge lines.  A fault raises a ValueError naming ``path:line``:
    the first of the highest rank, where ``_scan``'s faults rank above an id
    outside 1..n, and that above a wrong ``edges=``.
    """
    header, blocks = _scan(path, "expected node ids", "node id")
    n = min(header["nodes"][0], MAX_N) if "nodes" in header else MAX_N
    kept, edges, outside = [], 0, None
    for ids, bounds, lines in blocks:
        edges += len(lines)
        if outside:
            continue
        bad = np.flatnonzero((ids < 1) | (ids > n))
        if len(bad):
            k = bad[0]
            outside = int(lines[np.searchsorted(bounds, k, "right") - 1]), int(ids[k])
            continue
        kept.append((np.subtract(ids, 1, dtype=np.int32), bounds.astype(np.int32)))
    if outside:
        _fail(path, outside[0], f"node id {outside[1]} is outside 1..{n}")
    if "edges" in header and header["edges"][0] != edges:
        count, lineno = header["edges"]
        _fail(path, lineno, f"header says edges={count}, but the file has {edges} edge lines")
    return EdgeLists(kept)


def read_assignment_file(path: str) -> np.ndarray:
    """Parse an assignment file back into a 0-based label array.

    The node count n comes from the header's ``nodes=`` field, or else from
    the number of data lines.  Every node 1..n needs exactly one line
    "node community" with a positive community id.  A fault raises a
    ValueError naming ``path:line``: ``_scan``'s first, then the first of
    these checks, in this order.
    """
    header, blocks = _scan(path, "bad number", "number", width=18)
    parts = [(np.empty(0, np.int64),) * 3] + [(ids, np.diff(bounds), lines) for ids, bounds, lines in blocks]
    ids, counts, lines = map(np.concatenate, zip(*parts))
    wrong = np.flatnonzero(counts != 2)
    if len(wrong):
        lineno = int(lines[wrong[0]])
        _fail(path, lineno, f"expected 'node community', got {_line(path, lineno)!r}")
    node, comm = ids.reshape(-1, 2).T
    n = header["nodes"][0] if "nodes" in header else len(node)
    bad = np.flatnonzero((node < 1) | (node > n) | (comm < 1))
    if len(bad):
        k = bad[0]
        _fail(path, lines[k], f"node must be in 1..{n} and community >= 1, got {node[k]} {comm[k]}")
    order = np.argsort(node, kind="stable")
    repeats = order[1:][node[order[1:]] == node[order[:-1]]]
    if len(repeats):
        k = repeats.min()
        _fail(path, lines[k], f"node {node[k]} is assigned twice")
    if len(node) < n:
        # ids are distinct and in range, so the first gap is a missing node
        gaps = np.flatnonzero(node[order] != np.arange(1, len(node) + 1))
        missing = gaps[0] + 1 if len(gaps) else len(node) + 1
        _fail(path, header["nodes"][1], f"node {missing} has no assignment")
    labels = np.empty(n, dtype=np.int64)
    labels[node - 1] = comm - 1
    return labels


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _rows(template: str, *columns) -> str:
    """A newline and a line per row of the columns, all formatted by one template."""
    return ("\n" + template) * len(columns[0]) % tuple(np.column_stack(columns).ravel().tolist())


def _score_line(name: str, score, *args) -> str:
    """"name value", or "name undefined" when score(*args) has no value: no
    edges, or (pairwise) no edge with two distinct members."""
    try:
        return f"{name} {_fmt(score(*args))}"
    except UndefinedInputError:
        return f"{name} undefined"


# how the report shows a setting's value, by its converter (others: str)
_SHOW = {float: _fmt, _parse_q: lambda q: ",".join(map(_fmt, q)), _parse_bool: lambda b: str(b).lower()}


def _params_lines(params: GeneratorParams, w_model: str) -> list[str]:
    """[params]: each generator setting in _SETTINGS order, and w_model."""
    lines = ["[params]"]
    for key, convert, _, _ in _SETTINGS:
        field = _FIELD.get(key, key)
        if key == "w_model" or field in _PARAM_FIELDS:
            value = w_model if key == "w_model" else getattr(params, field)
            lines.append(f"{key} {_SHOW.get(convert, str)(value)}")
    return lines


def write_report_file(path: str, result, params: GeneratorParams,
                      settings: dict) -> None:
    """Structured text report: run scalars, distribution tables, modularity,
    and the edge-type histogram, section by section."""
    hg = result.hypergraph
    truth = result.assignment
    lines = [f"# hgbench {__version__} report", "[run]", f"nodes {hg.n}",
             f"edges {hg.edge_count}", f"volume {hg.volume}", f"communities {len(truth.sizes)}",
             f"mode {'simple' if params.simple else 'multi'}", f"seed {params.seed}",
             f"warnings {len(result.warnings)}"]
    for note in result.warnings:
        lines.append(f"# warning: {note}")
    lines.extend(_params_lines(params, settings["w_model"]))

    if settings["modularity"] or settings["histograms"]:
        cen = census(hg, truth.member_of)   # before ccdf_report, which reads its memo's degrees

    if settings["stats"]:
        rep = ccdf_report(hg, truth, params)
        lines += ["[degree_ccdf]", "K empirical model" + _rows(
            "%d %.10g %.10g", rep.degree_k, rep.degree_ccdf, rep.degree_ccdf_model)]
        lines += ["[community_size_ccdf]", "K empirical model" + _rows(
            "%d %.10g %.10g", rep.community_size_k, rep.community_size_ccdf, rep.community_size_ccdf_model)]
        lines += ["[edge_sizes]", "size count volume_share" + _rows(
            "%d %d %.10g", np.arange(1, params.max_edge_size + 1), rep.edge_size_counts, rep.volume_share)]

    if settings["modularity"]:
        lines += ["[modularity]", _score_line("two_section", cen.pairwise_modularity)]
        lines.extend(_score_line(f"hypergraph_{name}", cen.hypergraph_modularity,
                                 modularity_weights(name, params.max_edge_size))
                     for name in WEIGHT_MODELS)

    if settings["histograms"]:
        lines += ["[type_histogram]", "size majority count fraction"]
        for (c, d), count in cen.type_histogram().items():
            lines.append(f"{d} {c} {count} {_fmt(count / int(cen.counts[d].sum()))}")

    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_summary_file(path: str, rows: list[dict], base_seed: int) -> None:
    lines = [f"# hgbench {__version__} summary", "[replicates]", "r seed communities edges volume"]
    lines += [f"{row['r']} {row['seed']} {row['communities']} {row['edges']} {row['volume']}"
              for row in rows]
    lines += ["[aggregate]", f"count {len(rows)}", f"base_seed {base_seed}"]
    for name in ("communities", "edges"):
        values = np.array([row[name] for row in rows], dtype=float)
        lines += [f"{name}_mean {_fmt(values.mean())}",
                  f"{name}_std {_fmt(values.std(ddof=1) if len(rows) > 1 else 0.0)}"]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def run(settings: dict) -> int:
    """Generate all replicates and write their files; returns the exit code."""
    replicates = settings["replicates"]
    if not isinstance(replicates, int) or replicates < 1:
        raise _ValidationError(f"replicates must be a positive integer, got {replicates!r}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = build_params(settings)
    for note in caught:
        print(f"hgbench: warning[params]: {note.message}", file=sys.stderr)
    prefix = resolve_prefix(settings["out"])

    exhausted = False
    rows = []
    for r in range(replicates):
        run_params = dataclasses.replace(params, seed=params.seed + r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # generate repeats build_params' warning
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
        write_summary_file(f"{prefix}.summary.txt", rows, params.seed)
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
    except HgbenchError as exc:
        print(f"hgbench: error[generation]: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"hgbench: error[generation]: not enough memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
