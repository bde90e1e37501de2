"""Output checks of the benchmark: its own parsers, invariants and digests.

Every check reads what the program produced from outside, with parsing code
of its own, and returns a list of problems; an empty list means the output
is valid.  None of them pins a digest across commits: digests are compared
only between runs of one benchmark invocation.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

REPORT_SECTIONS = ("[run]", "[params]", "[degree_ccdf]", "[community_size_ccdf]",
                   "[edge_sizes]", "[modularity]", "[type_histogram]")


def file_digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def array_digest(*arrays) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        sha.update(f"{arr.dtype.str}{arr.shape}".encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def _split_header(path: str, kind: str):
    """(header fields, body bytes) of a file written by the hgbench CLI."""
    with open(path, "rb") as handle:
        data = handle.read()
    first = data.index(b"\n")
    second = data.index(b"\n", first + 1)
    title = data[:first].decode()
    if not (title.startswith("# hgbench ") and title.endswith(f" {kind}")):
        raise ValueError(f"{path}: unexpected title line {title!r}")
    fields = dict(tok.split("=") for tok in data[first + 1: second].decode()[2:].split())
    return {key: int(value) for key, value in fields.items()}, data[second + 1:]


def check_edges_file(path: str, n: int) -> list[str]:
    """Header counts match the body, ids are in 1..n, every edge is strictly
    ascending, and no two edge lines are equal."""
    header, body = _split_header(path, "edges")
    problems = []
    if header["nodes"] != n:
        problems.append(f"edges header nodes={header['nodes']}, expected {n}")
    if body and not body.endswith(b"\n"):
        problems.append("edges body does not end with a newline")
    lines = body.split(b"\n")[:-1]
    if len(lines) != header["edges"]:
        problems.append(f"edges header says {header['edges']} edges, body has {len(lines)}")
    if len(set(lines)) != len(lines):
        problems.append(f"{len(lines) - len(set(lines))} edge lines repeat an earlier line")
    buf = np.frombuffer(body, dtype=np.uint8)
    spaces = np.flatnonzero(buf == ord(" "))
    line_ends = np.flatnonzero(buf == ord("\n"))
    sizes = np.diff(np.searchsorted(spaces, line_ends), prepend=0) + 1
    members = np.array(body.split(), dtype=np.int64)
    if int(sizes.sum()) != len(members) or (sizes < 1).any():
        problems.append("edges body has empty or malformed lines")
        return problems
    if len(members) and (members.min() < 1 or members.max() > n):
        problems.append(f"edge member ids outside 1..{n}")
    inside = np.ones(max(len(members) - 1, 0), dtype=bool)
    inside[np.cumsum(sizes)[:-1] - 1] = False
    if not (np.diff(members)[inside] > 0).all():
        problems.append("an edge is not strictly ascending")
    return problems


def check_assignment_file(path: str, n: int) -> list[str]:
    """Every node 1..n is listed exactly once, with a community in 1..k."""
    header, body = _split_header(path, "assignments")
    pairs = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
    problems = []
    if header["nodes"] != n or len(pairs) != n:
        problems.append(f"assignment lists {len(pairs)} nodes (header {header['nodes']}), expected {n}")
    elif not (np.sort(pairs[:, 0]) == np.arange(1, n + 1)).all():
        problems.append("assignment does not list every node 1..n exactly once")
    if len(pairs) and (pairs[:, 1].min() < 1 or pairs[:, 1].max() > header["communities"]):
        problems.append(f"community ids outside 1..{header['communities']}")
    return problems


def report_modularity(path: str) -> dict[str, str]:
    """The `[modularity]` lines of a report, as name -> printed value."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("[modularity]") + 1
    out = {}
    for line in lines[start:]:
        if line.startswith("["):
            break
        name, value = line.split()
        out[name] = value
    return out


def check_report_file(path: str) -> list[str]:
    """All seven sections are present and the run reports no warnings."""
    with open(path, encoding="utf-8") as handle:
        lines = set(handle.read().splitlines())
    problems = [f"report lacks section {sec}" for sec in REPORT_SECTIONS if sec not in lines]
    if "warnings 0" not in lines:
        problems.append("report does not say 'warnings 0'")
    return problems


def check_generation(result, params) -> list[str]:
    """Degrees match the sampled ones up to a few +1 bumps, members are node
    ids, and origins are singleton, background or a community index."""
    hg = result.hypergraph
    problems = []
    if len(hg.members) and (hg.members.min() < 0 or hg.members.max() >= params.n):
        problems.append(f"members outside [0, {params.n})")
    k = result.assignment.community_count
    origins = hg.origins
    if not ((origins == -2) | (origins == -1) | ((origins >= 0) & (origins < k))).all():
        problems.append(f"origins outside {{-2, -1}} and [0, {k})")
    excess = hg.degrees() - result.profiles.sampled_degree
    bumped = int((excess == 1).sum())
    if ((excess != 0) & (excess != 1)).any() or bumped >= params.max_edge_size:
        problems.append(f"degrees differ from the sampled degrees beyond "
                        f"{params.max_edge_size - 1} +1 bumps ({bumped} bumped)")
    return problems


def check_scores(scores) -> list[str]:
    bad = [i for i, value in enumerate(scores) if not math.isfinite(value)]
    return [f"scores {bad} are not finite"] if bad else []
