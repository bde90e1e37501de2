"""Child process of the benchmark: one workload's set-up, operations and checks.

run.py starts it from the checkout root, with the checkout's `src` first on
PYTHONPATH, as

    python bench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

and reads the result from WORKDIR/MODE.json.  MODE is one of

  probe  set up, note when set-up ended, and stop;
  run    set up, then repeat the untraced operation for SECONDS;
  trace  traced, untraced, traced operation, for the per-layer metrics.

On the CLI workload a traced operation is a child started as

    python bench/worker.py cli-main OUT_JSON HGBENCH_ARGS...

which runs `hgbench.cli.main` in-process under the tracer.

Every operation of one invocation uses the same seed, so every output must
have the same digest; the first output is also checked in full.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
from tracer import COUNT_METRICS, Tracer, peak_rss_mb

WORKER = os.path.abspath(__file__)

# Functions hgbench.cli looks up at call time -> span names.
CLI_SPANS = (
    ("generate", "generation.generate"),
    ("write_edges_file", "cli.write_edges_file"),
    ("write_assignment_file", "cli.write_assignment_file"),
    ("write_report_file", "cli.write_report_file"),
    ("ccdf_report", "metrics.ccdf_report"),
    ("two_section", "metrics.two_section"),
    ("graph_modularity", "metrics.graph_modularity"),
    ("hypergraph_modularity", "metrics.hypergraph_modularity"),
    ("type_histogram", "metrics.type_histogram"),
)


class OpFailed(Exception):
    """A CLI operation exited nonzero."""


def spawn(cmd, log_path, env=None) -> tuple[int, float]:
    """Run cmd to completion; returns its exit code and peak RSS in MiB."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log, env=env)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def cli_argv(n: int, seed: int, prefix: str, *extra: str) -> list[str]:
    """One replicate with every report section on."""
    return ["--n", str(n), "--seed", str(seed), "--out", prefix,
            "--stats", "--modularity", "--histograms", *extra]


class CliStrict:
    """One `hgbench` run in a child process at n = 2^17, strict weights."""

    name = "cli-strict-2e17"
    probes = 4
    n = 1 << 17

    def __init__(self, seed: int, work: str):
        self.work = work
        self.prefix = os.path.join(work, "cli")
        self.argv = cli_argv(self.n, seed, self.prefix, "--w-model", "strict")
        self.child_rss: list[float] = []

    def setup(self):
        from hgbench import cli
        cli.build_params(cli.merge_settings(cli.build_parser().parse_args(self.argv)))

    def install(self, tracer):
        """The traced run happens in a `cli-main` child; nothing to patch here."""

    def op(self):
        rc, rss = spawn([sys.executable, "-m", "hgbench.cli", *self.argv],
                        os.path.join(self.work, "cli.log"))
        self.child_rss.append(rss)
        if rc != 0:
            raise OpFailed(f"hgbench exited {rc}")

    def traced_op(self, tracer, op_id):
        out_path = os.path.join(self.work, f"cli-main-{op_id}.json")
        rc, _ = spawn([sys.executable, WORKER, "cli-main", out_path, *self.argv],
                      os.path.join(self.work, "cli.log"))
        if rc != 0:
            raise OpFailed(f"traced hgbench exited {rc}")
        with open(out_path) as handle:
            child = json.load(handle)
        for rec in child["spans"]:
            rec["op"] = op_id
        tracer.spans.extend(child["spans"])
        return None, child["metrics"]

    def files(self):
        return [self.prefix + ext for ext in (".edges", ".assign", ".report.txt")]

    def digest(self, out):
        return " ".join(checks.file_digest(path) for path in self.files())

    def check(self, out):
        edges, assign, report = self.files()
        return (checks.check_edges_file(edges, self.n)
                + checks.check_assignment_file(assign, self.n)
                + checks.check_report_file(report))

    def peak_rss_mb(self):
        return max(self.child_rss)


class InProcess:
    """Shared parts of the workloads that call the library in-process."""

    probes = 4

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def traced_op(self, tracer, op_id):
        tracer.op = op_id
        return self.op(), tracer.layer_metrics(op_id)

    def peak_rss_mb(self):
        return peak_rss_mb()


class GenerateMulti(InProcess):
    """One in-process `generate` call at n = 10^6, multi mode, majority weights."""

    name = "generate-multi-1e6"

    def setup(self):
        from hgbench import default_params, generation
        self.generation = generation
        self.params = default_params(1_000_000, seed=self.seed, simple=False)

    def install(self, tracer):
        from hgbench import generation, rewiring
        tracer.wrap(generation, "generate", "generation.generate")
        tracer.wrap_rewiring(rewiring)

    def op(self):
        return self.generation.generate(self.params)

    def digest(self, result):
        hg = result.hypergraph
        return checks.array_digest(hg.offsets, hg.members, hg.origins,
                                   result.assignment.sizes, result.assignment.member_of)

    def check(self, result):
        return checks.check_generation(result, self.params)


class ScoreMany(InProcess):
    """Score eight partitions of one hypergraph that the CLI wrote at n = 2^18."""

    name = "score-many-2e18"
    probes = 1
    n = 1 << 18

    @staticmethod
    def prep_argv(seed: int, work: str) -> list[str]:
        return cli_argv(ScoreMany.n, seed, os.path.join(work, "score"))

    def setup(self):
        from hgbench import cli, config, metrics, structures
        self.metrics = metrics
        prefix = os.path.join(self.work, "score")
        self.report = prefix + ".report.txt"
        edges = cli.read_edges_file(prefix + ".edges")
        self.hg = structures.Hypergraph.from_edge_lists(self.n, edges)
        del edges
        truth = cli.read_assignment_file(prefix + ".assign")
        self.graph = metrics.two_section(self.hg)
        self.families = config.WEIGHT_MODELS
        # the CLI wrote the files with its default largest edge size, 5
        self.weights = [config.modularity_weights(name, 5) for name in self.families]
        self.partitions = self._partitions(truth)

    def _partitions(self, truth):
        """Ground truth; 5, 25 and 50% of nodes moved to a random community;
        random labels over the truth's community count; pairs of communities
        merged; every community split in two; random labels over n/10 parts."""
        rng = np.random.default_rng([self.seed, 0xB5])
        n, k = len(truth), int(truth.max()) + 1
        out = [truth]
        for share in (0.05, 0.25, 0.5):
            moved = rng.choice(n, size=int(share * n), replace=False)
            noisy = truth.copy()
            noisy[moved] = rng.integers(0, k, size=len(moved))
            out.append(noisy)
        out.append(rng.integers(0, k, size=n))
        out.append(truth // 2)
        out.append(2 * truth + rng.integers(0, 2, size=n))
        out.append(rng.integers(0, n // 10, size=n))
        return out

    def install(self, tracer):
        from hgbench import cli, metrics, structures
        tracer.wrap(cli, "read_edges_file", "cli.read_edges_file")
        tracer.wrap(cli, "read_assignment_file", "cli.read_assignment_file")
        tracer.wrap(structures.Hypergraph, "from_edge_lists", "structures.from_edge_lists")
        for name in ("two_section", "graph_modularity", "hypergraph_modularity", "type_histogram"):
            tracer.wrap(metrics, name, f"metrics.{name}")

    def op(self):
        m = self.metrics
        scores, hists = [], []
        for labels in self.partitions:
            scores.append(m.graph_modularity(self.graph, labels))
            for u in self.weights:
                scores.append(m.hypergraph_modularity(self.hg, labels, u))
            hist = m.type_histogram(self.hg, labels)
            hists.extend((c, d, count) for (c, d), count in sorted(hist.items()))
        return scores, hists

    def digest(self, out):
        scores, hists = out
        return checks.array_digest(np.asarray(scores, dtype=np.float64), np.asarray(hists))

    def check(self, out):
        """Scores are finite, and the truth's scores equal the CLI's own report
        to its 10 significant digits (writer -> reader -> metrics round trip)."""
        scores = out[0]
        problems = checks.check_scores(scores)
        reported = checks.report_modularity(self.report)
        names = ["two_section"] + [f"hypergraph_{name}" for name in self.families]
        for name, value in zip(names, scores):
            if reported.get(name) != f"{value:.10g}":
                problems.append(f"truth {name} {value:.10g} != report {reported.get(name)}")
        return problems


WORKLOADS = {wl.name: wl for wl in (CliStrict, GenerateMulti, ScoreMany)}


def attempt(wl, first, fn):
    """Run and check one operation; fn returns (output, layer metrics or None).
    Returns (wall seconds, digest, layer metrics, problems).

    The first output (`first` is None) is checked in full; later ones must
    have the first one's digest, since every operation uses the same seed.
    """
    t0 = time.perf_counter()
    try:
        try:
            out, extra = fn()
        finally:
            wall = time.perf_counter() - t0
        digest = wl.digest(out)
        if first is None:
            problems = wl.check(out)
        elif digest != first:
            problems = ["output differs from the first operation's with the same seed"]
        else:
            problems = []
    except Exception as exc:  # the operation boundary: record the failure and go on
        traceback.print_exc()
        return wall, None, None, [f"failed: {exc!r}"]
    return wall, digest, extra, problems


def run_untraced(wl, seconds: float) -> dict:
    wl.setup()
    ready = time.monotonic()
    walls, problems, first = [], [], None
    failed = 0
    while not walls or sum(walls) < seconds:
        wall, digest, _, op_problems = attempt(wl, first, lambda: (wl.op(), None))
        walls.append(wall)
        first = first or digest
        failed += bool(op_problems)
        problems += [f"operation {len(walls)}: {p}" for p in op_problems]
    return dict(ready=ready, walls=walls, peak_rss_mb=wl.peak_rss_mb(),
                attempted=len(walls), failed=failed, problems=problems)


def run_traced(wl, trace_path: str) -> dict:
    """Traced, untraced, traced: outputs must be byte-identical, count metrics
    must repeat, and the overhead is the traced minus the untraced wall time."""
    tracer = Tracer()
    wl.install(tracer)
    wl.setup()
    walls, layer, problems, first = {}, {}, [], None
    failed = 0
    for op_id in ("t1", "u", "t2"):
        if op_id == "u":
            tracer.uninstall()
            walls[op_id], digest, _, op_problems = attempt(wl, first, lambda: (wl.op(), None))
        else:
            if op_id == "t2":
                wl.install(tracer)
            walls[op_id], digest, layer[op_id], op_problems = attempt(
                wl, first, lambda: wl.traced_op(tracer, op_id))
        first = first or digest
        failed += bool(op_problems)
        problems += [f"operation {op_id}: {p}" for p in op_problems]
    tracer.uninstall()
    metrics = {}
    if not failed:
        t1, t2 = layer["t1"], layer["t2"]
        for name in t1:
            if name in COUNT_METRICS or name.endswith("_mb"):
                # counts repeat exactly; a peak-memory rise shows only in the first run
                metrics[name] = t1[name]
            else:
                metrics[name] = statistics.median([t1[name], t2[name]])
        problems += [f"count {name} differs between traced runs: {t1[name]} vs {t2[name]}"
                     for name in COUNT_METRICS if t1[name] != t2[name]]
        metrics["trace.overhead_s"] = statistics.median([walls["t1"], walls["t2"]]) - walls["u"]
    with open(trace_path, "w") as handle:
        json.dump(dict(workload=wl.name, walls=walls, counts=[
            [op, name, value] for (op, name), value in tracer.counts.items()],
            spans=tracer.spans, metrics=metrics), handle)
    return dict(metrics=metrics, attempted=len(walls), failed=failed, problems=problems)


def cli_main(out_path: str, argv: list[str]) -> int:
    """One in-process CLI run with spans around the functions hgbench.cli calls."""
    from hgbench import cli, rewiring
    tracer = Tracer()
    tracer.op = "op"
    for attr, name in CLI_SPANS:
        tracer.wrap(cli, attr, name)
    tracer.wrap_rewiring(rewiring)
    rc = cli.main(argv)
    with open(out_path, "w") as handle:
        json.dump(dict(metrics=tracer.layer_metrics("op"), spans=tracer.spans), handle)
    return rc


def main(argv: list[str]) -> int:
    if argv[0] == "cli-main":
        return cli_main(argv[1], argv[2:])
    mode, name, seed, seconds, work = argv
    import hgbench
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(hgbench.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported hgbench from {hgbench.__file__}, not from {src}")
    wl = WORKLOADS[name](int(seed), work)
    if mode == "probe":
        wl.setup()
        result = dict(ready=time.monotonic())
    elif mode == "run":
        result = run_untraced(wl, float(seconds))
    else:
        traces = os.path.join(os.getcwd(), ".bench_traces")
        os.makedirs(traces, exist_ok=True)
        result = run_traced(wl, os.path.join(traces, f"{name}-seed{seed}.json"))
    with open(os.path.join(work, f"{mode}.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
