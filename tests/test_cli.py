"""Command-line behavior: exit codes, file formats, round trips, determinism."""
import ast
import dataclasses
import gc
import hashlib
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgbench import __version__, cli, generation, rewiring, structures
from hgbench.cli import (
    build_params,
    build_parser,
    load_config_file,
    load_weight_file,
    main,
    merge_settings,
    read_assignment_file,
    read_edges_file,
    write_assignment_file,
    write_edges_file,
    write_report_file,
)
from hgbench.config import build_weight_matrix, default_params
from hgbench.generation import generate
from hgbench.metrics import two_section
from hgbench.structures import CommunityAssignment, DegreeProfiles, EdgeLists, GenerationResult, Hypergraph


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class TestArgumentHandling:
    def test_missing_n_is_validation_error(self, tmp_path, capsys):
        assert run_cli("--out", str(tmp_path / "x")) == 2
        assert "error[validation]" in capsys.readouterr().err

    def test_unparseable_flag_is_usage_error(self, tmp_path):
        assert run_cli("--n", "not-a-number") == 1

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("--frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "hypergraph" in capsys.readouterr().out

    def test_both_degree_caps_rejected(self, tmp_path):
        assert run_cli("--n", "500", "--D", "20", "--zeta", "0.5",
                       "--out", str(tmp_path / "x")) == 2

    def test_both_size_caps_rejected(self, tmp_path):
        assert run_cli("--n", "500", "--S", "100", "--tau", "0.7",
                       "--out", str(tmp_path / "x")) == 2

    def test_invalid_q_is_validation_error_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "bad"
        assert run_cli("--n", "500", "--q", "0.5,0.6,0,0,0",
                       "--out", str(out)) == 2
        assert list(tmp_path.iterdir()) == []

    def test_bad_replicates_create_no_directory(self, tmp_path, capsys):
        assert run_cli("--n", "1000", "--replicates", "0",
                       "--out", str(tmp_path / "newdir" / "x")) == 2
        assert "error[validation]: replicates" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_params_warning_is_printed_once(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert run_cli("--n", "1000", "--D", "1000", "--out", str(tmp_path / "x")) == 0
        assert escaped == []
        assert capsys.readouterr().err.splitlines() == [
            "hgbench: warning[params]: max_degree=1000 exceeds max_size=177; "
            "high-degree nodes rely on their background share to fit in a community"]

    def test_malformed_q_text_is_usage_error(self, tmp_path):
        assert run_cli("--n", "500", "--q", "a,b,c", "--out", str(tmp_path / "x")) == 1

    def test_infeasible_run_exits_three(self, tmp_path, capsys):
        # no community size vector in [400, 450] sums to 500
        assert run_cli("--n", "500", "--s", "400", "--S", "450",
                       "--out", str(tmp_path / "x")) == 3
        assert "error[generation]" in capsys.readouterr().err


class TestConfigFile:
    def test_round_trip_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# trial setup\n"
            "n = 600\n"
            "gamma=2.2\n"
            "delta=3\n"
            "zeta=0.5\n"
            "s=40\n"
            "tau=0.8\n"
            "xi=0.25\n"
            "L=4\n"
            "q=0,0.4,0.3,0.3\n"
            "w_model=linear\n"
            "simple=false\n"
            "seed=9\n")
        settings = load_config_file(str(cfg))
        assert settings["n"] == 600
        assert settings["q"] == (0.0, 0.4, 0.3, 0.3)
        assert settings["simple"] is False
        assert settings["w_model"] == "linear"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes=100\n")
        assert run_cli("--config", str(cfg)) == 1

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=200\nseed=1\n")
        out = tmp_path / "o"
        assert run_cli("--config", str(cfg), "--n", "300", "--out", str(out)) == 0
        assert "nodes=300" in read(f"{out}.edges")

    @pytest.mark.parametrize("value,mode", [("yes", "simple"), ("no", "multi")])
    def test_boolean_words_set_the_mode(self, tmp_path, value, mode):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 1000\nsimple = {value}\n")
        out = tmp_path / "o"
        assert run_cli("--config", str(cfg), "--out", str(out)) == 0
        assert f"\nmode {mode}\n" in read(f"{out}.report.txt")

    def test_missing_config_file(self):
        assert run_cli("--config", "/nonexistent/path.cfg") == 1


class TestWeightFile:
    def test_explicit_matrix(self, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text(
            "# strict-style weights for sizes up to 3\n"
            "1 1 1.0\n"
            "2 2 1.0\n"
            "3 2 0.25\n"
            "3 3 0.75\n")
        w = load_weight_file(str(wfile), 3)
        assert w.values[2, 3] == 0.25
        assert w.values[3, 3] == 0.75

    def test_cli_accepts_weight_file(self, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("1 1 1\n2 2 1\n3 3 1\n")
        out = tmp_path / "o"
        code = run_cli("--n", "400", "--L", "3", "--q", "0,0.5,0.5",
                       "--w-model", str(wfile), "--out", str(out))
        assert code == 0

    def test_incomplete_matrix_is_validation_error(self, tmp_path):
        wfile = tmp_path / "w.txt"
        wfile.write_text("3 3 1\n")  # sizes 1 and 2 missing
        out = tmp_path / "o"
        assert run_cli("--n", "400", "--L", "3", "--q", "0,0.5,0.5",
                       "--w-model", str(wfile), "--out", str(out)) == 2


class TestSettings:
    # one sample value per config key; each key is also the flag --key
    VALUES = {
        "n": "600", "gamma": "2.2", "delta": "3", "D": "20", "zeta": "0.4",
        "beta": "1.2", "s": "40", "S": "300", "tau": "0.8", "xi": "0.25", "L": "4",
        "q": "0,0.4,0.3,0.3", "w_model": "linear", "simple": "false", "seed": "9",
        "replicates": "2", "out": "runs/x", "stats": "false", "modularity": "false",
        "histograms": "false",
    }
    BOOLEAN = {"simple", "stats", "modularity", "histograms"}

    def test_option_strings_are_pinned(self):
        options = {s for action in build_parser()._actions for s in action.option_strings}
        assert options == {
            "-h", "--help", "--version", "--config", "--n", "--gamma", "--delta", "--D",
            "--zeta", "--beta", "--s", "--S", "--tau", "--xi", "--L", "--q", "--w-model",
            "--simple", "--no-simple", "--seed", "--replicates", "--out", "--stats",
            "--no-stats", "--modularity", "--no-modularity", "--histograms",
            "--no-histograms"}
        flags = {"--" + key.replace("_", "-") for key in self.VALUES}
        flags |= {"--no-" + key for key in self.BOOLEAN}
        assert options - {"-h", "--help", "--version", "--config"} == flags

    @pytest.mark.parametrize("key", sorted(VALUES))
    def test_each_config_key_matches_its_flag(self, tmp_path, key):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {self.VALUES[key]}\n")
        from_file = merge_settings(build_parser().parse_args(["--config", str(cfg)]))
        flag = "--" + key.replace("_", "-")
        argv = [f"--no-{key}"] if key in self.BOOLEAN else [flag, self.VALUES[key]]
        from_flag = merge_settings(build_parser().parse_args(argv))
        assert key in from_file
        assert from_file == from_flag

    def test_run_defaults_name_only_config_keys(self):
        assert set(merge_settings(build_parser().parse_args([]))) <= set(self.VALUES)

    @pytest.mark.parametrize("n", [1000, 2 ** 17])
    @pytest.mark.parametrize("L", [None, 3, 8])
    def test_cli_defaults_are_the_library_defaults(self, n, L):
        argv = ["--n", str(n)] + (["--L", str(L)] if L is not None else [])
        params = build_params(merge_settings(build_parser().parse_args(argv)))
        expected = default_params(n) if L is None else default_params(n, max_edge_size=L)
        for field in dataclasses.fields(expected):
            got, want = getattr(params, field.name), getattr(expected, field.name)
            if field.name == "w":
                assert got.max_edge_size == want.max_edge_size
                np.testing.assert_array_equal(got.values, want.values)
            else:
                assert got == want, field.name


class TestBadInput:
    """Bad values and malformed files end in a typed error, never a traceback."""

    FILES = {
        "binary.cfg": b"n = 1000\n\xff\n",
        "binary.w": b"1 1 1.0\n\xff\n",
        "repeat.w": b"1 1 1.0\n2 2 0.3\n2 2 1.0\n",
        "no-equals.cfg": b"n = 1000\nxi\n",
        "maybe.cfg": b"n = 1000\nsimple = maybe\n",
        "two-fields.w": b"1 1 1.0\n2 2\n",
        "not-a-count.w": b"1 1 1.0\n2 x 1.0\n",
    }
    CASES = {
        "zeta-nan": (["--n", "1000", "--zeta", "nan"], 2, "zeta"),
        "zeta-inf": (["--n", "1000", "--zeta", "inf"], 2, "zeta"),
        "zeta-minus-inf": (["--n", "1000", "--zeta=-inf"], 2, "zeta"),
        "zeta-huge": (["--n", "1000", "--zeta", "400"], 2, "zeta"),
        "tau-nan": (["--n", "1000", "--tau", "nan"], 2, "tau"),
        "tau-inf": (["--n", "1000", "--tau", "inf"], 2, "tau"),
        "tau-huge": (["--n", "1000", "--tau", "1e308"], 2, "tau"),
        "L-zero": (["--n", "1000", "--L", "0"], 2, "L"),
        "L-negative": (["--n", "1000", "--L", "-3"], 2, "L"),
        "no-replicates": (["--n", "1000", "--replicates", "0"], 2, "replicates"),
        # refused before any n-sized array is made
        "n-huge": (["--n", "9" * 401], 2, "error[validation]: n must be"),
        "n-past-int32": (["--n", "3000000000", "--D", "5", "--S", "60"], 2, "error[validation]: n must be"),
        "binary-config": (["--config", "{dir}/binary.cfg"], 1, "binary.cfg"),
        "binary-weights": (["--n", "1000", "--w-model", "{dir}/binary.w"], 1, "binary.w"),
        "repeated-weight": (["--n", "1000", "--w-model", "{dir}/repeat.w"], 1, "repeat.w:3"),
        "config-line-without-equals": (["--config", "{dir}/no-equals.cfg"], 1,
                                       "no-equals.cfg:2: expected key=value"),
        "config-bool-not-a-boolean": (["--config", "{dir}/maybe.cfg"], 1,
                                      "maybe.cfg:2: bad value for simple: not a boolean"),
        "weight-line-of-two-fields": (["--n", "1000", "--w-model", "{dir}/two-fields.w"], 1,
                                      "two-fields.w:2: expected 'size count weight'"),
        "weight-line-not-numbers": (["--n", "1000", "--w-model", "{dir}/not-a-count.w"], 1,
                                    "not-a-count.w:2: bad numbers"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_input_is_a_typed_error(self, tmp_path, capsys, case):
        for name, body in self.FILES.items():
            (tmp_path / name).write_bytes(body)
        argv, code, named = self.CASES[case]
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == code
        err = capsys.readouterr().err
        assert err.startswith("hgbench: error[")
        assert named in err


class TestOutputs:
    def test_minimal_run_writes_three_files(self, tmp_path):
        out = tmp_path / "mini"
        assert run_cli("--n", "1000", "--out", str(out)) == 0
        assert (tmp_path / "mini.edges").exists()
        assert (tmp_path / "mini.assign").exists()
        assert (tmp_path / "mini.report.txt").exists()
        assert len(list(tmp_path.iterdir())) == 3

    def test_edges_file_round_trip(self, tmp_path):
        out = tmp_path / "rt"
        assert run_cli("--n", "700", "--seed", "4", "--out", str(out)) == 0
        edges = read_edges_file(f"{out}.edges")
        params = default_params(700, seed=4)
        res = generate(params)
        assert edges == res.hypergraph.edge_lists()

    def test_edges_file_round_trip_with_repeated_slots(self, tmp_path):
        out = tmp_path / "multi"
        argv = ["--n", "700", "--seed", "4", "--w-model", "strict", "--no-simple"]
        assert run_cli(*argv, "--out", str(out)) == 0
        params = build_params(merge_settings(build_parser().parse_args(argv)))
        edges = generate(params).hypergraph.edge_lists()
        assert any(len(set(e)) < len(e) for e in edges)
        assert read_edges_file(f"{out}.edges") == edges

    def test_empty_edge_is_refused_before_writing(self, tmp_path):
        hg = Hypergraph.from_edge_lists(4, [[0, 1], [], [2, 3], []])
        path = tmp_path / "empty.edges"
        with pytest.raises(ValueError, match=r"^edge 1 is empty"):
            write_edges_file(str(path), hg, seed=0)
        assert not path.exists()

    @pytest.mark.parametrize("slot, node", [(1, -1), (2, 7)])
    def test_out_of_range_id_is_refused_before_writing(self, tmp_path, slot, node):
        # an id edited in place after the constructor's check; np.take would wrap -1
        hg = Hypergraph.from_edge_lists(4, [[0, 1], [2, 3], [1, 2]])
        hg.members = hg.members.copy()
        hg.members[slot] = node
        path = tmp_path / "bad.edges"
        with pytest.raises(ValueError, match=rf"^edge {slot // 2} holds node id {node}, outside \[0, 4\)"):
            write_edges_file(str(path), hg, seed=0)
        assert not path.exists()

    @pytest.mark.parametrize("label", [5, -3, 2])
    def test_out_of_range_label_is_refused_before_writing(self, tmp_path, label):
        assignment = CommunityAssignment(np.array([2, 2], dtype=np.int32),
                                         np.array([0, 1, label, 0], dtype=np.int32))
        path = tmp_path / "bad.assign"
        with pytest.raises(ValueError, match=rf"^node 2 has community {label}, outside \[0, 2\)"):
            write_assignment_file(str(path), assignment, seed=0)
        assert not path.exists()

    def test_edges_are_one_based_sorted(self, tmp_path):
        out = tmp_path / "fmt"
        assert run_cli("--n", "500", "--out", str(out)) == 0
        for line in read(f"{out}.edges").splitlines():
            if line.startswith("#"):
                continue
            vals = [int(t) for t in line.split(" ")]
            assert min(vals) >= 1 and max(vals) <= 500
            assert vals == sorted(vals)

    def test_assignment_round_trip(self, tmp_path):
        out = tmp_path / "asg"
        assert run_cli("--n", "700", "--seed", "4", "--out", str(out)) == 0
        labels = read_assignment_file(f"{out}.assign")
        res = generate(default_params(700, seed=4))
        assert (labels == res.assignment.member_of).all()

    def test_report_has_expected_sections(self, tmp_path):
        out = tmp_path / "rep"
        assert run_cli("--n", "800", "--out", str(out)) == 0
        text = read(f"{out}.report.txt")
        for section in ("[run]", "[params]", "[degree_ccdf]",
                        "[community_size_ccdf]", "[edge_sizes]",
                        "[modularity]", "[type_histogram]"):
            assert section in text
        assert "two_section " in text
        assert "hypergraph_majority " in text

    def test_report_toggles_drop_sections(self, tmp_path):
        out = tmp_path / "min"
        assert run_cli("--n", "800", "--no-stats", "--no-modularity",
                       "--no-histograms", "--out", str(out)) == 0
        text = read(f"{out}.report.txt")
        assert "[run]" in text and "[params]" in text
        for section in ("[degree_ccdf]", "[modularity]", "[type_histogram]"):
            assert section not in text

    def test_byte_identical_across_runs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli("--n", "900", "--seed", "13", "--out", str(out)) == 0
        for ext in (".edges", ".assign", ".report.txt"):
            assert read(f"{a}{ext}") == read(f"{b}{ext}")

    def test_different_seed_changes_edges(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli("--n", "900", "--seed", "13", "--out", str(a)) == 0
        assert run_cli("--n", "900", "--seed", "14", "--out", str(b)) == 0
        assert read(f"{a}.edges") != read(f"{b}.edges")

    def test_env_var_supplies_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HGBENCH_OUT_DIR", str(tmp_path / "outs"))
        assert run_cli("--n", "400") == 0
        assert (tmp_path / "outs" / "hgbench.edges").exists()

    def test_explicit_directory_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HGBENCH_OUT_DIR", str(tmp_path / "ignored"))
        out = tmp_path / "direct" / "run"
        assert run_cli("--n", "400", "--out", str(out)) == 0
        assert (tmp_path / "direct" / "run.edges").exists()
        assert not (tmp_path / "ignored").exists()


def test_exhausted_repair_budget_exits_four(tmp_path, capsys, monkeypatch):
    # with no repair draws every defect is left; the files are still written
    monkeypatch.setattr(rewiring, "BUDGET_PER_BAD", 0)
    out = tmp_path / "x"
    assert run_cli("--n", "1000", "--seed", "1", "--out", str(out)) == 4
    assert "hgbench: warning[rewiring]: replicate 0: rewiring budget exhausted" in capsys.readouterr().err
    for suffix in (".edges", ".assign", ".report.txt"):
        assert (tmp_path / f"x{suffix}").exists()
    report = read(f"{out}.report.txt").splitlines()
    assert "warnings 1" in report
    assert "# warning: rewiring budget exhausted with 122 defective edges left" in report


def test_out_of_memory_is_one_line_and_exit_three(tmp_path):
    # --L 20000 asks for a 20001 x 20001 weight triangle, 5.96 GiB of indices;
    # under a 2 GB address space numpy raises MemoryError.  The limit is set
    # in the child only.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "hgbench.cli", "--n", "20000", "--L", "20000",
                           "--out", str(tmp_path / "x")], env=env, capture_output=True,
                          text=True, preexec_fn=limit)
    assert done.returncode == 3
    assert done.stderr.startswith("hgbench: error[generation]: not enough memory: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not list(tmp_path.iterdir())


def test_volume_past_int32_offsets_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(generation, "sample_degrees", lambda params, rng: np.full(params.n, 2**28, np.int32))
    assert run_cli("--n", "1000", "--out", str(tmp_path / "x")) == 3
    assert capsys.readouterr().err.startswith(
        "hgbench: error[generation]: the sampled degrees sum to 268435456000 member slots")


class TestReportScores:
    @pytest.mark.parametrize("edges, expected", [
        ([], ["two_section undefined", "hypergraph_majority undefined",
              "hypergraph_linear undefined", "hypergraph_strict undefined"]),
        # no edge has two distinct members, but the hypergraph scores exist
        ([[0, 0], [1], [2, 2, 2]], ["two_section undefined", "hypergraph_majority 0.1666666667",
                                    "hypergraph_linear 0.25", "hypergraph_strict 0.4166666667"]),
    ])
    def test_scores_without_a_value_read_undefined(self, tmp_path, edges, expected):
        settings = merge_settings(build_parser().parse_args(["--n", "1000", "--no-stats"]))
        zeros = np.zeros(4, dtype=np.int64)
        result = GenerationResult(
            Hypergraph.from_edge_lists(4, edges),
            CommunityAssignment(np.array([2, 2]), np.array([0, 0, 1, 1], dtype=np.int32)),
            DegreeProfiles(zeros, zeros, zeros, zeros, zeros))
        path = tmp_path / "r.report.txt"
        write_report_file(str(path), result, build_params(settings), settings)
        text = read(path).split("[modularity]\n")[1].splitlines()
        assert text[:4] == expected


def edges_reference(hg, seed):
    """An edges file formatted line by line, with no word table."""
    lines = [f"# hgbench {__version__} edges", f"# nodes={hg.n} edges={hg.edge_count} seed={seed}"]
    lines += [" ".join(str(v + 1) for v in hg.members[a:b].tolist())
              for a, b in zip(hg.offsets[:-1].tolist(), hg.offsets[1:].tolist())]
    return ("\n".join(lines) + "\n").encode()


def assignment_reference(assignment, seed):
    """An assignment file formatted line by line, with no word table."""
    labels = assignment.member_of.tolist()
    lines = [f"# hgbench {__version__} assignments",
             f"# nodes={len(labels)} communities={len(assignment.sizes)} seed={seed}"]
    lines += [f"{v + 1} {c + 1}" for v, c in enumerate(labels)]
    return ("\n".join(lines) + "\n").encode()


@st.composite
def writer_inputs(draw):
    """A hypergraph with size-1 edges, repeated slots and no edges among its
    cases, and an assignment of its n >= 1 nodes."""
    n = draw(st.integers(min_value=1, max_value=30))
    edges = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=6), max_size=12))
    k = draw(st.integers(min_value=1, max_value=n))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return (Hypergraph.from_edge_lists(n, edges),
            CommunityAssignment(np.full(k, 1, dtype=np.int32), np.array(labels, dtype=np.int32)))


class TestWordTableWriters:
    """The writers format each id once, into a table of words, and gather
    them a chunk of slots at a time; the files match a per-line formatter."""

    @given(case=writer_inputs(), chunk=st.integers(min_value=2, max_value=7))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_a_per_line_formatter(self, tmp_path, case, chunk):
        hg, assignment = case
        with mock.patch.object(cli, "_CHUNK", chunk):
            write_edges_file(str(tmp_path / "h.edges"), hg, seed=3)
            write_assignment_file(str(tmp_path / "h.assign"), assignment, seed=3)
        assert (tmp_path / "h.edges").read_bytes() == edges_reference(hg, 3)
        assert (tmp_path / "h.assign").read_bytes() == assignment_reference(assignment, 3)

    @pytest.mark.parametrize("top, width", [(9_999_999, 8), (10_000_000, 16)])
    def test_word_width_follows_the_largest_id(self, tmp_path, top, width):
        words = cli._id_words(top)
        assert words.itemsize == width
        # the file below has few slots, so it is written from distinct-id words
        ids = [0, 8, 9, 10, 98, 99, 999, 9_999, 99_999, 999_999, top - 2, top - 1]
        text = words[ids].view(np.uint8).reshape(len(ids), width)
        assert [row.tobytes().lstrip(b"\0") for row in text] == [b"%d " % (v + 1) for v in ids]
        edges = [[0], [8, 9, 10], [98, 99, 999, 9_999], [99_999, 999_999, top - 2, top - 1], [top - 1]]
        hg = Hypergraph.from_edge_lists(top + 5, edges)
        write_edges_file(str(tmp_path / "w.edges"), hg, seed=1)
        assert (tmp_path / "w.edges").read_bytes() == edges_reference(hg, 1)

    @pytest.mark.parametrize("chunk", [2, 3, 4, 5])
    def test_edges_that_span_chunks(self, tmp_path, chunk):
        # slots 0-2 | 3-5 | 6 | 7-10: chunk bounds fall inside edges and at their ends
        hg = Hypergraph.from_edge_lists(12, [[0, 1, 11], [2, 3, 4], [10], [5, 6, 7, 9]])
        with mock.patch.object(cli, "_CHUNK", chunk):
            write_edges_file(str(tmp_path / "c.edges"), hg, seed=2)
        assert read(tmp_path / "c.edges").splitlines()[2:] == ["1 2 12", "3 4 5", "11", "6 7 8 10"]

    @pytest.mark.parametrize("chunk", [2, 4, 1 << 16])
    def test_assignment_pairs(self, tmp_path, chunk):
        assignment = CommunityAssignment(np.array([5, 3, 2], dtype=np.int32),
                                         np.array([1, 0, 0, 2, 0, 1, 0, 0, 1, 2], dtype=np.int32))
        with mock.patch.object(cli, "_CHUNK", chunk):
            write_assignment_file(str(tmp_path / "p.assign"), assignment, seed=9)
        assert read(tmp_path / "p.assign") == (
            f"# hgbench {__version__} assignments\n# nodes=10 communities=3 seed=9\n"
            "1 2\n2 1\n3 1\n4 3\n5 1\n6 2\n7 1\n8 1\n9 2\n10 3\n")

    def test_sparse_ids_get_words_of_their_own(self, tmp_path):
        # two slots and a largest id near 3 * 10**7: a table of every id below
        # the largest took 0.6 s and a 458 MiB traced peak for this 65-byte file
        n = 3 * 10**7
        hg = Hypergraph.from_edge_lists(n, [[0, n - 1]])
        gc.collect()
        tracemalloc.start()
        try:
            write_edges_file(str(tmp_path / "s.edges"), hg, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "s.edges").read_bytes() == (
            f"# hgbench {__version__} edges\n# nodes=30000000 edges=1 seed=5\n1 30000000\n").encode()
        assert peak <= 1 << 20

    def test_edges_writer_peak_is_the_table_and_one_chunk(self, tmp_path):
        n = 1 << 17
        members = np.random.default_rng(5).integers(0, n, 12 * n, dtype=np.int32)
        hg = Hypergraph(n, np.arange(0, 12 * n + 1, 3), members, np.full(4 * n, -1))
        # the 8-byte word table, and per chunk the gathered words, their
        # intp indices, their bytes and the text left once NULs are dropped
        bound = 8 * n + 4 * 8 * cli._CHUNK

        def peak():
            gc.collect()
            tracemalloc.start()
            try:
                write_edges_file(str(tmp_path / "m.edges"), hg, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() <= bound
        with mock.patch.object(cli, "_CHUNK", hg.volume):   # the whole output at once
            assert peak() > bound


class TestGoldenDigests:
    """Pinned sha256 of every output file; a change to any of them is a change
    of the program's output for a given seed and must bump the version."""

    CASES = {
        "majority-simple": (
            ["--n", "2000", "--seed", "7", "--w-model", "majority"],
            {".edges": "70af111f79e4b674c25fc8f03b5dea7ee263c728872a59e20a00f23600d866e9",
             ".assign": "71c8221fcd4e00f17b0e150b774e8efe80d15512dcb1fd755acb844949a3ec2b",
             ".report.txt": "0fa72cc1f22bf29a6756a314c2ce75a8ca47f224e1640983faaa430803996646"}),
        "strict-multi": (
            ["--n", "2000", "--seed", "7", "--w-model", "strict", "--no-simple"],
            {".edges": "239263cc106820fd8ccdc95fd6d7a016994d250261338dcd11c5e7808d310c0d",
             ".assign": "71c8221fcd4e00f17b0e150b774e8efe80d15512dcb1fd755acb844949a3ec2b",
             ".report.txt": "5c810960dec02990514ed7fc9894e7d846523beeba600a6f309b295593418eaa"}),
        # q_1 > 0: singleton edges, and the background leftover becomes one
        # more singleton instead of a bumped size-2 edge
        "singletons-multi": (
            ["--n", "2000", "--seed", "2", "--q", "0.2,0.2,0.2,0.2,0.2", "--no-simple"],
            {".edges": "91fe89a361938f2b5968591388a2a6ac708e8d5f6e3b4c36db4c761e3af901b8",
             ".assign": "1002bca7b30af91781ac444e2d5cb5ef2406b4457b4fbab90cb26492980c3786",
             ".report.txt": "fe5603056807ef6574283189088ec5b5ef013ff76f5e603bd4045979f1ed61f2"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_match_pinned_digests(self, tmp_path, case):
        argv, digests = self.CASES[case]
        out = tmp_path / case
        assert run_cli(*argv, "--out", str(out)) == 0
        for ext, digest in digests.items():
            with open(f"{out}{ext}", "rb") as handle:
                assert hashlib.sha256(handle.read()).hexdigest() == digest, ext


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    import hgbench

    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == hgbench.__version__


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = ("import sys, hgbench, hgbench.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_simple_strict_run_loads_no_numpy_ma(tmp_path):
    # numpy's set routines (unique, union1d, setdiff1d) import numpy.ma, about
    # 15 ms per process; the probe counts the repair's scoring calls, so the
    # round loop is known to have run
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = ("import sys; from hgbench import cli, rewiring; calls = []; "
             "score = rewiring.indisposition; "
             "rewiring.indisposition = lambda *a: calls.append(1) or score(*a); "
             "code = cli.main(['--n', '2000', '--seed', '1', '--w-model', 'strict', "
             f"'--out', {str(tmp_path / 'ma')!r}]); "
             "print(code, len(calls) > 0, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split()[-3:] == ["0", "True", "False"]


def test_pyproject_runtime_needs_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in dependencies] == ["numpy"]


class TestAssignmentReader:
    HEADER = "# hgbench 0.2.0 assignments\n# nodes=4 communities=2 seed=0\n"

    def write(self, tmp_path, body, header=HEADER):
        path = tmp_path / "x.assign"
        path.write_text(header + body, encoding="utf-8")
        return str(path)

    def test_reads_a_valid_file(self, tmp_path):
        body = "1 2\n3 1  # inline comment\n\n2 2\n4 1\n"
        for newline in ("\n", "\r\n", "\r"):
            path = self.write(tmp_path, body.replace("\n", newline),
                              header=self.HEADER.replace("\n", newline))
            assert read_assignment_file(path).tolist() == [1, 1, 0, 0]

    def test_missing_node(self, tmp_path):
        path = self.write(tmp_path, "1 1\n2 1\n4 2\n")
        with pytest.raises(ValueError, match=r"x\.assign:2: node 3 has no assignment"):
            read_assignment_file(path)

    def test_duplicate_node(self, tmp_path):
        path = self.write(tmp_path, "1 1\n2 1\n3 2\n2 2\n4 2\n")
        with pytest.raises(ValueError, match=r"x\.assign:6: node 2 is assigned twice"):
            read_assignment_file(path)

    def test_out_of_range_node(self, tmp_path):
        path = self.write(tmp_path, "1 1\n2 1\n3 2\n5 2\n")
        with pytest.raises(ValueError, match=r"x\.assign:6: node must be in 1\.\.4"):
            read_assignment_file(path)

    def test_non_positive_ids(self, tmp_path):
        for line, bad in (("0 1", "0 1"), ("4 0", "4 0"), ("-3 2", "-3 2")):
            path = self.write(tmp_path, f"1 1\n2 1\n3 2\n{line}\n")
            with pytest.raises(ValueError, match=rf"x\.assign:6: .*got {bad}$"):
                read_assignment_file(path)

    def test_line_without_two_fields(self, tmp_path):
        for line in ("4", "4 2 9"):
            path = self.write(tmp_path, f"1 1\n2 1\n{line}\n3 2\n")
            with pytest.raises(ValueError, match=r"x\.assign:5: expected 'node community'"):
                read_assignment_file(path)

    def test_non_integer_field(self, tmp_path):
        path = self.write(tmp_path, "1 1\n2 x\n3 2\n4 1\n")
        with pytest.raises(ValueError, match=r"x\.assign:4: bad number"):
            read_assignment_file(path)

    def test_byte_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "x.assign"
        path.write_bytes(self.HEADER.encode() + b"1 1\n2 \xff\n3 2\n4 1\n")
        with pytest.raises(ValueError, match=r"x\.assign:4: byte 0xff is not UTF-8"):
            read_assignment_file(str(path))

    def test_scanner_faults_outrank_later_checks(self, tmp_path):
        # a line with three fields comes before a bad byte, which wins
        path = self.write(tmp_path, "1 1 1\n2 x\n3 2\n4 1\n")
        with pytest.raises(ValueError, match=r"x\.assign:4: bad number, got 2 x$"):
            read_assignment_file(path)

    def test_without_header_the_line_count_is_n(self, tmp_path):
        assert read_assignment_file(self.write(tmp_path, "2 1\n1 3\n", header="")).tolist() == [2, 0]
        path = self.write(tmp_path, "1 1\n3 1\n", header="")
        with pytest.raises(ValueError, match=r"x\.assign:2: node must be in 1\.\.2"):
            read_assignment_file(path)


class TestEdgesReader:
    HEADER = "# hgbench 0.2.0 edges\n# nodes=5 edges=3 seed=0\n"

    def write(self, tmp_path, body, header=HEADER, newline="\n"):
        path = tmp_path / "x.edges"
        path.write_text((header + body).replace("\n", newline), encoding="utf-8")
        return str(path)

    def test_reads_a_valid_file(self, tmp_path):
        body = "3 1 2  # trailing comment\n\n5 4 5\n  2 # another\n# a comment line\n"
        for newline in ("\n", "\r\n", "\r"):
            path = self.write(tmp_path, body, newline=newline)
            assert read_edges_file(path) == [[2, 0, 1], [4, 3, 4], [1]]

    def test_without_header_the_largest_id_is_n(self, tmp_path):
        assert read_edges_file(self.write(tmp_path, "7 2\n1\n", header="")) == [[6, 1], [0]]
        assert read_edges_file(self.write(tmp_path, "\n# nothing\n", header="")) == []

    @pytest.mark.parametrize("line", ["2 x", "2 -3", "2,3", "2 3.0", "2 \u00e9"])
    def test_non_digit_character(self, tmp_path, line):
        path = self.write(tmp_path, f"1 2\n{line}\n3\n")
        with pytest.raises(ValueError, match=r"x\.edges:4: expected node ids, got"):
            read_edges_file(path)

    def test_byte_that_is_not_utf8(self, tmp_path):
        # comments are checked too
        path = tmp_path / "x.edges"
        path.write_bytes(self.HEADER.encode() + b"1 2\n3 # \xff\n4 5\n")
        with pytest.raises(ValueError, match=r"x\.edges:4: byte 0xff is not UTF-8"):
            read_edges_file(str(path))

    def test_token_longer_than_n(self, tmp_path):
        path = self.write(tmp_path, "1 2\n3\n4 05\n")
        with pytest.raises(ValueError, match=r"x\.edges:5: node id 05 has more than 1 digits"):
            read_edges_file(path)
        # without a header the cap is what int64 holds
        path = self.write(tmp_path, "1\n2 123456789012345678901234567890\n", header="")
        with pytest.raises(ValueError, match=r"x\.edges:2: .* has more than 18 digits"):
            read_edges_file(path)

    def test_header_value_longer_than_18_digits(self, tmp_path):
        # past 4300 digits Python's int() refuses the text with a bare ValueError
        path = self.write(tmp_path, "1 2\n", header="# hgbench\n# nodes=" + "9" * 5000 + "\n")
        with pytest.raises(ValueError, match=r"x\.edges:2: header nodes= has more than 18 digits"):
            read_edges_file(path)

    @pytest.mark.parametrize("line, bad", [("0 1", 0), ("1 6", 6)])
    def test_id_outside_one_to_n(self, tmp_path, line, bad):
        path = self.write(tmp_path, f"1 2\n3\n{line}\n")
        with pytest.raises(ValueError, match=rf"x\.edges:5: node id {bad} is outside 1\.\.5"):
            read_edges_file(path)

    @pytest.mark.parametrize("body, count", [("1 2\n3\n", 2), ("1\n2\n3\n\n4 5\n", 4)])
    def test_header_edge_count_differs(self, tmp_path, body, count):
        path = self.write(tmp_path, body)
        with pytest.raises(ValueError, match=rf"x\.edges:2: header says edges=3, "
                                             rf"but the file has {count} edge lines"):
            read_edges_file(path)

    @pytest.mark.parametrize("header, body, edges", [
        ("", "1 2\n3 4\n# copied from a run with nodes=3\n", [[0, 1], [2, 3]]),
        ("# hgbench\n# nodes=5\n\n", "1 2\n3\n# edges=7\n", [[0, 1], [2]]),
    ], ids=["nodes", "edges"])
    def test_keys_after_the_header_are_not_read(self, tmp_path, header, body, edges):
        assert read_edges_file(self.write(tmp_path, body, header=header)) == edges

    @pytest.mark.parametrize("header, body, fault", [
        ("", b"1 x\n2\n3 \xff\n", r"x\.edges:3: byte 0xff is not UTF-8"),
        ("# nodes=" + "9" * 19 + "\n", b"1 2\n3 \xff\n", r"x\.edges:3: byte 0xff is not UTF-8"),
        (HEADER, b"1 22\n2 x\n3\n", r"x\.edges:4: expected node ids, got 2 x$"),
        (HEADER, b"1 6\n2 22\n3\n", r"x\.edges:4: node id 22 has more than 1 digits"),
        (HEADER, b"1 6\n2\n", r"x\.edges:3: node id 6 is outside 1\.\.5"),
        ("", b"1 2\n0\n3 8\n", r"x\.edges:2: node id 0 is outside 1\.\.2147483647"),
    ], ids=["utf8-over-byte", "utf8-over-header", "byte-over-width", "width-over-range",
            "range-over-count", "range-names-the-largest-id"])
    def test_fault_of_highest_rank_wins(self, tmp_path, header, body, fault):
        # the lower-ranked fault comes first in the file: not UTF-8, then a
        # bad byte, a too-wide id, an id out of range, a wrong edges=
        path = tmp_path / "x.edges"
        path.write_bytes(header.encode() + body)
        with pytest.raises(ValueError, match=fault):
            read_edges_file(str(path))

    def test_every_byte_is_a_digit_whitespace_or_refused(self, tmp_path):
        # outside comments a byte is a digit, whitespace (space \t \n \v \f \r)
        # or a fault; a byte above 0x7f alone is not UTF-8
        path = tmp_path / "x.edges"
        for byte in range(256):
            char = bytes([byte])
            path.write_bytes(b"1" + char + b"2\n")
            if char.isdigit():
                want = [[int(b"1" + char + b"2") - 1]]
            elif char in b" \t\v\f":
                want = [[0, 1]]
            elif char in b"\n\r":
                want = [[0], [1]]
            elif char == b"#":   # starts a comment
                want = [[0]]
            else:
                fault = f"byte {byte:#x} is not UTF-8" if byte > 0x7F else "expected node ids, got"
                with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: {fault}"):
                    read_edges_file(str(path))
                continue
            assert read_edges_file(str(path)) == want, byte

    def test_collector_state_is_restored(self, tmp_path):
        good = self.write(tmp_path, "1 2\n3\n4 5\n")
        bad = str(tmp_path / "bad.edges")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write(self.HEADER + "1 2\n3 9\n4\n")
        was = gc.isenabled()
        try:
            for enabled in (True, False):
                if enabled:
                    gc.enable()
                else:
                    gc.disable()
                assert read_edges_file(good) == [[0, 1], [2], [3, 4]]
                assert gc.isenabled() is enabled
                with pytest.raises(ValueError):
                    read_edges_file(bad)
                assert gc.isenabled() is enabled
        finally:
            if was:
                gc.enable()


# pieces of reader input: ids, separators, line breaks, comments, headers, junk
FRAGMENTS = [b"0", b"1", b"2", b"3", b"12", b"007", b"1234567890123456789012", b" ", b"\t",
             b"\n", b"\r", b"\r\n", b"#", b"# nodes=", b"# edges=", b"-", b"x", b"E", b"\xff"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(b"".join))
def test_readers_return_or_name_a_line(tmp_path, data):
    """Any input either reads or fails with a ValueError naming path:line,
    with the line inside the file."""
    path = tmp_path / "fuzz.data"
    path.write_bytes(data)
    for reader in (read_edges_file, read_assignment_file):
        try:
            reader(str(path))
        except ValueError as exc:
            found = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
            assert found, str(exc)
            assert 1 <= int(found[1]) <= len(data.splitlines())


@pytest.fixture(params=[1, 2, 7, 64])
def small_blocks(request, monkeypatch):
    """Read in blocks of a few bytes, so lines, CR LF pairs and the header
    span block boundaries."""
    monkeypatch.setattr(cli, "_BLOCK", request.param)


@pytest.mark.usefixtures("small_blocks")
class TestAssignmentReaderInSmallBlocks(TestAssignmentReader):
    """Every assignment-reader test again, with blocks of a few bytes."""


@pytest.mark.usefixtures("small_blocks")
class TestEdgesReaderInSmallBlocks(TestEdgesReader):
    """Every edges-reader test again, with blocks of a few bytes."""


def outcome(reader, path):
    try:
        result = reader(path)
    except ValueError as exc:
        return str(exc)
    return list(result)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(b"".join))
def test_block_size_changes_no_outcome(tmp_path, data):
    """Each reader gives the same result, or the same message, for every
    block size."""
    path = tmp_path / "fuzz.data"
    path.write_bytes(data)
    for reader in (read_edges_file, read_assignment_file):
        whole = outcome(reader, str(path))
        for block in (1, 2, 7, 64):
            with mock.patch.object(cli, "_BLOCK", block):
                assert outcome(reader, str(path)) == whole, block


def test_reader_holds_a_few_blocks_beside_its_lists(tmp_path):
    # numpy reports its buffers to tracemalloc.  Past the lists it returns,
    # the reader holds about 14 bytes per byte of a 16 KiB block; with the
    # whole file's ids and line bounds it held 4.5 MB on this 1.9 MB file
    path = str(tmp_path / "x.edges")
    hg = generate(default_params(2**15, seed=1)).hypergraph
    write_edges_file(path, hg, 1)
    block = 1 << 14
    with mock.patch.object(cli, "_BLOCK", block):
        read_edges_file(path)   # numpy's one-time caches
        tracemalloc.start()
        try:
            edges = read_edges_file(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert edges == hg.edge_lists()
    assert peak - held <= 20 * block, (peak - held) / block


def test_reader_runs_no_collection(tmp_path):
    # the reader keeps ids in arrays and builds no Python list, so it
    # allocates too few objects for the collector to start a pass
    path = str(tmp_path / "x.edges")
    write_edges_file(path, generate(default_params(2**15, seed=1)).hypergraph, 1)
    passes = []
    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(lambda phase, info: passes.append(phase == "start"))
    try:
        read_edges_file(path)
        during = sum(passes)
    finally:
        gc.callbacks.pop()
        if not was:
            gc.disable()
    assert during == 0


def built(n, edges):
    """The arrays from_edge_lists builds, or the message of its refusal."""
    try:
        hg = Hypergraph.from_edge_lists(n, edges)
    except (OverflowError, ValueError) as exc:
        return str(exc)
    return [(a.dtype, a.tobytes()) for a in (hg.offsets, hg.members, hg.origins)]


def check_edge_lists(edges):
    """An EdgeLists builds the hypergraph its lists build, and reads as they do."""
    assert isinstance(edges, EdgeLists)
    lists = list(edges)
    assert type(lists) is list and all(type(edge) is list for edge in lists)
    assert built(1 << 20, edges) == built(1 << 20, lists)
    assert list(edges) == lists   # from_edge_lists sorts its own copy
    assert len(edges) == len(lists)
    assert [edges[i] for i in range(-len(lists), len(lists))] == lists + lists
    for i in (len(lists), -len(lists) - 1):
        with pytest.raises(IndexError):
            edges[i]
    for cut in (slice(None), slice(1, None), slice(-2, None), slice(None, None, -1), slice(1, -1, 2)):
        assert edges[cut] == lists[cut] and type(edges[cut]) is list
    assert list(edges) == lists
    assert edges == lists and lists == edges
    assert edges == tuple(lists) and not edges != lists
    if lists:
        assert edges != lists[:-1] and lists[:-1] != edges
        assert edges != lists[:-1] + [lists[-1] + [0]]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(b"".join))
def test_edge_lists_read_and_build_as_their_lists(tmp_path, data):
    path = tmp_path / "fuzz.data"
    path.write_bytes(data)
    for block in (1, 2, 7, 64, cli._BLOCK):
        with mock.patch.object(cli, "_BLOCK", block):
            try:
                edges = read_edges_file(str(path))
            except ValueError:
                continue
        check_edge_lists(edges)


@pytest.mark.parametrize("block", [1 << 14, cli._BLOCK])
def test_generated_edge_lists_read_and_build_as_their_lists(tmp_path, block):
    path = str(tmp_path / "x.edges")
    hg = generate(default_params(2**15, seed=1)).hypergraph
    write_edges_file(path, hg, 1)
    with mock.patch.object(cli, "_BLOCK", block):
        edges = read_edges_file(path)
    assert len(edges.blocks) > (1 if block < cli._BLOCK else 0)
    check_edge_lists(edges)
    assert np.array_equal(Hypergraph.from_edge_lists(hg.n, edges).members, hg.members)


@pytest.mark.usefixtures("small_blocks")
def test_id_past_int32_is_read_and_refused_by_from_edge_lists(tmp_path):
    # the reader bounds ids by the largest int32 id even without a header,
    # so its blocks are int32; a plain list with such an id fails in
    # from_edge_lists, never wrapped into int32
    path = tmp_path / "wide.edges"
    path.write_bytes(b"1 2\n3000000000\n")
    with pytest.raises(ValueError, match=r"wide\.edges:2: node id 3000000000 is outside 1\.\.2147483647$"):
        read_edges_file(str(path))
    with pytest.raises(OverflowError, match=r"^Python integer 2999999999 out of bounds for int32$"):
        Hypergraph.from_edge_lists(3000000000, [[0, 1], [2999999999]])


def test_edge_lists_hold_four_bytes_per_slot_and_edge(tmp_path, monkeypatch):
    # numpy reports its buffers to tracemalloc: the read keeps each block's
    # ids and line bounds as int32, and from_edge_lists needs little more
    # than the arrays it returns; neither builds a Python list
    path = str(tmp_path / "x.edges")
    hg = generate(default_params(2**15, seed=1)).hypergraph
    write_edges_file(path, hg, 1)
    read_edges_file(path)   # numpy's one-time caches
    Hypergraph.from_edge_lists(hg.n, read_edges_file(path))

    def refused(*args):
        raise AssertionError("a Python list was built")

    monkeypatch.setattr(structures, "member_lists", refused)
    tracemalloc.start()
    try:
        edges = read_edges_file(path)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        rebuilt = Hypergraph.from_edge_lists(hg.n, edges)
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 4 * hg.volume + 4 * hg.edge_count + (64 << 10), held / hg.volume
    assert peak - returned <= 4 * hg.volume + (64 << 10), (peak - returned) / hg.volume
    assert returned - start <= 12 * hg.edge_count + 4 * hg.volume + (64 << 10)   # the hypergraph's arrays
    assert np.array_equal(rebuilt.members, hg.members) and np.array_equal(rebuilt.offsets, hg.offsets)


def test_names_the_benchmark_looks_up_exist():
    """bench/worker.py and bench/tracer.py look these up by attribute name to
    wrap them in timing spans, so neither an import nor a linter sees the use
    (cli's re-export of the metrics is there for this alone).  Removing or
    renaming one breaks the benchmark while every other test still passes."""
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "worker.py").read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CLI_SPANS")
    names = ["read_edges_file", "read_assignment_file", "build_parser", "merge_settings",
             "build_params", "main", *(attr for attr, _ in spans)]
    looked_up = [(cli, name) for name in names] + [
        (Hypergraph, "from_edge_lists"), (rewiring, "rewire"), (rewiring, "indisposition")]
    for owner, name in looked_up:
        # the tracer patches the owner's own attribute, not an inherited one
        assert name in vars(owner) and callable(getattr(owner, name)), name


def test_pair_count_the_tracer_reads_is_the_pair_count():
    """bench/tracer.py reports ``len(result.pair_u)`` of every traced
    ``two_section`` call as ``metrics.two_section_pairs``.  ``pair_u`` is kept
    for that read alone, so it must give as many pairs as ``pairs()`` does."""
    hg = Hypergraph.from_edge_lists(5, [[0, 1, 2], [0, 1], [3, 3, 4], [2]])
    graph = two_section(hg)
    assert len(graph.pair_u) == len(graph.pairs()[0]) == 4


class TestReplicates:
    def test_replicate_files_and_summary(self, tmp_path):
        out = tmp_path / "rep"
        assert run_cli("--n", "600", "--replicates", "3", "--seed", "5",
                       "--out", str(out)) == 0
        for r in range(3):
            assert (tmp_path / f"rep_r{r}.edges").exists()
            assert (tmp_path / f"rep_r{r}.assign").exists()
            assert (tmp_path / f"rep_r{r}.report.txt").exists()
        summary = read(f"{out}.summary.txt")
        assert "[aggregate]" in summary
        assert "communities_mean" in summary
        assert "edges_std" in summary

    def test_replicates_use_consecutive_seeds(self, tmp_path):
        out = tmp_path / "seq"
        assert run_cli("--n", "600", "--replicates", "2", "--seed", "20",
                       "--out", str(out)) == 0
        solo = tmp_path / "solo"
        assert run_cli("--n", "600", "--seed", "21", "--out", str(solo)) == 0
        rep_body = [l for l in read(f"{out}_r1.edges").splitlines() if not l.startswith("#")]
        solo_body = [l for l in read(f"{solo}.edges").splitlines() if not l.startswith("#")]
        assert rep_body == solo_body

    def test_summary_aggregates_match_replicate_rows(self, tmp_path):
        out = tmp_path / "agg"
        assert run_cli("--n", "600", "--replicates", "4", "--seed", "3",
                       "--out", str(out)) == 0
        counts = []
        for r in range(4):
            res = generate(default_params(600, seed=3 + r))
            counts.append(res.hypergraph.edge_count)
        summary = read(f"{out}.summary.txt")
        mean_line = next(l for l in summary.splitlines() if l.startswith("edges_mean"))
        assert float(mean_line.split()[1]) == pytest.approx(np.mean(counts))
