"""Command-line behavior: exit codes, file formats, round trips, determinism."""
import hashlib
import os

import numpy as np
import pytest

from hgbench.cli import (
    build_params,
    build_parser,
    load_config_file,
    load_weight_file,
    main,
    merge_settings,
    read_assignment_file,
    read_edges_file,
    write_report_file,
)
from hgbench.config import build_weight_matrix, default_params
from hgbench.generation import generate
from hgbench.structures import CommunityAssignment, DegreeProfiles, GenerationResult, Hypergraph


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
        assert w.entry(2, 3) == 0.25
        assert w.entry(3, 3) == 0.75

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


class TestGoldenDigests:
    """Pinned sha256 of every output file; a change to any of them is a change
    of the program's output for a given seed and must bump the version."""

    CASES = {
        "majority-simple": (
            ["--n", "2000", "--seed", "7", "--w-model", "majority"],
            {".edges": "790276b540aea97c4b411877b3fad164235de8b7262dcf60123e4e47f7c86a90",
             ".assign": "ce156b76eeec1fe91fc6505ba747725b526906236c4edee3a03f607a63a18254",
             ".report.txt": "4f6b8cd5aa43450f35c88513570a781ebce51efd07a855afb8b436d8440dccf3"}),
        "strict-multi": (
            ["--n", "2000", "--seed", "7", "--w-model", "strict", "--no-simple"],
            {".edges": "808743023788256d9d83e84bb29e2122dc0d9e71617ca5d78aa159966fc292c2",
             ".assign": "ce156b76eeec1fe91fc6505ba747725b526906236c4edee3a03f607a63a18254",
             ".report.txt": "2a18cbe069f3216d8176f43a0c3f6cddbf783b42053b75471dac377a773cc9cc"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_match_pinned_digests(self, tmp_path, case):
        argv, digests = self.CASES[case]
        out = tmp_path / case
        assert run_cli(*argv, "--out", str(out)) == 0
        for ext, digest in digests.items():
            with open(f"{out}{ext}", "rb") as handle:
                assert hashlib.sha256(handle.read()).hexdigest() == digest, ext


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

    def test_without_header_the_line_count_is_n(self, tmp_path):
        assert read_assignment_file(self.write(tmp_path, "2 1\n1 3\n", header="")).tolist() == [2, 0]
        path = self.write(tmp_path, "1 1\n3 1\n", header="")
        with pytest.raises(ValueError, match=r"x\.assign:2: node must be in 1\.\.2"):
            read_assignment_file(path)


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
