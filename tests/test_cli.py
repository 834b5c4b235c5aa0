"""End-to-end CLI behavior: exit codes, report schema, byte stability."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdsopt.bench
from cdsopt.bench import CSV_COLUMNS, load_batch_spec, pool_width, summarize
from cdsopt.cli import main
from cdsopt.generators import KINDS
from cdsopt.graph import parse_instance, serialize_instance
from helpers import RATIO_CORPUS

P3_TEXT = "cds 3 2 1\n1 1 1\n0 1\n1 2\n"
# every cost is finite, but any two of them sum past the float range
OVERFLOW_TEXT = "cds 4 3 1\n1.7e308 1.7e308 1.7e308 1.7e308\n0 1\n1 2\n2 3\n"
OVERFLOW_ERROR = "error: a cost sum or ratio overflows the float range; no report written\n"
ENTRY_OVERFLOW_ERROR = "error: entry {entry}: a cost sum or ratio overflows the float range; no report written\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.cds"
    path.write_text(P3_TEXT)
    return str(path)


@pytest.fixture
def overflow_file(tmp_path):
    path = tmp_path / "overflow.cds"
    path.write_text(OVERFLOW_TEXT)
    return str(path)


@pytest.fixture
def fig1_file(tmp_path, capsys):
    path = tmp_path / "fig1_d3.cds"
    code = main(["gen", "fig1", "--d", "3", "--eps", "0.01", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestGen:
    def test_fig1_file_shape(self, fig1_file):
        with open(fig1_file) as fh:
            text = fh.read()
        assert "# designated-ds: 0 8 9 10" in text
        assert "cds 11 13 1" in text

    def test_random_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.cds", tmp_path / "b.cds"
        args = ["gen", "random", "--n", "12", "--p", "0.3", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_udg_has_coords_block(self, tmp_path, capsys):
        out = tmp_path / "u.cds"
        code = main(["gen", "udg", "--n", "30", "--side", "4", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        text = out.read_text()
        inst = parse_instance(text)
        assert inst.graph.coords is not None
        assert serialize_instance(inst) == text

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "random", "--n", "0", "--p", "0.5", "--seed", "1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("side", ["nan", "inf"])
    def test_udg_non_finite_side_exit_2(self, tmp_path, capsys, side):
        out = tmp_path / "u.cds"
        code, _, err = run_cli(capsys, "gen", "udg", "--n", "1", "--side", side, "--seed", "1", "--out", str(out))
        assert code == 2
        assert "side must be finite and positive" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind_args, message",
        [
            (["random", "--n", "1000000", "--p", "0.000003", "--seed", "1"], "more than 200,000,000"),
            (["random", "--n", "20000", "--p", "1", "--seed", "1"], "edges, more than 5,000,000"),
            (["udg", "--n", "100000", "--side", "1", "--seed", "1"], "edges, more than 5,000,000"),
            (["fig1", "--d", "1000000000000", "--eps", "0.01"], "4d + 1 edges, more than 5,000,000"),
        ],
        ids=["random", "random-edges", "udg", "fig1"],
    )
    def test_oversized_request_exit_2(self, tmp_path, capsys, kind_args, message):
        out = tmp_path / "g.cds"
        code, _, err = run_cli(capsys, "gen", *kind_args, "--out", str(out))
        assert code == 2
        assert message in err
        assert not out.exists()

    def test_oversized_batch_entry_exit_2(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"entries": [{"kind": "fig1", "d": 10**12, "eps": 0.01}]}))
        csv_path = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, "bench", str(batch), "--out-csv", str(csv_path))
        assert (code, out) == (2, "")
        assert err == "error: entry 0: d = 1000000000000 makes 4d + 1 edges, more than 5,000,000\n"
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "kind_args",
        [
            ["random", "--n", "5", "--p", "0.5", "--seed", "1"],
            ["udg", "--n", "5", "--side", "1", "--seed", "1"],
            ["fig1", "--d", "2", "--eps", "0.01"],
        ],
        ids=["random", "udg", "fig1"],
    )
    def test_zero_fold_exit_2(self, tmp_path, capsys, kind_args):
        out = tmp_path / "g.cds"
        code, _, err = run_cli(capsys, "gen", *kind_args, "--m", "0", "--out", str(out))
        assert code == 2
        assert "fold requirement m must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind_args",
        [
            ["random", "--n", "5", "--p", "0.5", "--seed", "1"],
            ["udg", "--n", "5", "--side", "1", "--seed", "1"],
        ],
        ids=["random", "udg"],
    )
    def test_infinite_cost_range_exit_2(self, tmp_path, capsys, kind_args):
        out = tmp_path / "g.cds"
        code, _, err = run_cli(capsys, "gen", *kind_args, "--cost-hi", "inf", "--out", str(out))
        assert code == 2
        assert "cost range must be finite and satisfy 0 < lo <= hi" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_gen_matches_batch_case(self, capsys, kind):
        # one value, none of them a default, for every parameter of every kind
        values = {"n": 9, "p": 0.4, "side": 2.5, "cost_lo": 0.5, "cost_hi": 3.0, "d": 3, "eps": 0.02}
        fields = {name: values[name] for name, _, _ in KINDS[kind].params}
        argv = ["gen", kind, "--m", "2"]
        entry = {"kind": kind, "m": 2, **fields}
        if KINDS[kind].seeded:
            argv += ["--seed", "4"]
            entry["seeds"] = {"start": 4, "count": 1}
        for name, value in fields.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        gen_text = "".join(line for line in out.splitlines(True) if not line.startswith("# designated-ds:"))
        (case,) = load_batch_spec(json.dumps({"entries": [entry]}))
        assert gen_text == serialize_instance(cdsopt.bench.build_case_instance(case))

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_fig1_bad_eps_exit_2(self, tmp_path, capsys, eps):
        out = tmp_path / "f.cds"
        code, _, err = run_cli(capsys, "gen", "fig1", "--d", "2", "--eps", eps, "--out", str(out))
        assert code == 2
        assert "eps must be finite and positive" in err
        assert not out.exists()


class TestSolve:
    def test_p3(self, p3_file, capsys):
        code, out, _ = run_cli(capsys, "solve", p3_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["dg"] == [1]
        assert doc["cost"]["total"] == 1.0
        assert doc["verify"]["is_cds"] is True
        assert "timings" in doc

    def test_fig1_given_ds_star(self, fig1_file, capsys):
        code, out, _ = run_cli(capsys, "solve", fig1_file, "--given-ds")
        assert code == 0
        doc = json.loads(out)
        assert doc["d1"] == [0, 8, 9, 10]
        assert doc["d2"] == [1, 5, 6, 7]
        assert math.isclose(doc["cost"]["d2"], 1.04, rel_tol=0, abs_tol=1e-12)

    def test_fig1_given_ds_pairwise(self, fig1_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--baseline", "pairwise", fig1_file, "--given-ds"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["d2"] == [2, 3, 4, 5, 6, 7]
        assert math.isclose(doc["cost"]["d2"], 3 * 1.01, rel_tol=0, abs_tol=1e-12)

    def test_given_ds_inline_and_file(self, p3_file, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "solve", p3_file, "--given-ds", "1")
        assert code == 0
        assert json.loads(out)["d1"] == [1]
        ds_file = tmp_path / "ds.txt"
        ds_file.write_text("0 1 2\n")
        code, out, _ = run_cli(capsys, "solve", p3_file, "--given-ds", str(ds_file))
        assert code == 0
        assert json.loads(out)["d1"] == [0, 1, 2]

    def test_given_ds_id_list_before_file_of_that_name(self, p3_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "1").write_text("0 1 2\n")
        code, out, _ = run_cli(capsys, "solve", p3_file, "--given-ds", "1")
        assert code == 0
        assert json.loads(out)["d1"] == [1]
        code, out, _ = run_cli(capsys, "solve", p3_file, "--given-ds", "./1")
        assert code == 0
        assert json.loads(out)["d1"] == [0, 1, 2]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cds 3 2 1\n1_0 1 1\n0 1\n1 2\n", "error: malformed cost '1_0'\n"),
            ("cds \uff13 2 1\n1 1 1\n0 1\n1 2\n", "error: malformed header: counts must be ASCII digits, found 'cds \uff13 2 1'\n"),
        ],
        ids=["underscore", "fullwidth-digit"],
    )
    def test_number_the_writer_never_writes_exit_2(self, tmp_path, capsys, text, message):
        # int and float take both: the first file read as costs 10, 1, 1 and the second as n = 3
        path = tmp_path / "odd.cds"
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "solve", str(path), "--no-timing") == (2, "", message)

    def test_given_ds_not_dominating_exit_2(self, p3_file, capsys):
        code, _, err = run_cli(capsys, "solve", p3_file, "--given-ds", "0")
        assert code == 2
        assert "not an m-fold dominating set" in err

    @pytest.mark.parametrize("node", ["99", "-1"])
    def test_given_ds_out_of_range_exit_2(self, p3_file, capsys, node):
        code, _, err = run_cli(capsys, "solve", p3_file, "--given-ds", node)
        assert code == 2
        assert "out of range" in err

    def test_given_ds_names_the_smallest_negative_id(self, p3_file, capsys):
        assert run_cli(capsys, "solve", p3_file, "--given-ds", "0 99 -1") == (2, "", "error: node id -1 out of range 0..2\n")

    def test_given_ds_empty_list_exit_2(self, p3_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        expected = (2, "", "error: empty node id list, and no file ',' exists\n")
        assert run_cli(capsys, "solve", p3_file, "--given-ds", ",") == expected

    def test_given_ds_missing_comment_exit_2(self, p3_file, capsys):
        code, _, err = run_cli(capsys, "solve", p3_file, "--given-ds")
        assert code == 2
        assert "designated-ds" in err

    def test_given_ds_malformed_id_exit_2(self, p3_file, capsys):
        code, _, err = run_cli(capsys, "solve", p3_file, "--given-ds", "0 x")
        assert code == 2
        assert "malformed node id 'x'" in err

    def test_given_ds_missing_file_exit_2(self, p3_file, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        code, _, err = run_cli(capsys, "solve", p3_file, "--given-ds", missing)
        assert code == 2
        assert err == f"error: malformed node id {missing!r}, and no file {missing!r} exists\n"

    def test_oracle_section(self, fig1_file, capsys):
        code, out, _ = run_cli(capsys, "solve", fig1_file, "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"] is not None
        assert math.isclose(doc["oracle"]["opt_cost"], 1.04, rel_tol=0, abs_tol=1e-12)
        assert doc["oracle"]["ratio_total"] >= 1.0
        assert doc["cost"]["total"] <= doc["oracle"]["bound_total"] * doc["oracle"]["opt_cost"]

    def test_no_timing_reports_are_byte_identical(self, fig1_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(["solve", fig1_file, "--no-timing", "--out", str(target)])
            capsys.readouterr()
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert "timings" not in json.loads(a.read_text())

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cds"
        bad.write_text("cds 3 2 1\n1 0 1\n0 1\n1 2\n")
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == 2
        assert "non-positive cost" in err

    def test_far_apart_coords_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "far.cds"
        bad.write_text("cds 2 1 1\n1 1\ncoords\n0 0\n1e200 0\n0 1\n")
        code, _, err = run_cli(capsys, "solve", str(bad))
        assert code == 2
        assert "unit-disk edge rule at pair (0, 1)" in err

    def test_cost_overflow_exit_2(self, overflow_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(capsys, "solve", overflow_file, "--no-timing") == (2, "", OVERFLOW_ERROR)
        assert run_cli(capsys, "solve", overflow_file, "--out", str(out)) == (2, "", OVERFLOW_ERROR)
        assert not out.exists()

    def test_oracle_too_deep_exit_2(self, tmp_path, capsys):
        n = 1200
        path = tmp_path / "path.cds"
        edges = "".join(f"{i} {i + 1}\n" for i in range(n - 1))
        path.write_text(f"cds {n} {n - 1} 1\n{' '.join(['1'] * n)}\n{edges}")
        code, _, err = run_cli(capsys, "solve", str(path), "--oracle", "--node-budget", "2000")
        assert code == 2
        assert "instance too deep for the oracle's recursive search: 1200 nodes" in err
        assert "Traceback" not in err


class TestVerifyCmd:
    def test_valid_solution_exit_0(self, p3_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("1\n")
        code, out, _ = run_cli(capsys, "verify", p3_file, str(sol))
        assert code == 0
        assert json.loads(out)["is_cds"] is True

    def test_invalid_solution_exit_1_with_reason(self, p3_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("0\n")
        code, out, _ = run_cli(capsys, "verify", p3_file, str(sol))
        assert code == 1
        doc = json.loads(out)
        assert [2, "node 2 has 0 < 1 dominators"] in doc["violations"]

    def test_whole_set_exit_0(self, p3_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("0 1 2\n")
        code, _, _ = run_cli(capsys, "verify", p3_file, str(sol))
        assert code == 0

    def test_out_of_range_exit_2(self, p3_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("5\n")
        code, _, err = run_cli(capsys, "verify", p3_file, str(sol))
        assert code == 2
        assert "out of range" in err

    def test_names_the_smallest_negative_id(self, p3_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("0 99 -1\n")
        assert run_cli(capsys, "verify", p3_file, str(sol)) == (2, "", "error: node id -1 out of range 0..2\n")

    def test_malformed_id_exit_2(self, p3_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("0 1.5 2\n")
        code, _, err = run_cli(capsys, "verify", p3_file, str(sol))
        assert code == 2
        assert "malformed node id '1.5'" in err

    def test_cost_overflow_exit_2(self, overflow_file, tmp_path, capsys):
        sol = tmp_path / "sol.txt"
        sol.write_text("1 2\n")
        assert run_cli(capsys, "verify", overflow_file, str(sol)) == (2, "", OVERFLOW_ERROR)


class TestBench:
    def test_small_batch(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "kind": "random",
                            "n": 8,
                            "p": 0.4,
                            "m": [1, 2],
                            "seeds": {"start": 0, "count": 3},
                            "cost_lo": 0.1,
                            "cost_hi": 10.0,
                            "oracle": True,
                        },
                        {
                            "kind": "udg",
                            "n": 9,
                            "side": 2.5,
                            "seeds": {"start": 0, "count": 2},
                            "oracle": True,
                        },
                    ]
                }
            )
        )
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        code = main(
            ["bench", str(batch), "--out-csv", str(csv_path), "--out-json", str(json_path)]
        )
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 8
        summary = json.loads(json_path.read_text())
        assert summary["rows"] == 8
        assert summary["violations"] == 0
        assert summary["max_ratio_total"] >= 1.0

    def test_ratio_overflow_exit_2(self, tmp_path, capsys):
        # the algorithm's and the oracle's costs both overflow, so the ratio is inf / inf
        batch = tmp_path / "batch.json"
        entry = {"kind": "random", "n": 6, "p": 0.5, "cost_lo": 1e308, "cost_hi": 1.7e308, "oracle": True}
        batch.write_text(json.dumps({"entries": [entry]}))
        csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["bench", str(batch), "--out-csv", str(csv_path), "--out-json", str(json_path)]
        expected = (2, "", ENTRY_OVERFLOW_ERROR.format(entry=0))
        assert run_cli(capsys, *argv) == expected
        assert not csv_path.exists() and not json_path.exists()
        assert run_cli(capsys, "bench", str(batch)) == expected

    def test_cost_overflow_without_oracle_exit_2(self, tmp_path, capsys):
        # no ratio is computed, so only the row's cost sums overflow
        batch = tmp_path / "batch.json"
        entry = {"kind": "random", "n": 6, "p": 0.5, "cost_lo": 1e308, "cost_hi": 1.7e308}
        batch.write_text(json.dumps({"entries": [entry]}))
        csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["bench", str(batch), "--out-csv", str(csv_path), "--out-json", str(json_path)]
        expected = (2, "", ENTRY_OVERFLOW_ERROR.format(entry=0))
        assert run_cli(capsys, *argv) == expected
        assert not csv_path.exists() and not json_path.exists()
        assert run_cli(capsys, "bench", str(batch)) == expected

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cost_overflow_names_its_entry_before_later_cases_run(self, tmp_path, capsys, monkeypatch, threads):
        # entry 1 overflows; the refusal names it, and with one worker no case after it runs
        entries = [
            {"kind": "random", "n": 6, "p": 0.5},
            {"kind": "random", "n": 6, "p": 0.5, "cost_lo": 1e308, "cost_hi": 1.7e308},
            {"kind": "random", "n": 6, "p": 0.5, "seeds": {"start": 1}},
        ]
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"entries": entries}))
        ran = []
        real = cdsopt.bench.run_case

        def counted(case):
            ran.append(case["entry"])
            return real(case)

        monkeypatch.setattr(cdsopt.bench, "run_case", counted)
        csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = ["bench", str(batch), "--out-csv", str(csv_path), "--out-json", str(json_path), "--threads", threads]
        assert run_cli(capsys, *argv) == (2, "", ENTRY_OVERFLOW_ERROR.format(entry=1))
        assert not csv_path.exists() and not json_path.exists()
        if threads == "1":
            assert ran == [0, 1]

    def _violation_run(self, tmp_path, capsys):
        """Bench one UDG case whose phase 2 adds nodes; returns (exit code, violation cell, summary)."""
        batch = tmp_path / "batch.json"
        entry = {"kind": "udg", "n": 10, "side": 2.2, "seeds": {"start": 1}, "oracle": True}
        batch.write_text(json.dumps({"entries": [entry]}))
        csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
        code = main(["bench", str(batch), "--out-csv", str(csv_path), "--out-json", str(json_path)])
        capsys.readouterr()
        with open(csv_path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["cost_d2"]) > 0
        return code, row["violation"], json.loads(json_path.read_text())

    def test_every_bound_check_flags_its_violation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cdsopt.bench, "proven_bounds", lambda inst: (0.1, 0.1, 0.1))
        code, violation, summary = self._violation_run(tmp_path, capsys)
        assert violation == "; ".join(
            [
                "total cost exceeds (H(delta+m)+2H(delta-1))*opt",
                "d1 cost exceeds H(delta+m)*opt_mds",
                "d2 cost exceeds 2H(delta-1)*opt",
                "d2 cost exceeds (11/3)*opt on UDG",
            ]
        )
        assert summary["violations"] == 1
        assert code == 1

    def test_failed_verification_is_a_violation(self, tmp_path, capsys, monkeypatch):
        real_solve = cdsopt.bench.solve

        def unverified(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            result.verify_report.is_cds = False
            return result

        monkeypatch.setattr(cdsopt.bench, "solve", unverified)
        code, violation, summary = self._violation_run(tmp_path, capsys)
        assert violation == "output failed verification"
        assert summary["violations"] == 1
        assert code == 1

    @staticmethod
    def _inflate_solve(monkeypatch, factor):
        """Make the bench's solve report each phase at ``factor`` times its cost."""
        real_solve = cdsopt.bench.solve

        def inflated(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            result.cost_d1 *= factor
            result.cost_d2 *= factor
            return result

        monkeypatch.setattr(cdsopt.bench, "solve", inflated)

    @pytest.mark.parametrize("cost_range", [(0.1, 10.0), (1e-12, 1e-11)])
    def test_bound_checks_flag_at_every_cost_scale(self, monkeypatch, cost_range):
        self._inflate_solve(monkeypatch, 20)
        entry = {"kind": "random", "n": 10, "p": 0.3, "m": 1, "seeds": {"start": 3}, "oracle": True}
        entry["cost_lo"], entry["cost_hi"] = cost_range
        (case,) = load_batch_spec(json.dumps({"entries": [entry]}))
        assert cdsopt.bench.run_case(case)["violation"] == "; ".join(
            [
                "total cost exceeds (H(delta+m)+2H(delta-1))*opt",
                "d1 cost exceeds H(delta+m)*opt_mds",
                "d2 cost exceeds 2H(delta-1)*opt",
            ]
        )

    @pytest.mark.parametrize("factor", [1, 20])
    def test_scaling_every_cost_keeps_every_violation(self, monkeypatch, factor):
        # a power of two scales every cost, sum and optimum exactly
        self._inflate_solve(monkeypatch, factor)
        cases = load_batch_spec(RATIO_CORPUS.read_text(encoding="utf-8"))
        real_build = cdsopt.bench.build_case_instance

        def violations():
            return [cdsopt.bench.run_case(case)["violation"] for case in cases]

        plain = violations()

        def scaled_build(case):
            inst = real_build(case)
            graph = dataclasses.replace(inst.graph, cost=tuple(c * 2**-40 for c in inst.graph.cost))
            return dataclasses.replace(inst, graph=graph)

        monkeypatch.setattr(cdsopt.bench, "build_case_instance", scaled_build)
        assert violations() == plain
        if factor == 1:
            assert set(plain) == {""}
        else:
            assert all(v.startswith("total cost exceeds") for v in plain)

    def test_summary_names_the_row_closest_to_its_bound(self, tmp_path, capsys):
        json_path = tmp_path / "summary.json"
        code = main(["bench", str(RATIO_CORPUS), "--out-csv", str(tmp_path / "rows.csv"), "--out-json", str(json_path)])
        capsys.readouterr()
        assert code == 0
        summary = json.loads(json_path.read_text())
        assert round(summary["max_ratio_to_bound"], 4) == 0.3076
        assert summary["max_ratio_to_bound_label"] == "random-n8-p0.3-m1-s21"

    def test_summary_worst_row_first_on_ties_and_null_without_ratios(self):
        def row(label, ratio_total, bound_total):
            return {"label": label, "ratio_total": ratio_total, "bound_total": bound_total, "violation": ""}

        rows = [row("a", None, 2.0), row("b", 1.0, 4.0), row("c", 2.0, 8.0)]
        summary = summarize(rows)
        assert (summary["max_ratio_to_bound"], summary["max_ratio_to_bound_label"]) == (0.25, "b")
        for unrated in ([], rows[:1]):
            summary = summarize(unrated)
            assert (summary["max_ratio_to_bound"], summary["max_ratio_to_bound_label"]) == (None, None)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        # the batch file does not exist: the width is refused before the spec is read
        argv = ["bench", str(tmp_path / "missing.json"), "--threads", threads]
        assert run_cli(capsys, *argv) == (2, "", "error: --threads must be >= 1\n")

    def test_empty_batch(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"entries": []}))
        csv_path = tmp_path / "rows.csv"
        code = main(["bench", str(batch), "--out-csv", str(csv_path), "--out-json", str(tmp_path / "s.json")])
        capsys.readouterr()
        assert code == 0
        assert csv_path.read_text().strip() == ",".join(CSV_COLUMNS)

    def test_thread_pool_merges_in_order(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps(
                {
                    "entries": [
                        {
                            "kind": "random",
                            "n": 7,
                            "p": 0.5,
                            "m": 1,
                            "seeds": {"start": 0, "count": 6},
                            "oracle": False,
                        }
                    ]
                }
            )
        )
        serial_csv = tmp_path / "serial.csv"
        pooled_csv = tmp_path / "pooled.csv"
        assert main(["bench", str(batch), "--out-csv", str(serial_csv), "--out-json", str(tmp_path / "a.json")]) == 0
        assert main(
            ["bench", str(batch), "--out-csv", str(pooled_csv), "--out-json", str(tmp_path / "b.json"), "--threads", "3"]
        ) == 0
        capsys.readouterr()
        assert serial_csv.read_bytes() == pooled_csv.read_bytes()

    def test_pool_width_capped_by_cases_and_cpus(self):
        # only computes the width; no pool is started
        cpus = os.cpu_count() or 1
        assert pool_width(3, 100000) == min(3, cpus)
        assert pool_width(10**6, 100000) == cpus
        assert pool_width(0, 100000) == 1
        assert pool_width(5, 100000) == min(5, cpus)
        assert pool_width(5) == 1

    def test_whole_float_int_field_accepted(self):
        spec = {"entries": [{"kind": "random", "n": 8.0, "p": 0.4, "m": [2.0], "oracle": True}]}
        (case,) = load_batch_spec(json.dumps(spec))
        assert (case["n"], case["m"], case["oracle"]) == (8, 2, True)
        assert type(case["n"]) is int

    def test_case_cap_counts_the_whole_batch(self, tmp_path, capsys, monkeypatch):
        cap = cdsopt.bench.MAX_BATCH_CASES
        # just over the cap, so code without the check only builds ~30 MB of cases
        over = {"kind": "random", "n": 7, "p": 0.4, "m": [1, 2], "seeds": {"count": cap // 2 + 1}}
        with pytest.raises(ValueError, match=f"entry 0: batch would hold {2 * (cap // 2 + 1)} cases, more than {cap}"):
            load_batch_spec(json.dumps({"entries": [over]}))
        # a small cap keeps the batch that crosses it cheap to run
        monkeypatch.setattr(cdsopt.bench, "MAX_BATCH_CASES", 10)
        entry = {"kind": "random", "n": 7, "p": 0.4, "m": [1, 2], "seeds": {"count": 3}}
        assert len(load_batch_spec(json.dumps({"entries": [entry]}))) == 6
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"entries": [entry, entry]}))
        code, _, err = run_cli(capsys, "bench", str(batch))
        assert code == 2
        assert "entry 1: batch would hold 12 cases, more than 10" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "entries,message",
        [
            ([{"kind": "random", "n": 6, "p": 0.5}, {"kind": "udg", "n": 10, "side": -1.0}], "side must be finite and positive"),
            (
                [{"kind": "random", "n": 8, "p": 0.4}, {"kind": "udg", "n": 20, "side": 2.5, "oracle": True}],
                "instance too large for oracle: 20 nodes > budget 16",
            ),
            (
                [
                    {"kind": "random", "n": 8, "p": 0.4},
                    {"kind": "fig1", "d": 400, "eps": 0.01, "node_budget": 2000, "oracle": True},
                ],
                "instance too deep for the oracle's recursive search: 1202 nodes",
            ),
        ],
        ids=["generator", "oracle-budget", "oracle-depth"],
    )
    def test_bad_generator_parameter_names_its_entry(self, tmp_path, capsys, threads, entries, message):
        # the spec loads, so the error comes from the generator or the oracle when entry 1's case runs
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"entries": entries}))
        expected = (2, "", f"error: entry 1: {message}\n")
        assert run_cli(capsys, "bench", str(batch), "--threads", threads) == expected

    def test_malformed_batch_exit_2(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text("{\"entries\": [{\"kind\": \"mystery\"}]}")
        code, _, err = run_cli(capsys, "bench", str(batch))
        assert code == 2
        assert "unknown kind" in err

    def test_spec_without_entries_list_exit_2(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text("[]")
        expected = (2, "", "error: batch spec must be an object with an 'entries' list\n")
        assert run_cli(capsys, "bench", str(batch)) == expected

    @pytest.mark.parametrize("wrap", ["{}", '{{"entries": {}}}'], ids=["bare", "entries"])
    def test_deeply_nested_spec_exit_2(self, tmp_path, capsys, wrap):
        """A spec nested past ``json.loads``'s recursion limit exits 2 with a message, not 1 with a traceback."""
        batch = tmp_path / "batch.json"
        batch.write_text(wrap.format("[" * 100_000 + "]" * 100_000))
        expected = (2, "", "error: batch spec nests too deeply to parse\n")
        assert run_cli(capsys, "bench", str(batch)) == expected

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"kind": "random", "p": 0.3}, "entry 0: missing field 'n'"),
            ({"kind": "fig1", "d": 3}, "entry 0: missing field 'eps'"),
            ({"kind": "random", "n": 8, "p": 0.4, "seeds": [1, 2]}, "entry 0: field 'seeds' must be an object"),
            ({"kind": "random", "n": 30, "p": 0.1, "oracle": "false"}, "entry 0: field 'oracle' must be bool, got 'false'"),
            ({"kind": "random", "n": 7, "p": 0.4, "oracle": 1}, "entry 0: field 'oracle' must be bool, got 1"),
            ({"kind": "random", "n": 7.9, "p": 0.4}, "entry 0: field 'n' must be int, got 7.9"),
            ({"kind": "random", "n": True, "p": 0.4}, "entry 0: field 'n' must be int, got True"),
            ({"kind": "random", "n": 7, "p": 0.4, "m": [1.5]}, "entry 0: field 'm' must be int, got 1.5"),
            ({"kind": "random", "n": 7, "p": 0.4, "seeds": {"count": 1.9}}, "entry 0 seeds: field 'count' must be int, got 1.9"),
            ({"kind": "fig1", "d": 3.5, "eps": 0.1}, "entry 0: field 'd' must be int, got 3.5"),
            (
                {"kind": "fig1", "d": 3, "eps": 0.01, "seeds": {"count": 4}},
                "entry 0: field 'seeds' does not apply to kind 'fig1'",
            ),
            ({"kind": "random", "n": 7, "p": 0.4, "seeds": {"count": 0}}, "entry 0 seeds: field 'count' must be >= 1, got 0"),
            ({"kind": "random", "n": 7, "p": 0.4, "seeds": {"count": -3}}, "entry 0 seeds: field 'count' must be >= 1, got -3"),
            ({"kind": "random", "n": 7, "p": 0.4, "m": []}, "entry 0: field 'm' must not be empty"),
            ({"kind": "random", "n": 6, "p": 0.5, "seed": 5}, "entry 0: unknown field 'seed'"),
            ({"kind": "random", "n": 6, "p": 0.5, "costlo": 1.0}, "entry 0: unknown field 'costlo'"),
            ({"kind": "random", "n": 6, "p": 0.5, "side": 2.0}, "entry 0: unknown field 'side'"),
            ({"kind": "random", "n": 6, "p": 0.5, "seeds": {"cnt": 5}}, "entry 0 seeds: unknown field 'cnt'"),
            ({"kind": ["random"], "n": 6, "p": 0.5}, "entry 0: unknown kind ['random']"),
            ({"kind": "random", "n": "6", "p": 0.5}, "entry 0: field 'n' must be int, got '6'"),
            ({"kind": "random", "n": 6, "p": "0.5"}, "entry 0: field 'p' must be float, got '0.5'"),
            ({"kind": "random", "n": 6, "p": 0.5, "seeds": {"count": "3"}}, "entry 0 seeds: field 'count' must be int, got '3'"),
            ({"kind": "random", "n": 6, "p": 10**400}, "entry 0: field 'p' must be float, got 1000"),
            (3, "entry 0 must be an object"),
            ({"kind": "fig1", "d": 3, "eps": 0.01, "m": 0}, "entry 0: m must be >= 1"),
        ],
        ids=[
            "missing-n",
            "fig1-missing-eps",
            "seeds-list",
            "oracle-string",
            "oracle-int",
            "n-fractional",
            "n-bool",
            "m-fractional",
            "seed-count-fractional",
            "d-fractional",
            "fig1-seeds",
            "seed-count-zero",
            "seed-count-negative",
            "m-empty",
            "seed",
            "costlo",
            "side-on-random",
            "seeds-cnt",
            "kind-list",
            "n-string",
            "p-string",
            "seed-count-string",
            "p-huge-int",
            "entry-not-object",
            "m-zero",
        ],
    )
    def test_bad_entry_field_exit_2(self, tmp_path, capsys, entry, message):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({"entries": [entry]}))
        code, _, err = run_cli(capsys, "bench", str(batch))
        assert code == 2
        assert message in err
        assert "Traceback" not in err


# instance texts the fuzz mutates: the ``gen`` output of each kind, small enough
# for the oracle (fig1 keeps its designated-ds comment)
_FUZZ_GEN_ARGS = [
    ["random", "--n", "9", "--p", "0.35", "--seed", "3", "--m", "2"],
    ["udg", "--n", "10", "--side", "2.0", "--seed", "4"],
    ["fig1", "--d", "3", "--eps", "0.01"],
]
# tokens that parse as numbers in some readers but not in others, or overflow
_FUZZ_TOKENS = ["nan", "1e400", "0x10", "３", "-1", "0", "inf", "1e-400"]
_FUZZ_COMMANDS = [
    ["solve", "{inst}", "--no-timing"],
    ["solve", "{inst}", "--oracle", "--no-timing"],
    ["solve", "{inst}", "--baseline", "pairwise", "--no-timing"],
    ["solve", "{inst}", "--given-ds", "--no-timing"],
    ["solve", "{inst}", "--given-ds", "0 1 2 3 4 5 6 7 8", "--no-timing"],
    ["verify", "{inst}", "{sol}"],
]


@pytest.fixture(scope="module")
def fuzz_texts(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_base")
    texts = []
    for args in _FUZZ_GEN_ARGS:
        path = out / f"{args[0]}.cds"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", *args, "--out", str(path)]) == 0
        texts.append(path.read_text())
    return texts


def _mutate(text: str, draw) -> str:
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["token", "drop", "duplicate", "swap"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "token":
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(_FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


class TestMutationFuzz:
    """Mutated instance files reach every command's error handling: exit 0, 1 or 2, never a traceback."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_instance_exits_cleanly(self, fuzz_texts, tmp_path_factory, data):
        text = _mutate(data.draw(st.sampled_from(fuzz_texts)), data.draw)
        work = tmp_path_factory.mktemp("fuzz")
        inst, sol = work / "inst.cds", work / "sol.txt"
        inst.write_text(text, encoding="utf-8")
        sol.write_text(data.draw(st.sampled_from(["0 1 2 3 4 5 6 7 8 9", "0", "1 2 x"])))
        for command in _FUZZ_COMMANDS:
            argv = [arg.format(inst=inst, sol=sol) for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, text, err.getvalue())
            if code == 2:
                assert err.getvalue().startswith("error: ") and out.getvalue() == ""
