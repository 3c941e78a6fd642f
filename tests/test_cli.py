"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math

import numpy as np
import pytest

import noiselab.checks as checks_module
import noiselab.stability as stability_module
import noiselab.voting as voting_module
from noiselab.cli import build_parser, main
from noiselab.partitions import (
    cylinder_extend,
    gaussian_measure,
    halfspace_partition,
    partition_to_json,
    simplex_cone_partition,
)
from noiselab.stability import partition_stability


@pytest.fixture
def halfspace_file(tmp_path):
    path = tmp_path / "halfspace.json"
    path.write_text(json.dumps(partition_to_json(halfspace_partition([1.0], 0.0))))
    return str(path)


@pytest.fixture
def simplex3_file(tmp_path):
    path = tmp_path / "simplex3.json"
    path.write_text(json.dumps(partition_to_json(simplex_cone_partition(3))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStabilityCommand:
    def test_halfspace_two_thirds(self, capsys, halfspace_file):
        code, out, _ = run(capsys, "stability", halfspace_file, "--rho", "0.5")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "1"
        assert report["result"]["value"] == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_independence_limit(self, capsys, simplex3_file):
        code, out, _ = run(capsys, "stability", simplex3_file, "--rho", "1e-6",
                           "--budget", "200000")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["value"] == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_per_cell_output(self, capsys, halfspace_file):
        code, out, _ = run(capsys, "stability", halfspace_file, "--rho", "0.5", "--per-cell")
        report = json.loads(out)
        assert len(report["cells"]) == 2
        assert report["cells"][0]["value"] == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_csv_format(self, capsys, halfspace_file):
        code, out, _ = run(capsys, "stability", halfspace_file, "--rho", "0.5",
                           "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[:2] == ["rho", "value"]

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "stability", str(bad))
        assert code == 2
        assert "cannot load partition" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "stability", "/nonexistent/partition.json")
        assert code == 2

    def test_invalid_rho_exit_3(self, capsys, halfspace_file):
        code, _, _ = run(capsys, "stability", halfspace_file, "--rho", "1.5")
        assert code == 3

    def test_default_seed_in_header(self, capsys, halfspace_file):
        code, out, _ = run(capsys, "stability", halfspace_file)
        assert json.loads(out)["seed"] == 20240901


class TestSweepCommand:
    def test_nine_rows_nondecreasing(self, capsys, simplex3_file):
        code, out, _ = run(capsys, "sweep", simplex3_file, "--rho-grid", "0.1:0.9:9")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 10  # header + 9 rows
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_deterministic_given_seed(self, capsys, simplex3_file):
        _, out1, _ = run(capsys, "sweep", simplex3_file, "--rho-grid", "0.2,0.5",
                         "--seed", "5", "--budget", "50000")
        _, out2, _ = run(capsys, "sweep", simplex3_file, "--rho-grid", "0.2,0.5",
                         "--seed", "5", "--budget", "50000")
        assert out1 == out2

    #: recorded before the cones in R^3 had a deterministic route; the cylinder
    #: draws only the four coordinates its cells read, so it gives these rows too
    MC_ROWS = ["-0.5,0.0623733333333,0.000624411,150000,monte-carlo,17",
               "0.3,0.314446666667,0.00119881,150000,monte-carlo,17",
               "0.9,0.723546666667,0.00115478,150000,monte-carlo,17"]

    @pytest.mark.parametrize("name", ["cones", "cylinder"])
    def test_monte_carlo_sweep_in_r4_is_thread_independent(self, capsys, tmp_path, name):
        # simplex cones in R^4 and their cylinder in R^6 have no deterministic
        # route; 150,000 pairs make two shards, so two threads split the work
        p = simplex_cone_partition(5)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(partition_to_json(
            p if name == "cones" else cylinder_extend(p, 2))))
        outs = [run(capsys, "sweep", str(path), "--rho-grid=-0.5,0.3,0.9", "--budget", "150000",
                    "--seed", "17", "--threads", threads) for threads in ("1", "2")]
        assert [code for code, _, _ in outs] == [0, 0]
        assert outs[0][1] == outs[1][1]
        lines = outs[0][1].strip().split("\n")
        assert lines[0] == "rho,value,std_error,samples,method,seed"
        assert lines[1:] == self.MC_ROWS

    def test_cylinder_sweep_agrees_with_a_five_dimensional_sampler(self, capsys, tmp_path):
        # pairs drawn in all of R^5 and classified by one argmax against the
        # generators padded with zeros, independently of noiselab's sampler
        p = simplex_cone_partition(4)
        path = tmp_path / "cylinder.json"
        path.write_text(json.dumps(partition_to_json(cylinder_extend(p, 2))))
        _, out, _ = run(capsys, "sweep", str(path), "--rho-grid=-0.5,0.3,0.9", "--budget",
                        "150000", "--seed", "17")
        z = np.hstack([p.cells[0].generators, np.zeros((4, 2))])
        rng = np.random.default_rng(2024)
        x, noise = rng.standard_normal((2, 300_000, 5))
        cell_x = np.argmax(x @ z.T, axis=1)
        for line in out.strip().split("\n")[1:]:
            rho, value, se = (float(v) for v in line.split(",")[:3])
            y = rho * x + math.sqrt(1 - rho * rho) * noise
            hits = cell_x == np.argmax(y @ z.T, axis=1)
            ref, ref_se = hits.mean(), hits.std(ddof=1) / math.sqrt(len(hits))
            assert abs(value - ref) <= 4 * (se + ref_se)

    def test_sweep_row_equals_stability_at_that_rho(self, capsys, tmp_path):
        path = tmp_path / "cones.json"
        path.write_text(json.dumps(partition_to_json(simplex_cone_partition(5))))
        _, sweep, _ = run(capsys, "sweep", str(path), "--rho-grid=0.2,0.7", "--budget", "30000",
                          "--seed", "9")
        _, one, _ = run(capsys, "stability", str(path), "--rho", "0.7", "--budget", "30000",
                        "--seed", "9")
        est = json.loads(one)["result"]
        assert sweep.strip().split("\n")[2] == (
            f"0.7,{est['value']:.12g},{est['std_error']:.6g},30000,monte-carlo,9")

    def test_empty_grid_exit_3(self, capsys, halfspace_file):
        code, _, _ = run(capsys, "sweep", halfspace_file, "--rho-grid", "0.1:0.9:0")
        assert code == 3

    @pytest.mark.parametrize("grid", ["0.1:0.5", "0.1:0.5:0", ","])
    def test_malformed_grid_exit_3(self, capsys, halfspace_file, grid):
        code, _, err = run(capsys, "sweep", halfspace_file, "--rho-grid", grid)
        assert code == 3
        assert err.startswith("error: ")

    def test_json_rows_are_the_csv_rows(self, capsys, simplex3_file):
        _, csv, _ = run(capsys, "sweep", simplex3_file, "--rho-grid", "0.5,0.0,-0.3")
        code, out, _ = run(capsys, "sweep", simplex3_file, "--rho-grid", "0.5,0.0,-0.3",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "sweep"
        header, *lines = csv.strip().split("\n")
        assert [{k: str(v) for k, v in row.items()} for row in report["rows"]] == [
            dict(zip(header.split(","), line.split(","))) for line in lines]

    def test_out_of_range_grid_exit_3(self, capsys, halfspace_file):
        code, _, _ = run(capsys, "sweep", halfspace_file, "--rho-grid", "0.5,1.2")
        assert code == 3

    @pytest.mark.parametrize("grid", ["0.1:0.9:x", "a,b", "0.1:0.9:2.5"])
    def test_unreadable_grid_exit_2(self, capsys, halfspace_file, grid):
        code, _, err = run(capsys, "sweep", halfspace_file, "--rho-grid", grid)
        assert code == 2
        assert err.startswith("error: bad --rho-grid")


class TestParserBuiltOnce:
    def test_calls_in_one_process_match_fresh_calls(self, tmp_path, simplex3_file):
        # sweep defaults to CSV and stability to JSON: neither default, nor any
        # other state, may leak from one call into the next through the parser
        import noiselab.cli as cli_module

        calls = [["sweep", simplex3_file, "--rho-grid", "0.5,0.0,-0.3"],
                 ["stability", simplex3_file, "--rho", "0.4"],
                 ["sweep", simplex3_file, "--rho-grid", "0.5,0.0,-0.3"]]

        def outputs(tag, fresh):
            texts = []
            for k, argv in enumerate(calls):
                if fresh:
                    cli_module.build_parser.cache_clear()
                path = tmp_path / f"{tag}{k}.out"
                assert main(argv + ["--output", str(path)]) == 0
                texts.append(path.read_text())
            return texts

        in_process = outputs("seq", fresh=False)
        assert cli_module.build_parser() is cli_module.build_parser()
        assert in_process == outputs("fresh", fresh=True)
        assert in_process[0] == in_process[2]
        assert in_process[0].startswith("rho,value,std_error,samples,method,seed\n")
        assert json.loads(in_process[1])["command"] == "stability"


class TestPluralityCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "plurality", "--m", "3", "--n-list", "1,3",
                           "--rho", "0.4", "--samples", "20000")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,n,rho,value,std_error,method"
        assert len(lines) == 4  # two n rows plus the continuous benchmark
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(0.6, abs=1e-9)

    def test_large_n_rows_are_exact(self, capsys):
        code, out, _ = run(capsys, "plurality", "--m", "3", "--n-list", "1,11,51",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "1"
        assert [r["n"] for r in report["rows"]] == [1, 11, 51, "limit"]
        assert all(set(r) == {"m", "n", "rho", "value", "std_error", "method"}
                   for r in report["rows"])
        assert [(r["method"], r["std_error"]) for r in report["rows"][:3]] == [("exact", 0.0)] * 3
        assert report["rows"][-1]["method"].startswith("continuous-simplex-cones")

    def test_threads_reach_the_sampled_limit_row(self, capsys, monkeypatch):
        # the m = 5 cones in R^4 have no deterministic route; their 400,000
        # pairs make four shards, which two threads split without changing a bit
        seen = []
        original = voting_module.partition_stability

        def spy(*args, **kwargs):
            seen.append(kwargs["threads"])
            return original(*args, **kwargs)

        monkeypatch.setattr(voting_module, "partition_stability", spy)
        outs = [run(capsys, "plurality", "--m", "5", "--n-list", "1,2", "--rho", "0.4",
                    "--format", "json", "--threads", threads) for threads in ("1", "2")]
        assert [code for code, _, _ in outs] == [0, 0]
        assert outs[0][1] == outs[1][1]
        assert seen == [1, 2]
        limit = json.loads(outs[0][1])["rows"][-1]
        assert limit["n"] == "limit" and limit["method"] == "continuous-simplex-cones/monte-carlo"

    def test_budget_reaches_the_limit_row(self, capsys):
        # the m = 5 cones in R^4 are sampled, so the limit row shows the budget
        code, out, _ = run(capsys, "plurality", "--m", "5", "--n-list", "1", "--rho", "0.4",
                           "--seed", "3", "--budget", "1000", "--format", "json")
        assert code == 0
        limit = json.loads(out)["rows"][-1]
        est = partition_stability(simplex_cone_partition(5), 0.4, 1000, seed=3)
        assert (limit["value"], limit["std_error"]) == (est.value, est.std_error)

    def test_default_budget_of_the_limit_row(self):
        assert build_parser().parse_args(["plurality"]).budget == 400_000

    def test_bad_n_list_exit(self, capsys):
        code, _, _ = run(capsys, "plurality", "--n-list", "1,x")
        assert code == 2
        code, _, _ = run(capsys, "plurality", "--n-list", "0")
        assert code == 3


class TestVerifyCommand:
    def test_unknown_suite_exit_4(self, capsys):
        code, _, err = run(capsys, "verify", "not-a-suite")
        assert code == 4
        assert "unknown suite" in err

    def test_gaussian_core_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "gaussian-core", "--budget", "50000")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert all(c["pass"] for c in report["checks"])

    def test_propeller_suite_includes_equality_check(self, capsys):
        code, out, _ = run(capsys, "verify", "propeller", "--budget", "50000")
        assert code == 0
        report = json.loads(out)
        names = [c["check"] for c in report["checks"]]
        assert "three-sectors-equality" in names
        eq = next(c for c in report["checks"] if c["check"] == "three-sectors-equality")
        assert eq["target"] == pytest.approx(9.0 / (8.0 * math.pi), abs=1e-12)

    @pytest.mark.parametrize("seed", [4242, 20240901])
    def test_propeller_suite_draws_no_sample(self, capsys, monkeypatch, seed):
        # the ten random 4-cone partitions of R^3 take the closed forms
        calls = []

        def recording(p, *args, **kwargs):
            calls.append((p, stability_module.propeller_functional(p, *args, **kwargs)))
            return calls[-1][1]

        def refuse(*args, **kwargs):
            raise AssertionError("the propeller suite drew a sample")

        monkeypatch.setattr(checks_module, "propeller_functional", recording)
        monkeypatch.setattr(stability_module, "mc_shard_means", refuse)
        code, out, _ = run(capsys, "verify", "propeller", "--seed", str(seed))
        assert code == 0 and json.loads(out)["pass"] is True
        assert len(calls) == 11
        for p, est in calls:
            assert est.method == "quadrature" and est.samples == 0 and est.std_error <= 1e-13
            total = sum(gaussian_measure(c, mode="quadrature").value for c in p.cells)
            assert abs(total - 1.0) <= 1e-13

    def test_tolerance_failure_exit_5(self, capsys):
        code, out, _ = run(capsys, "verify", "gaussian-core", "--budget", "50000",
                           "--tolerance-scale", "1e-12")
        assert code == 5
        report = json.loads(out)
        assert report["pass"] is False

    @pytest.mark.parametrize("scale", ["inf", "nan", "-inf", "0", "-1"])
    def test_bad_tolerance_scale_exit_3(self, capsys, scale):
        # inf would pass every scaled check and nan fail every one
        code, out, err = run(capsys, "verify", "gaussian-core", "--budget", "50000",
                             f"--tolerance-scale={scale}")
        assert code == 3
        assert out == "" and "--tolerance-scale" in err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_bad_threads_exit_3(self, capsys, halfspace_file, threads):
        code, out, err = run(capsys, "stability", halfspace_file, f"--threads={threads}")
        assert code == 3
        assert out == "" and "--threads" in err

    @pytest.mark.parametrize("command", ["stability", "sweep", "plurality", "verify"])
    def test_budget_below_one_exit_3(self, capsys, halfspace_file, command):
        # rejected also where every route is deterministic and reads no budget
        head = {"stability": [halfspace_file], "sweep": [halfspace_file],
                "plurality": [], "verify": ["gaussian-core"]}[command]
        for budget in ("0", "-5"):
            code, out, err = run(capsys, command, *head, f"--budget={budget}")
            assert code == 3
            assert out == "" and "--budget" in err

    @pytest.mark.parametrize("command, flag", [
        ("stability", "--tolerance-scale=2"), ("sweep", "--tolerance-scale=2"),
        ("plurality", "--tolerance-scale=2"), ("sweep", "--rho=0.9"), ("verify", "--rho=0.9"),
        ("verify", "--threads=2"), ("verify", "--format=csv")])
    def test_flag_the_command_does_not_read_exit_2(self, capsys, halfspace_file, command, flag):
        # a flag that would change nothing is refused rather than ignored
        head = {"stability": [halfspace_file], "sweep": [halfspace_file],
                "plurality": [], "verify": ["gaussian-core"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *head, flag])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    def test_samples_below_one_exit_3(self, capsys):
        for samples in ("0", "-5"):
            code, out, err = run(capsys, "plurality", "--n-list", "1,3", f"--samples={samples}")
            assert code == 3
            assert out == "" and "--samples" in err
