"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They run each workload at a small size (a few seconds each), so they check
the benchmark's plumbing, not noiselab's performance.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import noiselab  # noqa: E402
import noiselab.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(name, tmp_path, seed=3):
    return workloads.build(name, seed, tmp_path, small=True)


def _expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_run_emits_every_metric(name, tmp_path):
    work = _small(name, tmp_path)
    result, lines = run.timed_run(noiselab.cli, work, 0.0, [0.5])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _expected("end_to_end")
    assert all(result["metrics"][k]["value"] > 0 for k in got)
    assert result["attempted"] >= 1 and result["failed"] == 0, lines

    result, lines = run.traced_run(noiselab.cli, work)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _expected("per_layer")
    assert result["failed"] == 0, lines
    text = "\n".join(lines)
    assert "ops_failed = 0/" in text
    assert "not traced" not in text


def _bindings():
    """Every function object reachable from noiselab modules, classes and dicts."""
    seen = {"leggauss": tracer.np.polynomial.legendre.leggauss}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("noiselab"):
            continue
        for key, value in vars(mod).items():
            seen[f"{name}.{key}"] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    seen[f"{name}.{key}.{attr}"] = member
            elif isinstance(value, dict):
                for k, member in value.items():
                    seen[f"{name}.{key}[{k!r}]"] = member
    return seen


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    work = _small("verify", tmp_path)
    with tracer.Tracer() as tr:
        assert tr.missing == []
        assert tracer.leftover_wrappers()
        run.run_pass(noiselab.cli, work)
    assert tr.spans
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracer.leftover_wrappers() == []


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            assert tr.missing == []
            raise RuntimeError("stop")
    after = _bindings()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracer_patches_cross_module_imports():
    from noiselab import gauss, stability, variation

    with tracer.Tracer() as tr:
        assert tr.missing == []
        assert stability.mc_mean is gauss.mc_mean
        assert variation.ou_gradient_quadrature is gauss.ou_gradient_quadrature
        assert hasattr(gauss.mc_mean, "_perfbench_original")
        assert hasattr(noiselab.partition_stability, "_perfbench_original")


def test_shard_spans_join_their_mc_mean_span(tmp_path):
    work = _small("sweep-mc", tmp_path)
    with tracer.Tracer() as tr:
        assert tr.missing == []
        run.run_pass(noiselab.cli, work)
    names = {s[0]: s[2] for s in tr.spans}
    member = [s for s in tr.spans if s[2] == "partitions.PartitionSpec.membership"]
    assert member and all(names.get(s[1]) == "gauss.mc_mean" for s in member)
    assert tr.metrics()["gauss.mc_mean.parallel_eff"] > 0


def test_self_time_subtracts_overlapping_children():
    tr = tracer.Tracer()
    tr.spans = [(1, 0, "a", 0.0, 10.0, None), (2, 1, "b", 1.0, 4.0, None),
                (3, 1, "b", 2.0, 6.0, None), (4, 3, "c", 2.5, 3.0, None)]
    own = tr._self_times()
    assert own == {1: 5.0, 2: 3.0, 3: 3.5, 4: 0.5}


def test_wrong_outputs_count_as_failed(tmp_path):
    work = _small("sweep-quadrature", tmp_path)
    good = run.run_pass(noiselab.cli, work)
    assert workloads.Oracle(work).check(good.outcomes).failed == 0

    outcomes = dict(good.outcomes)
    text = outcomes["halfplane_sectors"].text
    value = text.splitlines()[1].split(",")[1]
    outcomes["halfplane_sectors"] = workloads.Outcome(0, text.replace(value, "0.67", 1))
    outcomes["cones3"] = workloads.Outcome(None, None, "RuntimeError: boom")
    tally = workloads.Oracle(work).check(outcomes)
    assert tally.failed == 2
    assert any("halfplane_sectors" in p and "Sheppard" in p for p in tally.problems)
    assert any("cones3: raised RuntimeError" in p for p in tally.problems)
    assert tally.attempted == len(work.calls)


def test_failed_verify_check_is_counted(tmp_path):
    work = _small("verify", tmp_path)
    good = run.run_pass(noiselab.cli, work)
    label = work.calls[0].label
    doc = json.loads(good.outcomes[label].text)
    doc["checks"][0]["pass"] = False
    outcomes = dict(good.outcomes)
    outcomes[label] = workloads.Outcome(5, json.dumps(doc))
    tally = workloads.Oracle(work).check(outcomes)
    assert tally.failed == 1


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.write_inputs("sweep-quadrature", 11, tmp_path / "a")
    b = workloads.write_inputs("sweep-quadrature", 11, tmp_path / "b")
    c = workloads.write_inputs("sweep-quadrature", 12, tmp_path / "c")
    read = lambda parts, k: parts[k]["path"].read_text()  # noqa: E731
    assert all(read(a, k) == read(b, k) for k in a)
    assert read(a, "sectors4") != read(c, "sectors4")


def test_angle_difference_oracle_matches_sheppard():
    for rho in (-0.9, 0.3, 0.99, 0.999):
        assert abs(workloads.centered_sector_stability([3.141592653589793] * 2, rho)
                   - workloads.sheppard_pair(rho)) < 1e-12


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "plurality",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.xfail(strict=True, reason="the sector quadrature's error exceeds its reported "
                   "error at rho = 0.99; when this passes, put 0.99 back in RHO_QUADRATURE")
def test_sector_quadrature_keeps_its_error_at_rho_099(tmp_path):
    work = _small("sweep-quadrature", tmp_path)
    call = next(c for c in work.calls if c.label == "halfplane_sectors")
    call.argv = ["--rho-grid=0.99" if a.startswith("--rho-grid=") else a for a in call.argv]
    work.calls = [call]
    tally = workloads.Oracle(work).check(run.run_pass(noiselab.cli, work).outcomes)
    assert tally.failed == 0, tally.problems
