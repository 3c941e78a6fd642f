"""The verify criteria of `noiselab.checks`: one definition that `noiselab
verify` and the acceptance suite share, and negative controls that fail where
they should."""

import json
import math

import pytest
from noiselab import checks
from noiselab.cli import main
from noiselab.gauss import Estimate
from noiselab.partitions import halfspace_partition, simplex_cone_partition
from noiselab.stability import bilinear_stability
from noiselab.variation import TranslationField, first_variation_constancy, hyperstability_probe

#: every verify check, suite by suite, in report order
NAMES = {
    "first-variation": ["cones-deviation-rho=0.3", "cones-deviation-rho=0.7",
                        "perturbed-deviation-exceeds"],
    "translation-eigen": ["halfspace-a=0.0-rho=0.3", "halfspace-a=0.0-rho=0.7",
                          "halfspace-a=0.5-rho=0.3", "halfspace-a=0.5-rho=0.7", "cones-z1"],
    "dilation-eigen": ["halfspace-a=1", "cones"],
    "second-variation": ["m=2-rho=0.3", "m=2-rho=0.7", "m=3-rho=0.3", "m=3-rho=0.7"],
    "bilinear": ["pair-eigen-residual", "pair-sign-normal", "translation-form-nonpositive",
                 "form-vs-fd", "containment-direction"],
    "hyperstability": ["cones-dilation-d2s", "cones-dilation-mixed", "cones-translation-mixed",
                       "perturbed-flagged"],
    "propeller": ["three-sectors-equality", "random-3d-cones-below-bound"],
    "gaussian-core": ["bvn-independence", "bvn-arcsine", "closed-form-halfspace",
                      "pair-correlation", "ou-halfspace-center", "kernel-symmetry"],
}


@pytest.mark.parametrize("seed", [20240901, 4242])
def test_verify_reports_the_records_of_checks(capsys, seed):
    assert list(checks.SUITES) == list(NAMES)
    assert sum(map(len, NAMES.values())) == 31
    for suite, names in NAMES.items():
        code = main(["verify", suite, "--seed", str(seed)])
        report = json.loads(capsys.readouterr().out)
        records = checks.SUITES[suite](seed, 200_000)
        assert code == 0 and report["pass"] is True
        assert report["checks"] == json.loads(json.dumps(records, default=float))
        assert [r["check"] for r in records] == names


def test_check_directions():
    assert checks.check("a", 1.5, 0.5, target=1.0) == {
        "check": "a", "value": 1.5, "target": 1.0, "residual": 0.5, "tolerance": 0.5,
        "pass": True}
    assert not checks.check("a", 0.4, 0.5, target=1.0)["pass"]
    lt = checks.check("lt", -9.0, 0.0, direction="lt")
    assert lt["pass"] and lt["residual"] == -9.0
    assert not checks.check("lt", 1.0, 0.0, target=1.0, direction="lt")["pass"]
    gt = checks.exceeds("gt", 2.0, 1.0)
    assert gt["pass"] and gt["residual"] == -1.0 and gt["tolerance"] == 0.0
    assert not checks.exceeds("gt", 0.5, 1.0)["pass"]
    assert not checks.exceeds("gt", 1.0, 1.0)["pass"]
    for direction in ("lt", "gt"):
        with pytest.raises(AssertionError):
            checks.check("one-sided", 0.0, 0.5, direction=direction)
    for direction, tol in (("abs", 1.0), ("lt", 0.0), ("gt", 0.0)):
        assert not checks.check("nan", math.nan, tol, direction=direction)["pass"]


def test_one_sided_comparisons_are_strict():
    # an estimate sitting exactly on its bound, such as the 0.0 of an empty facet sum, fails
    zero = Estimate(0.0, 0.0, 0, "closed-form")
    assert not checks.nonzero("exact zero", zero)["pass"]
    assert not checks.negative("translation-form-nonpositive", zero)["pass"]
    assert checks.negative("form", Estimate(-1e-3, 1.0, 0, "monte-carlo"))["pass"]
    ests = [Estimate(0.25, 0.125, 0, "monte-carlo"), Estimate(0.5, 0.125, 0, "monte-carlo")]
    assert not checks.below("on the bound", ests, 0.875)["pass"]
    assert checks.below("under the bound", ests, 0.876)["pass"]


def test_scaled_multiplies_every_tolerance_and_rejudges():
    records = [checks.check("a", 1.0, 0.5), checks.check("b", 0.1, 0.5),
               checks.exceeds("c", 2.0, 1.0), checks.exceeds("d", 1.0, 1.0)]
    out = checks.scaled(records, 4.0)
    assert [r["tolerance"] for r in out] == [2.0, 2.0, 0.0, 0.0]
    assert [r["pass"] for r in out] == [True, True, True, False]
    assert [r["pass"] for r in checks.scaled(records, 0.1)] == [False, False, True, False]
    assert [r["pass"] for r in records] == [False, True, True, False]
    assert out[:2] == [checks.check("a", 1.0, 2.0), checks.check("b", 0.1, 2.0)]


def test_perturbed_flagged_fails_on_unperturbed_cones():
    # the mixed (s, rho) derivative of the critical cones is 4.6e-14 against 3 SE of 3.3e-7
    p3 = simplex_cone_partition(3)
    rep = hyperstability_probe(p3, 0.5, TranslationField(p3.cells[0].generators[0]),
                               budget=200_000, seed=[20240901, 11], volume_policy="skip")
    record = checks.nonzero("perturbed-flagged", rep.mixed_s_rho)
    assert not record["pass"]
    assert record["value"] < 1e-9 < record["target"]


def test_first_variation_control_fails_on_unperturbed_cones():
    rep = first_variation_constancy(simplex_cone_partition(3), 0.3, 0, 1, 60, seed=[20240901, 2])
    assert checks.constancy("cones", rep)["pass"]
    assert not checks.deviates("perturbed-deviation-exceeds", rep)["pass"]


def test_containment_fails_on_the_swapped_pair():
    p = halfspace_partition([1.0], 0.0)
    same, opposite = bilinear_stability(p, p, 0.5), bilinear_stability(p, p.negated(), 0.5)
    assert checks.containment("direction", same, opposite)["pass"]
    assert not checks.containment("direction", opposite, same)["pass"]
