"""Self-tests of the benchmark's input generators and answer checks.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import check  # noqa: E402
import inputs as I  # noqa: E402
import workloads as W  # noqa: E402
from nilgrade import matrices as mx  # noqa: E402
from nilgrade.latpow import ObstructionPrime, power_into_lattice  # noqa: E402
from nilgrade.liealg import is_automorphism, validate  # noqa: E402
from nilgrade.serialize import algebra_from_dict, matrix_from_lists  # noqa: E402


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Every workload's pass at one seed, with its input files."""
    out = {}
    for name, build in W.WORKLOADS.items():
        work = W.WorkDir(tmp_path_factory.mktemp(name))
        out[name] = build(11, work, REPO)
    return out


def _algebra(arg: str):
    path = Path(arg)
    if not path.exists():
        path = REPO / "src" / "nilgrade" / "fixtures" / f"{arg}.json"
    return algebra_from_dict(json.loads(path.read_text()))


@pytest.mark.parametrize("r, c", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_free_nilpotent_dimension_and_class(r, c):
    algebra = I.free_nilpotent(r, c)
    assert algebra.dim == I.witt_dimension(r, c) == len(I.hall_basis(r, c))
    verdict = validate(algebra_from_dict(I.algebra_json(algebra)))
    assert verdict.accepted()
    assert verdict.certificate["nilpotency_class"] == c


def test_witt_formula_values():
    # free Lie algebra on 2 generators: 2, 1, 2, 3, 6, 9 basic commutators by degree
    assert [I.witt_dimension(2, c) for c in range(1, 7)] == [2, 3, 5, 8, 14, 23]
    assert I.witt_dimension(3, 3) == 14


def test_every_generated_algebra_validates(built):
    seen = set()
    for queries in built.values():
        for q in queries:
            if q.argv[0] == "latpow" or q.argv[1] in seen:
                continue
            seen.add(q.argv[1])
            verdict = validate(_algebra(q.argv[1]))
            assert verdict.accepted(), q.label
            if "class" in q.facts:
                assert verdict.certificate["nilpotency_class"] == q.facts["class"], q.label


def test_every_generated_map_is_an_automorphism(built):
    maps = 0
    for q in built["spectral-replay"]:
        cert = json.loads(Path(q.argv[-1]).read_text())
        if not isinstance(cert, list):
            continue
        algebra = _algebra(q.argv[1])
        m = matrix_from_lists(cert)
        assert is_automorphism(algebra, m), q.label
        if "algebra" in q.facts:
            assert I.is_automorphism(q.facts["algebra"], [[Fraction(e) for e in row] for row in cert]), q.label
        maps += 1
    assert maps > 50


def test_map_classes_match_their_spectra(built):
    for q in built["spectral-replay"]:
        cls = q.facts.get("map")
        if cls is None or q.argv[0] != "norm":
            continue
        m = np.array(json.loads(Path(q.argv[-1]).read_text()), dtype=object)
        m = np.array([[float(Fraction(e)) for e in row] for row in m])
        mags = np.abs(np.linalg.eigvals(m))
        det = abs(np.linalg.det(m))
        if cls == "expanding" or cls == "kronecker-deg8":
            assert mags.min() > 1, q.label
        elif cls == "unit-det":
            assert round(det) == 1, q.label
        else:  # self-covers: |det| > 1 and some eigenvalue on or inside the circle
            assert round(det) > 1 and mags.min() < 1 + 1e-9, q.label


def test_grading_certificates_are_gradings(built):
    for q in built["spectral-replay"]:
        if "--certificate" not in q.argv:
            continue
        cert = json.loads(Path(q.argv[-1]).read_text())
        if isinstance(cert, dict) and "weights" in cert:
            algebra = q.facts["algebra"]
            w = cert["weights"]
            assert all(w[i] + w[j] == w[k] for (i, j), t in algebra.table.items() for k in t), q.label


def test_lattice_reference_agrees_with_the_program():
    rng = random.Random(3)
    checked = 0
    while checked < 12:
        pair = I.random_pair(rng, 2 + checked % 2)
        a = mx.rmat(I.matrix_json(pair.a))
        lattice = mx.IntegerLattice(mx.rmat(I.matrix_json(pair.basis)))
        if gcd(abs(pair.det), pair.modulus) != 1:
            with pytest.raises(ObstructionPrime):
                power_into_lattice(a, lattice)
            continue
        if pair.scan_work > 20_000 or not pair.printable:
            continue
        cert = power_into_lattice(a, lattice)
        assert cert.k == pair.k
        assert cert.order_bound == I.order_mod(I.int_matrix(pair.a), pair.modulus)
        checked += 1


def test_latpow_classes(built):
    for q in built["latpow-scan"]:
        if "pair" in q.facts:
            pair = q.facts["pair"]
            n = len(pair.a)
            edges = json.loads(W.STRATA.read_text())["dims"][str(n)]["edges"]
            assert q.label == f"latpow {W.pair_stratum(pair, edges)} d{n}"
            coprime = gcd(abs(pair.det), pair.modulus) == 1
            assert coprime != q.label.startswith("latpow obstruction"), q.label
        else:
            a, v, bound = q.facts["orbit"]
            x, returned = v, False
            for _ in range(bound):
                x = I.matvec(a, x)
                returned = returned or all(e.denominator == 1 for e in x)
            assert returned == ("orbit-return" in q.label), q.label


def test_latpow_weights_restore_the_stratum_shares(built):
    dims = json.loads(W.STRATA.read_text())["dims"]
    for n in (2, 3, 4):
        shares = dims[str(n)]["shares"]
        pairs = [q for q in built["latpow-scan"] if "pair" in q.facts and q.label.endswith(f" d{n}")]
        assert sum(q.weight for q in pairs) == pytest.approx(W.PAIRS_PER_DIM)
        for name, share in shares.items():
            members = [q for q in pairs if q.label == f"latpow {name} d{n}"]
            assert members, name
            assert sum(q.weight for q in members) == pytest.approx(W.PAIRS_PER_DIM * share)


def test_forced_decisions_agree_with_the_table(built):
    recorded = check.load_decisions()
    forced = [q for queries in built.values() for q in queries if "expect" in q.facts]
    assert len(forced) > 200
    for q in forced:
        assert recorded[q.label] in (q.facts["expect"], "failed", "unknown"), q.label


def test_weighted_quantile():
    import run

    assert run.weighted_quantile([3.0, 1.0, 2.0], [1, 1, 1], 0.5) == 2.0
    assert run.weighted_quantile([1.0, 2.0], [1, 1], 0.5) == 1.5
    # the heavier value holds more of the scale
    assert run.weighted_quantile([1.0, 5.0], [3, 1], 0.3) == 1.0
    assert run.weighted_quantile([1.0, 5.0], [3, 1], 0.5) < run.weighted_quantile([1.0, 5.0], [1, 1], 0.5)
    assert run.weighted_quantile([1.0, 5.0], [1, 1], 0.99) == 5.0


def test_pass_composition_does_not_depend_on_the_seed(tmp_path):
    labels = [
        [q.label for q in build(seed, W.WorkDir(tmp_path / f"{name}{seed}"), REPO)]
        for name, build in W.WORKLOADS.items()
        for seed in (1, 2)
    ]
    assert labels[0] == labels[1] and labels[2] == labels[3] and labels[4] == labels[5]


def test_decision_flips():
    assert check.is_flip("accept", "reject")
    assert check.is_flip("cn=true", "cn=false")
    assert not check.is_flip("unknown", "accept")
    assert not check.is_flip("cn=null", "cn=true")
    assert not check.is_flip(None, "reject")


def test_every_label_has_a_recorded_decision(built):
    recorded = check.load_decisions()
    for queries in built.values():
        for q in queries:
            assert q.label in recorded, q.label


def test_benchmark_json_names_the_metrics_run_prints():
    import run

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
