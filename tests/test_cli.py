import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nilgrade import cli, grading, holonomy, liealg, matrices, specmaps
from nilgrade.cli import main
from nilgrade.fixtures import load_algebra
from nilgrade.latpow import LatticePowerCertificate
from nilgrade.serialize import algebra_to_dict
from test_liealg import direct_sum, heisenberg_of_dim


ROOT = Path(__file__).resolve().parent.parent
MAPS = ROOT / "src" / "nilgrade" / "fixtures" / "maps"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    out = buf.getvalue()
    verdict = json.loads(out) if out.strip() else None
    return code, verdict, out


def counted(monkeypatch, module, attr, calls=None, *aliases):
    """Count the calls of module.attr, also where `aliases` imported it."""
    calls = {} if calls is None else calls
    calls[attr] = 0
    fn = getattr(module, attr)

    def wrapper(*args):
        calls[attr] += 1
        return fn(*args)

    for m in (module, *aliases):
        monkeypatch.setattr(m, attr, wrapper)
    return calls


class TestCheck:
    def test_nilp5(self):
        code, v, _ = run_cli("check", "nilp5")
        assert code == 0
        assert v["certificate"]["nilpotency_class"] == 5
        assert v["certificate"]["characteristically_nilpotent"] is True

    def test_heisenberg(self):
        code, v, _ = run_cli("check", "heisenberg3")
        assert code == 0
        assert v["certificate"]["nilpotency_class"] == 2
        assert v["certificate"]["characteristically_nilpotent"] is False

    def test_heisenberg9_decided(self, tmp_path):
        f = tmp_path / "h9.json"
        f.write_text(json.dumps(algebra_to_dict(heisenberg_of_dim(9))))
        code, v, _ = run_cli("check", str(f))
        assert code == 0
        assert v["certificate"]["characteristically_nilpotent"] is False

    def test_truncated_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 3, "brackets": [')
        assert main(["check", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["check", "/nonexistent/nope.json"]) == 2
        capsys.readouterr()

    def test_invalid_algebra_exit_1(self, tmp_path):
        # sl2-like: Jacobi fine, not nilpotent
        data = {
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
                {"i": 1, "j": 3, "terms": [{"k": 1, "c": "-2"}]},
                {"i": 2, "j": 3, "terms": [{"k": 2, "c": "2"}]},
            ],
        }
        f = tmp_path / "sl2.json"
        f.write_text(json.dumps(data))
        code, v, _ = run_cli("check", str(f))
        assert code == 1
        assert v["condition"] == "not-nilpotent"


class TestGrade:
    def test_heisenberg_positive(self):
        code, v, _ = run_cli("grade", "heisenberg3")
        assert code == 0
        assert v["certificate"]["weights"] == [1, 1, 2]

    def test_notcohopf_positive_rejected(self):
        code, v, _ = run_cli("grade", "notcohopf", "--mode", "positive")
        assert code == 1
        assert v["condition"] == "basis-aligned-scope"
        assert v["certificate"]["solution_space_dim"] == 1

    def test_notcohopf_nonneg(self):
        code, v, _ = run_cli("grade", "notcohopf", "--mode", "nonneg")
        assert code == 0
        assert v["certificate"]["weights"] == [0, 1, 1, 1, 2, 2, 3]

    def test_nilp5_rejected_dim_0(self):
        code, v, _ = run_cli("grade", "nilp5", "--mode", "nonneg")
        assert code == 1
        assert v["certificate"]["solution_space_dim"] == 0


class TestExpand:
    def test_heisenberg_p2(self):
        code, v, _ = run_cli("expand", "heisenberg3", "--prime", "2")
        assert code == 0
        assert v["certificate"]["det"] == "16"
        assert v["certificate"]["det_exponent"] == 4
        assert v["certificate"]["phi_p"][0][0] == "2"

    def test_notcohopf_rejected(self):
        code, v, _ = run_cli("expand", "notcohopf", "--prime", "2")
        assert code == 1

    def test_with_holonomy(self):
        code, v, _ = run_cli("expand", "heisenberg3", "--prime", "3", "--holonomy", "heisenberg3_sign")
        assert code == 0
        assert v["certificate"]["det"] == "81"

    def test_non_monomial_holonomy_accepts(self, tmp_path):
        hol = ("--holonomy", "heisenberg3_order3")
        for cmd, cond in (("expand", "expinfra"), ("cohopf", "covinfra")):
            code, v, _ = run_cli(cmd, "heisenberg3", *hol)
            assert code == 0 and v["condition"] == f"{cond}-cond-2"
            assert v["certificate"]["weights"] == [1, 1, 2]
            assert v["certificate"]["phi_p"] == [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]]
            for key, replayed in (("grading", f"{cond}-cond-2"), ("phi_p", f"{cond}-cond-3")):
                cert = tmp_path / f"{cmd}-{key}.json"
                cert.write_text(json.dumps({key: v["certificate"][key]}))
                code2, v2, _ = run_cli(cmd, "heisenberg3", *hol, "--certificate", str(cert))
                assert (code2, v2["condition"]) == (0, replayed)

    def test_non_prime_exit_2(self, capsys):
        assert main(["expand", "heisenberg3", "--prime", "6"]) == 2
        capsys.readouterr()

    def test_mersenne_61_prime_finishes(self):
        # 2^61 - 1: trial division to its square root would take minutes
        code, v, _ = run_cli("expand", "heisenberg3", "--prime", "2305843009213693951")
        assert code == 0
        assert v["certificate"]["phi_p"][0][0] == "2305843009213693951"

    def test_prime_past_the_proof_limit_exit_2(self, capsys):
        assert main(["expand", "heisenberg3", "--prime", str(3_317_044_064_679_887_385_961_981 + 2)]) == 2
        assert "3317044064679887385961981" in capsys.readouterr().err

    def test_certificate_replay(self, tmp_path):
        code, v, _ = run_cli("expand", "heisenberg3", "--prime", "2")
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(v["certificate"]))
        code2, v2, _ = run_cli("expand", "heisenberg3", "--certificate", str(cert))
        assert code2 == 0
        assert v2["condition"] == "expinfra-cond-2"

    @pytest.mark.parametrize(
        "patch, message, argv",
        [
            pytest.param(
                "specmaps.is_expanding = lambda m: False",
                "phi_2 is not expanding",
                ["expand", "heisenberg3", "--prime", "2"],
                id="specmaps.is_expanding = lambda m: False-phi_2 is not expanding",
            ),
            pytest.param(
                "cli.commutes_with_all = lambda m, group: False",
                "phi_2 does not commute with the holonomy group",
                ["expand", "heisenberg3", "--prime", "2"],
                id="cli.commutes_with_all = lambda m, group: False-phi_2 does not commute with the holonomy group",
            ),
            pytest.param(
                "cli.commutes_with_all = lambda m, group: False",
                "phi_2 does not commute with the holonomy group",
                ["cohopf", "heisenberg3", "--holonomy", "heisenberg3_sign"],
                id="cohopf-phi_2 does not commute with the holonomy group",
            ),
        ],
    )
    def test_self_checks_survive_optimize(self, patch, message, argv):
        code = (
            "import sys; from nilgrade import cli, specmaps; "
            f"sys.flags.optimize or sys.exit(3); {patch}; "
            f"sys.exit(cli.main({argv!r}))"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 1 and done.stdout == ""
        assert f"RuntimeError: self-check failed: {message}" in done.stderr

    def test_matrix_certificate(self, tmp_path):
        cert = tmp_path / "m.json"
        cert.write_text(json.dumps([["2", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]]))
        code, v, _ = run_cli("expand", "heisenberg3", "--certificate", str(cert))
        assert code == 0
        assert v["condition"] == "expinfra-cond-3"


class TestCohopf:
    def test_nilp5_certified_cohopfian(self):
        code, v, _ = run_cli("cohopf", "nilp5")
        assert code == 1
        assert v["condition"] == "co-hopfian-characteristically-nilpotent"
        assert "characteristic nilpotency" in " ".join(v["diagnostics"])

    def test_nilp5_direct_sum_certified_cohopfian(self, tmp_path):
        n5 = load_algebra("nilp5")
        f = tmp_path / "nilp5x2.json"
        f.write_text(json.dumps(algebra_to_dict(direct_sum(n5, n5))))
        code, v, _ = run_cli("cohopf", str(f))
        assert code == 1
        assert v["condition"] == "co-hopfian-characteristically-nilpotent"
        assert v["certificate"] == {"derivation_dim": 24, "max_power": 14}

    def test_notcohopf_witnessed(self):
        code, v, _ = run_cli("cohopf", "notcohopf")
        assert code == 0
        assert "not co-Hopfian (witnessed)" in v["diagnostics"]
        assert v["certificate"]["det"] == "1024"

    def test_heisenberg_not_cohopfian(self):
        code, v, _ = run_cli("cohopf", "heisenberg3")
        assert code == 0

    def test_certificate_replay(self, tmp_path):
        code, v, _ = run_cli("cohopf", "notcohopf")
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(v["certificate"]))
        code2, v2, _ = run_cli("cohopf", "notcohopf", "--certificate", str(cert))
        assert code2 == 0
        assert v2["condition"] == "covinfra-cond-2"

    def test_phi_matrix_certificate(self, tmp_path):
        cert = tmp_path / "phi.json"
        phi = [["1"] + ["0"] * 6]
        diag = [1, 2, 2, 2, 4, 4, 8]
        rows = [[str(diag[i]) if i == j else "0" for j in range(7)] for i in range(7)]
        cert.write_text(json.dumps(rows))
        code, v, _ = run_cli("cohopf", "notcohopf", "--certificate", str(cert))
        assert code == 0
        assert v["condition"] == "covinfra-cond-3"


class TestNorm:
    def test_heisenberg_diag224(self, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps([["2", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]]))
        code, v, _ = run_cli("norm", "heisenberg3", str(m))
        assert code == 0
        assert v["certificate"]["profile"]["values"] == ["2", "2", "4"]
        assert v["certificate"]["classification"] == "positive"

    def test_notcohopf_phi(self, tmp_path):
        m = tmp_path / "phi.json"
        diag = [1, 2, 2, 2, 4, 4, 8]
        rows = [[str(diag[i]) if i == j else "0" for j in range(7)] for i in range(7)]
        m.write_text(json.dumps(rows))
        code, v, _ = run_cli("norm", "notcohopf", str(m))
        assert code == 0
        assert v["certificate"]["profile"]["values"] == ["1", "2", "2", "2", "4", "4", "8"]
        assert v["certificate"]["classification"] == "nonnegative-nontrivial"

    def test_non_automorphism_exit_1(self, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps([["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]]))
        code, v, _ = run_cli("norm", "heisenberg3", str(m))
        assert code == 1
        assert v["condition"] == "not-automorphism"
        assert v["certificate"]["violated_bracket"] == [1, 2]

    def test_extracted_grading_replays_through_cohopf(self, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps([["2", "0", "0"], ["0", "2", "0"], ["0", "0", "4"]]))
        _, v, _ = run_cli("norm", "heisenberg3", str(m))
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(v["certificate"]))
        code, v2, _ = run_cli("cohopf", "heisenberg3", "--certificate", str(cert))
        assert code == 0
        assert v2["condition"] == "covinfra-cond-2"

    def test_selfcover_without_value_one_class(self, tmp_path):
        # charpoly x^2 - 3x - 3: one norm class, of value 3, so the
        # extracted grading is positive, which is non-negative too
        alg = tmp_path / "a2.json"
        alg.write_text(json.dumps({"dim": 2, "brackets": []}))
        m = tmp_path / "m.json"
        m.write_text(json.dumps([["0", "3"], ["1", "3"]]))
        code, v, _ = run_cli("norm", str(alg), str(m))
        assert code == 0
        assert v["certificate"]["classification"] == "nonnegative-nontrivial"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(v["certificate"]))
        code, v2, _ = run_cli("cohopf", str(alg), "--certificate", str(cert))
        assert code == 0
        assert v2["condition"] == "covinfra-cond-2"

    @pytest.mark.parametrize(
        "algebra, name, classification",
        [("heisenberg3", "heisenberg3__jordan224", "positive"), ("abelian3", "abelian3__jordan112", "nonnegative-nontrivial")],
    )
    def test_one_spectral_pass(self, monkeypatch, algebra, name, classification):
        # a non-semisimple map is profiled as it is: no semisimple part, one
        # factorisation for the profile and the grading, one bracket check,
        # and one charpoly that the semisimple, expanding and Z[X] tests share
        calls = counted(monkeypatch, specmaps, "semisimple_part")
        counted(monkeypatch, matrices, "primary_decomposition", calls)
        counted(monkeypatch, matrices, "charpoly", calls)
        counted(monkeypatch, liealg, "violated_bracket", calls, cli)
        path = ROOT / "tests" / "golden" / "maps" / f"{name}.json"
        code, v, _ = run_cli("norm", algebra, str(path))
        assert code == 0
        assert v["certificate"]["classification"] == classification
        assert calls == {"semisimple_part": 0, "primary_decomposition": 1, "charpoly": 1, "violated_bracket": 1}


class TestWitnessTraffic:
    """A grading's witnesses read its one inverse."""

    @pytest.mark.parametrize("argv", [["expand", "filiform5"], ["expand", "heisenberg5", "--prime", "3"], ["cohopf", "notcohopf"]])
    def test_one_inverse_per_accept(self, monkeypatch, argv):
        # verify_grading re-bases with it and phi_p multiplies by its int rows
        calls = counted(monkeypatch, matrices, "inverse")
        counted(monkeypatch, matrices, "matmul", calls)
        code, v, _ = run_cli(*argv)
        assert (code, v["decision"]) == (0, "accept")
        assert calls == {"inverse": 1, "matmul": 0}

    @pytest.mark.parametrize(
        "algebra, path",
        [
            ("heisenberg3", ROOT / "tests" / "golden" / "maps" / "heisenberg3__jordan224.json"),
            ("abelian3", ROOT / "tests" / "golden" / "maps" / "abelian3__jordan112.json"),
            ("heisenberg3", MAPS / "heisenberg3__diag122.json"),
            ("heisenberg3", MAPS / "heisenberg3__diag224.json"),
            ("heisenberg3", MAPS / "heisenberg3__diag236.json"),
        ],
        ids=lambda x: getattr(x, "stem", x),
    )
    def test_norm_rebases_once(self, monkeypatch, algebra, path):
        # the weights and the homogeneity guard read one re-based algebra,
        # and the preservation test reads the inverse that re-based it
        calls = counted(monkeypatch, liealg.LieAlgebra, "in_basis")
        counted(monkeypatch, matrices, "inverse", calls)
        code, v, _ = run_cli("norm", algebra, str(path))
        assert code == 0 and "grading" in v["certificate"]
        assert calls == {"in_basis": 1, "inverse": 1}

class TestLatpow:
    def test_power_certificate(self, tmp_path):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"A": [["3", "0"], ["0", "1"]], "lattice": [["1/2", "0"], ["0", "1"]]}))
        code, v, _ = run_cli("latpow", str(f))
        assert code == 0
        assert v["certificate"]["k"] == 1
        assert v["certificate"]["modulus"] == 2

    def test_obstruction(self, tmp_path):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"A": [["2", "0"], ["0", "1"]], "lattice": [["1/2", "0"], ["0", "1"]]}))
        code, v, _ = run_cli("latpow", str(f))
        assert code == 1
        assert v["certificate"]["prime"] == 2

    def test_orbit_mode(self, tmp_path):
        f = tmp_path / "in.json"
        f.write_text(
            json.dumps(
                {"A": [["1/2", "1/2"], ["-3/2", "5/2"]], "v": ["0", "1"], "bound": 64}
            )
        )
        code, v, _ = run_cli("latpow", str(f))
        assert code == 0
        assert v["condition"] == "orbit-escapes"

    def test_orbit_bound_flag_overrides(self, tmp_path):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"A": [["5/2", "1/2"], ["1/2", "1/2"]], "v": ["1", "0"]}))
        code, v, _ = run_cli("latpow", str(f), "--bound", "3")
        assert code == 1
        assert v["certificate"]["integral_k"] == [3]

    @pytest.mark.parametrize("bound", ["8", 8.0, True])
    def test_orbit_bound_must_be_an_int(self, tmp_path, capsys, bound):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"A": [["5/2", "1/2"], ["1/2", "1/2"]], "v": ["1", "0"], "bound": bound}))
        code, v, _ = run_cli("latpow", str(f))
        assert code == 2
        assert v is None
        assert '"bound" must be a positive integer' in capsys.readouterr().err

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        f = tmp_path / "in.json"
        a = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        f.write_text(json.dumps({"A": a, "lattice": [["1/2", "0"], ["0", "1"]]}))
        code, v, _ = run_cli("latpow", str(f))
        assert code == 2
        err = capsys.readouterr().err
        assert "(3, 3)" in err and "dimension 2" in err

    def test_unprintable_certificate_exit_2_without_building_it(self, tmp_path, capsys, monkeypatch):
        def unbuilt(cert):
            raise AssertionError("P^-1 A^k P built")

        monkeypatch.setattr(LatticePowerCertificate, "conjugated_power", property(unbuilt))
        f = tmp_path / "in.json"
        a = [["0", "0", "1"], ["1", "0", "1"], ["0", "1", "0"]]  # companion of x^3 - x - 1
        lattice = [["1/1013", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        f.write_text(json.dumps({"A": a, "lattice": lattice}))
        code, v, _ = run_cli("latpow", str(f))
        assert code == 2
        assert v is None
        assert "Exceeds the limit" in capsys.readouterr().err


class TestGradingReplay:
    @pytest.mark.parametrize("command", ["expand", "cohopf"])
    @pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "tests" / "golden" / "gradings").glob("*.json")))
    def test_one_verification_per_replay(self, monkeypatch, command, name):
        calls = counted(monkeypatch, grading, "verify_grading", None, holonomy)
        path = ROOT / "tests" / "golden" / "gradings" / name
        code, _, _ = run_cli(command, name.split("__")[0], "--certificate", str(path))
        assert code in (0, 1)
        assert calls == {"verify_grading": 1}


BOOLEAN_INPUTS = {
    "dim": ("check", {"dim": True}),
    "i": ("check", {"dim": 3, "brackets": [{"i": True, "j": 2, "terms": [{"k": 3, "c": "1"}]}]}),
    "k": ("check", {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": True, "c": "1"}]}]}),
    "c": ("check", {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": True}]}]}),
    "weight": (
        "expand",
        {"components": [{"weight": True, "basis": [["1", "0", "0"], ["0", "1", "0"]]}, {"weight": 2, "basis": [["0", "0", "1"]]}]},
    ),
    "weights": ("cohopf", {"weights": [True, True, 2]}),
    "cap": ("holonomy", {"generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]], "cap": True}),
    "matrix entry": ("norm", [[True, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
}


class TestJsonBooleans:
    """JSON true and false are not the integers 1 and 0 in any input."""

    @pytest.mark.parametrize("field", sorted(BOOLEAN_INPUTS))
    def test_rejected_with_exit_2(self, tmp_path, capsys, field):
        kind, data = BOOLEAN_INPUTS[field]
        f = tmp_path / "in.json"
        f.write_text(json.dumps(data))
        argv = {
            "check": ["check", str(f)],
            "expand": ["expand", "heisenberg3", "--certificate", str(f)],
            "cohopf": ["cohopf", "heisenberg3", "--certificate", str(f)],
            "holonomy": ["expand", "heisenberg3", "--holonomy", str(f)],
            "norm": ["norm", "heisenberg3", str(f)],
        }[kind]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error:" in out.err


MALFORMED_SHAPES = {
    "brackets not an array": ("check", {"dim": 2, "brackets": 5}),
    "terms not an array": ("check", {"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": 7}]}),
    "term not an object": ("check", {"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": [[1, "1"]]}]}),
    "generators not an array": ("holonomy", {"generators": 5}),
    "generators null": ("holonomy", {"generators": None}),
    "components not an array": ("cohopf", {"components": 5}),
    "basis not an array": ("cohopf", {"components": [{"weight": 1, "basis": 5}]}),
    "basis vectors of unequal length": ("cohopf", {"components": [{"weight": 1, "basis": [["1", "0", "0"], ["0", "1"]]}]}),
}


class TestMalformedShapes:
    """A JSON value of the wrong shape is an input error (exit 2), not a crash."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_SHAPES))
    def test_rejected_with_exit_2(self, tmp_path, capsys, case):
        kind, data = MALFORMED_SHAPES[case]
        f = tmp_path / "in.json"
        f.write_text(json.dumps(data))
        argv = {
            "check": ["check", str(f)],
            "holonomy": ["cohopf", "heisenberg3", "--holonomy", str(f)],
            "cohopf": ["cohopf", "heisenberg3", "--certificate", str(f)],
        }[kind]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "malformed input" in out.err and "Traceback" not in out.err


MALFORMED_ALGEBRAS = {
    "not an object": ([], "algebra file must contain a JSON object"),
    "dim": ({"dim": 0}, '"dim" must be a positive integer'),
    "indices": ({"dim": 2, "brackets": [{"i": 2, "j": 1}]}, "bracket indices must satisfy 1 <= i < j <= dim, got (2, 1)"),
    "duplicate": ({"dim": 2, "brackets": [{"i": 1, "j": 2}, {"i": 1, "j": 2, "terms": []}]}, "duplicate bracket (1, 2)"),
    "target": ({"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}]}, "bracket (1, 2) has target index 3 out of range"),
    "rational": ({"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "c": "1/0"}]}]}, "cannot parse rational '1/0'"),
    "float": ({"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "c": 0.5}]}]}, "rational entries must be strings or integers, got float"),
    "digits": ({"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 1, "c": "7" * 5000}]}]}, f"cannot parse rational {'7' * 5000!r}"),
    "constant before index": (
        {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1/x"}]}, {"i": 2, "j": 1, "terms": []}]},
        "cannot parse rational '1/x'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ALGEBRAS))
def test_malformed_algebra_message(tmp_path, capsys, case):
    data, message = MALFORMED_ALGEBRAS[case]
    f = tmp_path / "a.json"
    f.write_text(json.dumps(data))
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr().err == f"error: {f}: malformed input: {message}\n"

class TestDirectoryPath:
    """An input path that names a directory is an input error (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "{d}"],
            ["expand", "heisenberg3", "--holonomy", "{d}"],
            ["cohopf", "heisenberg3", "--certificate", "{d}"],
            ["norm", "heisenberg3", "{d}"],
            ["latpow", "{d}"],
        ],
        ids=["algebra", "holonomy", "certificate", "norm-matrix", "latpow-input"],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, argv):
        assert main([a.format(d=tmp_path) for a in argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: cannot open {tmp_path}\n"


class TestHolonomyDimension:
    """A holonomy group of the wrong size is an input error, also when all
    its generators are the identity and so none is left to test."""

    @pytest.mark.parametrize("gen", [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]], ids=["identity", "swap"])
    @pytest.mark.parametrize("cmd", [["expand"], ["cohopf"], ["expand", "--certificate", str(MAPS / "heisenberg3__diag224.json")]], ids=" ".join)
    def test_rejected_with_exit_2(self, tmp_path, capsys, gen, cmd):
        f = tmp_path / "hol.json"
        f.write_text(json.dumps({"generators": [gen]}))
        assert main([cmd[0], "heisenberg3", "--holonomy", str(f)] + cmd[1:]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {f}: matrix dimension mismatch\n"


class TestHolonomyChecks:
    """Each generator of a loaded group is tested once, on the search and
    the replay path alike, and an invalid group is an input error."""

    HOLONOMY = str(ROOT / "tests" / "golden" / "holonomy" / "heisenberg3_order3_swap_sign.json")
    GRADING = str(ROOT / "tests" / "golden" / "gradings" / "heisenberg3__symmetric.json")

    @pytest.mark.parametrize("cmd", [["expand"], ["cohopf"], ["expand", "--certificate", GRADING], ["cohopf", "--certificate", GRADING]], ids=" ".join)
    def test_one_check_per_generator(self, monkeypatch, cmd):
        calls = counted(monkeypatch, holonomy, "is_automorphism")
        code, _, _ = run_cli(cmd[0], "heisenberg3", "--holonomy", self.HOLONOMY, *cmd[1:])
        assert code == 0
        assert calls == {"is_automorphism": 3}

    @pytest.mark.parametrize("cmd", [["expand"], ["cohopf"], ["expand", "--certificate", GRADING], ["cohopf", "--certificate", str(MAPS / "heisenberg3__diag224.json")]], ids=" ".join)
    def test_invalid_group_exit_2(self, tmp_path, capsys, cmd):
        f = tmp_path / "hol.json"
        f.write_text(json.dumps({"generators": [[["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]]}))
        assert main([cmd[0], "heisenberg3", "--holonomy", str(f)] + cmd[1:]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {f}: holonomy elements are not automorphisms of the algebra\n"

class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        for argv in (
            ["check", "nilp5"],
            ["grade", "notcohopf", "--mode", "nonneg"],
            ["cohopf", "notcohopf", "--json"],
        ):
            _, _, out1 = run_cli(*argv)
            _, _, out2 = run_cli(*argv)
            assert out1 == out2


class TestStdout:
    """Nothing but the verdict reaches stdout: a caller that reads the
    output whole, or takes its last line, must find exactly one JSON value."""

    def _run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)

    def test_import_is_silent(self):
        done = self._run("-c", "import nilgrade, nilgrade.cli")
        assert done.returncode == 0
        assert (done.stdout, done.stderr) == ("", "")

    def test_import_loads_no_third_party_module(self):
        # nilgrade has no runtime dependency; numpy and sympy are installed for tests only
        code = (
            "import json, sys; before = set(sys.modules); import nilgrade.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))"
        )
        done = self._run("-c", code)
        assert done.returncode == 0
        assert json.loads(done.stdout) == ["nilgrade"]

    def test_every_subcommand_runs_without_numpy(self, tmp_path):
        # one query of each subcommand, in a fresh interpreter: no path
        # imports numpy, not even on first use
        orbit = tmp_path / "orbit.json"
        orbit.write_text(json.dumps({"A": [["1/2", "1/2"], ["-3/2", "5/2"]], "v": ["0", "1"], "bound": 8}))
        argvs = [
            ["check", "nilp5"],
            ["grade", "notcohopf", "--mode", "nonneg"],
            ["expand", "heisenberg3", "--holonomy", "heisenberg3_swap"],
            ["cohopf", "notcohopf"],
            ["norm", "heisenberg3", str(MAPS / "heisenberg3__diag224.json")],
            ["latpow", str(ROOT / "tests" / "golden" / "latpow" / "readme-lattice.json")],
            ["latpow", str(orbit)],
        ]
        code = (
            "import contextlib, io, json, sys; from nilgrade import cli; codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "print(json.dumps([codes, 'numpy' in sys.modules]))"
        )
        done = self._run("-c", code, json.dumps(argvs))
        assert done.returncode == 0, done.stderr
        codes, loaded = json.loads(done.stdout)
        assert codes == [0] * len(argvs)
        assert not loaded

    def test_check_prints_one_json_verdict(self):
        done = self._run("-m", "nilgrade.cli", "check", "heisenberg3")
        assert done.returncode == 0
        assert json.loads(done.stdout)["decision"] == "accept"
        assert done.stdout.startswith("{") and done.stdout.endswith("}\n")
        assert done.stderr == ""


class TestFixtureEnvOverride:
    def test_env_var_redirects_corpus(self, tmp_path, monkeypatch):
        custom = tmp_path / "corpus"
        custom.mkdir()
        (custom / "tiny.json").write_text(json.dumps({"dim": 1, "brackets": []}))
        monkeypatch.setenv("NILGRADE_FIXTURES", str(custom))
        code, v, _ = run_cli("check", "tiny")
        assert code == 0
        assert v["certificate"]["dim"] == 1
