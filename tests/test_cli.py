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

    def test_non_monomial_holonomy_unknown(self):
        code, v, _ = run_cli("expand", "heisenberg3", "--prime", "2", "--holonomy", "heisenberg3_order3")
        assert code == 1
        assert v["decision"] == "unknown"

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
        "patch, message",
        [
            ("specmaps.is_expanding = lambda m: False", "phi_2 is not expanding"),
            ("cli.commutes_with_all = lambda m, group: False", "phi_2 does not commute with the holonomy group"),
        ],
    )
    def test_self_checks_survive_optimize(self, patch, message):
        code = (
            "import sys; from nilgrade import cli, specmaps; "
            f"sys.flags.optimize or sys.exit(3); {patch}; "
            "sys.exit(cli.main(['expand', 'heisenberg3', '--prime', '2']))"
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
        # factorisation for the profile and the grading, one bracket check
        calls = counted(monkeypatch, specmaps, "semisimple_part")
        counted(monkeypatch, matrices, "primary_decomposition", calls)
        counted(monkeypatch, liealg, "violated_bracket", calls, cli)
        path = ROOT / "tests" / "golden" / "maps" / f"{name}.json"
        code, v, _ = run_cli("norm", algebra, str(path))
        assert code == 0
        assert v["certificate"]["classification"] == classification
        assert calls == {"semisimple_part": 0, "primary_decomposition": 1, "violated_bracket": 1}


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
        # numpy is the one runtime dependency; sympy is installed for tests only
        code = (
            "import json, sys; before = set(sys.modules); import nilgrade.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))"
        )
        done = self._run("-c", code)
        assert done.returncode == 0
        assert json.loads(done.stdout) == ["nilgrade", "numpy"]

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
