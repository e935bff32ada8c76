import json
import resource
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from siegel3 import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_eval_power(capsys):
    code, payload = run_json(
        capsys, "eval-power", "--s", "1", "--w", "1", "--u", "1",
        "--z", "2j,0,0,2j,0,2j",
    )
    assert code == 0
    assert abs(payload["value"]["re"] + 64.0) < 1e-10
    assert abs(payload["value"]["im"]) < 1e-10


def test_eval_gamma3(capsys):
    code, payload = run_json(capsys, "eval-gamma3", "--s", "0", "--w", "0", "--u", "2")
    assert code == 0
    assert abs(payload["value"]["re"] + 4.934802200544679) < 1e-12


def test_fe_group(capsys):
    code, payload = run_json(capsys, "fe-group")
    assert code == 0
    assert payload["order"] == 12
    assert payload["dihedral"] is True
    assert payload["order_of_aw"] == 6


def test_fe_group_dot_output(capsys, tmp_path):
    dot = tmp_path / "cayley.dot"
    code, payload = run_json(capsys, "fe-group", "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph cayley")


def test_reduce_and_eps(capsys):
    code, payload = run_json(capsys, "reduce", "--form", "3,2,1,0,0,0")
    assert code == 0
    assert payload["form"] == [1, 2, 3, 0, 0, 0]
    code, payload = run_json(capsys, "eps", "--form", "1,1,1,0,0,0")
    assert code == 0 and payload["eps"] == 24


def test_classes_csv(capsys):
    code, out = run(capsys, "classes", "--det-bound", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t1,t2,t3,b12,b13,b23,det_num,det_den,eps"
    assert len(lines) == 4  # three classes up to determinant 1


def test_verify_claim1_pass_and_fail(capsys):
    code, payload = run_json(capsys, "verify-claim1", "--samples", "50", "--seed", "7")
    assert code == 0 and payload["pass"] is True
    code, payload = run_json(
        capsys, "verify-claim1", "--samples", "5", "--tol", "1e-30"
    )
    assert code == 2 and payload["pass"] is False


def test_verify_lemma_int(capsys):
    code, payload = run_json(capsys, "verify-lemma-int", "--samples", "2")
    assert code == 0 and payload["worst_gap"] <= 1e-8


def test_classical_lipschitz(capsys):
    code, payload = run_json(
        capsys, "classical-lipschitz", "--tau", "1j", "--s", "2", "--bound", "2000"
    )
    assert code == 0
    assert abs(payload["closed_form"]["re"] + 0.0739998067544724) < 1e-12
    assert payload["trace_bound"] == 2000  # the Fourier side's forms T = m <= N


@pytest.mark.parametrize("argv,ref", [
    # Gamma(180) overflows a double, Gamma3 does not
    (["--s", "179", "--w", "101.5", "--u", "-100.5"], 2.57359762468521e167 * (1 + 1j)),
    # three Gammas ~1e-212, their product ~1e-636 against e^(i pi sigma/2) ~ e^1414
    (["--s", "0", "--w", "0", "--u=-2-300j"], 4.446126855263826e-21 - 2.791853695480591e-22j),
], ids=["s=179", "u=-2-300j"])
def test_eval_gamma3_where_a_gamma_factor_leaves_the_double_range(capsys, argv, ref):
    code = cli.main(["eval-gamma3", *argv])
    out, err = capsys.readouterr()
    value = json.loads(out)["value"]
    assert code == 0 and err == ""
    assert abs(complex(value["re"], value["im"]) - ref) <= 1e-12 * abs(ref)


def test_classical_lipschitz_where_gamma_overflows(capsys):
    # Gamma(172) ~ 1e309 overflows a double; (-2 pi i)^s / Gamma(s) ~ e^-391 does not,
    # and both sides are ~ i^-172 = 1
    code, payload = run_json(capsys, "classical-lipschitz", "--tau", "1j", "--s", "172")
    assert code == 0 and payload["relative_gap"] <= 1e-12
    assert abs(payload["lhs"]["re"] - 1) <= 1e-12


def test_verify_lipschitz_small(capsys):
    code, payload = run_json(
        capsys, "verify-lipschitz", "--max-abs", "4", "--trace-bound", "9",
        "--tail-correction", "--tol", "1e-3",
    )
    assert code == 0
    assert payload["relative_gap"] <= 1e-3


def test_verify_lipschitz_one_term_has_no_tail_estimate(capsys):
    code, payload = run_json(capsys, "verify-lipschitz", "--max-abs", "0", "--trace-bound", "3")
    assert code == cli.VERIFY_FAIL_EXIT and payload["lhs_terms"] == 1
    assert payload["lhs_tail_estimate"] is None


def test_eval_eisenstein_and_epstein(capsys):
    code, payload = run_json(
        capsys, "eval-eisenstein", "--form", "1,1,1,0,0,0",
        "--s", "2", "--w", "2", "--u", "0", "--bound", "4",
    )
    assert code == 0 and payload["terms_used"] > 0
    code, payload = run_json(
        capsys, "eval-epstein", "--y", "1,0,1", "--s", "2", "--bound", "10000"
    )
    assert code == 0
    assert abs(payload["value"]["re"] - 3.013406) < 1e-3


def test_verify_zetastar(capsys):
    code, payload = run_json(
        capsys, "verify-zetastar", "--s", "3.0", "--tau", "1j", "--bound", "4e4"
    )
    assert code == 0 and payload["residual"] <= 1e-8


def test_eval_km(capsys):
    code, payload = run_json(
        capsys, "eval-km", "--coeffs", "ones", "--s", "16", "--det-bound", "2"
    )
    assert code == 0 and payload["classes_used"] == 9
    code, payload = run_json(
        capsys, "eval-km-twisted", "--coeffs", "det_power:0.5", "--s", "2",
        "--w", "2", "--u", "14", "--det-bound", "1", "--bound", "6",
    )
    assert code == 0 and payload["classes_used"] == 3


def test_enum_and_complete_pair(capsys):
    code, payload = run_json(capsys, "enum-pairs", "--max-abs", "1")
    assert code == 0 and payload["count"] == 1096
    code, payload = run_json(
        capsys, "complete-pair", "--c", "0,0,0,0,0,0,0,0,0",
        "--d", "1,0,0,0,1,0,0,0,1",
    )
    assert code == 0
    assert payload["symplectic"][0][:3] == [1, 0, 0]


def test_eval_poincare_and_kernel(capsys):
    code, payload = run_json(
        capsys, "eval-poincare", "--k", "24", "--form", "1,1,1,0,0,0",
        "--z", "4j,0,0,4j,0,4j", "--max-abs", "1",
    )
    assert code == 0 and payload["terms_used"] > 0
    code, payload = run_json(
        capsys, "eval-kernel", "--k", "24", "--s", "2", "--w", "4", "--u", "5",
        "--z", "1j,0,0,1j,0,1j", "--det-bound", "1", "--bound", "6", "--max-abs", "1",
    )
    assert code == 0 and payload["classes_used"] == 3


def test_classes_csv_empty_prints_header(capsys):
    code, out = run(capsys, "classes", "--det-bound", "1/4", "--format", "csv")
    assert code == 0
    assert out == "t1,t2,t3,b12,b13,b23,det_num,det_den,eps\n"


# the exact layers' payloads, recorded once; later changes must keep them
GOLDEN = {
    "reduce.out": ["reduce", "--form", "3,2,1,0,0,0"],
    "classes_csv.out": ["classes", "--det-bound", "10", "--format", "csv"],
    "eps.out": ["eps", "--form", "1,1,1,0,0,0"],
    "enum_pairs_list.out": ["enum-pairs", "--max-abs", "1", "--list"],
    "complete_pair.out": ["complete-pair", "--c", "0,0,0,0,0,0,0,0,0",
                          "--d", "1,0,0,0,1,0,0,0,1"],
    # an entry past int64: the completion runs on exact Python ints
    "complete_pair_big.out": ["complete-pair", "--c", "1,0,0,0,1,0,0,0,1",
                              "--d", "100000000000000000000000,7,0,7,0,0,0,0,0"],
    "fe_group.out": ["fe-group"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exact_payload_matches_golden(capsys, name):
    code, out = run(capsys, *GOLDEN[name])
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / name).read_bytes()


Z1 = "1j,0,0,1j,0,1j"

# bad input is refused by the parse layer, before any computation starts
USAGE_ERRORS = [
    ["eval-power", "--s", "nan", "--w", "1", "--u", "1", "--z", Z1],
    ["eval-power", "--s", "1", "--w", "1", "--u", "1", "--z", "2j,abc,0,2j,0,2j"],
    ["eval-gamma3", "--s", "inf", "--w", "0", "--u", "2"],
    ["verify-claim1", "--samples", "0"],
    ["verify-claim1", "--samples", "5", "--tol", "nan"],
    ["verify-lemma-int", "--samples", "0"],
    ["verify-lipschitz", "--max-abs", "-1"],
    ["verify-lipschitz", "--trace-bound", "2"],
    ["classical-lipschitz", "--tau", "1j", "--bound", "0"],
    ["classical-lipschitz", "--tau", "nan+1j"],
    ["verify-zetastar", "--bound", "0"],
    ["eval-epstein", "--y", "1,0,1", "--s", "2", "--bound", "0"],
    ["eval-eisenstein", "--form", "1,1,1,0,0,0", "--s", "2", "--w", "2", "--u", "0",
     "--bound", "0"],
    ["eval-poincare", "--form", "1,1,1,0,0,0", "--z", Z1, "--max-abs", "0"],
    ["enum-pairs", "--max-abs", "0"],
    ["eval-kernel", "--s", "2", "--w", "4", "--u", "5", "--z", Z1, "--max-abs", "0"],
    ["classes", "--det-bound", "0"],
    ["eval-km", "--s", "16", "--det-bound", "0"],
    # a flag the command does not read
    ["eval-eisenstein", "--form", "1,1,1,0,0,0", "--s", "2", "--w", "2", "--u", "0",
     "--format", "csv"],
    ["fe-group", "--k", "24"],
    ["eps", "--form", "1,1,1,0,0,0", "--seed", "1"],
    ["reduce", "--form", "3,2,1,0,0,0", "--tol", "1e-3"],
]


REJECTED = [(argv, "usage error:") for argv in USAGE_ERRORS] + [
    (["eval-gamma3", "--s", "200", "--w", "0", "--u", "2"], "input error:"),  # overflow
    # the weight is checked by the library, also when no class is summed
    (["eval-poincare", "--k", "23", "--form", "1,1,1,0,0,0", "--z", Z1], "input error:"),
    (["eval-kernel", "--k", "6", "--s", "2", "--w", "4", "--u", "5", "--z", Z1,
      "--det-bound", "1/4"], "input error: need even k"),
    # work above the ceiling is refused before anything is allocated
    (["verify-lipschitz", "--max-abs", "40"], "input error:"),
    (["verify-lipschitz", "--max-abs", "1", "--trace-bound", "100"], "input error:"),
    (["eval-eisenstein", "--form", "1,1,1,0,0,0", "--s", "3", "--w", "3", "--u", "3",
      "--bound", "1e9"], "input error:"),  # ~1.3e14 short vectors
    (["eval-eisenstein", "--form", "1,1,1,0,0,0", "--s", "3", "--w", "3", "--u", "3",
      "--bound", "1e15"], "input error:"),  # 6e7 values of v3, refused before the next level
    (["eval-eisenstein", "--form", "1,1,1,0,0,0", "--s", "3", "--w", "3", "--u", "3",
      "--bound", "2000"], "input error:"),  # 155,833^2 ~ 2.4e10 flag candidates
    (["eval-eisenstein", "--form", "1,1,1,0,0,0", "--s", "3", "--w", "3", "--u", "3",
      "--bound", "2e5"], "input error:"),  # ~3.8e8 short vectors, above MAX_BALL rows
    (["eval-epstein", "--y", "1,0,1", "--s", "2", "--bound", "1e9"], "input error:"),  # 4e9 grid
    (["eps", "--form", "1,1,-1,0,0,0"], "input error: form is not positive definite"),
    # 1.2e10 HNF candidates, counted before any is built
    (["enum-pairs", "--max-abs", "3"], "input error:"),
    (["eval-poincare", "--form", "1,1,1,0,0,0", "--z", Z1, "--max-abs", "3"], "input error:"),
    (["eval-kernel", "--s", "2", "--w", "4", "--u", "5", "--z", Z1, "--max-abs", "3"],
     "input error:"),
    # a class box above MAX_WORK candidate forms, counted before any reduction
    (["classes", "--det-bound", "1e9"], "input error:"),
    (["eval-km", "--s", "30", "--det-bound", "1e9"], "input error:"),
    # a truncation with no class: no vacuous value 0
    (["eval-km", "--s", "3", "--det-bound", "1/4"], "input error: empty truncation"),
    (["eval-kernel", "--s", "2", "--w", "4", "--u", "5", "--z", Z1, "--det-bound", "1/4"],
     "input error: empty truncation"),
    (["eval-km-twisted", "--s", "3", "--w", "3", "--u", "20", "--det-bound", "1/4"],
     "input error: empty truncation"),
    # a non-finite coefficient exponent: no NaN payload
    (["eval-km", "--coeffs", "det_power:nan", "--s", "16", "--det-bound", "2"], "input error:"),
    (["eval-km", "--coeffs", "det_power:inf", "--s", "16", "--det-bound", "2"], "input error:"),
    # a Bessel order outside |Re nu|, |Im nu| <= 10, where the quadrature aliases
    (["verify-zetastar", "--s", "2.3+40j", "--tau", "0.3+1.7j", "--bound", "1000"],
     "input error:"),
    # the Bessel order is checked first: Gamma(s-1/2) and Gamma(s) both underflow here
    (["verify-zetastar", "--s", "2+500j"], "input error:"),
    # the pole s = 1 is refused before the integral tail divides by s - 1
    (["verify-zetastar", "--s", "1"], "input error: zeta pole"),
    # finite exponents whose power overflows: no NaN payload
    (["eval-power", "--s", "2.5", "--w", "4", "--u", "1e308", "--z", Z1], "input error:"),
    # Z = 0 is no Siegel point: the stacked Mobius action refuses the table
    (["eval-poincare", "--form", "1,1,1,0,0,0", "--z", "0,0,0,0,0,0"],
     "input error: C Z + D is numerically singular"),
    # the exact f-direction sum needs Im Z > 0 (det Z_2 vanishes here)
    (["verify-lipschitz", "--max-abs", "1", "--z=-1j,0,0,1j,0,1j", "--tail-correction"],
     "input error:"),
    # finite input whose truncated sum overflows: no NaN or inf payload
    (["eval-eisenstein", "--form", "2,1,1,0,0,0", "--s", "3", "--w", "3", "--u", "-2000",
      "--bound", "4"], "input error:"),
    (["eval-epstein", "--y", "1,0,1", "--s", "-200", "--bound", "100"], "input error:"),
    (["eval-poincare", "--k", "400", "--form", "1,1,1,0,0,0", "--z", "0.01j,0,0,0.01j,0,0.01j"],
     "input error:"),
    (["eval-kernel", "--s", "1", "--w", "60", "--u", "100", "--z", Z1, "--k", "32",
      "--det-bound", "1", "--bound", "4"], "input error:"),
    (["eval-gamma3", "--s", "0", "--w", "0", "--u", "100"], "input error:"),  # ~1e465
    (["eval-km", "--s", "-400", "--det-bound", "10"], "input error:"),
    (["eval-km", "--s", "1e300", "--det-bound", "2"], "input error:"),
    (["classical-lipschitz", "--tau", "1j", "--s", "2+1000j", "--bound", "10"], "input error:"),
    # the integral tails of the classical formula divide by s - 1
    (["classical-lipschitz", "--tau", "1j", "--s", "1"], "input error:"),
]


def _refused_eisenstein_peak_rss(bound):
    """Peak RSS (KiB) of an eval-eisenstein child that must exit 1 with an input
    error.  The child is started from a small helper that reads it back: a
    spawned process starts from its parent's peak, here the test runner's."""
    helper = ("import resource, subprocess, sys\n"
              "p = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)\n"
              "print(p.returncode, p.stderr.startswith(b'input error:'),"
              " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    argv = [sys.executable, "-m", "siegel3.cli", "eval-eisenstein", "--form", "1,1,1,0,0,0",
            "--s", "3", "--w", "3", "--u", "3", "--bound", bound]
    code, input_error, rss = subprocess.run([sys.executable, "-c", helper, *argv], check=True,
                                            capture_output=True, text=True).stdout.split()
    assert (code, input_error) == ("1", "True")
    return int(rss)


def test_ball_above_the_ceiling_is_refused_before_it_is_built():
    # 12 GB of rows at 32 B each; the child's own peak RSS shows none was built
    assert _refused_eisenstein_peak_rss("2e5") < 400 * 1024


def test_flag_product_above_the_ceiling_is_refused_before_a_ball_is_built():
    # each ball counts ~1.6e7 leaves (~500 MB of rows), their product ~6e13 candidate pairs
    assert _refused_eisenstein_peak_rss("24000") < 200 * 1024


def _run_capped(*argv):
    """Exit code and stderr of a child under a 2 GiB address-space cap: an
    allocation of gigabytes fails there at once instead of paging."""
    cap = (2 << 30, 2 << 30)
    out = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap))
    return out.returncode, out.stderr


def test_huge_zeta_height_is_refused_before_the_sum_is_built():
    # the Euler-Maclaurin array of 0.8 |Im s| terms would be 5.96 GiB
    code, err = _run_capped("-c", "from siegel3.specfun import complex_zeta\n"
                                  "complex_zeta(0.5 + 1e9j)")
    assert code == 1 and err.splitlines()[-1].startswith("siegel3.errors.DomainError:")
    # the Epstein and zeta sums of verify-zetastar would ask for 11.9 GiB
    code, err = _run_capped("-m", "siegel3.cli", "verify-zetastar", "--s", "2+1e9j")
    assert code == 1 and err.startswith("input error:") and len(err.splitlines()) == 1


def test_cold_start_imports_no_scipy():
    # numpy is the only runtime dependency; scipy.integrate alone takes ~0.65 s to import
    code = ("import importlib, pkgutil, sys, siegel3, siegel3.cli\n"
            "for m in pkgutil.iter_modules(siegel3.__path__):\n"
            "    importlib.import_module('siegel3.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _no_constants(name):
    raise ValueError("non-finite JSON constant %s" % name)


@pytest.mark.parametrize("argv,prefix", REJECTED, ids=[" ".join(a) for a, _ in REJECTED])
def test_bad_input_is_rejected(capsys, argv, prefix):
    # a refusal prints only its message: no numpy RuntimeWarning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert err.startswith(prefix) and "Traceback" not in err
    if out:
        json.loads(out, parse_constant=_no_constants)


def test_non_finite_values_serialize_as_strings(capsys):
    cli.emit({"value": complex(float("nan"), float("-inf")), "x": np.float64("inf")})
    out = capsys.readouterr().out
    assert json.loads(out, parse_constant=_no_constants) == {
        "value": {"re": "nan", "im": "-inf"}, "x": "inf"}


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval-power", "--s", "1", "--w", "1"])  # missing --u/--z
    assert exc.value.code == 1


def test_input_error_exit_code(capsys):
    code = cli.main(["eval-km", "--coeffs", "/nonexistent/file.txt", "--s", "3"])
    assert code == 1


def test_json_round_trip_schema(capsys):
    code, payload = run_json(
        capsys, "eval-power", "--s", "0.5", "--w", "0.25", "--u", "1.5",
        "--z", "0.25+1j,0.1,0,1j,0.05,-0.25+1.5j",
    )
    assert code == 0
    assert set(payload["value"]) == {"re", "im"}
    assert isinstance(payload["value"]["re"], float)


# the flags that only some commands read, and those commands
FLAG_READERS = {
    "--seed": {"verify-lemma-int", "verify-claim1", "selftest"},
    "--tol": {"verify-lemma-int", "verify-claim1", "verify-lipschitz", "classical-lipschitz",
              "verify-zetastar"},
    "--k": {"eval-km", "eval-km-twisted", "eval-poincare", "eval-kernel"},
    "--format": {"classes"},
}


def _subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a.choices, dict)).choices


def test_each_flag_lives_only_on_the_commands_that_read_it():
    commands = _subcommands()
    for flag, readers in FLAG_READERS.items():
        assert {name for name, c in commands.items() if flag in c._option_string_actions} == readers
    assert all("--threads" in c._option_string_actions for c in commands.values())


def test_readme_cli_examples_parse():
    # every `siegel3 ...` line of the README's CLI block parses, so a removed
    # flag cannot linger in the docs; each command has an example
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command-line interface\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    examples = [argv[1:] for argv in lines if argv[:1] == ["siegel3"]]
    parser = cli.build_parser()
    assert {parser.parse_args(argv).command for argv in examples} == set(_subcommands())
