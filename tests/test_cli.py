import json
import os
import subprocess
import sys
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
    code, payload = run_json(capsys, "fe-group", "--k", "24")
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
    "fe_group.out": ["fe-group", "--k", "24"],
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
]


REJECTED = [(argv, "usage error:") for argv in USAGE_ERRORS] + [
    (["eval-gamma3", "--s", "200", "--w", "0", "--u", "2"], "input error:"),  # overflow
    # the weight is checked by the library, also when no class is summed
    (["eval-poincare", "--k", "23", "--form", "1,1,1,0,0,0", "--z", Z1], "input error:"),
    (["eval-kernel", "--k", "6", "--s", "2", "--w", "4", "--u", "5", "--z", Z1,
      "--det-bound", "1/4"], "input error:"),
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
    # finite exponents whose power overflows: no NaN payload
    (["eval-power", "--s", "2.5", "--w", "4", "--u", "1e308", "--z", Z1], "input error:"),
    # Z = 0 is no Siegel point: the stacked Mobius action refuses the table
    (["eval-poincare", "--form", "1,1,1,0,0,0", "--z", "0,0,0,0,0,0"],
     "input error: C Z + D is numerically singular"),
    # the exact f-direction sum needs Im Z > 0 (det Z_2 vanishes here)
    (["verify-lipschitz", "--max-abs", "1", "--z=-1j,0,0,1j,0,1j", "--tail-correction"],
     "input error:"),
]


def test_ball_above_the_ceiling_is_refused_before_it_is_built():
    # 12 GB of rows at 32 B each; the child's own peak RSS shows none was built
    argv = [sys.executable, "-m", "siegel3.cli", "eval-eisenstein", "--form", "1,1,1,0,0,0",
            "--s", "3", "--w", "3", "--u", "3", "--bound", "2e5"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 1
    assert proc.stderr.read().startswith(b"input error:")
    assert usage.ru_maxrss < 400 * 1024  # KiB: the interpreter alone takes ~85 MB


def _no_constants(name):
    raise ValueError("non-finite JSON constant %s" % name)


@pytest.mark.parametrize("argv,prefix", REJECTED, ids=[" ".join(a) for a, _ in REJECTED])
def test_bad_input_is_rejected(capsys, argv, prefix):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
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
