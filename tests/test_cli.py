import ast
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from helpers import (
    EX4322,
    FIXTURES,
    lcm_intersection,
    random_partition,
    with_a_non_dividing_witness,
)
from pferrer import cli
from pferrer import diagram as dg
from pferrer import ideal as il
from pferrer import invariants as iv
from pferrer import macaulay as mc
from pferrer import oracle as oc
from pferrer import series as sr
from pferrer.errors import BadLimits
from pferrer.limits import Limits


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_diagram(tmp_path, tree, name="diagram.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return str(path)


def test_report_example_4322(capsys):
    code, out = run_cli(capsys, "report", str(FIXTURES / "example_4322.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["boxes"] == 21
    assert doc["summary"]["projdim"] == 5
    assert doc["summary"]["reg_ideal"] == 3 and doc["summary"]["reg_quotient"] == 2
    assert doc["betti"] == {"1": 21, "2": 50, "3": 45, "4": 17, "5": 2}
    assert doc["s_vector"] == [9, 2]


def test_report_single_variable(capsys, tmp_path):
    code, out = run_cli(capsys, "report", write_diagram(tmp_path, 1))
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == {"1": 1}
    assert doc["generators"] == ["x1_1"]


def test_report_text_mode(capsys):
    code, out = run_cli(capsys, "report", "--text", str(FIXTURES / "staircase_22.json"))
    assert code == 0
    assert "projdim = 3" in out
    assert "(1+2t-t^2)/(1-t)^2" in out


def test_report_certificate_flag(capsys):
    code, out = run_cli(
        capsys, "report", "--certificate", str(FIXTURES / "staircase_22.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert [len(cls) for cls in doc["certificate"]["classes"]] == [1, 2, 1]
    assert doc["certificate"]["witnesses"][0]["witness_monomial"] == "x2_1*x1_1"


def test_report_certificate_names_boxes_in_ferrer_ideal_order(capsys, tmp_path):
    rng = random.Random(29)
    for depth in (1, 2, 2, 3, 3, 4):
        part = random_partition(rng, depth, max_children=3, max_leaf=3)
        path = write_diagram(tmp_path, part.to_tree())
        code, out = run_cli(capsys, "report", "--certificate", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["generators"] == [str(g) for g in il.ferrer_ideal(part).generators]
        cert = iv.ara_certificate(part)
        names = [[str(il.box_monomial(box)) for box in cls] for cls in cert.classes]
        assert doc["certificate"]["classes"] == names
        witnesses = [
            {
                "pair": [str(il.box_monomial(w.first)), str(il.box_monomial(w.second))],
                "witness_class": w.witness_class,
                "witness_monomial": str(il.box_monomial(w.witness)),
            }
            for w in cert.witnesses
        ]
        assert doc["certificate"]["witnesses"] == witnesses


def test_report_text_certificate(capsys):
    path = str(FIXTURES / "staircase_22.json")
    code, plain = run_cli(capsys, "report", "--text", path)
    assert code == 0 and "certificate" not in plain
    code, out = run_cli(capsys, "report", "--text", "--certificate", path)
    assert code == 0
    assert out.startswith(plain.rstrip("\n") + "\n")
    assert out[len(plain) - 1 :].splitlines()[1:] == [
        "ara certificate: 3 classes",
        "  K_1: x2_1*x1_1",
        "  K_2: x2_2*x1_1, x2_1*x1_2",
        "  K_3: x2_2*x1_2",
        "witnesses (1):",
        "  x2_2*x1_1 * x2_1*x1_2 divisible by x2_1*x1_1 in K_1",
    ]


# exit code and stdout sha256 of report --text --certificate on every fixture;
# nested_decomposition is an ideal, not a diagram, and prints its error
TEXT_CERTIFICATE_BYTES = [
    ("example_4322", 0, "7688b1326c89faf3a07bc5e1c00c77691c3e81978cc975c7f46066f80d135de4"),
    ("example_54432", 0, "9bc246c305ff4777a64649ba4624d6aa0b32492846e662ecfd28fae9b4fea69b"),
    ("hvector_14341", 0, "679cbb53462bd79064c65cb9d5f0413229db57bfc56953eb669c24c06d4a5ea7"),
    ("staircase_22", 0, "3e56d927652553254e5d0cc6e1e2beb633d3f0dcb09d8f7d7b687b79a05c5161"),
    ("nested_decomposition", 2, "8b53a4849f332c3c3c699fb005c1ecbca83ad0e4e02c8a3f6a5f703b3f5b01f9"),
]


def test_text_certificate_bytes_cover_every_fixture():
    assert sorted(name for name, _, _ in TEXT_CERTIFICATE_BYTES) == sorted(
        path.stem for path in FIXTURES.glob("*.json")
    )


@pytest.mark.parametrize("name, exit_code, digest", TEXT_CERTIFICATE_BYTES)
def test_report_text_certificate_bytes(capsys, name, exit_code, digest):
    code, out = run_cli(capsys, "report", "--text", "--certificate", str(FIXTURES / f"{name}.json"))
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("command", ["report", "verify", "series", "dual"])
def test_report_validation_error_exit_2(capsys, tmp_path, command):
    code, out = run_cli(capsys, command, write_diagram(tmp_path, [[1], [2]]))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "NotDecreasing"
    assert doc["path"] == "$[1]"


def test_validation_reports_the_first_fault_depth_first(capsys, tmp_path):
    # the dominance fault inside $[0] is reached before the zero leaf at $[1]
    code, out = run_cli(capsys, "report", write_diagram(tmp_path, [[1, 2], 0]))
    assert code == 2
    doc = json.loads(out)
    assert (doc["error"], doc["path"]) == ("NotDecreasing", "$[0][1]")


def test_report_bad_json_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[[4,3", encoding="utf-8")
    code, out = run_cli(capsys, "report", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "BadJSON"


def report_text(capsys, tmp_path, monkeypatch, source, text):
    """``report`` on ``text``, read from a file or from stdin."""
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        path = "-"
    else:
        path = tmp_path / "long.json"
        path.write_text(text, encoding="utf-8")
    return run_cli(capsys, "report", str(path))


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "digits, code, error", [(4300, 4, "SizeLimitExceeded"), (4301, 2, "BadJSON")]
)
def test_report_long_numeral(capsys, tmp_path, monkeypatch, source, digits, code, error):
    # 4,300 digits is the interpreter's default limit on int conversion
    text = "[" + "9" * digits + "]"
    got, out = report_text(capsys, tmp_path, monkeypatch, source, text)
    assert (got, json.loads(out)["error"]) == (code, error)


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_report_limit_message_past_the_digit_limit(capsys, tmp_path, monkeypatch, source):
    # each leaf converts, but the 4,301-digit box count cannot be printed
    text = "[" + "9" * 4300 + ", " + "9" * 4300 + "]"
    got, out = report_text(capsys, tmp_path, monkeypatch, source, text)
    assert got == 4
    assert json.loads(out) == {
        "error": "SizeLimitExceeded",
        "message": "a number of more than 4300 digits boxes exceed limit 10000",
    }


@pytest.mark.parametrize(
    "name, error",
    [
        ("missing.json", "UnreadableFile"),
        (".", "UnreadableFile"),
        ("utf16.json", "BadJSON"),
        ("-", "UnreadableFile"),
    ],
)
def test_report_unreadable_input_exit_2(capsys, tmp_path, monkeypatch, name, error):
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe[1]")
    path = name if name == "-" else str(tmp_path / name)
    monkeypatch.setattr(sys, "stdin", None)  # as when fd 0 is closed; files ignore it
    code, out = run_cli(capsys, "report", path)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == error
    if error == "UnreadableFile":
        assert path in doc["message"]


@pytest.mark.parametrize("depth", [500, 3000])
def test_report_deeply_nested_json(capsys, tmp_path, depth):
    text = "[" * depth + "1" + "]" * depth
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    try:
        json.loads(text)
        expected = (4, "SizeLimitExceeded")
    except RecursionError:
        expected = (2, "BadJSON")
    code, out = run_cli(capsys, "report", str(path))
    assert (code, json.loads(out)["error"]) == expected


@pytest.mark.parametrize(
    "command, depth", [("report", 500), ("series", 500), ("dual", 500), ("verify", 500)]
)
def test_nesting_past_the_recursion_limit_exit_4(
    capsys, tmp_path, monkeypatch, command, depth
):
    # max_depth admits the tree; building it in validate overflows the
    # interpreter's stack before any command walks it
    monkeypatch.setenv("FERRER_LIMITS", json.dumps({"max_depth": 5000}))
    tree = 1
    for _ in range(depth - 1):
        tree = [tree]
    code, out = run_cli(capsys, command, write_diagram(tmp_path, tree))
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "SizeLimitExceeded"
    assert doc["message"] == "input nested too deeply for the interpreter's recursion limit"


def test_report_inconsistent_fields_exit_3(capsys, monkeypatch):
    real = iv.homological_summary

    def wrong_projdim(profile):
        summary = real(profile)
        return summary._replace(projdim=summary.projdim + 1)

    monkeypatch.setattr(iv, "homological_summary", wrong_projdim)
    code, out = run_cli(capsys, "report", str(FIXTURES / "staircase_22.json"))
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "InconsistentReport"
    assert doc["relation"] == "summary.projdim == profile.delta"


def test_report_certificate_cross_checks_summary_ara_exit_3(capsys, monkeypatch):
    real = iv.homological_summary

    def wrong_ara(profile):
        summary = real(profile)
        return summary._replace(ara=summary.ara + 1)

    monkeypatch.setattr(iv, "homological_summary", wrong_ara)
    path = str(FIXTURES / "staircase_22.json")
    code, out = run_cli(capsys, "report", "--certificate", path)
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "InconsistentReport"
    assert doc["relation"] == "summary.ara == len(certificate.classes)"
    # without the certificate the profile's last diagonal still catches it
    code, out = run_cli(capsys, "report", path)
    assert code == 3
    assert json.loads(out)["relation"] == "summary.ara == profile.delta"


def test_report_into_closed_pipe_exit_141():
    src = FIXTURES.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pferrer.cli", "report", "--certificate", "-"],
            input=json.dumps([[9] * 6] * 3).encode(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "BrokenPipe"


def test_report_deterministic_bytes(capsys):
    _, first = run_cli(capsys, "report", str(FIXTURES / "example_4322.json"))
    _, second = run_cli(capsys, "report", str(FIXTURES / "example_4322.json"))
    assert first == second


def test_verify_square(capsys):
    code, out = run_cli(capsys, "verify", str(FIXTURES / "staircase_22.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {check["name"] for check in doc["checks"]} == {
        "betti_formula_vs_oracle",
        "hilbert_series",
        "intersection_decomposition",
        "ara_certificate",
        "height_and_projdim",
    }


def test_verify_example_4322(capsys):
    code, out = run_cli(capsys, "verify", str(FIXTURES / "example_4322.json"))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_depth_one(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", write_diagram(tmp_path, 3))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    skipped = [c for c in doc["checks"] if c.get("skipped")]
    assert [c["name"] for c in skipped] == ["intersection_decomposition"]


def test_verify_oversized_exit_4(capsys, tmp_path):
    # depth 6 with 7 + 7 + 4 = 18 ambient variables exceeds the oracle's
    # 16-variable limit
    tree = [7] * 7
    for _ in range(4):
        tree = [tree]
    code, out = run_cli(capsys, "verify", write_diagram(tmp_path, tree))
    assert code == 4
    assert json.loads(out)["error"] == "SizeLimitExceeded"


def test_verify_max_degree_past_truncation_limit_exit_4_before_the_oracle(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the Betti oracle ran before --max-degree was checked")

    monkeypatch.setattr(oc, "graded_betti_brute", unreachable)
    argv = ["verify", "--max-degree", "21", str(FIXTURES / "example_54432.json")]
    code, out = run_cli(capsys, *argv)
    assert code == 4
    assert json.loads(out) == {
        "error": "SizeLimitExceeded",
        "message": "degree 21 exceeds truncation limit 20",
    }


def test_verify_betti_entry_in_a_wrong_degree_exit_3(capsys, monkeypatch):
    # the totals still agree with the oracle's; only the degree of beta_3 moves
    betti_table = iv.betti_table

    def misplaced(profile, numerator):
        *rest, (j, degree, value) = betti_table(profile, numerator).entries
        return il.GradedBettiTable((*rest, (j, degree + 1, value)))

    monkeypatch.setattr(iv, "betti_table", misplaced)
    code, out = run_cli(capsys, "verify", str(FIXTURES / "staircase_22.json"))
    assert code == 3
    doc = json.loads(out)
    failed = [check for check in doc["checks"] if not check["ok"]]
    assert [check["name"] for check in failed] == ["betti_formula_vs_oracle"]
    assert failed[0]["formula"] == failed[0]["oracle"] == [4, 4, 1]


def test_verify_closed_form_prime_missing_exit_3(capsys, monkeypatch):
    # the height and the projective dimension still agree; only the primes differ
    ferrer_dual = il.ferrer_dual

    def short(part, limits):
        dual = ferrer_dual(part, limits)
        return dual._replace(generators=dual.generators[:-1])

    monkeypatch.setattr(il, "ferrer_dual", short)
    code, out = run_cli(capsys, "verify", str(FIXTURES / "staircase_22.json"))
    assert code == 3
    doc = json.loads(out)
    failed = [check for check in doc["checks"] if not check["ok"]]
    assert [check["name"] for check in failed] == ["height_and_projdim"]
    dropped = ferrer_dual(dg.validate([2, 2])).generators[-1]
    assert failed[0]["closed_form_only"] == []
    assert failed[0]["brute_force_only"] == [str(dropped)]
    assert failed[0]["min_prime"] == failed[0]["df"]


def _failed_checks(out):
    return [check for check in json.loads(out)["checks"] if not check["ok"]]


def test_verify_wrong_decomposition_component_exit_3(capsys, monkeypatch):
    decomposition = il.intersection_decomposition

    def wrong(part):
        # Q_1 loses its last variable
        first, *rest = decomposition(part)
        return (il.MonomialIdeal.make(first.generators[:-1]), *rest)

    monkeypatch.setattr(il, "intersection_decomposition", wrong)
    code, out = run_cli(capsys, "verify", str(FIXTURES / "example_4322.json"))
    assert code == 3
    failed = _failed_checks(out)
    assert [check["name"] for check in failed] == ["intersection_decomposition"]
    part = dg.validate(EX4322)
    expected = reduce(lcm_intersection, wrong(part))
    assert failed[0]["intersection"] == [str(g) for g in expected.generators]
    assert failed[0]["ideal"] == [str(g) for g in il.ferrer_ideal(part).generators]


def test_verify_membership_only_disagreement_exit_3(capsys, monkeypatch):
    # the intersection matches the ideal, so only the sampled monomials can
    # see that Q_1 = (x2_1, x2_2) widened by x1_1 holds x1_1 and x1_1*x1_2
    ideal = il.ferrer_ideal(dg.validate([2, 2]))
    decomposition = il.intersection_decomposition

    def widened(part):
        first, *rest = decomposition(part)
        x11 = il.Monomial.of({il.Variable(1, 1): 1})
        return (il.MonomialIdeal.make([*first.generators, x11]), *rest)

    monkeypatch.setattr(il, "intersection_decomposition", widened)
    monkeypatch.setattr(oc, "intersect_monomial", lambda a, b: ideal)
    code, out = run_cli(capsys, "verify", str(FIXTURES / "staircase_22.json"))
    assert code == 3
    failed = _failed_checks(out)
    assert [check["name"] for check in failed] == ["intersection_decomposition"]
    assert failed[0]["intersection"] == failed[0]["ideal"]
    assert failed[0]["ideal"] == [str(g) for g in ideal.generators]


@pytest.mark.parametrize("seed", range(5))
def test_verify_membership_sees_exponents_exit_3(capsys, monkeypatch, seed):
    # Q_1 = (x2_2, x2_1^2) has the support of (x2_1, x2_2), so only samples
    # read with their exponents see x2_1*x1_1 in the ideal and outside Q_1
    ideal = il.ferrer_ideal(dg.validate([2, 2]))
    decomposition = il.intersection_decomposition

    def squared(part):
        _, *rest = decomposition(part)
        x21, x22 = il.Variable(2, 1), il.Variable(2, 2)
        first = il.MonomialIdeal.make([il.Monomial.of({x22: 1}), il.Monomial.of({x21: 2})])
        return (first, *rest)

    monkeypatch.setattr(il, "intersection_decomposition", squared)
    monkeypatch.setattr(oc, "intersect_monomial", lambda *components: ideal)
    path = str(FIXTURES / "staircase_22.json")
    code, out = run_cli(capsys, "verify", "--seed", str(seed), path)
    assert code == 3
    assert [check["name"] for check in _failed_checks(out)] == ["intersection_decomposition"]


@pytest.mark.parametrize(
    "name", ["example_4322", "example_54432", "hvector_14341", "staircase_22"]
)
def test_decomposition_samples_keep_the_monomial_verdicts(name):
    # the reference route draws monomials from the same random stream and
    # polarizes them with the ideal and its components
    part = dg.validate(json.loads((FIXTURES / f"{name}.json").read_text()))
    ideal = il.ferrer_ideal(part)
    components = il.intersection_decomposition(part)
    ambient = set(ideal.ambient).union(*(c.ambient for c in components))
    groups = [ideal.generators, *(c.generators for c in components)]
    offset, width, masks = il._polarize(groups, ambient)
    variables = list(ideal.ambient)

    def verdicts(points, group_masks):
        return [[any(g & m == g for g in gens) for gens in group_masks] for m in points]

    for seed in range(20):
        for max_degree in (3, 12):
            rng = random.Random(seed)
            samples = []
            for _ in range(32):
                chosen = rng.sample(variables, rng.randint(1, min(4, len(variables))))
                monomial = il.Monomial.of({v: rng.randint(1, 2) for v in chosen})
                if monomial.degree <= max_degree:
                    samples.append(monomial)
            _, _, (points, *joint) = il._polarize([samples, *groups], ambient)
            drawn = cli._sample_masks(random.Random(seed), variables, offset, width, max_degree)
            assert verdicts(drawn, masks) == verdicts(points, joint)


def test_verify_truncated_count_off_by_one_exit_3(capsys, monkeypatch):
    truncated = oc.hilbert_function_truncated

    def off_by_one(ideal, max_degree, limits):
        counts = list(truncated(ideal, max_degree, limits))
        counts[2] += 1
        return tuple(counts)

    monkeypatch.setattr(oc, "hilbert_function_truncated", off_by_one)
    code, out = run_cli(capsys, "verify", str(FIXTURES / "example_4322.json"))
    assert code == 3
    failed = _failed_checks(out)
    assert [check["name"] for check in failed] == ["hilbert_series"]
    ideal = il.ferrer_ideal(dg.validate(EX4322))
    expected = list(sr.hilbert_series_monomial(ideal).taylor(12))
    expected[2] += 1
    assert failed[0]["truncated"] == expected
    assert failed[0]["formula"] == failed[0]["from_monomials"]


@pytest.mark.parametrize("argv", [["report", "--certificate", "-"], ["verify", "-"]])
def test_certificate_failure_exit_3(capsys, monkeypatch, argv):
    monkeypatch.setattr(iv, "_box_table", with_a_non_dividing_witness(iv._box_table))
    monkeypatch.setattr(sys, "stdin", io.StringIO("[3, 3, 3]"))
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["error"] == "CertificateFailure"


def test_verify_certificate_check_counts_the_witnesses(capsys, monkeypatch):
    certificate = iv.ara_certificate

    def one_short(part):
        cert = certificate(part)
        return iv.AraCertificate(cert.classes, cert.witnesses[1:])

    monkeypatch.setattr(iv, "ara_certificate", one_short)
    code, out = run_cli(capsys, "verify", str(FIXTURES / "staircase_22.json"))
    assert code == 3
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "ara_certificate"]
    assert check == {"name": "ara_certificate", "ok": False, "ara": 3, "witnesses": 0, "pairs": 1}


def test_series_subcommand(capsys):
    code, out = run_cli(capsys, "series", str(FIXTURES / "staircase_22.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["pretty"] == "(1+2t-t^2)/(1-t)^2"
    assert doc["c"] == 2 and doc["p"] == 2
    assert doc["s_vector"] == [1]


def test_dual_subcommand(capsys):
    code, out = run_cli(capsys, "dual", str(FIXTURES / "staircase_22.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["dual"]["pretty"] == "(1+2t+t^2)/(1-t)^2"
    assert doc["dual_generators"] == ["x2_1*x2_2", "x1_1*x1_2"]
    assert doc["dual_h_vector"] == [1, 2, 1]


def test_macaulay_14341(capsys):
    code, out = run_cli(capsys, "macaulay", "--h", "1,4,3,4,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["dual_h_vector"] == [1, 4, 3, 4, 1]
    assert len(doc["generators"]) == 13


def test_macaulay_trailing_zeros_are_trimmed(capsys):
    _, trimmed = run_cli(capsys, "macaulay", "--h", "1,4,3,4,1")
    code, out = run_cli(capsys, "macaulay", "--h", "1,4,3,4,1,0,0")
    assert code == 0
    doc, expected = json.loads(out), json.loads(trimmed)
    assert doc["h"] == [1, 4, 3, 4, 1, 0, 0] and doc["verified"] is True
    assert {**doc, "h": expected["h"]} == expected


def test_macaulay_rejects_non_mvector(capsys):
    code, out = run_cli(capsys, "macaulay", "--h", "1,2,4")
    assert code == 5
    doc = json.loads(out)
    assert doc["index"] == 2 and doc["bound"] == 3
    assert "h_2 <= 3" in doc["message"]


@pytest.mark.parametrize("h, index", [("1,-1", 1), ("1,2,-3", 2), ("0,-1", 1)])
def test_macaulay_negative_entry_exit_2(capsys, h, index):
    code, out = run_cli(capsys, "macaulay", "--h", h)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "BadHVector"
    assert doc["message"].startswith(f"h_{index} = -")


@pytest.mark.parametrize("h", ["0", "2,1", "0,1,1"])
def test_macaulay_first_entry_must_be_one(capsys, h):
    code, out = run_cli(capsys, "macaulay", "--h", h)
    assert code == 5
    doc = json.loads(out)
    assert doc["index"] == 0 and doc["message"] == "h_0 must be 1"


@pytest.mark.parametrize(
    "h, message",
    [
        ("1,30,465,4960,40920", "46376 boxes exceed limit 10000"),
        ("1,99999999999", "100000000000 boxes exceed limit 10000"),
        ("1,200,1,1,1", "403 variables exceed hitting-set limit 30"),
        ("1,600,1", "1201 variables exceed hitting-set limit 30"),
    ],
)
def test_macaulay_oversized_exit_4(capsys, h, message):
    code, out = run_cli(capsys, "macaulay", "--h", h)
    assert code == 4
    assert json.loads(out) == {"error": "SizeLimitExceeded", "message": message}


def test_macaulay_trivial(capsys):
    code, out = run_cli(capsys, "macaulay", "--h", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagram"] == 1 and doc["verified"] is True


def test_macaulay_exits_3_when_its_own_check_fails(monkeypatch, capsys):
    # the series of the zero ideal on the dual's variables has h-vector (1,)
    def wrong_series(dual, limits):
        return sr.hilbert_series_monomial(il.MonomialIdeal((), dual.ambient), limits)

    _, right = run_cli(capsys, "macaulay", "--h", "1,4,3,4,1")
    monkeypatch.setattr(mc, "hilbert_series_monomial", wrong_series)
    code, out = run_cli(capsys, "macaulay", "--h", "1,4,3,4,1")
    assert code == 3
    doc = json.loads(out)
    assert doc["verified"] is False and doc["dual_h_vector"] == [1]
    assert {**doc, "verified": True, "dual_h_vector": [1, 4, 3, 4, 1]} == json.loads(right)


def test_pure_displayed_example(capsys):
    code, out = run_cli(capsys, "pure", "--a1", "2", "--a2", "3", "--beta0", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [1, 3, 2] and doc["c"] == 2 and doc["alpha"] == 1


def test_pure_scaled(capsys):
    code, out = run_cli(capsys, "pure", "--c", "2", "--p", "2", "--alpha", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == [0, 10, 15] and doc["betti"] == [1, 3, 2]


def test_pure_c_differs_from_p(capsys):
    # --c is the generation degree and --p the codimension
    code, out = run_cli(capsys, "pure", "--c", "3", "--p", "2", "--alpha", "1")
    assert code == 0
    assert json.loads(out) == {"type": [0, 3, 4], "betti": [1, 4, 3], "alpha": 1}


def test_pure_prints_numbers_past_the_digit_limit(capsys, tmp_path):
    # 4,300 digits is the interpreter's default limit on int conversion, so
    # the printed numbers are compared as digit strings
    nines = "9" * 4300
    code, out = run_cli(capsys, "pure", "--a1", "1", "--a2", "10", "--beta0", nines)
    assert code == 0
    betti = json.loads(out, parse_int=str)["betti"]
    assert betti == [nines, "1" * 4300 + "0", "1" * 4300]  # beta0 * (1, 10/9, 1/9)
    code, out = run_cli(capsys, "pure", "--c", "2", "--p", "2", "--alpha", nines)
    assert code == 0
    assert json.loads(out, parse_int=str) == {
        "type": ["0", "1" + "9" * 4299 + "8", "2" + "9" * 4299 + "7"],  # alpha * (0, 2, 3)
        "betti": ["1", "3", "2"],
        "alpha": nines,
    }
    # the limit holds again for the next input
    path = tmp_path / "long.json"
    path.write_text("[" + nines + "9]", encoding="utf-8")
    code, out = run_cli(capsys, "report", str(path))
    assert (code, json.loads(out)["error"]) == (2, "BadJSON")


def test_pure_satisfies_the_herzog_kuehl_equations(capsys):
    # a pure resolution of codimension p has sum_i (-1)^i beta_i d_i^k = 0 for k < p
    for c in range(1, 7):
        for p in range(1, 7):
            code, out = run_cli(capsys, "pure", "--c", str(c), "--p", str(p), "--alpha", "1")
            doc = json.loads(out)
            assert code == 0 and len(doc["betti"]) == p + 1
            for k in range(p):
                terms = zip(doc["betti"], doc["type"])
                assert sum((-1) ** i * b * d**k for i, (b, d) in enumerate(terms)) == 0, (c, p, k)


def test_pure_codim2_record_feeds_back_to_its_type(capsys):
    # (0, a1, a2) = alpha * (0, c, c + 1), so --c c --p 2 --alpha alpha retypes it
    records = 0
    for a2 in range(2, 14):
        for a1 in range(1, a2):
            record = iv.pure_codim2_betti(a1, a2, 1)
            if record is None or record.c is None:
                continue
            argv = ["--c", str(record.c), "--p", "2", "--alpha", str(record.alpha)]
            code, out = run_cli(capsys, "pure", *argv)
            assert code == 0
            assert json.loads(out) == {
                "type": [0, a1, a2],
                "betti": [1, record.beta1, record.beta2],
                "alpha": record.alpha,
            }
            records += 1
    assert records == 24


@pytest.mark.parametrize(
    "c, p, alpha", [(3, 2, 1), (2, 3, 1), (4, 2, 1), (2, 2, 2), (3, 2, 2), (1, 3, 2), (2, 1, 3)]
)
def test_pure_matches_the_oracle(capsys, c, p, alpha):
    # the full diagram of depth c and diagonals 1..p has a c-linear resolution
    # of length p, and x -> x^alpha scales its degrees by alpha
    ideal = il.ferrer_ideal(dg.full_diagram(c, p))
    powered = il.MonomialIdeal(
        tuple(il.Monomial(tuple((v, alpha) for v, _ in g.factors)) for g in ideal.generators),
        ideal.ambient,
    )
    code, out = run_cli(capsys, "pure", "--c", str(c), "--p", str(p), "--alpha", str(alpha))
    doc = json.loads(out)
    expected = tuple((j, doc["type"][j], doc["betti"][j]) for j in range(1, p + 1))
    assert code == 0 and oc.graded_betti_brute(powered).entries == expected


def test_pure_length_past_its_limit_exits_4(capsys):
    # the default pure_max_length is 1,000 Betti numbers after beta_0
    code, out = run_cli(capsys, "pure", "--c", "10", "--p", "1001", "--alpha", "1")
    assert code == 4
    assert json.loads(out) == {
        "error": "SizeLimitExceeded",
        "message": "length 1001 exceeds pure limit 1000",
    }
    code, out = run_cli(capsys, "pure", "--c", "1", "--p", "1000", "--alpha", "1")
    assert code == 0 and len(json.loads(out)["betti"]) == 1001


def test_pure_infeasible_exit_6(capsys):
    code, out = run_cli(capsys, "pure", "--a1", "2", "--a2", "5", "--beta0", "1")
    assert code == 6
    assert json.loads(out)["error"] == "Infeasible"


@pytest.mark.parametrize(
    "argv",
    [
        ["pure", "--c", "2", "--p", "2", "--alpha", "0"],
        ["pure", "--a1", "3", "--a2", "2", "--beta0", "1"],
        ["pure", "--c", "0", "--p", "2", "--alpha", "1"],
        ["pure", "--c", "2", "--p", "-1", "--alpha", "1"],
        ["verify", "--max-degree", "-3", str(FIXTURES / "example_4322.json")],
    ],
)
def test_flag_out_of_range_exit_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "BadFlags"


def test_limits_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FERRER_LIMITS", json.dumps({"max_boxes": 3}))
    code, out = run_cli(capsys, "report", write_diagram(tmp_path, [2, 2]))
    assert code == 4
    assert json.loads(out)["error"] == "SizeLimitExceeded"


@pytest.mark.parametrize(
    "raw",
    [
        '{"nope": 1}',
        '{"inclusion_exclusion_max_generators": 20}',
        '{"max_boxes": "3"}',
        '{"max_boxes": true}',
        '{"max_boxes": -1}',
        "[1]",
        '{"max_boxes": %s}' % ("9" * 4301),  # past int's default 4,300-digit limit
        "[" * 3000 + "]" * 3000,  # past the parser's recursion limit
        '{"max_depth": %s}' % ("[" * 3000 + "]" * 3000),
    ],
    ids=[
        "unknown", "removed", "string", "bool", "negative", "not-object", "long-numeral",
        "deep-list", "deep-value",
    ],
)
def test_limits_env_rejects_unknown_keys(capsys, monkeypatch, raw):
    monkeypatch.setenv("FERRER_LIMITS", raw)
    code, out = run_cli(capsys, "report", str(FIXTURES / "staircase_22.json"))
    assert code == 2
    assert json.loads(out)["error"] == "BadLimits"


def test_report_hvector_fixture(capsys):
    code, out = run_cli(capsys, "report", str(FIXTURES / "hvector_14341.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["boxes"] == 13
    assert doc["profile"]["s"] == [1, 4, 3, 4, 1]
    assert len(doc["minimal_primes"]) == 12


@pytest.mark.parametrize(
    "name", ["example_4322", "example_54432", "hvector_14341", "staircase_22"]
)
def test_report_primes_are_the_dual_generators(capsys, name):
    path = str(FIXTURES / f"{name}.json")
    _, report = run_cli(capsys, "report", path)
    _, dual = run_cli(capsys, "dual", path)
    assert json.loads(report)["minimal_primes"] == [
        g.split("*") for g in json.loads(dual)["dual_generators"]
    ]


def test_report_consistency_across_fixture(capsys):
    code, out = run_cli(capsys, "report", str(FIXTURES / "example_4322.json"))
    doc = json.loads(out)
    assert doc["betti"]["1"] == doc["boxes"]
    assert doc["summary"]["projdim"] == doc["profile"]["delta"]
    assert len(doc["generators"]) == doc["boxes"]


def test_limits_from_env_raises_bad_limits_a_value_error():
    with pytest.raises(BadLimits) as caught:
        Limits.from_env({"FERRER_LIMITS": "[1"})
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["macaulay", "--h", "-1,0"], "argument --h: expected one argument"),
        (["macaulay"], "the following arguments are required: --h"),
        (["verify", "--max-degree", "x", "fixture"], "argument --max-degree: invalid int"),
        (["report"], "the following arguments are required: path"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["report", "--h", "x"], "unrecognized arguments: --h"),
        (["verify", "--he", "x"], "unrecognized arguments: --he"),
        (["verify", "--max", "3", "fixture"], "unrecognized arguments: --max"),
        (["report", "--text", "--json", "fixture"], "argument --json: not allowed with argument --text"),
        (["report", "--json", "--text", "fixture"], "argument --text: not allowed with argument --json"),
    ],
)
def test_usage_error_is_json_bad_flags(capsys, argv, message):
    argv = [str(FIXTURES / "staircase_22.json") if a == "fixture" else a for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    doc = json.loads(captured.out)
    assert list(doc) == ["error", "message"] and doc["error"] == "BadFlags"
    assert doc["message"].startswith(message)


def test_parser_reuse_keeps_no_state(capsys):
    path = str(FIXTURES / "staircase_22.json")
    run_cli(capsys, "report", "--text", path)
    assert json.loads(run_cli(capsys, "report", path)[1])["depth"] == 2
    run_cli(capsys, "verify", "--seed", "5", path)
    assert json.loads(run_cli(capsys, "verify", path)[1])["seed"] == 0


def test_error_documents_are_emitted_only_by_dispatch():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    emitters = []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_emit"
                and isinstance(node.args[0], ast.Dict)
                and any(
                    isinstance(key, ast.Constant) and key.value == "error"
                    for key in node.args[0].keys
                )
            ):
                emitters.append(function.name)
    assert emitters == ["_dispatch"]


# stdout sha256 of report, dual and macaulay as printed when their duals
# came from the hitting-set search
HITTING_SET_ROUTE_BYTES = [
    (["report", "--certificate", "example_4322"], "0393e33f0f5c4c1d371286e5c29e670d19710de212e94f1f06bab1893dff1880"),
    (["report", "--text", "example_4322"], "37d0f3bd3e1acc8dfd3ae4761bb2d693fe60a7c6c31c297c1176620db3a90752"),
    (["dual", "example_4322"], "5fc42a3381f2a16a99aa68d5a8bc922820d3b98f9cec781644ee21de21d0b9bc"),
    (["report", "--certificate", "example_54432"], "68485b724c293963971364b09ee7914dd29e2114f96467da6134eb99bcdf9431"),
    (["report", "--text", "example_54432"], "616f73f5aec9f54c4fbacd66e29896dc15a3ec123b3f9def16d717941aa2a376"),
    (["dual", "example_54432"], "4e0b51b39246b0a74f0a437c84d57655568ab5b9dc8ccd79fa9a7e956e805d73"),
    (["report", "--certificate", "hvector_14341"], "f875d69345674285d5ded927d16873a51854e287faa89865d2618d0faa41fdd4"),
    (["report", "--text", "hvector_14341"], "abba30699e45c89392ea63fd4664f273b508f37f8e0c9898e05e59260406b016"),
    (["dual", "hvector_14341"], "12072d6fc032d629adafba77b990737dfff0604b54972cdac556b93f6fb1c574"),
    (["report", "--certificate", "staircase_22"], "ed419a62930c5c08173626c131bd27015e2e0bc0d6b6496ed0443584f882e23e"),
    (["report", "--text", "staircase_22"], "4b4444387f54efa6f8bb43ba5ff0d6abfa2dba42cb8e5928b514fedf7618a4d4"),
    (["dual", "staircase_22"], "8664a57b3d886966be49eead648cd8e13cff678f8f38e7012651196374439af6"),
    (["macaulay", "--h", "1,4,3,4,1"], "fedc3cff3652e72a6afdfe328fd84578cb60ce56def6248defefeb09e05b98c6"),
    (["macaulay", "--h", "1,3,2,1"], "04ef8f5e61afd96afe18bbd1795bd1346f13863e7b8f7cea31a5370d6e46a826"),
    (["macaulay", "--h", "1,2,3,4"], "934aed416920458bb35e8d8161024957f8ce8cde2961fa178cf1abefc15f0831"),
]


@pytest.mark.parametrize("argv, digest", HITTING_SET_ROUTE_BYTES)
def test_user_path_prints_the_same_bytes_without_the_hitting_sets(monkeypatch, capsys, argv, digest):
    def unreachable(*args, **kwargs):
        raise AssertionError("the user path ran the hitting-set search")

    for name in ("minimal_primes", "alexander_dual"):
        monkeypatch.setattr(il, name, unreachable)
    if argv[0] != "macaulay":
        argv = argv[:-1] + [str(FIXTURES / f"{argv[-1]}.json")]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_deep_macaulay_stops_at_the_series_generator_limit(monkeypatch, capsys):
    # 200 nested levels and 20100 minimal primes: the dual is built, then
    # the series layer refuses it, with the same error as the hitting sets gave
    monkeypatch.setenv("FERRER_LIMITS", json.dumps({"hitting_set_max_variables": 500}))
    code, out = run_cli(capsys, "macaulay", "--h", "1,200,1,1,1")
    assert code == 4
    assert out == (
        '{\n  "error": "TooManyGenerators",\n'
        '  "message": "20100 generators exceed limit 512"\n}\n'
    )


# int() reads the first four: an underscore, an Arabic-Indic and a fullwidth
# digit, and a no-break space
@pytest.mark.parametrize("h", ["1,1_0", "1,\u0662", "1,\uff12", "1,2\u00a0", "1,0x2", "1,2.0", "1,"])
def test_macaulay_reads_only_ascii_decimal_entries(capsys, h):
    code, out = run_cli(capsys, "macaulay", f"--h={h}")
    assert code == 2
    assert json.loads(out) == {"error": "BadHVector", "message": f"cannot parse {h!r}"}


@pytest.mark.parametrize("h, entries", [("1,2", [1, 2]), (" 1 ,+2 ", [1, 2]), ("1,02,1", [1, 2, 1])])
def test_macaulay_reads_signed_spaced_ascii_entries(capsys, h, entries):
    code, out = run_cli(capsys, "macaulay", f"--h={h}")
    assert code == 0
    assert json.loads(out)["h"] == entries


def test_macaulay_reports_a_negative_first_entry(capsys):
    code, out = run_cli(capsys, "macaulay", "--h=-1,0")
    assert code == 2
    assert json.loads(out) == {"error": "BadHVector", "message": "h_0 = -1 is negative"}


def test_macaulay_refuses_an_entry_past_the_digit_limit(capsys):
    h = "1," + "1" * 5000
    code, out = run_cli(capsys, "macaulay", f"--h={h}")
    assert code == 2
    assert json.loads(out)["error"] == "BadHVector"
