"""End-to-end tests of the gct command line interface.

Each test drives ``gct.cli.dispatch`` with an isolated cache directory
(via GCT_CACHE_DIR) and asserts on exit codes, stdout bytes, and cache
behavior: replays must be byte-identical, corrupted entries must be
recomputed, and commands with file side effects must bypass the cache.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gct import cli, hhh, poly, reptheory, zoo
from gct.poly import Polynomial, loads

from conftest import grenet_witness


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("GCT_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_0_success(capsys):
    code, out, _ = run(capsys, "rep", "kron", "2,2", "2,2", "2,2")
    assert code == 0
    assert "value: 1" in out


def test_exit_1_verification_failure(capsys, tmp_path):
    wfile = str(tmp_path / "w.json")
    tfile = str(tmp_path / "t.json")
    assert run(capsys, "zoo", "witness", "fischer", "3", "-o", wfile)[0] == 0
    assert run(capsys, "zoo", "make", "chow", "3", "-o", tfile)[0] == 0

    code, out, _ = run(capsys, "zoo", "verify", wfile, tfile)
    assert code == 0 and "PASS" in out

    # corrupt one scalar in the witness: now verification must fail
    with open(wfile, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["terms"][0]["coeff"] = "7/3"
    with open(wfile, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    code, out, _ = run(capsys, "zoo", "verify", wfile, tfile)
    assert code == 1
    assert "FAIL at monomial" in out


def test_exit_2_bad_args(capsys, tmp_path):
    assert run(capsys, "no-such-group")[0] == 2
    assert run(capsys, "rep", "char", "abc", "1,1")[0] == 2
    assert run(capsys, "flatten", "rank", "/nonexistent/poly.json")[0] == 2
    assert run(capsys, "--threads", "2", "rep", "kron", "2", "2", "2")[0] == 2
    bad = tmp_path / "zero-denominator.json"
    assert run(capsys, "zoo", "make", "det", "2", "-o", str(bad))[0] == 0
    bad.write_text(bad.read_text().replace('"-1"', '"1/0"'))
    assert run(capsys, "flatten", "rank", str(bad))[0] == 2
    _, _, err = run(capsys, "rep", "char", "abc", "1,1")
    assert "gct: error:" in err
    code, out, err = run(capsys, "zoo", "make", "padded_elem", "3")
    assert (code, out) == (2, "")
    assert err == "gct: error: padded_elem takes 2 parameter(s), got 1\n"
    # negative degrees are refused before any work, by all three rep commands
    for argv in (("pleth", "4", "-2", "-2"), ("useful", "4", "-2", "-2", "0"),
                 ("obstruct", "4", "-2", "-2")):
        code, out, err = run(capsys, "--no-cache", "rep", *argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith("gct: error: degrees d=-2 and n=-2 must be non-negative\n"), argv
    # and by hhh rank and geo cayley, before a dimension count or a factorial
    for argv, message in ((("hhh", "rank", "-1", "2", "2"), "d, n, v must be positive"),
                          (("hhh", "rank", "2", "-1", "2"), "d, n, v must be positive"),
                          (("geo", "cayley", "2", "-1"), "s must be >= 0")):
        assert run(capsys, "--no-cache", *argv) == (2, "", f"gct: error: {message}\n"), argv
    # one weight block is asked for by hhh kernel --weight alone
    assert run(capsys, "hhh", "rank", "3", "2", "3", "--weight", "2,2,2")[:2] == (2, "")


def test_error_line_prints_the_message(capsys):
    code, out, err = run(capsys, "zoo", "make", "nosuch", "3")
    assert (code, out) == (2, "")
    assert err.startswith("gct: error: unknown polynomial 'nosuch'")


def test_exit_3_capacity(capsys):
    code, out, _ = run(capsys, "--json", "hhh", "rank", "5", "5", "5")
    assert code == 3
    rec = json.loads(out)
    assert rec["error"] == "capacity"
    assert rec["size"] == 190131
    assert rec["size"] > rec["cap"]


@pytest.mark.parametrize(
    "argv,size",
    [
        (("hhh", "kernel", "8", "2", "8", "--weight", "4,3,2,2,2,1,1,1"), 5575),
        (("hhh", "kernel", "5", "4", "5", "--weight", "8,4,3,3,2"), 5868),
        (("hhh", "kernel", "6", "3", "6", "--weight", "7,3,3,2,2,1"), 5350),
    ],
)
def test_wide_weight_block_is_refused_before_any_basis(capsys, monkeypatch, argv, size):
    """A --weight block wider than the elimination cap is refused from its
    predicted size: no basis is listed and no column is built."""

    def forbidden(*args):
        raise AssertionError("a refused block was built")

    monkeypatch.setattr(hhh, "multiset_basis", forbidden)
    monkeypatch.setattr(hhh, "hhh_column", forbidden)
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "--no-cache", *argv)
    elapsed = time.monotonic() - start
    rec = json.loads(out)
    assert (code, rec["error"], rec["size"], rec["cap"]) == (3, "capacity", size, 5000)
    d, n, v, w = argv[2], argv[3], argv[4], argv[6]
    assert rec["context"] == f"h_{{{d},{n}}} on C^{v}, weight ({w.replace(',', ', ')})"
    assert elapsed < 1.0


def test_large_plethysm_is_refused_up_front(capsys):
    """p(64) = 1741630 cycle types: refused before any is merged."""
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "--no-cache", "rep", "pleth", "64", "8", "8")
    elapsed = time.monotonic() - start
    rec = json.loads(out)
    assert (code, rec["error"], rec["size"], rec["cap"]) == (3, "capacity", 1741630, 40000)
    assert "p(64)" in rec["context"]
    assert elapsed < 1.0


@pytest.mark.parametrize("args", [("kron", "0", "0", "0"), ("skron", "0", "0"), ("pleth", "0", "0", "0")])
def test_sums_over_the_one_class_of_s0_print_one(capsys, args):
    """S_0 has one class, the empty cycle type, at position 0."""
    code, out, _ = run(capsys, "--json", "--no-cache", "rep", *args)
    assert (code, json.loads(out)["value"]) == (0, 1)


@pytest.mark.parametrize("command", ["kron", "skron"])
def test_large_kronecker_sum_is_refused_before_any_column(capsys, monkeypatch, command):
    """p(100) = 190569292 classes: refused from the count alone."""

    def forbidden(*args):
        raise AssertionError("a refused sum listed classes or built a column")

    monkeypatch.setattr(reptheory, "_column", forbidden)
    monkeypatch.setattr(reptheory, "_classes", forbidden)
    args = ("100",) * (3 if command == "kron" else 2)
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "--no-cache", "rep", command, *args)
    elapsed = time.monotonic() - start
    rec = json.loads(out)
    assert (code, rec["error"], rec["size"], rec["cap"]) == (3, "capacity", 190569292, 250000)
    assert "p(100)" in rec["context"]
    assert elapsed < 1.0


def test_character_on_500_cycles(capsys):
    """One state dict per cycle: no RecursionError on 500 one-cycles."""
    code, out, _ = run(capsys, "--json", "--no-cache", "rep", "char", "500", ",".join(["1"] * 500))
    assert (code, json.loads(out)["value"]) == (0, 1)


@pytest.mark.parametrize("command", ["rank", "waring-lb", "chow-lb"])
def test_wide_catalecticant_is_refused_before_any_column(capsys, monkeypatch, tmp_path, command):
    """P_{3,3} of a sextic on C^31 is C(33,3) = 5456 wide: refused from the
    monomial counts before any partial derivative is taken."""
    path = str(tmp_path / "fermat6_31.json")
    assert run(capsys, "zoo", "make", "fermat", "6", "31", "-o", path)[0] == 0

    def forbidden(*args):
        raise AssertionError("a refused catalecticant was built")

    monkeypatch.setattr(poly, "apply_diff", forbidden)
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "--no-cache", "flatten", command, path)
    elapsed = time.monotonic() - start
    rec = json.loads(out)
    assert (code, rec["error"], rec["size"], rec["cap"]) == (3, "capacity", 5456, 5000)
    assert rec["context"] == "catalecticant P_{3,3} on C^31"
    assert elapsed < 1.0


def test_stabilizer_of_det6_is_refused_before_any_product(capsys, monkeypatch):
    """det_6: 1296 unknowns X_ij by the 130320 monomials of the x_i dP/dx_j,
    over the dense clause.  The columns come from P's terms, so no product
    x_i * dP/dx_j is formed on the way to the refusal: neither ``*`` nor
    the packed kernel behind it and ``sum_of_products`` runs."""

    def forbidden(*args):
        raise AssertionError("a polynomial product was formed")

    monkeypatch.setattr(poly.Polynomial, "__mul__", forbidden)
    monkeypatch.setattr(poly, "_mul_into", forbidden)
    code, out, _ = run(capsys, "--json", "--no-cache", "geo", "stab", "det", "6")
    rec = json.loads(out)
    assert (code, rec["error"], rec["size"], rec["cap"]) == (3, "capacity", 1296 * 130320, 5000**2)
    assert rec["context"] == "stabilizer of a form in gl_36 entries"


def test_widest_admitted_catalecticant(capsys, tmp_path):
    """On C^25 the middle catalecticant is C(27,3) = 2925 wide and square."""
    path = str(tmp_path / "fermat6_25.json")
    assert run(capsys, "zoo", "make", "fermat", "6", "25", "-o", path)[0] == 0
    code, out, _ = run(capsys, "--json", "--no-cache", "flatten", "rank", path)
    rec = json.loads(out)
    assert (code, rec["rank"], rec["shape"]) == (0, 25, [2925, 2925])


@pytest.mark.parametrize(
    "argv,field",
    [(("flatten", "rank"), "rank"), (("flatten", "shifted", "--k", "0", "--l", "0"), "dimension")],
)
def test_constant_in_zero_variables_spans_one_dimension(capsys, tmp_path, argv, field):
    """The one monomial of degree 0 in no variables is 1: rank 1, not a
    usage error."""
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"num_vars": 0, "terms": [{"coeff": "5", "exps": []}]}))
    code, out, _ = run(capsys, "--json", *argv[:2], str(path), *argv[2:])
    assert (code, json.loads(out)[field]) == (0, 1)


NOT_A_RECORD = "a polynomial record is an object with an int num_vars and a list of terms"


@pytest.mark.parametrize(
    "command,payload,message",
    [
        ("flatten", [], NOT_A_RECORD),
        ("flatten", {"num_vars": 2, "terms": 5}, NOT_A_RECORD),
        ("flatten", {"num_vars": [2], "terms": []}, NOT_A_RECORD),
        ("flatten", {"num_vars": 2, "terms": [5]}, "term 5 is not an object with a list of exps"),
        ("flatten", {"num_vars": 2, "terms": [{"coeff": "1", "exps": 5}]},
         "term {'coeff': '1', 'exps': 5} is not an object with a list of exps"),
        ("zoo", [], "a witness record has the wrong JSON type: []"),
        ("zoo", {"kind": "waring", "num_vars": 3, "degree": 3, "terms": 5},
         "terms has the wrong JSON type: 5"),
        ("zoo", {"kind": "chow", "num_vars": 3, "terms": [{"coeff": [1], "forms": []}]},
         "a rational has the wrong JSON type: [1]"),
        ("zoo", {"kind": "det_expression", "n": 1, "num_target_vars": 1, "entries": [5]},
         "a list of rationals has the wrong JSON type: 5"),
        ("zoo", {"kind": "waring", "num_vars": 2, "degree": -1, "terms": [{"coeff": "1", "form": ["1", "0"]}]},
         "degree is negative: -1"),
        ("zoo", {"kind": "waring"}, "num_vars is missing"),
        ("zoo", {"kind": "chow", "num_vars": 9, "terms": [{"forms": [["1"]]}]}, "coeff is missing"),
        ("flatten", {"num_vars": 1, "terms": [{"exps": [1]}]}, "term {'exps': [1]} has no coeff"),
        ("zoo", {"num_vars": 2}, "kind is missing"),
    ],
)
def test_malformed_input_files_are_usage_errors(capsys, tmp_path, command, payload, message):
    """A polynomial or witness file of the wrong JSON shape exits 2 with one
    error line, not 1 with a TypeError or AttributeError traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    if command == "flatten":
        argv = ("flatten", "rank", str(bad))
    else:
        target = tmp_path / "chow3.json"
        assert run(capsys, "zoo", "make", "chow", "3", "-o", str(target))[0] == 0
        argv = ("zoo", "verify", str(bad), str(target))
    assert run(capsys, "--no-cache", *argv) == (2, "", f"gct: error: {message}\n")


def test_non_integer_exponent_is_a_usage_error(capsys, tmp_path):
    """A polynomial file with exponent 1.5 is refused, not read as x1."""
    path = tmp_path / "half.json"
    terms = [{"coeff": "1", "exps": [1.5, 0]}, {"coeff": "2", "exps": [0, 1]}]
    path.write_text(json.dumps({"num_vars": 2, "terms": terms}))
    code, out, err = run(capsys, "--no-cache", "flatten", "rank", str(path))
    assert (code, out) == (2, "")
    assert err == "gct: error: exponents [1.5, 0] are not all integers\n"


@pytest.mark.parametrize(
    "argv",
    [("hhh", "kernel", "3", "3", "3", "--weight", ""), ("geo", "dualdim", "det", "3", "--point", "")],
    ids=["weight", "point"],
)
def test_empty_option_value_is_a_usage_error(capsys, argv):
    """An empty --weight or --point is refused, not taken as omitted (the
    whole-map kernel, a sampled point)."""
    code, out, err = run(capsys, "--no-cache", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("gct: error:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv,message",
    [(("hhh", "kernel", "3", "2", "3", "--weight", "-1,3,4"), "weight must be v non-negative integers"),
     (("rep", "kron", "-2,1", "2,1", "2,1"), "negative part in (-2, 1)")],
    ids=["weight", "kron"],
)
def test_comma_list_with_a_leading_minus_is_a_value(capsys, argv, message):
    """A comma list that starts with a negative number reaches its
    conversion, not argparse's option matching, so the error names the
    negative entry."""
    assert run(capsys, "--no-cache", *argv) == (2, "", f"gct: error: {message}\n")


@pytest.mark.parametrize(
    "argv,size,cap",
    [(("geo", "cayley", "2", "3"), 3, 2), (("geo", "cayley", "4", "1"), 4, 3),
     (("geo", "sfturbo", "5"), 5, 4)],
)
def test_capacity_record_names_the_parameter_over_its_cap(capsys, argv, size, cap):
    code, out, _ = run(capsys, "--json", *argv)
    rec = json.loads(out)
    assert (code, rec["error"], rec["size"], rec["cap"]) == (3, "capacity", size, cap)


@pytest.mark.parametrize("v", ["1", "2"])
def test_sfturbo_below_3_is_a_bad_argument(capsys, v):
    code, out, err = run(capsys, "geo", "sfturbo", v)
    assert (code, out) == (2, "")
    assert err.startswith("gct: error: sfturbo checks need v >= 3")


@pytest.mark.parametrize("check", ["cp8", "cp9"])
def test_sfturbo_v3_closed_form_at_v4_is_a_bad_argument(capsys, check):
    code, out, err = run(capsys, "geo", "sfturbo", "4", "--checks", check)
    assert (code, out) == (2, "")
    assert err.startswith("gct: error: sfturbo checks cp8 and cp9 are stated only at v = 3")


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------


def test_cache_replay_byte_identical(capsys, tmp_path):
    args = ("hhh", "rank", "2", "2", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "rank: 21" in out1
    # json mode replays identically too (re-rendered from the record)
    j1 = run(capsys, "--json", *args)
    j2 = run(capsys, "--json", *args)
    assert j1 == j2
    assert json.loads(j1[1])["rank"] == 21


def test_cache_stores_manifest_without_stdout_timing(capsys, tmp_path):
    run(capsys, "geo", "cayley", "2", "1")
    cache_dir = os.environ["GCT_CACHE_DIR"]
    files = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
    assert len(files) == 1
    with open(os.path.join(cache_dir, files[0]), "r", encoding="utf-8") as fh:
        entry = json.load(fh)
    assert entry["manifest"]["command"] == ["geo", "cayley"]
    assert entry["manifest"]["parameters"] == {"n": 2, "s": 1}
    assert "timing_seconds" in entry["manifest"]
    assert "result_digest" in entry["manifest"]
    _, out, _ = run(capsys, "geo", "cayley", "2", "1")
    assert "timing" not in out  # timing lives in the manifest only


def test_corrupted_cache_entry_recomputed(capsys):
    args = ("rep", "pleth", "4,2", "3", "2")
    _, fresh, _ = run(capsys, *args)
    cache_dir = os.environ["GCT_CACHE_DIR"]
    files = os.listdir(cache_dir)
    assert len(files) == 1
    path = os.path.join(cache_dir, files[0])
    with open(path, "r", encoding="utf-8") as fh:
        entry = json.load(fh)
    entry["record"]["value"] = 999  # tamper: digest no longer matches
    entry["human"] = "value: 999\n"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)
    _, out, _ = run(capsys, *args)
    assert out == fresh  # tampered entry was rejected and recomputed
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh)["record"]["value"] != 999


@pytest.mark.parametrize(
    "text",
    ["[1, 2]", '"entry"', "null",
     '{"manifest": 5, "record": {}, "human": "x", "ok": true}',
     '{"manifest": {}, "record": [], "human": "x", "ok": true}',
     '{"manifest": {}, "record": {}, "human": 5, "ok": true}'],
)
def test_cache_entry_of_the_wrong_shape_is_a_miss(capsys, text):
    """Valid JSON that is not an entry object (or whose manifest, record or
    report has the wrong type) is recomputed and overwritten, every time."""
    args = ("latin", "count", "3")
    _, fresh, _ = run(capsys, *args)
    cache_dir = os.environ["GCT_CACHE_DIR"]
    (name,) = os.listdir(cache_dir)
    path = os.path.join(cache_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert run(capsys, *args) == (0, fresh, "")
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh)["human"] == fresh
    assert run(capsys, *args) == (0, fresh, "")


@pytest.mark.parametrize("field", ["human", "ok"])
def test_tampered_human_or_verdict_recomputed(capsys, field):
    """The stored digest covers the human report and the verdict, not only
    the record: an entry with either one altered alone must not replay."""
    args = ("rep", "pleth", "4,2", "3", "2")
    _, fresh, _ = run(capsys, *args)
    cache_dir = os.environ["GCT_CACHE_DIR"]
    (name,) = os.listdir(cache_dir)
    path = os.path.join(cache_dir, name)
    with open(path, "r", encoding="utf-8") as fh:
        entry = json.load(fh)
    entry[field] = fresh.replace("value: ", "value: 9") if field == "human" else False
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)
    code, out, _ = run(capsys, *args)
    assert (code, out) == (0, fresh)
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh)[field] == (fresh if field == "human" else True)


def test_entry_from_other_code_recomputed(capsys, monkeypatch):
    """The key covers a digest of the package sources: an entry stored by
    other code is recomputed, even when it is self-consistent."""
    args = ("rep", "pleth", "4,2", "3", "2")
    this_code = cli.code_digest
    monkeypatch.setattr(cli, "code_digest", lambda: "0" * 64)
    _, fresh, _ = run(capsys, *args)
    cache_dir = os.environ["GCT_CACHE_DIR"]
    (name,) = os.listdir(cache_dir)
    path = os.path.join(cache_dir, name)
    with open(path, "r", encoding="utf-8") as fh:
        entry = json.load(fh)
    assert entry["manifest"]["code_version"] == "0" * 64
    # the other code's answer differs, under a valid digest
    entry["human"] = fresh.replace("value: ", "value: 9")
    entry["manifest"]["result_digest"] = cli.entry_digest(
        entry["record"], entry["human"], entry["ok"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)
    assert run(capsys, *args)[1] == entry["human"]  # that code replays it
    monkeypatch.setattr(cli, "code_digest", this_code)
    code, out, _ = run(capsys, *args)
    assert (code, out) == (0, fresh)
    assert len(os.listdir(cache_dir)) == 2
    versions = set()
    for f in os.listdir(cache_dir):
        with open(os.path.join(cache_dir, f), "r", encoding="utf-8") as fh:
            versions.add(json.load(fh)["manifest"]["code_version"])
    assert versions == {"0" * 64, cli.code_digest()}


def test_no_cache_flag(capsys):
    args = ("geo", "cayley", "2", "0", "--no-cache")
    assert run(capsys, *args)[0] == 0
    cache_dir = os.environ["GCT_CACHE_DIR"]
    assert not os.path.exists(cache_dir) or os.listdir(cache_dir) == []


def test_cache_dir_that_is_a_file_warns_and_keeps_the_result(capsys, tmp_path):
    """A store that fails is one warning line: stdout and the exit code are
    those of an uncached run."""
    uncached = run(capsys, "--no-cache", "rep", "pleth", "4,2", "3", "2")
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    code, out, err = run(capsys, "--cache-dir", str(blocker), "rep", "pleth", "4,2", "3", "2")
    assert (code, out) == uncached[:2] and code == 0
    assert err.startswith("gct: warning: ") and err.count("\n") == 1


def test_two_processes_storing_one_key_both_succeed(tmp_path, monkeypatch):
    """A second process stores the same key between the first one's write
    and its rename; each writes its own temporary file, so both renames
    land and no temporary file is left."""
    path = str(tmp_path / "key.json")
    replace = os.replace

    def interleaved(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "getpid", lambda: 202)
        cli._cache_store(path, {"ok": False})
        replace(src, dst)

    monkeypatch.setattr(os, "getpid", lambda: 101)
    monkeypatch.setattr(os, "replace", interleaved)
    cli._cache_store(path, {"ok": True})
    assert os.listdir(tmp_path) == ["key.json"]
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh) == {"ok": True}  # the later rename wins


@pytest.mark.parametrize("step", ["dump", "replace"])
def test_store_that_fails_leaves_no_temporary_file(capsys, monkeypatch, tmp_path, step):
    """A store that fails in its write or its rename removes its temporary
    file and is one warning line: stdout and the exit code are those of an
    uncached run."""
    argv = ("rep", "pleth", "4,2", "3", "2")
    uncached = run(capsys, "--no-cache", *argv)

    def refuse(*args, **kwargs):
        raise OSError(f"{step} refused")

    monkeypatch.setattr(json if step == "dump" else os, step, refuse)
    cache = tmp_path / "store-fails"
    code, out, err = run(capsys, "--cache-dir", str(cache), *argv)
    assert (code, out) == uncached[:2] and code == 0
    assert err == f"gct: warning: result not cached: {step} refused\n"
    assert os.listdir(cache) == []


def test_output_flag_bypasses_cache_and_writes(capsys, tmp_path):
    # prime the cache without -o
    run(capsys, "geo", "cp", "det", "2", "--s", "2")
    target = tmp_path / "cp2.json"
    code, _, _ = run(capsys, "geo", "cp", "det", "2", "--s", "2", "-o", str(target))
    assert code == 0
    assert target.exists()  # the side-effect file must be written, not replayed
    with open(target, "r", encoding="utf-8") as fh:
        p = loads(fh.read())
    from fractions import Fraction

    # cp_2 of H(det_2) (the constant 4x4 Hessian) is the constant -2
    assert p == Polynomial.constant(4, Fraction(-2))


def test_content_keyed_flattening_cache(capsys, tmp_path):
    """flatten commands key on polynomial content, not the file path."""
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "zoo", "make", "fermat", "3", "2", "-o", str(a))
    run(capsys, "zoo", "make", "fermat", "3", "2", "-o", str(b))
    out_a = run(capsys, "flatten", "waring-lb", str(a))
    cache_dir = os.environ["GCT_CACHE_DIR"]
    n_entries = len(os.listdir(cache_dir))
    out_b = run(capsys, "flatten", "waring-lb", str(b))
    assert out_a[1] == out_b[1]
    assert len(os.listdir(cache_dir)) == n_entries  # same key: no new entry


# ---------------------------------------------------------------------------
# zoo round trips
# ---------------------------------------------------------------------------


def test_zoo_make_stdout_is_loadable(capsys):
    code, out, _ = run(capsys, "zoo", "make", "det", "2")
    assert code == 0
    p = loads(out)
    from gct.zoo import det

    assert p == det(2)


def test_zoo_make_out_of_range_is_a_usage_error(capsys):
    assert run(capsys, "zoo", "make", "det", "0") == (2, "", "gct: error: n must be >= 1\n")


def test_zoo_witness_stdout_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "zoo", "witness", "benor", "3", "2")
    assert code == 0
    rec = json.loads(out)
    w = zoo.from_record(rec)
    assert zoo.verify_chow(w, zoo.padded_elem(3, 2)).ok


def witness_record(w) -> dict:
    """The file record of any witness; no command writes a det expression,
    so its writer lives here."""
    if isinstance(w, zoo.DetExpressionWitness):
        return {
            "kind": "det_expression",
            "n": w.n,
            "num_target_vars": w.num_target_vars,
            "entries": [[str(x) for x in row] for row in w.entries],
        }
    return w.to_record()


def test_witness_record_roundtrip_all_kinds(tmp_path):
    from fractions import Fraction

    from gct import zoo

    for dec in (
        zoo.fischer_decomposition(3),
        zoo.ryser_decomposition(3),
        zoo.DetExpressionWitness(
            n=2,
            num_target_vars=4,
            entries=(
                (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(-1), Fraction(0), Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
            ),
        ),
    ):
        rec = witness_record(dec)
        back = zoo.from_record(json.loads(json.dumps(rec)))
        assert back == dec


def _verify_files(capsys, tmp_path, witness, m):
    """Write ``witness`` and perm_m to files; return their paths."""
    w_path, t_path = tmp_path / "witness.json", tmp_path / "perm.json"
    w_path.write_text(json.dumps(witness_record(witness)))
    assert run(capsys, "zoo", "make", "perm", str(m), "-o", str(t_path))[0] == 0
    return str(w_path), str(t_path)


def test_chow_witness_with_a_short_form_is_an_arity_error(capsys, tmp_path):
    """One form of Ryser's perm_5 witness one entry short: a usage error
    naming both arities, as before the packed expansion."""
    w = zoo.ryser_decomposition(5)
    c, forms = w.terms[3]
    short = (c, forms[:2] + (forms[2][:-1],) + forms[3:])
    paths = _verify_files(capsys, tmp_path, w._replace(terms=w.terms[:3] + (short,) + w.terms[4:]), 5)
    code, out, err = run(capsys, "--no-cache", "zoo", "verify", *paths)
    assert (code, out, err) == (2, "", "gct: error: arity mismatch: 25 vs 24\n")


@pytest.mark.parametrize("m", [3, 4])
def test_grenet_witness_verifies_through_the_cli(capsys, tmp_path, m):
    """perm_3 as det_7 and perm_4 as det_15 (15! Leibniz terms, 2^15
    subset minors)."""
    paths = _verify_files(capsys, tmp_path, grenet_witness(m), m)
    start = time.monotonic()
    code, out, _ = run(capsys, "--no-cache", "zoo", "verify", *paths)
    elapsed = time.monotonic() - start
    assert (code, out) == (0, f"det_{2**m - 1} expression: PASS\n")
    assert elapsed < 5.0


def test_grenet_witness_with_a_flipped_sign_fails(capsys, tmp_path):
    w = grenet_witness(3)
    entries = list(w.entries)
    entries[1] = tuple(-c for c in entries[1])  # the edge from the merged vertex to {1}
    bad = zoo.DetExpressionWitness(w.n, w.num_target_vars, tuple(entries))
    paths = _verify_files(capsys, tmp_path, bad, 3)
    code, out, _ = run(capsys, "--no-cache", "zoo", "verify", *paths)
    assert code == 1
    assert out.startswith("det_7 expression: FAIL at monomial (")


def test_det_expression_over_15_is_refused_before_any_expansion(capsys, monkeypatch, tmp_path):
    """perm_4's witness with one more l on the diagonal is a valid 16 x 16
    expression, refused from n alone."""
    w = grenet_witness(4)
    zero, l_form = (0,) * 17, (0,) * 16 + (1,)
    rows = [w.entries[i * 15 : (i + 1) * 15] + (zero,) for i in range(15)]
    rows.append((zero,) * 15 + (l_form,))
    padded = zoo.DetExpressionWitness(16, 16, tuple(f for row in rows for f in row))
    paths = _verify_files(capsys, tmp_path, padded, 4)

    def forbidden(*args):
        raise AssertionError("a refused det expression was expanded")

    monkeypatch.setattr(zoo, "det_polymatrix", forbidden)
    monkeypatch.setattr(zoo.Polynomial, "linear_form", forbidden)
    start = time.monotonic()
    code, out, _ = run(capsys, "--json", "--no-cache", "zoo", "verify", *paths)
    elapsed = time.monotonic() - start
    rec = json.loads(out)
    assert (code, rec["error"], rec["size"], rec["cap"]) == (3, "capacity", 16, 15)
    assert rec["context"] == "det_n expression n"
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# global flags and seeds
# ---------------------------------------------------------------------------


def test_global_flags_after_positionals(capsys):
    code, out, _ = run(capsys, "hhh", "rank", "2", "2", "2", "--json")
    assert code == 0
    assert json.loads(out)["rank"] == 6


def test_seeded_dualdim_reproducible(capsys):
    a = run(capsys, "--json", "geo", "dualdim", "det", "3", "--seed", "5")
    b = run(capsys, "--json", "geo", "dualdim", "det", "3", "--seed", "5")
    assert a == b
    rec5 = json.loads(a[1])
    rec9 = json.loads(
        run(capsys, "--json", "geo", "dualdim", "det", "3", "--seed", "9")[1]
    )
    assert rec5["dual_dimension"] == rec9["dual_dimension"] == 4
    assert rec5["point"] != rec9["point"]  # different sample, same dimension


def test_seed_participates_in_cache_key(capsys):
    run(capsys, "geo", "dualdim", "det", "3", "--seed", "5")
    n1 = len(os.listdir(os.environ["GCT_CACHE_DIR"]))
    run(capsys, "geo", "dualdim", "det", "3", "--seed", "9")
    n2 = len(os.listdir(os.environ["GCT_CACHE_DIR"]))
    assert n2 == n1 + 1


def test_seed_only_on_dualdim(capsys):
    for argv in (
        ("rep", "pleth", "4,2", "3", "2", "--seed", "7"),
        ("--seed", "7", "rep", "pleth", "4,2", "3", "2"),
        ("geo", "stab", "det", "2", "--seed", "7"),
    ):
        assert run(capsys, *argv)[:2] == (2, "")


def test_spellings_of_one_question_share_a_cache_entry(capsys, monkeypatch):
    _, fresh, _ = run(capsys, "rep", "pleth", "4,2", "3", "2")
    cache_dir = os.environ["GCT_CACHE_DIR"]
    assert len(os.listdir(cache_dir)) == 1

    def not_called(ns):
        raise AssertionError("recomputed instead of replayed")

    # the handler is looked up by name at dispatch, so this catches a miss
    monkeypatch.setattr(cli, "cmd_rep_pleth", not_called)
    assert run(capsys, "rep", "pleth", "2,4", "3", "2") == (0, fresh, "")
    assert run(capsys, "rep", "pleth", "4,2,0", "3", "2") == (0, fresh, "")
    assert len(os.listdir(cache_dir)) == 1


# ---------------------------------------------------------------------------
# command behaviors
# ---------------------------------------------------------------------------


def test_latin_count(capsys):
    code, out, _ = run(capsys, "latin", "count", "4")
    assert code == 0
    assert "count_plus: 576" in out
    assert "count_minus: 0" in out


def test_latin_count_capacity(capsys):
    code, out, _ = run(capsys, "--json", "latin", "count", "7")
    assert code == 3
    rec = json.loads(out)
    assert rec["error"] == "capacity"
    assert (rec["size"], rec["cap"]) == (7, 6)


def test_latin_pairing(capsys):
    code, out, _ = run(capsys, "--json", "latin", "pairing", "2", "--all-vars")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "-2" and rec["nonzero"] is True


def test_geo_discriminant_human_line(capsys):
    code, out, _ = run(capsys, "geo", "discriminant")
    assert code == 0
    assert out == "det(H(Δ)) = 3888·Δ²: PASS\n"


def test_geo_sfturbo_summary(capsys):
    code, out, _ = run(capsys, "geo", "sfturbo", "3")
    assert code == 0
    assert "H(det_3) characteristic coefficients:" in out
    assert "[ok]" in out and "FAIL" not in out


def test_geo_stab_and_hhh_kernel(capsys):
    code, out, _ = run(capsys, "--json", "geo", "stab", "p_lambda", "3")
    assert code == 0
    assert json.loads(out)["stabilizer_lie_dim"] == 17

    code, out, _ = run(capsys, "--json", "hhh", "kernel", "3", "2", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["kernel_by_dominant_weight"] == {"2,2,2": 1}
    assert rec["kernel_dimension"] == 1


def test_rep_obstruct_progress_and_fields(capsys):
    code, out, err = run(capsys, "--json", "rep", "obstruct", "4,4", "4", "2")
    assert code == 0
    rec = json.loads(out)
    assert {"mult", "kronecker", "symmetric_kronecker"} <= set(rec)
    assert isinstance(rec["occurrence_obstruction"], bool)
    assert "plethysm" in err  # staged progress on stderr


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------


def _probe(code, cwd=None):
    """The stdout of ``code`` run in a fresh interpreter on this ``src``."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True,
        check=True,
    ).stdout


def test_import_loads_neither_dataclasses_nor_inspect():
    """Each gct command is a fresh process, so whatever importing the CLI
    loads is paid on every command: dataclasses, and the inspect it pulls
    in, stay out.  The modules are compared before and after the import, so
    what the interpreter preloads at start-up does not count."""
    out = _probe(
        "import sys; before = set(sys.modules); import gct.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    loaded = set(out.split())
    assert "gct.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


#: prints the gct modules whose code has run, and whether dataclasses or
#: inspect is loaded; ``type()`` does not trigger a lazy module's load
_EXECUTED = (
    "import sys, types; "
    "print(' '.join(sorted(m for m, mod in sys.modules.items() "
    "if (m == 'gct' or m.startswith('gct.')) and type(mod) is types.ModuleType)), "
    "bool(sys.modules.keys() & {'dataclasses', 'inspect'}))"
)


def test_import_runs_only_the_cli():
    """``import gct.cli`` registers every layer, poly too, and runs none."""
    out = _probe("import gct.cli; " + _EXECUTED)
    assert out == "gct gct.cli False\n"


@pytest.mark.parametrize(
    "argv,layers",
    [
        (("rep", "useful", "3,1", "2", "2", "2"), ("reptheory",)),
        (("flatten", "shifted", "det3.json", "--k", "1", "--l", "1"),
         ("flatten", "monomials", "poly")),
        (("geo", "stab", "det", "3"), ("flatten", "geometry", "monomials", "poly", "zoo")),
        (("latin", "count", "3"), ("latin", "monomials", "poly", "zoo")),
        (("zoo", "make", "det", "3"), ("monomials", "poly", "zoo")),
        (("hhh", "kernel", "5", "5", "5", "--weight", "18,5,2,0,0"),
         ("flatten", "hhh", "monomials", "reptheory")),
    ],
    ids=["rep-useful", "flatten-shifted", "geo-stab", "latin-count", "zoo-make", "hhh-kernel"],
)
def test_command_runs_only_the_layers_it_uses(capsys, tmp_path, argv, layers):
    """A command's process runs the code of the layers it calls and of
    their imports, and of no other layer: an h_{d,n} block lists and
    counts monomials but builds no polynomial, so it runs no ``poly``."""
    assert run(capsys, "zoo", "make", "det", "3", "-o", str(tmp_path / "det3.json"))[0] == 0
    out = _probe(
        f"import gct.cli; gct.cli.dispatch({['--no-cache', *argv]!r}); " + _EXECUTED,
        cwd=tmp_path,
    )
    executed = " ".join(sorted(["gct", "gct.cli", *(f"gct.{m}" for m in layers)]))
    assert out.splitlines()[-1] == f"{executed} False"


def _loaded_by(argv):
    """The modules a fresh process loads to import the CLI and run ``argv``;
    what the interpreter preloads at start-up does not count."""
    out = _probe(
        "import sys; before = set(sys.modules); import gct.cli; "
        f"gct.cli.dispatch({list(argv)!r}); "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    return set(out.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv",
    [
        ("rep", "useful", "3,1", "2", "2", "2"),
        ("rep", "kron", "6,3,3", "4,4,4", "4,4,4"),
        ("--no-cache", "rep", "pleth", "4,2", "3", "2"),
        ("--no-cache", "rep", "obstruct", "4,4", "4", "2"),
        ("--no-cache", "hhh", "kernel", "5", "5", "5", "--weight", "18,5,2,0,0"),
    ],
    ids=["rep-useful", "rep-kron", "no-cache-pleth", "no-cache-obstruct", "no-cache-hhh-kernel"],
)
def test_command_that_neither_caches_nor_digests_loads_no_openssl(argv):
    """A SHA-256 module is loaded for a digest and ``fractions`` for a
    rational: a ``rep`` command that stores nothing needs neither, nor does
    an h_{d,n} block, whose columns are integer counts."""
    loaded = _loaded_by(argv)
    assert "gct.reptheory" in loaded
    assert not loaded & {"_sha2", "_sha256", "hashlib", "_hashlib", "fractions"}, sorted(loaded)


@pytest.mark.parametrize("case", ["cached", "replay", "zoo-digest", "no-cache-file"])
def test_digests_load_no_openssl(tmp_path, case):
    """Every digest, a cache key, a replayed entry's check or a polynomial's
    ``poly_digest``, comes from CPython's built-in SHA-256, so no command
    loads OpenSSL's ``_hashlib`` (or ``hashlib``, which imports it). A
    cached ``rep pleth`` stores an integer, so it loads no ``fractions``."""
    cached = ["--cache-dir", str(tmp_path / "c"), "rep", "pleth", "4,2", "3", "2"]
    det3 = str(tmp_path / "det3.json")
    if case == "no-cache-file":
        assert cli.dispatch(["zoo", "make", "det", "3", "-o", det3]) == 0
    if case == "replay":
        assert cli.dispatch(cached) == 0
        (entry,) = (tmp_path / "c").iterdir()
        inode = entry.stat().st_ino
    argv = {
        "cached": cached,
        "replay": cached,
        "zoo-digest": ["zoo", "make", "det", "3"],
        "no-cache-file": ["--no-cache", "flatten", "rank", det3, "--k", "1"],
    }[case]
    loaded = _loaded_by(argv)
    assert loaded & {"_sha2", "_sha256"}, sorted(loaded)
    assert not loaded & {"hashlib", "_hashlib"}, sorted(loaded)
    if argv is cached:
        assert "fractions" not in loaded, sorted(loaded)
        assert len(os.listdir(tmp_path / "c")) == 1  # one entry, stored or replayed
    if case == "replay":  # a recompute would os.replace the entry: a new inode
        assert entry.stat().st_ino == inode


DIGEST_PAYLOADS = [
    {},
    [],
    "",
    0,
    None,
    {"b": [1, 2.5, "x"], "a": {"z": None, "y": True}},
    {"command": ["rep", "pleth"], "parameters": {"lam": [4, 2]}, "code_version": "0" * 64},
    ["\u00e9\u2208", -(10**40)],
]


def _hashlib_digest(payload):
    """The oracle: hashlib's SHA-256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _hashlib_code_digest():
    """The oracle for ``code_digest``: hashlib's SHA-256 over the package's
    ``*.py`` files, each as NUL, name, NUL, bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_digests_match_hashlib():
    """``_digest`` and ``code_digest`` are SHA-256 of the same bytes as
    through ``hashlib``, used here only as the oracle."""
    assert [cli._digest(x) for x in DIGEST_PAYLOADS] == list(map(_hashlib_digest, DIGEST_PAYLOADS))
    assert cli.code_digest() == _hashlib_code_digest()


def test_digest_falls_back_to_hashlib():
    """With neither built-in module importable, as in a CPython built
    without its built-in hashes, the digests come from ``hashlib`` and are
    the same bytes."""
    payload = DIGEST_PAYLOADS[5]
    out = _probe(
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import gct.cli; "
        f"print(gct.cli._digest({payload!r}), gct.cli.code_digest(), '_hashlib' in sys.modules)"
    )
    assert out.split() == [_hashlib_digest(payload), _hashlib_code_digest(), "True"]


def test_lazy_layers_are_the_imported_modules():
    """A layer imported before the CLI is the object the CLI calls through;
    one imported after it is bound on the package as an import binds it."""
    out = _probe(
        "import sys, types; from gct import zoo; import gct.cli; import gct.hhh; "
        "print(gct.hhh.sym_sym_dim(2, 2, 2), gct.cli.zoo is zoo, "
        "gct.cli.hhh is gct.hhh is sys.modules['gct.hhh'], type(zoo) is types.ModuleType)"
    )
    assert out == "6 True True True\n"


# ---------------------------------------------------------------------------
# parser oracle: the table built up front, as the CLI did before it filled
# in only the group and the command on the line
# ---------------------------------------------------------------------------


def full_table_parser():
    """Every group, command and argument of ``cli.COMMANDS``, added up front."""
    parser = argparse.ArgumentParser(
        prog="gct",
        description="Exact-arithmetic toolkit for flattenings, plethysms, "
        "Latin-square sign counting, and determinant geometry.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default $GCT_CACHE_DIR or ~/.cache/gct)")
    groups = parser.add_subparsers(dest="group", metavar="GROUP", required=True)
    for group, (group_help, commands) in cli.COMMANDS.items():
        g = groups.add_parser(group, help=group_help)
        sub = g.add_subparsers(dest="cmd", metavar="CMD", required=True)
        for name, (cmd_help, cacheable, args) in commands.items():
            sp = sub.add_parser(name, help=cmd_help, description=cmd_help)
            dests = [sp.add_argument(*flags, **kwargs).dest for flags, kwargs in args]
            sp.set_defaults(cacheable=cacheable, arg_names=[d for d in dests if d != "output"])
    return parser


def _parsed(parser, argv):
    """(namespace, stdout, stderr, exit code) of parsing ``argv`` as dispatch does."""
    out, err = io.StringIO(), io.StringIO()
    ns, code = None, 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parser.parse_args(cli._hoist_globals(argv)))
        except SystemExit as exc:
            code = exc.code
    return ns, out.getvalue(), err.getvalue(), code


def _parser_cases():
    cases = [argv for _, argv in GOLDEN] + [("--json", *argv) for _, argv in GOLDEN]
    cases += [("-h",), ()] + [(group, "-h") for group in cli.COMMANDS]
    cases += [(group, name, "-h") for group, (_, cmds) in cli.COMMANDS.items() for name in cmds]
    return cases + [
        ("rpe", "kron", "2,2", "2,2", "2,2"),  # a misspelled group
        ("rep", "kronn", "2,2", "2,2", "2,2"),  # a misspelled command
        ("rep",),
        ("rep", "kron", "2,2"),
        ("rep", "kron", "2,2", "2,2", "2,2", "extra"),
        ("hhh", "rank", "3", "x", "3"),
        ("--cache", "somewhere", "rep", "char", "3,1", "2,1,1"),  # an abbreviated option
        ("--no", "rep", "char", "3,1", "2,1,1", "--cache-dir"),
        ("zoo", "witness", "nosuch"),
    ]


def test_parser_matches_the_full_table():
    """For each line, the namespace, stdout, stderr and exit code of the
    lazily filled parser are those of the parser built up front."""
    for argv in _parser_cases():
        assert _parsed(cli.build_parser(), list(argv)) == _parsed(full_table_parser(), list(argv)), argv


# ---------------------------------------------------------------------------
# golden transcript: exact stdout bytes and exit codes of every command
# ---------------------------------------------------------------------------

#: files the golden cases read, written into the working directory first
GOLDEN_FILES = (
    ("zoo", "make", "det", "3", "-o", "det3.json"),
    ("zoo", "make", "chow", "3", "-o", "chow3.json"),
    ("zoo", "witness", "fischer", "3", "-o", "fischer3.json"),
    ("zoo", "make", "fermat", "6", "31", "-o", "fermat6_31.json"),
)

#: (id, argv): every leaf command at least once, a capacity refusal (exit 3)
#: and bad arguments (exit 2)
GOLDEN = (
    ("zoo-make", ("zoo", "make", "det", "3")),
    ("zoo-make-o", ("zoo", "make", "perm", "2", "-o", "perm2.json")),
    ("zoo-witness", ("zoo", "witness", "benor", "3", "2")),
    ("zoo-witness-o", ("zoo", "witness", "ryser", "3", "-o", "ryser3.json")),
    ("zoo-verify", ("zoo", "verify", "fischer3.json", "chow3.json")),
    ("flatten-rank", ("flatten", "rank", "det3.json")),
    ("flatten-rank-k", ("flatten", "rank", "det3.json", "--k", "2")),
    ("flatten-waring-lb", ("flatten", "waring-lb", "chow3.json")),
    ("flatten-chow-lb", ("flatten", "chow-lb", "det3.json")),
    ("flatten-shifted", ("flatten", "shifted", "det3.json", "--k", "1", "--l", "1")),
    ("hhh-rank", ("hhh", "rank", "2", "2", "3")),
    ("hhh-kernel", ("hhh", "kernel", "3", "2", "3")),
    ("hhh-kernel-weight", ("hhh", "kernel", "3", "2", "3", "--weight", "2,2,2")),
    ("hhh-character", ("hhh", "character", "3", "2", "3")),
    ("rep-char", ("rep", "char", "3,1", "2,1,1")),
    ("rep-kron", ("rep", "kron", "2,2", "2,2", "2,2")),
    ("rep-skron", ("rep", "skron", "2,2", "2,2")),
    ("rep-pleth", ("rep", "pleth", "2,4", "3", "2")),
    ("rep-obstruct", ("rep", "obstruct", "4,4", "4", "2")),
    ("rep-useful", ("rep", "useful", "6,2", "4", "2", "3")),
    ("latin-count", ("latin", "count", "4")),
    ("latin-pairing", ("latin", "pairing", "2")),
    ("latin-pairing-all-vars", ("latin", "pairing", "3", "--all-vars")),
    ("geo-hessian", ("geo", "hessian", "det", "2")),
    ("geo-hessian-o", ("geo", "hessian", "det3.json", "-o", "h.json")),
    ("geo-cp", ("geo", "cp", "det", "3", "--s", "2")),
    ("geo-sfturbo", ("geo", "sfturbo", "3", "--checks", "cp1,cp3")),
    ("geo-discriminant", ("geo", "discriminant")),
    ("geo-cayley", ("geo", "cayley", "2", "1")),
    ("geo-sylfranke", ("geo", "sylfranke", "3", "1", "1")),
    ("geo-dualdim-seed", ("geo", "dualdim", "det", "3", "--seed", "5")),
    ("geo-dualdim-perm", ("geo", "dualdim", "perm", "3")),
    ("geo-dualdim-point", ("geo", "dualdim", "chow3.json", "--point", "1,1,0")),
    ("geo-stab", ("geo", "stab", "p_lambda", "3")),
    ("capacity-pairing", ("latin", "pairing", "4")),
    ("capacity-latin", ("latin", "count", "7")),
    ("capacity-hhh-kernel", ("hhh", "kernel", "6", "3", "6")),
    ("capacity-hhh-rank", ("hhh", "rank", "5", "5", "5")),
    ("capacity-hhh-kernel-weight", ("hhh", "kernel", "8", "2", "8", "--weight", "4,3,2,2,2,1,1,1")),
    ("capacity-flatten-waring-lb", ("flatten", "waring-lb", "fermat6_31.json")),
    ("capacity-kron", ("rep", "kron", "100", "100", "100")),
    ("bad-group", ("no-such-group",)),
    ("bad-partition", ("rep", "char", "abc", "1,1")),
    ("bad-file", ("flatten", "rank", "missing.json")),
    ("bad-name", ("zoo", "make", "nosuch", "3")),
)

#: id -> (exit code, SHA-256 of stdout, SHA-256 of stdout under --json),
#: recorded from the hand-built parser that preceded the command table; the
#: two h_{d,n} refusals from the plan that counted every dominant weight, and
#: the --weight refusal from the capacity rule that runs before any basis,
#: and the catalecticant refusal from the same rule, now owned by gct.flatten;
#: the Kronecker refusal from the p(N) cap checked before any character column
GOLDEN_STDOUT = {
    "zoo-make": (
        0,
        "7e44ffa8490efa9e793d399b00c3aa270af1bde84bfffdc7ef59bbcfa35da3c4",
        "6b8bc8247f1ce0a50dc77cbea9805b8cb684ec6a82de14709fd4b91295327bf4",
    ),
    "zoo-make-o": (
        0,
        "f10d8090058801ccedd3a8a5b9af277ccd5b013d684f87dd9e7184f31191bbf3",
        "0bd3b0dd30b18ff2426667f8c27eade94b1d0497a75979312ff3a3d2a9252510",
    ),
    "zoo-witness": (
        0,
        "caec2cbd1fac25a8680f19f8c537887519184c6c0cad09e22ba9d44c7350aeac",
        "9a18c4a888c81bcb4bedbc2e26dadc28768731f8754e1b75a9989653ce203bd3",
    ),
    "zoo-witness-o": (
        0,
        "0329dda4118b94e05a0bd32894c734df75d6c86252f192c700eb9f629a50acea",
        "770d44675063ac2c994ffa8fcdca81d60820a6b8b466b657a09be8fbc4b9b8d7",
    ),
    "zoo-verify": (
        0,
        "82da978dc97f5d2c951a85f4bd57ac33d6a65911bab9e5ace29adebf0652fb09",
        "2e21f65509104b81ec2551382e322f578e03099262dbccafc1f4c6c50f59de20",
    ),
    "flatten-rank": (
        0,
        "c8188d76d7499a29f7770efafe91c68235a2851dda1750761afe8c798caa59a0",
        "f42b078dba0272e906644cb8df7243044191e4bbbe36ce742c5472c729a15001",
    ),
    "flatten-rank-k": (
        0,
        "e0235fd2e3be8977948524e3562074e3e89a759969c1049ab153bf896d1c33bd",
        "bd599ad7ea298ebced99df2c2086be234d9bbececb43b4dd26f14db2c6c70700",
    ),
    "flatten-waring-lb": (
        0,
        "a2f21d5ef9be69e93bc4c867c6e437ba6a5951e738263722de672353ea0c5b99",
        "35e7322f682004b9c4ca53b275fabd8018031fba535f46f2b7a8d562ab46676f",
    ),
    "flatten-chow-lb": (
        0,
        "557ba83867969134a5d712a40eb1094507046cdcd91a44a9044ca62d22312d68",
        "9b6cc6b072b06413b99827bff4dc9330d7186644ca552f5372fe6962133d2c6e",
    ),
    "flatten-shifted": (
        0,
        "679c526291702b4414d12c8672852c9bec478d8062d642f4b212917f64583036",
        "efc7c82b072b859c41e04a1982b4a047c63e0095fa52eb270f079135da4bdd49",
    ),
    "hhh-rank": (
        0,
        "cd9dd53cd3d910f1f65ab4d7bd32a576ee65126f107b080b0426bd9c3610ecdd",
        "ebdb5fa93c3167c8ffaf9987850e4a3a1c6bcf375f013e3dedac0f31b5ee897f",
    ),
    "hhh-kernel": (
        0,
        "0ea6ab4658817e738cf22a403915bd27959cccfcfc3131db762382e8e35e4ccf",
        "b843a55ddd3f8530b5cbfd9dc003cb43d21a7243c82120e23add22884659ff35",
    ),
    "hhh-kernel-weight": (
        0,
        "9ed1781a3a1cca9d3a9f791bad1d2c4f03fb1e3a27c8e4cc0528b437f215d746",
        "fa62f21a18c63e5378aea213717d4eddea276bbf46c29b92f70511492d8e14c7",
    ),
    "hhh-character": (
        0,
        "09ca569711b2e0f2671634ddc75ad8c5e4bedee1c708614a72cd58b47033471c",
        "1d715bf5bf9c1af7568f1887535528f1c4aff65e601f16f374331e3d073409c7",
    ),
    "rep-char": (
        0,
        "394a7eb0d1320ed6799abc8ad04a1aa4f75a9fcf0549c5af28c9211a710e1cf4",
        "327acff7aa52ceaebdd7d04e5301e2f122a07b8f1c62265cc4bec26837117a52",
    ),
    "rep-kron": (
        0,
        "e82394a1b798c40d3a7b1436989ecd3c6ce3c5cc5f4376f74bdcda9e040681f4",
        "6a3ef44643135866997bf1d3b533a2d49c69d5e58259e341e998a7cc08311d4c",
    ),
    "rep-skron": (
        0,
        "6315e5e8d16ef33171fbfb84dfbb11b598fefb0f4bd5f66da7734f968d2a170c",
        "998b078b1386cd56dcb62b58545ed6b032791c4a880122cec10c3a6842b947db",
    ),
    "rep-pleth": (
        0,
        "f5b6a7d4f8f99dae449066aae52d87d6404807fb62e96d017b1fb3f494df5fb8",
        "56965cfe30cdf3f985f81357d69480013b9aa34577a273cd1177fa2470a6ea5c",
    ),
    "rep-obstruct": (
        0,
        "520ec944e6f56d2d1252d33db101c44b326f1bb4a82c6b6f000a114e5197f516",
        "e446459b2c9d5ca8dd84336324f68705a22464b64a7b60c5cc89cd01a74c8994",
    ),
    "rep-useful": (
        0,
        "35a01f1aa9b3d41b3d1c3591f275fca9aa710066cc02e22c683f5a002a7cd13e",
        "fcb2145c122830e4b84a4bc24d0dc52b88f08ef3c0eedabf35951959574db2f9",
    ),
    "latin-count": (
        0,
        "efe9a7bb036a218da3ace445935722eba2b6ed7c395217e2121a3d5dada6d9c4",
        "3b125bb2ddc073bae036914e573f9bc1e313b27524db4d03f4b20c5055133cf1",
    ),
    "latin-pairing": (
        0,
        "6c3845d8e68076a45fe4440959847bf8f4a20d4a5a79067b085a6133da15e278",
        "b9dadc99319cab88edb11e6417f06b1607476de1240d6a1ac3362677c4a7bb15",
    ),
    "latin-pairing-all-vars": (
        0,
        "15478ceb079461b3b3766ecdab218a4bf39ff94fba1c39b2b68ce188d8e2c057",
        "b4d817fb10079ecfaac3e072b4b056e89ac4d2e7d27b5d28de007dd9d1d2b2ce",
    ),
    "geo-hessian": (
        0,
        "48ebafc7a2725ae69daadd6985fab7f506e7b6127327f411d08214fca193c782",
        "c60771149c06ad2a97b91afda1ce8b6d04c8e467c9c642387168f6b350fbe42c",
    ),
    "geo-hessian-o": (
        0,
        "0973f0ddeb6faadc37d46f3cf43c550ed940ef2d37036afc5f613de0ef5b91de",
        "07db6c90cd1ffb81c720fd1481efaeb3b7e0a29ac50be7baa7143ae9e1a1e385",
    ),
    "geo-cp": (
        0,
        "7063df09d02abe4da3e303a5989d97ac52a6e948be236cbc57b9219367b9f3bd",
        "7eb8ca7a2681dee72fef37f31bb9b28d2cedfbe01853ae228815364e4debaba7",
    ),
    "geo-sfturbo": (
        0,
        "f6ef79875a9bd85162adc77d62b34cf9dd4b2505943f9feda80824b0c9e631bf",
        "1407406a6c27df4cfb1f46ef88b72bb881d1409beb028dae9ac096351b774a94",
    ),
    "geo-discriminant": (
        0,
        "5647002ac9817dd8714fd3c7bdf3befff267a125a6526072a98307a072e02c0e",
        "ba6b815f7c12a95cd4aa31dfd50606206e8ad80bc3a3406e444f045ce2ca9883",
    ),
    "geo-cayley": (
        0,
        "d736a0a608c7a644dc1b4f927b87423d0a8eae5fa4bdbdef882189083947651b",
        "557bd8ec43c87a9bc3c66d96adb61e75de2ad24f85ea9586f24b892dc6a5140a",
    ),
    "geo-sylfranke": (
        0,
        "b576a461059486d28a43875bcd34ebd01a508018bb161b37b82defc4e9e3922d",
        "6bd667e38f50d876e6d1025b76c880ff48189b9820c86c7081ac70254b81ba18",
    ),
    "geo-dualdim-seed": (
        0,
        "70650b7e1d4e572a2dee22888200536423248ab275a0ffd3e95a6475d6d37579",
        "c5b8dda81ea8f04b7e7b41f6aac148297c7f5f7bf1e357367eba70156bdaa7e1",
    ),
    "geo-dualdim-perm": (
        0,
        "c1ec2768d1f655d6c8951b9a317505a261084f94483f63f89efcdad2e5f239a2",
        "598cdff18d6a6ea40d1ec31c604f60ce4aff872dbc269d687a2d801baffcbbf2",
    ),
    "geo-dualdim-point": (
        0,
        "d63674339093b6b0fccbc2ae637f5cfb412336bff35b8f09587ff7b95280007b",
        "1536cff2904d1d1f4595bd4e6eae9f401f3860ec6edc79fdf997bdf0c2b82be4",
    ),
    "geo-stab": (
        0,
        "f80be4b9d6ffe8820d14cd412e61fc29b8678c2d4c808a000e0fe40e9daffaa8",
        "e1700b9e0a3050c29553e0ed5212a161f81c963aa45dea1c4140d0fe0a861aee",
    ),
    "capacity-pairing": (
        3,
        "82ad7a1f14d29bc84d1feefdaa213657dfd671dd90114485ed0b71e3b084722f",
        "6587c1c59743a10d3f9ac2e50dc50e2112d8cd9aaae360f4ac3f7285209fb9c8",
    ),
    "capacity-latin": (
        3,
        "f7344fe67941ef2ca07201cf2aa690c569d6c5eda7e88439559ea0fe20695bce",
        "255a42344bcf4d1449f4af13e7469485a8e3e685d1c2fb95d121d7e11de8a824",
    ),
    "capacity-hhh-kernel": (
        3,
        "e050669d7865a07d5604d15da608273f2cf50c0d0cb9bdb3798f8f7eb73616ba",
        "ee54e96fc5fd5a7737bd1db9286a0279dc7e7881b4f08e35cd24b07187a71119",
    ),
    "capacity-hhh-rank": (
        3,
        "3dd9de077207ead5a371b45730c21fee362854d2ada4bf400a08351b52e3e8e6",
        "eb84d1476a4b735a992fec09fe3f6f75e0d2c5eb478c0f7c4afbb1fd6a1785b9",
    ),
    "capacity-hhh-kernel-weight": (
        3,
        "70fd5156479d8c17e6aab75c2f478aa891d8caa364bef41a6e4fbf3da354a80e",
        "e9f0d375d2407a12eef840eb6e7fa0625d6dedf1340b8cdbdd8956832c1cd7de",
    ),
    "capacity-flatten-waring-lb": (
        3,
        "b51fc87cf1fbfe67e4c5a00116870df36eb5c71eb413e956a63a468ffda888b5",
        "520e51977ebc48f3abd8b0aea8268a872c3e4c127328abe7434265705a114649",
    ),
    "capacity-kron": (
        3,
        "3c14274dba0e185ee8578fb2a021951ebc3d12efa4664a6234969893010ca743",
        "d581a4566dfca48c0c9e3c88c9b21a2109b964e201da8cd95df05055dd6983da",
    ),
    "bad-group": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "bad-partition": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "bad-file": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "bad-name": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.fixture
def golden_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # records echo relative paths only
    for argv in GOLDEN_FILES:
        assert cli.dispatch(list(argv)) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["human", "json"])
@pytest.mark.parametrize("case", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_stdout_unchanged(capsys, golden_files, case, mode):
    """Exit code and stdout bytes of each command, computed and then replayed."""
    case_id, argv = case
    code, human, as_json = GOLDEN_STDOUT[case_id]
    argv = ("--json", *argv) if mode == "json" else argv
    for _ in range(2):  # the second run of a cacheable command is a replay
        got, out, _ = run(capsys, *argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (got, digest) == (code, as_json if mode == "json" else human)
