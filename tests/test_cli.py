"""End-to-end tests of the gct command line interface.

Each test drives ``gct.cli.dispatch`` with an isolated cache directory
(via GCT_CACHE_DIR) and asserts on exit codes, stdout bytes, and cache
behavior: replays must be byte-identical, corrupted entries must be
recomputed, and commands with file side effects must bypass the cache.
"""

import json
import os

import pytest

from gct import cli
from gct.poly import Polynomial, loads


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


def test_exit_2_bad_args(capsys):
    assert run(capsys, "no-such-group")[0] == 2
    assert run(capsys, "rep", "char", "abc", "1,1")[0] == 2
    assert run(capsys, "flatten", "rank", "/nonexistent/poly.json")[0] == 2
    assert run(capsys, "--threads", "2", "rep", "kron", "2", "2", "2")[0] == 2
    _, _, err = run(capsys, "rep", "char", "abc", "1,1")
    assert "gct: error:" in err


def test_exit_3_capacity(capsys):
    code, out, _ = run(capsys, "--json", "hhh", "rank", "5", "5", "5")
    assert code == 3
    rec = json.loads(out)
    assert rec["error"] == "capacity"
    assert rec["size"] == 190131
    assert rec["size"] > rec["cap"]


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


def test_zoo_witness_stdout_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "zoo", "witness", "benor", "3", "2")
    assert code == 0
    rec = json.loads(out)
    w = cli.witness_from_record(rec)
    from gct import zoo

    assert zoo.verify_chow(w, zoo.padded_elem(3, 2)).ok


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
        rec = cli.witness_to_record(dec)
        back = cli.witness_from_record(json.loads(json.dumps(rec)))
        assert back == dec


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


def test_hhh_rank_weight_block(capsys):
    code, out, _ = run(capsys, "--json", "hhh", "rank", "3", "2", "3", "--weight", "2,2,2")
    assert code == 0
    rec = json.loads(out)
    assert rec["weight"] == [2, 2, 2]
    # shape is [codomain, domain]; the kernel here is the symmetric det
    assert rec["rank"] == rec["shape"][1] - 1
