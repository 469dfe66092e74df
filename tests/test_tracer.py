"""The benchmark's tracer (bench/tracer.py) against the package: every
function it wraps by name still exists, and traced commands print the
same bytes as untraced ones."""

import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gct import cli, zoo
from gct.poly import dumps

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for name, modname, attr in _tracer().TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), (name, modname, attr)
            owner = getattr(owner, part)
        assert callable(owner), name


@pytest.mark.parametrize(
    "command,spans",
    [
        (["flatten", "waring-lb", "{det3}"], {"poly.polarize", "flatten.exact_rank"}),
        (["geo", "stab", "det", "3"], {"geometry.stabilizer_lie_dim", "flatten.exact_rank"}),
        (["geo", "dualdim", "det", "3", "--seed", "1"],
         {"flatten.solve_linear", "flatten.exact_rank"}),
        (["hhh", "kernel", "3", "2", "3", "--weight", "2,2,2"],
         {"hhh.build_hhh", "flatten.exact_rank"}),
        (["rep", "kron", "2,1", "2,1", "2,1"], {"reptheory.kronecker"}),
        (["latin", "count", "3"], {"latin.alon_tarsi_count_reduced", "latin.count_branch"}),
        (["zoo", "verify", "{fischer3}", "{chow3}"], {"zoo.verify_waring"}),
    ],
    ids=["waring-lb", "stab", "dualdim", "hhh-rank", "rep-kron", "latin-count", "zoo-verify"],
)
def test_traced_command_prints_the_untraced_bytes(capsys, tmp_path, command, spans):
    """Every layer is traced by at least one command, and the three
    flatten and geo commands reach exact_rank with the rows of a different
    builder.  The tracer wraps every layer, so it loads each one the CLI
    binds lazily."""
    files = {"det3": tmp_path / "det3.json", "chow3": tmp_path / "chow3.json",
             "fischer3": tmp_path / "fischer3.json"}
    files["det3"].write_text(dumps(zoo.det(3)))
    files["chow3"].write_text(dumps(zoo.make("chow", 3)))
    assert cli.dispatch(["zoo", "witness", "fischer", "3", "-o", str(files["fischer3"])]) == 0
    capsys.readouterr()
    argv = ["--no-cache", *(arg.format(**files) for arg in command)]
    assert cli.dispatch(argv) == 0
    untraced = capsys.readouterr().out
    spans_out = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(ROOT / "src"), str(spans_out),
         repr(time.perf_counter()), "--", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == untraced
    names = {s[0] for s in json.loads(spans_out.read_text())["spans"]}
    assert spans <= names, sorted(names)
