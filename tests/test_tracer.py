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
    "command,span",
    [
        (["flatten", "waring-lb", "{det3}"], "poly.polarize"),
        (["geo", "stab", "det", "3"], "geometry.stabilizer_lie_dim"),
        (["geo", "dualdim", "det", "3", "--seed", "1"], "flatten.solve_linear"),
    ],
    ids=["waring-lb", "stab", "dualdim"],
)
def test_traced_command_prints_the_untraced_bytes(capsys, tmp_path, command, span):
    """Each command reaches exact_rank with the rows of a different builder."""
    poly_file = tmp_path / "det3.json"
    poly_file.write_text(dumps(zoo.det(3)))
    argv = ["--no-cache", *(arg.format(det3=poly_file) for arg in command)]
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
    assert {span, "flatten.exact_rank"} <= names
