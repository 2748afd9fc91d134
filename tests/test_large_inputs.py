"""kselect on its largest inputs, each command in a new interpreter.

Each row of ``LARGE`` is one command at k = 2*10^5, at k = MAX_K = 10^6 or
on 10^6 to 2*10^6 arrivals, with the SHA-256 of its output and, where one
holds, a ceiling on its peak RSS, which ``os.wait4`` reads for that command
alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import kselect
from kselect.cost_model import model_from_json
from kselect.lower_bound import chain_residual, solve_alpha_star


def _model(k: int, coeff: float) -> str:
    return json.dumps({"L": 1, "U": 30, "k": k, "cost": {"type": "quadratic", "coeff": coeff}})


BENCHMARK = _model(10, 0.0625)
HIGH_VALUE = _model(200_000, 2.25e-06)  # c_k about 0.9 < L: the chain's tail
GENERAL = _model(200_000, 5e-06)  # c_k about 2 > L: units span several g pieces
ARRIVALS = "iid1m.txt"  # written by the `arrivals` fixture

# name -> (argv, the file it writes or None for stdout, a ceiling on its
# peak RSS in MB or None, the SHA-256 of that output)
LARGE = {
    # each streamed array spans about 50 chunks; recorded when the chain's
    # tail step became u + (u - c) * expm1(alpha / k)
    "solve-high-value": (("solve", "--model", HIGH_VALUE), None, None,
                         "560096945bdbf588015727ec18a6332a214a70e1d4516bd4833a426522dfc2d1"),
    "pricing-high-value": (("pricing", "--model", HIGH_VALUE, "--out", "scheme.json"),
                           "scheme.json", None,
                           "b45b6a540d575fd2e3926ddbe838c0947c9f00dbe14e56f833acbdfe5a6ff742"),
    # recorded before the price intervals, kind and guarantee were computed
    # from the curves
    "solve-general": (("solve", "--model", GENERAL), None, None,
                      "91113a676634e9be7a54141b74a7633bc9eb6b263a576898d5a502fedb607fdf"),
    "pricing-general": (("pricing", "--model", GENERAL), None, None,
                        "d5c381a4f9cae16064e5bba62210a7434df6c5964af5b3a562e9909ab40322c3"),
    # streamed one decision at a time; recorded when each arrival was one
    # dict through the stdlib's indenting encoder, which peaked at 758 MB
    "simulate-pin-seeds-1e6": (("simulate", "--model", BENCHMARK, "--instance", ARRIVALS,
                                "--pin-seeds", ",".join(["0.5"] * 10), "--out", "trace.json"),
                               "trace.json", 150,
                               "801703dacc6a08c22dc7d942b7522449b951363db7c42a5b0bf6f7cc0e527ff4"),
    # written in blocks from one float column; recorded when the valuations
    # were a tuple and the text one string, which peaked at 369 MB
    "instances-sorted-2e6": (("instances", "--model", BENCHMARK, "--spec",
                              '{"kind": "sorted", "n": 2000000}', "--seed", "0",
                              "--out", "sorted2m.txt"), "sorted2m.txt", 200,
                             "897e8e53057d39f68734bf9536ded7638218aa5a0d05f9c272624c78295598aa"),
    # k = MAX_K; recorded when the marginals were a tuple of Python floats,
    # which peaked at 235 MB (203 MB as one float column)
    "solve-1e6": (("solve", "--model", _model(10**6, 4.5e-07), "--out", "solve1m.json"),
                  "solve1m.json", 255,
                  "ae5086276d66945d3bff25ec6fd2881a45f7518a8a3c2f75649bce0054cc6019"),
}

# Runs argv[3:] with its stdout in the file argv[1], on CPU argv[2] alone
# when it is not empty, and prints its exit code and peak RSS in KiB. A
# child's ru_maxrss counts the memory of the process it was forked from, and
# pytest was seen at 164 MB late in a full run, so the command is forked
# from this small new interpreter instead.
_LAUNCHER = """\
import os, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_CPU, (120, 120))
if sys.argv[2]:
    os.sched_setaffinity(0, {int(sys.argv[2])})
with open(sys.argv[1], "wb") as out:
    child = subprocess.Popen(sys.argv[3:], stdout=out)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def kselect_run(cwd, stdout: str, *argv, cpu="") -> tuple[int, str, float]:
    """Exit code, stderr and peak RSS in MB of ``python -m kselect *argv``
    in ``cwd``, in a new interpreter that finds the package where this
    process found it, with its stdout in the file ``cwd / stdout``."""
    src = os.path.dirname(os.path.dirname(kselect.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    launch = [sys.executable, "-c", _LAUNCHER, stdout, str(cpu), sys.executable, "-m", "kselect"]
    proc = subprocess.run([*launch, *argv], capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    return code, proc.stderr, peak_kib / 1024


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("large")
    yield path
    shutil.rmtree(path)  # about 440 MB of outputs


@pytest.fixture(scope="module")
def arrivals(workdir) -> None:
    spec = '{"kind": "iid", "n": 1000000}'
    argv = ("instances", "--model", BENCHMARK, "--spec", spec, "--seed", "0", "--out", ARRIVALS)
    code, err, _ = kselect_run(workdir, "arrivals.stdout", *argv)
    assert code == 0, err


@pytest.fixture(scope="module")
def run_row(workdir):
    """Runs a LARGE row once: its exit code, stderr, peak RSS and seconds."""

    @functools.cache
    def run(name: str) -> tuple[int, str, float, float]:
        start = time.perf_counter()
        code, err, peak = kselect_run(workdir, f"{name}.stdout", *LARGE[name][0])
        return code, err, peak, time.perf_counter() - start

    return run


@pytest.fixture(scope="module")
def highvalue_scheme(workdir, run_row):
    code, err = run_row("pricing-high-value")[:2]
    assert code == 0, err
    return workdir / "scheme.json"


@pytest.mark.parametrize("name", LARGE)
def test_large_input_bytes_and_peak(request, workdir, run_row, name):
    argv, output, ceiling, digest = LARGE[name]
    if ARRIVALS in argv:
        request.getfixturevalue("arrivals")
    code, err, peak, took = run_row(name)
    print(f"{name}: {took:.2f} s, peak RSS {peak:.0f} MB")
    assert code == 0, err
    data = (workdir / (output or f"{name}.stdout")).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert ceiling is None or peak < ceiling


def test_the_scheme_file_loads_back_and_an_edited_copy_does_not(workdir, highvalue_scheme):
    # the loader rebuilds the scheme at the file's alpha_star and compares
    # every segment and computed field, so the first segment's cost -5.0 fails
    (workdir / "instance.txt").write_text("2\n30\n")
    load = ("simulate", "--instance", "instance.txt", "--mechanism", "static", "--trials", "1")
    code, err, _ = kselect_run(workdir, "load.stdout", *load, "--scheme", highvalue_scheme.name)
    assert code == 0, err
    text = highvalue_scheme.read_text()
    at = text.index('"cost": ', text.index('"segments"')) + len('"cost": ')
    (workdir / "edited.json").write_text(text[:at] + "-5.0" + text[text.index(",", at):])
    code, err, _ = kselect_run(workdir, "load.stdout", *load, "--scheme", "edited.json")
    assert (code, (workdir / "load.stdout").read_bytes()) == (2, b"")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("spec", [HIGH_VALUE, GENERAL], ids=["high-value", "general"])
def test_the_chain_meets_its_equations_at_k_2e5(spec):
    # most of the general chain's 29,689 units below c_k cross four or five
    # constant-g pieces
    model = model_from_json(json.loads(spec))
    assert chain_residual(solve_alpha_star(model), model) <= 1e-9


@pytest.mark.parametrize(
    "instances, mechanisms, trials",
    [
        ('{"kind": "sorted", "count": 3}', "r-dynamic", "10000"),
        ('{"kind": "sorted", "count": 1}', "r-dynamic", "20000"),
        ('{"kind": "iid", "count": 5}', "r-dynamic,pinned:0.5,static", "2000"),
    ],
    ids=["exp-sorted", "one-instance", "exp-iid"],
)
def test_experiment_bytes_on_every_cpu_and_on_one(tmp_path, instances, mechanisms, trials):
    # the trial rows are shared among the CPUs in the affinity mask; on one
    # CPU they all run in one process
    argv = ("experiment", "--model", BENCHMARK, "--instances", instances,
            "--mechanisms", mechanisms, "--trials", trials, "--master-seed", "0")
    outputs = []
    for cpu in ("", min(os.sched_getaffinity(0))):
        code, err, _ = kselect_run(tmp_path, "out.csv", *argv, cpu=cpu)
        assert code == 0, err
        outputs.append((tmp_path / "out.csv").read_bytes())
    assert outputs[0] and outputs[0] == outputs[1]
