"""Every pinned command output, each command in a new interpreter.

Each row of ``OUTPUTS`` is one command: its argv, the output it hashes
(stdout, or the file it writes), that output's SHA-256, which of the modules
the package loads only when a command needs them (``numpy.random``,
``orjson``) it loads and, where one holds, a ceiling on its peak RSS. Every
row runs alone in a new interpreter; the rows below k = 2*10^5 and 10^6
arrivals run again, together, with NumPy's AVX-512 kernels off, since
``np.exp`` and ``np.log`` give other bits under them and a pinned output must
not rest on the kernel the host happens to pick.
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
from kselect.cli import main
from kselect.cost_model import model_from_json
from kselect.lower_bound import chain_residual, solve_alpha_star


def _model(k: int, coeff: float) -> str:
    return json.dumps({"L": 1, "U": 30, "k": k, "cost": {"type": "quadratic", "coeff": coeff}})


BENCHMARK = _model(10, 0.0625)
PRICE_GENERAL = _model(500, 1 / 500)
PRICE_HIGHVALUE = _model(20000, 0.45 / 20000)
HIGH_VALUE = _model(200_000, 2.25e-06)  # c_k about 0.9 < L: the chain's tail
GENERAL = _model(200_000, 5e-06)  # c_k about 2 > L: units span several g pieces
FIG_MODEL = '{"L": 1, "U": 10, "k": 10, "cost": {"type": "quadratic", "coeff": 0.016949152542372881}}'
K2_MODEL = '{"L": 1, "U": 5, "k": 2, "cost": {"type": "explicit", "marginals": [0.25, 0.5]}}'
# input files, written in the working directory by the `workdir` and
# `arrivals` fixtures
INSTANCE = "inst.txt"
FIG_SCHEME = "fig-scheme.json"  # `pricing` on FIG_MODEL: the pricing-fig row's bytes
FIG_SCHEME_MODEL = "fig-scheme-model.json"  # that file's `model` object
ARRIVALS = "iid1m.txt"
SIMULATE_FIG = ("simulate", "--model", FIG_MODEL, "--instance", INSTANCE)
PIN = ("--pin-seeds", ",".join(["0.5"] * 10))

# the lazily loaded modules of a command that draws random numbers, and of
# one that writes a JSON document of at least jsontext.ORJSON_MIN_FLOATS
# distinct floats
DRAWS = ("numpy.random",)
FORMATS = ("orjson",)
# name -> (argv, the file it writes or None for stdout, the lazily loaded
# modules it loads, a ceiling on its peak RSS in MB or None, the SHA-256 of
# that output). A name ending in 2e5, 1e6 or 2e6 runs at k = 2*10^5 and up or
# on 10^6 arrivals and up.
OUTPUTS = {
    # the fig, price-general and price-highvalue digests were recorded again
    # when the chain's tail step became u + (u - c) * expm1(alpha / k)
    "pricing-price-general": (("pricing", "--model", PRICE_GENERAL), None, (), None,
                              "00e8d816910cfd12f522211b806a3684413bf3c1f0c963517792811b754e30df"),
    "pricing-price-highvalue": (("pricing", "--model", PRICE_HIGHVALUE), None, FORMATS, None,
                                "7c32d50e57ca0f3c3959e1d602a17949117b79223bccbe3842f8d0f507b38b55"),
    "pricing-fig": (("pricing", "--model", FIG_MODEL), None, (), None,
                    "48af08c97902e4725b3062d2bc049590c9b9dddcbcd648b3920a0cea5e70f729"),
    "pricing-two-unit": (("pricing", "--model", K2_MODEL), None, (), None,
                         "00f21499e8f7226349365399a1509aa969303f6e75f62d3709a7644c63e4ce7e"),
    "pricing-negative-zero": (
        ("pricing", "--model",
         '{"L": 1, "U": 4, "k": 3, "cost": {"type": "explicit", "marginals": [-0.0, 0.2, 0.3]}}'),
        None, (), None, "7c2fc683ea64e29d45ac35f8a638c4908b7b549868fadaf4985c1cc8d22f5317"),
    # U = L = c_2: unit 2 is above the top marginal with a zero-width interval
    "pricing-flat-range": (
        ("pricing", "--model",
         '{"L": 2, "U": 2, "k": 2, "cost": {"type": "explicit", "marginals": [0.5, 2.0]}}'),
        None, (), None, "da3af399e277b473a418dd62fc70145f46e7c91d4147cb0e73e2fc752d6f75f0"),
    "pricing-samples": (("pricing", "--model", FIG_MODEL, "--samples", "8"), None, (), None,
                        "adb6beb889ccfc311ed007a49a8abe08674ef9e2953474c80badc0afce891ca7"),
    # the benchmark setups, recorded when the chain's tail step became
    # u + (u - c) * expm1(alpha / k) (at k = 10 alpha kept its bits and the
    # chain ends moved)
    "solve-exp": (("solve", "--model", BENCHMARK), None, (), None,
                  "c9847850297f8a9cebc84c938d55efd4b4892a6d5da535992a1e87b636c3c759"),
    "solve-price-general": (("solve", "--model", PRICE_GENERAL), None, (), None,
                            "c113b7dbce5d203697bcdac7a1c46045628df8660ac3af0ded3588f131499e2f"),
    "solve-price-highvalue": (("solve", "--model", PRICE_HIGHVALUE), None, FORMATS, None,
                              "e7c97473fc863321ec16dcfa36e84c47e4c47648f6506d6604bdaef74fc7668e"),
    # the default sweep, whose regime turns general at k = 30; one from
    # k = 1, high-value throughout, where the chain's top end lies within
    # tolerance of U, not on it; and one general from k = 51
    "curves-default": (("curves",), None, (), None,
                       "bf68985b6de1e50037d83dd26a9371b5c06d32aedc7cd0df662a89eaa2fc2ba7"),
    "curves-from-k1-coeff-0.001": (
        ("curves", "--k-min", "1", "--k-max", "200", "--cost-coeff", "0.001"), None, (), None,
        "a264259aae9421ad8c6ef08cb88b41f0dff4084d2da3918c3e6d558fd992ae56"),
    "curves-coeff-0.01": (("curves", "--k-max", "200", "--cost-coeff", "0.01"), None, (), None,
                          "8050ebe6efc098ac677b5033448ec083945c61745804bb0b21aa5da9f41156cd"),
    # the --pin-seeds digest was recorded with the pricing-fig digest; the
    # r-dynamic and static digests when trials moved to the keyed Philox
    # streams; the prices digest before any command left numpy.random unloaded
    "simulate": ((*SIMULATE_FIG, "--trials", "50", "--seed", "3"), None, DRAWS, None,
                 "4c21203ba28b6739e3543194552fdb82b9d70ebbe773a12876bef52b36b2781d"),
    "simulate-static": ((*SIMULATE_FIG, "--trials", "50", "--seed", "3", "--mechanism", "static"),
                        None, DRAWS, None,
                        "7e1cdbe6323d27d27de0b79d0e2410324e3d417e4df9042071562d9f3e0dc544"),
    "simulate-pin-seeds": ((*SIMULATE_FIG, *PIN), None, (), None,
                           "b8c6424fa9b2e54b28f161f61daf4252f6f10f0fa114bd91e9319671cf93ffbd"),
    "simulate-prices": ((*SIMULATE_FIG, "--prices", ",".join(map(str, range(1, 11)))),
                        None, (), None,
                        "c7deb86d995f7761835b585fd739864a8bc07cc017f4ec7a8e0df781c0b87aec"),
    # recorded before any command left numpy.random unloaded
    "experiment": (("experiment", "--model", FIG_MODEL,
                    "--instances", '{"kind": "iid", "count": 7, "n": 40}',
                    "--mechanisms", "r-dynamic,pinned:0.25,static",
                    "--trials", "30", "--master-seed", "4"), None, DRAWS, None,
                   "3f0a98a309524d3f5b94d1ca3f3a51ae72e80ab919a241aa5fc2e5f071c4c799"),
    "instances": (("instances", "--model", FIG_MODEL, "--seed", "5",
                   "--spec", '{"kind": "low2high", "n1": 20, "n2": 20}'), None, DRAWS, None,
                  "debd520cb57572ca9f12ffa3d25bfe9209175bb6178c0d09e9cba415ac2cfe04"),
    "instances-hard": (("instances", "--model", FIG_MODEL, "--seed", "5",
                        "--spec", '{"kind": "hard"}'), None, (), None,
                       "fdbd1e0d59230df430085ecce91cd4e757b9b5622b7a3dceb8ba8ce0e10127b7"),
    # each streamed array spans about 50 chunks; recorded when the chain's
    # tail step became u + (u - c) * expm1(alpha / k)
    "solve-high-value-2e5": (("solve", "--model", HIGH_VALUE), None, FORMATS, None,
                             "560096945bdbf588015727ec18a6332a214a70e1d4516bd4833a426522dfc2d1"),
    # the ceilings of this row and of pricing-general-2e5 are 1.5 times
    # (solve-1e6's headroom) the peaks measured when the writer read the
    # float columns in place, 90 and 127 MB (107 and 148 MB when it copied
    # every number of the file into one array first)
    "pricing-high-value-2e5": (("pricing", "--model", HIGH_VALUE, "--out", "scheme.json"),
                               "scheme.json", FORMATS, 135,
                               "b45b6a540d575fd2e3926ddbe838c0947c9f00dbe14e56f833acbdfe5a6ff742"),
    # recorded before the price intervals, kind and guarantee were computed
    # from the curves
    "solve-general-2e5": (("solve", "--model", GENERAL), None, FORMATS, None,
                          "91113a676634e9be7a54141b74a7633bc9eb6b263a576898d5a502fedb607fdf"),
    "pricing-general-2e5": (("pricing", "--model", GENERAL), None, FORMATS, 191,
                            "d5c381a4f9cae16064e5bba62210a7434df6c5964af5b3a562e9909ab40322c3"),
    # streamed one decision at a time; recorded when each arrival was one
    # dict through the stdlib's indenting encoder, which peaked at 758 MB
    "simulate-pin-seeds-1e6": (("simulate", "--model", BENCHMARK, "--instance", ARRIVALS,
                                *PIN, "--out", "trace.json"), "trace.json", (), 150,
                               "801703dacc6a08c22dc7d942b7522449b951363db7c42a5b0bf6f7cc0e527ff4"),
    # written in blocks from one float column; recorded when the valuations
    # were a tuple and the text one string, which peaked at 369 MB
    "instances-sorted-2e6": (("instances", "--model", BENCHMARK, "--spec",
                              '{"kind": "sorted", "n": 2000000}', "--seed", "0",
                              "--out", "sorted2m.txt"), "sorted2m.txt", DRAWS, 200,
                             "897e8e53057d39f68734bf9536ded7638218aa5a0d05f9c272624c78295598aa"),
    # k = MAX_K; recorded when the marginals were a tuple of Python floats,
    # which peaked at 235 MB (203 MB as one float column)
    "solve-1e6": (("solve", "--model", _model(10**6, 4.5e-07), "--out", "solve1m.json"),
                  "solve1m.json", FORMATS, 255,
                  "ae5086276d66945d3bff25ec6fd2881a45f7518a8a3c2f75649bce0054cc6019"),
}
# the simulate rows on the `model` object of the file `pricing` wrote for
# the fig model give the bytes they give on the fig model itself
OUTPUTS |= {
    f"{name}-scheme": (("simulate", "--model", FIG_SCHEME_MODEL, *argv[3:]), *rest)
    for name, (argv, *rest) in OUTPUTS.items()
    if name in ("simulate", "simulate-static", "simulate-pin-seeds")
}
# the name ends of the rows the kernels-off pass leaves out: each takes
# seconds
AT_SCALE = ("2e5", "1e6", "2e6")
KERNELS_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR AVX512F AVX512_SKX"}

# Runs main(argv) for each [stdout file, argv] of the JSON list argv[1], with
# sys.stdout that file itself, then prints the exit codes, which of
# numpy.random, orjson and an argument parser's modules (argparse, and gettext
# and locale for its messages) got loaded, and the float64 exp and log kernels.
_CHILD = """\
import json, sys
from kselect.cli import main
codes = []
for path, argv in json.loads(sys.argv[1]):
    with open(path, "w", encoding="utf-8") as sys.stdout:
        codes.append(main(argv))
sys.stdout = sys.__stdout__
lazy = ("numpy.random", "orjson", "argparse", "gettext", "locale")
loaded = [m for m in lazy if m in sys.modules]
from numpy.lib.introspect import opt_func_info
info = opt_func_info(func_name="^(exp|log)$", signature="float64")
kernels = {name: kernel["dd"]["current"] for name, kernel in info.items()}
print(json.dumps([codes, loaded, kernels]), flush=True)
"""
# Starts the command argv[2:] on CPU argv[1] alone when that is not empty,
# and prints its exit status and peak RSS in KiB. A child's ru_maxrss counts
# the memory of the process it was forked from, and pytest was seen at
# 164 MB late in a full run, so the child is forked from this small new
# interpreter instead.
_PARENT = """\
import os, resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_CPU, (120, 120))
if sys.argv[1]:
    os.sched_setaffinity(0, {int(sys.argv[1])})
child = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def launch(cwd, rows, cpu="", env=None) -> tuple[list, list, dict, float, str]:
    """Runs main(argv) for each (stdout file, argv) of ``rows`` in one new
    interpreter in ``cwd`` that finds the package where this process found
    it, with ``env`` added to its environment: the exit codes, the modules
    of ``_CHILD`` it loaded, its exp and log kernels, its peak RSS in MB and
    its stderr."""
    src = os.path.dirname(os.path.dirname(kselect.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path, **(env or {})}
    child = [sys.executable, "-c", _CHILD, json.dumps(rows)]
    proc = subprocess.run([sys.executable, "-c", _PARENT, str(cpu), *child],
                          capture_output=True, text=True, env=env, cwd=cwd)
    *report, status = proc.stdout.splitlines() or [""]
    assert proc.returncode == 0 and status.startswith("0 ") and len(report) == 1, proc.stderr
    codes, loaded, kernels = json.loads(report[0])
    return codes, loaded, kernels, int(status.split()[1]) / 1024, proc.stderr


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The working directory, with the instance file, the fig scheme file
    and its model."""
    path = tmp_path_factory.mktemp("outputs")
    (path / INSTANCE).write_text("1.5\n3.0\n9.5\n2.25\n7.0\n4.0\n1.0\n8.5\n6.0\n5.5\n2.0\n10.0\n")
    assert main(["pricing", "--model", FIG_MODEL, "--out", str(path / FIG_SCHEME)]) == 0
    assert digest(path / FIG_SCHEME) == OUTPUTS["pricing-fig"][-1]
    # the fig model is quadratic; the file spells it as explicit marginals
    model = json.loads((path / FIG_SCHEME).read_text())["model"]
    assert model["cost"]["type"] == "explicit"
    (path / FIG_SCHEME_MODEL).write_text(json.dumps(model))
    yield path
    shutil.rmtree(path)  # about 440 MB of outputs


@pytest.fixture(scope="module")
def arrivals(workdir) -> None:
    spec = '{"kind": "iid", "n": 1000000}'
    argv = ("instances", "--model", BENCHMARK, "--spec", spec, "--seed", "0", "--out", ARRIVALS)
    codes, _, _, _, err = launch(workdir, [("arrivals.stdout", argv)])
    assert codes == [0], err


@pytest.fixture(scope="module")
def run_row(request, workdir):
    """Runs a row once: what ``launch`` returns, and its seconds."""

    @functools.cache
    def run(name: str):
        argv = OUTPUTS[name][0]
        if ARRIVALS in argv:
            request.getfixturevalue("arrivals")
        start = time.perf_counter()
        return *launch(workdir, [(f"{name}.stdout", argv)]), time.perf_counter() - start

    return run


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_bytes_modules_and_peak(workdir, run_row, name):
    _, output, lazy, ceiling, want = OUTPUTS[name]
    codes, loaded, _, peak, err, took = run_row(name)
    print(f"{name}: {took:.2f} s, peak RSS {peak:.0f} MB")
    assert codes == [0], err
    assert digest(workdir / (output or f"{name}.stdout")) == want
    # a command that makes no generator leaves numpy.random unloaded, one
    # that writes fewer distinct floats leaves orjson unloaded, and no
    # command loads an argument parser's modules
    assert loaded == list(lazy)
    assert ceiling is None or peak < ceiling


def test_outputs_below_the_largest_inputs_with_avx512_kernels_off(workdir):
    names = [name for name in OUTPUTS if not name.endswith(AT_SCALE)]
    rows = [(f"{name}.stdout", OUTPUTS[name][0]) for name in names]
    codes, _, kernels, _, err = launch(workdir, rows, env=KERNELS_OFF)
    assert set(kernels) == {"exp", "log"}
    assert not any("AVX512" in kernel or "X86_V4" in kernel for kernel in kernels.values())
    assert codes == [0] * len(names), err
    got = {name: digest(workdir / (OUTPUTS[name][1] or f"{name}.stdout")) for name in names}
    assert got == {name: OUTPUTS[name][-1] for name in names}


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
        codes, *_, err = launch(tmp_path, [("out.csv", argv)], cpu=cpu)
        assert codes == [0], err
        outputs.append((tmp_path / "out.csv").read_bytes())
    assert outputs[0] and outputs[0] == outputs[1]
