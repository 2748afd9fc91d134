"""Hypothesis fuzz of the command line: argv, --config objects and instance
specs. Whatever the input, the exit code is 0, 2 or 3, no traceback is
printed, and a failed run prints ``error: ...`` and nothing on stdout.

Each example is a well-typed run, given partly as flags and partly through
a config file, in which at most one option holds a malformed value and at
most one more thing is wrong with the command line itself, so most examples
get past parsing to the code behind it. Every size stays small (k <= 12,
trials <= 50, instance count <= 2, arrivals <= 64, samples <= 16): the
trials x k table of a Monte-Carlo estimate may reach 10^7 cells, so a large
value would only measure time and memory. Every run works in the test's temporary
directory, so that is where any ``--out`` lands.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kselect.cli import main

# Malformed values for any key. None of them is a large size: counts and
# trials just under their ceilings would run for a long time.
JUNK = st.sampled_from([None, True, "x", [1], {}, "-1", 2.5, float("nan"), float("inf")])
NOT_INT = st.sampled_from([float("inf"), float("nan"), 2.5, "2.5", True, None, [1]])
# Integers with the edges drawn often (sampled_from favours its first
# elements, so the valid ones come first); sizes with a ceiling also go
# past it.
SMALL = st.sampled_from([1, 2, 0, -1])
SEED = st.sampled_from([-1, 0, 1, 2**64]) | st.integers(0, 2**70)


def _size(hi):
    return SMALL | st.integers(0, hi) | st.just(1e308)


@st.composite
def _models(draw, max_k=12, lowest=st.floats(1, 3), span=st.floats(0, 27)):
    k = draw(st.integers(1, max_k))
    marginals = st.lists(st.floats(0, 3), min_size=k, max_size=k).map(sorted)
    L = draw(lowest)
    return {
        "L": L,
        "U": L + draw(span),
        "k": k,
        "cost": draw(
            st.fixed_dictionaries({"type": st.just("quadratic"), "coeff": st.floats(0, 0.5)})
            | st.fixed_dictionaries({"type": st.just("explicit"), "marginals": marginals})
        ),
    }


def _one_key_spoiled(objects, extra_keys=()):
    """Objects with one key's value replaced by junk, or one key added."""

    def spoil(obj):
        keys = st.sampled_from(sorted(obj) + list(extra_keys))
        return st.tuples(keys, JUNK | st.just(0.5)).map(lambda kv: {**obj, kv[0]: kv[1]})

    return objects.flatmap(spoil)


MODELS = _models()
# setups whose valuations cover the simulated instance, with a k short
# enough for a drawn price or seed list to match it now and then
SIM_MODELS = _models(max_k=2, lowest=st.just(1.0), span=st.floats(4, 25))
BAD_MODELS = JUNK | _one_key_spoiled(MODELS) | MODELS.map(
    lambda m: {**m, "cost": {"type": "quadratic", "coeff": float("nan")}}
)

SPECS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("hard"), "eps": st.floats(0.2, 5) | st.just(1e308)},
        optional={"terminal": st.floats(1, 30)},
    ),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["iid", "sorted"]), "n": _size(64)},
        optional={"mu": st.floats(1, 30), "sdev": st.floats(0, 20)},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("low2high"), "n1": _size(32), "n2": _size(32)},
        optional={k: st.floats(0, 30) for k in ("mu1", "sdev1", "mu2", "sdev2")},
    ),
)
# an unknown kind, a malformed value, or a key the kind does not read
BAD_SPECS = JUNK | _one_key_spoiled(SPECS, extra_keys=("eps", "n", "count", "bogus"))
COUNTED_SPECS = st.tuples(SPECS, st.sampled_from([1, 2, 0])).map(
    lambda spec_count: {**spec_count[0], "count": spec_count[1]}
)
BAD_COUNTED_SPECS = JUNK | _one_key_spoiled(COUNTED_SPECS, extra_keys=("eps", "n", "bogus"))

MECHANISM = st.sampled_from(["r-dynamic", "static", "pinned", "pinned:0.3", "pinned:1"])
BAD_MECHANISM = JUNK | st.sampled_from(
    ["pinned:2", "pinned:x", "static:nan", "bogus", "", "r-dynamic:7", "static:0.3", "static:"]
)
MECHANISMS = st.lists(MECHANISM, min_size=1, max_size=3)
NUMBERS = st.lists(st.floats(0, 6), min_size=1, max_size=2)


def _as_text(value) -> str:
    """A value as a flag spells it: lists as comma lists, objects as JSON."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(map(str, value))
    return json.dumps(value)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "inst.txt").write_text("1.0\n3.0\n4.5\n2.0\n")
    (tmp / "words.txt").write_text("one\ntwo\n")
    (tmp / "not-utf8").write_bytes(b"\xff\n")
    (tmp / "junk.json").write_text('{"kind": "x"}')
    model = '{"L": 1, "U": 5, "k": 2, "cost": {"type": "explicit", "marginals": [0.25, 0.5]}}'
    (tmp / "model.json").write_text(model)
    assert main(["pricing", "--model", model, "--out", str(tmp / "scheme.json")]) == 0
    (tmp / "out").mkdir()
    (tmp / "link").symlink_to(tmp / "out" / "target.txt")
    return tmp


def _options(files):
    """Per subcommand: option -> (always given, well-typed values, malformed
    values). Options whose defaults are large sizes are always given."""

    def path(*names):
        return st.sampled_from([str(files / n) for n in names])

    def model(good):
        bad = BAD_MODELS | BAD_MODELS.map(json.dumps) | path("junk.json", "not-utf8", "missing")
        return (True, good | good.map(json.dumps) | path("model.json"), bad)

    # a directory, and a path below a regular file: both unwritable
    out = (
        False,
        path("out/result.txt", "out/sub/result.txt", "link"),
        path("out", "inst.txt/x") | JUNK,
    )
    seed = (False, SEED, NOT_INT)
    trials = (True, st.integers(1, 50) | SMALL, NOT_INT)
    return {
        "solve": {"model": model(MODELS), "out": out},
        "pricing": {"model": model(MODELS), "out": out, "samples": (False, _size(16), NOT_INT)},
        "instances": {
            "model": model(MODELS),
            "out": out,
            "spec": (True, SPECS | SPECS.map(json.dumps), BAD_SPECS | BAD_SPECS.map(json.dumps)),
            "seed": seed,
        },
        "simulate": {
            "model": model(SIM_MODELS),
            "out": out,
            "instance": (
                True,
                path("inst.txt"),
                path("words.txt", "not-utf8", "missing", "out") | JUNK,
            ),
            "scheme": (True, path("scheme.json"), path("junk.json", "not-utf8", "missing") | JUNK),
            "mechanism": (False, MECHANISM, BAD_MECHANISM),
            "trials": trials,
            "seed": seed,
            "pin-seeds": (False, NUMBERS, JUNK),
            "prices": (False, NUMBERS, JUNK),
        },
        "experiment": {
            "model": model(MODELS),
            "out": out,
            "instances": (True, COUNTED_SPECS | COUNTED_SPECS.map(json.dumps), BAD_COUNTED_SPECS),
            "mechanisms": (False, MECHANISMS, JUNK | BAD_MECHANISM),
            "trials": trials,
            "master-seed": seed,
        },
        "curves": {
            "out": out,
            "k-min": (True, SMALL | st.integers(1, 6), NOT_INT),
            "k-max": (True, st.integers(1, 12), NOT_INT),
            "l": (False, st.floats(1, 3), JUNK),
            "u": (False, st.floats(1, 30), JUNK),
            "cost-coeff": (False, st.floats(0, 0.5), JUNK),
        },
    }


@st.composite
def invocations(draw, files):
    """An argv, with the config file it names written, and its subcommand."""
    all_options = _options(files)
    command = draw(st.sampled_from(sorted(all_options)))
    options = all_options[command]
    names = [n for n, (always, _, _) in options.items() if always or draw(st.booleans())]
    if command == "simulate":
        # the setup comes from --model or from a --scheme file; other tests
        # cover both and neither
        names.remove(draw(st.sampled_from(["model", "scheme"])))
    spoiled = draw(st.sampled_from([None] * 2 * len(names) + names))
    argv, config = [command], {}
    for name in names:
        _, good, bad = options[name]
        value = draw(bad if name == spoiled else good)
        if draw(st.booleans()):
            config[name] = value
        else:
            argv += [f"--{name}", _as_text(value)]
    extra = draw(
        st.sampled_from([None] * 12 + ["unknown-key", "removed-flag", "no-value", "bad-config"])
    )
    if extra == "unknown-key":
        config["modle"] = 1
    elif extra == "removed-flag":
        argv += [draw(st.sampled_from(["--sigma", "--kind", "--count"])), "1"]
    elif extra == "no-value":
        argv += [draw(st.sampled_from(["--config", "--out", "--model"]))]
    if config or extra == "bad-config":
        cfg_path = str(files / "cfg.json")
        with open(cfg_path, "w") as fh:
            if extra == "bad-config":
                fh.write(draw(st.sampled_from(["[1]", "{", "null", '{"x": 1'])))
            else:
                json.dump(config, fh)
        # before the subcommand, --config is not an option at all
        at_root = extra == "bad-config" and draw(st.booleans())
        argv = ["--config", cfg_path, *argv] if at_root else [*argv, "--config", cfg_path]
    return argv, command


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_any_command_line_exits_0_2_or_3_without_traceback(files, data):
    argv, command = data.draw(invocations(files))
    out, err = io.StringIO(), io.StringIO()
    # a malformed --out may still be a relative path: keep it in the temp dir
    with (
        mock.patch.dict(os.environ),
        contextlib.chdir(files / "out"),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        os.environ.pop("KSELECT_OUTPUT_DIR", None)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == "", argv
        # curves reports each capacity it skips before its final error
        if command == "curves":
            err = "".join(line for line in err.splitlines(True) if not line.startswith("k="))
        assert err.startswith("error: "), (argv, err)
