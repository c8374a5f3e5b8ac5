"""Every command ends one of two ways, whatever the config and flags.

Hypothesis draws a config file and flags for each subcommand from small pools
of ordinary values and edge cases, and the run must end in exit 0 with no NaN
in stdout or any written file (``inf`` is a legal table value), or in exit 2,
3 or 4 with one ``error: <kind>:`` line on stderr and no file written.  No
warning may be raised.  Any other ending, a traceback included, is a fault.
The pools keep an image at N <= 16 and at most 64 pulses, or ask for one that
the config checks refuse before any array is built.
"""

import contextlib
import io
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmsar.cli import run
from ofdmsar.config import Config

EDGES = (0, -1, "nan", "inf", "-inf", 1e-320, 1e-310, 1e308, 5e-324)
SNRS = ((15, 0, -10), (3000, -3000, "nan", "inf", "-inf", 1e308, 1e-320))
SCENE_FILES = ("valid.txt", "nan.txt", "huge.txt", "wrong-m.txt", "wide.txt", "latin.txt",
               "missing.txt")
SCENES = (("point", "car", "valid.txt"), SCENE_FILES[1:])

#: key: (ordinary values, edge values).  A run sets its first three keys, so that
#: an image has N <= 16 and prf * aperture_time at most 64 pulses, below 1.5 or
#: past the image cap, and any others to ordinary values; up to three keys of
#: the run then take an edge value.
KEYS = {
    "n_subcarriers": ((8, 16), (1, 2, 3, 0, -1, 10**400)),  # the last is past the float range
    "prf": ((16, 64), (0, -1, "nan", "inf", 1e308, 5e-324)),
    "trials": ((100,), (99, 0, -1)),
    "bandwidth": ((1.5e9, 1e6), (*EDGES, 1e-300)),
    "power_budget": ((1.0, 16.0), EDGES),
    "signaling": (("constant-modulus", "gaussian"), ("bogus",)),
    "slant_range_center": ((1414.2, 3000.0), EDGES),
    "velocity": ((40.0,), EDGES),
    "carrier_freq": ((9e9,), EDGES),
    "aperture_time": ((1, 0.25), (0, -1, "nan", "inf", 1e-310, 1e-320)),
    "snr_db": SNRS,
    "tail_prob": ((1e-3, 0.5), (0, 1, -1, "nan", "inf", 1e-320)),
    "channel": (("flat", "multipath"), ("rician",)),
    "channel_taps": ((1, 4), (17, 0, -1)),
    "channel_seed": ((0, 41), (-1,)),
    "scene": SCENES,
    "scene_azimuth": ((1, 4), (65, 0, -1)),
    "snr_grid": (("0,10", "-10"), ("", ",", "nan", "inf", "-3000,3000", "0,inf", "abc")),
    "tradeoff_points": ((2, 5), (1, 0, -1)),
}
REQUIRED = ("n_subcarriers", "prf", "trials")
#: Each subcommand's flags, with their values, ordinary and edge alike.
FLAGS = {
    "allocate": {
        "--rate-target": ("capacity", "0", "1", "1e9", "-1", "nan", "-inf", "inf", "abc"),
        "--snr-db": sum(SNRS, ()),
    },
    "simulate": {"--scene": sum(SCENES, ()), "--snr-db": sum(SNRS, ())},
    "mse-sweep": {"--trials": (100, 99, -1)},
    "tradeoff": {"--points": (2, 5, 1), "--snr-db": sum(SNRS, ())},
    "scene-gen": {"--kind": ("point", "car")},
}
ECHO_LINES = len(fields(Config)) + 1  # every key, then the seed
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


@st.composite
def invocations(draw):
    """(config keys, seed, subcommand, {flag: value})."""
    ordinary = {key: st.sampled_from(pools[0]) for key, pools in KEYS.items()}
    keys = draw(st.fixed_dictionaries(
        {key: ordinary.pop(key) for key in REQUIRED}, optional=ordinary))
    edged = [key for key, pools in KEYS.items() if pools[1]]
    for key in draw(st.lists(st.sampled_from(edged), max_size=3, unique=True)):
        keys[key] = draw(st.sampled_from(KEYS[key][1]))
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {flag: st.sampled_from(values) for flag, values in FLAGS[command].items()}
    return (keys, draw(st.sampled_from((0, 1, -1))), command,
            draw(st.fixed_dictionaries({}, optional=flags)))


def write_scene(path: Path, kind: str, n: int) -> None:
    """A scene file of ``kind`` for N = ``n``: one a run accepts, or not."""
    rows = [["1.0" if (i, j) == (n // 2, 1) else "0.0" for j in range(3)] for i in range(n)]
    if kind in ("nan.txt", "huge.txt"):
        rows[0][0] = "nan" if kind == "nan.txt" else "1e308"
    if kind == "wrong-m.txt":
        rows.append(rows[0])
    if kind == "latin.txt":
        rows[0][0] = "\xff"  # written as one byte that is not UTF-8
    width = 10**12 if kind == "wide.txt" else 3  # a header claiming columns no row holds
    if kind != "missing.txt":
        text = f"# {len(rows)} {width}\n" + "".join(",".join(r) + "\n" for r in rows)
        path.write_bytes(text.encode("latin-1"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(invocation=invocations())
# Two edge values the derandomized draws miss, each once a traceback: an N whose
# float() overflows, and a scene file that is not UTF-8.
@example(invocation=({"n_subcarriers": 10**400, "prf": 16, "trials": 100}, 0, "allocate", {}))
@example(invocation=({"n_subcarriers": 8, "prf": 16, "trials": 100}, 0, "simulate",
                     {"--scene": "latin.txt"}))
def test_every_run_ends_in_finite_outputs_or_one_error_line(invocation):
    assert_ends_legally(invocation)


#: A subcommand that reads each key.  The derandomized draws above reach few of
#: the edge values, so each one also runs alone under its key's reader.
READERS = {
    "n_subcarriers": "allocate", "prf": "simulate", "trials": "mse-sweep",
    "bandwidth": "simulate", "power_budget": "allocate", "signaling": "simulate",
    "slant_range_center": "simulate", "velocity": "simulate", "carrier_freq": "simulate",
    "aperture_time": "simulate", "snr_db": "tradeoff", "tail_prob": "allocate",
    "channel": "allocate", "channel_taps": "allocate", "channel_seed": "allocate",
    "scene": "simulate", "scene_azimuth": "scene-gen", "snr_grid": "mse-sweep",
    "tradeoff_points": "tradeoff",
}
#: An ordinary value for every key: multipath, so that the channel keys are read.
ORDINARY = {key: pools[0][0] for key, pools in KEYS.items()} | {"channel": "multipath"}


@pytest.mark.parametrize("key, edge", [(key, edge) for key, pools in KEYS.items()
                                       for edge in pools[1]])
def test_every_edge_value_ends_in_finite_outputs_or_one_error_line(key, edge):
    assert_ends_legally(({**ORDINARY, key: edge}, 0, READERS[key], {}))


def assert_ends_legally(invocation):
    """Run ``invocation`` and check it ends as the module docstring requires."""
    keys, seed, command, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for kind in SCENE_FILES:
            write_scene(tmp / kind, kind, min(max(keys["n_subcarriers"], 1), 16))

        def value(v):
            return tmp / v if v in SCENE_FILES else v

        (tmp / "run.cfg").write_text("".join(f"{k} = {value(v)}\n" for k, v in keys.items()))
        # --flag=value, so that argparse reads "-inf" as a value, not an option.
        argv = [f"--seed={seed}", command, *(f"{flag}={value(v)}" for flag, v in flags.items())]
        out, stdout, stderr = tmp / "out", io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = run(["--config", str(tmp / "run.cfg"), "--out", str(out), *argv])
        written = sorted(out.iterdir()) if out.exists() else []
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            report = stdout.getvalue().splitlines()[ECHO_LINES:]
            assert not NAN.search("\n".join(l for l in report if not l.startswith("wrote ")))
            for path in written:
                if path.suffix != ".pgm":
                    assert not NAN.search(path.read_text()), path.name
        else:
            assert code in (2, 3, 4)
            assert re.fullmatch(r"error: (config|infeasible|io): [^\n]*\n", err), err
            assert written == []
