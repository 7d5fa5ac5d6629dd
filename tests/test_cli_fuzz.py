"""Every argv drawn from a subcommand's own declared options ends in a
documented exit code (0, 1, 2 or 3), with no exception escaping
``cli.main`` and no traceback on stderr (ROADMAP item 21).

Values are drawn by each option's declared type, so an option added to a
command is fuzzed without a change here. Ints run to 2^63, floats include
±0, subnormals, NaN, ±inf and ±1e308, and ``--k`` text includes ranges,
empty strings and junk. ``--steps`` is small, and ``verify`` is held to
N <= 8, because its checks grow with N. Derandomized, so a run is
reproducible; pytest's ``filterwarnings = error`` makes a numpy warning an
escaping exception.
"""

import contextlib
import io
import math
import os

import click
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openqnet import cli as cli_module
from openqnet.cli import main

INTS = st.integers(-(2**63), 2**63)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e308, -1e308]),
    st.floats(0.0, 3.0),
    st.floats(),
)
K_TEXTS = st.one_of(
    st.just(""),
    st.builds(lambda lo, hi: f"{lo}..{hi}", st.integers(-3, 60), st.integers(-3, 60)),
    st.integers(-3, 60).map(str),
    st.text(alphabet="0123456789.-+ ex", max_size=8),
)


def values(command: str, param: click.Option):
    """The option's argv text: by name where the name bounds the cost, else
    by declared type. A size is mostly small and valid, so that most draws
    reach the closed forms."""
    if param.name == "steps":
        return st.integers(-1, 9).map(str)
    if param.name == "n_qubits":
        top = 8 if command == "verify" else 2**63
        return st.one_of(st.integers(2, min(top, 60)), st.integers(-(2**63), top)).map(str)
    if param.name == "k_text":
        return K_TEXTS
    if isinstance(param.type, click.Choice):
        return st.sampled_from(param.type.choices)
    if param.type is click.INT:
        return INTS.map(str)
    if param.type is click.FLOAT:
        return FLOATS.map(repr)
    raise AssertionError(f"no strategy for {command} {param.opts[0]}")


@st.composite
def argvs(draw, command: str) -> list[str]:
    # Each required option is given, each other one but --out given or left
    # out; --out is added by the test.
    argv = [command]
    for param in cli_module.cli.commands[command].params:
        if param.name != "out_path" and (param.required or draw(st.booleans())):
            argv.append(f"{param.opts[0]}={draw(values(command, param))}")
    return argv


def run(argv: list[str], out: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", out])
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(cli_module.cli.commands))
def test_every_drawn_argv_ends_in_a_documented_exit_code(command, tmp_path_factory):
    out = os.path.join(tmp_path_factory.mktemp(command), "out.csv")

    @settings(max_examples=20 if command == "verify" else 100, deadline=None, derandomize=True)
    @given(argvs(command))
    # The scan of a window whose quarter underflows never left t = 0.
    @example(["infer", "--n=5", "--dt=5e-324", "--steps=3"])
    # A subnormal SLD step: the oracle's inf * 0 warned.
    @example(["verify", "--n=8", "--j=2.2e-308"])
    def check(argv):
        if argv[0] != command:
            return  # an explicit example of another command
        code, err = run(argv, out)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)

    check()
