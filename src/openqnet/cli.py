"""Command-line front end emitting plot-ready CSV datasets.

All times on the command line are in units of the recurrence period
2*pi/(N*J). Every dataset subcommand writes CSV with a header row and a
leading ``t_over_period`` column; each cell is exactly ``'%.17g' % cell``
(``_csv`` writes it with numpy, and leaves to Python NaN, ±inf, magnitudes
outside [1e-280, 1e300) and near-ties where 10**p is no double), so doubles
round-trip, and output is byte-identical across runs (the verification
suites use a fixed seed). Each column is one array call of a closed form
over the whole time grid, and ``fisher`` and ``entropy`` take every K in
one (K, T) stack; a column refuses what its first refusing grid point
would, and a stack what the loop over its K would. Only ``infer``'s period
bisection still works point by point. Exit codes: 0 success, 1 usage
error or a table above ``TABLE_MAX_CELLS``, 2 numerical-verification
failure, 3 singular-point request (a singular propagator anchor or a
degenerate state; the message names the time).
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

import click
import numpy as np

from . import _csv, bloch, fisher, inference, propagator, states
from .amplitudes import NetworkParams, amplitudes
from .errors import DegenerateStateError, OpenQNetError, SingularIntervalError, SizeLimitError
from .fisher import GlobalParameter
from .states import DynClass, SubsystemSelector


#: Largest dataset table, in cells (rows x columns), refused before any
#: column is built. The benchmark's largest table holds 150.5k.
TABLE_MAX_CELLS = 1_000_000


class _VerificationFailed(OpenQNetError):
    """Raised by the verify subcommand when any residual exceeds tolerance."""


def _write_csv(out_path: str, chunks: Iterable[str]) -> None:
    # Each chunk is written as it comes, so no table's whole text is held.
    if out_path == "-":
        for chunk in chunks:
            click.echo(chunk, nl=False)
        return
    try:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise click.UsageError(f"cannot write {out_path!r}: {exc}") from exc


def _parse_k_values(text: str | None, n: int, dyn_classes: Sequence[DynClass]) -> range:
    k_max = n if DynClass.CONTAINS_EXCITED in dyn_classes else n - 1
    if text is None:
        return range(1, max(n, 2))  # 1..N-1, and K = 1 at least
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise click.UsageError(f"--k must be an integer or a..b range, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise click.UsageError(f"--k range must satisfy 1 <= a <= b, got {text!r}")
    if hi > k_max:
        raise click.UsageError(f"--k={text} exceeds the largest valid K ({k_max}) for this request")
    return range(lo, hi + 1)


_n_option = click.option("--n", "n_qubits", type=int, required=True, help="Network size N >= 2.")
_j_option = click.option("--j", "coupling", type=float, default=1.0, show_default=True, help="Exchange coupling J.")
_steps_option = click.option("--steps", type=int, default=400, show_default=True, help="Grid points over the time range.")
_out_option = click.option("--out", "out_path", default="-", show_default=True, help="Output CSV path, or - for stdout.")
_class_option = click.option(
    "--class", "cls", type=click.Choice(["0", "1"]), default="1", show_default=True,
    callback=lambda ctx, param, value: DynClass(int(value)),
    help="Dynamical class: 1 contains the excited qubit, 0 excludes it.",
)
_dt_option = click.option("--dt", type=float, required=True, help="Window length, in periods.")
_k_option = click.option("--k", "k_text", default=None, help="Subsystem size, int or a..b range.")


def _grid(
    steps: int, columns: int, start: float = 0.0, stop: float = 1.0, by_k: bool = False
) -> np.ndarray:
    # The time grid of a table with ``columns`` columns, ``t_over_period``
    # included; the one size guard, before any column is built.
    if steps < 2:
        raise click.UsageError(f"--steps must be >= 2, got {steps}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise click.UsageError(f"the time range must be finite, got {start} to {stop}")
    if steps * columns > TABLE_MAX_CELLS:
        raise SizeLimitError(
            f"table of {steps} rows x {columns} columns ({steps * columns} cells) guarded at "
            f"{TABLE_MAX_CELLS} cells; lower --steps" + (" or narrow --k" if by_k else "")
        )
    return np.linspace(start, stop, steps)


def _absolute(params: NetworkParams, taus: np.ndarray) -> np.ndarray:
    # Grid times in absolute units. A product that overflows stays inf, for
    # the library's time check to refuse, without numpy's warning.
    with np.errstate(over="ignore"):
        return taus * params.period


def _window_length(dt: float) -> float:
    if not (math.isfinite(dt) and dt > 0):
        raise click.UsageError(f"--dt must be finite and positive, got {dt}")
    return dt


@click.group(name="openqnet")
def cli() -> None:
    """Closed-form subsystem dynamics of a single-excitation qubit network."""


def _dataset(name: str, *options):
    """Declare a dataset subcommand with --n, --j, ``options``, --steps and
    --out. The decorated body takes the network, ``steps`` and its own
    options, and returns its header and its columns over the grid; the
    command writes them as one table."""

    def table(body, n_qubits: int, coupling: float, **values) -> tuple:
        # One row per grid point; a float is a constant column. Only the
        # header and the table outlive this call, so the body's columns and
        # the stacks they view are freed before writing.
        header, columns = body(NetworkParams(n_qubits, coupling), **values)
        return header, np.column_stack(np.broadcast_arrays(*columns))

    def decorate(body):
        def command(out_path: str, **values) -> None:
            _write_csv(out_path, _csv.csv_chunks(*table(body, **values)))

        for option in reversed((_n_option, _j_option, *options, _steps_option, _out_option)):
            command = option(command)
        return cli.command(name, help=body.__doc__)(command)

    return decorate


@_dataset("amplitudes")
def amplitudes_cmd(params: NetworkParams, steps: int) -> tuple:
    """Global transition amplitudes u_s(t), u_d(t) over one period."""
    header = ["t_over_period", "u_s_re", "u_s_im", "u_d_re", "u_d_im", "u_d_abs2"]
    taus = _grid(steps, len(header))
    amps = amplitudes(params, _absolute(params, taus))
    us, ud = amps.same_site, amps.cross_site
    return header, (taus, us.real, us.imag, ud.real, ud.imag, amps.cross_abs2)


@_dataset(
    "flow",
    _dt_option,
    click.option("--k", "k_text", default=None, help="Subsystem size, int or a..b range (default 1..N-1)."),
)
def flow_cmd(params: NetworkParams, dt: float, k_text: str | None, steps: int) -> tuple:
    """Excitation-flow weight of the windowed propagator, both classes."""
    dt = _window_length(dt)
    ks = _parse_k_values(k_text, params.n_qubits, (DynClass.CONTAINS_EXCITED,))
    ks0 = ks if ks[-1] < params.n_qubits else ks[:-1]  # class 0 stops at K = N - 1
    taus = _grid(steps, 1 + len(ks) + len(ks0), by_k=True)
    header = ["t_over_period"]
    header += [f"phi_tau_c1_k{k}" for k in ks]
    header += [f"phi_tau_c0_k{k}" for k in ks0]
    sels = [SubsystemSelector(k, DynClass.CONTAINS_EXCITED) for k in ks]
    sels += [SubsystemSelector(k, DynClass.EXCLUDES_EXCITED) for k in ks0]
    flows = propagator._flows(params, sels, _absolute(params, taus), _absolute(params, taus + dt))
    return header, (taus, *flows)


_TRAJECTORY_STARTS = (-1.0, -2.0 / 3.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)


@_dataset("bloch-traj", _class_option)
def bloch_traj_cmd(params: NetworkParams, cls: DynClass, steps: int) -> tuple:
    """z-trajectories of a fan of initial axial states under the one-time map."""
    header = ["t_over_period"] + [f"bz0_{z0:+.4f}" for z0 in _TRAJECTORY_STARTS] + ["orbit_bz"]
    taus = _grid(steps, len(header))
    t = _absolute(params, taus)
    bmap = bloch.affine_map(params, cls, 0.0, t)
    starts = [bmap.z_shift + bmap.z_scale * z0 for z0 in _TRAJECTORY_STARTS]
    return header, (taus, *starts, bloch.physical_bloch_z(params, cls, t))


@_dataset("bloch-domain", _class_option, _dt_option)
def bloch_domain_cmd(params: NetworkParams, cls: DynClass, dt: float, steps: int) -> tuple:
    """Axial positivity band of the windowed single-qubit propagator."""
    dt = _window_length(dt)
    header = ["t_over_period", "band_lo", "band_hi", "orbit_bz"]
    taus = _grid(steps, len(header))
    t1, t2 = _absolute(params, taus), _absolute(params, taus + dt)
    lo, hi = bloch.axial_positivity_band(bloch.affine_map(params, cls, t1, t2))
    return header, (taus, lo, hi, bloch.physical_bloch_z(params, cls, t1))


@_dataset("entropy", _class_option, _k_option)
def entropy_cmd(params: NetworkParams, cls: DynClass, k_text: str | None, steps: int) -> tuple:
    """Entanglement entropy of the chosen subsystems over one period."""
    ks = _parse_k_values(k_text, params.n_qubits, (cls,))
    taus = _grid(steps, 1 + len(ks), by_k=True)
    header = ["t_over_period"] + [f"entropy_k{k}" for k in ks]
    return header, (taus, *states._entropy_stack(params, ks, cls, _absolute(params, taus)))


@_dataset("fisher", _class_option, _k_option)
def fisher_cmd(params: NetworkParams, cls: DynClass, k_text: str | None, steps: int) -> tuple:
    """Fisher information pieces for both global parameters.

    Size-parameter columns are omitted for K = N in class 1, where that
    quantity diverges.
    """
    ks = _parse_k_values(k_text, params.n_qubits, (cls,))
    # No size columns for K = N in class 1, the largest K.
    sized = ks[:-1] if cls is DynClass.CONTAINS_EXCITED and ks[-1] == params.n_qubits else ks
    taus = _grid(steps, 1 + 3 * (len(ks) + len(sized)), by_k=True)
    t = _absolute(params, taus)
    # Each parameter's pieces for every K of ``ks``, size pieces for the K
    # of ``sized``, from one stack each.
    stacks = [("fj", fisher._information_stack(params, ks, cls, GlobalParameter.COUPLING_J, t))]
    if sized:
        stacks.append(("fn", fisher._information_stack(params, sized, cls, GlobalParameter.SIZE_N, t)))
    header, columns = ["t_over_period"], [taus]
    for i, k in enumerate(ks):
        for name, info in stacks:
            if i < len(info.total):
                header += [f"{name}_classical_k{k}", f"{name}_quantum_k{k}", f"{name}_total_k{k}"]
                columns += [info.classical[i], info.quantum[i], info.total[i]]
    return header, columns


@_dataset(
    "fisher-decomp",
    _class_option,
    click.option("--t1", type=float, required=True, help="Window start, in periods."),
    click.option("--t2", type=float, default=None, help="Sweep end, in periods (default t1 + 2)."),
)
def fisher_decomp_cmd(params: NetworkParams, cls: DynClass, t1: float, t2: float | None, steps: int) -> tuple:
    """Rescaled process/state/cross split of single-qubit sensitivity.

    t2 sweeps forward from t1 (two periods by default); the first column is
    absolute t2 in period units.
    """
    end = t1 + 2.0 if t2 is None else t2
    if end <= t1 and t2 is None:
        raise click.UsageError(f"the default two-period sweep is not representable past t1={t1}")
    if end <= t1:
        raise click.UsageError(f"--t2 must exceed --t1, got t1={t1} t2={end}")
    header = ["t_over_period", "process", "state", "cross", "total"]
    taus = _grid(steps, len(header), t1, end)
    split = fisher.process_state_split(
        params, cls, t1 * params.period, _absolute(params, taus), rescaled=True
    )
    return header, (taus, split.process, split.state, split.cross, split.total)


@_dataset(
    "infer",
    click.option("--dt", type=float, default=0.05, show_default=True, help="Window length, in periods."),
)
def infer_cmd(params: NetworkParams, dt: float, steps: int) -> tuple:
    """Round-trip inference of N and J from simulated single-qubit flows.

    Rows sweep the window anchor over one period; windows with no usable
    flow yield NaN size estimates. The coupling estimate comes from a
    bisected flow sign change and is constant across rows.
    """
    dt = _window_length(dt)
    if dt >= 1.0:  # the period estimate holds only for windows shorter than a period
        raise click.UsageError(f"--dt must lie in (0, 1) periods for infer, got {dt}")
    sel1 = SubsystemSelector(1, DynClass.CONTAINS_EXCITED)
    sel0 = SubsystemSelector(1, DynClass.EXCLUDES_EXCITED)
    window = dt * params.period

    def hop_change(t: float) -> float:
        # x(t + window) - x(t), x = |u_d|^2: the flow weight's sign wherever that is
        # defined (its denominator lies in (0, 1]), and defined at singular anchors.
        return amplitudes(params, t + window).cross_abs2 - amplitudes(params, t).cross_abs2

    period_est = inference.estimate_period(hop_change, window, 2.5 * params.period)
    j_est = inference.infer_coupling(period_est, params.n_qubits)
    header = [
        "t_over_period",
        "phi_tau_c1",
        "phi_tau_c0",
        "ground_prob_t1",
        "n_estimate",
        "n_nearest",
        "n_residual",
        "j_estimate",
    ]
    taus = _grid(steps, len(header))
    t1 = _absolute(params, taus)
    flow1, flow0 = propagator._flows(params, (sel1, sel0), t1, _absolute(params, taus + dt))
    ground = states.excitation_probability(params, sel0, t1)
    return header, (taus, flow1, flow0, ground, *inference._size_estimates(flow1, flow0, ground), j_est)


@cli.command("verify")
@_n_option
@_j_option
@_out_option
def verify_cmd(n_qubits: int, coupling: float, out_path: str) -> None:
    """Run every cross-route verification suite; exit 2 on any failure."""
    from . import verification  # loads numpy.random, which no dataset command needs

    params = NetworkParams(n_qubits, coupling)
    results = verification.run_all_checks(params)
    lines = ["check,value,tolerance,status\n"]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        where = f"  at {verification.describe_case(r.worst_at)}" if r.worst_at else ""
        click.echo(
            f"{status}  {r.name:<{width}}  max={r.value:.3e}  tol={r.tolerance:.1e}"
            f"{where}  time={r.seconds * 1e3:.1f}ms",
            err=True,
        )
        lines.append("%s,%.17g,%.17g,%s\n" % (r.name, r.value, r.tolerance, status))
    _write_csv(out_path, lines)
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise _VerificationFailed(f"verification failed: {', '.join(failed)}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="openqnet", standalone_mode=False)
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.exceptions.Abort:
        return 1
    except click.exceptions.ClickException as exc:
        exc.show()
        return 1
    except (SingularIntervalError, DegenerateStateError) as exc:
        click.echo(f"singular point: {exc}", err=True)
        return 3
    except _VerificationFailed as exc:
        click.echo(str(exc), err=True)
        return 2
    except OpenQNetError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
