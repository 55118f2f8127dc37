"""Command-line runner.

Subcommands::

    rigidkit analyze   scenario.json   rigidity pipeline -> report.json, rigidity_matrix.csv, subspaces.json
    rigidkit modes     scenario.json   hidden-mode analysis -> modes.json
    rigidkit dichotomy scenario.json   impulse experiment -> outcome.json, trajectory.csv [, sweep.csv]
    rigidkit plotdata  RUN_DIR         plot-ready files -> arrows_Ri.csv, arrows_Ti.csv, edge_errors.csv, plane.json

Exit codes: 0 success, 2 input/validation problem (a path that is missing or
is not a plain file included), 3 numerical failure.
Output directory: --out, else the RIGIDKIT_OUT environment variable, else
the current directory. Identical scenario and flags produce byte-identical
outputs; every run records its files in manifest.json, and --check re-runs
the command and compares against the recorded outputs within tolerances.
"""

from __future__ import annotations

import os

# One BLAS thread per CLI process, set before numpy loads, unless the caller
# chose a count. The largest matrix a run factors is a few hundred rows wide:
# on a 2-core machine OpenBLAS's thread pool made `import numpy` take 203 ms
# instead of 127 ms and earned nothing back, and the SVD's last bits, so the
# artifacts, depend on the thread count. Once numpy is loaded the variable
# no longer acts: a program that calls main() in-process runs on its own
# pool, and must set OPENBLAS_NUM_THREADS=1 before its first `import numpy`
# to write records that a spawned --check accepts.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import filecmp
import itertools
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .framework import (
    Scenario,
    ScenarioParseError,
    ValidationError,
    _is_number,
    block,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)
from .jsonio import NonFiniteError, atomic_write, dump_json, load_json
from .subspaces import NumericalError, contains
from .rigidity import (
    classify_rigidity,
    deformation_space,
    flex_space,
    rbm_basis,
    rigidity_matrix,
    self_stress_space,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
# --check tolerances for numbers that differ from the recorded run
CHECK_RTOL = 1e-9
CHECK_ATOL = 1e-12
# fields formatted per write of a CSV file, and parsed per read of one
CSV_CHUNK_CELLS = 1 << 12
# largest float64 table, in bytes, that a run may build or write: max(m, nd)^2
# for R and the factors of its SVD, U (m x m, built by the call, which keeps
# its columns past the rank) and V^T (nd x nd); for dichotomy also the sweep's
# N x max(nd, m) final states and edge errors, and the (steps + 1) x nd states
# of a trajectory, which it writes a block at a time (no path builds that
# table whole). A run holds a few tables of that size at once, so larger
# sizes are refused before anything is allocated or written.
ARRAY_BUDGET_BYTES = 1 << 30

__all__ = ["main", "EXIT_OK", "EXIT_INPUT", "EXIT_NUMERICAL"]


def _axis_names(d: int) -> list[str]:
    if d <= 4:
        return list("xyzw"[:d])
    return [f"c{a + 1}" for a in range(d)]


def _coord_headers(n: int, d: int) -> list[str]:
    names = _axis_names(d)
    return [f"p_{k + 1}{ax}" for k in range(n) for ax in names]


def _write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    """Header, then one line per row with every field in ``%.17g``."""
    _write_csv_blocks(path, header, [rows])


def _write_csv_blocks(path: Path, header: list[str], blocks) -> None:
    """:func:`_write_csv` of the rows of ``blocks``, 2-D arrays of one width
    stacked in order, none of which need exist before it is written.

    A row whose fields after the first repeat the previous row's bit for
    bit (a trajectory at rest, say) reuses that row's text after its own
    first field. The text goes out in chunks of about ``CSV_CHUNK_CELLS``
    fields, so no list or string of the whole table is built. A
    non-finite value raises ``NumericalError`` and leaves ``path`` as it was.
    """
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        bits = text = None
        for rows in blocks:
            rows = np.atleast_2d(np.asarray(rows, dtype=float))
            if not np.all(np.isfinite(rows)):
                raise NumericalError(f"non-finite value while writing {path.name}")
            count, width = rows.shape
            if width == 0:
                fh.write("\n" * count)
                continue
            rest_format = ",%.17g" * (width - 1)
            size = 8 * (width - 1)  # bytes of a row's fields after the first
            chunk = max(1, CSV_CHUNK_CELLS // width)
            for lo in range(0, count, chunk):
                block = rows[lo : lo + chunk]
                raw = block[:, 1:].tobytes()
                lines = []
                for k, first in enumerate(block[:, 0].tolist()):
                    row_bits = raw[k * size : (k + 1) * size]
                    if row_bits != bits:
                        bits, text = row_bits, rest_format % tuple(block[k, 1:].tolist())
                    lines.append("%.17g%s\n" % (first, text))
                fh.write("".join(lines))


def _write_trajectory_csv(traj, path: Path) -> None:
    """Columns t, p_1x, p_1y, ..., e_1, ..., e_m, V with absolute positions
    and exact edge errors, for either kind of trajectory, from one pass over
    its blocks. The table, edge errors and potential included, is built a
    block of about ``CSV_CHUNK_CELLS`` fields at a time."""
    fw = traj.framework
    header = (
        ["t"]
        + _coord_headers(fw.n, fw.d)
        + [f"e_{k + 1}" for k in range(fw.m)]
        + ["V"]
    )
    step = max(1, CSV_CHUNK_CELLS // len(header))

    def chunks():
        lo = 0
        for states in traj.blocks():
            for k in range(lo, lo + len(states), step):
                rows = states[k - lo : k - lo + step]
                yield np.column_stack([np.arange(k, k + len(rows)) * traj.dt, *traj.values(rows)])
            lo += len(states)

    _write_csv_blocks(path, header, chunks())


def _load_scenario(args) -> Scenario:
    """The scenario file with the flags' overrides applied, refused with
    ``ValidationError`` when its rigidity matrix or the factors of its SVD
    would not fit in ``ARRAY_BUDGET_BYTES``."""
    scenario = load_scenario(args.scenario)
    fw = scenario.framework
    side = max(fw.m, fw.n * fw.d)
    _check_budget("rigidity matrix SVD", side, side)
    sim = scenario.sim
    if getattr(args, "dt", None) is not None:
        sim = replace(sim, dt=args.dt)
    if getattr(args, "t_end", None) is not None:
        sim = replace(sim, t_end=args.t_end)
    tol = scenario.tol
    if getattr(args, "tol_rank", None) is not None:
        tol = replace(tol, rank=args.tol_rank)
    if getattr(args, "tol_subspace", None) is not None:
        tol = replace(tol, subspace=args.tol_subspace)
    return replace(scenario, sim=sim, tol=tol)


def _resolve_out(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get("RIGIDKIT_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _update_manifest(out_dir: Path, command: str, files: list[str]) -> None:
    path = out_dir / "manifest.json"
    data = {"runs": {}}
    if path.exists():
        try:
            loaded = load_json(path)
        except ValueError:  # not JSON (or not UTF-8): replaced like a manifest of the wrong shape
            loaded = None
        if isinstance(loaded, dict) and isinstance(loaded.get("runs"), dict):
            data = loaded
    data["runs"][command] = {"files": sorted(files)}
    ordered = {"runs": {k: data["runs"][k] for k in sorted(data["runs"])}}
    dump_json(ordered, path)


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=CHECK_RTOL, atol=CHECK_ATOL))


def _values_match(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_values_match(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return False
        if all(map(_is_number, a)) and all(map(_is_number, b)):
            return _close(np.array(a, dtype=float), np.array(b, dtype=float))
        return all(_values_match(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if _is_number(a) and _is_number(b):
        return _close(a, b)
    return a == b


def _rows(fh):
    """The lines of ``fh``, refusing a blank one (numpy's reader skips them)."""
    for line in fh:
        if not line.strip():
            raise ValueError("blank line")
        yield line


def _read_table(path: Path):
    """A CSV file written by :func:`_write_csv`, as ``plotdata`` and
    ``--check`` read it: yields its header, then its rows in 2-D blocks of
    about ``CSV_CHUNK_CELLS`` fields.

    The rows go through numpy's C reader, so no Python string or float is
    made per field, and only one block is held at a time. Any line that is
    not a full row of numbers is refused with ``ValidationError`` when its
    block is reached: a blank line, a missing or extra field, a field
    ``float()`` would take but numpy's reader does not (``1_0``), or no row.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            yield header
            lines, count = _rows(fh), 0
            while block := list(itertools.islice(lines, max(1, CSV_CHUNK_CELLS // len(header)))):
                data = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
                if data.shape[1] != len(header):
                    raise ValueError("wrong number of fields")
                count += len(data)
                yield data
            if count:
                return
    except ValueError:  # not UTF-8 text, a blank line, a missing or extra field, or one that is not a number
        pass
    raise ValidationError(f"{path}: expected a header and rows of numbers, one per column")


def _files_match(fresh: Path, existing: Path) -> bool:
    # compared in small blocks; the fresh file's path is new on every run,
    # so filecmp's cache of earlier outcomes never answers
    if filecmp.cmp(fresh, existing, shallow=False):
        return True
    try:
        if fresh.suffix == ".json":
            return _values_match(load_json(fresh), load_json(existing))
        new, old = _read_table(fresh), _read_table(existing)
        if next(new) != next(old):  # the headers; equal ones give blocks of equal height
            return False
        return all(
            a is not None and b is not None and a.shape == b.shape and _close(a, b)
            for a, b in itertools.zip_longest(new, old)
        )
    except (ValueError, OverflowError):  # recorded text that is not JSON, not UTF-8 or not a table of numbers
        return False


def _run_command(args, command: str, runner) -> int:
    out_dir = _resolve_out(args)
    if getattr(args, "check", False):
        with tempfile.TemporaryDirectory() as tmp:
            files = runner(Path(tmp))
            for name in files:
                existing = out_dir / name
                if not existing.exists():
                    print(f"check: missing artifact {existing}", file=sys.stderr)
                    return EXIT_INPUT
                if not _files_match(Path(tmp) / name, existing):
                    print(f"check: {name} differs from the recorded run", file=sys.stderr)
                    return EXIT_NUMERICAL
        print(f"check passed for {command}: {len(files)} files match")
        return EXIT_OK
    files = runner(out_dir)
    _update_manifest(out_dir, command, files)
    print(f"{command}: wrote {', '.join(sorted(files))} to {out_dir}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    scenario = _load_scenario(args)
    fw = scenario.framework

    def runner(out_dir: Path) -> list[str]:
        rm = rigidity_matrix(fw, tol=scenario.tol)
        tols = {"rank": scenario.tol.rank, "subspace": rm.subspace_tol}
        flex = flex_space(rm)
        stress = self_stress_space(rm)
        deform = deformation_space(rm)
        rbm = rbm_basis(fw)

        save_scenario(scenario, out_dir / "scenario.json")
        _write_csv(out_dir / "rigidity_matrix.csv", _coord_headers(fw.n, fw.d), rm.entries)
        dump_json(
            {
                "ambient_dim": fw.n * fw.d,
                "tolerances": tols,
                # each basis as the list of its columns
                "flex": flex.basis.T,
                "self_stress": stress.basis.T,
                "deformation": deform.basis.T,
                "rbm_translations": rbm.translations.T,
                "rbm_rotations": rbm.rotations.T,
            },
            out_dir / "subspaces.json",
        )
        files = ["scenario.json", "rigidity_matrix.csv", "subspaces.json", "report.json"]
        dump_json(
            {
                "command": "analyze",
                "scenario": scenario_to_dict(scenario),
                "classification": classify_rigidity(rm),
                "rank": rm.rank,
                "edge_count": fw.m,
                "state_dim": fw.n * fw.d,
                "dims": {
                    "flex": flex.dim,
                    "self_stress": stress.dim,
                    "deformation": deform.dim,
                    "rbm": rbm.dim,
                },
                "tolerances": tols,
                "files": sorted(files),
            },
            out_dir / "report.json",
        )
        return files

    return _run_command(args, "analyze", runner)


def cmd_modes(args) -> int:
    from .modes import classify_modes, hidden_mode_checks, linearize

    scenario = _load_scenario(args)

    def runner(out_dir: Path) -> list[str]:
        sys_ = linearize(scenario.framework, scenario.actuator, scenario.sensor, scenario.tol)
        report = classify_modes(sys_)
        checks = hidden_mode_checks(sys_)
        unctrl, unobs = sys_.uncontrollable, sys_.unobservable
        same_node = scenario.actuator == scenario.sensor
        save_scenario(scenario, out_dir / "scenario.json")
        dump_json(
            {
                "command": "modes",
                "scenario": scenario_to_dict(scenario),
                "tolerances": {"rank": scenario.tol.rank, "subspace": sys_.rigidity.subspace_tol},
                "uncontrollable_dim": unctrl.dim,
                "unobservable_dim": unobs.dim,
                "actuator_equals_sensor": same_node,
                "uncontrollable_equals_unobservable": bool(
                    contains(unctrl, unobs) and contains(unobs, unctrl)
                ),
                "mode_report": report,
                "checks": checks,
            },
            out_dir / "modes.json",
        )
        return ["scenario.json", "modes.json"]

    return _run_command(args, "modes", runner)


def _check_budget(what: str, rows: int, cols: int) -> None:
    size = rows * cols * 8
    if size > ARRAY_BUDGET_BYTES:
        raise ValidationError(
            f"{what}: {rows} x {cols} floats take {size} bytes, over the budget of {ARRAY_BUDGET_BYTES}"
        )


def cmd_dichotomy(args) -> int:
    from .dynamics import shape_recovery_experiment, sweep_impulse_angles
    from .modes import linearize

    if args.sweep < 0:
        raise ValidationError(f"--sweep: the number of angles must be 0 or positive, got {args.sweep}")
    scenario = _load_scenario(args)
    fw = scenario.framework
    _check_budget("trajectory", scenario.sim.samples, fw.n * fw.d)  # the state rows written, a block at a time
    _check_budget("sweep", args.sweep, max(fw.n * fw.d, fw.m))  # final states, then all their edge errors

    def runner(out_dir: Path) -> list[str]:
        sys_ = linearize(scenario.framework, scenario.actuator, scenario.sensor, scenario.tol)
        outcome, trajectory, flow = shape_recovery_experiment(scenario, sys_)
        files = ["scenario.json", "outcome.json", "trajectory.csv"]
        if args.nonlinear:
            # first, stepped as it is written, so that a flow that is not
            # finite leaves every file as it was; that pass keeps the tail rows
            _write_trajectory_csv(flow, out_dir / "trajectory_nonlinear.csv")
            outcome["nonlinear_final_edge_errors"] = flow.tail_edge_errors()
            files.append("trajectory_nonlinear.csv")
            del flow  # and its tail rows, before the other files are made
        save_scenario(scenario, out_dir / "scenario.json")
        dump_json(
            {
                "command": "dichotomy",
                "scenario": scenario_to_dict(scenario),
                "outcome": outcome,
            },
            out_dir / "outcome.json",
        )
        _write_trajectory_csv(trajectory, out_dir / "trajectory.csv")
        if args.sweep:
            table = sweep_impulse_angles(scenario, sys_, args.sweep)
            _write_csv(
                out_dir / "sweep.csv",
                ["angle", "alignment", "c_r", "max_final_edge_error"],
                table,
            )
            files.append("sweep.csv")
        return files

    return _run_command(args, "dichotomy", runner)


def cmd_plotdata(args) -> int:
    from .modes import controllable_plane, elementary_rotations, global_rotation_subspace

    run_dir = Path(args.run_dir)
    scenario_path = run_dir / "scenario.json"
    if not scenario_path.exists():
        print(f"error: missing {scenario_path} (run analyze/modes/dichotomy first)", file=sys.stderr)
        return EXIT_INPUT
    scenario = load_scenario(scenario_path)
    fw = scenario.framework
    if fw.d != 2:
        raise ValidationError(f"plotdata arrows require d=2, got d={fw.d}")
    trajectory_path = run_dir / "trajectory.csv"
    if not trajectory_path.exists():
        print(f"error: missing {trajectory_path} (run dichotomy first)", file=sys.stderr)
        return EXIT_INPUT

    table = _read_table(trajectory_path)
    header = next(table)
    keep = [0] + [c for c, name in enumerate(header) if name.startswith("e_")]

    def runner(out_dir: Path) -> list[str]:
        # first, so that a trajectory refused on a later row leaves every file as it was
        _write_csv_blocks(
            out_dir / "edge_errors.csv", [header[c] for c in keep], (rows[:, keep] for rows in table)
        )
        pts = fw.points
        rotation = global_rotation_subspace(fw, scenario.actuator).basis[:, 0]
        rows = [
            [k + 1, pts[k, 0], pts[k, 1], rotation[2 * k], rotation[2 * k + 1]]
            for k in range(fw.n)
        ]
        _write_csv(out_dir / "arrows_Ri.csv", ["node", "x", "y", "dx", "dy"], np.array(rows))

        tau_rows = []
        for nbr in fw.neighbors(scenario.actuator):
            tau = elementary_rotations(fw, scenario.actuator, nbr)[:, 0]
            arrow = block(tau, nbr, 2)
            arrow = arrow / np.linalg.norm(arrow)
            tau_rows.append([nbr + 1, pts[nbr, 0], pts[nbr, 1], arrow[0], arrow[1]])
        # (k, 5) even when the actuator has no neighbour, so the file is its header alone
        tau_table = np.reshape(tau_rows, (-1, 5))
        _write_csv(out_dir / "arrows_Ti.csv", ["node", "x", "y", "dx", "dy"], tau_table)

        dump_json(controllable_plane(rbm_basis(fw), scenario.actuator), out_dir / "plane.json")
        return ["arrows_Ri.csv", "arrows_Ti.csv", "edge_errors.csv", "plane.json"]

    if getattr(args, "out", None) is None and "RIGIDKIT_OUT" not in os.environ:
        args.out = str(run_dir)
    return _run_command(args, "plotdata", runner)


def _add_common(parser: argparse.ArgumentParser, scenario_arg: bool = True) -> None:
    if scenario_arg:
        parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--out", default=None, help="output directory (default: $RIGIDKIT_OUT or .)")
    parser.add_argument("--tol-rank", type=float, default=None, help="rank tolerance override")
    parser.add_argument("--tol-subspace", type=float, default=None, help="subspace tolerance override")
    parser.add_argument("--dt", type=float, default=None, help="integrator step override")
    parser.add_argument("--t-end", type=float, default=None, help="integration horizon override")
    parser.add_argument(
        "--check",
        action="store_true",
        help="recompute and compare against the recorded outputs instead of writing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidkit",
        description="Rigidity, hidden-mode geometry and impulse response of distance-based formations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="rigidity classification and subspaces")
    _add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_modes = sub.add_parser("modes", help="hidden-mode classification and subspace checks")
    _add_common(p_modes)
    p_modes.set_defaults(func=cmd_modes)

    p_dich = sub.add_parser("dichotomy", help="impulse experiment: recovery vs distortion")
    _add_common(p_dich)
    p_dich.add_argument("--sweep", type=int, default=0, help="also sweep N input angles")
    p_dich.add_argument(
        "--nonlinear", action="store_true", help="also run the nonlinear comparison trajectory"
    )
    p_dich.set_defaults(func=cmd_dichotomy)

    p_plot = sub.add_parser("plotdata", help="plot-ready files from a completed run directory")
    p_plot.add_argument("run_dir", help="directory holding scenario.json and trajectory.csv")
    p_plot.add_argument("--out", default=None, help="output directory (default: the run directory)")
    p_plot.add_argument("--check", action="store_true", help="compare against recorded outputs")
    p_plot.set_defaults(func=cmd_plotdata)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a path that is missing, or is a directory where a file belongs, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ScenarioParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, np.linalg.LinAlgError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def entry() -> None:
    """Run :func:`main` as a process: the ``rigidkit`` command and
    ``python -m rigidkit.cli``.

    A warning, such as the flexible-framework notice of ``dichotomy``, is
    printed as the one line ``warning: <message>``, without the source
    location Python adds by default.

    Once stdout and stderr are flushed the process ends with ``os._exit``,
    skipping the interpreter's teardown of numpy and rigidkit. Nothing is
    lost by that: every file written is closed by then, and no ``atexit``
    hook is registered. An exception that escapes :func:`main` (argparse's
    ``SystemExit`` included) and a flush that fails take the normal way out,
    so Python reports the failed flush without a traceback and exits 120.
    """
    warnings.formatwarning = _format_warning
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process was started with the stream closed
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
