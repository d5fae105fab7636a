"""Command-line interface for the experiment harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments figure4 --reps 5
    python -m repro.experiments all --reps 3 --scale 1
    python -m repro.experiments chaos --scale 0.1 --output out/

Every command is one row of :data:`COMMANDS` — its summary (what
``list`` prints), its runner and the shared flags it accepts; a flag a
command does not take is refused, not ignored.  Each figure command
prints the same series the paper plots; ``all`` then checks the
paper's claims (:mod:`~repro.experiments.claims`) and exits 1 on a miss,
as it does at ``--scale 0.25``, where the streams are too short.  The
run-level commands (:data:`RUN_LEVEL`) are described under their own
headings in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.bounds import COUNT, POSITIVE, Bound
from repro.experiments import chaos, claims, figures, latency, observe, telemetry
from repro.experiments.report import render_figure
from repro.experiments.scaffold import output_directory

#: command name -> zero-argument callable producing a FigureResult
FIGURES: dict[str, Callable] = {
    "figure4": figures.figure4_distributions,
    "figure5": figures.figure5_overprovisioning,
    "figure6": figures.figure6_wmax,
    "figure7": figures.figure7_wn,
    "figure8": figures.figure8_instances,
    "figure9": figures.figure9_epsilon,
    "figure10": figures.figure10_timeseries,
    "figure11": figures.figure11_prototype_timeseries,
    "figure12": figures.figure12_twitter,
}


@dataclass(frozen=True)
class Command:
    """One row of the command table."""

    #: the line ``list`` prints
    summary: str
    #: called with the parsed arguments; returns the process exit code
    run: Callable[[argparse.Namespace], int]
    #: the shared flags (argparse dests) this command accepts
    flags: tuple[str, ...] = ("scale", "output")


@contextlib.contextmanager
def _environment(**values: object):
    """Set environment variables (``None`` leaves one alone) for the
    figures' ``env_reps()`` / ``env_scale()`` readers, and restore the
    environment exactly on the way out."""
    values = {k: str(v) for k, v in values.items() if v is not None}
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _figures(
    names: Sequence[str], gate: bool = False
) -> Callable[[argparse.Namespace], int]:
    def run(args: argparse.Namespace) -> int:
        directory = output_directory(args.output)
        results = {}
        seconds = {}
        with _environment(REPRO_REPS=args.reps, REPRO_SCALE=args.scale):
            for name in names:
                start = time.perf_counter()
                result = results[name] = FIGURES[name]()
                seconds[name] = time.perf_counter() - start
                print(render_figure(result))
                if args.plot:
                    from repro.experiments.plotting import plot_figure

                    print()
                    print(plot_figure(result))
                if directory is not None:
                    path = directory / f"{name}.json"
                    result.save(path)
                    print(f"(saved to {path})")
                print()
        if not gate:
            return 0
        code = claims.gate(results, directory)
        # stdout only: the artefacts stay deterministic
        print("wall seconds: " + ", ".join(
            f"{name} {wall:.1f}" for name, wall in seconds.items()
        ) + f"; total {sum(seconds.values()):.1f}")
        return code

    return run


def _run_level(module) -> Callable[[argparse.Namespace], int]:
    return lambda args: module.run(scale=args.scale, output=args.output)


def _list(args: argparse.Namespace) -> int:
    for name, command in COMMANDS.items():
        print(f"{name + '  ':11s}{command.summary}")
    return 0


FIGURE_FLAGS = ("reps", "scale", "plot", "output")

#: the experiments beyond the paper's figures; each has an
#: ``experiment-smoke`` entry in CI (tests/experiments/test_cli.py)
RUN_LEVEL: dict[str, Command] = {
    "telemetry": Command(
        "One instrumented run: report, metrics, trace.", _run_level(telemetry)
    ),
    "chaos": Command(
        "One fault-injected run: recovery timeline, report.", _run_level(chaos)
    ),
    "observe": Command(
        "One run under the quality observatory: audit, quality, profile, "
        "dashboard.",
        _run_level(observe),
    ),
    "latency": Command(
        "Lineage runs: per-tuple scheduling delay / queue wait / service "
        "time, round-robin vs POSG.",
        _run_level(latency),
    ),
}

COMMANDS: dict[str, Command] = {
    **{
        name: Command(
            function.__doc__.strip().splitlines()[0], _figures([name]),
            FIGURE_FLAGS,
        )
        for name, function in sorted(FIGURES.items())
    },
    **RUN_LEVEL,
    "all": Command(
        "Every figure, then the paper's claims: exits 1 if one fails.",
        _figures(sorted(FIGURES), gate=True), FIGURE_FLAGS,
    ),
    "list": Command("This table.", _list, ()),
}


def _checked(parse: type, bound: Bound) -> Callable[[str], object]:
    """An argparse ``type=`` checking the parsed flag against ``bound``:
    a bad value is a usage error (exit 2) before anything runs."""

    def convert(text: str):
        try:
            return bound.check("value", parse(text))
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    # every shared flag defaults to None: main() tells a flag that was
    # given from one that was not, to refuse what a command does not take
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures and run "
        "the experiments built on top of them.",
    )
    parser.add_argument(
        "command",
        choices=list(COMMANDS),
        help="what to run ('list' prints one line per command)",
    )
    parser.add_argument(
        "--reps", type=_checked(int, COUNT), default=None,
        help="figures: randomized streams per configuration "
        "(paper: 100; default 5)",
    )
    parser.add_argument(
        "--scale", type=_checked(float, POSITIVE), default=None,
        help="stream-length scale factor (1.0 = paper sizes)",
    )
    parser.add_argument(
        "--plot", action="store_true", default=None,
        help="figures: also render an ASCII plot of each figure",
    )
    parser.add_argument(
        "--output", type=str, default=None,
        help="directory to write the command's result files into",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    for flag, value in vars(args).items():
        if flag != "command" and value is not None and flag not in command.flags:
            parser.error(f"{args.command} does not take --{flag}")
    return command.run(args)

