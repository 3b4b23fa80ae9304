"""Command-line front end (argparse): check, synthesize, orbit, density, props.

Exit codes: 0 completed (also --help, --version); 1 usage/input error,
interrupt (Ctrl-C) or closed output pipe (any format, and --help and
--version: every report leaves through ``reporting``, and their text too is
flushed inside ``main``); 2 math audit or property failure; 3 internal error
(a defect; the traceback goes to stderr).  Outputs embed the resolved config
and the library version; pass --no-timestamp for byte-reproducible files.

``main(argv)`` is the in-process entry; it returns the exit code.  The
``shiftlab`` script and ``python -m shiftlab.cli`` go through ``run``, which
keeps numpy's BLAS to one thread, flushes the output and ends the process
without interpreter teardown (tens of milliseconds once numpy is loaded,
more than a short ``check``'s work).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import traceback
from fractions import Fraction
from functools import cache
from itertools import islice
from pathlib import Path

from . import __version__
from .reporting import (RUNS, canonical_json, csv_lines, emit, envelope, json_chunks,
                        splice_runs, write_csv_forked)
from .scalars import SearchCapExceeded, log2_exact
from .shifts import ShiftOperator, basis_orbit_norm, parse_weights, weights_from_json, window_check
from .spaces import InvalidSpecError, parse_space, space_from_json, space_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_INTERNAL = 3


class AuditFailure(Exception):
    """A math audit or property suite reported violations."""


def _load(text: str, parse, from_json):
    if text.startswith("@"):
        return from_json(json.loads(Path(text[1:]).read_text()))
    return parse(text)


def _ints(option: str, form: str, text: str, fields) -> tuple:
    """The fields as integers; an input error naming the option otherwise."""
    try:
        return tuple(map(int, fields))
    except ValueError:
        raise InvalidSpecError(f"{option} needs {form}, got {text!r}") from None


def _fractions(option: str, text: str) -> list:
    """The comma-separated fractions; an input error naming the option otherwise."""
    try:
        return [Fraction(field) for field in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InvalidSpecError(f"{option} needs fractions like 1/2,3, got {text!r}") from None


def _parse_range(option: str, text: str):
    lo, _, hi = text.partition(":")
    lo, hi = _ints(option, "<lo>:<hi> or <n> with integers", text, (lo, hi or lo))
    if lo > hi:
        raise InvalidSpecError(f"{option} needs lo <= hi, got {text!r}")
    return lo, hi


def _horizon(n_max, window, k_max, l_max, m_grid, basis_window) -> HorizonConfig:
    from .criteria import HorizonConfig  # the log lane: only check loads it
    grid = HorizonConfig.m_grid if m_grid is None else _ints(
        "--m-grid", "comma-separated integers like 1,2,4", m_grid, m_grid.split(","))
    return HorizonConfig(n_max=n_max, window=window, m_grid=grid, k_max=k_max, l_max=l_max,
                         basis_window=basis_window)


def check(space, weights, criterion, side, n_max, window, k_max, l_max,
          m_grid, basis_window, out, no_timestamp):
    """Run one criterion checker and emit its verdict report."""
    from .criteria import check_criterion
    space = _load(space, parse_space, space_from_json)
    weights = _load(weights, parse_weights, weights_from_json)
    op = ShiftOperator(side, weights, space)
    cfg = _horizon(n_max, window, k_max, l_max, m_grid, basis_window)

    if criterion == "wellposed":
        payload = {key: [window_check(op, condition, k, cfg).to_json()
                         for k in range(1, cfg.k_max + 1)]
                   for key, condition in (("wellposed", "defined"), ("invertible", "invertible"))}
    else:
        payload = check_criterion(op, criterion, cfg).to_json()
        if criterion == "ue":
            payload["upe"] = payload["property"] in ("A", "a")

    config = {"space": space_to_json(space), "weights": weights.to_json(),
              "side": side, "criterion": criterion, "horizon": cfg.to_json()}
    emit(out, json_chunks(envelope("check", config, payload, not no_timestamp)))
    if criterion == "hierarchy" and not payload["consistent"]:
        raise AuditFailure("hierarchy audit inconsistent")


def synthesize(j_max, t_range, out, weights_out, no_timestamp):
    """Build the block weight sequence and audit every inequality exactly."""
    from .blocks import build_blocks, hypercyclicity_witness, verify_inequalities
    if t_range < 0:  # a negative range would audit no shift and pass
        raise InvalidSpecError(f"--t-range needs a range of at least 0, got {t_range}")
    build = build_blocks(j_max)
    audit = verify_inequalities(build)
    witness = hypercyclicity_witness(build, t_range=t_range)
    payload = {
        "layout": [build.layout[j].to_json() for j in range(1, j_max + 1)],
        "weights_window": RUNS,
        "audits": audit.to_json() | {"hc": witness.to_json()},
        "all_passed": audit.all_passed and witness.certified,
    }
    config = {"blocks": j_max, "t_range": t_range}
    emit(out, splice_runs(
        canonical_json(envelope("synthesize", config, payload, not no_timestamp)), build.runs))
    if weights_out:
        emit(weights_out, splice_runs(
            canonical_json(build.to_json() | {"table_window": RUNS}), build.runs))
    if not payload["all_passed"]:
        raise AuditFailure("block construction audit failed")


def orbit(space, weights, side, vector, n_range, k_range, fmt, out, no_timestamp):
    """Tabulate log2 orbit norms of a basis vector over a step range."""
    space = _load(space, parse_space, space_from_json)
    weights = _load(weights, parse_weights, weights_from_json)
    op = ShiftOperator(side, weights, space)
    prefix, _, index = vector.partition(":")
    # a prefix other than 'e' fails as an empty index
    (j0,) = _ints("--vector", "e:<index> with an integer index", vector,
                  (index if prefix == "e" else "",))
    n_lo, n_hi = _parse_range("--n", n_range)
    k_lo, k_hi = _parse_range("--k", k_range)
    if k_lo < 1:
        raise InvalidSpecError(f"--k needs seminorm levels of at least 1, got {k_range!r}")
    ks = range(k_lo, k_hi + 1)
    rows = [[n] + [repr(log2_exact(basis_orbit_norm(op, j0, n, k))) for k in ks]
            for n in range(n_lo, n_hi + 1)]
    header = ["n"] + [f"log2_norm_k{k}" for k in ks]
    if fmt == "csv":
        emit(out, csv_lines(header, (",".join(map(str, row)) for row in rows)))
        return
    config = {"space": space_to_json(space), "weights": weights.to_json(),
              "side": side, "vector": vector, "n": n_range, "k": k_range}
    payload = {"header": header, "rows": rows}
    emit(out, json_chunks(envelope("orbit", config, payload, not no_timestamp)))


def density(weights, vector, n_horizon, n0, tau_grid, k_grid, fmt, out, no_timestamp):
    """Per-step norms, running averages, and counting ratios for the witness
    orbits of the block construction."""
    from .blocks import BlockWeights
    from .density import density_rows, distributional_report
    build = _load(weights, parse_weights, weights_from_json)
    if not isinstance(build, BlockWeights):
        raise InvalidSpecError("density works on the synthesized block weights (blocks:<J>)")
    layout = build.layout
    n_horizon = layout.t_max if n_horizon is None else n_horizon
    if n_horizon < 1:
        raise InvalidSpecError(f"--n needs a horizon of at least 1, got {n_horizon}")
    if n_horizon > layout.t_max:
        raise InvalidSpecError(f"--n needs a horizon of at most the table reach {layout.t_max}, "
                               f"got {n_horizon}")
    if n0 is not None and not 1 <= n0 <= n_horizon:
        raise InvalidSpecError(f"--n0 needs 1 <= n0 <= the horizon {n_horizon}, got {n0}")
    taus = (_fractions("--tau-grid", tau_grid) if tau_grid
            else [Fraction(1, j + 1) for j in range(1, layout.j_max + 1)])
    kays = (_fractions("--k-grid", k_grid) if k_grid
            else [Fraction(j + 1) for j in range(1, layout.j_max + 1)])
    vec_name = "e-1-forward" if vector == "e:-1" else "e1-backward"
    if fmt == "json":
        report = distributional_report(build, vec_name, kays, taus, n_horizon, n0)
        config = {"weights": weights, "vector": vector, "n": n_horizon, "n0": n0}
        emit(out, json_chunks(envelope("density", config, report, not no_timestamp)))
        return

    header = (["n", "norm_log2", "running_average"]
              + [f"ratio_small({t})" for t in taus] + [f"ratio_large({K})" for K in kays])
    args, cut = (build, vec_name, n_horizon, taus, kays), n_horizon // 2
    # a forked worker makes the rows past the cut
    write_csv_forked(out, header, islice(density_rows(*args), cut), density_rows(*args, start=cut))


def props(out, no_timestamp):
    """Run the closure-law suite over the preset battery (exit 2 on failure)."""
    from .algebra import run_props_suite  # here, so that other commands do not compile it
    results = run_props_suite()
    emit(out, json_chunks(envelope("props", {}, results, not no_timestamp)))
    if not results["all_passed"]:
        raise AuditFailure("closure-law suite failed")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)  # no -h, no prefixes
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):  # an input error: argparse's status 2 is EXIT_AUDIT here
        raise InvalidSpecError(message)


def _joined(argv: list) -> list:
    """argv with `--option -value` written `--option=-value`: argparse reads a
    word that starts with '-' as an option, and no option here has one '-'."""
    out = []
    for word in argv:
        if out and out[-1].startswith("--") and word.startswith("-") and word[1:2] != "-":
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


@cache  # one parser per process, built by the first call to main
def _parser() -> _Parser:
    parser = _Parser(prog="shiftlab", description="Weighted shifts: certificates and audits.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(required=True)

    def command(name, fn):  # the options every command takes
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        sub.add_argument("--out", metavar="PATH", help="report file; default stdout")
        sub.add_argument("--no-timestamp", action="store_true")
        sub.set_defaults(command=fn)
        return sub.add_argument
    sides, formats, default = ("backward", "forward"), ("csv", "json"), "default %(default)s"
    option = command("check", check)
    option("--space", required=True, help="preset (lp_Z:2, s_Z, ...) or @file.json")
    option("--weights", required=True, help="constant:2, geometric:1:2, blocks:4, or @file.json")
    option("--criterion", default="ae", help=default, choices=("ae", "ape", "ape-inverse", "ue",
           "upe", "e", "mixing", "hierarchy", "wellposed"))
    option("--side", default="backward", choices=sides, help=default)
    option("--n-max", type=int, default=10_000, help="horizon for n; " + default)
    option("--window", type=int, default=1_000, help="index-window radius; " + default)
    option("--k-max", type=int, default=3, help="seminorm levels checked; " + default)
    option("--l-max", type=int, help="level search bound; default k_max+5")
    option("--m-grid", help="comma-separated ascending thresholds")
    option("--basis-window", type=int, default=50, help="basis diagnostic radius; " + default)
    option = command("synthesize", synthesize)
    option("--blocks", dest="j_max", type=int, default=4, choices=range(1, 6), help=default)
    option("--t-range", type=int, default=8, help="shift range for the witness audit; " + default)
    option("--weights-out", metavar="PATH", help="also write the weight table (weight-spec JSON)")
    option = command("orbit", orbit)
    option("--space", required=True)
    option("--weights", required=True)
    option("--side", default="forward", choices=sides, help=default)
    option("--vector", default="e:0", help="basis vector, e:<index>; " + default)
    option("--n", dest="n_range", metavar="LO:HI", default="-50:50", help="step range; " + default)
    option("--k", dest="k_range", metavar="LO:HI", default="1:3", help="level range; " + default)
    option("--format", dest="fmt", default="csv", choices=formats, help=default)
    option = command("density", density)
    option("--weights", default="blocks:4", help="blocks:<J> or @file.json; " + default)
    option("--vector", default="e:-1", choices=("e:-1", "e:1"), help=default)
    option("--n", dest="n_horizon", metavar="N", type=int, help="horizon; default the table reach")
    option("--n0", type=int, help="density base N0 of the JSON report; default horizon/10")
    option("--tau-grid", help="comma-separated small thresholds, e.g. 1/2,1/3")
    option("--k-grid", help="comma-separated large thresholds, e.g. 2,3,4")
    option("--format", dest="fmt", default="csv", choices=formats, help=default)
    command("props", props)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = vars(_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv)))
        except SystemExit as exc:  # --help and --version print, then exit 0; flushed here
            sys.stdout.flush()  # as a report is, so that a closed pipe is handled below
            return exc.code
        args.pop("command")(**args)
        return EXIT_OK
    except BrokenPipeError:  # a closed output pipe; what stdout still holds is dropped, so
        sys.stdout = io.StringIO()  # the exit flush cannot fail (Python's status 120)
        return EXIT_USAGE
    except AuditFailure as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except (InvalidSpecError, SearchCapExceeded, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # interrupted (Ctrl-C)
        sys.stderr.write("\nAborted!\n")
        return EXIT_USAGE
    except Exception:  # escaped every handler above: a defect, not an input error
        sys.stderr.write(f"internal error:\n{traceback.format_exc()}")
        return EXIT_INTERNAL


def run() -> None:
    """Console entry: run main() on sys.argv, flush stdout and stderr, and end
    the process with os._exit, skipping interpreter teardown.

    Before main, OPENBLAS_NUM_THREADS defaults to 1 (a value already set is
    kept): importing numpy otherwise starts an OpenBLAS thread pool, which
    costs start-up time and which no command uses, since the package calls
    no BLAS routine; and no CLI command may start a thread, because the
    density CSV forks.  main and library imports leave the setting alone.

    Skipping teardown loses nothing: every report leaves through reporting,
    closed or flushed before main returns, and nothing in the package
    registers atexit or logging handlers (a buffered sink added later must be
    flushed here).  If a flush fails (stdout closed after main's last write,
    say), the process exits through sys.exit, as it would without this entry.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
