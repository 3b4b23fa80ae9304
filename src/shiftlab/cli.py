"""Command-line front end.

Subcommands: check, synthesize, orbit, density, props.  Exit codes:
0 completed, 1 usage/input error or interrupt, 2 math audit or property failure,
3 internal error (a defect; the traceback goes to stderr).
Outputs embed the resolved config and the library version; pass
--no-timestamp for byte-reproducible files.
"""

from __future__ import annotations

import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .reporting import RUNS, canonical_json, envelope, splice_runs, write_csv
from .scalars import SearchCapExceeded, log2_exact
from .shifts import ShiftOperator, basis_orbit_norm, parse_weights, weights_from_json, window_check
from .spaces import InvalidSpecError, parse_space, space_from_json, space_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_INTERNAL = 3


class AuditFailure(Exception):
    """A math audit or property suite reported violations."""


def _load_space(text: str):
    if text.startswith("@"):
        return space_from_json(json.loads(Path(text[1:]).read_text()))
    return parse_space(text)


def _load_weights(text: str):
    if text.startswith("@"):
        return weights_from_json(json.loads(Path(text[1:]).read_text()))
    return parse_weights(text)


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
    return _ints(option, "<lo>:<hi> or <n> with integers", text, (lo, hi or lo))


def _emit(out_path, text: str):
    if out_path:
        Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)


def _horizon(n_max, window, k_max, l_max, m_grid, basis_window) -> HorizonConfig:
    from .criteria import HorizonConfig  # the log lane: only check loads it
    grid = HorizonConfig.m_grid if m_grid is None else _ints(
        "--m-grid", "comma-separated integers like 1,2,4", m_grid, m_grid.split(","))
    return HorizonConfig(n_max=n_max, window=window, m_grid=grid, k_max=k_max, l_max=l_max,
                         basis_window=basis_window)


@click.group()
@click.version_option(__version__)
def cli():
    """Orbit-norm dynamics of weighted shifts: certificates and audits."""


@cli.command()
@click.option("--space", "space_text", required=True, help="preset (lp_Z:2, s_Z, ...) or @file.json")
@click.option("--weights", "weights_text", required=True,
              help="constant:2, geometric:1:2, blocks:4, or @file.json")
@click.option("--criterion", type=click.Choice(
    ["ae", "ape", "ape-inverse", "ue", "upe", "e", "mixing", "hierarchy", "wellposed"]),
    default="ae", show_default=True)
@click.option("--side", type=click.Choice(["backward", "forward"]), default="backward",
              show_default=True)
@click.option("--n-max", default=10_000, show_default=True, help="horizon for n")
@click.option("--window", default=1_000, show_default=True, help="index-window radius")
@click.option("--k-max", default=3, show_default=True, help="seminorm levels checked")
@click.option("--l-max", default=None, type=int, help="level search bound (default k_max+5)")
@click.option("--m-grid", default=None, help="comma-separated ascending thresholds")
@click.option("--basis-window", default=50, show_default=True,
              help="basis-index radius for the expansivity diagnostic")
@click.option("--out", default=None, type=click.Path())
@click.option("--no-timestamp", is_flag=True, default=False)
def check(space_text, weights_text, criterion, side, n_max, window, k_max, l_max,
          m_grid, basis_window, out, no_timestamp):
    """Run one criterion checker and emit its verdict report."""
    from .criteria import check_criterion
    space = _load_space(space_text)
    weights = _load_weights(weights_text)
    op = ShiftOperator(side, weights, space)
    cfg = _horizon(n_max, window, k_max, l_max, m_grid, basis_window)

    if criterion == "wellposed":
        payload = {key: [window_check(op, condition, k, cfg).to_json()
                         for k in range(1, cfg.k_max + 1)]
                   for key, condition in (("wellposed", "defined"), ("invertible", "invertible"))}
    else:
        payload = check_criterion(op, criterion, cfg).to_json()
        if criterion == "ue":
            payload["upe"] = payload["property"] == "a"

    config = {"space": space_to_json(space), "weights": weights.to_json(),
              "side": side, "criterion": criterion, "horizon": cfg.to_json()}
    _emit(out, canonical_json(envelope("check", config, payload, not no_timestamp)))
    if criterion == "hierarchy" and not payload["consistent"]:
        raise AuditFailure("hierarchy audit inconsistent")


@cli.command()
@click.option("--blocks", "j_max", default=4, show_default=True, type=click.IntRange(1, 5),
              help="blocks to construct")
@click.option("--t-range", default=8, show_default=True, help="shift range for the witness audit")
@click.option("--out", default=None, type=click.Path())
@click.option("--weights-out", default=None, type=click.Path(),
              help="also write the weight table as a weight-spec JSON file")
@click.option("--no-timestamp", is_flag=True, default=False)
def synthesize(j_max, t_range, out, weights_out, no_timestamp):
    """Build the block weight sequence and audit every inequality exactly."""
    from .blocks import build_blocks, hypercyclicity_witness, verify_inequalities
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
    _emit(out, splice_runs(
        canonical_json(envelope("synthesize", config, payload, not no_timestamp)), build.runs))
    if weights_out:
        Path(weights_out).write_text(splice_runs(
            canonical_json(build.to_json() | {"table_window": RUNS}), build.runs))
    if not payload["all_passed"]:
        raise AuditFailure("block construction audit failed")


@cli.command()
@click.option("--space", "space_text", required=True)
@click.option("--weights", "weights_text", required=True)
@click.option("--side", type=click.Choice(["backward", "forward"]), default="forward",
              show_default=True)
@click.option("--vector", default="e:0", show_default=True, help="basis vector, e:<index>")
@click.option("--n", "n_range", default="-50:50", show_default=True, help="orbit step range lo:hi")
@click.option("--k", "k_range", default="1:3", show_default=True, help="seminorm level range lo:hi")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.option("--no-timestamp", is_flag=True, default=False)
def orbit(space_text, weights_text, side, vector, n_range, k_range, fmt, out, no_timestamp):
    """Tabulate log2 orbit norms of a basis vector over a step range."""
    space = _load_space(space_text)
    weights = _load_weights(weights_text)
    op = ShiftOperator(side, weights, space)
    prefix, _, index = vector.partition(":")
    # a prefix other than 'e' fails as an empty index
    (j0,) = _ints("--vector", "e:<index> with an integer index", vector,
                  (index if prefix == "e" else "",))
    n_lo, n_hi = _parse_range("--n", n_range)
    k_lo, k_hi = _parse_range("--k", k_range)
    ks = range(k_lo, k_hi + 1)
    rows = [[n] + [repr(log2_exact(basis_orbit_norm(op, j0, n, k))) for k in ks]
            for n in range(n_lo, n_hi + 1)]
    header = ["n"] + [f"log2_norm_k{k}" for k in ks]
    if fmt == "csv":
        write_csv(out, header, (",".join(map(str, row)) for row in rows))
        return
    config = {"space": space_to_json(space), "weights": weights.to_json(),
              "side": side, "vector": vector, "n": n_range, "k": k_range}
    payload = {"header": header, "rows": rows}
    _emit(out, canonical_json(envelope("orbit", config, payload, not no_timestamp)))


@cli.command()
@click.option("--weights", "weights_text", default="blocks:4", show_default=True,
              help="blocks:<J> or @file.json (needs a finite table)")
@click.option("--vector", type=click.Choice(["e:-1", "e:1"]), default="e:-1", show_default=True)
@click.option("--n", "n_horizon", default=None, type=int, help="horizon (default: table reach)")
@click.option("--n0", default=None, type=int, help="density base N0 (default horizon/10)")
@click.option("--tau-grid", default=None, help="comma-separated small thresholds, e.g. 1/2,1/3")
@click.option("--k-grid", default=None, help="comma-separated large thresholds, e.g. 2,3,4")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.option("--no-timestamp", is_flag=True, default=False)
def density(weights_text, vector, n_horizon, n0, tau_grid, k_grid, fmt, out, no_timestamp):
    """Per-step norms, running averages, and counting ratios for the witness
    orbits of the block construction."""
    from .blocks import BlockWeights
    from .density import density_rows, distributional_report
    build = _load_weights(weights_text)
    if not isinstance(build, BlockWeights):
        raise InvalidSpecError("density works on the synthesized block weights (blocks:<J>)")
    layout = build.layout
    n_horizon = layout.t_max if n_horizon is None else n_horizon
    taus = (_fractions("--tau-grid", tau_grid) if tau_grid
            else [Fraction(1, j + 1) for j in range(1, layout.j_max + 1)])
    kays = (_fractions("--k-grid", k_grid) if k_grid
            else [Fraction(j + 1) for j in range(1, layout.j_max + 1)])
    vec_name = "e-1-forward" if vector == "e:-1" else "e1-backward"
    if fmt == "json":
        report = distributional_report(build, vec_name, kays, taus, n_horizon, n0)
        config = {"weights": weights_text, "vector": vector, "n": n_horizon, "n0": n0}
        _emit(out, canonical_json(envelope("density", config, report, not no_timestamp)))
        return

    header = (["n", "norm_log2", "running_average"]
              + [f"ratio_small({t})" for t in taus] + [f"ratio_large({K})" for K in kays])
    write_csv(out, header, density_rows(build, vec_name, n_horizon, taus, kays))


@cli.command()
@click.option("--out", default=None, type=click.Path())
@click.option("--no-timestamp", is_flag=True, default=False)
def props(out, no_timestamp):
    """Run the closure-law suite over the preset battery (exit 2 on failure)."""
    from .algebra import run_props_suite  # here, so that other commands do not compile it
    results = run_props_suite()
    _emit(out, canonical_json(envelope("props", {}, results, not no_timestamp)))
    if not results["all_passed"]:
        raise AuditFailure("closure-law suite failed")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except AuditFailure as exc:
        click.echo(f"audit failure: {exc}", err=True)
        return EXIT_AUDIT
    except (click.UsageError, click.BadParameter) as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except (InvalidSpecError, SearchCapExceeded, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except click.exceptions.Exit as exc:  # --help / --version
        return exc.exit_code
    except click.Abort:  # interrupted (Ctrl-C); click's own message and status
        click.echo("Aborted!", err=True)
        return EXIT_USAGE
    except Exception:  # escaped every handler above: a defect, not an input error
        click.echo(f"internal error:\n{traceback.format_exc()}", err=True, nl=False)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
