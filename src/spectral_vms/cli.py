"""Command-line front end.

Subcommands: offline (generate a kernel table), solve (run one method),
compare (run a preset's method set and report errors), convergence
(test1 refinement studies), table-info (inspect a table file).
Exit codes: 0 success, 2 argument/validation error, 3 numerical failure.
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import analysis, table as table_mod
from .analysis import (FLOAT_FMT, PRESETS, convergence_order,
                       mesh_independence_study, run_experiment, run_method,
                       shared_test1_runs, test1_bc, time_convergence_study,
                       write_report_csv, write_solutions_csv)
from .mesh_fem import (DirichletBC, SingularSystemError, TimeGrid,
                       build_uniform_mesh, check_positive)
from .vms_feasible import DirectKernelProvider, TableKernelProvider


class ValidationError(Exception):
    pass


def _config_value(action, key, value):
    """value, the config file's entry under key, converted and checked as
    the argument of action's flag is; raises ValidationError naming
    key."""
    items = value if action.nargs == "*" and isinstance(value, list) \
        else [value]
    checked = []
    for item in items:
        if item is None or isinstance(item, (list, dict)):
            raise ValidationError("config key %r: %s needs one value, not %s"
                                  % (key, action.option_strings[0],
                                     json.dumps(item)))
        try:
            item = (action.type or str)(str(item))
        except ValueError:
            raise ValidationError("config key %r: invalid %s value %r"
                                  % (key, action.type.__name__, item)) \
                from None
        if action.choices is not None and item not in action.choices:
            raise ValidationError(
                "config key %r: %r is not one of %s"
                % (key, item, ", ".join(map(str, action.choices))))
        checked.append(item)
    return checked if action.nargs == "*" else checked[0]


def _load_config_defaults(path, parser, command):
    """Apply the JSON object in `path` as parser defaults (flags still
    win); every key must be an option of some subcommand, and the values
    of command's options pass their flags' checks."""
    if not path:
        raise ValidationError("--config needs a file name")
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    keys = {k.replace("-", "_"): k for k in data}
    known = {a.dest for sub in parser.sub_map.values() for a in sub._actions}
    unknown = [key for dest, key in keys.items() if dest not in known]
    if unknown:
        raise ValidationError("config key %r: no subcommand has it"
                              % unknown[0])
    defaults = {dest: data[k] for dest, k in keys.items()}
    for action in parser.sub_map[command]._actions:
        if action.dest in defaults and action.option_strings:
            defaults[action.dest] = _config_value(
                action, keys[action.dest], defaults[action.dest])
    parser.set_defaults(**defaults)
    for sub in parser.sub_map.values():
        sub.set_defaults(**defaults)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spectral-vms",
        description="Spectral multiscale solvers for 1D transient "
                    "advection-diffusion")
    sub = parser.add_subparsers(dest="command", required=True)

    off = sub.add_parser("offline", help="generate a kernel table")
    off.add_argument("--delta", type=float, default=0.02)
    off.add_argument("--m", type=int, default=1000)
    off.add_argument("--workers", type=int, default=1)
    off.add_argument("--out")

    sol = sub.add_parser("solve", help="run one method")
    sol.add_argument("--method", choices=analysis.METHODS)
    sol.add_argument("--a", type=float, default=1.0)
    sol.add_argument("--mu", type=float, default=1.0)
    sol.add_argument("--h", type=float, default=0.02)
    sol.add_argument("--dt", type=float, default=1e-3)
    sol.add_argument("--steps", type=int)
    sol.add_argument("--t-final", type=float)
    sol.add_argument("--ic", choices=("hat", "exp", "file"), default="hat")
    sol.add_argument("--ic-file")
    sol.add_argument("--bc", choices=("homogeneous", "test1"),
                     default="homogeneous")
    sol.add_argument("--modes", type=int, default=150)
    sol.add_argument("--provider", choices=("direct", "table"),
                     default="direct")
    sol.add_argument("--table")
    sol.add_argument("--out")

    cmp_ = sub.add_parser("compare", help="run a preset's method set")
    cmp_.add_argument("--preset", choices=sorted(PRESETS))
    cmp_.add_argument("--methods", nargs="*")
    cmp_.add_argument("--provider", choices=("direct", "table"),
                      default="direct")
    cmp_.add_argument("--table")
    cmp_.add_argument("--refine", type=int, default=64)
    cmp_.add_argument("--out",
                      help="output directory (report.csv, solutions.csv)")

    conv = sub.add_parser("convergence", help="test1 refinement studies")
    conv.add_argument("--out",
                      help="output directory (dt_study.csv, h_study.csv)")

    info = sub.add_parser("table-info", help="inspect a table file")
    info.add_argument("--table")
    parser.sub_map = {"offline": off, "solve": sol, "compare": cmp_,
                      "convergence": conv, "table-info": info}
    for sub_parser in parser.sub_map.values():
        # a bare --config binds "" so that it is reported, not ignored
        sub_parser.add_argument("--config", nargs="?", const="",
                                help="JSON file of option defaults")
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser():
    """The parser of every call in the process: building one costs about
    1.2 ms.  Parsing leaves it as it is; nothing may set its defaults."""
    return build_parser()


def _require(args, *names):
    """Post-parse required check so --config can supply any key."""
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ValidationError("missing required option --%s" % name)


def _make_ic(args, mesh):
    if args.ic == "hat":
        return analysis.hat_profile
    if args.ic == "exp":
        return np.exp
    if not args.ic_file:
        raise ValidationError("--ic file requires --ic-file")
    vals = np.loadtxt(args.ic_file, ndmin=1)
    if vals.size != mesh.n_nodes:
        raise ValidationError(
            "ic file has %d values for %d nodes" % (vals.size, mesh.n_nodes))
    return lambda x: np.interp(x, mesh.nodes, vals)


def _make_provider(args):
    if args.provider == "table":
        if not args.table:
            raise ValidationError("--provider table requires --table")
        return TableKernelProvider(table_mod.load_table(args.table))
    return DirectKernelProvider()


def cmd_offline(args):
    _require(args, "out")
    grid = table_mod.TableGrid(delta=args.delta, m=args.m)
    table = table_mod.generate_table(grid, workers=args.workers)
    table_mod.save_table(table, args.out)
    print("wrote %s (delta=%g, m=%d, %d families)"
          % (args.out, grid.delta, grid.m, len(table.families())))
    return 0


def cmd_solve(args):
    _require(args, "method", "out")
    if (args.steps is None) == (args.t_final is None):
        raise ValidationError("give exactly one of --steps or --t-final")
    if args.h <= 0 or args.h >= 1:
        raise ValidationError("--h must lie in (0, 1)")
    n_elems = int(round(1.0 / args.h))
    if abs(n_elems * args.h - 1.0) > 1e-9:
        raise ValidationError("--h must divide the unit interval")
    mesh = build_uniform_mesh(0.0, 1.0, n_elems)
    if args.steps is not None:
        tgrid = TimeGrid.from_dt(args.dt, args.steps)
    else:
        t_final = check_positive("t_final", args.t_final)
        dt = check_positive("dt", args.dt)
        steps = t_final / dt
        if not (math.isfinite(steps)
                and abs(round(steps) * dt - t_final) <= 1e-9 * t_final):
            raise ValidationError("--t-final must be a multiple of --dt")
        tgrid = TimeGrid(t_final, round(steps))
    bc = test1_bc(args.a, args.mu) if args.bc == "test1" \
        else DirichletBC.homogeneous()
    provider = _make_provider(args) if args.method == "spectral-feasible" \
        else None
    hist = run_method(args.method, mesh, tgrid, args.a, args.mu,
                      initial=_make_ic(args, mesh), bc=bc,
                      n_modes=args.modes, provider=provider)
    write_solutions_csv(args.out, mesh, tgrid, {args.method: hist})
    print("wrote %s (%d steps, %d nodes)" % (args.out, tgrid.n_steps,
                                             mesh.n_nodes))
    return 0


def cmd_compare(args):
    _require(args, "preset", "out")
    preset = PRESETS[args.preset]
    results, reference = run_experiment(preset, methods=args.methods,
                                        provider=_make_provider(args),
                                        refine=args.refine)
    os.makedirs(args.out, exist_ok=True)
    report = os.path.join(args.out, "report.csv")
    write_report_csv(report, results)
    histories = {m: results[m]["history"] for m in results}
    histories["reference"] = reference
    write_solutions_csv(os.path.join(args.out, "solutions.csv"),
                        preset.mesh(), preset.tgrid(), histories)
    for method in results:
        rep = results[method]["errors"]
        print("%-18s linf_l2=%.6e l2_h1=%.6e" % (method, rep.linf_l2,
                                                 rep.l2_h1))
    print("wrote %s" % report)
    return 0


def cmd_convergence(args):
    _require(args, "out")
    os.makedirs(args.out, exist_ok=True)
    # the dt study's finest-mesh run is also a row of the h study
    with shared_test1_runs():
        dt_rows = time_convergence_study()
        h_rows = mesh_independence_study()
    for step, rows in (("dt", dt_rows), ("h", h_rows)):
        columns = [step, "linf_l2", "l2_h1"]
        with open(os.path.join(args.out, "%s_study.csv" % step), "w",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([FLOAT_FMT % row[c] for c in columns])
    dts = [r["dt"] for r in dt_rows]
    slope_h1 = convergence_order([r["l2_h1"] for r in dt_rows], dts)
    slope_l2 = convergence_order([r["linf_l2"] for r in dt_rows], dts)
    hs = [r["linf_l2"] for r in h_rows]
    print("dt study: l2_h1 slope %.3f, linf_l2 slope %.3f" % (slope_h1,
                                                              slope_l2))
    print("h study: linf_l2 spread %.3g%%"
          % (100.0 * (max(hs) - min(hs)) / max(hs)))
    print("wrote %s" % args.out)
    return 0


def cmd_table_info(args):
    _require(args, "table")
    table = table_mod.load_table(args.table)
    print("delta = %g" % table.grid.delta)
    print("m = %d (P, S up to %g)" % (table.grid.m, table.grid.p_max))
    print("families: %s" % ", ".join(table.families()))
    return 0


_COMMANDS = {"offline": cmd_offline, "solve": cmd_solve,
             "compare": cmd_compare, "convergence": cmd_convergence,
             "table-info": cmd_table_info}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _shared_parser().parse_args(argv)
        if args.config is not None:
            # the config's values become defaults of this call's parser
            # alone
            parser = build_parser()
            _load_config_defaults(args.config, parser, args.command)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValidationError, ValueError, OSError,
            table_mod.TableFormatError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (SingularSystemError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
