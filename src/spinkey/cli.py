"""Command-line surface: seeded, reproducible runs emitting CSV or JSON.

Every command writes a metadata header (command, version, seed, and a
config hash of every parsed argument that is not about output) followed by
tabular data; identical invocations produce byte-identical output, whatever
the output path. Subcommands: run, scan, bisect, baselines, servo, rabi.
"""

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import os
import shutil
import sys

import numpy as np

from . import __version__, baselines, field_servo, ion_sim, protocols
from ._checks import check_int, check_real

# The parsed names of the flags that name a file a table is written to. main
# refuses two roles for one file; the header and config hash leave them out.
_FILE_ARGS = ("out", "allan_out")
_FILE_FLAGS = tuple("--" + name.replace("_", "-") for name in _FILE_ARGS)

# Parsed names that say only where or how a table is written (func is the
# dispatch target), so they stay out of the config hash.
_OUTPUT_ARGS = frozenset(_FILE_ARGS + ("format", "gnuplot", "func"))


def _config_hash(args):
    """Hash of every parsed argument except those in _OUTPUT_ARGS."""
    params = {k: v for k, v in vars(args).items() if k not in _OUTPUT_ARGS}
    payload = json.dumps(params, sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()[:12]


def _strip_io_flags(argv):
    """Drop output-destination flags so metadata describes the computation."""
    kept = []
    tokens = iter(argv)
    for token in tokens:
        if token in _FILE_FLAGS:
            next(tokens, None)  # the path
        elif token != "--gnuplot" and token.split("=", 1)[0] not in _FILE_FLAGS:
            kept.append(token)
    return kept


def _check_destinations(args):
    """Refuse --gnuplot without --out, and one file named for two roles.

    The roles are the --seq-file input, each file flag in _FILE_ARGS and
    the <out>.gp script of --gnuplot. Paths are resolved only when at least
    two are named.
    """
    if args.gnuplot and not args.out:
        raise ValueError("--gnuplot writes its script next to --out; give --out too")
    roles = [("--seq-file", getattr(args, "seq_file", None))]
    roles += [(flag, getattr(args, name, None)) for name, flag in zip(_FILE_ARGS, _FILE_FLAGS)]
    if args.gnuplot:
        roles.append(("the --gnuplot script next to --out", args.out + ".gp"))
    named = [(role, path) for role, path in roles if path]
    if len(named) < 2:
        return
    seen = {}
    for role, path in named:
        first = seen.setdefault(os.path.realpath(path), role)
        if first != role:
            raise ValueError(f"{first} and {role} both name {path!r}; give each its own file")


# json.dumps runs its pure-Python encoder whenever indent is set, so the rows
# go through this C encoder instead. Its item separator is the newline and
# indent json.dumps(..., indent=2) puts before each value of a row.
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "), default=float)


def _json_text(meta, columns, rows):
    """json.dumps({"meta", "columns", "rows"}, indent=2, default=float) + "\\n".

    rows is a list of non-empty rows of scalars. The encoded rows are
    re-indented at each row boundary "],\\n      [", which only a row boundary
    can produce: a JSON string holds no raw newline.
    """
    head = json.dumps({"meta": meta, "columns": list(columns)}, indent=2, default=float)
    body = "[]"
    if rows:
        inner = _ROWS_ENCODER.encode(rows)[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
        body = "[\n    [\n      " + inner + "\n    ]\n  ]"
    return head[:-2] + ',\n  "rows": ' + body + "\n}\n"


def _csv_text(meta, columns, rows):
    """The CSV table: "# key: value" lines, the column line, then the rows.

    Each row is one line of its values, joined by commas; rows all have the
    same length. One % format writes them all: "%.17g" for a column of
    floats, which is format(x, ".17g") for every float, and "%s", which is
    str, for any other column. No table has a column that mixes floats with
    other values.
    """
    lines = [f"# {k}: {v}" for k, v in meta.items()]
    lines.append(",".join(columns))
    width = len(rows[0]) if rows else 0
    values = list(itertools.chain.from_iterable(rows))
    specs = ["%.17g" if all(issubclass(kind, float) for kind in set(map(type, values[i::width])))
             else "%s" for i in range(width)]
    return "\n".join(lines) + "\n" + ((",".join(specs) + "\n") * len(rows)) % tuple(values)


def _emit(args, meta, columns, rows, dest="out"):
    """Write a table to the file args.<dest> names, or to stdout if it names none.

    For dest "out" with --gnuplot, also write the script <out>.gp plotting
    every column against the first.
    """
    text = (_json_text if args.format == "json" else _csv_text)(meta, columns, rows)
    path = getattr(args, dest)
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)
    if dest == "out" and args.gnuplot:
        # gnuplot writes a quote inside a single-quoted string as two quotes.
        data = path.replace("'", "''")
        plots = ", ".join(f"'{data}' using 1:{i + 2} with lines title '{c}'"
                          for i, c in enumerate(columns[1:]))
        with open(path + ".gp", "w", newline="") as fh:
            fh.write(f"set datafile separator ','\nset xlabel '{columns[0]}'\nplot {plots}\n")


class _Default(str):
    """A flag's default text, told apart from the same text given on the command line."""


def _load_sequence(args):
    if args.seq_file:
        if not isinstance(args.seq, _Default):
            raise ValueError("--seq and --seq-file both name a sequence; give one of them")
        try:
            with open(args.seq_file) as fh:
                text = fh.read()
            return protocols.PulseSequence.from_json(text)
        except json.JSONDecodeError as err:
            raise RuntimeError(
                f"cannot parse sequence file {args.seq_file}: {err.msg} "
                f"at line {err.lineno}, column {err.colno}"
            ) from err
    builders = {
        "psk3": protocols.psk3_sequence,
        "ask3": protocols.ask3_sequence,
        "ask3-exact": lambda: protocols.ask3_sequence(exact=True),
    }
    if args.seq not in builders:
        raise RuntimeError(f"unknown sequence {args.seq!r}; expected one of {sorted(builders)}")
    return builders[args.seq]()


def _from_flags(model, args):
    """model with each field whose flag parsed to a value other than None set to it.

    A field's flag is the parsed argument of the same name. A field with no
    flag, or whose flag was not given and has no default, keeps its value.
    """
    given = {field.name: getattr(args, field.name, None) for field in dataclasses.fields(model)}
    return dataclasses.replace(model, **{k: v for k, v in given.items() if v is not None})


def _add_common(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--gnuplot", action="store_true",
                   help="also write a companion gnuplot script next to --out")
    p.add_argument("--seed", type=int, default=0)


def _add_noise(p):
    # The noise channels, in order: each is one --flag with the field's default.
    for field in dataclasses.fields(ion_sim.NoiseModel):
        p.add_argument("--" + field.name.replace("_", "-"), type=float, default=field.default)


def _add_seq(p):
    # The default hashes as "psk3", but _load_sequence can tell it from a given --seq.
    p.add_argument("--seq", default=_Default("psk3"), help="psk3, ask3, or ask3-exact")
    p.add_argument("--seq-file", help="JSON pulse sequence file")


def _cmd_run(args, meta):
    seq = _load_sequence(args)
    result = ion_sim.run(seq, args.oracle, _from_flags(ion_sim.IDEAL, args),
                         seed=args.seed if args.sample else None)
    rows = [(label, float(p)) for label, p in
            zip(("state0", "state1", "state2", "leakage"), result.probabilities)]
    if args.sample:
        meta["sampled_outcome"] = result.outcome
    _emit(args, meta, ("state", "probability"), rows)


def _cmd_scan(args, meta):
    seq = _load_sequence(args)
    noise = _from_flags(ion_sim.IDEAL, args)
    if args.points < 1:
        raise RuntimeError("scan needs at least one grid point")
    # A flag the chosen kind never reads is refused unless it keeps its default.
    if args.dim == 2 and args.kind != "angle":
        raise ValueError(f"scan {args.kind} reads no --dim; only scan angle does")
    if args.dim == 2 and noise != ion_sim.IDEAL:
        raise ValueError("--dim 2 runs the noiseless two-level reduction of an angle scan; "
                         "drop --dim or the noise flags")
    if args.check_period and (args.kind != "angle" or seq.encoding != protocols.PSK):
        raise ValueError("--check-period needs an angle scan of a phase-keyed sequence")
    if args.oracle != 0 and args.kind != "time":
        raise ValueError(f"scan {args.kind} reads no --oracle; only scan time does")
    if args.kind == "detuning" and noise.detuning_hz != 0.0:
        raise ValueError("scan detuning reads no --detuning-hz; its grid sets the detuning")
    if args.kind == "time" and (args.start, args.stop) != (0.0, 2.0 * np.pi):
        raise ValueError("scan time reads no --start or --stop; its grid spans the sequence")
    if args.kind != "time":
        check_real("--start", args.start)
        check_real("--stop", args.stop)
    if args.kind == "angle":
        grid = np.linspace(args.start, args.stop, args.points)
        if args.check_period:
            # The grid and its shift by pi run as one batch.
            both = ion_sim.angle_scan(seq, np.concatenate([grid, grid + np.pi]), noise=noise,
                                      dim=args.dim)
            table, shifted = both[:args.points], both[args.points:]
            meta["pi_period_max_dev"] = float(np.max(np.abs(table[:, 1:] - shifted[:, 1:])))
        else:
            table = ion_sim.angle_scan(seq, grid, noise=noise, dim=args.dim)
        columns = ("angle_rad", "p_state0", "p_state1", "p_state2")
    elif args.kind == "detuning":
        grid = np.linspace(args.start, args.stop, args.points)
        table = ion_sim.detuning_scan(seq, grid, noise=noise)
        columns = ("detuning_hz", "min_accuracy")
    else:
        table = ion_sim.time_series(seq, args.oracle, args.points, noise=noise)
        columns = ("time_s", "p_state0", "p_state1", "p_state2")
    _emit(args, meta, columns, table.tolist())


# bisect --verify runs the hidden indices in blocks of this many, so its
# memory stays bounded at any n. It refuses n above _VERIFY_MAX_N, which
# takes about a minute (notes/decisions.md).
_VERIFY_BLOCK = 1 << 16
_VERIFY_MAX_N = 1 << 27


def _cmd_bisect(args, meta):
    proto = protocols.bisection_protocol(args.n)
    rows = [(s.stage, s.subset_size, s.qsp_degree, float(s.offset)) for s in proto.stages]
    meta["total_queries"] = proto.total_queries
    if args.verify:
        if proto.n > _VERIFY_MAX_N:
            raise ValueError(f"--verify simulates every hidden index, so it takes n <= 2**"
                             f"{_VERIFY_MAX_N.bit_length() - 1} ({_VERIFY_MAX_N}), got {proto.n}")
        perfect = True
        for start in range(0, proto.n, _VERIFY_BLOCK):
            hidden = np.arange(start, min(start + _VERIFY_BLOCK, proto.n))
            identified, _, worst = protocols.run_bisection(proto, hidden)
            perfect = perfect and bool((identified == hidden).all() and worst.max() < 1e-8)
        meta["perfect"] = "true" if perfect else "false"
    _emit(args, meta, ("stage", "subset_size", "qsp_degree", "offset_rad"), rows)
    if args.verify:
        print(f"queries={proto.total_queries}, perfect={meta['perfect']}")


def _cmd_baselines(args, meta):
    report = baselines.advantage_report(args.accuracy)
    rows = [(r["strategy"], float(r["success_probability"]),
             "" if r["beaten"] is None else str(r["beaten"]).lower())
            for r in report]
    _emit(args, meta, ("strategy", "success_probability", "beaten"), rows)


def _cmd_servo(args, meta):
    drift, servo = (_from_flags(cls.lab() if args.preset == "lab" else cls(), args)
                    for cls in (field_servo.DriftModel, field_servo.ServoConfig))
    trace = field_servo.simulate_servo(drift, servo, args.duration, seed=args.seed)
    rows = np.column_stack([trace.t, trace.true_freq_hz, trace.applied_freq_hz,
                            trace.residual_hz]).tolist()
    _emit(args, meta, ("t_s", "true_freq_hz", "applied_freq_hz", "residual_hz"), rows)
    if args.allan_out:
        y = trace.true_freq_hz / drift.carrier_hz
        taus = [float(m) for m in (1, 2, 5, 10, 20, 50, 100, 200) if 2 * m <= len(y)]
        sigma = field_servo.allan_deviation(y, taus, dt=servo.period_s)
        _emit(args, meta, ("tau_s", "sigma_y"), list(zip(taus, map(float, sigma))),
              dest="allan_out")


def _cmd_rabi(args, meta):
    if args.points < 1:
        raise ValueError(f"rabi --points must be >= 1, got {args.points}")
    times = np.linspace(0.0, check_real("--t-max", args.t_max, 0.0), args.points)
    t, pops = ion_sim.rabi_curve(times, args.start_level)
    columns = ("time_s",) + tuple(f"p_m{m}" for m in ("+5/2", "+3/2", "+1/2", "-1/2", "-3/2", "-5/2"))
    _emit(args, meta, columns, np.column_stack([t, pops]).tolist())


def _run_args(p):
    _add_seq(p)
    p.add_argument("--oracle", type=int, required=True, help="hidden candidate index")
    p.add_argument("--sample", action="store_true", help="also draw one readout outcome")
    _add_noise(p)


def _scan_args(p):
    p.add_argument("kind", choices=("angle", "detuning", "time"))
    _add_seq(p)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=2.0 * np.pi)
    p.add_argument("--oracle", type=int, default=0, help="oracle index for time scans")
    p.add_argument("--dim", type=int, choices=(2, 6), default=6)
    p.add_argument("--check-period", action="store_true",
                   help="report the pi-periodicity deviation of a phase-keyed scan")
    _add_noise(p)


def _bisect_args(p):
    p.add_argument("--n", type=int, required=True, help="candidate count (power of two)")
    p.add_argument("--verify", action="store_true",
                   help="simulate every hidden index and print a summary line")


def _baselines_args(p):
    p.add_argument("--accuracy", type=float, required=True,
                   help="measured accuracy to compare against")


def _servo_args(p):
    p.add_argument("--preset", choices=("lab", "custom"), default="lab")
    p.add_argument("--duration", type=float, default=600.0)
    # Each flag given overrides one field of the --preset's drift or servo model.
    p.add_argument("--white-sigma1", type=float)
    p.add_argument("--rw-sigma10", type=float)
    p.add_argument("--miscal-hz", type=float, dest="miscalibration_hz", metavar="MISCAL_HZ")
    p.add_argument("--shots", type=int)
    p.add_argument("--allan-out", help="also write an Allan-deviation table here")


def _rabi_args(p):
    p.add_argument("--start-level", type=int, default=4,
                   help="initial sublevel index, 0 (m=+5/2) to 5 (m=-5/2)")
    p.add_argument("--t-max", type=float, default=220e-6)
    p.add_argument("--points", type=int, default=221)


# Each command, in help order: its help line, the function that adds its own
# arguments (_add_common follows them), and its handler.
_COMMANDS = {
    "run": ("run one discrimination sequence", _run_args, _cmd_run),
    "scan": ("sweep an angle, detuning, or time grid", _scan_args, _cmd_scan),
    "bisect": ("build and verify a halving protocol", _bisect_args, _cmd_bisect),
    "baselines": ("tabulate incoherent strategies", _baselines_args, _cmd_baselines),
    "servo": ("simulate the frequency feed-forward loop", _servo_args, _cmd_servo),
    "rabi": ("six-level Rabi oscillation curve", _rabi_args, _cmd_rabi),
}


def _width_formatter():
    """argparse's help formatter at the width it would take, looked up once.

    argparse makes a help formatter for every argument added and every
    parse, and each one it makes by default looks up the terminal width.
    Every parser of one main call shares the formatter made here.
    """
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def _add_command(p, name):
    """p, given command name's own arguments, the common flags and its handler."""
    _, add_args, func = _COMMANDS[name]
    add_args(p)
    _add_common(p)
    p.set_defaults(func=func)
    return p


def _every_command(argv, formatter):
    """build_parser(argv), its help formatted by formatter."""
    parser = argparse.ArgumentParser(
        prog="spinkey",
        description="Simulate keyed-rotation channel discrimination on a single ion.",
        allow_abbrev=False,
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((token for token in argv if not token.startswith("-")), None)
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False, formatter_class=formatter)
        if name == command:
            _add_command(p, name)
    return parser


def build_parser(argv):
    """The spinkey parser with every command, for parsing argv.

    The root takes -h and --version and lists every command, so its help,
    invalid-choice error, missing-command error and usage line name them
    all. Only the command named by argv's first token that does not start
    with "-" gets its arguments and handler: the root takes only -h and
    --version, neither of which takes a value, so that token is the
    command. Parse the same argv.
    """
    return _every_command(argv, _width_formatter())


def _parse_args(argv):
    """The namespace build_parser(argv).parse_args(argv) gives, or its exit.

    When argv[0] names a command, the root parser would only hand argv[1:]
    to that command's subparser, so that parser is built alone, as
    add_parser makes it, and parses argv[1:]. Only if it leaves arguments
    over is the parser with every command built, to re-parse argv and
    report them under the root usage line.
    """
    formatter = _width_formatter()
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog="spinkey " + argv[0], allow_abbrev=False,
                                         formatter_class=formatter)
        args, extras = _add_command(parser, argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return _every_command(argv, formatter).parse_args(argv)


def main(argv=None):
    """Run the command argv names (default: sys.argv[1:]) and return its exit status.

    A command argv builds one parser, that command's; root-level argv and
    arguments the command leaves over build every command's (_parse_args).
    Usage errors and help exit through argparse; a ValueError, RuntimeError,
    OSError or MemoryError prints one error: line and returns 1.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse_args(argv)
    meta = {"command": "spinkey " + " ".join(_strip_io_flags(argv)),
            "version": __version__, "seed": args.seed, "config": _config_hash(args)}
    try:
        _check_destinations(args)
        check_int("--seed", args.seed, minimum=0)
        if args.seed and args.command != "servo" and not getattr(args, "sample", False):
            raise ValueError(f"{args.command} makes no random draw, so it reads no --seed; "
                             "only servo and run --sample do")
        args.func(args, meta)
        return 0
    except (ValueError, RuntimeError, OSError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
