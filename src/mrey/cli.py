"""Command-line front end.

Subcommands: table, spectrum, wavefunction, figures, recover-params, verify.
Configuration is layered: built-in defaults, then an optional config file
(flat ``key = value`` lines), then command-line flags.  Output files are
written deterministically (fixed field order, 17 significant digits, LF
line endings, no timestamps), so identical configs produce byte-identical
files.  ``verify`` runs on fixed inputs and takes no options.

Exit codes: 0 success, 2 invalid config or parameters, 3 numerical or IO
failure, 64 usage error.  ``verify`` exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DomainError, MreyError
from .potential import PhysicalConstants, PotentialParams, spectral_coefficients
from .recovery import fit_couplings
from .spectrum import energy, lambda_max, spectrum_table
from .thermo import thermo_curve
from .wavefunction import build_wave

# Canonical screening values for the table command when none are requested.
_TABLE_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _convert_float(key, raw, where):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} expects a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: key {key!r} must be finite, got {raw!r}")
    return value


def _convert_int(key, raw, where):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} expects an integer, got {raw!r}")


def _convert_grid(key, raw, where):
    """Comma list, or lin:start:stop:num / log:start:stop:num shorthand."""
    if raw.startswith(("lin:", "log:")):
        parts = raw.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"{where}: key {key!r} shorthand needs kind:start:stop:num, got {raw!r}"
            )
        start = _convert_float(key, parts[1], where)
        stop = _convert_float(key, parts[2], where)
        num = _convert_int(key, parts[3], where)
        if num < 1:
            raise ConfigError(f"{where}: key {key!r} needs at least one point")
        if parts[0] == "lin":
            values = np.linspace(start, stop, num)
        else:
            if start <= 0.0 or stop <= 0.0:
                raise ConfigError(f"{where}: key {key!r} log grid needs positive endpoints")
            values = np.geomspace(start, stop, num)
        grid = tuple(float(v) for v in values)
    else:
        items = [piece.strip() for piece in raw.split(",") if piece.strip()]
        if not items:
            raise ConfigError(f"{where}: key {key!r} expects a non-empty grid")
        grid = tuple(_convert_float(key, item, where) for item in items)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{where}: key {key!r} must be strictly increasing")
    return grid


def _convert_optional_float(key, raw, where):
    return None if raw.lower() in ("none", "") else _convert_float(key, raw, where)


def _convert_format(key, raw, where):
    if raw.lower() not in ("csv", "json"):
        raise ConfigError(f"{where}: key 'format' must be csv or json, got {raw!r}")
    return raw.lower()


# Every configuration key: its built-in default (golden-file tests depend on
# these) and the parser of its config-file value.  Flags of the same name
# override both.
_KEYS = {
    "hbar": (1.0, _convert_float),
    "mu": (1.0, _convert_float),
    "k": (1.0, _convert_float),
    "a1": (0.0, _convert_float),
    "a2": (0.0, _convert_float),
    "a3": (1.0, _convert_float),
    "alpha": (0.5, _convert_float),
    "n_max": (5, _convert_int),
    "l_max": (3, _convert_int),
    "beta_grid": (tuple(np.geomspace(0.1, 100.0, 20)), _convert_grid),
    "lambda_grid": (tuple(np.linspace(1.0, 100.0, 34)), _convert_grid),
    "lambda_fixed": (None, _convert_optional_float),
    "output_dir": ("out", lambda key, raw, where: raw),
    "format": ("csv", _convert_format),
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; comments start with #, blanks ignored."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}, column 1: expected 'key = value', got {stripped!r}"
            )
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        if not key:
            raise ConfigError(f"line {lineno}, column 1: missing key before '='")
        key_col = line.index(key) + 1
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}, column {key_col}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}, column {key_col}: duplicate key {key!r}")
        value_col = len(key_part) + 2 + (len(value_part) - len(value_part.lstrip()))
        where = f"line {lineno}, column {value_col}"
        values[key] = _KEYS[key][1](key, value_part.strip(), where)
    return values


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    return parse_config_text(text)


def build_config(file_values: dict, flag_values: dict) -> SimpleNamespace:
    """Layer defaults <- file <- flags (None flags skipped) and validate.

    The result has an attribute per key of _KEYS, plus ``constants``,
    ``potential`` and ``file_keys`` (the keys the config file set).
    """
    merged = {key: default for key, (default, _) in _KEYS.items()}
    merged.update(file_values)
    merged.update((key, value) for key, value in flag_values.items() if value is not None)
    if merged["n_max"] < 0 or merged["l_max"] < 0:
        raise ConfigError("n_max and l_max must be >= 0")
    if any(beta < 0.0 for beta in merged["beta_grid"]):
        raise ConfigError("beta_grid values must be >= 0")
    if any(lam <= 0.0 for lam in merged["lambda_grid"]):
        raise ConfigError("lambda_grid values must be > 0")
    return SimpleNamespace(
        **merged,
        constants=PhysicalConstants(
            hbar=merged["hbar"], mu=merged["mu"], k_boltzmann=merged["k"]
        ),
        potential=PotentialParams(
            a1=merged["a1"], a2=merged["a2"], a3=merged["a3"], alpha=merged["alpha"]
        ),
        file_keys=frozenset(file_values),
    )


def _json_field(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _csv_field(value) -> str:
    value = _json_field(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_text(path: str, body: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)
    print(path)
    return path


def write_output(cfg, stem: str, header, rows) -> str:
    """Write ``<output_dir>/<stem>.<format>`` and print its path.

    CSV has 17 significant digits and LF endings; JSON has the same fields.
    """
    if cfg.format == "csv":
        lines = [header] + [[_csv_field(v) for v in row] for row in rows]
        body = "".join(",".join(line) + "\n" for line in lines)
    else:
        payload = {
            "fields": list(header),
            "rows": [
                {name: _json_field(v) for name, v in zip(header, row)} for row in rows
            ],
        }
        body = json.dumps(payload, indent=2) + "\n"
    os.makedirs(cfg.output_dir, exist_ok=True)
    return _write_text(os.path.join(cfg.output_dir, f"{stem}.{cfg.format}"), body)


def _write_levels(cfg, params: PotentialParams, stem: str, wide: bool = False) -> None:
    """Write the spectrum for the whole (n, l) range; any failed channel is fatal.

    Long layout: one (n, l, E, valid) row per level.  Wide layout
    (``<stem>_wide``): one row per n with an energy column per l.
    """
    table = spectrum_table(params, cfg.constants, cfg.n_max, cfg.l_max)
    if table.errors:
        l, message = sorted(table.errors.items())[0]
        raise DomainError(f"channel l = {l} has no spectrum: {message}")
    rows = sorted(table.rows, key=lambda row: (row.n, row.l))
    if not wide:
        write_output(cfg, stem, ["n", "l", "E", "valid"],
                     [(r.n, r.l, r.energy, r.valid_bound_state) for r in rows])
        return
    by_key = {(r.n, r.l): r.energy for r in rows}
    ls = range(cfg.l_max + 1)
    write_output(cfg, f"{stem}_wide", ["n"] + [f"E_l{l}" for l in ls],
                 [[n] + [by_key[n, l] for l in ls] for n in range(cfg.n_max + 1)])


def cmd_table(cfg, args) -> int:
    if args.alphas:
        alphas = args.alphas
    elif "alpha" in cfg.file_keys:
        alphas = (cfg.potential.alpha,)
    else:
        alphas = _TABLE_ALPHAS
    named = {}
    for alpha in dict.fromkeys(alphas):  # each distinct alpha once, in request order
        other = named.setdefault(f"{alpha:g}", alpha)
        if other != alpha:
            raise ConfigError(f"alphas {other!r} and {alpha!r} would share the file name "
                              f"table_alpha{alpha:g}: they agree to 6 significant digits")
    for alpha in named.values():
        _write_levels(cfg, replace(cfg.potential, alpha=alpha), f"table_alpha{alpha:g}",
                      args.wide)
    return 0


def cmd_spectrum(cfg, args) -> int:
    if (args.n is None) != (args.l is None):
        raise _UsageError("spectrum needs both --n and --l, or neither")
    if args.n is None:
        _write_levels(cfg, cfg.potential, "spectrum")
        return 0
    level = energy(cfg.potential, cfg.constants, args.n, args.l)
    if level.valid_bound_state:
        status = "valid"
    elif level.marginal:
        status = "marginal"
    else:
        status = "invalid"
    print(f"E = {level.energy:.12g}, {status}")
    return 0


def cmd_wavefunction(cfg, args) -> int:
    n = args.n if args.n is not None else 0
    l = args.l if args.l is not None else 0
    level = energy(cfg.potential, cfg.constants, n, l)
    wave = build_wave(cfg.potential, cfg.constants, level)
    r_max = args.r_max if args.r_max is not None else wave.r_tail
    points = args.points if args.points is not None else 1001
    if points < 2:
        raise ConfigError("wavefunction needs at least 2 points")
    if not (math.isfinite(r_max) and r_max > 0.0):
        raise ConfigError(f"r_max must be positive and finite, got {r_max!r}")
    grid = np.linspace(r_max / points, r_max, points)
    write_output(cfg, f"wavefunction_n{n}_l{l}", ["r", "psi"], list(zip(grid, wave.psi(grid))))
    return 0


def _sweep_grid(args, name: str, grid: tuple, spacing) -> tuple:
    """The grid of one figures sweep (``name`` is beta or lambda).

    The config grid, unless a --<name>-min/-max/-points flag is given: then
    ``spacing(min, max, points)``, each missing flag taken from the config
    grid's ends and length.
    """
    flags = [getattr(args, f"{name}_{end}") for end in ("min", "max", "points")]
    if flags == [None, None, None]:
        return grid
    lo, hi, num = (given if given is not None else default
                   for given, default in zip(flags, (grid[0], grid[-1], len(grid))))
    if lo <= 0.0 or hi <= lo or num < 2:
        raise ConfigError(f"{name} sweep needs 0 < {name}-min < {name}-max and >= 2 points")
    return tuple(float(v) for v in spacing(lo, hi, num))


_FIGURE_QUANTITIES = ("z", "u", "s", "c", "f")
_THERMO_HEADER = ["beta", "lambda", "Z", "U", "S", "F", "C"]


def cmd_figures(cfg, args) -> int:
    beta_grid = _sweep_grid(args, "beta", cfg.beta_grid, np.geomspace)
    lambda_grid = _sweep_grid(args, "lambda", cfg.lambda_grid, np.linspace)
    coeffs = spectral_coefficients(cfg.potential, cfg.constants, l=0)
    if cfg.lambda_fixed is not None:
        lam_fixed = cfg.lambda_fixed
    else:
        lam_fixed = lambda_max(coeffs)
        if lam_fixed <= 0.0:
            raise DomainError(
                "the default potential window is empty (lambda_max = 0); "
                "set lambda_fixed explicitly"
            )
    k = cfg.constants.k_boltzmann
    curves = (
        thermo_curve(coeffs, "beta", beta_grid, fixed_lambda=lam_fixed, k=k),
        thermo_curve(coeffs, "lambda", lambda_grid, fixed_beta=beta_grid[0], k=k),
    )
    files = []
    for first, curve in zip((1, 6), curves):
        size = len(curve.grid)
        betas = curve.grid if curve.sweep == "beta" else [curve.fixed_beta] * size
        lams = curve.grid if curve.sweep == "lambda" else [curve.fixed_lambda] * size
        rows = list(zip(betas, lams, curve.z, curve.u, curve.s, curve.f, curve.c))
        for index, quantity in enumerate(_FIGURE_QUANTITIES, start=first):
            stem = f"fig{index:02d}_{quantity}_vs_{curve.sweep}"
            files.append(os.path.basename(write_output(cfg, stem, _THERMO_HEADER, rows)))

    sidecar = {
        "constants": {
            "hbar": cfg.constants.hbar,
            "mu": cfg.constants.mu,
            "k": cfg.constants.k_boltzmann,
        },
        "potential": {
            "a1": cfg.potential.a1,
            "a2": cfg.potential.a2,
            "a3": cfg.potential.a3,
            "alpha": cfg.potential.alpha,
        },
        "l": 0,
        "beta_grid": list(beta_grid),
        "lambda_grid": list(lambda_grid),
        "lambda_fixed": lam_fixed,
        "lambda_sweep_beta": beta_grid[0],
        "format": cfg.format,
        "files": files,
    }
    _write_text(os.path.join(cfg.output_dir, "figures_config.json"),
                json.dumps(sidecar, indent=2) + "\n")
    return 0


def _read_table_csv(path: str):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["n", "l", "E"]:
                raise ConfigError(
                    f"{path}: expected header 'n,l,E', got {header!r}"
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise ConfigError(f"{path}, line {lineno}: expected 3 fields")
                try:
                    rows.append((int(row[0]), int(row[1]), float(row[2])))
                except ValueError as exc:
                    raise ConfigError(f"{path}, line {lineno}: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read table {path!r}: {exc}")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def cmd_recover(cfg, args) -> int:
    rows = _read_table_csv(args.input)
    report = fit_couplings(rows, cfg.potential.alpha, cfg.constants)
    p = report.params
    print(f"fitted couplings: a1 = {p.a1:.12g}, a2 = {p.a2:.12g}, a3 = {p.a3:.12g} "
          f"(alpha = {report.alpha:g})")
    print(f"identifiable combinations: x1+x2 = {report.x1_plus_x2:.12g}, "
          f"x2-x3 = {report.x2_minus_x3:.12g}")
    print(f"rms residual = {report.rms:.6g}, max |residual| = "
          f"{report.max_abs_residual:.6g}")
    print(f"verdict: {report.verdict}")
    write_output(
        cfg, "recovery", ["n", "l", "E", "E_fit", "residual"],
        [
            (row.n, row.l, row.energy, fit, res)
            for row, fit, res in zip(report.rows, report.fitted, report.residuals)
        ],
    )
    return 0


def cmd_verify(cfg, args) -> int:
    from .verification import run_all

    results = run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = (
    ("table", cmd_table, "energy tables over screening values"),
    ("spectrum", cmd_spectrum, "single level or full range"),
    ("wavefunction", cmd_wavefunction, "(r, psi) dump for one level"),
    ("figures", cmd_figures, "all ten thermodynamic curve files"),
    ("recover-params", cmd_recover, "fit couplings to an energy table"),
    ("verify", cmd_verify, "run the acceptance checks"),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="mrey", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    commands = {}
    for name, func, help_text in _COMMANDS:
        commands[name] = command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        if name == "verify":
            continue
        command.add_argument("--config", help="path to a key = value config file")
        command.add_argument("--output-dir")
        command.add_argument("--format", choices=("csv", "json"))
        for key in ("hbar", "mu", "k", "a1", "a2", "a3"):
            command.add_argument(f"--{key}", type=float)
        if name == "table":  # one table per repeated value
            command.add_argument("--alpha", type=float, action="append", dest="alphas",
                                 metavar="ALPHA",
                                 help="screening value; repeat for several tables")
        else:
            command.add_argument("--alpha", type=float)
        if name in ("spectrum", "wavefunction"):
            command.add_argument("--n", type=int)
            command.add_argument("--l", type=int)
        if name in ("table", "spectrum"):
            command.add_argument("--n-max", type=int)
            command.add_argument("--l-max", type=int)

    commands["table"].add_argument("--wide", action="store_true",
                                   help="one row per n with an energy column per l")
    commands["wavefunction"].add_argument("--r-max", type=float)
    commands["wavefunction"].add_argument("--points", type=int)
    for name in ("beta", "lambda"):
        for end, kind in (("min", float), ("max", float), ("points", int)):
            commands["figures"].add_argument(f"--{name}-{end}", type=kind)
    commands["figures"].add_argument("--lambda-fixed", type=float)
    commands["recover-params"].add_argument("--input", required=True,
                                            help="CSV with header n,l,E")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("mrey: error: a subcommand is required", file=sys.stderr)
        return 64
    try:
        # verify has no flags: it gets the defaults and ignores them
        config = getattr(args, "config", None)
        flags = {key: getattr(args, key, None) for key in _KEYS}
        cfg = build_config(load_config(config) if config else {}, flags)
        return args.func(cfg, args)
    except _UsageError as exc:
        print(f"mrey: error: {exc}", file=sys.stderr)
        return 64
    except (ConfigError, DomainError) as exc:
        print(f"mrey: error: {exc}", file=sys.stderr)
        return 2
    except (MreyError, OSError) as exc:
        print(f"mrey: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
