"""Command-line front end.

Subcommands: table, spectrum, wavefunction, figures, recover-params, verify.
Configuration is layered: built-in defaults, then an optional config file
(flat ``key = value`` lines), then command-line flags.  Output files are
written deterministically (fixed field order, 17 significant digits, LF
line endings, no timestamps), so identical configs produce byte-identical
files.

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
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError, MreyError, NumericalError
from .potential import PhysicalConstants, PotentialParams, spectral_coefficients
from .recovery import fit_couplings
from .spectrum import energy, lambda_max, spectrum_table
from .thermo import thermo_curve
from .wavefunction import build_wave

# Stable defaults; golden-file tests depend on these.
_DEFAULTS = {
    "hbar": 1.0,
    "mu": 1.0,
    "k": 1.0,
    "a1": 0.0,
    "a2": 0.0,
    "a3": 1.0,
    "alpha": 0.5,
    "n_max": 5,
    "l_max": 3,
    "beta_grid": tuple(np.geomspace(0.1, 100.0, 20)),
    "lambda_grid": tuple(np.linspace(1.0, 100.0, 34)),
    "lambda_fixed": None,
    "output_dir": "out",
    "format": "csv",
}

# Canonical screening values for the table command when none are requested.
_TABLE_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    constants: PhysicalConstants
    potential: PotentialParams
    n_max: int
    l_max: int
    beta_grid: tuple
    lambda_grid: tuple
    lambda_fixed: float | None
    output_dir: str
    format: str
    file_keys: frozenset = frozenset()  # keys the config file set explicitly


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
    raw = raw.strip()
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


def _convert_value(key, raw, where):
    if key in ("hbar", "mu", "k", "a1", "a2", "a3", "alpha"):
        return _convert_float(key, raw, where)
    if key in ("n_max", "l_max"):
        return _convert_int(key, raw, where)
    if key in ("beta_grid", "lambda_grid"):
        return _convert_grid(key, raw, where)
    if key == "lambda_fixed":
        if raw.strip().lower() in ("none", ""):
            return None
        return _convert_float(key, raw, where)
    if key == "output_dir":
        return raw.strip()
    if key == "format":
        fmt = raw.strip().lower()
        if fmt not in ("csv", "json"):
            raise ConfigError(f"{where}: key 'format' must be csv or json, got {raw!r}")
        return fmt
    raise ConfigError(f"{where}: unknown key {key!r}")


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
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}, column {key_col}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}, column {key_col}: duplicate key {key!r}")
        value_col = len(key_part) + 2 + (len(value_part) - len(value_part.lstrip()))
        where = f"line {lineno}, column {value_col}"
        values[key] = _convert_value(key, value_part.strip(), where)
    return values


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}")
    return parse_config_text(text)


def build_config(file_values: dict, flag_values: dict) -> RunConfig:
    """Layer defaults <- file <- flags and validate the result."""
    merged = dict(_DEFAULTS)
    merged.update(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    if merged["n_max"] < 0 or merged["l_max"] < 0:
        raise ConfigError("n_max and l_max must be >= 0")
    for beta in merged["beta_grid"]:
        if beta < 0.0:
            raise ConfigError("beta_grid values must be >= 0")
    for lam in merged["lambda_grid"]:
        if lam <= 0.0:
            raise ConfigError("lambda_grid values must be > 0")
    return RunConfig(
        constants=PhysicalConstants(
            hbar=merged["hbar"], mu=merged["mu"], k_boltzmann=merged["k"]
        ),
        potential=PotentialParams(
            a1=merged["a1"], a2=merged["a2"], a3=merged["a3"], alpha=merged["alpha"]
        ),
        n_max=merged["n_max"],
        l_max=merged["l_max"],
        beta_grid=tuple(merged["beta_grid"]),
        lambda_grid=tuple(merged["lambda_grid"]),
        lambda_fixed=merged["lambda_fixed"],
        output_dir=merged["output_dir"],
        format=merged["format"],
        file_keys=frozenset(file_values),
    )


def _format_field(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _json_field(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def write_output(header, rows, fmt: str, path: str) -> None:
    """CSV (17 significant digits, LF endings) or JSON with the same fields."""
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_format_field(v) for v in row))
        body = "\n".join(lines) + "\n"
    else:
        payload = {
            "fields": list(header),
            "rows": [
                {name: _json_field(v) for name, v in zip(header, row)} for row in rows
            ],
        }
        body = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(body)


def _out_path(cfg: RunConfig, stem: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    ext = ".csv" if cfg.format == "csv" else ".json"
    return os.path.join(cfg.output_dir, stem + ext)


def _full_table(cfg: RunConfig, params: PotentialParams):
    """Spectrum rows for the whole (n, l) range; any failed channel is fatal."""
    table = spectrum_table(params, cfg.constants, cfg.n_max, cfg.l_max)
    if table.errors:
        l, message = sorted(table.errors.items())[0]
        raise DomainError(f"channel l = {l} has no spectrum: {message}")
    return sorted(table.rows, key=lambda row: (row.n, row.l))


def cmd_table(cfg: RunConfig, args) -> int:
    if args.alpha:
        alphas = tuple(args.alpha)
    elif "alpha" in cfg.file_keys:
        alphas = (cfg.potential.alpha,)
    else:
        alphas = _TABLE_ALPHAS
    for alpha in alphas:
        params = replace(cfg.potential, alpha=alpha)
        rows = _full_table(cfg, params)
        tag = format(alpha, "g")
        if args.wide:
            header = ["n"] + [f"E_l{l}" for l in range(cfg.l_max + 1)]
            by_key = {(r.n, r.l): r.energy for r in rows}
            out_rows = [
                [n] + [by_key[(n, l)] for l in range(cfg.l_max + 1)]
                for n in range(cfg.n_max + 1)
            ]
            path = _out_path(cfg, f"table_alpha{tag}_wide")
        else:
            header = ["n", "l", "E", "valid"]
            out_rows = [(r.n, r.l, r.energy, r.valid_bound_state) for r in rows]
            path = _out_path(cfg, f"table_alpha{tag}")
        write_output(header, out_rows, cfg.format, path)
        print(path)
    return 0


def cmd_spectrum(cfg: RunConfig, args) -> int:
    if (args.n is None) != (args.l is None):
        raise _UsageError("spectrum needs both --n and --l, or neither")
    if args.n is not None:
        level = energy(cfg.potential, cfg.constants, args.n, args.l)
        if level.valid_bound_state:
            status = "valid"
        elif level.marginal:
            status = "marginal"
        else:
            status = "invalid"
        print(f"E = {level.energy:.12g}, {status}")
        return 0
    rows = _full_table(cfg, cfg.potential)
    path = _out_path(cfg, "spectrum")
    write_output(
        ["n", "l", "E", "valid"],
        [(r.n, r.l, r.energy, r.valid_bound_state) for r in rows],
        cfg.format,
        path,
    )
    print(path)
    return 0


def cmd_wavefunction(cfg: RunConfig, args) -> int:
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
    psi = wave.psi(grid)
    path = _out_path(cfg, f"wavefunction_n{n}_l{l}")
    write_output(["r", "psi"], list(zip(grid, psi)), cfg.format, path)
    print(path)
    return 0


def _figures_grids(cfg: RunConfig, args):
    beta_flags = (args.beta_min, args.beta_max, args.beta_points)
    if any(v is not None for v in beta_flags):
        bmin = args.beta_min if args.beta_min is not None else cfg.beta_grid[0]
        bmax = args.beta_max if args.beta_max is not None else cfg.beta_grid[-1]
        bnum = args.beta_points if args.beta_points is not None else len(cfg.beta_grid)
        if bmin <= 0.0 or bmax <= bmin or bnum < 2:
            raise ConfigError("beta sweep needs 0 < beta-min < beta-max and >= 2 points")
        beta_grid = tuple(float(v) for v in np.geomspace(bmin, bmax, bnum))
    else:
        beta_grid = cfg.beta_grid
    lam_flags = (args.lambda_min, args.lambda_max, args.lambda_points)
    if any(v is not None for v in lam_flags):
        lmin = args.lambda_min if args.lambda_min is not None else cfg.lambda_grid[0]
        lmax = args.lambda_max if args.lambda_max is not None else cfg.lambda_grid[-1]
        lnum = args.lambda_points if args.lambda_points is not None else len(cfg.lambda_grid)
        if lmin <= 0.0 or lmax <= lmin or lnum < 2:
            raise ConfigError("lambda sweep needs 0 < lambda-min < lambda-max and >= 2 points")
        lambda_grid = tuple(float(v) for v in np.linspace(lmin, lmax, lnum))
    else:
        lambda_grid = cfg.lambda_grid
    return beta_grid, lambda_grid


_FIGURE_QUANTITIES = ("z", "u", "s", "c", "f")
_THERMO_HEADER = ["beta", "lambda", "Z", "U", "S", "F", "C"]


def cmd_figures(cfg: RunConfig, args) -> int:
    beta_grid, lambda_grid = _figures_grids(cfg, args)
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
    beta_curve = thermo_curve(
        coeffs, "beta", beta_grid, fixed_lambda=lam_fixed, k=k
    )
    lambda_curve = thermo_curve(
        coeffs, "lambda", lambda_grid, fixed_beta=beta_grid[0], k=k
    )

    def curve_rows(curve):
        rows = []
        for i, g in enumerate(curve.grid):
            beta = g if curve.sweep == "beta" else curve.fixed_beta
            lam = g if curve.sweep == "lambda" else curve.fixed_lambda
            rows.append(
                (beta, lam, curve.z[i], curve.u[i], curve.s[i], curve.f[i], curve.c[i])
            )
        return rows

    written = []
    for index, quantity in enumerate(_FIGURE_QUANTITIES, start=1):
        path = _out_path(cfg, f"fig{index:02d}_{quantity}_vs_beta")
        write_output(_THERMO_HEADER, curve_rows(beta_curve), cfg.format, path)
        written.append(path)
    for index, quantity in enumerate(_FIGURE_QUANTITIES, start=6):
        path = _out_path(cfg, f"fig{index:02d}_{quantity}_vs_lambda")
        write_output(_THERMO_HEADER, curve_rows(lambda_curve), cfg.format, path)
        written.append(path)

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
        "files": [os.path.basename(p) for p in written],
    }
    sidecar_path = os.path.join(cfg.output_dir, "figures_config.json")
    with open(sidecar_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    written.append(sidecar_path)
    for path in written:
        print(path)
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


def cmd_recover(cfg: RunConfig, args) -> int:
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
    path = _out_path(cfg, "recovery")
    write_output(
        ["n", "l", "E", "E_fit", "residual"],
        [
            (row.n, row.l, row.energy, fit, res)
            for row, fit, res in zip(report.rows, report.fitted, report.residuals)
        ],
        cfg.format,
        path,
    )
    print(path)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    from .verification import run_all

    results = run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--format", choices=("csv", "json"))
    for name in ("hbar", "mu", "k", "a1", "a2", "a3"):
        parser.add_argument(f"--{name}", type=float, dest=name)


def build_parser() -> _Parser:
    parser = _Parser(prog="mrey", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_table = sub.add_parser("table", help="energy tables over screening values")
    _add_common(p_table)
    p_table.add_argument("--alpha", type=float, action="append",
                         help="screening value; repeat for several tables")
    p_table.add_argument("--n-max", type=int, dest="n_max")
    p_table.add_argument("--l-max", type=int, dest="l_max")
    p_table.add_argument("--wide", action="store_true",
                         help="one row per n with an energy column per l")
    p_table.set_defaults(func=cmd_table)

    p_spec = sub.add_parser("spectrum", help="single level or full range")
    _add_common(p_spec)
    p_spec.add_argument("--alpha", type=float)
    p_spec.add_argument("--n", type=int)
    p_spec.add_argument("--l", type=int)
    p_spec.add_argument("--n-max", type=int, dest="n_max")
    p_spec.add_argument("--l-max", type=int, dest="l_max")
    p_spec.set_defaults(func=cmd_spectrum)

    p_wave = sub.add_parser("wavefunction", help="(r, psi) dump for one level")
    _add_common(p_wave)
    p_wave.add_argument("--alpha", type=float)
    p_wave.add_argument("--n", type=int)
    p_wave.add_argument("--l", type=int)
    p_wave.add_argument("--r-max", type=float, dest="r_max")
    p_wave.add_argument("--points", type=int)
    p_wave.set_defaults(func=cmd_wavefunction)

    p_fig = sub.add_parser("figures", help="all ten thermodynamic curve files")
    _add_common(p_fig)
    p_fig.add_argument("--alpha", type=float)
    p_fig.add_argument("--beta-min", type=float, dest="beta_min")
    p_fig.add_argument("--beta-max", type=float, dest="beta_max")
    p_fig.add_argument("--beta-points", type=int, dest="beta_points")
    p_fig.add_argument("--lambda-min", type=float, dest="lambda_min")
    p_fig.add_argument("--lambda-max", type=float, dest="lambda_max")
    p_fig.add_argument("--lambda-points", type=int, dest="lambda_points")
    p_fig.add_argument("--lambda-fixed", type=float, dest="lambda_fixed")
    p_fig.set_defaults(func=cmd_figures)

    p_rec = sub.add_parser("recover-params", help="fit couplings to an energy table")
    _add_common(p_rec)
    p_rec.add_argument("--alpha", type=float)
    p_rec.add_argument("--input", required=True, help="CSV with header n,l,E")
    p_rec.set_defaults(func=cmd_recover)

    p_ver = sub.add_parser("verify", help="run the acceptance checks")
    _add_common(p_ver)
    p_ver.add_argument("--alpha", type=float)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        print("mrey: error: a subcommand is required", file=sys.stderr)
        return 64
    try:
        file_values = load_config(args.config) if args.config else {}
        flag_values = {}
        for key in _DEFAULTS:
            # grid keys have no flag, so getattr yields None for them
            value = getattr(args, key, None)
            if key == "alpha" and isinstance(value, list):
                # table collects repeated alphas itself
                value = None
            flag_values[key] = value
        cfg = build_config(file_values, flag_values)
        return args.func(cfg, args)
    except _UsageError as exc:
        print(f"mrey: error: {exc}", file=sys.stderr)
        return 64
    except (ConfigError, DomainError) as exc:
        print(f"mrey: error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, MreyError) as exc:
        print(f"mrey: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"mrey: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
