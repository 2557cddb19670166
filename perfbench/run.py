"""Benchmark of the mrey library: one workload per run.

    python3 perfbench/run.py --workload thermo-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``; nothing needs installing).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run, whose spans are written to
``.perfbench_out/spans-<workload>-seed<n>.jsonl``.  Progress and every
failure go to standard error.

A measurement is a closed loop with one caller.  Its first pass runs whole
rounds of seeded ops for ``--seconds / PASSES``; those ops are the deck, and
``PASSES - 1`` more passes run the deck again, each on couplings moved by a
relative 1e-6 (the same cost, and no cache can answer a repeat).  Each op's
fastest pass counts.  The host is shared and its speed swings by up to 2x
over spells from a second to minutes, so every op also runs, right before or
after, on a frozen copy of the library (``reference/``): the end-to-end
``relative_throughput`` is the deck's time on the reference over its time on
``src/mrey``, which the host's swings hit alike.  Fixed ops run once after
the passes, untimed: they count in ``attempted`` and ``failed`` (and in the
traced run's per-layer numbers) but not in throughput.  Correctness checks
run last.  Set-up time is the median over fresh interpreters of the time
from start to the end of one untimed warm-up op on fixed inputs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import Tracer, busy_ms, failed as n_failed, p50_ms

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))
THREADS = str(min(2, os.cpu_count() or 1))
SETUP_REPEATS = 7
# passes over the same ops in one measurement; each op's fastest pass counts
PASSES = 5
IMPORT_REPEATS = 3

WORKLOAD_NAMES = ("thermo-sweep", "levels-waves")
CHECK_NAMES = (
    "oracle_equivalence", "form_equivalence", "special_cases", "coulomb_limit",
    "anchor", "table_diagnostics", "thermo_identities", "quadrature_routes",
    "wavefunctions", "figures", "trends",
)
QUIET = Tracer(False)
THERMO_CLASSES = {
    "lambda_small": ("lambda_small",),
    "lambda_medium": ("lambda_medium",),
    "lambda_large": ("lambda_large",),
    "beta_sweep_fixed_lambda": ("lambda_small", "lambda_medium", "lambda_large"),
    "lambda_sweep_fixed_beta": ("lambda_sweep",),
    "hard": ("hard",),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = THREADS
    return env


def make_workload(name, seed, tracer, lib=None):
    """The workload on src/mrey, or on ``lib`` when given."""
    import mrey
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, tracer, lib or mrey)


def setup_probe(args) -> int:
    """Fresh-interpreter body of one set-up measurement."""
    make_workload(args.workload, args.seed, Tracer(False)).warmup_op().run()
    return 0


def time_setup(args) -> float:
    """Median over fresh interpreters of the time from start to the end of
    the warm-up op."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, stdout=subprocess.DEVNULL, env=child_env(), timeout=120,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def time_imports() -> dict:
    out = {}
    for module in ("mrey", "numpy"):
        code = ("import time; t = time.perf_counter(); import " + module
                + "; print(time.perf_counter() - t)")
        samples = []
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=child_env(), timeout=120, check=True)
            samples.append(float(proc.stdout.strip()))
        out[module] = 1e3 * statistics.median(samples)
    return out


def load_reference():
    """The frozen copy of the library under reference/, as mrey_reference."""
    path = os.path.join(HERE, "reference")
    spec = importlib.util.spec_from_file_location(
        "mrey_reference", os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_op(op, tracer, op_id):
    tracer.op_id = op_id
    t0 = time.perf_counter()
    with tracer.span("bench.op", label=op.label):
        result = op.run()
    return op, result, time.perf_counter() - t0


def run_pair(op, twin, tracer, op_id, twin_first):
    """Run an op and, when there is one, its reference twin back to back in
    the order given; return both records (None for a missing twin)."""
    if twin is None:
        return run_op(op, tracer, op_id), None
    if twin_first:
        twin_record = run_op(twin, QUIET, None)
        return run_op(op, tracer, op_id), twin_record
    record = run_op(op, tracer, op_id)
    return record, run_op(twin, QUIET, None)


def measure(workload, tracer, seconds, reference=None):
    """The first pass runs whole rounds while another round of the same
    length still ends within seconds / PASSES; its ops are the deck.
    PASSES - 1 more passes run the deck again, pass j on couplings shifted
    j steps.  With a reference (the same workload on the frozen library),
    every op runs next to its twin, which goes first in every other slot.
    Returns, per op of the deck, its records (op, result, latency) in every
    pass, the same for its twin (empty without a reference), and the wall
    time."""
    deck, twins = [], []
    twin_rounds = reference.rounds() if reference else None
    start = time.perf_counter()
    for round_ops in workload.rounds():
        round_start = time.perf_counter()
        twin_ops = next(twin_rounds) if reference else [None] * len(round_ops)
        for op, twin in zip(round_ops, twin_ops):
            record, twin_record = run_pair(op, twin, tracer, len(deck), len(deck) % 2)
            deck.append([record])
            twins.append([twin_record] if twin_record else [])
        now = time.perf_counter()
        if now + (now - round_start) - start > seconds / PASSES:
            break
    for shift in range(1, PASSES):
        for i, (records, twin_records) in enumerate(zip(deck, twins)):
            twin = twin_records[0][0].again(shift) if twin_records else None
            record, twin_record = run_pair(records[0][0].again(shift), twin, tracer, i,
                                           (i + shift) % 2)
            records.append(record)
            if twin_record:
                twin_records.append(twin_record)
    return deck, twins, time.perf_counter() - start


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it (needs 20)."""
    n = len(latencies)
    if n < 20:
        return 0.0, 0.0
    ordered = sorted(latencies)
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_layer(tracer, workload, imports, untraced, overhead_pct, attempted, failed):
    from workloads import CLI_ROUND

    m = {}
    m["import.mrey_ms"] = (imports["mrey"], "ms")
    m["import.numpy_ms"] = (imports["numpy"], "ms")
    for kind in CLI_ROUND:
        m[f"cli.{kind}.p50_ms"] = (p50_ms(tracer.named(f"cli.{kind}")), "ms")

    curves = tracer.named("thermo.thermo_curve")
    m["thermo.thermo_curve.calls"] = (len(curves), "count")
    m["thermo.thermo_curve.points"] = (sum(s["attrs"]["points"] for s in curves), "count")
    m["thermo.thermo_curve.failed_points"] = (
        sum(s["attrs"].get("failed_points", 0) for s in curves), "count")
    m["thermo.thermo_curve.busy_ms"] = (busy_ms(curves), "ms")
    for cls, members in THERMO_CLASSES.items():
        chosen = [s for s in curves if s["attrs"]["cls"] in members]
        points = sum(s["attrs"]["points"] for s in chosen)
        m[f"thermo.ms_per_point.{cls}"] = (busy_ms(chosen) / points if points else 0.0, "ms")

    builds = tracer.named("wavefunction.build_wave")
    m["wavefunction.build_wave.calls"] = (len(builds), "count")
    m["wavefunction.build_wave.failed"] = (n_failed(builds), "count")
    m["wavefunction.build_wave.busy_ms"] = (busy_ms(builds), "ms")
    m["wavefunction.build_wave.p50_ms"] = (p50_ms(builds), "ms")
    m["wavefunction.build_wave.deep.busy_ms"] = (
        busy_ms([s for s in builds if s["attrs"]["deep"]]), "ms")
    nodes = tracer.named("wavefunction.count_nodes")
    m["wavefunction.count_nodes.busy_ms"] = (busy_ms(nodes), "ms")
    m["wavefunction.count_nodes.failed"] = (n_failed(nodes), "count")
    m["wavefunction.ode_residual.busy_ms"] = (busy_ms(tracer.named("wavefunction.ode_residual")), "ms")

    roots = tracer.named("nu.solve_bound_state")
    m["nu.solve_bound_state.calls"] = (len(roots), "count")
    m["nu.solve_bound_state.failed"] = (n_failed(roots), "count")
    m["nu.solve_bound_state.busy_ms"] = (busy_ms(roots), "ms")

    tables = tracer.named("spectrum.spectrum_table")
    rows = sum(s["attrs"].get("rows", 0) for s in tables)
    valid = sum(s["attrs"].get("valid", 0) for s in tables)
    m["spectrum.spectrum_table.calls"] = (len(tables), "count")
    m["spectrum.spectrum_table.busy_ms"] = (busy_ms(tables), "ms")
    m["spectrum.valid_ratio"] = (valid / rows if rows else 0.0, "1")
    m["potential.spectral_coefficients.busy_ms"] = (
        busy_ms(tracer.named("potential.spectral_coefficients")), "ms")

    fits = tracer.named("recovery.fit_couplings")
    m["recovery.fit_couplings.calls"] = (len(fits), "count")
    m["recovery.fit_couplings.busy_ms"] = (busy_ms(fits), "ms")
    m["recovery.fit_couplings.unconverged"] = (
        sum(1 for s in fits if s["attrs"].get("converged") is False), "count")
    m["recovery.fit_couplings.missed"] = (getattr(workload, "fit_misses", 0), "count")

    checks = tracer.named("verification.check")
    for name in CHECK_NAMES:
        m[f"verification.{name}.busy_ms"] = (
            busy_ms([s for s in checks if s["attrs"]["check"] == name]), "ms")
    m["verification.failed"] = (sum(1 for s in checks if s["attrs"].get("failed")), "count")

    tail_ms, tail_pct = tail(untraced)
    m["fail_ratio"] = (failed / attempted, "1")
    m["latency_p50_ms"] = (1e3 * statistics.median(untraced), "ms")
    m["latency_tail_ms"] = (1e3 * tail_ms, "ms")
    m["latency_tail_pct"] = (tail_pct, "%")
    m["latency_tail_samples"] = (len(untraced), "count")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


def check(workload, op, result, oracle=True):
    """(failed units, wrong values) of one op's result."""
    return op.check(result) if op.check else workload.check(op, result, oracle)


def run(args) -> dict:
    workdir = tempfile.mkdtemp(dir=OUT)
    tempfile.tempdir = workdir  # library temp files stay inside the checkout
    os.environ["TMPDIR"] = workdir
    try:
        setup_s = None if args.trace else time_setup(args)
        imports = time_imports() if args.trace else None

        tracer = Tracer(bool(args.trace))
        workload = make_workload(args.workload, args.seed, tracer)
        # the same workload on the frozen library, timed next to it (not in
        # a traced run, whose figures are per layer)
        reference = (None if args.trace else
                     make_workload(args.workload, args.seed, QUIET, load_reference()))
        tracer.enabled = False
        workload.warmup_op().run()
        if reference:
            reference.warmup_op().run()
        tracer.enabled = bool(args.trace)
        deck, twins, wall = measure(workload, tracer, args.seconds, reference)

        untraced, overhead_pct, still_failing = [], 0.0, 0
        fixed = workload.fixed_ops()
        if args.trace:
            # the first half of the deck once more with tracing off: its
            # latencies give the median and the tail, and the difference
            # from its last traced pass the tracing overhead
            tracer.enabled = False
            rerun = deck[:max(1, len(deck) // 2)]
            for records in rerun:
                op = records[0][0].again(PASSES)
                t0 = time.perf_counter()
                op.run()
                untraced.append(time.perf_counter() - t0)
            traced = sum(records[-1][2] for records in rerun)
            overhead_pct = 100.0 * (traced - sum(untraced)) / sum(untraced)
            tracer.enabled = True
            for op in workload.probes():
                _, result, _ = run_op(op, tracer, None)
                still_failing += check(workload, op, result)[0] > 0
            if args.workload == "levels-waves":
                # the CLI layer: one round of the six commands, which share
                # this workload's levels, waves and fit
                from workloads import cli_round

                fixed += cli_round(args.seed, tracer, workdir, child_env())

        records = [r for slot in deck for r in slot]
        timed = len(records)
        records += [run_op(op, tracer, len(deck) + i) for i, op in enumerate(fixed)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = sum(op.units for op, _, _ in records)
        failed, wrong = 0, []
        checks_start = time.perf_counter()
        for slot in deck:
            # every pass against the identities, the last also against the
            # independent references
            for j, (op, result, _) in enumerate(slot):
                op_failed, op_wrong = check(workload, op, result, oracle=j == PASSES - 1)
                failed += op_failed
                wrong += op_wrong
        for op, result, _ in records[timed:]:
            op_failed, op_wrong = check(workload, op, result)
            failed += op_failed
            wrong += op_wrong
        checks_s = time.perf_counter() - checks_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = sum(slot[0][0].units for slot in deck)
    best = sum(min(lat for _, _, lat in slot) for slot in deck)
    twin_best = sum(min(lat for _, _, lat in slot) for slot in twins if slot)
    print(f"{args.workload} seed {args.seed}: {len(deck)} ops x {PASSES} passes in "
          f"{wall:.2f} s, {len(records) - timed} fixed ops; {attempted} units attempted, "
          f"{failed} failed, {len(wrong)} wrong", file=sys.stderr)
    print("passes took " + ", ".join(f"{sum(slot[j][2] for slot in deck):.3f}"
                                      for j in range(PASSES))
          + f" s; the fastest of each op {best:.3f} s ({units / best:.4g} units/s)"
          + (f", of its reference twin {twin_best:.3f} s" if twin_best else "")
          + f"; checks took {checks_s:.1f} s", file=sys.stderr)
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)

    if args.trace:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans written to {path}", file=sys.stderr)
        metrics = per_layer(tracer, workload, imports, untraced, overhead_pct,
                            attempted, failed)
        metrics["throughput_ops_s"] = (units / best, "ops/s")
        metrics["throughput_wall_ops_s"] = (PASSES * units / wall, "ops/s")
        metrics["known_defects.failing"] = (still_failing, "count")
    else:
        metrics = {
            "relative_throughput": (twin_best / best, "x"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "mrey", "__init__.py")):
        print(f"perfbench: no mrey sources under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    os.environ.update(child_env())  # before numpy loads; children inherit it
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import compileall

    # byte-compile first, so that no set-up time includes the one-off
    # compile of a fresh checkout
    if not all(compileall.compile_dir(d, quiet=1) for d in (os.path.join(SRC, "mrey"), HERE)):
        print("perfbench: compiling the sources failed", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
