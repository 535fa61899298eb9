"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload session_eval --seed 1 --seconds 20 \
        --trace 0 [--record out.json]

Human-readable figures come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics with every instrument off.
``--trace 1`` runs the workload untraced and then all three workloads with
the program's opt-in instruments on, and reports the per-layer metrics plus
``trace.overhead.*`` (traced minus untraced value of each end-to-end
metric of ``--workload``).  The command exits non-zero when any output
check fails.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS to one thread before anything imports NumPy: the engine's own
# thread count is then the only parallelism, on every host.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "tests", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: The end-to-end metrics every workload reports, with their units.
E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s",
             "cpu_ms_per_op": "ms"}


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("session_eval", "serve_open_loop",
                                 "learn_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the full record (host fingerprint, "
                             "figures, metrics) to this JSON file")
    return parser.parse_args(argv)


def _stop_processes() -> None:
    """Stop every process this run started and wait for each to end: any
    worker a failed set-up left behind, then multiprocessing's resource
    tracker (started with the first shared-memory ring, it would otherwise
    outlive this process for a moment)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2

    import shutil
    import signal

    # A terminated run still unwinds, so its clean-up below stops workers.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    workdir = ROOT / ".perfbench_work"
    try:
        return _run(args, workdir)
    finally:
        _stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    import gc
    import json
    import time

    from perfbench.checks import CheckLog
    from perfbench.fingerprint import cpu_steal_ticks, host_fingerprint
    from perfbench.workloads import WORKLOADS

    # Scratch files (the learn journals) stay inside the checkout.
    workdir.mkdir(exist_ok=True)
    fingerprint = host_fingerprint()
    print("host " + json.dumps(fingerprint, sort_keys=True))
    # The benchmark process also hosts the serving coordinator; moving the
    # long-lived import-time objects out of the collector's scans keeps a
    # full collection from stalling the load generator for tens of ms.
    gc.collect()
    gc.freeze()
    log = CheckLog()
    started, steal = time.perf_counter(), cpu_steal_ticks()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, False, log,
                                       workdir)
    # Host interference: the share of this host's CPU time the hypervisor
    # gave to other guests while the workload ran.
    steal_share = (cpu_steal_ticks() - steal) / os.sysconf("SC_CLK_TCK") \
        / (time.perf_counter() - started) / (os.cpu_count() or 1)
    outcome.notes.append(f"cpu steal during the run: {steal_share:.1%}")
    outcome.print()
    e2e = {name: outcome.e2e[name] for name in E2E_UNITS}
    for name, unit in E2E_UNITS.items():
        print(f"  e2e {name:<24} {e2e[name]:.4f} {unit}")
    metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
               for name, value in e2e.items()}
    if args.trace:
        from perfbench.tracing import traced_layers

        metrics = traced_layers(args.workload, args.seed, args.seconds, e2e,
                                log, workdir)
    # Each check counts as one operation besides the timed ones.
    attempted = outcome.attempted + len(log.results)
    failed = outcome.failed + log.failures
    for line in log.lines():
        print(line)
    correct = failed == 0
    print(f"failed_share {failed / max(1, attempted):.6f} "
          f"({failed} of {attempted} operations)")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record is not None:
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      host=fingerprint, steal_share=steal_share,
                      figures=[list(figure) for figure in outcome.figures])
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
