"""End-to-end benchmark of the FedKNOW reproduction, with a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fedknow-10task --seed 0 --seconds 20 --trace 0

One run repeats the workload, built from ``--seed``, for about ``--seconds``
seconds (at least once), checks every repetition's outputs and prints the
medians.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics listed in ``BENCHMARK.json``:
  ``run_norm_s``, the median wall time of ``trainer.run()`` (or
  ``simulator.run()``) rescaled to a reference host speed (see
  ``SpeedProbe``); ``setup_s``, the median time from a fresh interpreter to
  a constructed trainer or simulator; ``peak_rss_mb`` of this process (the
  coordinator); ``ok_frac``, the share of repetitions without an exception,
  a failed output check or a client update lost to a dead worker; and
  ``throughput_norm``, training samples or simulator events per rescaled
  second;
* ``--trace 1``: untraced and traced repetitions alternate, and the metrics
  are the per-layer ones: time and counts per layer from spans recorded
  around each layer's public functions (``perfbench/tracing.py``), the
  share of traced ``run_s`` the trainer phases (or the simulator loop)
  cover, and the tracing overhead, traced over untraced ``run_s``.  The
  spans of the last traced repetition are written under ``.perfbench/``.

Every process, including the socket engine's workers, runs with one BLAS
thread: on a 2-CPU host the default pool oversubscribes the cores (three
processes x two threads on ``fedavg-64c-socket``) and widens the run-to-run
spread.  ``perfbench/layers.json`` says which end-to-end metric each
per-layer metric should move on which workload.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7

#: Host-speed probe: a fixed pure-Python loop timed every PROBE_INTERVAL
#: seconds on the main thread while a repetition runs.  On the 2-CPU
#: (Xeon, 2.1 GHz) host this benchmark was tuned on, each CPU flips between
#: two speed states about 1.37x apart, every few seconds and for Python and
#: BLAS code alike, so raw wall times of identical runs spread by 15-27%
#: across runs.  Dividing a repetition's wall time by the probe's mean time
#: over that repetition, relative to PROBE_REF_S, rescales it to one
#: reference speed.  The raw wall times are printed as well.
PROBE_INTERVAL = 0.02
PROBE_LOOP = 1000
PROBE_REF_S = 40e-6


def unit_of(metric: str) -> str:
    """Per-layer metric units follow from the name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_frac", "frac"),
                         ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def _probe_setup(workload_name: str, seed: int) -> int:
    """Child side of a set-up probe: import, build, print the clock, exit."""
    import repro  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    state = workload.prepare(seed)
    with workload.open(state, seed):
        print(repr(time.monotonic()), flush=True)
    return 0


def measure_setup(workload_name: str, seed: int) -> float:
    """Median seconds from spawning an interpreter to a constructed trainer
    (or simulator), over ``SETUP_PROBES`` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        samples.append(float(child.stdout.strip().splitlines()[-1]) - started)
    return _median(samples)


class SpeedProbe:
    """Samples the host-speed probe (see PROBE_INTERVAL) while entered.

    ``factor()`` is the probe's trimmed mean time over ``PROBE_REF_S``:
    above 1 when the host ran slower than the reference.  The interval
    timer is per process, so forked workers never receive its signal.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        ordered = sorted(self.samples)
        trim = len(ordered) // 20
        kept = ordered[trim:len(ordered) - trim] or [PROBE_REF_S]
        return statistics.fmean(kept) / PROBE_REF_S


class Run:
    """The repetitions of one benchmark run and what they measured."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.run_s: list[float] = []
        self.speed: list[float] = []
        self.run_norm_s: list[float] = []
        self.throughput_norm: list[float] = []
        self.traced_run_s: list[float] = []
        self.traced_run_norm_s: list[float] = []
        self.layer_samples: list[dict[str, float]] = []
        self.last_spans = []
        self.last_rep = None
        self.state = None

    def prepare(self, traced: bool) -> None:
        from tracing import RECORDER

        RECORDER.reset()
        RECORDER.enabled = traced
        try:
            self.state = self.workload.prepare(self.seed)
        finally:
            RECORDER.enabled = False
        self.prepare_totals = dict(RECORDER.totals)

    def repetition(self, traced: bool) -> None:
        """Build, run and check the workload once; record what it measured."""
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace
        from tracing import RECORDER

        self.attempted += 1
        try:
            with self.workload.open(self.state, self.seed) as runner:
                obs_metrics.METRICS.drain()
                if traced:
                    RECORDER.reset()
                    tracer = obs_trace.Tracer()
                    previous = obs_trace.set_tracer(tracer)
                    RECORDER.enabled = True
                try:
                    with SpeedProbe() as probe:
                        started = time.perf_counter()
                        output = runner.run()
                        elapsed = time.perf_counter() - started
                finally:
                    if traced:
                        RECORDER.enabled = False
                        obs_trace.set_tracer(previous)
                registry = obs_metrics.METRICS.drain()
            rep = self.workload.inspect(output)
            rep.problems += self.workload.cross_check(rep, registry)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        if self.first_digest is None:
            self.first_digest = rep.digest
        elif rep.digest != self.first_digest:
            rep.problems.append(
                f"outputs differ between repetitions: {rep.digest} vs "
                f"{self.first_digest}"
            )
        if rep.problems:
            print(f"perfbench: check failed: {rep.problems}", file=sys.stderr)
            self.failed += 1
            return
        self.last_rep = rep
        factor = probe.factor()
        normalized = elapsed / factor
        if traced:
            self.traced_run_s.append(elapsed)
            self.traced_run_norm_s.append(normalized)
            self.layer_samples.append(
                self._layer_metrics(rep, elapsed, registry, tracer)
            )
            self.last_spans = RECORDER.spans
        else:
            self.run_s.append(elapsed)
            self.speed.append(factor)
            self.run_norm_s.append(normalized)
            self.throughput_norm.append(rep.work / normalized)

    def _layer_metrics(self, rep, elapsed, registry, tracer) -> dict:
        from tracing import LAYERS, RECORDER

        totals, calls, counts = RECORDER.totals, RECORDER.calls, RECORDER.counts
        counters = registry.get("counters", {})
        m = {}
        phases = ("begin_task", "train", "aggregate", "broadcast",
                  "end_task", "evaluate")
        for phase in phases:
            m[f"trainer.{phase}_s"] = totals.get(f"trainer.{phase}", 0.0)
        covered = sum(m[f"trainer.{phase}_s"] for phase in phases)
        is_sim = "sim.events" in rep.counts
        if is_sim:
            covered = totals.get("sim.loop", 0.0)
        m["trainer.other_s"] = 0.0 if is_sim else max(elapsed - covered, 0.0)
        m["trainer.rounds"] = rep.counts.get("trainer.rounds", 0)
        m["trainer.client_trains"] = rep.counts.get("trainer.client_trains", 0)
        for name in ("restore", "soft_labels", "extract", "integrate", "qp"):
            m[f"core.{name}_s"] = totals.get(f"core.{name}", 0.0)
        m["core.restored_grads"] = counts.get("core.restored_grads", 0)
        integrations = counts.get("core.integrations", 0)
        m["core.integrations"] = integrations
        m["core.rotated_frac"] = (
            counts.get("core.rotations", 0) / integrations if integrations else 0.0
        )
        for name in ("forward", "backward", "conv2d_fwd", "im2col", "col2im",
                     "pool_fwd", "batch_norm_fwd", "optim_step"):
            m[f"nn.{name}_s"] = totals.get(f"nn.{name}", 0.0)
        m["nn.forward_calls"] = calls.get("nn.forward", 0)
        m["codec.encode_s"] = totals.get("codec.encode", 0.0)
        m["codec.decode_s"] = totals.get("codec.decode", 0.0)
        m["codec.encoded_mb"] = counts.get("codec.encoded_bytes", 0) / 1e6
        for name in ("map", "share_state", "collect"):
            m[f"serve.{name}_s"] = totals.get(f"serve.{name}", 0.0)
        m["serve.frames_sent"] = counts.get("serve.frames_sent", 0)
        m["serve.sent_mb"] = counts.get("serve.sent_bytes", 0) / 1e6
        m["serve.received_mb"] = counts.get("serve.received_bytes", 0) / 1e6
        hits = counters.get("broadcast.cache_hits", 0)
        decodes = (counters.get("broadcast.decodes", 0)
                   + counters.get("broadcast.framed_decodes", 0))
        m["serve.broadcast_hit_frac"] = (
            hits / (hits + decodes) if hits + decodes else 0.0
        )
        # worker-side spans the program's own tracer shipped back
        worker = defaultdict(float)
        for span in tracer.foreign:
            worker[span["name"]] += span["end"] - span["start"]
        m["serve.worker_train_s"] = worker["train_client"]
        m["codec.worker_s"] = worker["encode"] + worker["decode"]
        m["sim.schedule_s"] = self.prepare_totals.get("sim.schedule", 0.0)
        m["sim.loop_s"] = totals.get("sim.loop", 0.0)
        for name in ("events", "rounds", "lost_frac", "evicted", "stale"):
            m[f"sim.{name}"] = rep.counts.get(f"sim.{name}", 0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = RECORDER.self_time.get(layer, 0.0)
        m["trace.coverage_frac"] = covered / elapsed
        m["trace.spans"] = len(RECORDER.spans)
        return m

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[1] for span in self.last_spans), default=0.0)
        with open(path, "w") as handle:
            for name, start, end, depth in self.last_spans:
                handle.write(json.dumps({
                    "name": name, "start": start - origin,
                    "end": end - origin, "depth": depth,
                }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return _probe_setup(args.workload, args.seed)

    traced = bool(args.trace)
    setup_s = None if traced else measure_setup(args.workload, args.seed)
    if traced:
        import tracing

        tracing.install()

    run = Run(WORKLOADS[args.workload], args.seed)
    run.prepare(traced)
    started = time.perf_counter()
    # a traced run alternates untraced and traced repetitions, so both
    # medians come from the same stretch of time
    for index in itertools.count():
        run.repetition(traced=traced and index % 2 == 1)
        if (index >= int(traced)
                and time.perf_counter() - started >= args.seconds):
            break
    if run.last_rep is not None:
        rep = run.last_rep
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              + " ".join(f"{k}={v}" for k, v in rep.summary.items())
              + " digest=" + ",".join(f"{k}:{v}" for k, v in rep.digest.items()))

    ok = run.attempted - run.failed
    correct = run.failed == 0 and bool(run.run_s)
    if not traced:
        metrics = {
            "run_norm_s": (_median(run.run_norm_s), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "ok_frac": (ok / run.attempted, "frac"),
            "throughput_norm": (_median(run.throughput_norm), "1/s"),
        }
        print(f"perfbench: {len(run.run_s)} repetitions, wall run_s "
              + " ".join(f"{x:.4f}" for x in run.run_s)
              + f" (median {_median(run.run_s):.4f}), host slowdown "
              + " ".join(f"{x:.3f}" for x in run.speed))
    else:
        names = sorted({name for sample in run.layer_samples for name in sample})
        metrics = {
            name: (_median([s.get(name, 0.0) for s in run.layer_samples]),
                   unit_of(name))
            for name in names
        }
        base = _median(run.run_norm_s)
        metrics["trace.run_s"] = (_median(run.traced_run_s), "s")
        metrics["trace.untraced_run_s"] = (_median(run.run_s), "s")
        metrics["trace.overhead_ratio"] = (
            _median(run.traced_run_norm_s) / base if base else 0.0, "ratio"
        )
        span_file = (ROOT / ".perfbench"
                     / f"{args.workload}-seed{args.seed}.spans.jsonl")
        run.write_spans(span_file)
        print(f"perfbench: {len(run.last_spans)} spans written to {span_file}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
