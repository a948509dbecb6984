"""Runs a workload's passes, checks every call and computes the metrics.

A pass runs the workload's call list once, timing each call; the checks run
after the pass, outside the timed region. A call fails if it raises, exits
non-zero, reports ``pass: false``, produces a report that does not validate
against the run-report schema, or fails a benchmark-side check. Calls listed
in known_failures.json fail at the seed commit; they are counted like any
other failure, but only failures outside that list make ``correct`` false.
Every timing is scaled to a reference machine speed (see Calibration).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import jsonschema
import numpy as np

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 2  # timed passes in an untraced run, however long they take
NON_FINITE_RATIO = 1e300  # stands in for a NaN or infinite residual in the JSON

TIMED_FUNCTIONS = (
    "tensor.stationary_distribution", "tensor.transition_semigroup",
    "tensor.embed_local", "models.asep_generator",
    "models.ctmc_oracle_probability", "models.tw_transition_probability",
    "mpa.mpa_stationary_measure", "sixvertex.sample_lattice", "sixvertex.to_csv",
    "sixvertex.fused_weights_recurrence", "sixvertex.fused_weights_closed_form",
    "cli.build_parser", "uqsl2.universal_r_check", "uqsl2.check_relations",
)
COUNTED_FUNCTIONS = ("qnum.q_pochhammer", "qnum.q_binomial",
                     "oscillator.hermite_overlap")
COUNTERS = ("tensor.stationary_dim_max", "tensor.dense_bytes_computed",
            "tensor.semigroup_dim_sum", "models.tw_nodes", "mpa.truncations",
            "mpa.M_max", "mpa.configs", "sixvertex.vertices")


# Median seconds of one Calibration.measure() on the 2-core VM where the
# benchmark was defined; timings are reported at that machine's speed.
CALIBRATION_REFERENCE_S = 0.035
CALIBRATION_INTERVAL_S = 0.5  # between calls, at most this long without one


class Calibration:
    """A fixed mix of interpreter and BLAS work that never touches the
    program, timed before and after every pass and between its calls.

    The machine the benchmark was defined on is shared, and its speed
    drifts by 10-35% over tens of seconds to minutes; the program's timings
    drift with it. Each pass's timings are multiplied by its speed factor,
    the reference time over the median of the samples taken around and
    inside the pass. That reports them at the reference speed and cancels
    much of the drift. The raw figures are printed too.
    """

    def __init__(self):
        self._matrix = np.random.default_rng(0).random((300, 300)) / 300.0
        self._out = [np.empty_like(self._matrix), np.empty_like(self._matrix)]
        self.times = []
        self._last = -math.inf

    def measure(self):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        m = self._matrix
        for k in range(5):
            m = np.matmul(m, self._matrix, out=self._out[k % 2])
        end = time.perf_counter()
        self.times.append(end - start)
        self._last = end

    def maybe_measure(self):
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.measure()

    def factor_since(self, first: int) -> float:
        """Speed factor from the samples taken since index ``first``."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.times[first:])


@dataclass
class Outcome:
    label: str
    seconds: float  # raw
    factor: float = 1.0  # speed factor of the call's pass
    vertices: int = 0
    reasons: list = field(default_factory=list)
    worst_ratio: float = 0.0
    worst_check: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    def apply(self, triples):
        """Record (name, value, tolerance) checks; a value above its
        tolerance (or not finite) fails the call."""
        for name, value, tol in triples:
            value = float(value)
            if not math.isfinite(value):
                ratio = NON_FINITE_RATIO
            elif tol > 0:
                ratio = value / tol
            else:  # exact checks: any violation is over the tolerance
                ratio = 0.0 if value == 0 else 1.0 + value
            if ratio > self.worst_ratio:
                self.worst_ratio, self.worst_check = ratio, name
            if not value <= tol:
                self.reasons.append(f"{name} {value:.3g} > {tol:.3g}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric_specs():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Runner:
    def __init__(self, integrable, workload, nproc, blas_threads):
        self.integrable = integrable
        self.cli = integrable.cli
        self.workload = workload
        self.nproc = nproc
        self.blas_threads = blas_threads
        schema_path = os.path.join(os.path.dirname(integrable.__file__), "schemas",
                                   "run_report.schema.json")
        with open(schema_path) as fh:
            self.schema = jsonschema.Draft202012Validator(json.load(fh))
        with open(os.path.join(HERE, "known_failures.json")) as fh:
            self.known = {" ".join(k["argv"]) for k in json.load(fh)
                          if k["workload"] == workload.name}
        self.outcomes = []
        self.calls = []  # parallel to outcomes
        self.pass_walls = []  # at reference speed
        self.pass_factors = []
        self.calibration = Calibration()

    # ---------------------------------------------------------------- calls

    def _invoke(self, call):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = self.cli.main(call.argv) if call.argv is not None else call.func()
            error = None
        except Exception as exc:  # a raising call is a failed call, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - start, result, out.getvalue(), err.getvalue(), error

    def _check(self, call, seconds, result, stdout, stderr, error) -> Outcome:
        outcome = Outcome(call.label, seconds, vertices=call.data.get("vertices", 0))
        if error is not None:
            outcome.reasons.append(error)
            return outcome
        try:
            if call.argv is None:
                outcome.apply(call.check(result))
                return outcome
            if result != 0:
                tail = stderr.strip().splitlines()[-1:] or [""]
                outcome.reasons.append(f"exit {result} {tail[0]}".strip())
            if not call.json_report:
                if call.check is not None:
                    outcome.apply(call.check(stdout))
                return outcome
            report = json.loads(stdout)
            problems = [e.message for e in self.schema.iter_errors(report)]
            if problems:
                outcome.reasons.append("schema: " + "; ".join(problems))
                return outcome
            if report["pass"] is not True:
                outcome.reasons.append("pass: false")
            outcome.apply(checks.report_residuals(report))
            if call.check is not None:
                outcome.apply(call.check(report))
        except Exception as exc:  # malformed output
            outcome.reasons.append(f"check raised {type(exc).__name__}: {exc}")
        return outcome

    def run_pass(self, index):
        """Runs and checks one pass; returns its wall time at reference
        speed. The calibration sample just before the pass (the previous
        pass's last one) counts towards its speed factor."""
        calls = self.workload.calls(index)
        gc.collect()
        first = len(self.calibration.times) - 1
        raw = []
        for call in calls:
            self.calibration.maybe_measure()
            raw.append(self._invoke(call))
        self.calibration.measure()
        factor = self.calibration.factor_since(first)
        wall = factor * sum(r[0] for r in raw)  # calibrations excluded
        for call, r in zip(calls, raw):
            outcome = self._check(call, *r)
            outcome.factor = factor
            self.outcomes.append(outcome)
        self.calls.extend(calls)
        self.pass_walls.append(wall)
        self.pass_factors.append(factor)
        return wall

    def _passes(self, seconds, min_passes, on_pass=None):
        walls = []
        start = time.perf_counter()
        while len(walls) < min_passes or time.perf_counter() - start < seconds:
            walls.append(self.run_pass(len(self.pass_walls)))
            if on_pass is not None:
                on_pass()
        return walls

    def warm_up(self):
        for call in self.workload.warmup:
            self._invoke(call)
        self.calibration.measure()

    # -------------------------------------------------------------- metrics

    def _run_check(self):
        """The workload's checks over every timed call of the run; a
        violation fails every call it names."""
        if self.workload.run_check is None:
            return
        labels, triples = self.workload.run_check(self.calls)
        pooled = Outcome("run", 0.0)
        pooled.apply(triples)
        for outcome in self.outcomes:
            if outcome.label in labels:
                outcome.reasons.extend(pooled.reasons)
                if pooled.worst_ratio > outcome.worst_ratio:
                    outcome.worst_ratio = pooled.worst_ratio
                    outcome.worst_check = pooled.worst_check

    def _common(self) -> dict:
        self._run_check()
        failed = sum(o.failed for o in self.outcomes)
        sampled = [o for o in self.outcomes if o.vertices]
        busy = sum(o.seconds * o.factor for o in sampled)
        worst = max(self.outcomes, key=lambda o: o.worst_ratio)
        return {
            "speed_factor": statistics.median(self.pass_factors),
            "attempted": len(self.outcomes),
            "failed": failed,
            "unexpected": [o for o in self.outcomes if o.failed and o.label not in self.known],
            "error_rate": failed / len(self.outcomes),
            "vertices_per_s": sum(o.vertices for o in sampled) / busy if busy else 0.0,
            "worst_residual_ratio": worst.worst_ratio,
            "worst_label": f"{worst.worst_check} in {worst.label}",
        }

    def untraced(self, seconds, measure_setup) -> dict:
        first = len(self.calibration.times)
        setup = measure_setup(between=self.calibration.measure)
        setup_factor = self.calibration.factor_since(first)
        self.warm_up()
        walls = self._passes(seconds, MIN_PASSES)
        lat_ms = [1000.0 * o.seconds * o.factor for o in self.outcomes]
        deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
        result = self._common()
        result["metrics"] = {
            "setup_s": setup_factor * statistics.median(setup),
            "wall_s": statistics.median(walls),
            "call_p50_ms": deciles[4],
            "call_p90_ms": deciles[8],
            "peak_rss_mb": _peak_rss_mb(),
        }
        # Printed beside the bounded metrics; no regression gate uses them,
        # because they are zero on some workloads.
        result["lines"] = [
            f"{'vertices_per_s':38s} {result['vertices_per_s']:>14.6g} 1/s    "
            + ("" if result["vertices_per_s"] else "no sample6v calls"),
            f"{'error_rate':38s} {result['error_rate']:>14.6g} ratio  "
            f"{result['failed']}/{result['attempted']} calls failed",
        ]
        raw_walls = [w / f for w, f in zip(walls, self.pass_factors)]
        result["notes"] = {
            "setup_s": f"median of {len(setup)} fresh interpreters; "
                       f"raw {statistics.median(setup):.4g} s",
            "wall_s": f"median of {len(walls)} passes; raw "
                      f"{statistics.median(raw_walls):.4g} s",
            "call_p50_ms": f"over {len(lat_ms)} calls",
            "call_p90_ms": f"over {len(lat_ms)} calls, "
                           f"{sum(x > deciles[8] for x in lat_ms)} beyond it",
        }
        return result

    def traced(self, seconds, stressed) -> dict:
        self.warm_up()
        untraced = self._passes(seconds / 2, 1)
        tracer = spans.Tracer(self.integrable)
        summaries = []
        tracer.install()
        try:
            tracer.reset()
            traced = self._passes(seconds / 2, 1,
                                  on_pass=lambda: (summaries.append(tracer.summary()),
                                                   tracer.reset()))
        finally:
            tracer.uninstall()

        factors = self.pass_factors[-len(summaries):]

        def med(get):  # median over traced passes, at reference speed
            return statistics.median(get(s) * f for s, f in zip(summaries, factors))

        first = summaries[0]
        m = {f"{layer}.self_s": med(lambda s, l=layer: s["self"][l])
             for layer in spans.LAYERS}
        m.update({f"{fn}_s": med(lambda s, f=fn: s["time"][f]) for fn in TIMED_FUNCTIONS})
        m.update({f"{fn}.calls": first["calls"][fn] for fn in COUNTED_FUNCTIONS})
        m.update({name: first["counters"][name] for name in COUNTERS})
        m["cli.calls"] = first["calls"]["cli.main"]
        vertices = first["counters"]["sixvertex.vertices"]
        m["sixvertex.ns_per_vertex"] = (
            1e9 * m["sixvertex.sample_lattice_s"] / vertices if vertices else 0.0)
        wall_traced = statistics.median(traced)
        m["stressed_layer_share"] = statistics.median(
            f * sum(s["self"][layer] for layer in stressed) / wall
            for s, f, wall in zip(summaries, factors, traced))
        m["wall_s_untraced"] = statistics.median(untraced)
        m["wall_s_traced"] = wall_traced
        m["trace_overhead_s"] = wall_traced - m["wall_s_untraced"]
        m["nproc"] = self.nproc
        m["blas_threads"] = self.blas_threads
        result = self._common()
        m["speed_factor"] = result["speed_factor"]
        m.update({k: result[k] for k in ("error_rate", "vertices_per_s",
                                         "worst_residual_ratio")})
        result["metrics"] = m
        repeat = all(s["counters"] == first["counters"] and s["calls"] == first["calls"]
                     for s in summaries)
        result["notes"] = {
            "wall_s_traced": f"median of {len(traced)} traced passes",
            "wall_s_untraced": f"median of {len(untraced)} passes",
            "stressed_layer_share": "self time of " + "+".join(stressed),
            "tensor.dense_bytes_computed": "computed as 16*dim^2 per dense solve",
        }
        result["lines"] = ["counters and call counts " + (
            "repeat in every traced pass" if repeat else "DIFFER between traced passes")]
        return result

    # --------------------------------------------------------------- output

    def print_result(self, result, trace: bool):
        end_to_end, per_layer = _metric_specs()
        units = per_layer if trace else end_to_end
        missing = set(units) - set(result["metrics"])
        if missing:
            raise RuntimeError(f"metrics not computed: {sorted(missing)}")
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
        print(f"perfbench {self.workload.name} trace={int(trace)}: "
              f"{len(self.pass_walls)} passes, {result['attempted']} checked calls, "
              f"nproc={self.nproc}, blas_threads={self.blas_threads}")
        print(f"  timings at reference speed: median pass speed factor "
              f"{result['speed_factor']:.4f} from {len(self.calibration.times)} "
              f"calibrations (reference {CALIBRATION_REFERENCE_S} s)")
        for name, unit in units.items():
            note = result["notes"].get(name, "")
            print(f"  {name:38s} {result['metrics'][name]:>14.6g} {unit:6s} {note}")
        for line in result["lines"]:
            print("  " + line)
        print(f"  worst residual/tolerance ratio {result['worst_residual_ratio']:.3g} "
              f"({result['worst_label']})")
        failures = {}
        for o in self.outcomes:
            if o.failed:
                failures.setdefault(o.label, [0, o.reasons])[0] += 1
        for label, (count, reasons) in failures.items():
            kind = "known seed failure" if label in self.known else "UNEXPECTED failure"
            print(f"  {kind} x{count}: {label}: {'; '.join(reasons)}")
        print(json.dumps({
            "correct": not result["unexpected"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }))

