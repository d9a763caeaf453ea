"""Span tracing of fiscalforge from outside the package.

Install() replaces public functions of each package module with
wrappers that record one span per call (name, start, end, parent) and,
for a few of them, counts taken from their arguments and results. Every
module namespace (and dict, such as the CLI's command table) that holds
a wrapped function gets the wrapper, so calls across modules are traced
too. Spans stay in memory until write().

Spans mark layer boundaries: functions another module calls, plus the
TD3 pieces whose time is reported on its own. Helpers a module only
calls itself (validate_action, ln_gamma, unflatten, select_elites, ...)
stay unwrapped, so their time is their caller's self time.
"""

import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "special_functions", "data_ingest", "environment", "neural_core",
    "td3_trainer", "quantum_ga", "evaluation", "cli",
)

SPANNED = {
    "cli": ("main", "cmd_pipeline", "cmd_train", "cmd_refine", "cmd_evaluate"),
    "data_ingest": ("load_series", "chrono_split", "fit_scaler"),
    "environment": (
        "BudgetEnv.__init__", "BudgetEnv.reset", "BudgetEnv.step",
        "clip_to_simplex", "write_trace",
    ),
    "special_functions": ("dirichlet_kl",),
    "neural_core": (
        "init_params", "forward_batch", "forward_actor", "vjp_batch",
        "save_checkpoint", "load_checkpoint", "export_json",
    ),
    "td3_trainer": (
        "train", "critic_update", "actor_update", "soft_update",
        "ReplayBuffer.push", "ReplayBuffer.sample",
    ),
    "quantum_ga": ("evolve", "evaluate_fitness"),
    "evaluation": ("evaluate_policy",),
}

# Counted but not spanned: the one forward kernel behind forward_batch
# and vjp_batch, and the GA mutation.
PROBED = {
    "neural_core": ("_forward_cached",),
    "quantum_ga": ("quantum_mutate",),
}

TRAIN = "td3_trainer.train"
CHECKPOINT = ("neural_core.save_checkpoint", "neural_core.load_checkpoint",
              "neural_core.export_json")


@functools.lru_cache(maxsize=None)
def _macs(spec) -> int:
    """Multiply-adds per input row of one dense forward pass."""
    return sum(out * inp for out, inp in spec.layer_shapes())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, raised]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.genomes: set[bytes] = set()
        self.train_depth = 0

    # -- counters, called after the wrapped function returns -------------

    def _hooks(self):
        c = self.counts

        def forward_kernel(args, result):
            rows = len(args[2])
            c["flop"] += 2 * rows * _macs(args[1])
            if rows > 1 and self.train_depth:
                c["update_forward_passes"] += 1

        def forward_rows(args, result):
            c["forward_batch.rows"] += len(args[2])

        def vjp(args, result):
            rows = len(args[2])
            c["vjp_batch.rows"] += rows
            c["flop"] += 4 * rows * _macs(args[1])  # weight and input gradients

        def ckpt_path(args, result):
            c["checkpoint_bytes"] += Path(args[0]).stat().st_size

        def series(args, result):
            c["rows_parsed"] += len(result) + result.dropped_rows

        def mutate(args, result):
            c["mutated_genes"] += len(result[1])

        def fitness(args, result):
            self.genomes.add(hashlib.blake2b(args[0].tobytes(), digest_size=16).digest())

        return {
            "neural_core._forward_cached": forward_kernel,
            "neural_core.forward_batch": forward_rows,
            "neural_core.vjp_batch": vjp,
            "neural_core.save_checkpoint": ckpt_path,
            "neural_core.load_checkpoint": ckpt_path,
            "neural_core.export_json": ckpt_path,
            "data_ingest.load_series": series,
            "quantum_ga.quantum_mutate": mutate,
            "quantum_ga.evaluate_fitness": fitness,
        }

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counting_depth(self, fn):
        """Keep train_depth above zero while fn runs."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.train_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.train_depth -= 1

        return wrapper

    @staticmethod
    def _probe(fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = self._hooks()
        for table, spanned in ((SPANNED, True), (PROBED, False)):
            for layer, names in table.items():
                module = importlib.import_module(f"fiscalforge.{layer}")
                for qualname in names:
                    name = f"{layer}.{qualname}"
                    owner_path, _, attr = qualname.rpartition(".")
                    owner = getattr(module, owner_path) if owner_path else module
                    original = getattr(owner, attr)
                    hook = hooks.get(name)
                    inner = self._counting_depth(original) if name == TRAIN else original
                    wrapped = (self._span(inner, name, hook) if spanned
                               else self._probe(inner, hook))
                    setattr(owner, attr, wrapped)
                    if owner is module:
                        _rebind(original, wrapped)

    # -- results ----------------------------------------------------------

    def write(self, path: Path, run_id: str) -> None:
        with Path(path).open("a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, raised) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"run": run_id, "id": i, "name": name, "start": start,
                     "end": end, "parent": parent, "raised": raised}
                ) + "\n")

    def summary(self, wall_s: float) -> tuple[dict, dict]:
        """Per-layer (counts, times) of the traced run.

        Counts must repeat exactly between runs of one input; times are
        self times unless the name says otherwise.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        inclusive: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        exceptions: Counter = Counter()
        latencies = {"environment.BudgetEnv.step": [], "quantum_ga.evaluate_fitness": []}
        for i, (name, start, end, parent, raised) in enumerate(spans):
            layer = name.partition(".")[0]
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            inclusive[name] += end - start
            layer_self[layer] += own
            if name in latencies:
                latencies[name].append(end - start)
            if raised and (parent < 0 or spans[parent][0].partition(".")[0] != layer):
                exceptions[layer] += 1

        c = self.counts
        updates = calls["td3_trainer.critic_update"]
        evaluations = calls["quantum_ga.evaluate_fitness"]
        kernel_s = sum(self_s[f"neural_core.{n}"]
                       for n in ("forward_batch", "vjp_batch", "forward_actor"))
        stages = {s: inclusive[f"cli.cmd_{s}"] for s in ("train", "refine", "evaluate")}

        counts = {
            "td3_trainer.critic_update.calls": updates,
            "td3_trainer.actor_update.calls": calls["td3_trainer.actor_update"],
            "td3_trainer.forward_passes_per_update":
                c["update_forward_passes"] / updates if updates else 0.0,
            "neural_core.forward_batch.calls": calls["neural_core.forward_batch"],
            "neural_core.forward_batch.rows": c["forward_batch.rows"],
            "neural_core.vjp_batch.calls": calls["neural_core.vjp_batch"],
            "neural_core.vjp_batch.rows": c["vjp_batch.rows"],
            "neural_core.forward_actor.calls": calls["neural_core.forward_actor"],
            "neural_core.computed_gflop": c["flop"] / 1e9,
            "neural_core.checkpoint.saves":
                calls["neural_core.save_checkpoint"] + calls["neural_core.export_json"],
            "neural_core.checkpoint.loads": calls["neural_core.load_checkpoint"],
            "neural_core.checkpoint.bytes": c["checkpoint_bytes"],
            "environment.build.calls": calls["environment.BudgetEnv.__init__"],
            "environment.step.calls": calls["environment.BudgetEnv.step"],
            "special_functions.dirichlet_kl.calls": calls["special_functions.dirichlet_kl"],
            "quantum_ga.evaluate_fitness.calls": evaluations,
            "quantum_ga.quantum_mutate.genes": c["mutated_genes"],
            "quantum_ga.useful_eval_share":
                len(self.genomes) / evaluations if evaluations else 0.0,
            "data_ingest.load_series.calls": calls["data_ingest.load_series"],
            "data_ingest.rows_parsed": c["rows_parsed"],
            "evaluation.evaluate_policy.calls": calls["evaluation.evaluate_policy"],
            "trace.spans": len(spans),
        }
        counts.update({f"{layer}.exceptions": exceptions[layer] for layer in LAYERS})

        times = {
            "td3_trainer.critic_update.self_s": self_s["td3_trainer.critic_update"],
            "td3_trainer.actor_update.self_s": self_s["td3_trainer.actor_update"],
            "td3_trainer.soft_update.self_s": self_s["td3_trainer.soft_update"],
            "td3_trainer.replay.self_s":
                self_s["td3_trainer.ReplayBuffer.push"] + self_s["td3_trainer.ReplayBuffer.sample"],
            "td3_trainer.train.self_s": self_s[TRAIN],
            "neural_core.forward_batch.self_s": self_s["neural_core.forward_batch"],
            "neural_core.vjp_batch.self_s": self_s["neural_core.vjp_batch"],
            "neural_core.forward_actor.self_s": self_s["neural_core.forward_actor"],
            "neural_core.achieved_gflops": c["flop"] / 1e9 / kernel_s if kernel_s else 0.0,
            "neural_core.checkpoint.self_s": sum(self_s[n] for n in CHECKPOINT),
            "environment.build.self_s": self_s["environment.BudgetEnv.__init__"],
            "environment.step.self_s": self_s["environment.BudgetEnv.step"],
            "environment.step.p50_us": _percentile(latencies["environment.BudgetEnv.step"], 50),
            "environment.step.p99_us": _percentile(latencies["environment.BudgetEnv.step"], 99),
            "special_functions.dirichlet_kl.self_s": self_s["special_functions.dirichlet_kl"],
            "quantum_ga.evaluate_fitness.self_s": self_s["quantum_ga.evaluate_fitness"],
            "quantum_ga.evaluate_fitness.p50_us":
                _percentile(latencies["quantum_ga.evaluate_fitness"], 50),
            "quantum_ga.evaluate_fitness.p99_us":
                _percentile(latencies["quantum_ga.evaluate_fitness"], 99),
            "quantum_ga.evolve.self_s": self_s["quantum_ga.evolve"],
            "data_ingest.load_series.self_s": self_s["data_ingest.load_series"],
            "evaluation.evaluate_policy.self_s": self_s["evaluation.evaluate_policy"],
            "cli.stage.train_s": stages["train"],
            "cli.stage.refine_s": stages["refine"],
            "cli.stage.evaluate_s": stages["evaluate"],
            "cli.stage.summary_s": inclusive["cli.cmd_pipeline"] - sum(stages.values()),
            "trace.self_time_coverage": sum(layer_self.values()) / wall_s,
        }
        times.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
        return counts, times


def _percentile(durations: list[float], pct: int) -> float:
    """Interpolated percentile in microseconds (0 when nothing was timed)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1] * 1e6


def _rebind(original, wrapped) -> None:
    """Point every package-level reference to original at wrapped."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "fiscalforge" and not module_name.startswith("fiscalforge."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapped
