"""The four benchmark workloads: seeded inputs, the timed ops, and their checks.

Every workload builds its inputs from the seed in ``setup`` (through epiq's
own constructors, so the package import is part of set-up), then hands out
one pass of ops.  An op is ``(label, fn, check)``: ``fn()`` is the timed
call, ``check(result)`` runs after the pass and returns ``None`` or the
reason the output is wrong.  epiq modules are always reached through their
module attribute at call time, so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
PROB_TOL = 1e-12


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def _close(a, b, tol=PROB_TOL):
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


# ---------------------------------------------------------------- networks

def layer_plan(rng, depth):
    """Levels and widths of a layered network of ``depth`` layers.

    About one crossed layer in four is never knowable (width 2); the rest
    are decided, half of them of width 3.  The counts are fixed by depth and
    only the order is drawn, so the decided-path product, which sets the cost
    of exact propagation, is the same for every seed.
    """
    crossed = depth - 1
    n_never = max(1, round(crossed / 4))
    n_decided = crossed - n_never
    n_wide = n_decided // 2
    kinds = ["N"] * n_never + ["D3"] * n_wide + ["D2"] * (n_decided - n_wide)
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    levels = [1 if k == "N" else 3 for k in kinds] + [3]
    widths = [3 if k == "D3" else 2 for k in kinds] + [int(rng.integers(2, 4))]
    return levels, widths


def decided_product(levels, widths):
    """Upper bound on the mixture width: product of the crossed decided widths."""
    return math.prod(w for lv, w in zip(levels[:-1], widths[:-1]) if lv == 3)


def _exact_values():
    from epiq.exactnum import Sqrt2Scalar
    return Sqrt2Scalar(Fraction(1, 2)), Sqrt2Scalar(Fraction(0), Fraction(1, 2))


def _exact_phase(value, k):
    """value * i**k as an ExactAmplitude."""
    from epiq.exactnum import ExactAmplitude, ZERO
    return (ExactAmplitude(value, ZERO), ExactAmplitude(ZERO, value),
            ExactAmplitude(-value, ZERO), ExactAmplitude(ZERO, -value))[k % 4]


def _exact_row(rng, width):
    half, inv_sqrt2 = _exact_values()
    base = [inv_sqrt2, inv_sqrt2] if width == 2 else [half, half, inv_sqrt2]
    base = [base[i] for i in rng.permutation(width)]
    return tuple(_exact_phase(v, int(rng.integers(4))) for v in base)


def _exact_isometry(rng, width_out):
    """A 2 x width_out matrix with orthonormal rows, entries in Q(sqrt2)(i)."""
    half, inv_sqrt2 = _exact_values()
    if width_out == 2:
        base = [[(inv_sqrt2, 0), (inv_sqrt2, 0)], [(inv_sqrt2, 0), (inv_sqrt2, 2)]]
    else:
        base = [[(half, 0), (half, 0), (inv_sqrt2, 0)],
                [(half, 0), (half, 0), (inv_sqrt2, 2)]]
    cols = rng.permutation(width_out)
    row_phase = rng.integers(4, size=2)
    col_phase = rng.integers(4, size=width_out)
    return tuple(
        tuple(_exact_phase(base[j][c][0], base[j][c][1] + row_phase[j] + col_phase[k])
              for k, c in enumerate(cols))
        for j in range(2))


def _float_row(rng, width):
    z = rng.normal(size=width) + 1j * rng.normal(size=width)
    return tuple(complex(a) for a in z / np.linalg.norm(z))


def _float_isometry(rng, width_in, width_out):
    """width_in rows of a random width_out x width_out unitary."""
    z = rng.normal(size=(width_out, width_out)) + 1j * rng.normal(size=(width_out, width_out))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return tuple(tuple(complex(a) for a in row) for row in q[:width_in])


def _as_complex(rows):
    return np.array([[complex(a) for a in row] for row in rows], dtype=complex)


def make_network(rng, levels, widths, exact):
    """A ContextNetwork with the given plan: normalized rows after decided
    layers, orthonormal rows after never-knowable ones.

    A never-knowable matrix that would cancel an amplitude to zero is
    redrawn, together with the layers back to the last decided one when no
    redraw helps, so no branch is ever dropped: the mixture is exactly the
    decided-path product wide and the cost depends on the plan only.
    """
    from epiq.context import ContextNetwork, Layer
    from epiq.evolution import Knowability
    layers = tuple(Layer(f"L{i}", Knowability(lv), tuple(float(k + 1) for k in range(w)))
                   for i, (lv, w) in enumerate(zip(levels, widths)))
    row = _exact_row if exact else _float_row
    initial = row(rng, widths[0])
    edges = [None] * (len(levels) - 1)
    vectors = [_as_complex([initial])]  # vectors[i]: amplitude rows entering layer i
    i, restart = 0, 0  # restart: the layer a failed draw goes back to
    for _ in range(10_000):
        if i == len(edges):
            return ContextNetwork(layers=layers, initial=initial, edges=tuple(edges))
        w_in, w_out = widths[i], widths[i + 1]
        if levels[i] == 3:
            edges[i] = tuple(row(rng, w_out) for _ in range(w_in))
            vectors[i + 1:] = [_as_complex(edges[i])]
            restart, i = i, i + 1
            continue
        for _ in range(8):
            m = _exact_isometry(rng, w_out) if exact else _float_isometry(rng, w_in, w_out)
            out = vectors[i] @ _as_complex(m)
            if np.min(np.abs(out)) > 1e-9:
                edges[i] = m
                vectors[i + 1:] = [out]
                i += 1
                break
        else:
            if levels[restart] == 1:  # only never-knowable layers before: redraw the input
                initial = row(rng, widths[0])
                vectors, restart = [_as_complex([initial])], 0
            del vectors[restart + 1:]
            i = restart
    raise RuntimeError("no network without cancelling amplitudes found")


def reference_distribution(levels, initial, matrices):
    """Outcome distribution with merged branches, in complex floats.

    After a decided layer every branch that took value j carries the same
    amplitude row, so the mixture is one weight per value: the cost is
    linear in depth.  Independent of epiq's propagation code.
    """
    weights = np.ones(1)
    vectors = np.asarray([initial], dtype=complex)
    for level, m in zip(levels[:-1], matrices):
        m = np.asarray(m, dtype=complex)
        if level == 3:
            weights = weights @ (np.abs(vectors) ** 2)
            vectors = m
        else:
            vectors = vectors @ m
    return weights @ (np.abs(vectors) ** 2)


def network_reference(net):
    levels = [int(layer.level) for layer in net.layers]
    initial = [complex(a) for a in net.initial]
    matrices = [[[complex(a) for a in row] for row in m] for m in net.edges]
    return reference_distribution(levels, initial, matrices)


# ---------------------------------------------------------------- state space

def make_registry_spec(rng, target, n_objects, n_slots):
    """A registry of ``n_objects`` objects, ``n_slots`` slots and within 5%
    of ``target`` states.

    Attributes are ordered (2-6 values), binary and circular (3-6 values);
    each object carries 1-3 of them.  The count is the product of the slot
    sizes, computed before anything is enumerated.  Fixing the object and
    slot counts and a narrow band of state counts keeps the cost of a
    registry about the same for every seed.
    """
    for _ in range(100_000):
        attrs = {"pos": ("ordered", tuple(range(1, int(rng.integers(2, 7)) + 1))),
                 "spin": ("binary", ("up", "down")),
                 "phase": ("circular", tuple(f"p{k}" for k in range(int(rng.integers(3, 7))))),
                 "mark": ("ordered", tuple(range(int(rng.integers(2, 5)))))}
        names = sorted(attrs)
        objects = {}
        for o in range(n_objects):
            picks = rng.choice(len(names), size=int(rng.integers(1, 4)), replace=False)
            objects[f"obj{o}"] = [names[i] for i in sorted(picks)]
        slot_sizes = [len(attrs[a][1]) for attr_ids in objects.values() for a in attr_ids]
        count = math.prod(slot_sizes)
        if len(slot_sizes) == n_slots and 0.95 * target <= count <= 1.05 * target:
            return attrs, objects, count
    raise RuntimeError(f"no registry near {target} states")


def build_registry(attrs, objects):
    from epiq.statespace import AttributeDef, ObjectRegistry
    return ObjectRegistry.build(
        [AttributeDef(id=a, kind=kind, values=values) for a, (kind, values) in attrs.items()],
        objects)


# ---------------------------------------------------------------- workloads

class Workload:
    name = ""
    # Passes a plain run makes even past --seconds.
    min_passes = 1

    def setup(self, seed, work_dir):
        raise NotImplementedError

    def ops(self, in_process):
        """One pass of ops; ``in_process`` matters only where an op can run
        in a subprocess (cli-scenarios), and is set for the traced run."""
        raise NotImplementedError

    def before_pass(self):
        """Untimed preparation of the next pass."""

    def facts(self, results):
        """Pass-level quantities the trace needs that spans do not carry."""
        return {}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


CANDIDATE_TAGS = {"real": "real", "|a|^2": "a2", "|a|^4": "a4", "|a|^6": "a6"}
UNIQUENESS_SHAPES = ((2, 2), (3, 2), (3, 3))
# The 2x2 rows are the bundled born-uniqueness study (60 starts, seed 1).
BUNDLED_STARTS, BUNDLED_SEED = 60, 1
# Starts for the 3x2 and 3x3 rows.  Feasible candidates accept every start
# (40 of 40 at 3x3 and at 3x2 padded), so the verdict does not depend on the
# seed, while the infeasible ones spend all of them inside least_squares.
WIDE_STARTS = 3


class UniquenessTable(Workload):
    name = "uniqueness-table"
    # A pass takes longer than --seconds, and op_p50_ms and op_tail_ms of
    # one pass rest on single ops of 1 to 6 s.
    min_passes = 2

    def setup(self, seed, work_dir):
        self.plan(seed)
        with open(REFERENCE_DIR / "uniqueness.json") as fh:
            self.reference = {(r["candidate"], tuple(r["shape"])): r for r in json.load(fh)}
        self.u.uniqueness_report([2], [2], candidates=[self.u.BORN], samples=1, seed=0)

    def plan(self, seed):
        """The table's rows, and the residual equations of each row's system."""
        from epiq import uniqueness
        from epiq.evolution import Knowability
        self.u = uniqueness
        self.rows = []
        self.equations = {}
        for cand in uniqueness.DEFAULT_CANDIDATES:
            for m, mp in UNIQUENESS_SHAPES:
                wide = (m, mp) != (2, 2)
                starts, row_seed = (WIDE_STARTS, seed) if wide else (BUNDLED_STARTS, BUNDLED_SEED)
                self.rows.append((cand, m, mp, starts, row_seed))
                system = uniqueness.property_independence_conditions(
                    uniqueness.build_constraints(m, max(m, mp), Knowability.NEVER, cand))
                self.equations[f"{CANDIDATE_TAGS[cand.name]}.{m}x{mp}"] = len(system.equations)

    def ops(self, in_process):
        out = []
        for cand, m, mp, starts, row_seed in self.rows:
            def fn(cand=cand, m=m, mp=mp, starts=starts, row_seed=row_seed):
                return self.u.uniqueness_report([m], [mp], candidates=[cand],
                                                samples=starts, seed=row_seed).rows[0]
            out.append((f"{CANDIDATE_TAGS[cand.name]}.{m}x{mp}", fn,
                        lambda row, key=(cand.name, (m, mp)): self.check(row, key)))
        return out

    def check(self, row, key):
        want = self.reference[key]
        rep = row.report
        got = {"candidate": row.candidate, "shape": list(row.shape),
               "padded_shape": list(row.padded_shape) if row.padded_shape else None,
               "feasible": rep.feasible, "dof": rep.dof, "required": rep.required,
               "verdict": row.verdict}
        if got != want:
            return f"verdict row {got} != reference {want}"
        return None

    def facts(self, results):
        return {"solutions": sum(len(row.report.sample_solutions)
                                 for row in results if row is not None)}

    def meta(self):
        return {"residual_equations": self.equations,
                "starts": {"2x2": BUNDLED_STARTS, "3x2": WIDE_STARTS, "3x3": WIDE_STARTS},
                "seed_2x2": BUNDLED_SEED}


# (depth, count) per pass.  The exact share covers depths 4-10; the float
# share is deeper and sized to a comparable share of the pass time, so a gain
# on one number field that costs the other shows in wall_s.
EXACT_DEPTHS = tuple((d, 4) for d in range(4, 11))
FLOAT_DEPTHS = ((12, 3), (13, 3), (14, 3), (15, 2), (16, 2))


class PropagateDepth(Workload):
    name = "propagate-depth"

    def setup(self, seed, work_dir):
        from epiq import context
        self.context = context
        # The plans (layer order and widths) come from one fixed stream and
        # the seed draws the amplitudes, so every seed costs the same.
        plan_rng, rng = _rng(0, 2), _rng(seed, 2)
        self.networks = []
        for exact, schedule in ((True, EXACT_DEPTHS), (False, FLOAT_DEPTHS)):
            for depth, count in schedule:
                for _ in range(count):
                    levels, widths = layer_plan(plan_rng, depth)
                    net = make_network(rng, levels, widths, exact)
                    self.networks.append({
                        "net": net, "exact": exact, "depth": depth,
                        "product": decided_product(levels, widths),
                        "reference": network_reference(net)})
        warm = self.networks[0]["net"]
        context.propagate(warm)

    def ops(self, in_process):
        out = []
        for i, item in enumerate(self.networks):
            field = "exact" if item["exact"] else "float"
            out.append((f"{field}.d{item['depth']}.{i}",
                        lambda net=item["net"]: self.context.propagate(net),
                        lambda dist, item=item: self.check(dist, item)))
        return out

    @staticmethod
    def check(dist, item):
        if item["exact"]:
            if dist.exact is None:
                return "exact network propagated in floats"
            total = sum(dist.exact[1:], dist.exact[0])
            if not (total.p == 1 and total.q == 0):
                return f"exact distribution sums to {total!r}, not 1"
        elif dist.exact is not None:
            return "float network reported an exact distribution"
        if not _close(dist.probabilities, item["reference"]):
            return "distribution differs from the reference by more than 1e-12"
        return None

    def meta(self):
        return {"networks": [{"field": "exact" if n["exact"] else "float",
                              "depth": n["depth"], "decided_product": n["product"]}
                             for n in self.networks]}


# (states, objects, slots) of the registries of one pass, 10^2 to 5*10^4 states.
STATE_TARGETS = ((100, 2, 4), (300, 2, 5), (1000, 3, 5), (3000, 3, 6), (10000, 3, 7),
                 (30000, 4, 8))


class StateSpace(Workload):
    name = "state-space"

    def setup(self, seed, work_dir):
        from epiq import evolution, statespace
        self.ss, self.ev = statespace, evolution
        rng = _rng(seed, 4)
        self.items = []
        for target, n_objects, n_slots in STATE_TARGETS:
            attrs, objects, count = make_registry_spec(rng, target, n_objects, n_slots)
            registry = build_registry(attrs, objects)
            slots = registry.slots()
            slot_index = int(rng.integers(len(slots)))
            oid, aid = slots[slot_index]
            self.items.append({
                "registry": registry, "states": count, "slot": (oid, aid, slot_index),
                "values": registry.slot_values()[slot_index],
                "perm": rng.permutation(count)})
        self.run_op(self.items[0])

    def run_op(self, item):
        ss, ev = self.ss, self.ev
        registry = item["registry"]
        oid, aid, idx = item["slot"]
        values = item["values"]
        whole = ss.full_state(registry)
        slices = [ss.state_slice(whole, oid, aid, v) for v in values]
        either = ss.combine(slices[0], slices[1], "OR")
        both = ss.combine(either, slices[1], "AND")
        rest = ss.combine(whole, slices[0], "NOT")
        shares = [ss.relative_volume(s, whole) for s in slices]
        states = list(ss.all_exact_states(registry))
        rule = ev.EvolutionRule(images={z: frozenset([states[j]])
                                        for z, j in zip(states, item["perm"])})
        prop = ss.PropertySpec(id=f"{oid}.{aid}",
                               labels=tuple(float(k + 1) for k in range(len(values))),
                               valuation=lambda z: values.index(z.values[idx]))
        alts = ev.make_alternatives(whole, prop, dict(enumerate(slices)),
                                    {k: ev.Knowability.DECIDED for k in range(len(values))})
        probs = [ev.probability(a, whole) for a in alts.alternatives]
        inv = ev.check_invariance(whole, alts, rule, steps=2)
        return {"volume": ss.volume(whole), "slices": [ss.volume(s) for s in slices],
                "or": ss.volume(either), "and": ss.volume(both), "not": ss.volume(rest),
                "shares": sum(shares), "probs": sum(probs),
                "deviation": inv.max_deviation}

    def ops(self, in_process):
        return [(f"registry.{item['states']}", lambda item=item: self.run_op(item),
                 lambda r, item=item: self.check(r, item)) for item in self.items]

    @staticmethod
    def check(r, item):
        n = item["states"]
        v0, v1 = r["slices"][0], r["slices"][1]
        problems = [
            (r["volume"] == n, f"full state has {r['volume']} members, slots give {n}"),
            (sum(r["slices"]) == n, "slice volumes do not add up to the whole"),
            (r["or"] == v0 + v1, "OR of disjoint slices is not additive"),
            (r["and"] == v1, "AND does not recover the slice"),
            (r["not"] == n - v0, "NOT volume is not whole minus slice"),
            (r["shares"] == 1, "relative volumes do not sum to 1"),
            (r["probs"] == 1, "alternative probabilities do not sum to 1"),
            (r["deviation"] == 0, "evolution broke volume invariance")]
        bad = [msg for ok, msg in problems if not ok]
        return "; ".join(bad) or None

    def facts(self, results):
        return {"states": sum(item["states"] for item in self.items)}

    def meta(self):
        return {"state_counts": [item["states"] for item in self.items]}


BUNDLED = ("branching", "mach-zehnder-detected", "mach-zehnder-open", "twin-eraser")
COMMANDS = ("propagate", "montecarlo", "hilbert", "validate")
SEEDED_FILES = 3


def cli_inputs():
    """(label, scenario name, arguments) of every bundled-scenario run."""
    runs = [(f"{s}.{c}", s, ["--command", c]) for s in BUNDLED for c in COMMANDS]
    runs += [("twin-eraser.propagate.eraser", "twin-eraser", ["--command", "propagate", "--eraser"]),
             ("twin-eraser.propagate.no-eraser", "twin-eraser",
              ["--command", "propagate", "--no-eraser"]),
             ("mach-zehnder-detected.montecarlo.n1e7", "mach-zehnder-detected",
              ["--command", "montecarlo", "--n", "10000000"])]
    return runs


def make_scenario_doc(rng, index):
    """A scenario with a wider float network, amplitudes as [re, im] pairs."""
    depth = int(rng.integers(2, 5))
    levels = [int(rng.choice([1, 3])) for _ in range(depth - 1)] + [3]
    widths = [int(rng.integers(2, 9))]
    for lv in levels[:-1]:
        lo = widths[-1] if lv == 1 else 2
        widths.append(int(rng.integers(lo, 9)))
    initial = _float_row(rng, widths[0])
    matrices = [_float_isometry(rng, widths[i], widths[i + 1]) if levels[i] == 1
                else [_float_row(rng, widths[i + 1]) for _ in range(widths[i])]
                for i in range(depth - 1)]
    pair = lambda z: [z.real, z.imag]
    doc = {"name": f"seeded-{index}",
           "description": "Generated float network for the benchmark.",
           "context": {
               "layers": [{"property": f"L{i}", "level": lv,
                           "labels": [k + 1 for k in range(w)]}
                          for i, (lv, w) in enumerate(zip(levels, widths))],
               "initial": [pair(a) for a in initial],
               "matrices": [[[pair(a) for a in row] for row in m] for m in matrices]},
           "run": {"command": "propagate", "seed": 1}}
    reference = reference_distribution(levels, initial, matrices)
    return doc, [float(p) for p in reference], widths


def compare_result(got, want, path="result"):
    """Every field of ``want`` must be in ``got``; floats within 1e-12.

    Keys that ``want`` does not name are allowed, so an added block such as
    a diagnostics section is not a failure.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for k, v in want.items():
            if k not in got:
                return f"{path}.{k}: missing"
            err = compare_result(got[k], v, f"{path}.{k}")
            if err:
                return err
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: expected a list of {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            err = compare_result(g, w, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if abs(got - want) <= PROB_TOL else f"{path}: {got} != {want}"
    return None if got == want else f"{path}: {got!r} != {want!r}"


class CliScenarios(Workload):
    name = "cli-scenarios"

    def setup(self, seed, work_dir):
        import epiq.cli
        self.cli = epiq.cli
        self.root = Path.cwd()
        self.work_dir = Path(work_dir)
        scenario_dir = self.work_dir / "scenarios"
        scenario_dir.mkdir(parents=True, exist_ok=True)
        (self.work_dir / "out").mkdir(exist_ok=True)
        bundled_dir = self.root / "src" / "epiq" / "scenarios"
        with open(REFERENCE_DIR / "cli.json") as fh:
            reference = json.load(fh)
        self.runs = []
        for label, scenario, args in cli_inputs():
            self.runs.append({"label": label, "path": bundled_dir / f"{scenario}.json",
                              "args": args, "reference": reference[label]})
        rng = _rng(seed, 3)
        self.widths = {}
        for i in range(SEEDED_FILES):
            doc, probs, widths = make_scenario_doc(rng, i)
            path = scenario_dir / f"{doc['name']}.json"
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.widths[doc["name"]] = widths
            labels = [float(k + 1) for k in range(widths[-1])]
            self.runs.append({"label": f"{doc['name']}.propagate", "path": path,
                              "args": ["--command", "propagate"],
                              "reference": {"exit": 0, "probabilities": probs,
                                            "labels": labels}})
            self.runs.append({"label": f"{doc['name']}.validate", "path": path,
                              "args": ["--command", "validate"],
                              "reference": {"exit": 0, "result": {"valid": True, "errors": []}}})
        self.child_rss_kb = 0

    def _argv(self, run, out_dir):
        return [str(run["path"]), *run["args"], "--out-dir", str(out_dir)]

    def run_child(self, run, out_dir):
        """One CLI invocation in a fresh interpreter; returns its exit code."""
        cmd = [sys.executable, "-m", "epiq.cli", *self._argv(run, out_dir)]
        with open(out_dir.parent / f"{out_dir.name}.log", "wb") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, cwd=self.root)
            # wait4 gives this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def run_in_process(self, run, out_dir):
        """The same invocation through epiq.cli.main in this process."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                self.cli.main(args=self._argv(run, out_dir), prog_name="epiq",
                              standalone_mode=True)
            except SystemExit as e:
                return e.code if isinstance(e.code, int) else 1
        return 0

    def ops(self, in_process):
        out = []
        for i, run in enumerate(self.runs):
            out_dir = self.work_dir / "out" / str(i)

            def fn(run=run, out_dir=out_dir):
                code = (self.run_in_process if in_process else self.run_child)(run, out_dir)
                return code, out_dir

            out.append((run["label"], fn, lambda r, run=run: self.check(r, run)))
        return out

    def before_pass(self):
        """Remove result files so a check never reads a stale one."""
        for path in (self.work_dir / "out").glob("*/*"):
            path.unlink()

    @staticmethod
    def check(result, run):
        code, out_dir = result
        want = run["reference"]
        if code != want["exit"]:
            return f"exit code {code}, expected {want['exit']}"
        if code != 0:
            return None
        files = list(out_dir.glob("*.json"))
        if len(files) != 1:
            return f"expected one JSON result in {out_dir}, found {len(files)}"
        with open(files[0]) as fh:
            payload = json.load(fh)
        result = payload.get("result", {})
        if "probabilities" in want:
            if result.get("labels") != want["labels"]:
                return "labels differ from the generated network"
            if not _close(result.get("probabilities", []), want["probabilities"]):
                return "distribution differs from the reference by more than 1e-12"
            return None
        if "montecarlo" in run["args"]:
            # checked by outcome, not by bytes: the sampled stream may change
            return compare_result(result, {k: want["result"][k]
                                           for k in ("n", "seed", "all_pass")})
        return compare_result(result, want["result"])

    def peak_rss_mb(self):
        return self.child_rss_kb / 1024

    def meta(self):
        return {"runs": len(self.runs), "seeded_widths": self.widths}


WORKLOADS = {w.name: w for w in (UniquenessTable, PropagateDepth, CliScenarios, StateSpace)}
