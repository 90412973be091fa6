"""Experiment configuration, scenario runners, and report serialization.

Scenarios are declarative: a JSON config names the model, the temperature,
the weight functions and the replica coupling; the runner produces a Report
whose records are deterministic for a fixed (config, seed).  CSV output
contains the records only (byte stable); JSON adds metadata and round-trips.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import __version__
from .classical import (
    bottleneck_ratio,
    classical_defected_ising_energy,
    classical_gap,
    classical_re_generator,
    glauber_generator,
)
from .hamiltonians import HamiltonianSpec, assemble_dense, defected_heisenberg_2d, defected_ising_1d
from .lindblad import (
    QUAD_ABS_TOL,
    WEIGHT_KINDS,
    WeightFunction,
    alpha_quadrature,
    build_ckg_generator,
    eigensystem,
    theta,
)
from .mixing import mixing_time_estimate
from .pauli import single_site_paulis
from .replica import (
    build_global_replica_generator,
    build_replica_exchange_generator,
    check_global_size,
    joint_structure,
)
from .spectral import (
    HERMITICITY_TOL,
    KERNEL_TOL,
    UnresolvedGapError,
    a_diagonal_restriction_gap,
    spectral_gap,
)
from .verify import run_verification


class ConfigError(ValueError):
    """Invalid or missing configuration field."""


class ResourceGuardError(RuntimeError):
    """Requested problem exceeds the configured superoperator dimension."""


# the CSV columns of each scenario's records, in order; its keys are the scenarios
CSV_COLUMNS = {
    "gap": ["J", "beta", "gap", "kernel_dim", "kms_norm", "eigs", "tol"],
    "sweep": ["J", "beta", "gap_single", "gap_re", "g_B", "bound_ratio", "status", "error"],
    "mixing": ["state_id", "t_cross"],
    "verify": ["check", "passed", "detail"],
    "theta": ["beta_omega", "theta_closed", "theta_quadrature", "abs_diff"],
    "classical": ["J", "beta", "gap_single", "gap_re", "phi_star", "phi_mode", "status", "error"],
}
SCENARIOS = tuple(CSV_COLUMNS)
# the main theorem's lower bound on gap_re carries a factor 1/4 that
# ``bound_ratio`` leaves out, so the bound holds where the ratio is at least this
BOUND_RATIO_FLOOR = 0.25
SWEEP_NUMBERS = ("gap_single", "gap_re", "g_B", "bound_ratio")

DEFAULT_CONFIG = {
    "system": {"model": "defected_ising", "n": 3, "J": 3.0},
    "beta": 1.0,
    "weight": "metropolis",
    "replica": {"mode": "local_A", "swap_weight": "metropolis",
                "weight": "gaussian", "beta2": None},
    "scenario": "gap",
    "sweep": {"param": "J", "values": [1.0, 2.0, 3.0, 4.0, 5.0]},
    "seed": 42,
    "epsilon": 1e-2,
    "max_dim": 4096,
    "output": {"path": None, "format": "csv"},
}


@dataclass
class ExperimentConfig:
    system: dict
    beta: float
    weight: str
    replica: dict
    scenario: str
    sweep: dict
    seed: int
    epsilon: float
    max_dim: int
    output: dict


@dataclass
class Report:
    """A scenario's result; its fields are the keys of the JSON report (``emit``)."""

    scenario: str
    records: list
    wall_time: float
    version: str
    tolerances: dict
    summary: dict = field(default_factory=dict)


def validate_config(raw) -> ExperimentConfig:
    if "couplings" in raw:
        raise ConfigError("field 'couplings': not supported; the generators always use "
                          "every single-site Pauli as a coupling")
    merged = {**DEFAULT_CONFIG, **raw}
    # system is a whole value (a raw fragment must not inherit the default
    # model name); the other dict fields merge field-by-field
    merged["system"] = dict(raw.get("system") or DEFAULT_CONFIG["system"])
    for key in ("n", "rows", "cols"):
        if key in merged["system"]:
            merged["system"][key] = _integer(merged["system"][key], f"system.{key}")
    for key in ("replica", "sweep", "output"):
        base = dict(DEFAULT_CONFIG[key])
        base.update(merged.get(key) or {})
        merged[key] = base
    if merged["scenario"] not in SCENARIOS:
        raise ConfigError(f"field 'scenario': unknown value {merged['scenario']!r}, "
                          f"expected one of {SCENARIOS}")
    if merged["weight"] not in WEIGHT_KINDS:
        raise ConfigError(f"field 'weight': unknown value {merged['weight']!r}")
    rep = merged["replica"]
    if rep["mode"] not in MODE_BUILDERS:
        raise ConfigError(f"field 'replica.mode': unknown value {rep['mode']!r}")
    if rep["swap_weight"] != "metropolis":
        raise ConfigError("field 'replica.swap_weight': only 'metropolis' is supported")
    if rep["weight"] not in WEIGHT_KINDS:
        raise ConfigError(f"field 'replica.weight': unknown value {rep['weight']!r}")
    if rep["beta2"] is not None:
        rep["beta2"] = _number(rep["beta2"], "replica.beta2")
        if rep["beta2"] <= 0:
            raise ConfigError("field 'replica.beta2': must be null or positive")
    sweep = merged["sweep"]
    if sweep["param"] not in ("J", "beta"):
        raise ConfigError(f"field 'sweep.param': must be 'J' or 'beta'")
    if not isinstance(sweep["values"], list) or not sweep["values"]:
        raise ConfigError("field 'sweep.values': must be a non-empty list of numbers")
    sweep["values"] = [_number(v, "sweep.values") for v in sweep["values"]]
    if sweep["param"] == "beta" and min(sweep["values"]) <= 0:
        raise ConfigError("field 'sweep.values': a beta sweep needs positive values")
    epsilon = _number(merged["epsilon"], "epsilon")
    if not 0 < epsilon < 1:
        raise ConfigError("field 'epsilon': must lie in (0, 1)")
    if merged["output"]["format"] not in ("csv", "json"):
        raise ConfigError(f"field 'output.format': must be 'csv' or 'json'")
    beta = _number(merged["beta"], "beta")
    if beta <= 0:
        raise ConfigError("field 'beta': must be positive")
    max_dim = _integer(merged["max_dim"], "max_dim")
    if max_dim < 1:
        raise ConfigError("field 'max_dim': must be at least 1")
    return ExperimentConfig(
        system=merged["system"],
        beta=beta,
        weight=merged["weight"],
        replica=merged["replica"],
        scenario=merged["scenario"],
        sweep=merged["sweep"],
        seed=_integer(merged["seed"], "seed"),
        epsilon=epsilon,
        max_dim=max_dim,
        output=merged["output"],
    )


def _number(value, field):
    """``value`` as a finite float; ConfigError naming the field if it is not one."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field {field!r}: not a number")
    if not np.isfinite(number):
        raise ConfigError(f"field {field!r}: not a finite number")
    return number


def _integer(value, field):
    """``value`` as an int; a float must be integral (3.0 is 3, 3.7 is a ConfigError)."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"field {field!r}: not an integer")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field {field!r}: not an integer")


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(raw)


def build_system(config: ExperimentConfig, J=None) -> HamiltonianSpec:
    """The HamiltonianSpec of config.system, with the defect strength J if given.

    A system the model builders reject (say a ring with n < 3) is a
    ConfigError naming the field.
    """
    try:
        return _system_spec(config, J)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"field 'system': missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'system': {exc}") from exc


def _system_spec(config: ExperimentConfig, J) -> HamiltonianSpec:
    sys = config.system
    model = sys.get("model")
    strength = J if J is not None else sys.get("J", DEFAULT_CONFIG["system"]["J"])
    if model == "defected_ising":
        return defected_ising_1d(sys.get("n", DEFAULT_CONFIG["system"]["n"]), float(strength))
    if model == "defected_heisenberg":
        return defected_heisenberg_2d(sys["rows"], sys["cols"], tuple(sys["A"]),
                                      tuple(sys["defect_edge"]), float(strength))
    if "terms" in sys:
        spec = HamiltonianSpec.from_json_dict(sys)
        if J is not None:
            if spec.defect is None:
                raise ConfigError("field 'sweep': J sweep on a raw system needs a defect entry")
            edge, _ = spec.defect
            terms = []
            for t in spec.terms:
                if t.support == set(edge) and all(lab == "Z" for _, lab in t.factors):
                    terms.append(type(t)(-float(J), t.factors))
                else:
                    terms.append(t)
            spec = HamiltonianSpec(n=spec.n, terms=tuple(terms), partition=spec.partition,
                                   defect=(edge, float(J)))
        return spec
    raise ConfigError(f"field 'system': unknown model {model!r} and no raw terms")


def _guard_dims(config: ExperimentConfig, spec: HamiltonianSpec):
    dim = 2**spec.n
    if config.replica["mode"] == "local_A" and spec.partition is not None:
        dim *= 2 ** len(spec.partition[0])
    elif config.replica["mode"] == "global":
        dim = dim * dim
    if dim * dim > config.max_dim:
        raise ResourceGuardError(
            f"superoperator dimension {dim * dim} exceeds guard {config.max_dim}; "
            "raise --max-dim to override"
        )
    if config.replica["mode"] == "global":
        try:
            check_global_size(spec.n)
        except ValueError as exc:
            raise ResourceGuardError(str(exc)) from exc


def _classical_ring_size(config: ExperimentConfig):
    """The ring size of a ``classical`` run: the J sweep on the defected Ising ring, n = 3..6."""
    if config.system.get("model") != "defected_ising":
        raise ConfigError(f"field 'system.model': the classical baseline runs the "
                          f"defected_ising ring, not {config.system.get('model')!r}")
    if config.sweep["param"] != "J":
        raise ConfigError("field 'sweep.param': the classical baseline sweeps J only")
    n = config.system.get("n", DEFAULT_CONFIG["system"]["n"])
    if n < 3:
        raise ConfigError(f"field 'system.n': the ring needs n >= 3, got {n}")
    if n > 6:
        raise ResourceGuardError(f"classical replica chain gated at n <= 6 (4^n states), "
                                 f"got n = {n}")
    return n


class _Point:
    """``spec`` at ``beta``; H's eigensystem and the cut analysis are made on first use, once."""

    def __init__(self, spec, beta):
        self.spec, self.beta = spec, beta

    @cached_property
    def es(self):
        return eigensystem(assemble_dense(self.spec))

    @cached_property
    def js(self):
        """The commuting-cut labels; ConfigError without a partition or a commuting cut."""
        try:
            return joint_structure(self.spec)
        except ValueError as exc:
            raise ConfigError(f"field 'replica.mode': local_A needs a system partition with a "
                              f"commuting cut: {exc}") from exc


def _single_system(p: _Point, config):
    """The single-system generator, with the weight ``config.weight``."""
    return build_ckg_generator(p.es, single_site_paulis(p.spec.n),
                               WeightFunction(config.weight, p.beta))


def _local_a(p: _Point, config):
    """The local_A replica-exchange generator on the commuting-cut labels."""
    w = WeightFunction(config.replica["weight"], p.beta)
    return build_replica_exchange_generator(p.js, w)


def _global(p: _Point, config):
    """The two-temperature global replica-exchange generator; beta2 defaults to beta."""
    beta2 = p.beta if config.replica["beta2"] is None else config.replica["beta2"]
    w = WeightFunction(config.replica["weight"], p.beta)
    return build_global_replica_generator(p.es, w, beta2)


# the one place the replica mode picks a generator; each carries its Gibbs state
MODE_BUILDERS = {"none": _single_system, "local_A": _local_a, "global": _global}


def _sweep_point(args):
    """The record of one sweep value; ``args`` is (validated config, value), picklable for a pool.

    A point whose gap double precision cannot resolve (UnresolvedGapError)
    is kept with ``status`` "unresolved", the error text in ``error`` and
    NaN numbers; a resolved point has ``status`` "ok" and an empty ``error``.
    """
    config, value = args
    if config.sweep["param"] == "J":
        spec = build_system(config, J=value)
        beta = config.beta
        J = float(value)
    else:
        spec = build_system(config)
        beta = float(value)
        J = spec.defect[1] if spec.defect else float("nan")
    _guard_dims(config, spec)
    try:
        return {"J": J, "beta": beta, **_sweep_numbers(_Point(spec, beta), config),
                "status": "ok", "error": ""}
    except UnresolvedGapError as exc:
        return {"J": J, "beta": beta, **dict.fromkeys(SWEEP_NUMBERS, float("nan")),
                "status": "unresolved", "error": str(exc)}


def _sweep_numbers(p: _Point, config):
    """gap_single, gap_re, g_B and bound_ratio of one sweep point (NaN where the mode has none)."""
    beta, mode = p.beta, config.replica["mode"]
    rec = dict.fromkeys(SWEEP_NUMBERS, float("nan"))
    rec["gap_single"] = spectral_gap(_single_system(p, config)).gap
    if mode != "none":
        rec["gap_re"] = spectral_gap(MODE_BUILDERS[mode](p, config)).gap
    if mode == "local_A":
        # the theorem's bound reads the same commuting-cut analysis as the generator
        js = p.js
        rec["g_B"] = a_diagonal_restriction_gap(js, WeightFunction(config.replica["weight"], beta))
        denom = min(rec["g_B"], 1.0)
        rec["bound_ratio"] = rec["gap_re"] * js.bound_scale(beta) / denom
    return rec


def run_scenario(config: ExperimentConfig, parallel=1) -> Report:
    """Dispatch on config.scenario and assemble the Report."""
    t0 = time.perf_counter()
    tolerances = {"kernel_tol": KERNEL_TOL, "quad_abs_tol": QUAD_ABS_TOL,
                  "hermiticity_tol": HERMITICITY_TOL,
                  "max_dim": config.max_dim, "seed": config.seed}
    summary = {}
    scenario = config.scenario

    if scenario == "gap":
        spec = build_system(config)
        _guard_dims(config, spec)
        rep = spectral_gap(MODE_BUILDERS[config.replica["mode"]](_Point(spec, config.beta), config))
        records = [{"J": spec.defect[1] if spec.defect else float("nan"),
                    "beta": config.beta, **vars(rep)}]

    elif scenario == "sweep":
        jobs = [(config, v) for v in config.sweep["values"]]
        if parallel > 1:
            from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

            with ProcessPoolExecutor(max_workers=parallel) as pool:
                records = list(pool.map(_sweep_point, jobs))
        else:
            records = [_sweep_point(j) for j in jobs]
        gaps = [r["gap_single"] for r in records]
        summary["gap_single_ratio"] = gaps[-1] / gaps[0] if gaps[0] else float("nan")
        res = [r["gap_re"] for r in records if np.isfinite(r["gap_re"])]
        if res:
            summary["gap_re_max_over_min"] = max(res) / min(res)
        ratios = [r["bound_ratio"] for r in records if np.isfinite(r["bound_ratio"])]
        if ratios:  # the resolved local_A points
            summary["bound_ratio_min"] = float(min(ratios))
            summary["bound_holds"] = bool(min(ratios) >= BOUND_RATIO_FLOOR)

    elif scenario == "mixing":
        spec = build_system(config)
        _guard_dims(config, spec)
        L = _single_system(_Point(spec, config.beta), config)
        mrep = mixing_time_estimate(L, config.epsilon, seed=config.seed)
        records = [{"state_id": sid, "t_cross": t} for sid, t in mrep.crossings]
        summary = {k: v for k, v in vars(mrep).items() if k != "crossings"}

    elif scenario == "verify":
        records = run_verification(seed=config.seed, beta=config.beta)
        summary["passed"] = all(r["passed"] for r in records)
        summary["n_failed"] = sum(not r["passed"] for r in records)

    elif scenario == "theta":
        beta = config.beta
        xs = np.linspace(-20.0, 20.0, 401)
        closed = theta(xs)
        quad = alpha_quadrature(xs / beta, xs / beta, WeightFunction("metropolis", beta))
        diff = np.abs(closed - quad)
        records = [{"beta_omega": float(x), "theta_closed": float(c), "theta_quadrature": float(q),
                    "abs_diff": float(e)} for x, c, q, e in zip(xs, closed, quad, diff)]
        summary["max_abs_diff"] = float(diff.max())

    elif scenario == "classical":
        n = _classical_ring_size(config)
        beta1 = config.beta
        beta2 = 0.2 if config.replica["beta2"] is None else config.replica["beta2"]
        records = []
        for J in config.sweep["values"]:
            efn = lambda z: classical_defected_ising_energy(z, float(J))
            chain = glauber_generator(efn, n, beta1)
            rec = {"J": float(J), "beta": beta1, "phi_star": bottleneck_ratio(chain)[0],
                   "phi_mode": "sweep", "status": "ok", "error": ""}
            try:  # an unresolved gap is kept as in the quantum sweep (_sweep_point)
                rec["gap_single"] = classical_gap(chain)
                rec["gap_re"] = classical_gap(classical_re_generator(efn, n, beta1, beta2))
            except UnresolvedGapError as exc:
                rec.update(gap_single=float("nan"), gap_re=float("nan"), status="unresolved",
                           error=str(exc))
            records.append(rec)
        gaps = [r["gap_single"] for r in records if r["status"] == "ok"]
        if len(gaps) > 1:
            summary["single_collapse"] = max(gaps) / min(gaps)
            res = [r["gap_re"] for r in records if r["status"] == "ok"]
            summary["re_max_over_min"] = max(res) / min(res)

    else:  # pragma: no cover - validate_config blocks this
        raise ConfigError(f"unknown scenario {scenario}")

    return Report(
        scenario=scenario,
        records=records,
        wall_time=time.perf_counter() - t0,
        version=__version__,
        tolerances=tolerances,
        summary=summary,
    )


def _csv_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, list):
        return ";".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                        for v in value)
    return str(value)


def render_csv(report: Report) -> str:
    cols = CSV_COLUMNS[report.scenario]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for rec in report.records:
        writer.writerow([_csv_cell(rec.get(c, "")) for c in cols])
    return buf.getvalue()


def emit(report: Report, fmt: str, path) -> str:
    """Serialize the report; returns the text that was written."""
    if fmt == "csv":
        text = render_csv(report)
    elif fmt == "json":
        text = json.dumps(vars(report), indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"field 'output.format': unknown format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
