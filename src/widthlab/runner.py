"""Config-driven experiment runner with deterministic, reproducible reports.

Configs are INI files: one section per experiment, flat key/value pairs.
Outputs per run: ``results.csv`` (one bracket per row, fixed column order),
``verdicts.json`` (one object per inequality verdict), and one two-column
plot-data file per fitted series.  Given the same config and seed the output
files are byte-identical regardless of the jobs setting: each experiment is
one task whose random streams derive from its own section seed, and rows are
sorted on a deterministic key before writing.  With jobs > 1 the sections run
in fork-started worker processes (serially where fork does not exist), and
the parent prints every progress line and error.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import entropy as ent
from . import harness, lipschitz, mterm, widths
from .spaces import Bracket, CompactSetModel, NormSpec, scale_set

_COMMON_KEYS = {"kind", "seed", "set", "alpha", "truncation", "scale",
                "cloud_points", "cloud_dim", "cloud_norm"}


class ConfigError(ValueError):
    pass


class _ExperimentFailed(Exception):
    """A runtime error inside one experiment, with its traceback formatted
    where it was raised, so a worker process's failure reads as a serial one."""

    def __init__(self, exp_id: str, text: str):
        super().__init__(exp_id, text)
        self.exp_id = exp_id
        self.text = text


@dataclass
class ExperimentConfig:
    exp_id: str
    kind: str
    options: dict
    seed: int | None


@dataclass
class ReportRow:
    experiment_id: str
    set_label: str
    n: int | None
    N: int | None
    quantity: str
    lower: float
    upper: float
    exact: bool
    method: str
    runtime_ms: int
    seed: int | None

    def csv_cells(self) -> list[str]:
        return [
            self.experiment_id,
            self.set_label,
            "" if self.n is None else str(self.n),
            "" if self.N is None else str(self.N),
            self.quantity,
            _fmt(self.lower),
            _fmt(self.upper),
            "true" if self.exact else "false",
            self.method,
            str(self.runtime_ms),
            "" if self.seed is None else str(self.seed),
        ]


CSV_HEADER = ["experiment_id", "set_label", "n", "N", "quantity", "lower",
              "upper", "exact", "method", "runtime_ms", "seed"]


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _parse_values(text: str, cast=int) -> list:
    vals = [cast(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty value list")
    return vals


def _floats(text: str) -> list:
    return _parse_values(text, float)


def _count(text) -> int:
    """A size or count: an integer of at least 1."""
    v = int(text)
    if v < 1:
        raise ValueError(f"must be at least 1, got {v}")
    return v


def _parse_window(text: str) -> tuple[int, int]:
    vals = _parse_values(text, int)
    if len(vals) != 2 or vals[0] > vals[1]:
        raise ValueError(f"must be 'lo,hi' with lo <= hi, got {text!r}")
    return vals[0], vals[1]


def _option(cfg: ExperimentConfig, key: str, default, cast):
    """Option ``key`` (``default`` if absent, required if that is None)
    through ``cast``; a ConfigError names the section and key of a fault."""
    text = cfg.options.get(key, default)
    if text is None:
        raise ConfigError(f"[{cfg.exp_id}] {key}: required")
    try:
        return cast(text)
    except ValueError as exc:
        raise ConfigError(f"[{cfg.exp_id}] {key}: {exc}") from None


def parse_config(path: str | Path) -> list[ExperimentConfig]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    experiments = []
    for section in parser.sections():
        raw = dict(parser.items(section))
        kind = raw.get("kind")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"[{section}] kind: unknown experiment kind {kind!r}")
        _, keys, seeded = EXPERIMENT_KINDS[kind]
        for key in raw:
            if key not in _COMMON_KEYS | keys:
                raise ConfigError(f"[{section}] {key}: unknown key for kind {kind}")
        try:
            seed = int(raw["seed"]) if "seed" in raw else None
        except ValueError as exc:
            raise ConfigError(f"[{section}] seed: {exc}") from None
        set_kind = raw.get("set", "ksigma")
        if seed is None and (seeded or set_kind == "cloud"):
            raise ConfigError(f"[{section}] seed: required for stochastic experiments")
        experiments.append(ExperimentConfig(section, kind, raw, seed))
    if not experiments:
        raise ConfigError(f"config file {path} defines no experiments")
    return experiments


# ---------------------------------------------------------------------------
# set construction


def build_set(cfg: ExperimentConfig) -> CompactSetModel:
    opts = cfg.options
    set_kind = opts.get("set", "ksigma")
    scale = _option(cfg, "scale", 1.0, float)
    if set_kind == "ksigma":
        alpha = _option(cfg, "alpha", 1.0, float)
        J = _option(cfg, "truncation", 33, _count)
        K = CompactSetModel.ksigma(alpha, J)
    elif set_kind == "cloud":
        m = _option(cfg, "cloud_points", 32, _count)
        d = _option(cfg, "cloud_dim", 3, _count)
        norm_text = opts.get("cloud_norm", "euclidean")
        if norm_text == "euclidean":
            norm = NormSpec("euclidean", d)
        elif norm_text == "max":
            norm = NormSpec("max", d)
        elif norm_text.startswith("p:"):
            try:
                norm = NormSpec("pnorm", d, p=float(norm_text[2:]))
            except ValueError as exc:
                raise ConfigError(f"[{cfg.exp_id}] cloud_norm: {norm_text!r}: {exc}") from None
        else:
            raise ConfigError(f"[{cfg.exp_id}] cloud_norm: unknown norm {norm_text!r}")
        rng = np.random.default_rng([cfg.seed, 0])
        pts = rng.normal(size=(m, d))
        K = CompactSetModel.cloud(pts, norm, label=f"cloud(m={m},d={d},seed={cfg.seed})")
    else:
        raise ConfigError(f"[{cfg.exp_id}] set: unknown set kind {set_kind!r}")
    if scale != 1.0:
        K = scale_set(K, scale)
    return K


# ---------------------------------------------------------------------------
# experiment bodies (each returns rows, verdicts, plots)


@dataclass
class _Output:
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    plots: dict = field(default_factory=dict)  # filename -> (header, xy array)


def _bracket_row(out, cfg, K, n, N, quantity, br: Bracket, seed=None):
    method = f"{br.lower_method}/{br.upper_method}"
    if K is not None and K.is_ksigma and K.tail_gap:
        method += f";tail_gap={K.tail_gap:.9g}"
    out.rows.append(ReportRow(cfg.exp_id, K.label if K is not None else "series",
                              n, N, quantity, br.lower, br.upper, br.exact,
                              method, 0, seed))


def _add_verdict(out, cfg, v: harness.Verdict):
    out.verdicts.append({
        "check": f"{cfg.exp_id}:{v.check}",
        "status": v.status,
        "witness": None if v.witness is None else float(v.witness),
        "window": [int(v.window[0]), int(v.window[1])],
        "details": v.details,
    })


def _run_entropy(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    K = build_set(cfg)
    ns = _option(cfg, "n_values", "0,1,2", _parse_values)
    sides = cfg.options.get("sides", "both")
    # the sandwich checks reuse the reported brackets
    for n in ns:
        inner = ent.entropy_number(K, n, inner=True)
        outer = ent.entropy_number(K, n, inner=False)
        if sides in ("inner", "both"):
            _bracket_row(out, cfg, K, n, None, "inner_entropy", inner, cfg.seed)
        if sides in ("outer", "both"):
            _bracket_row(out, cfg, K, n, None, "outer_entropy", outer, cfg.seed)
        for v in harness.entropy_sandwich_verdicts(n, outer, inner):
            _add_verdict(out, cfg, v)
    if "eps_values" in cfg.options:
        for eps in _option(cfg, "eps_values", None, _floats):
            cover = ent.cover_number(K, eps, inner=True)
            packing = ent.packing_number(K, eps)
            _bracket_row(out, cfg, K, None, None, f"cover_number(eps={eps:g})",
                         cover, cfg.seed)
            _bracket_row(out, cfg, K, None, None, f"packing_number(eps={eps:g})",
                         packing, cfg.seed)
            for v in harness.packing_cover_sandwich_verdicts(
                    eps, packing, cover, ent.packing_number(K, 2 * eps)):
                _add_verdict(out, cfg, v)
    return out


def _run_linear_width(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    K = build_set(cfg)
    for n in _option(cfg, "n_values", "0,1,2", _parse_values):
        res = widths.linear_width(K, n, seed=cfg.seed)
        _bracket_row(out, cfg, K, n, 1, "linear_width", res.bracket, cfg.seed)
    return out


def _run_nonlinear_width(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    K = build_set(cfg)
    ns = _option(cfg, "n_values", "1", _parse_values)
    Ns = _option(cfg, "big_n_values", "2", _parse_values)
    for n in ns:
        for N in Ns:
            res = widths.nonlinear_width(K, n, N, seed=cfg.seed)
            _bracket_row(out, cfg, K, n, N, "nonlinear_width", res.bracket, cfg.seed)
    return out


def _run_lipschitz(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    K = build_set(cfg)
    n = _option(cfg, "n", 1, _count)
    N = _option(cfg, "big_n", 2, _count)
    pairs = _option(cfg, "pairs", 100_000, _count)
    # one width fit gives the maps' charts and the width-chain verdict
    s, Ks, res = harness._fit_width_chain(K, n, N, cfg.seed)
    bases = res.witness.bases
    specs = {"phi": lipschitz.build_phi(bases), "psi": lipschitz.build_psi(bases)}
    if not K.norm.is_euclidean:
        theta, xi = lipschitz.build_theta_xi(bases, K.norm)
        specs.update({"theta": theta, "xi": xi})
    for name, spec in specs.items():
        est = lipschitz.estimate_lipschitz(spec, pairs=pairs, seed=cfg.seed)
        status = harness.HOLDS if est <= spec.gamma + 1e-9 else harness.VIOLATED
        if status == harness.HOLDS:
            br = Bracket(min(est, spec.gamma), spec.gamma,
                         lower_method="peak-pairs", upper_method="claimed-constant")
        else:
            # a domain pair proves the constant is at least est, and the
            # claimed one is no upper bound
            br = Bracket(est, math.inf, lower_method="peak-pairs",
                         upper_method="claimed-constant-refuted")
        _bracket_row(out, cfg, K, n, N, f"lipschitz_{name}", br, cfg.seed)
        _add_verdict(out, cfg, harness.Verdict(
            f"lipschitz-{name}-bound", status, est, (n, N),
            f"estimate {est:.12g} vs claimed {spec.gamma:.12g} "
            f"(peak pairs and {pairs} uniform pairs)"))
    _add_verdict(out, cfg, harness._width_chain_verdict(s, Ks, res, (n, N)))
    return out


def _ksigma_series(cfg: ExperimentConfig, window):
    alpha = _option(cfg, "alpha", 1.0, float)
    lo, hi = window
    e = harness.ksigma_entropy_series(alpha, range(0, max(hi + 1, 200)))
    d = harness.ksigma_linear_width_series(alpha, range(0, hi))
    return alpha, e, d


def _log_only_plot(series: dict, window: tuple[int, int]) -> tuple[str, np.ndarray]:
    """A plot of a bracket series: the header of its log-only rate fit over
    window, and its (index, midpoint) rows."""
    fit = harness.fit_rate(series, "log-only", window)
    xs = np.array([[k, series[k].mid] for k in sorted(series)])
    return (f"# fit: log-only C/(log2 n)^alpha: C={fit.params['C']:.9g}, "
            f"alpha={fit.params['alpha']:.9g}, residual={fit.residual:.3e}", xs)


def _run_carl(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    window = _option(cfg, "window", "1,12", _parse_window)
    rs = _option(cfg, "r_values", "1", _floats)
    if "e_series" in cfg.options or "d_series" in cfg.options:
        evals = _option(cfg, "e_series", None, _floats)
        dvals = _option(cfg, "d_series", None, _floats)
        e = {k + 1: Bracket.exactly(v) for k, v in enumerate(evals)}
        d = {j: Bracket.exactly(v) for j, v in enumerate(dvals)}
        window = (1, min(window[1], len(evals), len(dvals)))
        for r in rs:
            v = harness.check_carl(e, d, r, window)
            _add_verdict(out, cfg, v)
            _bracket_row(out, cfg, None, None, None, f"carl_witness(r={r:g})",
                         Bracket.exactly(v.witness or 0.0, "constant-witness"))
        return out
    alpha, e, d = _ksigma_series(cfg, window)
    label = f"ksigma(alpha={alpha:g})"
    for r in rs:
        # conservative witness: envelope over nested windows up to the full one
        nested = [(window[0], hi) for hi in range(window[0] + 1, window[1] + 1)]
        v = harness.witness_envelope(
            lambda w: harness.check_carl(e, d, r, w), nested
        )[-1]
        _add_verdict(out, cfg, v)
        out.rows.append(ReportRow(cfg.exp_id, label, None, None,
                                  f"carl_witness(r={r:g})", v.witness, v.witness,
                                  True, "constant-witness-envelope", 0, cfg.seed))
    if "lambda" in cfg.options:
        lam = _option(cfg, "lambda", None, float)
        d_lam = harness.ksigma_nonlinear_width_series(alpha, ("lambda", lam),
                                                      range(1, window[1] + 1))
        for r in rs:
            v = harness.check_generalized_carl(e, d_lam, r, ("lambda", lam), window)
            _add_verdict(out, cfg, v)
    if "a" in cfg.options:
        a = _option(cfg, "a", None, float)
        max_idx = math.ceil((a + max(rs)) * window[1] * math.log2(window[1])) + 1
        e_big = harness.ksigma_entropy_series(alpha, range(0, max_idx + 1))
        d_pow = harness.ksigma_nonlinear_width_series(alpha, ("power", a),
                                                      range(1, window[1] + 1))
        for r in rs:
            v = harness.check_generalized_carl(e_big, d_pow, r, ("power", a), window)
            _add_verdict(out, cfg, v)
    # rate fit of the entropy-scale series for plot output
    fit_window = (max(3, window[0]), window[1])
    series = {k: e[k] for k in range(fit_window[0], fit_window[1] + 1)}
    out.plots[f"{cfg.exp_id}_entropy_series.dat"] = _log_only_plot(series, fit_window)
    return out


def _run_entropy_from_width(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    K = build_set(cfg)
    ns = _option(cfg, "n_values", "1", _parse_values)
    Ns = _option(cfg, "big_n_values", "2", _parse_values)
    for n in ns:
        for N in Ns:
            v = harness.check_entropy_from_width(K, n, N, seed=cfg.seed or 0)
            _add_verdict(out, cfg, v)
    return out


def _run_l6(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    alpha = _option(cfg, "alpha", 1.0, float)
    a_exp = _option(cfg, "alpha_exp", 1.0, float)
    b_exp = _option(cfg, "beta_exp", 0.0, float)
    lam = _option(cfg, "lambda", 2.0, float)
    window = _option(cfg, "window", "4,12", _parse_window)
    w = harness.ksigma_nonlinear_width_series(alpha, ("lambda", lam),
                                              range(1, window[1] + 1))
    m_max = math.ceil(2 * a_exp * window[1] * math.log2(window[1])) + 1
    e = harness.ksigma_entropy_series(alpha, range(0, m_max + 1))
    v = harness.check_L6_schedule(w, e, a_exp, b_exp, lam, window)
    _add_verdict(out, cfg, v)
    return out


def _run_mterm(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    J = _option(cfg, "dict_size", 64, _count)
    n_k = _option(cfg, "n_k", 8, _count)
    a2 = _option(cfg, "a2", 2.0, float)
    m = _option(cfg, "m", 4, int)
    count = _option(cfg, "count", 100, _count)
    V = mterm.VPOperator(n_k=n_k, A2=a2)
    rng = np.random.default_rng([cfg.seed, 1])
    worst = None
    all_hold = True
    for _ in range(count):
        members = rng.normal(size=(int(rng.integers(1, 6)), J))
        v = mterm.check_sigma_chain(members, V, m)
        all_hold &= v.status == harness.HOLDS
        if worst is None or (v.witness or 0) > (worst.witness or 0):
            worst = v
    status = harness.HOLDS if all_hold else harness.VIOLATED
    _add_verdict(out, cfg, harness.Verdict(
        "m-term-chain-suite", status, worst.witness, (m, V.cutoff),
        f"{count} random coefficient sets (J={J}, n_k={n_k}, A2={a2:g}); "
        f"worst: {worst.details}"))
    out.rows.append(ReportRow(cfg.exp_id, f"random-sets(J={J})", None, None,
                              "m_term_chain_rhs_max", worst.witness, worst.witness,
                              True, "exact-thresholding", 0, cfg.seed))
    return out


def _run_ksigma_reproduce(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    alpha = _option(cfg, "alpha", 1.0, float)
    ns = _option(cfg, "n_values", "1,2,3,4,5,6", _parse_values)
    series = {}
    nested_ok = attained_ok = True
    for n in ns:
        K = CompactSetModel.ksigma(alpha, truncation=2**n + 8)
        br = ent.entropy_number(K, n, inner=True)
        cf = ent.ksigma_nested_cover_radius(alpha, n)
        _bracket_row(out, cfg, K, n, None, "inner_entropy", br, cfg.seed)
        _bracket_row(out, cfg, K, n, None, "inner_entropy_closed_form",
                     Bracket.exactly(cf, "nested-cover-formula"), cfg.seed)
        nested_ok &= br.contains(cf, slack=K.tail_gap + 1e-9)
        attained = ent.ksigma_inner_entropy_attained(alpha, n)
        attained_ok &= br.contains(attained, slack=1e-9 * max(1.0, attained))
        series[n] = Bracket.exactly(cf)
    for check, ok, details in (
            ("ksigma-entropy-containment", nested_ok,
             "numeric bracket contains the closed form within 1e-9 + tail gap"),
            ("ksigma-entropy-attained", attained_ok,
             "numeric bracket contains the attained s_{2^n} within 1e-9 relative")):
        _add_verdict(out, cfg, harness.Verdict(
            check, harness.HOLDS if ok else harness.VIOLATED, None, (min(ns), max(ns)), details))
    window = _option(cfg, "window", f"{max(3, min(ns))},{max(ns)}", _parse_window)
    usable = {n: series[n] for n in series if window[0] <= n <= window[1]}
    if len(usable) >= 4:
        out.plots[f"{cfg.exp_id}_closed_form.dat"] = _log_only_plot(usable, window)
    return out


# kind -> (section body, the keys it reads beyond _COMMON_KEYS, needs a seed)
EXPERIMENT_KINDS = {
    "entropy": (_run_entropy, {"n_values", "eps_values", "sides"}, True),
    "linear-width": (_run_linear_width, {"n_values"}, True),
    "nonlinear-width": (_run_nonlinear_width, {"n_values", "big_n_values"}, True),
    "lipschitz": (_run_lipschitz, {"n", "big_n", "pairs"}, True),
    "carl": (_run_carl, {"r_values", "window", "lambda", "a", "e_series", "d_series"}, False),
    "entropy-from-width": (_run_entropy_from_width, {"n_values", "big_n_values"}, True),
    "L6": (_run_l6, {"alpha_exp", "beta_exp", "lambda", "window"}, False),
    "mterm": (_run_mterm, {"dict_size", "n_k", "a2", "m", "count"}, True),
    "ksigma-reproduce": (_run_ksigma_reproduce, {"n_values", "window"}, False),
}


# ---------------------------------------------------------------------------
# report emission


def emit_report(rows: list[ReportRow], verdicts: list[dict], out_dir: Path,
                plots: dict | None = None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = sorted(rows, key=lambda r: (r.experiment_id, r.quantity,
                                       r.n if r.n is not None else -1,
                                       r.N if r.N is not None else -1,
                                       r.set_label))
    with open(out_dir / "results.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_cells())
    verdicts = sorted(verdicts, key=lambda v: (v["check"], v["details"]))
    with open(out_dir / "verdicts.json", "w", newline="\n") as fh:
        json.dump(verdicts, fh, indent=2)
        fh.write("\n")
    for fname, (header, xy) in sorted((plots or {}).items()):
        with open(out_dir / fname, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for x, y in xy:
                fh.write(f"{_fmt(x)} {_fmt(y)}\n")


def _work(cfg: ExperimentConfig) -> tuple[_Output, float]:
    """Run one section; returns its output and elapsed milliseconds."""
    t0 = time.perf_counter()
    try:
        result = EXPERIMENT_KINDS[cfg.kind][0](cfg)
    except ConfigError:
        raise
    except Exception as exc:
        raise _ExperimentFailed(cfg.exp_id, "".join(traceback.format_exception(exc))) from None
    return result, (time.perf_counter() - t0) * 1000


def _run_sections(experiments: list[ExperimentConfig], jobs: int) -> list:
    """Every section's _work result, in config order: serially, or with
    jobs > 1 on min(jobs, sections) fork-started worker processes."""
    if jobs > 1 and len(experiments) > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # cdist and ConvexHull are imported lazily (spaces.py) and most
            # sections reach them: imported here, every forked worker
            # inherits them instead of importing scipy.spatial on every run
            import scipy.spatial  # noqa: F401

            pool = ProcessPoolExecutor(max_workers=min(jobs, len(experiments)),
                                       mp_context=multiprocessing.get_context("fork"))
            try:
                return list(pool.map(_work, experiments))
            finally:
                pool.shutdown(cancel_futures=True)
    return [_work(cfg) for cfg in experiments]


def run(config_path: str | Path, out_dir: str | Path | None = None,
        seed: int | None = None, jobs: int | None = None, quiet: bool = False) -> int:
    """Execute every experiment in the config; returns the process exit code
    (0 clean, 2 if any verdict is violated, 1 on config or runtime errors)."""
    try:
        experiments = parse_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if seed is not None:
        for cfg in experiments:
            cfg.seed = seed
    out_dir = Path(out_dir) if out_dir is not None else Path("out")
    jobs = max(1, int(jobs or 1))

    try:
        outputs = _run_sections(experiments, jobs)
        rows: list[ReportRow] = []
        verdicts: list[dict] = []
        plots: dict = {}
        for cfg, (o, elapsed) in zip(experiments, outputs):
            if not quiet:
                print(f"[{cfg.exp_id}] {cfg.kind}: {len(o.rows)} rows, "
                      f"{len(o.verdicts)} verdicts ({elapsed:.0f} ms)", file=sys.stderr)
            rows.extend(o.rows)
            verdicts.extend(o.verdicts)
            plots.update(o.plots)
        if not rows:
            print("runtime error: no result rows produced", file=sys.stderr)
            return 1
        emit_report(rows, verdicts, out_dir, plots)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _ExperimentFailed as exc:
        print(f"runtime error in experiment [{exc.exp_id}]:", file=sys.stderr)
        print(exc.text, end="", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    if any(v["status"] == "violated" for v in verdicts):
        return 2
    return 0
