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
from .spaces import Bracket, CompactSetModel, NormSpec, scale_set, sup_norm

EXPERIMENT_KINDS = (
    "entropy",
    "linear-width",
    "nonlinear-width",
    "lipschitz",
    "carl",
    "entropy-from-width",
    "L6",
    "mterm",
    "ksigma-reproduce",
)

_COMMON_KEYS = {"kind", "seed", "set", "alpha", "truncation", "scale",
                "cloud_points", "cloud_dim", "cloud_norm"}
_KIND_KEYS = {
    "entropy": {"n_values", "eps_values", "sides"},
    "linear-width": {"n_values"},
    "nonlinear-width": {"n_values", "big_n_values"},
    "lipschitz": {"n", "big_n", "pairs"},
    "carl": {"r_values", "window", "lambda", "a", "e_series", "d_series"},
    "entropy-from-width": {"n_values", "big_n_values"},
    "L6": {"alpha_exp", "beta_exp", "lambda", "window"},
    "mterm": {"dict_size", "n_k", "a2", "m", "count"},
    "ksigma-reproduce": {"n_values", "window"},
}
_STOCHASTIC_KINDS = {"entropy", "linear-width", "nonlinear-width", "lipschitz",
                     "entropy-from-width", "mterm"}


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
        raise ConfigError("empty value list")
    return vals


def _parse_window(text: str) -> tuple[int, int]:
    vals = _parse_values(text, int)
    if len(vals) != 2 or vals[0] > vals[1]:
        raise ConfigError(f"window must be 'lo,hi' with lo <= hi, got {text!r}")
    return vals[0], vals[1]


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
        allowed = _COMMON_KEYS | _KIND_KEYS[kind]
        for key in raw:
            if key not in allowed:
                raise ConfigError(f"[{section}] {key}: unknown key for kind {kind}")
        seed = int(raw["seed"]) if "seed" in raw else None
        set_kind = raw.get("set", "ksigma")
        if seed is None and (kind in _STOCHASTIC_KINDS or set_kind == "cloud"):
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
    scale = float(opts.get("scale", 1.0))
    if set_kind == "ksigma":
        alpha = float(opts.get("alpha", 1.0))
        J = int(opts.get("truncation", 33))
        K = CompactSetModel.ksigma(alpha, J).as_cloud()
    elif set_kind == "cloud":
        m = int(opts.get("cloud_points", 32))
        d = int(opts.get("cloud_dim", 3))
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
    ns = _parse_values(cfg.options.get("n_values", "0,1,2"))
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
        for eps in _parse_values(cfg.options["eps_values"], float):
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
    for n in _parse_values(cfg.options.get("n_values", "0,1,2")):
        res = widths.linear_width(K, n, seed=cfg.seed)
        _bracket_row(out, cfg, K, n, 1, "linear_width", res.bracket, cfg.seed)
    return out


def _run_nonlinear_width(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    K = build_set(cfg)
    ns = _parse_values(cfg.options.get("n_values", "1"))
    Ns = _parse_values(cfg.options.get("big_n_values", "2"))
    for n in ns:
        for N in Ns:
            res = widths.nonlinear_width(K, n, N, seed=cfg.seed)
            _bracket_row(out, cfg, K, n, N, "nonlinear_width", res.bracket, cfg.seed)
    return out


def _run_lipschitz(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    K = build_set(cfg)
    n = int(cfg.options.get("n", 1))
    N = int(cfg.options.get("big_n", 2))
    pairs = int(cfg.options.get("pairs", 100_000))
    s = max(1e-300, sup_norm(K))
    Ks = scale_set(K, 1.0 / s)
    res = widths.nonlinear_width(
        CompactSetModel.cloud(Ks.points, label=Ks.label), n, N, seed=cfg.seed
    )
    bases = res.witness.bases
    specs = {"phi": lipschitz.build_phi(bases), "psi": lipschitz.build_psi(bases)}
    if not K.norm.is_euclidean:
        theta, xi = lipschitz.build_theta_xi(bases, K.norm)
        specs.update({"theta": theta, "xi": xi})
    for name, spec in specs.items():
        est = lipschitz.estimate_lipschitz(spec, pairs=pairs, seed=cfg.seed)
        status = harness.HOLDS if est <= spec.gamma + 1e-9 else harness.VIOLATED
        if status == harness.HOLDS:
            br = Bracket(min(est, spec.gamma), spec.gamma, exact=False,
                         lower_method="sampled-pairs", upper_method="claimed-constant")
        else:
            # a sampled pair proves the constant is at least est, and the
            # claimed one is no upper bound
            br = Bracket(est, math.inf, exact=False, lower_method="sampled-pairs",
                         upper_method="claimed-constant-refuted")
        _bracket_row(out, cfg, K, n, N, f"lipschitz_{name}", br, cfg.seed)
        _add_verdict(out, cfg, harness.Verdict(
            f"lipschitz-{name}-bound", status, est, (n, N),
            f"sampled {est:.6g} vs claimed {spec.gamma:.6g} ({pairs} pairs)"))
    _add_verdict(out, cfg, harness.check_width_chain(K, n, N, seed=cfg.seed))
    return out


def _ksigma_series(cfg: ExperimentConfig, window):
    alpha = float(cfg.options.get("alpha", 1.0))
    lo, hi = window
    e = harness.ksigma_entropy_series(alpha, range(0, max(hi + 1, 200)))
    d = harness.ksigma_linear_width_series(alpha, range(0, hi))
    return alpha, e, d


def _run_carl(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    window = _parse_window(cfg.options.get("window", "1,12"))
    rs = _parse_values(cfg.options.get("r_values", "1"), float)
    if "e_series" in cfg.options or "d_series" in cfg.options:
        evals = _parse_values(cfg.options["e_series"], float)
        dvals = _parse_values(cfg.options["d_series"], float)
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
        lam = float(cfg.options["lambda"])
        d_lam = harness.ksigma_nonlinear_width_series(alpha, ("lambda", lam),
                                                      range(1, window[1] + 1))
        for r in rs:
            v = harness.check_generalized_carl(e, d_lam, r, ("lambda", lam), window)
            _add_verdict(out, cfg, v)
    if "a" in cfg.options:
        a = float(cfg.options["a"])
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
    fit = harness.fit_rate(series, "log-only", fit_window)
    xs = np.array([[k, series[k].mid] for k in sorted(series)])
    out.plots[f"{cfg.exp_id}_entropy_series.dat"] = (
        f"# fit: log-only C/(log2 n)^alpha: C={fit.params['C']:.9g}, "
        f"alpha={fit.params['alpha']:.9g}, residual={fit.residual:.3e}",
        xs,
    )
    return out


def _run_entropy_from_width(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    K = build_set(cfg)
    ns = _parse_values(cfg.options.get("n_values", "1"))
    Ns = _parse_values(cfg.options.get("big_n_values", "2"))
    for n in ns:
        for N in Ns:
            v = harness.check_entropy_from_width(K, n, N, seed=cfg.seed or 0)
            _add_verdict(out, cfg, v)
    return out


def _run_l6(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    alpha = float(cfg.options.get("alpha", 1.0))
    a_exp = float(cfg.options.get("alpha_exp", 1.0))
    b_exp = float(cfg.options.get("beta_exp", 0.0))
    lam = float(cfg.options.get("lambda", 2.0))
    window = _parse_window(cfg.options.get("window", "4,12"))
    w = harness.ksigma_nonlinear_width_series(alpha, ("lambda", lam),
                                              range(1, window[1] + 1))
    m_max = math.ceil(2 * a_exp * window[1] * math.log2(window[1])) + 1
    e = harness.ksigma_entropy_series(alpha, range(0, m_max + 1))
    v = harness.check_L6_schedule(w, e, a_exp, b_exp, lam, window)
    _add_verdict(out, cfg, v)
    return out


def _run_mterm(cfg: ExperimentConfig) -> _Output:
    out = _Output()
    J = int(cfg.options.get("dict_size", 64))
    n_k = int(cfg.options.get("n_k", 8))
    a2 = float(cfg.options.get("a2", 2.0))
    m = int(cfg.options.get("m", 4))
    count = int(cfg.options.get("count", 100))
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
    alpha = float(cfg.options.get("alpha", 1.0))
    ns = _parse_values(cfg.options.get("n_values", "1,2,3,4,5,6"))
    series = {}
    all_ok = True
    for n in ns:
        K = CompactSetModel.ksigma(alpha, truncation=2**n + 8)
        br = ent.entropy_number(K, n, inner=True)
        cf = ent.ksigma_nested_cover_radius(alpha, n)
        _bracket_row(out, cfg, K, n, None, "inner_entropy", br, cfg.seed)
        _bracket_row(out, cfg, K, n, None, "inner_entropy_closed_form",
                     Bracket.exactly(cf, "nested-cover-formula"), cfg.seed)
        all_ok &= br.contains(cf, slack=K.tail_gap + 1e-9)
        series[n] = Bracket.exactly(cf)
    status = harness.HOLDS if all_ok else harness.VIOLATED
    _add_verdict(out, cfg, harness.Verdict(
        "ksigma-entropy-containment", status, None, (min(ns), max(ns)),
        "numeric bracket contains the closed form within 1e-9 + tail gap"))
    window = _parse_window(cfg.options.get("window", f"{max(3, min(ns))},{max(ns)}"))
    usable = {n: series[n] for n in series if window[0] <= n <= window[1]}
    if len(usable) >= 4:
        fit = harness.fit_rate(usable, "log-only", window)
        xs = np.array([[n, usable[n].mid] for n in sorted(usable)])
        out.plots[f"{cfg.exp_id}_closed_form.dat"] = (
            f"# fit: log-only C/(log2 n)^alpha: C={fit.params['C']:.9g}, "
            f"alpha={fit.params['alpha']:.9g}, residual={fit.residual:.3e}",
            xs,
        )
    return out


_RUNNERS = {
    "entropy": _run_entropy,
    "linear-width": _run_linear_width,
    "nonlinear-width": _run_nonlinear_width,
    "lipschitz": _run_lipschitz,
    "carl": _run_carl,
    "entropy-from-width": _run_entropy_from_width,
    "L6": _run_l6,
    "mterm": _run_mterm,
    "ksigma-reproduce": _run_ksigma_reproduce,
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
        result = _RUNNERS[cfg.kind](cfg)
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
