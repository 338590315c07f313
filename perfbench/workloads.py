"""The benchmark's four workloads: inputs made from the seed, one round of
operations, and the checks run on a round's results.

An operation is one config section for the CLI workloads and one public
call for the library workloads.  Every round repeats the same operations on
the same inputs.
"""

from __future__ import annotations

import csv
import contextlib
import filecmp
import io
import json
import shutil
import sys
import traceback
from collections import namedtuple
from pathlib import Path

import numpy as np

import checks as ck
from tracing import PROGRESS, SUITE_CFG, suite_sections
import widthlab as wl
from widthlab import cli, runner

# at the default tol=5e-9 the polytope path runs all 100,000 iterations
# without converging (about 2.3 s a call); 1e-3 converges in a few thousand
JOHN_TOL = 1e-3


Row = namedtuple("Row", "lower upper exact")


def _norm(spec: str, d: int) -> wl.NormSpec:
    if spec.startswith("p:"):
        return wl.NormSpec("pnorm", d, p=float(spec[2:]))
    return wl.NormSpec(spec, d)


def _cloud(rng, m: int, d: int, norm: str = "euclidean", label: str = "cloud"):
    return wl.CompactSetModel.cloud(rng.normal(size=(m, d)), _norm(norm, d), label=label)


class LibraryWorkload:
    """Ordered public calls; each op reads earlier results through ``res``.

    Round k draws its inputs from ``default_rng([seed, k])``: the cost of
    several calls (the enclosing-ball recursion above all) varies several
    fold between inputs, and fresh inputs every round average that out
    within a run instead of leaving it to the seed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.prepare(0)

    def prepare(self, k: int):
        """Build round k's inputs and operations."""
        self.ops: list[tuple[str, object]] = []
        self.build(np.random.default_rng([self.seed, k]))

    def build(self, rng):
        raise NotImplementedError

    def op(self, name: str, fn):
        self.ops.append((name, fn))

    def run_round(self) -> tuple[dict, int, int, str]:
        res: dict = {}
        failed = 0
        for name, fn in self.ops:
            try:
                res[name] = fn(res)
            except Exception:
                failed += 1
                print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return res, len(self.ops), failed, ""

    def after_round(self, res: dict) -> list[str]:
        return self.check(res)

    def finish(self, res: dict) -> list[str]:
        return []

    def summary(self, res: dict) -> tuple[list[Row], list[str]]:
        """Brackets and verdict statuses among the results."""
        brackets, statuses = [], []
        for r in res.values():
            for item in r if isinstance(r, list) else [r]:
                if isinstance(item, wl.WidthResult):
                    item = item.bracket
                if isinstance(item, wl.Bracket):
                    brackets.append(Row(item.lower, item.upper, item.exact))
                elif isinstance(item, wl.Verdict):
                    statuses.append(item.status)
        return brackets, statuses


# ---------------------------------------------------------------------------


class EntropyGeometry(LibraryWorkload):
    """spaces and entropy only: small clouds where branch-and-bound and exact
    packing run, sequence-family sets whose outer pool runs the enclosing
    ball in R^J, dense geometry on clouds of thousands of points, and
    enclosing radii of large clouds."""

    SMALL = (("euc", "euclidean"), ("max", "max"), ("p15", "p:1.5"))

    def build(self, rng):
        self.small = {}
        for tag, norm in self.SMALL:
            K = _cloud(rng, 10, 3, norm, f"small-{tag}")
            diam = ck.diameter(K.points, K.norm.kind, K.norm.p)
            self.small[tag] = (K, (0.3 * diam, 0.55 * diam))
        self.medium = _cloud(rng, 30, 3, label="medium")
        # the sequence family is one analytic model per alpha; it does not
        # depend on the seed
        self.alpha = 1.0
        self.seq11 = wl.CompactSetModel.ksigma(self.alpha, 11)
        self.seq24 = [wl.CompactSetModel.ksigma(a, 24) for a in (0.8, 1.0, 1.2)]
        self.seq_eps = (0.6, 0.9)
        self.large = {"euc": _cloud(rng, 3000, 3, label="large-euc"),
                      "max": _cloud(rng, 3000, 3, "max", "large-max"),
                      "p15": _cloud(rng, 2000, 3, "p:1.5", "large-p15")}
        # the enclosing-ball recursion's cost varies a lot between inputs,
        # so a round takes several
        self.balls = [_cloud(rng, 1000, 3, label=f"ball-euc-{i}") for i in range(3)]

        for tag, (K, eps) in self.small.items():
            for n in (1, 2):
                self.op(f"entropy_number.inner.{tag}.{n}",
                        lambda r, K=K, n=n: wl.entropy_number(K, n, inner=True))
                self.op(f"entropy_number.outer.{tag}.{n}",
                        lambda r, K=K, n=n: wl.entropy_number(K, n, inner=False))
            for i, e in enumerate(eps):
                self.op(f"cover_number.{tag}.{i}", lambda r, K=K, e=e: wl.cover_number(K, e))
                self.op(f"packing_number.{tag}.{i}", lambda r, K=K, e=e: wl.packing_number(K, e))
            self.op(f"greedy_cover.{tag}", lambda r, K=K, e=eps[0]: wl.greedy_cover(K, e))
            self.op(f"max_packing.{tag}", lambda r, K=K, e=eps[0]: wl.max_packing(K, e))
            self.op(f"entropy_sandwich.{tag}", lambda r, K=K: wl.entropy_sandwich(K, [1, 2]))
            self.op(f"packing_cover_sandwich.{tag}",
                    lambda r, K=K, eps=eps: wl.packing_cover_sandwich(K, list(eps)))
        K2 = wl.scale_set(self.small["euc"][0], 2.0)
        self.op("entropy_number.inner.euc-x2.2", lambda r: wl.entropy_number(K2, 2, inner=True))
        for n in (1, 2, 3):
            self.op(f"entropy_number.inner.medium.{n}",
                    lambda r, n=n: wl.entropy_number(self.medium, n, inner=True))
        self.op("entropy_number.outer.medium.2",
                lambda r: wl.entropy_number(self.medium, 2, inner=False))
        for n in (1, 2, 3):
            self.op(f"entropy_number.inner.seq11.{n}",
                    lambda r, n=n: wl.entropy_number(self.seq11, n, inner=True))
        for n in (1, 2):
            self.op(f"entropy_number.outer.seq11.{n}",
                    lambda r, n=n: wl.entropy_number(self.seq11, n, inner=False))
        for i, e in enumerate(self.seq_eps):
            self.op(f"packing_number.seq11.{i}", lambda r, e=e: wl.packing_number(self.seq11, e))
            self.op(f"cover_number.seq11.{i}", lambda r, e=e: wl.cover_number(self.seq11, e))
        for i, K in enumerate(self.seq24):
            self.op(f"entropy_number.outer.seq24-{i}.2",
                    lambda r, K=K: wl.entropy_number(K, 2, inner=False))
        for tag, K in self.large.items():
            self.op(f"entropy_number.inner.large-{tag}.3",
                    lambda r, K=K: wl.entropy_number(K, 3, inner=True))
        for i, K in enumerate(self.balls):
            self.op(f"chebyshev_radius.ball-euc-{i}", lambda r, K=K: wl.chebyshev_radius(K))
        self.op("chebyshev_radius.large-max", lambda r: wl.chebyshev_radius(self.large["max"]))

    def check(self, res: dict) -> list[str]:
        out = []
        for tag, (K, eps) in self.small.items():
            P, kind, p = K.points, K.norm.kind, K.norm.p
            D = ck.dist_matrix(P, P, kind, p)
            for n in (1, 2):
                inner = ck.brute_inner_entropy(D, n)
                if (br := res.get(f"entropy_number.inner.{tag}.{n}")) is not None:
                    out += ck.contains(br, inner, f"inner e_{n} {tag}")
                if (br := res.get(f"entropy_number.outer.{tag}.{n}")) is not None:
                    out += ck.check_outer_entropy(br, inner, f"outer e_{n} {tag}")
            for i, e in enumerate(eps):
                if (br := res.get(f"cover_number.{tag}.{i}")) is not None:
                    out += ck.contains(br, ck.brute_cover_count(D, e), f"cover {tag} eps{i}")
                if (br := res.get(f"packing_number.{tag}.{i}")) is not None:
                    out += ck.contains(br, ck.brute_packing_count(D, e), f"packing {tag} eps{i}")
            if (cov := res.get(f"greedy_cover.{tag}")) is not None:
                out += ck.check_cover_witness(cov, P, kind, p, f"greedy cover {tag}")
            if (pk := res.get(f"max_packing.{tag}")) is not None:
                out += ck.check_packing_witness(pk, kind, p, f"max packing {tag}")
                if pk.cardinality != (best := ck.brute_packing_count(D, eps[0])):
                    out.append(f"max packing {tag}: {pk.cardinality} points, maximum is {best}")
            for key in (f"entropy_sandwich.{tag}", f"packing_cover_sandwich.{tag}"):
                out += ck.verdicts_not_violated(res.get(key, []), key)
        base = res.get("entropy_number.inner.euc.2")
        if base is not None and (br := res.get("entropy_number.inner.euc-x2.2")) is not None:
            out += ck.check_homogeneity(br, base, 2.0, "inner e_2 dilated by 2")

        P = self.medium.points
        DM = ck.dist_matrix(P, P, "euclidean")
        for n in (1, 2, 3):
            if (br := res.get(f"entropy_number.inner.medium.{n}")) is not None:
                out += ck.bracket_shape(br, f"inner e_{n} medium")
                if n < 3:  # C(30, 8) unions per radius is too many for n = 3
                    out += ck.contains(br, ck.brute_inner_entropy(DM, n), f"inner e_{n} medium")

        # sequence family: s_{2^n} is the inner entropy number of the full
        # family; truncation moves it by at most the first dropped element
        Q = ck.ksigma_points(self.alpha, 11)
        DQ = ck.dist_matrix(Q, Q, "euclidean")
        tail = ck.sigma(self.alpha, 12)
        for n in (1, 2, 3):
            if (br := res.get(f"entropy_number.inner.seq11.{n}")) is not None:
                out += ck.contains(br, ck.sigma(self.alpha, 2**n), f"seq11 inner e_{n}",
                                   slack=tail)
                out += ck.contains(br, ck.brute_inner_entropy(DQ, n), f"seq11 inner e_{n} brute")
        for n in (1, 2):
            if (br := res.get(f"entropy_number.outer.seq11.{n}")) is not None:
                out += ck.check_outer_entropy(br, ck.brute_inner_entropy(DQ, n),
                                              f"seq11 outer e_{n}")
        for i, e in enumerate(self.seq_eps):
            if (br := res.get(f"packing_number.seq11.{i}")) is not None:
                out += ck.contains(br, ck.brute_packing_count(DQ, e), f"seq11 packing eps{i}")
            if (br := res.get(f"cover_number.seq11.{i}")) is not None:
                out += ck.contains(br, ck.brute_cover_count(DQ, e), f"seq11 cover eps{i}")
        for i, K in enumerate(self.seq24):
            if (br := res.get(f"entropy_number.outer.seq24-{i}.2")) is not None:
                # J >= 2^n, so the truncated family's inner e_n is s_{2^n} exactly
                what = f"seq24-{i} outer e_2"
                out += ck.check_outer_entropy(br, ck.sigma(K.alpha, 4), what)
                out += ck.check_entropy_lower_cert(br, ck.ksigma_points(K.alpha, 24), 2,
                                                   "euclidean", None, what)

        for tag, K in self.large.items():
            if (br := res.get(f"entropy_number.inner.large-{tag}.3")) is None:
                continue
            what = f"inner e_3 large-{tag}"
            out += ck.bracket_shape(br, what)
            out += ck.check_entropy_upper_witness(br, K.points, 3, K.norm.kind, K.norm.p, what)
            out += ck.check_entropy_lower_cert(br, K.points, 3, K.norm.kind, K.norm.p, what)
        for i, K in enumerate(self.balls):
            if (br := res.get(f"chebyshev_radius.ball-euc-{i}")) is not None:
                out += ck.check_enclosing_radius(br, K.points, "euclidean", None,
                                                 f"enclosing radius ball-euc-{i}")
        if (br := res.get("chebyshev_radius.large-max")) is not None:
            out += ck.check_enclosing_radius(br, self.large["max"].points, "max", None,
                                             "enclosing radius large-max")
        return out


# ---------------------------------------------------------------------------


class WidthFit(LibraryWorkload):
    """widths and lipschitz only: minimax restarts on clouds of 25-60 points,
    the planar exact line, assignment enumeration at m=9, N=3, l1 and max
    norm fits, John ellipsoids of random polytopes, the Lipschitz maps built
    from a subspace family, and the witness-level width chain."""

    def build(self, rng):
        self.c25 = _cloud(rng, 25, 4, label="c25")
        self.c40 = _cloud(rng, 40, 5, label="c40")
        self.c60 = _cloud(rng, 60, 6, label="c60")
        # the k-subspaces heuristic's cost varies a lot between inputs, so a
        # round takes several
        self.c16 = [_cloud(rng, 16, 4, label=f"c16-{i}") for i in range(3)]
        self.plane = _cloud(rng, 100, 2, label="plane")
        self.enum = _cloud(rng, 9, 3, label="enum")
        pts = rng.normal(size=(20, 4))
        self.lp = {"max": wl.CompactSetModel.cloud(pts, _norm("max", 4), label="lp-max"),
                   "l1": wl.CompactSetModel.cloud(pts, _norm("p:1", 4), label="lp-l1")}
        self.poly = {d: (rng.normal(size=(2 * d + 4, d)), rng.normal(size=(2 * d + 4, d)))
                     for d in (3, 5, 8)}
        self.c12 = _cloud(rng, 12, 3, label="c12")
        self.k12 = wl.scale_set(self.c12, 1.0 / wl.sup_norm(self.c12))
        self.chain = [self.c12, _cloud(rng, 12, 3, label="c12b")]
        self.max3 = _norm("max", 3)

        # n = 0 and n = rank take the exact paths
        for K, ns in ((self.c25, (0, 1, 2)), (self.c40, (2, 5)), (self.c60, (3,))):
            for n in ns:
                self.op(f"linear_width.{K.label}.{n}",
                        lambda r, K=K, n=n: wl.linear_width(K, n, seed=self.seed))
        for t in (0.5, -3.0):
            Kt = wl.scale_set(self.c25, t)
            self.op(f"linear_width.c25x{t:g}.2", lambda r, Kt=Kt: wl.linear_width(Kt, 2, seed=self.seed))
        for K in self.c16:
            self.op(f"nonlinear_width.{K.label}.1.2",
                    lambda r, K=K: wl.nonlinear_width(K, 1, 2, seed=self.seed))
        self.op("linear_width.plane.1", lambda r: wl.linear_width(self.plane, 1, seed=self.seed))
        self.op("nonlinear_width.enum.1.3", lambda r: wl.nonlinear_width(self.enum, 1, 3, seed=self.seed))
        for tag, K in self.lp.items():
            self.op(f"linear_width.lp-{tag}.1", lambda r, K=K: wl.linear_width(K, 1, seed=self.seed))
        for d, (V, A) in self.poly.items():
            self.op(f"john_ellipsoid.vertices.{d}",
                    lambda r, V=V: wl.john_ellipsoid(("vertices", V), tol=JOHN_TOL))
            self.op(f"john_ellipsoid.facets.{d}",
                    lambda r, A=A: wl.john_ellipsoid(("facets", A), tol=JOHN_TOL))
        self.op("nonlinear_width.k12.1.2", lambda r: wl.nonlinear_width(self.k12, 1, 2, seed=self.seed))

        def bases(r):
            return r["nonlinear_width.k12.1.2"].witness.bases

        self.op("build_phi", lambda r: wl.build_phi(bases(r)))
        self.op("build_psi", lambda r: wl.build_psi(bases(r)))
        self.op("build_theta_xi", lambda r: wl.build_theta_xi(bases(r), self.max3))
        for name, pick in (("phi", lambda r: r["build_phi"]), ("psi", lambda r: r["build_psi"]),
                           ("theta", lambda r: r["build_theta_xi"][0]),
                           ("xi", lambda r: r["build_theta_xi"][1])):
            self.op(f"estimate_lipschitz.{name}",
                    lambda r, pick=pick: wl.estimate_lipschitz(pick(r), pairs=20_000, seed=self.seed))
        self.op("fixed_width_upper.psi", lambda r: wl.fixed_width_upper(self.k12, r["build_psi"]))
        # euclidean only: under the max norm the chain reports "violated" on
        # about one random 12-point cloud in ten
        for K in self.chain:
            self.op(f"check_width_chain.{K.label}",
                    lambda r, K=K: wl.check_width_chain(K, 1, 2, seed=self.seed))

    def check(self, res: dict) -> list[str]:
        out = []
        for K, n in ((self.c25, 1), (self.c25, 2), (self.c40, 2), (self.c60, 3)):
            if (wr := res.get(f"linear_width.{K.label}.{n}")) is not None:
                what = f"linear width {K.label} n={n}"
                out += ck.check_spectral(wr.bracket, K.points, n, what)
                out += ck.check_family_euclidean(wr, K.points, what)
        if (wr := res.get("linear_width.c25.0")) is not None:
            sup = float(np.linalg.norm(self.c25.points, axis=1).max())
            out += ck.contains(wr.bracket, sup, "linear width c25 n=0")
        if (wr := res.get("linear_width.c40.5")) is not None:
            out += ck.contains(wr.bracket, 0.0, "linear width c40 n=d")
        base = res.get("linear_width.c25.2")
        for t in (0.5, -3.0):
            if base is not None and (wr := res.get(f"linear_width.c25x{t:g}.2")) is not None:
                out += ck.check_homogeneity(wr.bracket, base.bracket, t, f"linear width c25 t={t:g}")
        for key, K, k in ([(f"nonlinear_width.{K.label}.1.2", K, 2) for K in self.c16]
                          + [("nonlinear_width.enum.1.3", self.enum, 3),
                             ("nonlinear_width.k12.1.2", self.k12, 2)]):
            if (wr := res.get(key)) is not None:
                out += ck.check_spectral(wr.bracket, K.points, k, key)
                out += ck.check_family_euclidean(wr, K.points, key)
        if (wr := res.get("linear_width.plane.1")) is not None:
            out += ck.check_planar_line(wr.bracket, self.plane.points, "planar line")
            out += ck.check_family_euclidean(wr, self.plane.points, "planar line")
        for tag, K in self.lp.items():
            if (wr := res.get(f"linear_width.lp-{tag}.1")) is not None:
                kind = "max" if tag == "max" else "l1"
                out += ck.check_family_lp(wr, K.points, kind, K.norm.p, f"linear width {tag}")
        for d, (V, A) in self.poly.items():
            if (jm := res.get(f"john_ellipsoid.vertices.{d}")) is not None:
                out += ck.check_john_vertices(jm, V, JOHN_TOL, f"john vertices d={d}")
            if (jm := res.get(f"john_ellipsoid.facets.{d}")) is not None:
                out += ck.check_john_facets(jm, A, JOHN_TOL, f"john facets d={d}")
        for name, spec_key in (("phi", "build_phi"), ("psi", "build_psi"),
                               ("theta", "build_theta_xi"), ("xi", "build_theta_xi")):
            est, spec = res.get(f"estimate_lipschitz.{name}"), res.get(spec_key)
            if est is not None and spec is not None:
                if name in ("theta", "xi"):
                    spec = spec[0 if name == "theta" else 1]
                out += ck.check_lipschitz(est, spec.gamma, f"lipschitz {name}")
        wr, fw = res.get("nonlinear_width.k12.1.2"), res.get("fixed_width_upper.psi")
        if wr is not None and fw is not None:
            out += ck.check_fixed_width(fw, wr.bracket.upper, "fixed width psi")
        for K in self.chain:
            if (v := res.get(f"check_width_chain.{K.label}")) is not None:
                out += ck.verdicts_not_violated([v], K.label)
        return out


# ---------------------------------------------------------------------------


class Suite:
    """``widthlab run suite.cfg --seed <seed>`` through the CLI entry point;
    one round is one full run of the config, reports written to disk."""

    def __init__(self, seed: int, out_dir: Path, jobs: int):
        self.seed = seed
        self.jobs = jobs
        self.out_dir = out_dir
        self.sections = suite_sections()
        # the set models every section builds, made here so that set-up
        # time covers them
        configs = runner.parse_config(SUITE_CFG)
        for cfg in configs:
            cfg.seed = seed
        self.models = [runner.build_set(cfg) for cfg in configs if cfg.options.get("set")]
        self.first = None

    def prepare(self, k: int):
        """Every round runs the same config with the same seed."""

    def _run(self, dest: Path, jobs: int) -> tuple[int, str]:
        log = io.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main(["run", str(SUITE_CFG), "--out", str(dest),
                             "--seed", str(self.seed), "--jobs", str(jobs)])
        return code, log.getvalue()

    def run_round(self) -> tuple[dict, int, int, str]:
        dest = self.out_dir / "report"
        code, log = self._run(dest, self.jobs)
        done = {m["id"] for m in map(PROGRESS.match, log.splitlines()) if m}
        failed = sum(s not in done for s in self.sections)
        if failed:
            print(log, file=sys.stderr)
        return {"code": code, "dir": dest}, len(self.sections), failed, log

    def after_round(self, res: dict) -> list[str]:
        """Every round's exit code and report bytes must equal round 0's."""
        fp = res["code"], tuple((p.name, p.read_bytes()) for p in sorted(res["dir"].iterdir()))
        if self.first is None:
            self.first = fp
        return [] if fp == self.first else ["reports differ from round 0's"]

    def finish(self, res: dict) -> list[str]:
        return self.check(res)

    def rows(self, result: dict) -> list[dict]:
        with open(result["dir"] / "results.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def verdicts(self, result: dict) -> list[dict]:
        return json.loads((result["dir"] / "verdicts.json").read_text())

    def check(self, result: dict) -> list[str]:
        out = [f"exit code {result['code']}"] if result["code"] else []
        if self.jobs != 1:
            ref = self.out_dir / "reference-jobs1"
            code, _ = self._run(ref, 1)
            out += [f"--jobs 1 reference: exit code {code}"] if code else []
            out += _same_reports(ref, result["dir"], f"--jobs {self.jobs} vs --jobs 1")
        rows = self.rows(result)
        for row in rows:
            br = _row_bracket(row)
            what = f"{row['experiment_id']}:{row['quantity']}:n={row['n']}"
            out += ck.bracket_shape(br, what)
            if row["experiment_id"] == "ksigma-reproduce":
                n = int(row["n"])
                alpha, J = 1.0, 2**n + 8
                closed = ck.sigma(alpha, 2**n)
                if row["quantity"] == "inner_entropy":
                    out += ck.contains(br, closed, what, slack=ck.sigma(alpha, J + 1))
                else:
                    nested = float(np.hypot(closed, ck.sigma(alpha, 2**n + 1)))
                    out += ck.contains(br, nested, what)
            if row["experiment_id"] == "linear-width-cloud":
                P = np.random.default_rng([self.seed, 0]).normal(size=(25, 4))
                n = int(row["n"])
                if n == 0:
                    out += ck.contains(br, float(np.linalg.norm(P, axis=1).max()), what)
                else:
                    out += ck.check_spectral(br, P, n, what)
        out += [f"verdict {v['check']} violated" for v in self.verdicts(result)
                if v["status"] == "violated"]
        return out

    def summary(self, result: dict) -> tuple[list[Row], list[str]]:
        return ([_row_bracket(r) for r in self.rows(result)],
                [v["status"] for v in self.verdicts(result)])


def _row_bracket(row: dict) -> Row:
    return Row(float(row["lower"]), float(row["upper"]), row["exact"] == "true")


def _same_reports(a: Path, b: Path, what: str) -> list[str]:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"{what}: report files differ"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return [f"{what}: {name} differs" for name in mismatch + errors]


def make(name: str, seed: int, out_dir: Path):
    if name == "suite":
        return Suite(seed, out_dir, jobs=1)
    if name == "suite-jobs2":
        return Suite(seed, out_dir, jobs=2)
    if name == "entropy-geometry":
        return EntropyGeometry(seed)
    if name == "width-fit":
        return WidthFit(seed)
    raise ValueError(f"unknown workload {name!r}")


def clear(out_dir: Path):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
