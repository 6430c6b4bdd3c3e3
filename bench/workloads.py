"""The four benchmark workloads.

A workload builds its inputs from the benchmark seed (setup), hands out
units by index, runs one unit through spapt's public API (timed, traced
through ``tr.call``), and checks a unit's outputs against the numpy
oracles in :mod:`oracles` (untimed).  ``check`` returns ``None`` or a
one-line description of what was wrong.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

import spapt
import spapt.io
from spapt import cli

import oracles as orc

#: failures that are defects of spapt at the time the benchmark was written;
#: they count as failed units but do not make a run incorrect
KNOWN_DEFECTS = {
    "malformed_nan_entries": "a NaN state file exits 3 (numeric) instead of 2 (validation)",
    "malformed_oversize_shots": "--shots 10**19 escapes as OverflowError instead of exiting 2",
}

SHOT_BUDGETS = (10**3, 10**4, 10**5, 10**6, 10**7)
CONTRACT_SEED = 42
CONTRACT_PATH = Path(__file__).resolve().parent / "seed_contract.json"


@dataclass(frozen=True)
class Unit:
    kind: str
    args: tuple


def _unit_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _dense_state(seed: int, stream: int, index: int) -> np.ndarray:
    """A fresh random dense state per unit, made outside the unit's timer."""
    return orc.random_dense_state(np.random.default_rng([seed, stream, index]))


def _close(a, b, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)


def _ppt_verdict(lam_pt: float) -> str | None:
    """Oracle verdict, or None on the separable boundary where either
    verdict is acceptable."""
    if abs(lam_pt) <= orc.EIG_TOL:
        return None
    return "entangled" if lam_pt < 0 else "undetected"


class Workload:
    name = ""
    cycle = 1  # the timed loop stops only at a multiple of this many units

    def __init__(self, seed: int, workdir: Path, tr) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tr = tr
        #: shots -> [sampled verdicts agreeing with the ppt oracle, compared]
        self.agreement = {b: [0, 0] for b in SHOT_BUDGETS}

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def run(self, unit: Unit):
        raise NotImplementedError

    def check(self, unit: Unit, out) -> str | None:
        raise NotImplementedError

    def extra_checks(self) -> list[tuple[str, str | None]]:
        """Untimed checks run once after the timed phase: (kind, problem)."""
        return []

    def _agree(self, shots: int, lam_sampled: float, lam_pt: float) -> None:
        expected = _ppt_verdict(lam_pt)
        if expected is None or shots not in self.agreement:
            return
        sampled = "entangled" if lam_sampled < orc.SPA_THRESHOLD else "undetected"
        self.agreement[shots][0] += int(sampled == expected)
        self.agreement[shots][1] += 1


def _check_sampled_table(table, shots: int) -> str | None:
    if table.shots_per_setting != shots:
        return f"table echoes {table.shots_per_setting} shots, expected {shots}"
    freqs = np.concatenate([table.p.ravel(), table.q, table.r]) * shots
    if not _close(freqs, np.rint(freqs), 1e-6):
        return "table frequencies are not counts / shots"
    if abs(table.q.sum() + table.r.sum() - 1.0) > 1e-12:
        return "sampled q and r do not sum to 1"
    return None


# --- state_sweep --------------------------------------------------------------


class StateSweep(Workload):
    """Dense full-rank random states: validation, the three exact verdict
    routes, and one cached SPA-PT channel applied per state."""

    name = "state_sweep"

    def __init__(self, seed, workdir, tr):
        super().__init__(seed, workdir, tr)
        self.channel = tr.call("channels.build", spapt.spa_pt)

    def unit(self, index):
        return Unit("state", (_dense_state(self.seed, 1, index),))

    def run(self, unit):
        c = self.tr.call
        rho = c("states.DensityMatrix", spapt.DensityMatrix, unit.args[0])
        ptm = c("linalg.partial_transpose", spapt.partial_transpose, rho.mat)
        ppt = c("detection.detect_ppt", spapt.detect, rho, "ppt")
        spa = c("detection.detect_spa_spectrum", spapt.detect, rho, "spa_spectrum")
        table = c("tomography.ideal_probabilities", spapt.ideal_probabilities, rho)
        fh = c("detection.detect_f_hat", spapt.detect, table, "f_hat")
        out = c("channels.apply", spapt.apply, self.channel, rho)
        spec = c("linalg.herm_eig", spapt.herm_eig, out.mat)
        return rho, ptm, ppt, spa, fh, out, spec

    def check(self, unit, out):
        rho, ptm, ppt, spa, fh, chan_out, spec = out
        raw = unit.args[0]
        if not _close(rho.mat, raw, 0.0):
            return "DensityMatrix altered its input"
        exact_pt = orc.pt(raw)
        if not _close(ptm, exact_pt, 1e-15):
            return "partial_transpose differs from the oracle"
        pt_eigs = orc.eigs(exact_pt)
        lam_pt = float(pt_eigs[0])
        lam_spa = lam_pt / 9.0 + orc.SPA_THRESHOLD
        if abs(ppt.lambda_min - lam_pt) > orc.EIG_TOL:
            return f"ppt lambda {ppt.lambda_min} != oracle {lam_pt}"
        for verdict in (spa, fh):
            if abs(verdict.lambda_min - lam_spa) > orc.EIG_TOL:
                return f"{verdict.method} lambda {verdict.lambda_min} breaks the affine law ({lam_spa})"
        expected = _ppt_verdict(lam_pt)
        if expected is not None and {ppt.verdict, spa.verdict, fh.verdict} != {expected}:
            return f"verdicts {ppt.verdict}/{spa.verdict}/{fh.verdict} != oracle {expected}"
        if not _close(chan_out.mat, orc.spa_output(raw), 1e-12):
            return "apply(spa_pt) differs from PT/9 + (2/9) I"
        values = np.asarray(spec.values)
        if not _close(values, pt_eigs / 9.0 + orc.SPA_THRESHOLD, orc.EIG_TOL):
            return "output spectrum breaks the affine law"
        if values[0] < 1.0 / 6.0 - orc.EIG_TOL or values[-1] > 1.0 / 3.0 + orc.EIG_TOL:
            return "output spectrum leaves [1/6, 1/3]"
        return None


# --- shot_sweep ---------------------------------------------------------------

#: structured states near the separable boundary: (label, builder, args)
SHOT_STATES = (
    [(f"werner({p})", "werner", (p,)) for p in (0.58, 0.62, 0.65, 0.68, 0.72)]
    + [(f"rho_family({p},{a})", "rho_family", (p, a)) for p, a in spapt.NINE_STATE_PARAMS]
    + [(f"mems({p})", "mems", (p,)) for p in (0.2, 0.4, 0.6, 0.8, 1.0)]
)


def contract_digest(rho, shots: int) -> str:
    """Digest of everything sampled for (rho, shots) at the contract seed:
    table counts, trajectory branch counts, the trajectory average and the
    Pauli tomography counts."""
    cfg = spapt.ShotConfig(shots_per_setting=shots, seed=CONTRACT_SEED)
    table = spapt.sample_table(rho, cfg)
    counts = np.rint(np.concatenate([table.p.ravel(), table.q, table.r]) * shots).astype(np.int64)
    branches = np.array(spapt.trajectory_branch_counts(rho, cfg), dtype=np.int64)
    traj = spapt.trajectory_spa_pt(rho, cfg).mat
    traj = np.round(np.stack([traj.real, traj.imag]), 9) + 0.0
    pauli = np.rint(spapt.sample_pauli_expectations(rho, cfg) * shots * 3).astype(np.int64)
    h = hashlib.sha256()
    for arr in (counts, branches, traj, pauli):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


class ShotSweep(Workload):
    """One finite-shot experiment per unit: sampled table -> f_hat ->
    lambda_d, trajectory average vs the exact output, and the table1
    tomography route to lambda_exp."""

    name = "shot_sweep"

    def __init__(self, seed, workdir, tr):
        super().__init__(seed, workdir, tr)
        channel = tr.call("channels.build", spapt.spa_pt)
        self.states = []
        for label, builder, args in SHOT_STATES:
            rho = tr.call(f"states.{builder}", getattr(spapt, builder), *args)
            exact = tr.call("channels.apply", spapt.apply, channel, rho)
            oracle_raw = getattr(orc, builder)(*args)
            self.states.append((label, rho, exact, oracle_raw, orc.lambda_pt(oracle_raw)))
        combos = [(s, b) for s in range(len(self.states)) for b in SHOT_BUDGETS]
        order = np.random.default_rng([seed, 2]).permutation(len(combos))
        self.combos = [combos[k] for k in order]

    def unit(self, index):
        s, shots = self.combos[index % len(self.combos)]
        return Unit("experiment", (s, shots, _unit_seed(self.seed, index)))

    def run(self, unit):
        s, shots, sseed = unit.args
        _, rho, exact, _, _ = self.states[s]
        c = self.tr.call
        cfg = spapt.ShotConfig(shots_per_setting=shots, seed=sseed)
        table = c("tomography.sample_table", spapt.sample_table, rho, cfg)
        fh = c("detection.f_hat", spapt.f_hat, table)
        lam_d = c("detection.lambda_min_d", spapt.lambda_min_d, fh)
        traj = c("tomography.trajectory_spa_pt", spapt.trajectory_spa_pt, rho, cfg)
        fid = c("states.fidelity", spapt.fidelity, traj, exact)
        expectations = c("tomography.sample_pauli_expectations", spapt.sample_pauli_expectations, traj, cfg)
        raw = c("tomography.qst_linear_inversion", spapt.qst_linear_inversion, expectations)
        rec = c("tomography.project_to_physical", spapt.project_to_physical, raw)
        lam_exp = float(c("linalg.herm_eig", spapt.herm_eig, rec.mat).values[0])
        return table, lam_d, fid, lam_exp

    def check(self, unit, out):
        s, shots, _ = unit.args
        table, lam_d, fid, lam_exp = out
        label, _, exact, oracle_raw, lam_pt = self.states[s]
        lam_spa = lam_pt / 9.0 + orc.SPA_THRESHOLD
        self._agree(shots, lam_d, lam_pt)
        problem = _check_sampled_table(table, shots)
        if problem:
            return f"{label}: {problem}"
        if not _close(exact.mat, orc.spa_output(oracle_raw), 1e-12):
            return f"{label}: exact output differs from PT/9 + (2/9) I"
        if abs(lam_d - lam_spa) > orc.lambda_d_band(shots):
            return f"{label}@{shots}: lambda_d {lam_d} outside the shot-noise band of {lam_spa}"
        if not 1.0 - orc.fidelity_band(shots) <= fid <= 1.0:
            return f"{label}@{shots}: trajectory fidelity {fid} outside its band"
        if lam_exp < -orc.EIG_TOL or abs(lam_exp - lam_spa) > orc.lambda_exp_band(shots):
            return f"{label}@{shots}: lambda_exp {lam_exp} outside the band of {lam_spa}"
        return None

    def extra_checks(self):
        stored = load_contract()
        results = []
        for label, rho, _, _, _ in self.states:
            for shots in SHOT_BUDGETS:
                key = f"{label}@{shots}"
                try:
                    got = contract_digest(rho, shots)
                except Exception as exc:  # a sampler that raises breaks the contract too
                    got = f"{type(exc).__name__}: {exc}"
                problem = None if stored.get(key) == got else f"{key}: digest {got} != stored {stored.get(key)}"
                results.append(("seed_contract", problem))
        return results


def load_contract() -> dict:
    with open(CONTRACT_PATH, encoding="utf-8") as fp:
        doc = json.load(fp)
    if doc.get("seed") != CONTRACT_SEED:
        raise ValueError(f"{CONTRACT_PATH} was recorded for another seed")
    return doc["digests"]


def record_contract() -> dict:
    """Digests of the current program, in the format :func:`load_contract` reads."""
    digests = {}
    for label, builder, args in SHOT_STATES:
        rho = getattr(spapt, builder)(*args)
        for shots in SHOT_BUDGETS:
            digests[f"{label}@{shots}"] = contract_digest(rho, shots)
    return {"seed": CONTRACT_SEED, "digests": digests}


# --- certify ------------------------------------------------------------------

CERT_CHANNELS = tuple(cli.CHANNEL_FACTORIES) + ("spa_transpose", "spa_inversion", "depolarize")
DETSCAN_BUDGETS = (10**4, 10**5, 10**6, 10**7)  # 15 units a cycle, so the median falls inside one unit kind


def _factory(name: str):
    return cli.CHANNEL_FACTORIES.get(name) or getattr(spapt, name)


@lru_cache(maxsize=None)
def _closed_form(name: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """Oracle superoperator, Choi matrix and CP verdict of a channel."""
    fn, d = orc.CHANNEL_MAPS[name], orc.CHANNEL_DIMS[name]
    choi = orc.choi(fn, d)
    return orc.superoperator(fn, d), choi, bool(orc.eigs(choi)[0] >= -orc.EIG_TOL)


class Certify(Workload):
    """Fresh channel builds with superoperator, Choi and CP/TP certificates,
    the decomposition identity, and the determinant-scan cross-check."""

    name = "certify"

    def __init__(self, seed, workdir, tr):
        super().__init__(seed, workdir, tr)
        self.units = [Unit("cert", (name,)) for name in CERT_CHANNELS] + [Unit("decomposition", ())]
        self.units += [Unit("detscan", (b,)) for b in DETSCAN_BUDGETS]
        self.cycle = len(self.units)

    def unit(self, index):
        u = self.units[index % self.cycle]
        if u.kind != "detscan":
            return u
        return Unit("detscan", (_dense_state(self.seed, 3, index), u.args[0], _unit_seed(self.seed, index)))

    def run(self, unit):
        c = self.tr.call
        if unit.kind == "cert":
            ch = c("channels.build", _factory(unit.args[0]))
            superop = c("channels.superoperator", ch.superoperator)
            choi = c("channels.choi", spapt.choi, ch)
            return superop, choi.mat, c("channels.is_cp", spapt.is_cp, ch), c("channels.is_tp", spapt.is_tp, ch)
        if unit.kind == "decomposition":
            parts = (
                c("channels.build", spapt.spa_pt),
                c("channels.build", spapt.partial_transpose_channel),
                c("channels.build", spapt.replace_channel, 4),
            )
            return [c("channels.superoperator", ch.superoperator) for ch in parts]
        raw, shots, sseed = unit.args
        rho = c("states.DensityMatrix", spapt.DensityMatrix, raw)
        table = c("tomography.sample_table", spapt.sample_table, rho, spapt.ShotConfig(shots, sseed))
        fh = c("detection.f_hat", spapt.f_hat, table)
        return table, fh.mat, c("detection.lambda_min_d", spapt.lambda_min_d, fh), c("detection.lambda_min_det_scan", spapt.lambda_min_det_scan, fh)

    def check(self, unit, out):
        if unit.kind == "cert":
            name = unit.args[0]
            superop, choi, cp, tp = out
            want_super, want_choi, want_cp = _closed_form(name)
            if not _close(superop, want_super, 1e-10):
                return f"{name}: superoperator differs from the closed form"
            if not _close(choi, want_choi, 1e-10):
                return f"{name}: Choi matrix differs from the closed form"
            if cp is not want_cp or tp is not True:
                return f"{name}: certificates cp={cp} tp={tp}, expected cp={want_cp} tp=True"
            return None
        if unit.kind == "decomposition":
            spa, ptc, rep = out
            if not _close(spa, ptc / 9.0 + (8.0 / 9.0) * rep, 1e-10):
                return "spa_pt != PT/9 + (8/9) replace"
            if not _close(ptc, orc.superoperator(orc.pt, 4), 1e-12) or not _close(rep, orc.replace_superoperator(4), 1e-12):
                return "partial transpose or replace superoperator differs from the closed form"
            if not _close(spa, _closed_form("spa_pt")[0], 1e-10):
                return "spa_pt superoperator differs from the closed form"
            return None
        raw, shots, _ = unit.args
        table, fmat, lam_d, lam_scan = out
        lam_pt = orc.lambda_pt(raw)
        self._agree(shots, lam_d, lam_pt)
        problem = _check_sampled_table(table, shots)
        if problem:
            return problem
        if abs(lam_d - orc.eigs(fmat)[0]) > orc.EIG_TOL:
            return f"lambda_min_d {lam_d} != eigvalsh {orc.eigs(fmat)[0]}"
        if abs(lam_scan - lam_d) > 1e-8:
            return f"det-scan {lam_scan} != lambda_min_d {lam_d}"
        if abs(lam_d - (lam_pt / 9.0 + orc.SPA_THRESHOLD)) > orc.lambda_d_band(shots):
            return f"lambda_d {lam_d} outside the shot-noise band"
        return None


# --- cli_reports --------------------------------------------------------------

CLI_SHOTS = 100000
OVERSIZE_SHOTS = str(10**19)


def _parse_report(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    return list(csv.DictReader(io.StringIO(text)))


class CliReports(Workload):
    """In-process ``spapt.cli.main`` over state files written in setup:
    mostly short prepare/detect/apply commands, one table1 and one fig3
    per cycle, and four malformed inputs with documented exit codes."""

    name = "cli_reports"
    METHODS = ("ppt", "spa_spectrum", "f_hat_ideal", "f_hat_sampled")

    def __init__(self, seed, workdir, tr):
        super().__init__(seed, workdir, tr)
        rng = np.random.default_rng([seed, 4])
        states = [
            ("werner", (0.3,)),
            ("werner", (0.7,)),
            ("mems", (0.5,)),
            ("rho_family", (0.12, 0.71)),
            ("bell", ("psi-",)),
        ]
        self.files = []
        for k, (builder, args) in enumerate(states + [("dense", ())] * 3):
            if builder == "dense":
                rho = tr.call("states.DensityMatrix", spapt.DensityMatrix, orc.random_dense_state(rng))
            else:
                rho = tr.call(f"states.{builder}", getattr(spapt, builder), *args)
            path = workdir / f"state{k}.json"
            tr.call("io.save_state", spapt.io.save_state, rho, {"family": builder}, str(path))
            with open(path, encoding="utf-8") as fp:
                doc = json.load(fp)
            mat = np.array(doc["re"]) + 1j * np.array(doc["im"])
            self.files.append((str(path), mat, orc.lambda_pt(mat)))
        self.malformed = {}
        good = json.loads(Path(self.files[0][0]).read_text(encoding="utf-8"))
        bad_texts = {
            "malformed_bad_json": json.dumps(good)[:-7],
            "malformed_non_hermitian": json.dumps({**good, "re": [[0.25, 0.2, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}),
            "malformed_nan_entries": json.dumps({**good, "re": [[float("nan")] * 4] * 4}),
        }
        for kind, text in bad_texts.items():
            path = workdir / f"{kind}.json"
            path.write_text(text, encoding="utf-8")
            self.malformed[kind] = str(path)
        self._cycle_index = -1
        self._cycle_units: list[Unit] = []
        self.cycle = len(self._build_cycle(0))
        self._json_rows: dict = {}

    def _build_cycle(self, c: int) -> list[Unit]:
        rng = np.random.default_rng([self.seed, 5, c])
        path = self.files[c % len(self.files)][0]
        sseed = str(int(rng.integers(2**31)))
        p, p2, p3 = (repr(float(x)) for x in rng.random(3))
        alpha = repr(float(rng.random()))
        kind = ("phi+", "phi-", "psi+", "psi-")[c % 4]
        units = [
            Unit("prepare", (["prepare", "werner", "--p", p], ("werner", (float(p),)))),
            Unit("prepare", (["prepare", "mems", "--p", p2], ("mems", (float(p2),)))),
            Unit("prepare", (["prepare", "rho_family", "--p", p3, "--alpha", alpha], ("rho_family", (float(p3), float(alpha))))),
            Unit("prepare", (["prepare", "bell", "--kind", kind], ("bell", (kind,)))),
            Unit("prepare_file", (["prepare", "file", "--path", path], c % len(self.files))),
        ]
        for method in self.METHODS:
            for fmt in ("json", "csv"):
                argv = ["detect", "--state", path, "--method", method, "--shots", str(CLI_SHOTS), "--seed", sseed, "--format", fmt]
                units.append(Unit("detect", (argv, c % len(self.files), method, fmt)))
        units.append(Unit("table1", (["table1", "--seed", sseed],)))
        for channel in sorted(cli.CHANNEL_FACTORIES):
            for mode in ("exact", "trajectory"):
                for fmt in ("json", "csv"):
                    argv = ["apply", "--state", path, "--channel", channel, "--mode", mode, "--shots", str(CLI_SHOTS), "--seed", sseed, "--format", fmt]
                    state_out = None
                    if mode == "exact" and fmt == "json":
                        state_out = str(self.workdir / "state_out.json")
                        argv += ["--state-out", state_out]
                    units.append(Unit("apply", (argv, c % len(self.files), channel, mode, fmt, state_out)))
        units.append(Unit("fig3", (["fig3", "--seed", sseed],)))
        for kind_, path_ in self.malformed.items():
            units.append(Unit(kind_, (["detect", "--state", path_, "--method", "ppt"],)))
        units.append(Unit("malformed_oversize_shots", (["detect", "--state", path, "--method", "f_hat_sampled", "--shots", OVERSIZE_SHOTS],)))
        return units

    def unit(self, index):
        c = index // self.cycle
        if c != self._cycle_index:
            self._cycle_index, self._cycle_units = c, self._build_cycle(c)
        return self._cycle_units[index % self.cycle]

    def _main(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.tr.call(f"cli.main_{argv[0]}", cli.main, argv)
            except SystemExit as exc:  # argparse usage errors: the process exit code
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    def run(self, unit):
        rc, out, err = self._main(unit.args[0])
        if unit.kind == "apply" and unit.args[5] is not None and rc == 0:
            back, _ = self.tr.call("io.load_state", spapt.io.load_state, unit.args[5])
            return rc, out, err, back.mat
        return rc, out, err, None

    def check(self, unit, out):
        rc, text, err, back = out
        if unit.kind.startswith("malformed_"):
            return None if rc == 2 else f"exit code {rc}, documented 2 ({err.strip()[-80:]})"
        if unit.kind == "apply" and unit.args[3] == "trajectory" and unit.args[2] != "spa_pt" and rc == 2:
            # documented limitation: trajectory mode is implemented for spa_pt only
            return None if "trajectory" in err else f"exit 2 without naming the trajectory limitation: {err.strip()}"
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-120:]}"
        return getattr(self, f"_check_{unit.kind}")(unit, text, back)

    def _check_prepare(self, unit, text, back):
        builder, args = unit.args[1]
        doc = json.loads(text)
        mat = np.array(doc["re"]) + 1j * np.array(doc["im"])
        if not _close(mat, getattr(orc, builder)(*args), 1e-11):
            return f"prepared {builder}{args} differs from the closed form"
        return None if doc["metadata"]["family"] == builder else "wrong family metadata"

    def _check_prepare_file(self, unit, text, back):
        doc = json.loads(text)
        mat = np.array(doc["re"]) + 1j * np.array(doc["im"])
        return None if _close(mat, self.files[unit.args[1]][1], 0.0) else "file round trip changed the state"

    def _pair(self, key, fmt: str, row: dict) -> str | None:
        """JSON rows are kept; the CSV twin must carry the same values."""
        if fmt == "json":
            self._json_rows[key] = row
            return None
        ref = self._json_rows.pop(key, None)
        if ref is None:
            return "CSV report without its JSON twin"
        for name, value in ref.items():
            cell = row.get(name)
            if value is None:
                same = cell == ""
            elif isinstance(value, float):
                same = cell not in (None, "") and float(cell) == value
            else:
                same = cell == str(value)
            if not same:
                return f"CSV {name}={cell!r} but JSON {value!r}"
        return None if set(row) == set(ref) else "CSV and JSON columns differ"

    def _check_detect(self, unit, text, back):
        _, f, method, fmt = unit.args
        row = _parse_report(text, fmt)[0]
        lam = float(row["lambda_min"])
        lam_pt = self.files[f][2]
        if method == "ppt":
            want, tol, threshold = lam_pt, orc.EIG_TOL, 0.0
        else:
            want, threshold = lam_pt / 9.0 + orc.SPA_THRESHOLD, orc.SPA_THRESHOLD
            tol = orc.lambda_d_band(CLI_SHOTS) if method == "f_hat_sampled" else orc.EIG_TOL
        if abs(lam - want) > tol:
            return f"{method}: lambda {lam} != oracle {want}"
        if row["verdict"] != ("entangled" if lam < threshold else "undetected"):
            return f"{method}: verdict {row['verdict']} contradicts lambda {lam}"
        if method == "f_hat_sampled" and fmt == "json":
            self._agree(CLI_SHOTS, lam, lam_pt)
        return self._pair(("detect", method), fmt, row)

    def _check_apply(self, unit, text, back):
        _, f, channel, mode, fmt, state_out = unit.args
        row = _parse_report(text, fmt)[0]
        mat = self.files[f][1]
        want = orc.CHANNEL_MAPS[channel](mat)
        want_eigs = orc.eigs(want)
        got = np.array([float(row[f"eig_{k}"]) for k in range(1, 5)])
        tol = orc.EIG_TOL if mode == "exact" else orc.trajectory_trace_band(CLI_SHOTS)
        if not _close(got, want_eigs, tol):
            return f"{channel}/{mode}: spectrum {got} != oracle {want_eigs}"
        if float(row["min_eigenvalue"]) != got[0]:
            return "min_eigenvalue is not eig_1"
        if mode == "trajectory" and not float(row["fidelity_to_exact"]) >= 1.0 - orc.fidelity_band(CLI_SHOTS):
            return f"{channel}: trajectory fidelity {row['fidelity_to_exact']} below its band"
        if channel == "spa_pt" and (got[0] < 1 / 6 - tol or got[-1] > 1 / 3 + tol):
            return "spa_pt output spectrum leaves [1/6, 1/3]"
        if back is not None and not _close(back, want, 1e-11):
            return f"{channel}: --state-out file differs from the oracle output"
        return self._pair(("apply", channel, mode), fmt, row)

    def _check_table1(self, unit, text, back):
        rows = _parse_report(text, "json")
        if [r["state"] for r in rows] != list(spapt.BELL_KINDS):
            return "table1 rows are not the four Bell states"
        for r in rows:
            if abs(r["lambda_th"] - 1 / 6) > orc.EIG_TOL:
                return f"{r['state']}: lambda_th {r['lambda_th']} != 1/6"
            if abs(r["lambda_d"] - 1 / 6) > orc.lambda_d_band(CLI_SHOTS):
                return f"{r['state']}: lambda_d {r['lambda_d']} outside the band"
            if abs(r["lambda_exp"] - 1 / 6) > orc.lambda_exp_band(CLI_SHOTS):
                return f"{r['state']}: lambda_exp {r['lambda_exp']} outside the band"
            self._agree(CLI_SHOTS, r["lambda_d"], orc.lambda_pt(orc.bell(r["state"])))
        return None

    def _check_fig3(self, unit, text, back):
        rows = _parse_report(text, "json")
        if len(rows) != len(spapt.NINE_STATE_PARAMS) + 42:
            return f"fig3 has {len(rows)} rows"
        for r in rows:
            args = (r["p"], r["alpha"]) if r["family"] == "rho_family" else (r["p"],)
            rho = getattr(orc, r["family"])(*args)
            lam_pt = orc.lambda_pt(rho)
            lam_spa = lam_pt / 9.0 + orc.SPA_THRESHOLD
            where = f"{r['family']}{args}"
            if abs(r["lambda_th"] - lam_spa) > orc.EIG_TOL or abs(r["lambda_d_ideal"] - lam_spa) > orc.EIG_TOL:
                return f"{where}: lambda_th/lambda_d_ideal off the affine law"
            if abs(r["lambda_d_sampled"] - lam_spa) > orc.lambda_d_band(CLI_SHOTS):
                return f"{where}: lambda_d_sampled outside the band"
            if abs(r["tangle"] - orc.tangle(rho)) > 1e-6 or abs(r["linear_entropy"] - orc.linear_entropy(rho)) > 1e-9:
                return f"{where}: tangle or linear entropy differs from the oracle"
            expected = _ppt_verdict(lam_pt)
            if expected is not None and r["verdict"] != expected:
                return f"{where}: verdict {r['verdict']} != oracle {expected}"
            self._agree(CLI_SHOTS, r["lambda_d_sampled"], lam_pt)
        return None


WORKLOADS = {w.name: w for w in (StateSweep, ShotSweep, CliReports, Certify)}
